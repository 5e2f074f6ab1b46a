"""File parsing and deterministic serialization helpers for the CLI."""
from __future__ import annotations

import contextlib
import json
import math
import os
import shutil
import tempfile
from pathlib import Path
from typing import Sequence

import numpy as np

from .canonical import BipartiteSpectrum
from .errors import DomainError, ParseError
from .sampling import _default_workers
from .spectrum import Spectrum


def _load_json(path: str | Path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ParseError(f"{path} must contain a JSON object")
    return obj


def _require_numbers(path: str | Path, obj: dict, key: str) -> None:
    """Reject JSON strings, booleans and objects in or as ``obj[key]``: the
    spectrum would read "2" as 2.0, true as 1.0 and an object as its keys."""
    values = obj[key]
    kinds = set(map(type, values)) if isinstance(values, list) else {type(values)}
    if kinds & {str, bool, dict}:
        raise ParseError(f"{path}: '{key}' must be an array of numbers")


def load_spectrum(path: str | Path) -> Spectrum:
    """Read {"levels": [...], "degeneracies": [...]?}; degeneracies default to ones."""
    obj = _load_json(path)
    if "levels" not in obj:
        raise ParseError(f"{path} is missing the 'levels' key")
    _require_numbers(path, obj, "levels")
    if "degeneracies" in obj:
        _require_numbers(path, obj, "degeneracies")
    try:
        return Spectrum.from_json(obj)
    except (DomainError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{path} is not a valid spectrum: {exc}") from exc


def load_bipartite(path: str | Path) -> BipartiteSpectrum:
    """Read {"levels_a": [...], "levels_b": [...]}."""
    obj = _load_json(path)
    if "levels_a" not in obj or "levels_b" not in obj:
        raise ParseError(f"{path} is missing 'levels_a'/'levels_b'")
    _require_numbers(path, obj, "levels_a")
    _require_numbers(path, obj, "levels_b")
    try:
        return BipartiteSpectrum.from_json(obj)
    except (DomainError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{path} is not a valid bipartite spectrum: {exc}") from exc


def dumps_record(record: dict) -> str:
    """Deterministic strict JSON rendering: sorted keys, fixed separators,
    newline-terminated, every dict key written as ``str(key)`` and every
    non-finite float as null."""
    return json.dumps(_finite_or_null(record), sort_keys=True, indent=2, allow_nan=False) + "\n"


def _finite_or_null(obj):
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {str(key): _finite_or_null(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(value) for value in obj]
    return obj


# Tables with fewer cells than this are formatted in this process alone: for
# them a fork costs more than it saves.
SPLIT_CELLS = 1 << 16


def write_csv(path: str | Path, header: Sequence[str], table) -> None:
    """Write ``header`` and the rows of the 2-D float ``table`` as CSV.

    Every line ends in CRLF and every cell is the shortest decimal that reads
    back to the same float (``repr``).  Where ``os.fork`` exists, a table of
    at least ``SPLIT_CELLS`` cells is cut into one contiguous row part per
    CPU this process may run on (at most one per row) when ``path`` is a
    regular file: forked children format the parts after the first into
    anonymous temporary files beside ``path`` while this process formats the
    first, and the parts are appended in order, so the bytes do not depend
    on the part count.  A failed part raises ``OSError`` and removes
    ``path``.
    """
    path = Path(path)
    table = np.asarray(table, dtype=float)
    path.parent.mkdir(parents=True, exist_ok=True)
    parts = min(_default_workers(), len(table))
    split = False
    try:
        with path.open("w", newline="") as fh:
            fh.write(",".join(header) + "\r\n")
            # a pipe or a device such as /dev/stdout is written by one process,
            # and is never unlinked
            split = (
                parts > 1 and table.size >= SPLIT_CELLS and hasattr(os, "fork") and path.is_file()
            )
            if split:
                _write_parts(fh, table, parts, path.parent)
            else:
                _format_rows(fh, table)
    except BaseException:
        if split:
            path.unlink(missing_ok=True)
        raise


def _format_rows(fh, rows: np.ndarray) -> None:
    # ndarray.tolist gives Python floats: in NumPy 2 repr(np.float64(x)) is
    # "np.float64(x)", not the bare decimal
    fh.writelines(",".join(map(repr, row)) + "\r\n" for row in map(np.ndarray.tolist, rows))


def _write_parts(fh, table: np.ndarray, parts: int, tmp_dir: Path) -> None:
    """Format part 0 into ``fh`` while forked children format the others,
    then append the children's files in order.  Every child is waited for,
    also when a part fails."""
    edges = [len(table) * k // parts for k in range(parts + 1)]
    pending = []  # (pid, temporary file, first row) of children not yet waited for
    with contextlib.ExitStack() as temps:
        try:
            for lo, hi in zip(edges[1:-1], edges[2:]):
                tmp = temps.enter_context(tempfile.TemporaryFile(dir=tmp_dir))
                pending.append((_fork_part(tmp, table[lo:hi]), tmp, lo))
            _format_rows(fh, table[: edges[1]])
            fh.flush()
            while pending:
                pid, tmp, lo = pending[0]
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                del pending[0]
                if code != 0:
                    raise OSError(f"formatting CSV rows from {lo} failed (exit code {code})")
                tmp.seek(0)
                shutil.copyfileobj(tmp, fh.buffer)
        finally:
            for pid, _, _ in pending:
                with contextlib.suppress(ChildProcessError):
                    os.waitpid(pid, 0)


def _fork_part(tmp, rows: np.ndarray) -> int:
    """Fork a child that formats ``rows`` into ``tmp``; return its pid.

    The child leaves only through ``os._exit``: it never returns into the
    caller and never flushes the buffers it shares with this process.  It
    only formats floats and writes, so it takes no lock that another thread
    of this process could have held at the fork (the chunk streams have
    joined their threads by then, and the child makes no BLAS call)."""
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            with open(tmp.fileno(), "w", newline="", closefd=False) as out:
                _format_rows(out, rows)
            code = 0
        finally:
            os._exit(code)
    return pid
