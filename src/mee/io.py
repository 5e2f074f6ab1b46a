"""File parsing and deterministic serialization helpers for the CLI."""
from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Sequence

import numpy as np

from .canonical import BipartiteSpectrum
from .errors import DomainError, ParseError
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


# Rows formatted per orjson call: a block's text is held in memory once.
_BLOCK_ROWS = 16


def write_csv(path: str | Path, header: Sequence[str], table) -> None:
    """Write ``header`` and the rows of the 2-D float ``table`` as CSV.

    Every line ends in CRLF and every cell is the shortest decimal that reads
    back to the same float (``repr``).  A failed write to a regular file
    raises and removes ``path``; a pipe or a device is never unlinked.
    """
    path = Path(path)
    table = np.asarray(table, dtype=float)
    path.parent.mkdir(parents=True, exist_ok=True)
    fh = path.open("wb")
    regular = path.is_file()
    try:
        with fh:  # closing flushes, and may fail too
            fh.write((",".join(header) + "\r\n").encode())
            for lo in range(0, len(table), _BLOCK_ROWS):
                fh.write(_format_block(table[lo : lo + _BLOCK_ROWS]))
    except BaseException:
        if regular:
            path.unlink(missing_ok=True)
        raise


def _format_block(block: np.ndarray) -> bytes:
    """The CSV lines of the rows of ``block``, each cell as its ``repr``.

    orjson writes the shortest round-trip digits, as ``repr`` does, and
    differs from it only in notation: outside 1e-4 <= |x| < 1e16 (0.00001
    for 1e-05, 1e16 for 1e+16) and for nan and +-inf, which it writes as
    null.  Those cells go in as nan, so each is a null in the text, and the
    nulls are replaced by the cells' ``repr`` in row-major order; no other
    cell's text holds "null".
    """
    import orjson  # not at module top: `import mee.cli` need not pay for it

    size = np.abs(block)
    odd = ~((size >= 1e-4) & (size < 1e16)) & (block != 0.0)
    text = orjson.dumps(np.where(odd, np.nan, block), option=orjson.OPT_SERIALIZE_NUMPY)
    # ndarray.tolist gives Python floats: in NumPy 2 repr(np.float64(x)) is
    # "np.float64(x)", not the bare decimal
    cells = [repr(x).encode() for x in block[odd].tolist()]
    pieces = text[2:-2].replace(b"],[", b"\r\n").split(b"null")
    lines = [b""] * (2 * len(pieces) - 1)
    lines[::2] = pieces
    lines[1::2] = cells
    lines.append(b"\r\n")
    return b"".join(lines)
