"""File parsing and deterministic serialization helpers for the CLI."""
from __future__ import annotations

import json
import math
from pathlib import Path

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


def load_spectrum(path: str | Path) -> Spectrum:
    """Read {"levels": [...], "degeneracies": [...]?}; degeneracies default to ones."""
    obj = _load_json(path)
    if "levels" not in obj:
        raise ParseError(f"{path} is missing the 'levels' key")
    try:
        return Spectrum.from_json(obj)
    except (DomainError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{path} is not a valid spectrum: {exc}") from exc


def load_bipartite(path: str | Path) -> BipartiteSpectrum:
    """Read {"levels_a": [...], "levels_b": [...]}."""
    obj = _load_json(path)
    if "levels_a" not in obj or "levels_b" not in obj:
        raise ParseError(f"{path} is missing 'levels_a'/'levels_b'")
    try:
        return BipartiteSpectrum.from_json(obj)
    except (DomainError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{path} is not a valid bipartite spectrum: {exc}") from exc


def dumps_record(record: dict) -> str:
    """Deterministic strict JSON rendering: sorted keys, fixed separators,
    newline-terminated, every non-finite float written as null."""
    return json.dumps(_finite_or_null(record), sort_keys=True, indent=2, allow_nan=False) + "\n"


def _finite_or_null(obj):
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _finite_or_null(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(value) for value in obj]
    return obj
