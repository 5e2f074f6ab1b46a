"""Workload inputs, per-op command lines and per-op output checks.

Every input file and every per-op seed derives from the benchmark's
``--seed``; the program sees only the files and flags built here.  Op ``i``
of a run uses seed ``seed + i`` so no two ops in a run repeat the same work.
Checks read what the op wrote and raise :class:`CheckFailed`; they run
outside the timed region.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# Fraction of the way from E_min to the arithmetic mean E_A at which the
# solve-mix energies sit: deep enough in the low-energy window for the
# epsilon grid and for epsilon = 2 to be feasible on uniform level spectra.
SOLVE_ENERGY_FRACTION = 0.7
SOLVE_LEVELS = 100_000
SOLVE_MAX_DEGENERACY = 19
CANON_DIM_A = 3
CANON_DIM_B = 30_000
CANON_EPSILON = 2.0


class CheckFailed(Exception):
    """An op's output is missing, malformed or fails its identity."""


@dataclass(frozen=True)
class Op:
    """One op: the ``mee`` command lines it runs in order, the directory it
    writes to, and the input files and values its check needs."""

    calls: tuple[tuple[str, ...], ...]
    out: Path
    inputs: dict


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    workers: int
    prepare: Callable[[Path, int], dict]
    make_op: Callable[[Path, int, dict], Op]
    check: Callable[[Op], int]
    """Returns the states the op delivered; raises CheckFailed."""
    probe: Callable[[dict], list[dict]]
    """What a cold set-up process loads and solves for this workload."""


def _write_json(path: Path, obj: dict) -> None:
    path.write_text(json.dumps(obj))


def _read_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"cannot read {path.name}: {exc}") from exc


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def check_report(path: Path, names: tuple[str, ...]) -> dict:
    """Each named identity in a verify report.json passed; returns the report."""
    report = _read_json(path)["report"]
    by_name = {m["name"]: m for m in report["measured"]}
    for name in names:
        _require(name in by_name, f"report lacks {name}")
        _require(by_name[name]["passed"] is True, f"{name} failed: {by_name[name]}")
    return report


# ---------------------------------------------------------------------------
# moments-n4096


MOMENTS_COUNT = 10_240
MOMENTS_IDENTITIES = ("mean_norm_sq", "mean_shifted_energy", "var_shifted_energy", "var_norm_sq")


def _prepare_moments(work: Path, seed: int) -> dict:
    path = work / "moments.json"
    _write_json(path, {"levels": [1.0, 2.0, 3.0], "degeneracies": [1366, 1365, 1365]})
    return {"spectrum": path, "energy": 1.5}


def _moments_op(work: Path, seed: int, shared: dict) -> Op:
    out = work / "op"
    return Op(
        calls=((
            "verify", "--experiment", "moments", "--spectrum", str(shared["spectrum"]),
            "--energy", "1.5", "--count", str(MOMENTS_COUNT), "--seed", str(seed),
            "--workers", "2", "--out-dir", str(out),
        ),),
        out=out,
        inputs=shared,
    )


def check_moments(op: Op) -> int:
    report = check_report(op.out / "report.json", MOMENTS_IDENTITIES)
    _require(report["inputs"]["count"] == MOMENTS_COUNT, "moments count mismatch")
    return MOMENTS_COUNT


def _probe_spectrum(shared: dict) -> list[dict]:
    return [{"spectrum": str(shared["spectrum"]), "energy": shared["energy"]}]


# ---------------------------------------------------------------------------
# spins-m10


SPINS_COUNT = 200
SPINS_M, SPINS_ALPHA, SPINS_GAMMA = 10, 0.3, 0.4
# tail_constant_c is the documented intentional failure and is not checked.
SPINS_IDENTITIES = ("occupation_below_cut", "partition_identity", "low_level_count")


def _prepare_spins(work: Path, seed: int) -> dict:
    return {}


def _spins_op(work: Path, seed: int, shared: dict) -> Op:
    out = work / "op"
    return Op(
        calls=((
            "verify", "--experiment", "spins", "--m", str(SPINS_M), "--alpha",
            str(SPINS_ALPHA), "--gamma", str(SPINS_GAMMA), "--count", str(SPINS_COUNT),
            "--seed", str(seed), "--out-dir", str(out),
        ),),
        out=out,
        inputs=shared,
    )


def check_spins(op: Op) -> int:
    report = check_report(op.out / "report.json", SPINS_IDENTITIES)
    accepted = report["inputs"]["accepted"]
    _require(accepted == SPINS_COUNT, f"accepted {accepted} of {SPINS_COUNT}")
    return accepted


def _probe_spins(shared: dict) -> list[dict]:
    return [{"spins": SPINS_M, "energy": SPINS_ALPHA * SPINS_M}]


# ---------------------------------------------------------------------------
# sample-csv-n300


CSV_COUNT = 2000
CSV_DEGENERACY = 100


def _prepare_csv(work: Path, seed: int) -> dict:
    path = work / "csv_spectrum.json"
    _write_json(path, {"levels": [1.0, 2.0, 3.0], "degeneracies": [CSV_DEGENERACY] * 3})
    return {"spectrum": path, "energy": 1.5, "n": 3 * CSV_DEGENERACY}


def _csv_op(work: Path, seed: int, shared: dict) -> Op:
    out = work / "op"
    return Op(
        calls=((
            "sample", "--spectrum", str(shared["spectrum"]), "--energy", "1.5",
            "--mode", "gaussian", "--count", str(CSV_COUNT), "--seed", str(seed),
            "--out", str(out / "states.csv"),
        ),),
        out=out,
        inputs=shared,
    )


def check_states_csv(path: Path, count: int, n: int) -> int:
    """The CSV holds ``count`` rows of 2n finite values, and the mean ||psi||^2
    lies within 5 standard errors of 1 (the sampler's norm identity)."""
    try:
        with path.open() as fh:
            header = fh.readline().rstrip("\n").split(",")
            values = np.loadtxt(fh, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"cannot parse {path.name}: {exc}") from exc
    _require(len(header) == 2 * n, f"header has {len(header)} columns, want {2 * n}")
    _require(values.shape == (count, 2 * n), f"shape {values.shape}, want {(count, 2 * n)}")
    _require(bool(np.isfinite(values).all()), "non-finite amplitude")
    norm2 = (values ** 2).sum(axis=1)
    se = float(norm2.std(ddof=1)) / math.sqrt(count)
    _require(abs(float(norm2.mean()) - 1.0) <= 5.0 * se, f"mean norm^2 {norm2.mean()} off 1")
    return count


def check_csv(op: Op) -> int:
    return check_states_csv(op.out / "states.csv", CSV_COUNT, op.inputs["n"])


# ---------------------------------------------------------------------------
# solve-mix-1e5


def _energy_at_fraction(levels: np.ndarray, weights: np.ndarray) -> float:
    e_min = float(levels.min())
    e_arith = float(weights @ levels / weights.sum())
    return e_min + SOLVE_ENERGY_FRACTION * (e_arith - e_min)


def solve_inputs(work: Path, seed: int) -> dict:
    """A 1e5-level spectrum with degeneracies 1-19 and a 3 x 3e4 bipartite
    spectrum, both drawn from ``seed``, with their energies."""
    rng = np.random.default_rng(seed)
    levels = rng.uniform(0.0, 10.0, SOLVE_LEVELS)
    degs = rng.integers(1, SOLVE_MAX_DEGENERACY + 1, SOLVE_LEVELS)
    levels_a = rng.uniform(0.0, 2.0, CANON_DIM_A)
    levels_b = rng.uniform(0.0, 10.0, CANON_DIM_B)
    spectrum = work / "levels.json"
    bipartite = work / "bipartite.json"
    _write_json(spectrum, {"levels": levels.tolist(), "degeneracies": degs.tolist()})
    _write_json(bipartite, {"levels_a": levels_a.tolist(), "levels_b": levels_b.tolist()})
    flat = (levels_a[:, None] + levels_b[None, :]).ravel()
    return {
        "spectrum": spectrum,
        "energy": _energy_at_fraction(levels, degs.astype(float)),
        "bipartite": bipartite,
        "canonical_energy": _energy_at_fraction(flat, np.ones_like(flat)),
    }


def _solve_op(work: Path, seed: int, shared: dict) -> Op:
    files = solve_inputs(work, seed)
    out = work / "op"
    return Op(
        calls=(
            (
                "bounds", "--spectrum", str(files["spectrum"]),
                "--energy", repr(files["energy"]), "--out-dir", str(out),
            ),
            (
                "canonical", "--bipartite", str(files["bipartite"]),
                "--energy", repr(files["canonical_energy"]),
                "--epsilon", repr(CANON_EPSILON), "--out-dir", str(out),
            ),
        ),
        out=out,
        inputs=files,
    )


def check_bounds(out: Path, spectrum_path: Path, energy: float) -> int:
    """a, c > 0; the epsilon-multiplier shift residual, recomputed here, is
    <= 1e-10 relative; tail.csv bounds lie in [0, 1] and do not increase with t."""
    consts = _read_json(out / "constants.json")["constants"]
    _require(consts["a"] > 0.0 and consts["c"] > 0.0, f"a={consts['a']} c={consts['c']}")
    spec = _read_json(spectrum_path)
    levels = np.asarray(spec["levels"], dtype=float)
    degs = np.asarray(spec["degeneracies"], dtype=float)
    n = int(degs.sum())
    _require(consts["n"] == n, f"n={consts['n']}, want {n}")
    s, eps = consts["shift"], consts["epsilon"]
    multiplier = (1.0 + 1.0 / n) * (1.0 + eps / math.sqrt(n))
    e_harm = degs.sum() / float((degs / (levels + s)).sum())
    residual = multiplier * e_harm - (energy + s)
    _require(abs(residual) <= 1e-10 * abs(energy + s), f"shift residual {residual}")
    try:
        rows = np.loadtxt(out / "tail.csv", delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"cannot parse tail.csv: {exc}") from exc
    _require(rows.shape[0] > 0 and rows.shape[1] == 3, f"tail.csv shape {rows.shape}")
    t, bound = rows[:, 0], rows[:, 1]
    _require(bool(np.all(np.diff(t) > 0)), "t values not increasing")
    _require(bool(np.all((bound >= 0.0) & (bound <= 1.0))), "bound outside [0, 1]")
    _require(bool(np.all(np.diff(bound) <= 0.0)), "bound increases with t")
    return n


def check_canonical(out: Path, bipartite_path: Path) -> int:
    """a, c > 0 and trace(rho_c) - 1 = (1 + 1/(2n)) n/(n+1) E'/E'_H - 1 to 1e-9,
    with E'_H recomputed here from the combined levels and the reported shift."""
    record = _read_json(out / "canonical.json")
    consts = record["constants"]
    _require(consts["a"] > 0.0 and consts["c"] > 0.0, f"a={consts['a']} c={consts['c']}")
    bip = _read_json(bipartite_path)
    a = np.asarray(bip["levels_a"], dtype=float)
    b = np.asarray(bip["levels_b"], dtype=float)
    n = a.size * b.size
    _require(consts["n"] == n, f"n={consts['n']}, want {n}")
    shifted = (a[:, None] + b[None, :]).ravel() + consts["shift"]
    e_harm = n / float((1.0 / shifted).sum())
    expected = (1.0 + 0.5 / n) * n / (n + 1.0) * consts["shifted_energy"] / e_harm - 1.0
    deviation = record["rho_c"]["trace"] - 1.0
    _require(abs(deviation - expected) <= 1e-9, f"trace deviation {deviation}, want {expected}")
    return n


def check_solve(op: Op) -> int:
    inputs = op.inputs
    return check_bounds(op.out, inputs["spectrum"], inputs["energy"]) + check_canonical(
        op.out, inputs["bipartite"]
    )


def _probe_solve(shared: dict) -> list[dict]:
    return [
        {"spectrum": str(shared["spectrum"]), "energy": shared["energy"]},
        {
            "bipartite": str(shared["bipartite"]),
            "energy": shared["canonical_energy"],
            "epsilon": CANON_EPSILON,
        },
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "moments-n4096",
            "streaming draw-and-reduce over 2 worker threads; no oracle, no CSV "
            "(ROADMAP item 3, Gaussian reductions)",
            2, _prepare_moments, _moments_op, check_moments, _probe_spectrum,
        ),
        Workload(
            "spins-m10",
            "shell oracle is 99.8% of the op on 11 degenerate levels, n=1024 "
            "(ROADMAP item 2, degeneracy collapse)",
            1, _prepare_spins, _spins_op, check_spins, _probe_spins,
        ),
        Workload(
            "sample-csv-n300",
            "same sampler as moments but writing, not reducing: the CSV row loop "
            "dominates (ROADMAP item 4, CSV writer)",
            1, _prepare_csv, _csv_op, check_csv, _probe_spectrum,
        ),
        Workload(
            "solve-mix-1e5",
            "only io-read, spectrum, bounds and canonical work, no sampling "
            "(ROADMAP item 5a, solver)",
            1, solve_inputs, _solve_op, check_solve, _probe_solve,
        ),
    )
}
