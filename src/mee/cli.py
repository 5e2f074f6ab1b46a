"""Command-line interface.

Subcommands: means, shift, bounds, canonical, sample, verify, and spins
(the same run as ``verify --experiment spins``).
Primary records are printed to stdout as deterministic JSON and optionally
written under --out-dir; curves and amplitude dumps are CSV.  Every file is
written before the record is printed, so a failed write leaves stdout empty.
Exit codes: 0 success, 1 domain/infeasibility/convergence errors (structured
JSON on stderr), 2 I/O or parse errors.  Given the same seed, outputs are
byte-identical regardless of --workers, which defaults to the CPUs this
process may run on (also for ``spins`` and ``sample --mode oracle``).
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path
from typing import Sequence

import numpy as np

from . import bounds as bounds_mod
from . import canonical as canonical_mod
from . import experiments as exp_mod
from .errors import DomainError, InfeasibleError, MeeError, NumericalError, ParseError
from .io import dumps_record, load_bipartite, load_spectrum, write_csv
from .sampling import (
    RngSpec,
    SampleBatch,
    _default_workers,
    oracle_manifold_sample,
    sample_gaussian_ensemble,
    sample_sphere,
)
from .spectrum import compute_means, harmonic_frame, harmonic_shift_solve, epsilon_shift_solve

DEFAULT_EPSILON_GRID = tuple(0.5 * k for k in range(1, 17))  # 0.5, 1.0, ..., 8.0
DEFAULT_COUNT = 100_000
DEFAULT_SIGMAS = 5.0
DEFAULT_T_VALUES = tuple(0.1 * k for k in range(1, 21))
SEED_ENV_VAR = "MEE_SEED"


def _seed(args: argparse.Namespace) -> int:
    """--seed, else $MEE_SEED, else 12345."""
    if args.seed is not None:
        return args.seed
    text = os.environ.get(SEED_ENV_VAR, "12345")
    try:
        return int(text)
    except ValueError as exc:
        raise ParseError(f"{SEED_ENV_VAR}={text!r} is not an integer seed") from exc


def _parse_floats(text: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ParseError(f"cannot parse float list {text!r}: {exc}") from exc
    if not values or not all(map(math.isfinite, values)):
        raise ParseError(f"float list {text!r} must hold one or more finite values")
    return values


def _check_positive(flag: str, value: int) -> None:
    if value < 1:
        raise ParseError(f"{flag} must be at least 1, got {value}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mee",
        description="Concentration-of-measure toolkit for quantum mean-energy ensembles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    workers = _default_workers()

    p_means = sub.add_parser("means", help="power means of a spectrum")
    p_means.add_argument("--spectrum", required=True, help="spectrum JSON file")

    p_shift = sub.add_parser("shift", help="solve the energy shift")
    p_shift.add_argument("--spectrum", required=True)
    p_shift.add_argument("--energy", type=float, required=True)
    p_shift.add_argument(
        "--epsilon",
        type=float,
        default=None,
        help="solve the multiplier form; omit for the pure harmonic shift",
    )
    p_shift.add_argument("--dim", type=int, default=None, help="override dimension n")
    p_shift.add_argument("--tol", type=float, default=1e-12)

    p_bounds = sub.add_parser("bounds", help="concentration constants and tail curve")
    p_bounds.add_argument("--spectrum", required=True)
    p_bounds.add_argument("--energy", type=float, required=True)
    p_bounds.add_argument("--epsilon", type=float, default=None)
    p_bounds.add_argument(
        "--epsilon-grid",
        default=None,
        help="comma list; scans for the feasible value minimizing the bound at the largest t",
    )
    p_bounds.add_argument("--t-values", default=None, help="comma list of deviations t")
    p_bounds.add_argument("--lipschitz", type=float, default=1.0)
    p_bounds.add_argument("--dim", type=int, default=None)
    p_bounds.add_argument("--out-dir", default=None)

    p_canon = sub.add_parser("canonical", help="canonical reduced density matrix")
    p_canon.add_argument("--bipartite", required=True, help="bipartite spectrum JSON file")
    p_canon.add_argument("--energy", type=float, required=True)
    p_canon.add_argument("--epsilon", type=float, required=True)
    p_canon.add_argument("--out-dir", default=None)

    p_sample = sub.add_parser("sample", help="draw a batch of states")
    p_sample.add_argument("--spectrum", required=True)
    p_sample.add_argument("--energy", type=float, default=None)
    p_sample.add_argument("--count", type=int, default=1000)
    p_sample.add_argument("--seed", type=int, default=None)
    p_sample.add_argument("--stream", type=int, default=0)
    p_sample.add_argument("--mode", choices=("gaussian", "sphere", "oracle"), required=True)
    p_sample.add_argument("--eta", type=float, default=None)
    p_sample.add_argument("--proposal", choices=("uniform", "gaussian"), default="uniform")
    p_sample.add_argument("--max-draws", type=int, default=None)
    p_sample.add_argument("--out", default=None, help="CSV file for amplitudes")

    p_verify = sub.add_parser("verify", help="Monte Carlo verification experiments")
    p_verify.add_argument(
        "--experiment", choices=("moments", "reduced-dm", "tail", "spins"), required=True
    )
    p_verify.add_argument("--spectrum", default=None)
    p_verify.add_argument("--bipartite", default=None)
    p_verify.add_argument("--energy", type=float, default=None)
    p_verify.add_argument("--epsilon", type=float, default=2.0)
    p_verify.add_argument("--count", type=int, default=DEFAULT_COUNT)
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument("--stream", type=int, default=0)
    p_verify.add_argument("--tolerance-sigmas", type=float, default=DEFAULT_SIGMAS)
    p_verify.add_argument("--eta", type=float, default=None)
    p_verify.add_argument("--t-values", default=None)
    p_verify.add_argument(
        "--workers",
        type=int,
        default=workers,
        help=f"threads drawing chunks (default: CPUs available, {workers}); "
        "the output does not depend on it",
    )
    p_verify.add_argument("--m", type=int, default=None)
    p_verify.add_argument("--alpha", type=float, default=None)
    p_verify.add_argument("--gamma", type=float, default=None)
    p_verify.add_argument("--out-dir", default=None)

    p_spins = sub.add_parser(
        "spins", help="non-interacting-spins concentration probe (verify --experiment spins)"
    )
    p_spins.set_defaults(experiment="spins", workers=workers)
    p_spins.add_argument("--m", type=int, required=True)
    p_spins.add_argument("--alpha", type=float, required=True)
    p_spins.add_argument("--gamma", type=float, required=True)
    p_spins.add_argument("--count", type=int, default=10_000)
    p_spins.add_argument("--seed", type=int, default=None)
    p_spins.add_argument("--stream", type=int, default=0)
    p_spins.add_argument("--eta", type=float, default=None)
    p_spins.add_argument("--out-dir", default=None)

    return parser


def _emit(record: dict, out_dir: str | None = None, filename: str = "", tables=()) -> None:
    """Write each ``(name, header, table)`` CSV and then the record file
    ``filename`` under ``out_dir``, if one is given; print the record last."""
    text = dumps_record(record)
    if out_dir is not None:
        path = Path(out_dir)
        path.mkdir(parents=True, exist_ok=True)
        for name, header, table in tables:
            write_csv(path / name, header, table)
        (path / filename).write_text(text)
    sys.stdout.write(text)


def _cmd_means(args: argparse.Namespace) -> int:
    spectrum = load_spectrum(args.spectrum)
    record = {
        "config": {"command": "means", "spectrum": args.spectrum},
        "means": compute_means(spectrum).to_json(),
    }
    _emit(record)
    return 0


def _cmd_shift(args: argparse.Namespace) -> int:
    spectrum = load_spectrum(args.spectrum)
    config = {
        "command": "shift",
        "spectrum": args.spectrum,
        "energy": args.energy,
        "epsilon": args.epsilon,
        "dim": args.dim,
        "tol": args.tol,
    }
    if args.epsilon is None:
        shift = harmonic_shift_solve(spectrum, args.energy, tol=args.tol)
        record = {
            "config": config,
            "kind": "harmonic",
            "shift": shift,
            "shifted_energy": args.energy + shift,
        }
    else:
        frame = epsilon_shift_solve(
            spectrum, args.energy, args.epsilon, tol=args.tol, dim=args.dim
        )
        record = {
            "config": config,
            "kind": "epsilon-multiplier",
            "shift": frame.shift,
            "shifted_energy": frame.e_prime,
            "dim": frame.dim,
        }
    _emit(record)
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    spectrum = load_spectrum(args.spectrum)
    ts = _parse_floats(args.t_values) if args.t_values else list(DEFAULT_T_VALUES)
    if args.epsilon is None:
        grid = _parse_floats(args.epsilon_grid) if args.epsilon_grid else list(DEFAULT_EPSILON_GRID)
        # optimize at the deepest requested deviation, where the bound matters most
        consts = bounds_mod.optimize_epsilon(
            spectrum, args.energy, max(ts), grid, dim=args.dim
        )
    else:
        grid = None
        consts = bounds_mod.constants_for(spectrum, args.energy, args.epsilon, dim=args.dim)
    window = bounds_mod.check_energy_window(spectrum, args.energy, dim=args.dim)
    record = {
        "config": {
            "command": "bounds",
            "spectrum": args.spectrum,
            "energy": args.energy,
            "epsilon": args.epsilon,
            "epsilon_grid": grid,
            "t_values": ts,
            "lipschitz": args.lipschitz,
            "dim": args.dim,
        },
        "window": window.to_json(),
        "constants": consts.to_json(),
    }
    # the bound does not depend on the Lipschitz constant; only its domain is checked
    if not args.lipschitz > 0.0:
        raise DomainError("Lipschitz constant must be positive")
    rows = []
    for t in ts:
        raw = bounds_mod.tail_bound(consts, t)
        rows.append((t, min(1.0, raw), bounds_mod.tail_log10_bound(consts, t)))
    tail = ("tail.csv", ("t", "bound", "log10_bound"), rows)
    _emit(record, args.out_dir, "constants.json", [tail])
    return 0


def _cmd_canonical(args: argparse.Namespace) -> int:
    bs = load_bipartite(args.bipartite)
    consts = bounds_mod.constants_for(bs.combined(), args.energy, args.epsilon)
    rho = canonical_mod.rho_c_bipartite(bs, consts.frame)
    delta = canonical_mod.delta_deviation(consts)
    record = {
        "config": {
            "command": "canonical",
            "bipartite": args.bipartite,
            "energy": args.energy,
            "epsilon": args.epsilon,
        },
        "rho_c": rho.to_json(),
        "delta": delta,
        "tail_prefactor": bs.dim_a * (bs.dim_a + 1) * consts.a,
        "constants": consts.to_json(),
    }
    _emit(record, args.out_dir, "canonical.json")
    return 0


def _batch_for_sample(args: argparse.Namespace, spectrum, rng: RngSpec) -> SampleBatch:
    if args.mode == "sphere":
        return sample_sphere(spectrum.n, args.count, rng)
    if args.energy is None:
        raise DomainError(f"--energy is required for mode {args.mode}")
    if args.mode == "gaussian":
        frame = harmonic_frame(spectrum, args.energy)
        return sample_gaussian_ensemble(frame, args.count, rng)
    return oracle_manifold_sample(
        spectrum, args.energy, args.eta, args.count, args.max_draws, rng, proposal=args.proposal
    )


def _cmd_sample(args: argparse.Namespace) -> int:
    _check_positive("--count", args.count)
    spectrum = load_spectrum(args.spectrum)
    seed = _seed(args)
    rng = RngSpec(seed=seed, stream=args.stream)
    batch = _batch_for_sample(args, spectrum, rng)
    record = {
        "config": {
            "command": "sample",
            "spectrum": args.spectrum,
            "energy": args.energy,
            "count": args.count,
            "seed": seed,
            "stream": args.stream,
            "mode": args.mode,
            "eta": args.eta,
            "proposal": args.proposal if args.mode == "oracle" else None,
            "out": args.out,
        },
        "produced": batch.count,
        "meta": batch.meta,
    }
    if args.out is not None:
        header = [f"{part}{k}" for k in range(batch.dim) for part in ("re", "im")]
        # one row per state, its amplitudes already interleaved as re, im
        table = batch.states.view(np.float64)
        if batch.weights is not None:
            header.append("weight")
            table = np.column_stack((table, batch.weights))
        write_csv(args.out, header, table)
    _emit(record)
    return 0


# Inputs each verify experiment needs, as argparse destinations of its flags.
_VERIFY_NEEDS = {
    "moments": ("spectrum", "energy"),
    "reduced-dm": ("bipartite", "energy"),
    "tail": ("spectrum", "energy"),
    "spins": ("m", "alpha", "gamma"),
}
_VERIFY_CONFIG = (
    "experiment",
    "spectrum",
    "bipartite",
    "energy",
    "epsilon",
    "count",
    "stream",
    "tolerance_sigmas",
    "eta",
    "t_values",
)


def _cmd_verify(args: argparse.Namespace) -> int:
    """Handler of ``verify`` and of ``spins``, which fixes the experiment."""
    seed = _seed(args)
    workers = args.workers
    _check_positive("--workers", workers)
    _check_positive("--count", args.count)
    rng = RngSpec(seed=seed, stream=args.stream)
    needs = _VERIFY_NEEDS[args.experiment]
    if any(getattr(args, key) is None for key in needs):
        flags = [f"--{key}" for key in needs]
        raise DomainError(f"{args.experiment} needs {', '.join(flags[:-1])} and {flags[-1]}")
    config = {key: getattr(args, key, None) for key in _VERIFY_CONFIG}
    config.update(command=args.command, seed=seed)

    tables = []
    if args.experiment == "moments":
        frame = harmonic_frame(load_spectrum(args.spectrum), args.energy)
        report = exp_mod.moment_report_streamed(
            frame, args.count, rng, tolerance_sigmas=args.tolerance_sigmas, workers=workers
        )
    elif args.experiment == "reduced-dm":
        report, _ = exp_mod.reduced_dm_report(
            load_bipartite(args.bipartite),
            args.energy,
            args.epsilon,
            args.count,
            rng,
            tolerance_sigmas=args.tolerance_sigmas,
            workers=workers,
        )
    elif args.experiment == "tail":
        ts = _parse_floats(args.t_values) if args.t_values else list(DEFAULT_T_VALUES)
        report, curve = exp_mod.tail_report(
            load_spectrum(args.spectrum),
            args.energy,
            args.epsilon,
            args.count,
            rng,
            ts,
            workers=workers,
        )
        tables.append(("curve.csv", ("t", "frequency", "bound"), curve.to_rows()))
    else:  # spins
        spec = exp_mod.SpinEnsembleSpec(m=args.m, alpha=args.alpha, gamma=args.gamma)
        report = exp_mod.spin_concentration_probe(
            spec, args.count, rng, eta=args.eta, workers=workers
        )

    _emit({"config": config, "report": report.to_json()}, args.out_dir, "report.json", tables)
    return 0


_HANDLERS = {
    "means": _cmd_means,
    "shift": _cmd_shift,
    "bounds": _cmd_bounds,
    "canonical": _cmd_canonical,
    "sample": _cmd_sample,
    "verify": _cmd_verify,
    "spins": _cmd_verify,
}


def _error_record(exc: Exception) -> str:
    record = {"error": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, InfeasibleError):
        record["details"] = exc.details
    if isinstance(exc, NumericalError) and exc.residual is not None:
        record["details"] = {"residual": exc.residual}
    return dumps_record(record)


def run(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (ParseError, OSError) as exc:
        sys.stderr.write(_error_record(exc))
        return 2
    except MeeError as exc:
        sys.stderr.write(_error_record(exc))
        return 1


def main() -> None:
    sys.exit(run())
