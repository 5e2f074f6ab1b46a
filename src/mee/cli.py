"""Command-line interface.

Subcommands: means, shift, bounds, canonical, sample, verify, and spins
(the same run as ``verify --experiment spins``).  One table, ``_READS``,
declares each run: every flag it reads, with the value used when the flag is
absent or a mark that the run needs it.  The parsers, the flag checks, the
defaults and each record's ``config`` echo are all built from it.  A flag the
run does not read, a missing needed flag and a ``--count`` or ``--workers``
below 1 are usage errors, raised before any file is read.  ``config`` holds
``command``, the run's ``--mode`` or ``--experiment`` and every flag the run
reads except ``--out-dir`` and ``--workers``, each with the value used.
Primary records are printed to stdout as deterministic JSON and optionally
written under --out-dir; curves and amplitude dumps are CSV.  Every file is
written before the record is printed, so a failed write leaves stdout empty.
Exit codes: 0 success, 1 domain/infeasibility/convergence errors, 2 I/O, parse
and usage errors, with a JSON record on stderr.  Given the same seed, outputs are
byte-identical regardless of --workers, which defaults to the CPUs this
process may run on (also for ``spins`` and ``sample --mode oracle``).
"""
from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from pathlib import Path
from typing import Sequence

import numpy as np

from . import bounds as bounds_mod
from . import canonical as canonical_mod
from . import experiments as exp_mod
from .errors import InfeasibleError, MeeError, NumericalError, ParseError
from .io import dumps_record, load_bipartite, load_spectrum, write_csv
from .sampling import RngSpec, oracle_manifold_sample, sample_gaussian_ensemble, sample_sphere
from .spectrum import (_SHIFT_TOL, compute_means, epsilon_shift_solve, harmonic_frame,
                       harmonic_shift_solve)

DEFAULT_EPSILON_GRID = tuple(0.5 * k for k in range(1, 17))  # 0.5, 1.0, ..., 8.0
DEFAULT_T_VALUES = tuple(0.1 * k for k in range(1, 21))
SEED_ENV_VAR = "MEE_SEED"


def _env_seed() -> int:
    """$MEE_SEED, else 12345: the seed of a run given no --seed."""
    text = os.environ.get(SEED_ENV_VAR, "12345")
    try:
        return int(text)
    except ValueError as exc:
        raise ParseError(f"{SEED_ENV_VAR}={text!r} is not an integer seed") from exc


def _parse_floats(text: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"cannot parse float list {text!r}: {exc}") from exc
    if not values or not all(map(math.isfinite, values)):
        raise argparse.ArgumentTypeError(
            f"float list {text!r} must hold one or more finite values"
        )
    return values


# Each flag's argparse settings, declared once.  Every flag's argparse default
# is None, so a flag that is None after parsing was not given.
_FLAGS = {
    "spectrum": {"help": "spectrum JSON file"},
    "bipartite": {"help": "bipartite spectrum JSON file"},
    "energy": {"type": float},
    "epsilon": {
        "type": float,
        "help": "epsilon of the multiplier form; without it shift solves the pure "
        "harmonic shift and bounds scans the epsilon grid",
    },
    "epsilon_grid": {
        "type": _parse_floats,
        "help": "comma list; scans for the feasible value minimizing the bound at the largest t",
    },
    "t_values": {"type": _parse_floats, "help": "comma list of deviations t"},
    "dim": {"type": int, "help": "override dimension n"},
    "tol": {"type": float},
    "count": {"type": int},
    "seed": {"type": int, "help": f"default: ${SEED_ENV_VAR}, else 12345"},
    "stream": {"type": int},
    "tolerance_sigmas": {"type": float},
    "eta": {"type": float},
    "proposal": {"choices": ("uniform", "gaussian")},
    "max_draws": {"type": int},
    "m": {"type": int},
    "alpha": {"type": float},
    "gamma": {"type": float},
    "workers": {
        "type": int,
        "help": "threads drawing chunks (default: the CPUs this process may run on); "
        "the output does not depend on it",
    },
    "out": {"help": "CSV file for amplitudes"},
    "out_dir": {},
}

# The runs: every flag each reads (argparse destination) mapped to the value
# used when it is absent, called first if it is a function; the run cannot go
# without a _NEEDED flag.  A run that selects by --mode or --experiment is
# named "<command> --<selector> <value>"; shift and bounds select the
# "--epsilon" row when --epsilon is given.
_NEEDED = object()
_DRAW = {"seed": _env_seed, "stream": 0}
_SAMPLE = {"spectrum": _NEEDED, "count": 1000, **_DRAW, "out": None}
_VERIFY = {"count": 100_000, **_DRAW, "workers": None, "out_dir": None}
_SPINS = {"m": _NEEDED, "alpha": _NEEDED, "gamma": _NEEDED, "eta": None}
_SOLVE = {"spectrum": _NEEDED, "energy": _NEEDED}
_READS = {
    "means": {"spectrum": _NEEDED},
    "shift": {**_SOLVE, "tol": _SHIFT_TOL},
    "shift --epsilon": {**_SOLVE, "epsilon": _NEEDED, "dim": None, "tol": _SHIFT_TOL},
    "bounds": {**_SOLVE, "epsilon_grid": DEFAULT_EPSILON_GRID, "t_values": DEFAULT_T_VALUES,
               "dim": None, "out_dir": None},
    "bounds --epsilon": {**_SOLVE, "epsilon": _NEEDED, "t_values": DEFAULT_T_VALUES,
                         "dim": None, "out_dir": None},
    "canonical": {"bipartite": _NEEDED, "energy": _NEEDED, "epsilon": _NEEDED, "out_dir": None},
    "sample --mode sphere": _SAMPLE,
    "sample --mode gaussian": {**_SAMPLE, "energy": _NEEDED},
    "sample --mode oracle": {**_SAMPLE, "energy": _NEEDED, "eta": None, "proposal": "uniform",
                             "max_draws": None},
    "verify --experiment moments": {**_VERIFY, **_SOLVE, "tolerance_sigmas": 5.0},
    "verify --experiment reduced-dm": {**_VERIFY, "bipartite": _NEEDED, "energy": _NEEDED,
                                       "epsilon": 2.0},
    "verify --experiment tail": {**_VERIFY, **_SOLVE, "epsilon": 2.0,
                                 "t_values": DEFAULT_T_VALUES},
    "verify --experiment spins": {**_VERIFY, **_SPINS},
    "spins": {"count": 10_000, **_DRAW, **_SPINS, "out_dir": None},
}
_SELECTORS = {"sample": "mode", "verify": "experiment"}
_COMMANDS = {
    "means": "power means of a spectrum",
    "shift": "solve the energy shift",
    "bounds": "concentration constants and tail curve",
    "canonical": "canonical reduced density matrix",
    "sample": "draw a batch of states",
    "verify": "Monte Carlo verification experiments",
    "spins": "non-interacting-spins concentration probe (verify --experiment spins)",
}


def _option(dest: str) -> str:
    return "--" + dest.replace("_", "-")


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ``ParseError``, so they leave as a JSON record."""

    def error(self, message: str):
        raise ParseError(f"{self.prog}: {message}")


@functools.cache  # one parser per process; parsing does not change it
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mee",
        description="Concentration-of-measure toolkit for quantum mean-energy ensembles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, help_text in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        runs = {run: reads for run, reads in _READS.items() if run.split()[0] == command}
        if command in _SELECTORS:
            choices = [run.split()[-1] for run in runs]
            p.add_argument(_option(_SELECTORS[command]), choices=choices, required=True)
        for dest in dict.fromkeys(dest for reads in runs.values() for dest in reads):
            p.add_argument(_option(dest), **_FLAGS[dest])
    sub.choices["spins"].set_defaults(experiment="spins")
    return parser


def _read_flags(args: argparse.Namespace) -> dict:
    """Check the flags of ``args`` against its run's row of ``_READS``, set on
    ``args`` the value each flag is used with (None for one the run does not
    read) and return the run's ``config``; a bad flag is a ``ParseError``."""
    run = args.command
    if run in _SELECTORS:
        run += f" {_option(_SELECTORS[run])} {getattr(args, _SELECTORS[run])}"
    elif f"{run} --epsilon" in _READS and args.epsilon is not None:
        run += " --epsilon"
    reads = _READS[run]
    for dest in ("count", "workers"):
        value = getattr(args, dest, None)
        if value is not None and value < 1:
            raise ParseError(f"{_option(dest)} must be at least 1, got {value}")
    missing = []
    for dest in _FLAGS:
        value = getattr(args, dest, None)
        if value is not None and dest not in reads:
            raise ParseError(f"{run} does not read {_option(dest)}")
        if value is None and dest in reads:
            value = reads[dest]
            if value is _NEEDED:
                missing.append(_option(dest))
            elif callable(value):
                value = value()
        setattr(args, dest, value)
    if missing:
        raise ParseError(f"{run} needs {', '.join(missing)}")
    config = {"command": args.command}
    config.update((key, getattr(args, key)) for key in _SELECTORS.values() if key in args)
    config.update((d, getattr(args, d)) for d in reads if d not in ("out_dir", "workers"))
    return config


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


def _cmd_means(args: argparse.Namespace, config: dict) -> None:
    _emit({"config": config, "means": compute_means(load_spectrum(args.spectrum)).to_json()})


def _cmd_shift(args: argparse.Namespace, config: dict) -> None:
    spectrum = load_spectrum(args.spectrum)
    if args.epsilon is None:
        shift = harmonic_shift_solve(spectrum, args.energy, tol=args.tol)
        result = {"kind": "harmonic", "shift": shift, "shifted_energy": args.energy + shift}
    else:
        frame = epsilon_shift_solve(
            spectrum, args.energy, args.epsilon, tol=args.tol, dim=args.dim
        )
        result = {
            "kind": "epsilon-multiplier",
            "shift": frame.shift,
            "shifted_energy": frame.e_prime,
            "dim": frame.dim,
        }
    _emit({"config": config, **result})


def _cmd_bounds(args: argparse.Namespace, config: dict) -> None:
    spectrum = load_spectrum(args.spectrum)
    ts = args.t_values
    # first, so a dimension below 2 fails once, not at every grid point
    window = bounds_mod.check_energy_window(spectrum, args.energy, dim=args.dim)
    if args.epsilon is None:
        # optimize at the deepest requested deviation, where the bound matters most
        consts = bounds_mod.optimize_epsilon(
            spectrum, args.energy, max(ts), args.epsilon_grid, dim=args.dim
        )
    else:
        consts = bounds_mod.constants_for(spectrum, args.energy, args.epsilon, dim=args.dim)
    record = {"config": config, "window": window.to_json(), "constants": consts.to_json()}
    rows = []
    for t in ts:
        raw = bounds_mod.tail_bound(consts, t)
        rows.append((t, min(1.0, raw), bounds_mod.tail_log10_bound(consts, t)))
    tail = ("tail.csv", ("t", "bound", "log10_bound"), rows)
    _emit(record, args.out_dir, "constants.json", [tail])


def _cmd_canonical(args: argparse.Namespace, config: dict) -> None:
    bs = load_bipartite(args.bipartite)
    consts = bounds_mod.constants_for(bs.combined(), args.energy, args.epsilon)
    rho = canonical_mod.rho_c_bipartite(bs, consts.frame)
    delta = canonical_mod.delta_deviation(consts)
    record = {
        "config": config,
        "rho_c": rho.to_json(),
        "delta": delta,
        "tail_prefactor": bs.dim_a * (bs.dim_a + 1) * consts.a,
        "constants": consts.to_json(),
    }
    _emit(record, args.out_dir, "canonical.json")


def _cmd_sample(args: argparse.Namespace, config: dict) -> None:
    spectrum = load_spectrum(args.spectrum)
    rng = RngSpec(seed=args.seed, stream=args.stream)
    if args.mode == "sphere":
        batch = sample_sphere(spectrum.n, args.count, rng)
    elif args.mode == "gaussian":
        batch = sample_gaussian_ensemble(harmonic_frame(spectrum, args.energy), args.count, rng)
    else:
        batch = oracle_manifold_sample(
            spectrum, args.energy, args.eta, args.count, args.max_draws, rng,
            proposal=args.proposal,
        )
    if args.out is not None:
        header = [f"{part}{k}" for k in range(batch.dim) for part in ("re", "im")]
        # one row per state, its amplitudes already interleaved as re, im
        table = batch.states.view(np.float64)
        if batch.weights is not None:
            header.append("weight")
            table = np.column_stack((table, batch.weights))
        write_csv(args.out, header, table)
    _emit({"config": config, "produced": batch.count, "meta": batch.meta})


def _cmd_verify(args: argparse.Namespace, config: dict) -> None:
    """Handler of ``verify`` and of ``spins``, which fixes the experiment."""
    workers = args.workers
    rng = RngSpec(seed=args.seed, stream=args.stream)
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
            workers=workers,
        )
    elif args.experiment == "tail":
        report, curve = exp_mod.tail_report(
            load_spectrum(args.spectrum),
            args.energy,
            args.epsilon,
            args.count,
            rng,
            args.t_values,
            workers=workers,
        )
        tables.append(("curve.csv", ("t", "frequency", "bound"), curve.to_rows()))
    else:  # spins
        spec = exp_mod.SpinEnsembleSpec(m=args.m, alpha=args.alpha, gamma=args.gamma)
        report = exp_mod.spin_concentration_probe(
            spec, args.count, rng, eta=args.eta, workers=workers
        )

    _emit({"config": config, "report": report.to_json()}, args.out_dir, "report.json", tables)


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
    try:
        args = build_parser().parse_args(argv)
        _HANDLERS[args.command](args, _read_flags(args))
        return 0
    except (ParseError, OSError) as exc:
        sys.stderr.write(_error_record(exc))
        return 2
    except MeeError as exc:
        sys.stderr.write(_error_record(exc))
        return 1


def main() -> None:
    sys.exit(run())
