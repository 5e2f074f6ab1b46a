"""Benchmark of the ``mee`` CLI: one workload per process, ops closed-loop.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's inputs from ``--seed`` under ``.bench_work/``, times
cold set-up in fresh interpreters, then runs ops one at a time through
``mee.cli.run`` in this process for ``--seconds`` after one warm-up op.
Every op's output is checked outside the timed region.

Times are reported in reference-host seconds.  On a shared 2-vCPU host the
speed of the same code drifts by up to 1.7x over tens of seconds, so every
timed interval is bracketed by a fixed reference kernel and scaled by
REFERENCE_NOMINAL_S over the kernel's mean time around it.  The raw wall
times are printed alongside.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced ops; traced ops run with span wrappers on the layer
functions (see spans.py) and the run reports the per-layer metrics, per op,
and writes the spans as JSON lines next to the work directory.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  The lines before it print each metric by name and unit.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
from spans import LAYERS, Recorder, self_times  # noqa: E402
from workloads import WORKLOADS, CheckFailed, Op  # noqa: E402

SETUP_REPS = 7
SETUP_TIMEOUT_S = 120
# Nominal time of reference_kernel(), about its median on a 2.1 GHz Xeon vCPU.
REFERENCE_NOMINAL_S = 0.03

END_TO_END = {
    "states_per_s": "states/s",
    "op_s_p50": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

PER_LAYER = {
    "sampling.gaussian_chunk.calls": "count",
    "sampling.gaussian_chunk.busy_s": "s",
    "sampling.normals_per_s": "1/s",
    "sampling.oracle_manifold_sample.busy_s": "s",
    "sampling.oracle_manifold_sample.self_s": "s",
    "sampling.oracle.draws": "count",
    "sampling.oracle.accept_ratio": "ratio",
    "sampling.oracle.ess_ratio": "ratio",
    "sampling.sample_gaussian_ensemble.busy_s": "s",
    "experiments.moment_report_streamed.self_s": "s",
    "experiments.chunks": "count",
    "experiments.parallel_eff": "ratio",
    "experiments.spin_concentration_probe.self_s": "s",
    "cli.run.self_s": "s",
    "io.format_float.calls": "count",
    "io.csv_bytes": "B",
    "io.load_spectrum.busy_s": "s",
    "io.load_bipartite.busy_s": "s",
    "io.dumps_record.busy_s": "s",
    "spectrum.harmonic_frame.busy_s": "s",
    "spectrum.epsilon_shift_solve.calls": "count",
    "spectrum.epsilon_shift_solve.busy_s": "s",
    "spectrum.compute_means.busy_s": "s",
    "bounds.optimize_epsilon.self_s": "s",
    "bounds.constants_for.calls": "count",
    "bounds.tail_bound.calls": "count",
    "canonical.rho_c_bipartite.self_s": "s",
    "canonical.delta_deviation.busy_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.op_s": "s",
    "trace.overhead_s": "s",
    "host.reference_s": "s",
}


def _oracle_info(batch) -> dict:
    w = batch.weights
    return {
        "accepted": batch.count,
        "accept_ratio": batch.meta["acceptance_rate"],
        "ess": float(w.sum() ** 2 / (w ** 2).sum()),
    }


ANNOTATE = {
    "sampling.gaussian_chunk": lambda psi: {"states": psi.shape[0], "normals": 2 * psi.size},
    "sampling.oracle_manifold_sample": _oracle_info,
}


def reference_kernel() -> float:
    """Wall time of a fixed mix of interpreter work (dict updates, float repr,
    join) and a 1M-normal NumPy draw: the host-speed yardstick.  It needs
    both kinds: host load slows the interpreter part more than the NumPy part."""
    t0 = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(60_000):
        counts[i % 977] = counts.get(i % 977, 0) + i
    ",".join(repr(i * 1.1) for i in range(8_000))
    np.random.default_rng(0).standard_normal((128, 4096, 2)).sum()
    return time.perf_counter() - t0


def host_factor(before: float, after: float) -> float:
    """Scale from an interval's wall time to reference-host seconds, given
    the reference kernel's times just before and just after it."""
    return REFERENCE_NOMINAL_S / (0.5 * (before + after))


class OpResult:
    def __init__(self, op: int, wall: float, factor: float, states: int, ok: bool,
                 csv_bytes: int):
        self.op, self.wall, self.factor = op, wall, factor
        self.states, self.ok, self.csv_bytes = states, ok, csv_bytes

    @property
    def norm(self) -> float:
        """Op time in reference-host seconds."""
        return self.wall * self.factor


def run_op(cli, workload, op: Op, index: int) -> OpResult:
    """Run the op's CLI calls (timed, between two reference kernels), then
    check its outputs (untimed)."""
    shutil.rmtree(op.out, ignore_errors=True)
    captured_out, captured_err = io.StringIO(), io.StringIO()
    wall = 0.0
    code = 0
    ref_before = reference_kernel()
    with contextlib.redirect_stdout(captured_out), contextlib.redirect_stderr(captured_err):
        for argv in op.calls:
            t0 = time.perf_counter()
            try:
                code = cli.run(list(argv))
            except SystemExit as exc:  # argparse rejects a command line this way
                code = exc.code if isinstance(exc.code, int) else 2
            wall += time.perf_counter() - t0
            if code != 0:
                break
    factor = host_factor(ref_before, reference_kernel())
    states = 0
    if code != 0:
        print(f"op exited {code}: {captured_err.getvalue().strip()}", file=sys.stderr)
    else:
        try:
            states = workload.check(op)
        except (CheckFailed, KeyError, TypeError, ValueError, IndexError) as exc:
            print(f"op output check failed: {exc!r}", file=sys.stderr)
            code = -1
    csv_bytes = sum(p.stat().st_size for p in op.out.glob("*.csv")) if op.out.is_dir() else 0
    return OpResult(index, wall, factor, states, code == 0, csv_bytes)


def time_setup(workload, shared: dict) -> tuple[float, float]:
    """Median spawn-to-exit time of cold interpreters that import mee.cli,
    load the workload's inputs and solve its frame: (reference-host s, raw s)."""
    specs = json.dumps(workload.probe(shared))
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), specs]
    times = []
    norms = []
    for _ in range(SETUP_REPS):
        ref_before = reference_kernel()
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL)
        # wait() with a timeout polls in steps of up to 50 ms, which would
        # quantize the timing; block in wait() and kill from a timer instead.
        killer = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            code = proc.wait()
        finally:
            killer.cancel()
        times.append(time.perf_counter() - t0)
        norms.append(times[-1] * host_factor(ref_before, reference_kernel()))
        if code != 0:
            raise RuntimeError(f"set-up probe exited {code}")
    return statistics.median(norms), statistics.median(times)


def layer_metrics(rec: Recorder, traced: list[OpResult], untraced: list[OpResult],
                  counts: dict[str, int], workers: int) -> dict[str, float]:
    """Per-op layer metrics from the traced ops' spans, in reference-host seconds."""
    n_ops = len(traced)
    selfs = self_times(rec.spans)
    factor = {r.op: r.factor for r in traced}
    calls: dict[str, int] = defaultdict(int)
    busy: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    info: dict[str, float] = defaultdict(float)
    oracle_ids = set()
    for s in rec.spans:
        calls[s.name] += 1
        busy[s.name] += (s.end - s.start) * factor[s.op]
        self_s[s.name] += selfs[s.id] * factor[s.op]
        for key, value in s.info.items():
            info[f"{s.name}.{key}"] += value
        if s.name == "sampling.oracle_manifold_sample":
            oracle_ids.add(s.id)
    draws = sum(
        s.info["states"] for s in rec.spans
        if s.name == "sampling.gaussian_chunk" and s.parent in oracle_ids
    )
    traced_wall = sum(r.norm for r in traced)
    oracle_calls = calls["sampling.oracle_manifold_sample"]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m = {
        "sampling.gaussian_chunk.calls": calls["sampling.gaussian_chunk"] / n_ops,
        "sampling.gaussian_chunk.busy_s": busy["sampling.gaussian_chunk"] / n_ops,
        "sampling.normals_per_s": ratio(
            info["sampling.gaussian_chunk.normals"], busy["sampling.gaussian_chunk"]
        ),
        "sampling.oracle_manifold_sample.busy_s": busy["sampling.oracle_manifold_sample"] / n_ops,
        "sampling.oracle_manifold_sample.self_s": self_s["sampling.oracle_manifold_sample"] / n_ops,
        "sampling.oracle.draws": draws / n_ops,
        "sampling.oracle.accept_ratio": ratio(
            info["sampling.oracle_manifold_sample.accept_ratio"], oracle_calls
        ),
        "sampling.oracle.ess_ratio": ratio(
            info["sampling.oracle_manifold_sample.ess"],
            info["sampling.oracle_manifold_sample.accepted"],
        ),
        "sampling.sample_gaussian_ensemble.busy_s":
            busy["sampling.sample_gaussian_ensemble"] / n_ops,
        "experiments.moment_report_streamed.self_s":
            self_s["experiments.moment_report_streamed"] / n_ops,
        "experiments.chunks": calls["experiments.chunk"] / n_ops,
        "experiments.parallel_eff": ratio(busy["experiments.chunk"], workers * traced_wall),
        "experiments.spin_concentration_probe.self_s":
            self_s["experiments.spin_concentration_probe"] / n_ops,
        "cli.run.self_s": self_s["cli.run"] / n_ops,
        "io.format_float.calls": counts.get("io.format_float", 0) / n_ops,
        "io.csv_bytes": sum(r.csv_bytes for r in traced) / n_ops,
        "io.load_spectrum.busy_s": busy["io.load_spectrum"] / n_ops,
        "io.load_bipartite.busy_s": busy["io.load_bipartite"] / n_ops,
        "io.dumps_record.busy_s": busy["io.dumps_record"] / n_ops,
        "spectrum.harmonic_frame.busy_s": busy["spectrum.harmonic_frame"] / n_ops,
        "spectrum.epsilon_shift_solve.calls": calls["spectrum.epsilon_shift_solve"] / n_ops,
        "spectrum.epsilon_shift_solve.busy_s": busy["spectrum.epsilon_shift_solve"] / n_ops,
        "spectrum.compute_means.busy_s": busy["spectrum.compute_means"] / n_ops,
        "bounds.optimize_epsilon.self_s": self_s["bounds.optimize_epsilon"] / n_ops,
        "bounds.constants_for.calls": calls["bounds.constants_for"] / n_ops,
        "bounds.tail_bound.calls": calls["bounds.tail_bound"] / n_ops,
        "canonical.rho_c_bipartite.self_s": self_s["canonical.rho_c_bipartite"] / n_ops,
        "canonical.delta_deviation.busy_s": busy["canonical.delta_deviation"] / n_ops,
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(
            v for name, v in self_s.items() if name.split(".", 1)[0] == layer
        ) / n_ops
    traced_p50 = statistics.median(r.norm for r in traced)
    m["trace.op_s"] = traced_p50
    m["trace.overhead_s"] = traced_p50 - statistics.median(r.norm for r in untraced)
    m["host.reference_s"] = REFERENCE_NOMINAL_S / statistics.median(
        r.factor for r in traced + untraced
    )
    return m


def end_to_end_metrics(results: list[OpResult], setup_s: float, attempted: int,
                       failed: int) -> dict[str, float]:
    return {
        "states_per_s": sum(r.states for r in results) / sum(r.norm for r in results),
        "op_s_p50": statistics.median(r.norm for r in results),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ratio": (attempted - failed) / attempted,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mee" / "cli.py").is_file():
        print(f"no mee sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    work_root = ROOT / ".bench_work"
    work = work_root / f"{workload.name}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    shared = workload.prepare(work, args.seed)
    setup_s, setup_raw_s = (0.0, 0.0) if args.trace else time_setup(workload, shared)

    import mee.cli as cli

    rec = Recorder(ANNOTATE)
    op_counts: dict[str, int] = defaultdict(int)
    plain: list[OpResult] = []
    traced: list[OpResult] = []
    attempted = failed = 0
    start = None
    i = 0
    while True:
        op = workload.make_op(work, args.seed + i, shared)
        # after the warm-up op, a traced run alternates untraced and traced ops
        use_trace = bool(args.trace) and i > 0 and i % 2 == 0
        if use_trace:
            with rec:
                rec.begin_op(i)
                result = run_op(cli, workload, op, i)
            for name, value in rec.take_counts().items():
                op_counts[name] += value
        else:
            result = run_op(cli, workload, op, i)
        attempted += 1
        failed += not result.ok
        if i == 0:
            start = time.perf_counter()
        else:
            (traced if use_trace else plain).append(result)
        i += 1
        if time.perf_counter() - start >= args.seconds and plain and (traced or not args.trace):
            break

    if args.trace:
        metrics = layer_metrics(rec, traced, plain, op_counts, workload.workers)
        units = PER_LAYER
        rec.write_jsonl(work_root / f"trace-{workload.name}-seed{args.seed}.jsonl")
    else:
        metrics = end_to_end_metrics(plain, setup_s, attempted, failed)
        units = END_TO_END
    shutil.rmtree(work, ignore_errors=True)

    print(f"workload {workload.name}: {workload.why}")
    print(f"ops {attempted} attempted, {failed} failed; failed_ratio {failed / attempted:.4g}")
    timed = traced if args.trace else plain
    raw = {
        "op_s_p50": statistics.median(r.wall for r in timed),
        "trace.op_s": statistics.median(r.wall for r in timed),
        "states_per_s": sum(r.states for r in timed) / sum(r.wall for r in timed),
        "setup_s": setup_raw_s,
    }
    for name, unit in units.items():
        notes = []
        if name in ("op_s_p50", "trace.op_s"):
            notes.append(f"median of {len(timed)} ops")
        if name in raw:
            notes.append(f"raw wall {raw[name]:.6g}")
        suffix = f" ({'; '.join(notes)})" if notes else ""
        print(f"{name} {metrics[name]:.6g} {unit}{suffix}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
