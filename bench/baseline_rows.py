"""One-off rerun of the full-size baseline rows recorded in ROADMAP item 1.

    python3 bench/baseline_rows.py

Times, once each and through ``mee.cli.run`` in this process unless noted:
criterion 04 moments (n=4096, 1e5 states) at --workers 1 and 2, the m=10
spin probe at 1e4 states, ``mee sample`` CSV 2000 x 300, and CLI start-up
(a fresh ``python3 -m mee means`` on a 3-level spectrum, median of 5).
Takes about two minutes on a 2-CPU machine.
"""
from __future__ import annotations

import contextlib
import io
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def main() -> int:
    if not (SRC / "mee" / "cli.py").is_file():
        print(f"no mee sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import mee.cli as cli
    from workloads import WORKLOADS

    work = ROOT / ".bench_work" / "baseline"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    moments = WORKLOADS["moments-n4096"].prepare(work, 0)["spectrum"]
    csv_spec = WORKLOADS["sample-csv-n300"].prepare(work, 0)["spectrum"]

    rows = {
        "criterion 04 moments, n=4096, 1e5 states, workers=1": [
            "verify", "--experiment", "moments", "--spectrum", str(moments), "--energy", "1.5",
            "--count", "100000", "--seed", "408", "--workers", "1",
        ],
        "criterion 04 moments, n=4096, 1e5 states, workers=2": [
            "verify", "--experiment", "moments", "--spectrum", str(moments), "--energy", "1.5",
            "--count", "100000", "--seed", "408", "--workers", "2",
        ],
        "criterion 09 spin probe, m=10, 1e4 states": [
            "verify", "--experiment", "spins", "--m", "10", "--alpha", "0.3", "--gamma", "0.4",
            "--count", "10000", "--seed", "909",
        ],
        "mee sample CSV, 2000 x 300": [
            "sample", "--spectrum", str(csv_spec), "--energy", "1.5", "--mode", "gaussian",
            "--count", "2000", "--seed", "7", "--out", str(work / "states.csv"),
        ],
    }
    for label, argv in rows.items():
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.run(argv)
        elapsed = time.perf_counter() - t0
        print(f"{label}: {elapsed:.2f} s (exit {code})", flush=True)

    env = {**os.environ, "PYTHONPATH": str(SRC)}
    startup = []
    for _ in range(5):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-m", "mee", "means", "--spectrum", str(csv_spec)],
            check=True, env=env, cwd=ROOT, stdout=subprocess.DEVNULL, timeout=60,
        )
        startup.append(time.perf_counter() - t0)
    print(f"CLI start-up (python3 -m mee means, median of 5): {statistics.median(startup):.3f} s")
    shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
