"""Compare every output of two ``mee`` source trees, byte for byte.

Usage::

    python tools/cmp_outputs.py PARENT_SRC CHANGE_SRC

Each SRC is a directory holding the ``mee`` package (a checkout's ``src``).
Every command below runs once per tree, each in a subprocess whose working
directory holds the same input files under the same relative paths, so the
paths recorded in the outputs agree.  For each command the tool compares the
exit code, stdout, stderr and every file the command wrote, and prints one
line per file that differs or exists on one side only, then a summary.  For
a differing JSON or CSV file (stdout included) whose numbers sit in the same
places on both sides, the line also gives how many numbers differ and the
largest relative change |a - b| / max(|a|, |b|) among them, with where it
sits: a JSON path, whose list entries holding a "name" go by that name, or
a CSV row and column.  It exits 1 when anything differs.

Warning lines on stderr start with the source location of the ``warn`` call
(``path/cli.py:298: LowAcceptanceWarning: ...``); that prefix is dropped
before comparing, so moved lines do not count as a difference, while the
warning class and message still do.

The commands cover every subcommand and mode: each experiment at
``--workers`` 1, 2 and the default, chunk and row-block edges, larger inputs
drawn from a fixed seed, spectra far from unit scale (levels in joules,
near 1e155 and 1e-200, below 2^-512 and subnormal), and the error paths
(malformed inputs, flags a run does not read or needs, domain,
infeasibility, convergence and float-range errors).  The comments in
:func:`commands` say what a command checks.  It takes about a minute.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import tempfile
from pathlib import Path

INPUTS = {
    # n = 900: chunks of 2330 states
    "in/s900.json": {"levels": [1.0, 2.0, 3.0], "degeneracies": [300, 300, 300]},
    # n = 60: oracle chunks of 34952 proposals
    "in/s60.json": {"levels": [1.0, 2.0, 3.0], "degeneracies": [20, 20, 20]},
    "in/s123.json": {"levels": [1.0, 2.0, 3.0]},
    # n = 1024: chunks of 2048 states, so --count 2565 leaves a last one of 517
    "in/s1024.json": {"levels": [1.0, 2.0, 3.0], "degeneracies": [342, 341, 341]},
    # n = 192: chunks of 10922 states
    "in/bip.json": {"levels_a": [1.0, 2.0, 3.0], "levels_b": [0.0] * 64},
    "in/huge-level.json": {"levels": [1, 2, 10**400]},
    "in/huge-level-b.json": {"levels_a": [1.0, 2.0], "levels_b": [1, 2, 10**400]},
    "in/fractional-degeneracy.json": {"levels": [1, 2, 3], "degeneracies": [1.5, 2, 3]},
    "in/empty-part.json": {"levels_a": [], "levels_b": [0.0, 1.0]},
    # n = 24: oracle chunks of 87381 proposals
    "in/negative.json": {"levels": [-2.0, -0.5, 1.0, 4.0], "degeneracies": [5, 7, 3, 9]},
    "in/offset.json": {"levels": [1e6 + 1, 1e6 + 2, 1e6 + 3]},
    "in/huge-157.json": {"levels": [1e157, 2e157, 3e157], "degeneracies": [2731, 2731, 2731]},
    # E'^2 overflows where the harmonic shift solve ends in a Newton step
    "in/huge-155.json": {"levels": [1e155, 2e155, 3e155]},
    # E'^2/n underflows to 0
    "in/tiny-200.json": {"levels": [1e-200, 2e-200, 3e-200]},
    # the mean of 1/E_k^2 overflows below about 2^-512
    "in/tiny-600.json": {"levels": [d * 2.0**-600 for d in (1, 2, 3)],
                         "degeneracies": [30, 30, 30]},
    "in/mixed-scale.json": {"levels": [1e-300, 1.0, 2.0]},
    # subnormal levels: the mean of 1/E_k overflows too
    "in/subnormal.json": {"levels": [1e-310, 2e-310, 3e-310]},
    # levels in joules: every shift solve runs below unit scale
    "in/joules.json": {"levels": [1.602176634e-19 * d for d in (1, 2, 3)],
                       "degeneracies": [300, 300, 300]},
    "in/small-span.json": {"levels": [0.01, 0.02, 0.03], "degeneracies": [300, 300, 300]},
    "in/all-equal.json": {"levels": [3.0, 3.0]},
    # the level span overflows, so the shift solver's bracket starts at inf
    "in/overflowing-span.json": {"levels": [-1e308, 1.5e308]},
    "in/string-levels.json": {"levels": ["1", "2", "3"]},
    "in/boolean-levels.json": {"levels": [True, False, 2]},
    "in/boolean-degeneracy.json": {"levels": [1, 2], "degeneracies": [True, 2]},
    "in/huge-degeneracy.json": {"levels": [1, 2], "degeneracies": [10**400, 1]},
    "in/nan-degeneracy.json": {"levels": [1, 2], "degeneracies": [math.nan, 1]},
    "in/big-degeneracy.json": {"levels": [1, 2], "degeneracies": [10**30, 1]},
    # which of two equal zeros is the lowest level
    "in/zeros-negative-first.json": {"levels": [-0.0, 0.0, 1.0]},
    "in/zeros-positive-first.json": {"levels": [0.0, -0.0, 1.0]},
}


def large_inputs(seed: int = 8) -> dict[str, dict]:
    """A 20 000-level spectrum (n = 200 003 at seed 8), a 4 x 3000 bipartite
    spectrum of integer levels (43 grouped combined levels at seed 8) and a
    3 x 30 000 one of uniform levels, whose 90 000 combined levels are all
    distinct."""
    rng = random.Random(seed)
    levels = [rng.uniform(0.0, 10.0) for _ in range(20_000)]
    degeneracies = [rng.randint(1, 19) for _ in range(20_000)]
    levels_a = [rng.randint(0, 4) for _ in range(4)]
    levels_b = [rng.randint(0, 40) for _ in range(3000)]
    return {
        "in/large.json": {"levels": levels, "degeneracies": degeneracies},
        "in/bip-int.json": {"levels_a": levels_a, "levels_b": levels_b},
        "in/bip-uniform.json": {
            "levels_a": [rng.uniform(0.0, 2.0) for _ in range(3)],
            "levels_b": [rng.uniform(0.0, 10.0) for _ in range(30_000)],
        },
    }


VERIFY = {
    "moments": ["--spectrum", "in/s900.json", "--energy", "1.5", "--count", "6000"],
    "tail": ["--spectrum", "in/s900.json", "--energy", "1.5", "--count", "6000"],
    "reduced-dm": ["--bipartite", "in/bip.json", "--energy", "1.3", "--count", "25000"],
    "spins": ["--m", "8", "--alpha", "0.3", "--gamma", "0.4", "--count", "300"],
}


def commands() -> dict[str, list[str]]:
    """Command name -> argv of ``python -m mee``; each writes under out/<name>."""
    cmds: dict[str, list[str]] = {}
    for experiment, argv in VERIFY.items():
        for tag, workers in (("w1", ["--workers", "1"]), ("w2", ["--workers", "2"]),
                             ("wdefault", [])):
            name = f"verify-{experiment}-{tag}"
            cmds[name] = ["verify", "--experiment", experiment, *argv, "--seed", "7",
                          *workers, "--out-dir", f"out/{name}"]
    for experiment in ("tail", "moments"):
        cmds[f"verify-{experiment}-count0"] = [
            "verify", "--experiment", experiment, "--spectrum", "in/s900.json",
            "--energy", "1.5", "--count", "0", "--seed", "7",
            "--out-dir", f"out/verify-{experiment}-count0",
        ]
    for tag in ("w1", "w2"):
        cmds[f"verify-moments-n1024-{tag}"] = [
            "verify", "--experiment", "moments", "--spectrum", "in/s1024.json",
            "--energy", "1.5", "--count", "2565", "--seed", "4", "--workers", tag[1:],
            "--out-dir", f"out/verify-moments-n1024-{tag}",
        ]
    # exits 1 with the bound's "deviation t must be nonnegative" record
    cmds["verify-tail-negative-t"] = [
        "verify", "--experiment", "tail", *VERIFY["tail"], "--seed", "7",
        "--t-values=-0.1,0.2", "--out-dir", "out/verify-tail-negative-t",
    ]
    # exits 1 with the DomainError of the epsilon check, before any shift is solved
    cmds["verify-tail-epsilon-nan"] = [
        "verify", "--experiment", "tail", *VERIFY["tail"], "--seed", "7",
        "--epsilon", "nan", "--out-dir", "out/verify-tail-epsilon-nan",
    ]
    # exits 1: the reference variance E'^2/n is beyond the float range
    cmds["verify-moments-huge-155"] = [
        "verify", "--experiment", "moments", "--spectrum", "in/huge-155.json",
        "--energy", "1.5e155", "--count", "10", "--seed", "7",
        "--out-dir", "out/verify-moments-huge-155",
    ]
    # exits 1 before any draw: the reference variance E'^2/n underflows to 0
    cmds["verify-moments-1e-200"] = [
        "verify", "--experiment", "moments", "--spectrum", "in/tiny-200.json",
        "--energy", "1.5e-200", "--count", "10", "--seed", "7",
        "--out-dir", "out/verify-moments-1e-200",
    ]
    # exits 2 when the report directory cannot be made
    cmds["verify-out-dir-unusable"] = [
        "verify", "--experiment", "moments", *VERIFY["moments"], "--seed", "7",
        "--out-dir", "in/s123.json/sub",
    ]
    cmds["spins"] = ["spins", "--m", "6", "--alpha", "0.3", "--gamma", "0.4",
                     "--count", "200", "--seed", "3", "--out-dir", "out/spins"]
    # the spins-m10 benchmark workload's shape: n = 1024, oracle blocks of 64 rows
    cmds["verify-spins-m10"] = ["verify", "--experiment", "spins", "--m", "10", "--alpha", "0.3",
                                "--gamma", "0.4", "--count", "40", "--seed", "7",
                                "--out-dir", "out/verify-spins-m10"]
    samples = {
        "gaussian": ["--spectrum", "in/s900.json", "--energy", "1.5", "--count", "4661"],
        "sphere": ["--spectrum", "in/s900.json", "--count", "4661"],
        "oracle-uniform": ["--spectrum", "in/s60.json", "--energy", "1.8", "--count", "400",
                           "--eta", "0.02"],
        "oracle-gaussian": ["--spectrum", "in/s60.json", "--energy", "1.8", "--count", "400",
                            "--eta", "0.02", "--proposal", "gaussian"],
        "oracle-uniform-defaults": ["--spectrum", "in/s60.json", "--energy", "1.8",
                                    "--count", "200"],
        "oracle-gaussian-defaults": ["--spectrum", "in/s60.json", "--energy", "1.8",
                                     "--count", "200", "--proposal", "gaussian"],
        "oracle-partial": ["--spectrum", "in/s60.json", "--energy", "1.8", "--count", "100000",
                           "--eta", "0.02", "--max-draws", "70000"],
        "oracle-negative-uniform": ["--spectrum", "in/negative.json", "--energy", "-0.3",
                                    "--count", "200", "--max-draws", "400000"],
        "oracle-negative-gaussian": ["--spectrum", "in/negative.json", "--energy", "-0.3",
                                     "--count", "500", "--proposal", "gaussian"],
        "oracle-offset-uniform": ["--spectrum", "in/offset.json", "--energy", "1000001.5",
                                  "--count", "2000"],
        # exits 1: the harmonic shift solve does not converge at this offset
        "oracle-offset-gaussian": ["--spectrum", "in/offset.json", "--energy", "1000001.5",
                                   "--count", "2000", "--proposal", "gaussian"],
        # 2000 x 121 cells, the weighted dump over many row blocks
        "oracle-split": ["--spectrum", "in/s60.json", "--energy", "1.8", "--count", "2000",
                         "--eta", "0.02"],
        # 546 x 120 cells, a Gaussian dump whose last row block is short
        "gaussian-unsplit": ["--spectrum", "in/s60.json", "--energy", "1.8", "--count", "546"],
    }
    for mode, argv in samples.items():
        name = f"sample-{mode}"
        cmds[name] = ["sample", "--mode", mode.split("-")[0], *argv, "--seed", "5",
                      "--out", f"out/{name}/states.csv"]
    cmds["bounds-grid"] = ["bounds", "--spectrum", "in/s123.json", "--energy", "1.5",
                           "--t-values", "0.1,0.2,0.4", "--out-dir", "out/bounds-grid"]
    # bounds below 1e-4, whose repr is in exponent notation
    cmds["bounds-tiny-tail"] = ["bounds", "--spectrum", "in/s900.json", "--energy", "1.5",
                                "--t-values", "1.5,1.7,1.8,1.9,2,3,5",
                                "--out-dir", "out/bounds-tiny-tail"]
    # exits 1: E'_max^2, and so the constant a, is beyond the float range
    cmds["bounds-overflowing-a"] = ["bounds", "--spectrum", "in/huge-157.json", "--energy",
                                    "1.5e157", "--epsilon", "2",
                                    "--out-dir", "out/bounds-overflowing-a"]
    cmds["bounds-epsilon"] = ["bounds", "--spectrum", "in/s123.json", "--energy", "1.5",
                              "--epsilon", "2", "--out-dir", "out/bounds-epsilon"]
    # exits 1 with failures keyed "0.5", "1e-05", "3.0": string order, not numeric
    cmds["bounds-grid-infeasible"] = ["bounds", "--spectrum", "in/s123.json", "--energy",
                                      "1.5", "--epsilon-grid", "0.5,0.00001,3"]
    # each exits 2: the run does not read the last flag
    cmds["verify-moments-eta"] = ["verify", "--experiment", "moments", *VERIFY["moments"],
                                  "--seed", "7", "--out-dir", "out/verify-moments-eta",
                                  "--eta", "0.1"]
    cmds["shift-harmonic-dim"] = ["shift", "--spectrum", "in/s123.json", "--energy", "1.5",
                                  "--dim", "7"]
    cmds["bounds-epsilon-grid"] = ["bounds", "--spectrum", "in/s900.json", "--energy", "1.5",
                                   "--epsilon", "2", "--out-dir", "out/bounds-epsilon-grid",
                                   "--epsilon-grid", "1,3"]
    cmds["sample-sphere-energy"] = ["sample", "--mode", "sphere", "--spectrum", "in/s900.json",
                                    "--count", "10", "--seed", "5",
                                    "--out", "out/sample-sphere-energy/states.csv",
                                    "--energy", "1.5"]
    # each exits 2: the run needs a flag it is not given
    cmds["verify-moments-no-spectrum"] = ["verify", "--experiment", "moments", "--energy",
                                          "1.5", "--count", "10", "--seed", "7"]
    cmds["sample-gaussian-no-energy"] = ["sample", "--mode", "gaussian", "--spectrum",
                                         "in/s900.json", "--count", "10", "--seed", "5"]
    cmds["shift-no-energy"] = ["shift", "--spectrum", "in/s123.json"]
    cmds["spins-no-m"] = ["spins", "--alpha", "0.3", "--gamma", "0.4", "--count", "10",
                          "--seed", "3"]
    # each exits 1 with a DomainError record before any draw or solve
    cmds["verify-moments-sigmas-nan"] = ["verify", "--experiment", "moments",
                                         *VERIFY["moments"], "--seed", "7",
                                         "--tolerance-sigmas", "nan"]
    # each exits 1 with a NumericalError: the shift or E + s is beyond the float range
    cmds["shift-overflowing-span"] = ["shift", "--spectrum", "in/overflowing-span.json",
                                      "--energy", "1e308", "--epsilon", "2"]
    cmds["shift-overflowing-span-harmonic"] = ["shift", "--spectrum",
                                               "in/overflowing-span.json", "--energy", "1e307"]
    cmds["shift-epsilon-huge-dim"] = ["shift", "--spectrum", "in/s123.json", "--energy", "1.5",
                                      "--epsilon", "2", "--dim", str(10**400)]
    for dim in ("0", "1"):
        cmds[f"bounds-dim-{dim}"] = ["bounds", "--spectrum", "in/s123.json", "--energy", "1.5",
                                     "--dim", dim]
    cmds["canonical"] = ["canonical", "--bipartite", "in/bip.json", "--energy", "1.3",
                         "--epsilon", "2", "--out-dir", "out/canonical"]
    # exits 1 with the InfeasibleError record on stderr
    cmds["canonical-infeasible"] = ["canonical", "--bipartite", "in/bip.json", "--energy",
                                    "1.3", "--epsilon", "0.1",
                                    "--out-dir", "out/canonical-infeasible"]
    cmds["verify-reduced-dm-infeasible"] = [
        "verify", "--experiment", "reduced-dm", *VERIFY["reduced-dm"], "--epsilon", "0.1",
        "--seed", "7", "--out-dir", "out/verify-reduced-dm-infeasible",
    ]
    cmds["means"] = ["means", "--spectrum", "in/s900.json"]
    # e_quad where the mean of 1/E_k^2 overflows: 2^-600 times its unit-scale
    # value, and sqrt(3) 1e-300
    cmds["means-2^-600"] = ["means", "--spectrum", "in/tiny-600.json"]
    cmds["means-mixed-scale"] = ["means", "--spectrum", "in/mixed-scale.json"]
    # e_harm where the mean of 1/E_k overflows: 18/11 1e-310 on the subnormal grid
    cmds["means-subnormal"] = ["means", "--spectrum", "in/subnormal.json"]
    # the shift solves on subnormal levels, in the power-of-two unit of the largest
    subnormal = ["--spectrum", "in/subnormal.json", "--energy", "1.5e-310"]
    cmds["shift-subnormal-harmonic"] = ["shift", *subnormal]
    cmds["shift-subnormal-epsilon"] = ["shift", *subnormal, "--epsilon", "3"]
    # exits 1: E'_Q is beyond the float range
    cmds["bounds-subnormal"] = ["bounds", *subnormal, "--out-dir", "out/bounds-subnormal"]
    cmds["sample-gaussian-subnormal"] = ["sample", "--mode", "gaussian", *subnormal,
                                         "--count", "20", "--seed", "5",
                                         "--out", "out/sample-gaussian-subnormal/states.csv"]
    cmds["shift-harmonic"] = ["shift", "--spectrum", "in/s900.json", "--energy", "1.5"]
    cmds["shift-epsilon"] = ["shift", "--spectrum", "in/s900.json", "--energy", "1.5",
                             "--epsilon", "2"]
    joules = ["--spectrum", "in/joules.json", "--energy", repr(1.5 * 1.602176634e-19)]
    cmds["joules-shift-harmonic"] = ["shift", *joules]
    cmds["joules-shift-epsilon"] = ["shift", *joules, "--epsilon", "2"]
    cmds["joules-bounds"] = ["bounds", *joules, "--out-dir", "out/joules-bounds"]
    cmds["joules-verify-moments"] = ["verify", "--experiment", "moments", *joules,
                                     "--count", "6000", "--seed", "7",
                                     "--out-dir", "out/joules-verify-moments"]
    cmds["joules-sample-gaussian"] = ["sample", "--mode", "gaussian", *joules, "--count", "50",
                                      "--seed", "5",
                                      "--out", "out/joules-sample-gaussian/states.csv"]
    # a level span below 1
    cmds["small-span-shift"] = ["shift", "--spectrum", "in/small-span.json", "--energy", "0.015"]
    # E is 1e-12 above the one level: the all-equal closed form
    cmds["all-equal-shift-epsilon"] = ["shift", "--spectrum", "in/all-equal.json", "--epsilon",
                                       "2", "--energy", "3.000000000001", "--dim", "1000000"]
    large = ["--spectrum", "in/large.json"]
    cmds["large-means"] = ["means", *large]
    cmds["large-shift-harmonic"] = ["shift", *large, "--energy", "3.5"]
    cmds["large-shift-epsilon"] = ["shift", *large, "--energy", "3.5", "--epsilon", "2"]
    cmds["large-bounds-grid"] = ["bounds", *large, "--energy", "3.5",
                                 "--out-dir", "out/large-bounds-grid"]
    cmds["large-bounds-epsilon"] = ["bounds", *large, "--energy", "3.5", "--epsilon", "2",
                                    "--out-dir", "out/large-bounds-epsilon"]
    # an unsorted grid with a repeat, scanned in the order given
    cmds["large-bounds-grid-unsorted"] = ["bounds", *large, "--energy", "3.5",
                                          "--epsilon-grid", "8,0.5,2,2,4,1",
                                          "--out-dir", "out/large-bounds-grid-unsorted"]
    # the floor skips no point at n = 1e15, where the solver's tolerance
    # outweighs a grid step; the power-mean certificate passes over 0.5 and 1
    cmds["large-bounds-dim-1e15"] = ["bounds", *large, "--energy", "3.5",
                                     "--dim", "1000000000000000",
                                     "--out-dir", "out/large-bounds-dim-1e15"]
    # at n = 2 no point is feasible: each is passed over, then solved for the report
    cmds["large-bounds-dim-2"] = ["bounds", *large, "--energy", "3.5", "--dim", "2",
                                  "--out-dir", "out/large-bounds-dim-2"]
    # best at 1.5, after the first feasible point and before the skipped ones
    cmds["bounds-grid-fine"] = ["bounds", "--spectrum", "in/s60.json", "--energy", "1.8",
                                "--epsilon-grid", ",".join(f"{0.1 * k:.1f}" for k in range(1, 51)),
                                "--t-values", "0.6,1.2", "--out-dir", "out/bounds-grid-fine"]
    # no point lies above an earlier solved one, so the floor skips none
    cmds["large-bounds-grid-descending"] = ["bounds", *large, "--energy", "3.5",
                                            "--epsilon-grid",
                                            ",".join(str(0.5 * k) for k in range(16, 0, -1)),
                                            "--out-dir", "out/large-bounds-grid-descending"]
    cmds["bip-int-canonical"] = ["canonical", "--bipartite", "in/bip-int.json",
                                 "--energy", "15", "--epsilon", "2",
                                 "--out-dir", "out/bip-int-canonical"]
    # no two combined levels are equal, so none is grouped
    cmds["bip-uniform-canonical"] = ["canonical", "--bipartite", "in/bip-uniform.json",
                                     "--energy", "4.2", "--epsilon", "2",
                                     "--out-dir", "out/bip-uniform-canonical"]
    for order in ("negative", "positive"):
        cmds[f"zeros-{order}-first-means"] = ["means", "--spectrum",
                                              f"in/zeros-{order}-first.json"]
    cmds["big-degeneracy"] = ["means", "--spectrum", "in/big-degeneracy.json"]
    # malformed inputs: each exits 2 with the ParseError record on stderr
    cmds["huge-level"] = ["means", "--spectrum", "in/huge-level.json"]
    cmds["huge-level-b"] = ["canonical", "--bipartite", "in/huge-level-b.json",
                            "--energy", "1.5", "--epsilon", "2"]
    cmds["fractional-degeneracy"] = ["means", "--spectrum", "in/fractional-degeneracy.json"]
    cmds["empty-part"] = ["canonical", "--bipartite", "in/empty-part.json",
                          "--energy", "1.5", "--epsilon", "2"]
    cmds["string-levels"] = ["means", "--spectrum", "in/string-levels.json"]
    cmds["boolean-levels"] = ["means", "--spectrum", "in/boolean-levels.json"]
    cmds["boolean-degeneracy"] = ["means", "--spectrum", "in/boolean-degeneracy.json"]
    cmds["huge-degeneracy"] = ["means", "--spectrum", "in/huge-degeneracy.json"]
    cmds["nan-degeneracy"] = ["means", "--spectrum", "in/nan-degeneracy.json"]
    return cmds


_WARNING_LOCATION = re.compile(r"^.*:\d+: (?=\w+Warning: )", re.MULTILINE)


def run_tree(src: Path, work: Path, name: str, argv: list[str]) -> None:
    """Run one command against ``src`` in ``work``; keep its streams and exit
    code next to the files it writes, under out/<name>."""
    env = {k: v for k, v in os.environ.items() if k != "MEE_SEED"}
    env.update(PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-m", "mee", *argv], cwd=work, env=env,
                          capture_output=True)
    out = work / "out" / name
    out.mkdir(parents=True, exist_ok=True)
    (out / "exit_code").write_text(f"{proc.returncode}\n")
    (out / "stdout").write_bytes(proc.stdout)
    stderr = _WARNING_LOCATION.sub("", proc.stderr.decode(errors="replace"))
    (out / "stderr").write_text(stderr)


def files_under(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def numbers(rel: str, data: bytes) -> dict[str, float] | None:
    """The numbers of a CSV or JSON file keyed by where they sit, or None for
    a file that is neither."""
    text = data.decode(errors="replace")
    found: dict[str, float] = {}
    if rel.endswith(".csv"):
        header, *rows = list(csv.reader(io.StringIO(text))) or [[]]
        for r, row in enumerate(rows, 1):
            for c, cell in enumerate(row):
                with contextlib.suppress(ValueError):
                    found[f"row {r}, {header[c] if c < len(header) else c}"] = float(cell)
        return found
    try:
        obj = json.loads(text)
    except ValueError:
        return None

    def walk(node, path: str) -> None:
        if isinstance(node, dict):
            for key, value in node.items():
                walk(value, f"{path}.{key}")
        elif isinstance(node, list):
            for i, value in enumerate(node):
                label = value.get("name", i) if isinstance(value, dict) else i
                walk(value, f"{path}[{label}]")
        elif isinstance(node, (int, float)) and not isinstance(node, bool):
            found[path or "."] = float(node)

    walk(obj, "")
    return found


def largest_change(rel: str, a: bytes, b: bytes) -> str:
    """How many numbers of a differing JSON or CSV file differ and the largest
    relative change among them, or "" when the files' numbers cannot be
    paired by place."""
    na, nb = numbers(rel, a), numbers(rel, b)
    if na is None or nb is None or na.keys() != nb.keys():
        return ""
    changes = []
    for key, x in na.items():
        y = nb[key]
        if math.isnan(x) or math.isnan(y):
            if math.isnan(x) != math.isnan(y):
                changes.append((math.inf, key))
        elif x != y:
            change = abs(x - y) / max(abs(x), abs(y))
            changes.append((change if math.isfinite(change) else math.inf, key))
    if not changes:
        return " (no number differs)"
    worst, key = max(changes)
    return (f" ({len(changes)} of {len(na)} numbers differ, largest relative change "
            f"{worst:.2g} at {key})")


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    srcs = [Path(a).resolve() for a in argv]
    for src in srcs:
        if not (src / "mee" / "__init__.py").is_file():
            sys.stderr.write(f"{src} holds no mee package\n")
            return 2
    cmds = commands()
    with tempfile.TemporaryDirectory(prefix="cmp_outputs_") as tmp:
        works = [Path(tmp) / side for side in ("parent", "change")]
        for work in works:
            for rel, obj in {**INPUTS, **large_inputs()}.items():
                path = work / rel
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(json.dumps(obj))
        for name, cmd in cmds.items():
            for src, work in zip(srcs, works):
                run_tree(src, work, name, cmd)
            print(f"ran {name}", file=sys.stderr)
        parent, change = (files_under(work / "out") for work in works)
    differ = []
    for rel in sorted(parent.keys() | change.keys()):
        if rel not in parent or rel not in change:
            differ.append(f"ONLY IN {'change' if rel not in parent else 'parent'}: {rel}")
        elif parent[rel] != change[rel]:
            differ.append(f"DIFFERS: {rel}{largest_change(rel, parent[rel], change[rel])}")
    for line in differ:
        print(line)
    total = len(parent.keys() | change.keys())
    print(f"{len(cmds)} commands, {total} files compared, {total - len(differ)} identical, "
          f"{len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
