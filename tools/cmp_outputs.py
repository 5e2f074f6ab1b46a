"""Compare every output of two ``mee`` source trees, byte for byte.

Usage::

    python tools/cmp_outputs.py PARENT_SRC CHANGE_SRC

Each SRC is a directory holding the ``mee`` package (a checkout's ``src``).
Every command below runs once per tree, each in a subprocess whose working
directory holds the same input files under the same relative paths, so the
paths recorded in the outputs agree.  For each command the tool compares the
exit code, stdout, stderr and every file the command wrote, and prints one
line per file that differs or exists on one side only, then a summary.  It
exits 1 when anything differs.

Warning lines on stderr start with the source location of the ``warn`` call
(``path/cli.py:298: LowAcceptanceWarning: ...``); that prefix is dropped
before comparing, so moved lines do not count as a difference, while the
warning class and message still do.

The list covers the ``verify`` reports of every experiment at ``--workers``
1, 2 and the default (plus the tail ``curve.csv``), the ``spins`` alias, the
``sample`` CSV and record in every mode (Gaussian and sphere over three
chunks with a short last one, both oracle proposals with an explicit and
with the default ``--eta`` and ``--max-draws``, a partial oracle batch, a
weighted oracle dump large enough for the writer to split it into row parts
and a Gaussian dump just under that size),
``bounds`` (``constants.json``, ``tail.csv``), ``canonical.json``, the
error of an infeasible ``--epsilon`` in ``canonical`` and in the reduced-dm
``verify`` and that of an all-infeasible ``bounds --epsilon-grid``, ``means``, ``shift`` (harmonic and ``--epsilon``), and ``verify
--count 0``.  ``means``, ``shift``,
``bounds`` (the default grid, an unsorted grid with a repeated value, and
``--epsilon``) and ``canonical`` also run on two larger inputs drawn from a
fixed seed: 20 000 random levels with degeneracies 1-19,
and a bipartite spectrum of integer levels whose combined spectrum collapses
12 000 sums into a few dozen grouped levels.  Four malformed inputs (a
401-digit integer level in a spectrum and in ``levels_b``, a degeneracy of
1.5, an empty ``levels_a``) check the error path, as do a negative ``verify
--t-values`` entry, ``bounds --lipschitz 0`` and a ``verify --out-dir`` below a
regular file.  It takes a minute or two, mostly the CSV writes.
"""
from __future__ import annotations

import json
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
    # n = 192: chunks of 10922 states
    "in/bip.json": {"levels_a": [1.0, 2.0, 3.0], "levels_b": [0.0] * 64},
    "in/huge-level.json": {"levels": [1, 2, 10**400]},
    "in/huge-level-b.json": {"levels_a": [1.0, 2.0], "levels_b": [1, 2, 10**400]},
    "in/fractional-degeneracy.json": {"levels": [1, 2, 3], "degeneracies": [1.5, 2, 3]},
    "in/empty-part.json": {"levels_a": [], "levels_b": [0.0, 1.0]},
}


def large_inputs(seed: int = 8) -> dict[str, dict]:
    """A 20 000-level spectrum (n = 200 003 at seed 8) and a 4 x 3000 bipartite
    spectrum of integer levels (43 grouped combined levels at seed 8)."""
    rng = random.Random(seed)
    levels = [rng.uniform(0.0, 10.0) for _ in range(20_000)]
    degeneracies = [rng.randint(1, 19) for _ in range(20_000)]
    levels_a = [rng.randint(0, 4) for _ in range(4)]
    levels_b = [rng.randint(0, 40) for _ in range(3000)]
    return {
        "in/large.json": {"levels": levels, "degeneracies": degeneracies},
        "in/bip-int.json": {"levels_a": levels_a, "levels_b": levels_b},
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
    # exits 1 with the bound's "deviation t must be nonnegative" record
    cmds["verify-tail-negative-t"] = [
        "verify", "--experiment", "tail", *VERIFY["tail"], "--seed", "7",
        "--t-values=-0.1,0.2", "--out-dir", "out/verify-tail-negative-t",
    ]
    # exits 2 when the report directory cannot be made
    cmds["verify-out-dir-unusable"] = [
        "verify", "--experiment", "moments", *VERIFY["moments"], "--seed", "7",
        "--out-dir", "in/s123.json/sub",
    ]
    cmds["spins"] = ["spins", "--m", "6", "--alpha", "0.3", "--gamma", "0.4",
                     "--count", "200", "--seed", "3", "--out-dir", "out/spins"]
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
        # 2000 x 121 cells: the weighted dump is split into row parts
        "oracle-split": ["--spectrum", "in/s60.json", "--energy", "1.8", "--count", "2000",
                         "--eta", "0.02"],
        # 546 x 120 cells, just under the 2^16 at which the writer splits
        "gaussian-unsplit": ["--spectrum", "in/s60.json", "--energy", "1.8", "--count", "546"],
    }
    for mode, argv in samples.items():
        name = f"sample-{mode}"
        cmds[name] = ["sample", "--mode", mode.split("-")[0], *argv, "--seed", "5",
                      "--out", f"out/{name}/states.csv"]
    cmds["bounds-grid"] = ["bounds", "--spectrum", "in/s123.json", "--energy", "1.5",
                           "--t-values", "0.1,0.2,0.4", "--out-dir", "out/bounds-grid"]
    cmds["bounds-epsilon"] = ["bounds", "--spectrum", "in/s123.json", "--energy", "1.5",
                              "--epsilon", "2", "--out-dir", "out/bounds-epsilon"]
    # exits 1 with failures keyed "0.5", "1e-05", "3.0": string order, not numeric
    cmds["bounds-grid-infeasible"] = ["bounds", "--spectrum", "in/s123.json", "--energy",
                                      "1.5", "--epsilon-grid", "0.5,0.00001,3"]
    # exits 1: the Lipschitz constant must be positive
    cmds["bounds-lipschitz-zero"] = ["bounds", "--spectrum", "in/s123.json", "--energy", "1.5",
                                     "--lipschitz", "0", "--out-dir", "out/bounds-lipschitz-zero"]
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
    cmds["shift-harmonic"] = ["shift", "--spectrum", "in/s900.json", "--energy", "1.5"]
    cmds["shift-epsilon"] = ["shift", "--spectrum", "in/s900.json", "--energy", "1.5",
                             "--epsilon", "2"]
    large = ["--spectrum", "in/large.json"]
    cmds["large-means"] = ["means", *large]
    cmds["large-shift-harmonic"] = ["shift", *large, "--energy", "3.5"]
    cmds["large-shift-epsilon"] = ["shift", *large, "--energy", "3.5", "--epsilon", "2"]
    cmds["large-bounds-grid"] = ["bounds", *large, "--energy", "3.5",
                                 "--out-dir", "out/large-bounds-grid"]
    cmds["large-bounds-epsilon"] = ["bounds", *large, "--energy", "3.5", "--epsilon", "2",
                                    "--out-dir", "out/large-bounds-epsilon"]
    # an unsorted grid with a repeat: the solves share level sums in any order
    cmds["large-bounds-grid-unsorted"] = ["bounds", *large, "--energy", "3.5",
                                          "--epsilon-grid", "8,0.5,2,2,4,1",
                                          "--out-dir", "out/large-bounds-grid-unsorted"]
    cmds["bip-int-canonical"] = ["canonical", "--bipartite", "in/bip-int.json",
                                 "--energy", "15", "--epsilon", "2",
                                 "--out-dir", "out/bip-int-canonical"]
    # malformed inputs: each exits 2 with the ParseError record on stderr
    cmds["huge-level"] = ["means", "--spectrum", "in/huge-level.json"]
    cmds["huge-level-b"] = ["canonical", "--bipartite", "in/huge-level-b.json",
                            "--energy", "1.5", "--epsilon", "2"]
    cmds["fractional-degeneracy"] = ["means", "--spectrum", "in/fractional-degeneracy.json"]
    cmds["empty-part"] = ["canonical", "--bipartite", "in/empty-part.json",
                          "--energy", "1.5", "--epsilon", "2"]
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
            differ.append(f"DIFFERS: {rel}")
    for line in differ:
        print(line)
    total = len(parent.keys() | change.keys())
    print(f"{len(cmds)} commands, {total} files compared, {total - len(differ)} identical, "
          f"{len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
