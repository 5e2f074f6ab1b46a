"""Cold set-up of one workload: import ``mee.cli``, load the workload's input
files and solve its frame, then exit.  The benchmark times this process from
spawn to exit.

Usage: python3 setup_probe.py SRC_DIR JSON_SPECS
where JSON_SPECS is a list of {"spectrum"|"bipartite"|"spins": ..., "energy": E,
"epsilon"?: eps}.
"""
import json
import sys


def main(src: str, specs_json: str) -> None:
    sys.path.insert(0, src)
    import mee.cli  # noqa: F401  (the import is part of what is timed)
    from mee.experiments import spin_spectrum
    from mee.io import load_bipartite, load_spectrum
    from mee.spectrum import epsilon_shift_solve, harmonic_frame

    for spec in json.loads(specs_json):
        if "bipartite" in spec:
            combined = load_bipartite(spec["bipartite"]).combined()
            epsilon_shift_solve(combined, spec["energy"], spec["epsilon"])
        elif "spins" in spec:
            harmonic_frame(spin_spectrum(spec["spins"]), spec["energy"])
        else:
            harmonic_frame(load_spectrum(spec["spectrum"]), spec["energy"])


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
