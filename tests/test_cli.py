import builtins
import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

from mee.cli import run
from mee.io import load_spectrum
from mee.sampling import RngSpec, default_shell_width, oracle_manifold_sample


@pytest.fixture
def spectrum_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"levels": [1.0, 2.0, 3.0], "degeneracies": [2731, 2731, 2731]}))
    return str(path)


@pytest.fixture
def small_spectrum_file(tmp_path):
    path = tmp_path / "small.json"
    path.write_text(json.dumps({"levels": [1.0, 2.0, 3.0], "degeneracies": [20, 20, 20]}))
    return str(path)


@pytest.fixture
def two_level_file(tmp_path):
    path = tmp_path / "two.json"
    path.write_text(json.dumps({"levels": [1.0, 3.0]}))
    return str(path)


@pytest.fixture
def bipartite_file(tmp_path):
    path = tmp_path / "bip.json"
    path.write_text(json.dumps({"levels_a": [1.0, 2.0, 3.0], "levels_b": [0.0] * 64}))
    return str(path)


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestMeans:
    def test_happy_path(self, capsys, spectrum_file):
        code, record = run_json(capsys, ["means", "--spectrum", spectrum_file])
        assert code == 0
        assert record["means"]["e_arith"] == pytest.approx(2.0)
        assert record["means"]["e_harm"] == pytest.approx(18.0 / 11.0)

    def test_default_degeneracies(self, capsys, tmp_path):
        path = tmp_path / "plain.json"
        path.write_text(json.dumps({"levels": [0.0, 1.0]}))
        code, record = run_json(capsys, ["means", "--spectrum", str(path)])
        assert code == 0
        assert record["means"]["n"] == 2
        assert record["means"]["e_harm"] is None


class TestShift:
    def test_harmonic_zero_case(self, capsys, two_level_file):
        code, record = run_json(
            capsys, ["shift", "--spectrum", two_level_file, "--energy", "1.5"]
        )
        assert code == 0
        assert record["kind"] == "harmonic"
        assert abs(record["shift"]) < 1e-10

    def test_epsilon_form(self, capsys, spectrum_file):
        code, record = run_json(
            capsys,
            ["shift", "--spectrum", spectrum_file, "--energy", "1.5", "--epsilon", "2"],
        )
        assert code == 0
        assert -0.5 < record["shift"] < 0.0

    def test_zero_tol_still_solves(self, capsys, tmp_path):
        path = tmp_path / "s123.json"
        path.write_text(json.dumps({"levels": [1.0, 2.0, 3.0]}))
        code, record = run_json(
            capsys, ["shift", "--spectrum", str(path), "--energy", "1.5", "--tol", "0"]
        )
        assert code == 0
        assert record["config"]["tol"] == 0.0
        assert record["shift"] == pytest.approx(-0.45142, abs=1e-5)

    def test_domain_error_exit_code(self, capsys, two_level_file):
        code = run(["shift", "--spectrum", two_level_file, "--energy", "5.0"])
        err = json.loads(capsys.readouterr().err)
        assert code == 1
        assert err["error"] == "DomainError"


class TestBounds:
    def test_fixed_epsilon(self, capsys, spectrum_file, tmp_path):
        out = tmp_path / "out"
        code, record = run_json(
            capsys,
            [
                "bounds",
                "--spectrum", spectrum_file,
                "--energy", "1.5",
                "--epsilon", "2",
                "--t-values", "0.1,0.5,1.0",
                "--out-dir", str(out),
            ],
        )
        assert code == 0
        assert record["constants"]["c"] >= 3.0 / 64.0
        assert 0 < record["constants"]["a"] < 30830.0
        assert record["window"]["ok"] is True
        csv_lines = (out / "tail.csv").read_text().strip().splitlines()
        assert csv_lines[0] == "t,bound,log10_bound"
        assert len(csv_lines) == 4
        bound = float(csv_lines[1].split(",")[1])
        assert bound <= 1.0  # clamped rendering

    def test_grid_scan_skips_infeasible(self, capsys, spectrum_file):
        code, record = run_json(
            capsys,
            [
                "bounds",
                "--spectrum", spectrum_file,
                "--energy", "1.5",
                "--epsilon-grid", "1,2,3",
            ],
        )
        assert code == 0
        assert record["constants"]["epsilon"] in (2.0, 3.0)

    def test_infeasible_epsilon_exit_code(self, capsys, spectrum_file):
        code = run(
            ["bounds", "--spectrum", spectrum_file, "--energy", "1.5", "--epsilon", "1"]
        )
        err = json.loads(capsys.readouterr().err)
        assert code == 1
        assert err["error"] == "InfeasibleError"
        assert err["details"]["min_feasible_epsilon"] > 1.0

    def test_infeasible_grid_failures_are_keyed_by_string(self, capsys, tmp_path):
        # the record sorts the float keys as strings: "1e-05" after "0.5"
        path = tmp_path / "s123.json"
        path.write_text(json.dumps({"levels": [1.0, 2.0, 3.0]}))
        code = run(["bounds", "--spectrum", str(path), "--energy", "1.5",
                    "--epsilon-grid", "0.5,0.00001,3"])
        captured = capsys.readouterr()
        err = json.loads(captured.err)
        assert code == 1
        assert captured.out == ""
        assert err["error"] == "InfeasibleError"
        assert list(err["details"]["failures"]) == ["0.5", "1e-05", "3.0"]
        assert err["details"]["grid"] == [0.5, 1e-05, 3.0]


class TestCanonical:
    def test_emits_diagonal_and_delta(self, capsys, bipartite_file, tmp_path):
        out = tmp_path / "canon"
        code, record = run_json(
            capsys,
            [
                "canonical",
                "--bipartite", bipartite_file,
                "--energy", "1.5",
                "--epsilon", "2",
                "--out-dir", str(out),
            ],
        )
        assert code == 0
        diag = record["rho_c"]["diagonal"]
        assert len(diag) == 3
        assert diag[0] > diag[1] > diag[2]
        assert record["delta"] > 0
        assert record["tail_prefactor"] == pytest.approx(12 * record["constants"]["a"])
        assert (out / "canonical.json").exists()

    def test_groups_the_combined_spectrum_once(self, capsys, bipartite_file, grouped_calls):
        argv = ["canonical", "--bipartite", bipartite_file, "--energy", "1.5", "--epsilon", "2"]
        assert run(argv) == 0
        capsys.readouterr()
        assert grouped_calls == [192]

    def test_solves_the_epsilon_shift_once(self, capsys, bipartite_file, epsilon_solves):
        argv = ["canonical", "--bipartite", bipartite_file, "--energy", "1.5", "--epsilon", "2"]
        assert run(argv) == 0
        capsys.readouterr()
        assert epsilon_solves == [192]


class TestSample:
    def test_gaussian_csv(self, capsys, small_spectrum_file, tmp_path):
        out = tmp_path / "amps.csv"
        code, record = run_json(
            capsys,
            [
                "sample",
                "--spectrum", small_spectrum_file,
                "--energy", "1.5",
                "--mode", "gaussian",
                "--count", "7",
                "--seed", "5",
                "--out", str(out),
            ],
        )
        assert code == 0
        assert record["produced"] == 7
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 8
        assert lines[0].startswith("re0,im0,re1,im1")
        assert len(lines[1].split(",")) == 2 * 60

    def test_oracle_adds_weight_column(self, capsys, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"levels": [1.0, 2.0, 3.0]}))
        out = tmp_path / "oracle.csv"
        code, record = run_json(
            capsys,
            [
                "sample",
                "--spectrum", str(path),
                "--energy", "1.5",
                "--mode", "oracle",
                "--count", "5",
                "--seed", "6",
                "--out", str(out),
            ],
        )
        assert code == 0
        header = out.read_text().splitlines()[0]
        assert header.endswith("weight")
        assert record["meta"]["acceptance_rate"] > 0

    @pytest.mark.parametrize("proposal", ["uniform", "gaussian"])
    def test_oracle_csv_cells_are_the_batch_bits(
        self, capsys, small_spectrum_file, tmp_path, proposal
    ):
        out = tmp_path / "oracle.csv"
        code, record = run_json(
            capsys,
            [
                "sample",
                "--spectrum", small_spectrum_file,
                "--energy", "1.9",
                "--mode", "oracle",
                "--proposal", proposal,
                "--count", "200",
                "--seed", "8",
                "--out", str(out),
            ],
        )
        assert code == 0
        spec = load_spectrum(small_spectrum_file)
        batch = oracle_manifold_sample(
            spec, 1.9, default_shell_width(spec), 200, 200 * 200, RngSpec(seed=8),
            proposal=proposal,
        )
        assert record["produced"] == batch.count == 200
        text = out.read_bytes().decode()
        assert "np." not in text
        lines = text.split("\r\n")
        assert lines.pop() == ""  # every line ends in CRLF
        assert not any("\n" in line or "\r" in line for line in lines)
        assert lines[0].endswith("im59,weight")
        cells = np.array([[float(cell) for cell in line.split(",")] for line in lines[1:]])
        want = np.column_stack([batch.states.view(np.float64), batch.weights])
        assert cells.tobytes() == want.tobytes()

    def test_sphere_needs_no_energy(self, capsys, small_spectrum_file):
        code, record = run_json(
            capsys,
            ["sample", "--spectrum", small_spectrum_file, "--mode", "sphere", "--count", "3"],
        )
        assert code == 0
        assert record["produced"] == 3

    def test_gaussian_requires_energy(self, capsys, small_spectrum_file):
        code = run(["sample", "--spectrum", small_spectrum_file, "--mode", "gaussian"])
        assert code == 1


class TestVerify:
    def test_moments_report(self, capsys, small_spectrum_file, tmp_path):
        out = tmp_path / "rep"
        code, record = run_json(
            capsys,
            [
                "verify",
                "--experiment", "moments",
                "--spectrum", small_spectrum_file,
                "--energy", "1.5",
                "--count", "4000",
                "--seed", "11",
                "--out-dir", str(out),
            ],
        )
        assert code == 0
        assert record["report"]["passed"] is True
        assert (out / "report.json").exists()

    def test_tail_writes_curve(self, capsys, small_spectrum_file, tmp_path):
        out = tmp_path / "tailrep"
        code, record = run_json(
            capsys,
            [
                "verify",
                "--experiment", "tail",
                "--spectrum", small_spectrum_file,
                "--energy", "1.5",
                "--epsilon", "2",
                "--count", "2000",
                "--seed", "12",
                "--t-values", "0.1,0.3,0.6",
                "--out-dir", str(out),
            ],
        )
        assert code == 0
        lines = (out / "curve.csv").read_text().strip().splitlines()
        assert lines[0] == "t,frequency,bound"
        assert len(lines) == 4

    def test_reduced_dm(self, capsys, bipartite_file):
        code, record = run_json(
            capsys,
            [
                "verify",
                "--experiment", "reduced-dm",
                "--bipartite", bipartite_file,
                "--energy", "1.5",
                "--epsilon", "2",
                "--count", "500",
                "--seed", "13",
            ],
        )
        assert code == 0
        assert record["report"]["passed"] is True

    def test_spins_experiment(self, capsys):
        code, record = run_json(
            capsys,
            [
                "verify",
                "--experiment", "spins",
                "--m", "5",
                "--alpha", "0.3",
                "--gamma", "0.4",
                "--count", "800",
                "--seed", "14",
            ],
        )
        assert code == 0
        names = [m["name"] for m in record["report"]["measured"]]
        assert "occupation_below_cut" in names

    def test_missing_inputs(self, capsys):
        code = run(["verify", "--experiment", "moments"])
        assert code == 1


class TestSpinsCommand:
    def test_matches_verify_spins(self, capsys):
        args = ["--m", "5", "--alpha", "0.3", "--gamma", "0.4", "--count", "600", "--seed", "9"]
        code_a, rec_a = run_json(capsys, ["spins", *args])
        code_b, rec_b = run_json(
            capsys, ["verify", "--experiment", "spins", *args]
        )
        assert code_a == code_b == 0
        assert rec_a["report"] == rec_b["report"]


class TestErrorPaths:
    def test_missing_file_is_exit_2(self, capsys):
        code = run(["means", "--spectrum", "/nonexistent/x.json"])
        err = json.loads(capsys.readouterr().err)
        assert code == 2
        assert err["error"] == "ParseError"

    def test_malformed_json_is_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(["means", "--spectrum", str(bad)]) == 2
        capsys.readouterr()

    def test_schema_violation_is_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad2.json"
        bad.write_text(json.dumps({"levels": []}))
        assert run(["means", "--spectrum", str(bad)]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "command,obj",
        [
            ("means", {"levels": [1, 2, 10**400]}),
            ("canonical", {"levels_a": [1.0, 2.0], "levels_b": [1, 2, 10**400]}),
            ("means", {"levels": [1, 2, 3], "degeneracies": [1.5, 2, 3]}),
        ],
        ids=["huge-level", "huge-level-b", "fractional-degeneracy"],
    )
    def test_invalid_number_is_exit_2(self, capsys, tmp_path, command, obj):
        bad = tmp_path / "bad3.json"
        bad.write_text(json.dumps(obj))
        if command == "means":
            argv = ["means", "--spectrum", str(bad)]
        else:
            argv = ["canonical", "--bipartite", str(bad), "--energy", "1.5", "--epsilon", "2"]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "ParseError"

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--experiment", "moments", "--spectrum", "small", "--energy", "1.5",
             "--count", "50", "--seed", "1", "--out-dir", "blocked/sub"],
            ["verify", "--experiment", "tail", "--spectrum", "small", "--energy", "1.5",
             "--count", "50", "--seed", "1", "--out-dir", "blocked/sub"],
            ["bounds", "--spectrum", "big", "--energy", "1.5", "--epsilon", "2",
             "--out-dir", "blocked/sub"],
            ["canonical", "--bipartite", "bip", "--energy", "1.3", "--epsilon", "2",
             "--out-dir", "blocked/sub"],
            ["sample", "--mode", "gaussian", "--spectrum", "small", "--energy", "1.5",
             "--count", "20", "--seed", "1", "--out", "blocked/x.csv"],
        ],
        ids=["verify-moments", "verify-tail", "bounds", "canonical", "sample"],
    )
    def test_unwritable_output_leaves_stdout_empty(self, capsys, tmp_path, spectrum_file,
                                                   small_spectrum_file, bipartite_file, argv):
        # a regular file where a directory should be: every file is written
        # before the record is printed, so no success record precedes the error
        blocked = tmp_path / "blocked"
        blocked.write_text("")
        files = {"big": spectrum_file, "small": small_spectrum_file, "bip": bipartite_file}
        argv = [files.get(arg, arg) for arg in argv]
        argv[-1] = str(tmp_path / argv[-1])
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert issubclass(getattr(builtins, json.loads(captured.err)["error"]), OSError)

    def test_unknown_subcommand_is_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            run(["frobnicate"])
        assert exc.value.code == 2


class TestNonFiniteInputs:
    """NaN and infinite energies, epsilons, Lipschitz constants and shell
    widths, NaN, negative or infinite solver tolerances, nonpositive Lipschitz
    constants and negative deviations fail with a DomainError before any
    work they would spoil."""

    @staticmethod
    def _forbid(monkeypatch, target):
        def forbidden(*args, **kwargs):
            raise AssertionError(f"{target} ran")

        monkeypatch.setattr(target, forbidden)

    @pytest.mark.parametrize(
        "argv, forbidden",
        [
            (["bounds", "--spectrum", "big", "--energy", "nan"], "mee.spectrum._shift_root"),
            (["bounds", "--spectrum", "big", "--energy", "inf", "--epsilon", "2"],
             "mee.spectrum._shift_root"),
            (["canonical", "--bipartite", "bip", "--energy", "nan", "--epsilon", "2"],
             "mee.spectrum._shift_root"),
            (["shift", "--spectrum", "big", "--epsilon", "2", "--energy", "nan"],
             "mee.spectrum._shift_root"),
            (["shift", "--spectrum", "big", "--epsilon", "2", "--energy", "inf"],
             "mee.spectrum._shift_root"),
            (["shift", "--spectrum", "big", "--epsilon", "2", "--energy=-inf"],
             "mee.spectrum._shift_root"),
            (["shift", "--spectrum", "big", "--epsilon", "nan", "--energy", "1.5"],
             "mee.spectrum._shift_root"),
            # an all-equal spectrum never reaches the root finder; it used to
            # print a null shift and exit 0
            (["shift", "--spectrum", "flat", "--epsilon", "inf", "--energy", "2.5"], None),
            (["verify", "--experiment", "tail", "--spectrum", "small", "--energy", "1.5",
              "--epsilon", "nan", "--count", "10", "--seed", "1"],
             "mee.experiments._gaussian_stream"),
            (["bounds", "--spectrum", "big", "--energy", "1.5", "--lipschitz", "nan",
              "--out-dir", "out"], None),
            (["sample", "--mode", "oracle", "--spectrum", "small", "--energy", "1.5",
              "--eta", "nan", "--count", "5", "--seed", "1"], "mee.sampling._map_ordered"),
            # no residual meets a negative or NaN tolerance: 200 iterations
            # and a NumericalError
            (["shift", "--spectrum", "s123", "--energy", "1.5", "--tol", "-1"],
             "mee.spectrum._shift_root"),
            (["shift", "--spectrum", "s123", "--energy", "1.5", "--epsilon", "2",
              "--tol", "nan"], "mee.spectrum._shift_root"),
            # every residual meets an infinite one: exit 0 with a wrong shift
            (["shift", "--spectrum", "s123", "--energy", "1.5", "--tol", "inf"],
             "mee.spectrum._shift_root"),
            (["bounds", "--spectrum", "big", "--energy", "1.5", "--lipschitz", "0",
              "--out-dir", "out"], None),
            (["bounds", "--spectrum", "big", "--energy", "1.5", "--lipschitz=-1",
              "--out-dir", "out"], None),
            # a negative t fails in the bound too, but only after every chunk is drawn
            (["verify", "--experiment", "tail", "--spectrum", "small", "--energy", "1.5",
              "--count", "10", "--seed", "1", "--t-values=-0.1,0.2", "--out-dir", "out"],
             "mee.experiments._gaussian_stream"),
        ],
        ids=["bounds-energy-nan", "bounds-energy-inf", "canonical-energy-nan",
             "shift-energy-nan", "shift-energy-inf", "shift-energy-minus-inf",
             "shift-epsilon-nan", "shift-epsilon-inf-all-equal", "verify-tail-epsilon-nan",
             "bounds-lipschitz-nan", "sample-oracle-eta-nan", "shift-tol-negative",
             "shift-epsilon-tol-nan", "shift-tol-inf", "bounds-lipschitz-zero",
             "bounds-lipschitz-negative", "verify-tail-negative-t"],
    )
    def test_domain_error(self, capsys, monkeypatch, tmp_path, spectrum_file,
                          small_spectrum_file, bipartite_file, argv, forbidden):
        flat = tmp_path / "flat.json"
        flat.write_text(json.dumps({"levels": [2.0, 2.0, 2.0]}))
        s123 = tmp_path / "s123.json"
        s123.write_text(json.dumps({"levels": [1.0, 2.0, 3.0]}))
        files = {"big": spectrum_file, "small": small_spectrum_file, "bip": bipartite_file,
                 "flat": str(flat), "s123": str(s123), "out": str(tmp_path / "out")}
        if forbidden is not None:
            self._forbid(monkeypatch, forbidden)
        code = run([files.get(arg, arg) for arg in argv])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "DomainError"
        assert not (tmp_path / "out").exists()


class TestDeterminism:
    def test_same_seed_same_bytes(self, capsys, small_spectrum_file, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            run(
                [
                    "verify",
                    "--experiment", "moments",
                    "--spectrum", small_spectrum_file,
                    "--energy", "1.5",
                    "--count", "3000",
                    "--seed", "77",
                    "--out-dir", str(out),
                ]
            )
            capsys.readouterr()
            outs.append((out / "report.json").read_bytes())
        assert outs[0] == outs[1]

    def test_workers_do_not_change_bytes(self, capsys, small_spectrum_file, tmp_path):
        outs = []
        for name, workers in (("w1", "1"), ("w4", "4")):
            out = tmp_path / name
            run(
                [
                    "verify",
                    "--experiment", "moments",
                    "--spectrum", small_spectrum_file,
                    "--energy", "1.5",
                    "--count", "3000",
                    "--seed", "78",
                    "--workers", workers,
                    "--out-dir", str(out),
                ]
            )
            capsys.readouterr()
            outs.append((out / "report.json").read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("experiment", ["spins", "tail"])
    def test_report_bytes_at_any_worker_count(self, capsys, tmp_path, experiment):
        if experiment == "spins":  # the count is filled in the fourth of 15 chunks
            argv = ["--m", "8", "--alpha", "0.3", "--gamma", "0.4", "--count", "300"]
        else:  # two chunks of proposals
            spectrum = tmp_path / "n300.json"
            spectrum.write_text(json.dumps({"levels": [1.0, 2.0, 3.0], "degeneracies": [100] * 3}))
            argv = ["--spectrum", str(spectrum), "--energy", "1.5", "--count", "8000"]
        outs = []
        for name, workers in (("w1", ["--workers", "1"]), ("w2", ["--workers", "2"]), ("wd", [])):
            out = tmp_path / name
            code = run(
                ["verify", "--experiment", experiment, *argv, "--seed", "79", *workers,
                 "--out-dir", str(out)]
            )
            capsys.readouterr()
            assert code == 0
            outs.append((out / "report.json").read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_more_workers_than_chunks(self, capsys, small_spectrum_file, tmp_path):
        outs = []
        for workers in ("1", "3"):
            out = tmp_path / f"w{workers}"
            run(
                [
                    "verify",
                    "--experiment", "moments",
                    "--spectrum", small_spectrum_file,
                    "--energy", "1.5",
                    "--count", "500",
                    "--seed", "80",
                    "--workers", workers,
                    "--out-dir", str(out),
                ]
            )
            capsys.readouterr()
            outs.append((out / "report.json").read_bytes())
        assert outs[0] == outs[1]

    def test_seed_env_override(self, capsys, small_spectrum_file, monkeypatch, tmp_path):
        monkeypatch.setenv("MEE_SEED", "4242")
        out = tmp_path / "env"
        code, record = run_json(
            capsys,
            [
                "verify",
                "--experiment", "moments",
                "--spectrum", small_spectrum_file,
                "--energy", "1.5",
                "--count", "1000",
                "--out-dir", str(out),
            ],
        )
        assert code == 0
        assert record["config"]["seed"] == 4242

    def test_non_integer_seed_env_is_exit_2(self, capsys, small_spectrum_file, monkeypatch):
        monkeypatch.setenv("MEE_SEED", "abc")
        code = run(
            [
                "verify",
                "--experiment", "moments",
                "--spectrum", small_spectrum_file,
                "--energy", "1.5",
                "--count", "100",
            ]
        )
        err = json.loads(capsys.readouterr().err)
        assert code == 2
        assert err["error"] == "ParseError"
        assert "MEE_SEED" in err["message"]

    def test_zero_workers_is_exit_2(self, capsys, small_spectrum_file):
        code = run(
            [
                "verify",
                "--experiment", "moments",
                "--spectrum", small_spectrum_file,
                "--energy", "1.5",
                "--count", "100",
                "--seed", "1",
                "--workers", "0",
            ]
        )
        err = json.loads(capsys.readouterr().err)
        assert code == 2
        assert err["error"] == "ParseError"

    @pytest.mark.parametrize(
        "case, count",
        [
            pytest.param(case, count, id=case if count == "0" else f"{case}{count}")
            for count in ("0", "-1")
            for case in ("tail", "moments", "spins", "gaussian", "sphere", "oracle")
        ],
    )
    def test_count_below_one_is_exit_2(self, capsys, small_spectrum_file, case, count):
        if case == "spins":
            argv = ["spins", "--m", "4", "--alpha", "0.3", "--gamma", "0.4"]
        elif case in ("tail", "moments"):
            argv = ["verify", "--experiment", case, "--spectrum", small_spectrum_file,
                    "--energy", "1.5"]
        else:
            argv = ["sample", "--mode", case, "--spectrum", small_spectrum_file,
                    "--energy", "1.5"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run([*argv, "--count", count, "--seed", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "ParseError"
        assert "--count" in err["message"]


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_one_state_report_is_strict_json(small_spectrum_file):
    proc = subprocess.run(
        [sys.executable, "-m", "mee", "verify", "--experiment", "moments",
         "--spectrum", small_spectrum_file, "--energy", "1.5", "--count", "1", "--seed", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    record = json.loads(proc.stdout, parse_constant=_reject_constant)
    by_name = {m["name"]: m for m in record["report"]["measured"]}
    assert by_name["mean_norm_sq"]["std_error"] is None
    assert by_name["mean_norm_sq"]["non_finite"] == {"std_error": "inf"}
    assert by_name["var_norm_sq"]["value"] is None
    assert by_name["var_norm_sq"]["non_finite"] == {"value": "nan"}


@pytest.mark.parametrize(
    "argv, code",
    [
        (["bounds", "--spectrum", "small", "--energy", "1.5", "--t-values", ","], 2),
        (["bounds", "--spectrum", "small", "--energy", "1.5", "--epsilon", "2",
          "--t-values", "nan"], 2),
        (["bounds", "--spectrum", "small", "--energy", "1.5", "--epsilon-grid", "1,inf"], 2),
        (["verify", "--experiment", "tail", "--spectrum", "small", "--energy", "1.5",
          "--count", "10", "--t-values", "nan"], 2),
        (["sample", "--mode", "gaussian", "--spectrum", "small", "--energy", "1.5",
          "--count", "-1"], 2),
        # the shift bracket starts at the pole of the lowest level, offset by 1e4
        (["shift", "--spectrum", "offset", "--energy", "10001.5"], 0),
    ],
    ids=["t-values-empty", "t-values-nan", "epsilon-grid-inf", "verify-t-values-nan",
         "sample-count-negative", "shift-offset-1e4"],
)
def test_stderr_holds_one_record_or_nothing(tmp_path, small_spectrum_file, argv, code):
    offset = tmp_path / "offset.json"
    offset.write_text(json.dumps({"levels": [10001, 10002, 10003]}))
    files = {"small": small_spectrum_file, "offset": str(offset)}
    proc = subprocess.run(
        [sys.executable, "-m", "mee", *(files.get(arg, arg) for arg in argv)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == code
    if code == 0:
        assert proc.stderr == ""
        json.loads(proc.stdout)
    else:
        assert proc.stdout == ""
        record = json.loads(proc.stderr)  # one record: no traceback, no warning line
        assert record["error"] == "ParseError"


def test_module_entry_point(spectrum_file):
    proc = subprocess.run(
        [sys.executable, "-m", "mee", "means", "--spectrum", spectrum_file],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["means"]["n"] == 8193
