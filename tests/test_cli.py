import builtins
import json
import math
import os
import platform
import random
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import mee
from mee.cli import build_parser, run
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

    @pytest.mark.parametrize("dim,message", [
        ("0", "dimension must be positive"), ("-3", "dimension must be positive"),
        ("1", "the energy window test needs dimension n >= 2"),
    ])
    @pytest.mark.parametrize("epsilon", [[], ["--epsilon", "2"]], ids=["grid", "epsilon"])
    def test_dimension_below_two_is_one_domain_error(self, capsys, monkeypatch, tmp_path,
                                                     dim, message, epsilon):
        def forbidden(*args, **kwargs):
            raise AssertionError("solved the epsilon shift")

        monkeypatch.setattr("mee.bounds.epsilon_shift_solve", forbidden)
        path = tmp_path / "s123.json"
        path.write_text(json.dumps({"levels": [1.0, 2.0, 3.0]}))
        code = run(["bounds", "--spectrum", str(path), "--energy", "1.5", "--dim", dim,
                    *epsilon])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": "DomainError", "message": message}

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
        err = json.loads(capsys.readouterr().err)
        assert code == 2
        assert err["error"] == "ParseError"
        assert "--energy" in err["message"]


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
        err = json.loads(capsys.readouterr().err)
        assert code == 2
        assert err["error"] == "ParseError"
        assert "--spectrum" in err["message"] and "--energy" in err["message"]


class TestSpinsCommand:
    def test_matches_verify_spins(self, capsys):
        args = ["--m", "5", "--alpha", "0.3", "--gamma", "0.4", "--count", "600", "--seed", "9"]
        code_a, rec_a = run_json(capsys, ["spins", *args])
        code_b, rec_b = run_json(
            capsys, ["verify", "--experiment", "spins", *args]
        )
        assert code_a == code_b == 0
        assert rec_a["report"] == rec_b["report"]


# The option strings each subcommand accepts, --help aside.
_OPTIONS = {
    "means": {"--spectrum"},
    "shift": {"--spectrum", "--energy", "--epsilon", "--dim", "--tol"},
    "bounds": {"--spectrum", "--energy", "--epsilon", "--epsilon-grid", "--t-values", "--dim",
               "--out-dir"},
    "canonical": {"--bipartite", "--energy", "--epsilon", "--out-dir"},
    "sample": {"--spectrum", "--energy", "--count", "--seed", "--stream", "--mode", "--eta",
               "--proposal", "--max-draws", "--out"},
    "verify": {"--experiment", "--spectrum", "--bipartite", "--energy", "--epsilon", "--count",
               "--seed", "--stream", "--tolerance-sigmas", "--eta", "--t-values", "--workers",
               "--m", "--alpha", "--gamma", "--out-dir"},
    "spins": {"--m", "--alpha", "--gamma", "--count", "--seed", "--stream", "--eta",
              "--out-dir"},
}


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
            ("means", {"levels": ["1", "2", "3"]}),
            ("means", {"levels": [True, False, 2]}),
            ("means", {"levels": "123"}),
            ("canonical", {"levels_a": ["1", 2.0], "levels_b": [0.0, 1.0]}),
            ("canonical", {"levels_a": [1.0, 2.0], "levels_b": [False, 1.0]}),
            ("means", {"levels": [1, 2], "degeneracies": [True, 2]}),
            ("means", {"levels": [1, 2], "degeneracies": [10**400, 1]}),
            ("means", {"levels": [1, 2], "degeneracies": [math.nan, 1]}),
        ],
        ids=["huge-level", "huge-level-b", "fractional-degeneracy", "string-levels",
             "boolean-levels", "string-for-levels", "string-levels-a", "boolean-levels-b",
             "boolean-degeneracy", "huge-degeneracy", "nan-degeneracy"],
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
            ["means"],
            ["shift", "--energy", "1.5"],
            ["bounds", "--energy", "1.2", "--epsilon", "2"],
        ],
        ids=["means", "shift", "bounds"],
    )
    def test_degeneracy_beyond_the_float_range_is_a_parse_error(self, capsys, tmp_path, argv):
        spec = tmp_path / "huge.json"
        spec.write_text(json.dumps({"levels": [1, 2], "degeneracies": [10**400, 1]}))
        assert run([argv[0], "--spectrum", str(spec), *argv[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        record = json.loads(captured.err)
        assert record["error"] == "ParseError"
        assert "beyond the float range" in record["message"]

    def test_degeneracy_beyond_int64_is_read_exactly(self, capsys, tmp_path):
        spec = tmp_path / "big.json"
        spec.write_text(json.dumps({"levels": [1, 2], "degeneracies": [10**30, 1]}))
        assert run(["means", "--spectrum", str(spec)]) == 0
        assert '"n": 1000000000000000000000000000001' in capsys.readouterr().out

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

    @pytest.mark.parametrize(
        "argv, code, error, message",
        [
            (["bounds", "--t-values", "0.1,x"], 2, "ParseError",
             "cannot parse float list '0.1,x'"),
            (["bounds", "--t-values", ","], 2, "ParseError",
             "float list ',' must hold one or more finite values"),
            (["bounds", "--t-values", "0.1,nan"], 2, "ParseError",
             "float list '0.1,nan' must hold one or more finite values"),
            # the harmonic solve at levels {1, 2, 3} + 1e6 misses its tolerance
            (["shift", "--energy", "1000001.5"], 1, "NumericalError",
             "shift solver did not converge within 200 iterations"),
        ],
        ids=["t-values-garbage", "t-values-empty", "t-values-nan", "shift-residual"],
    )
    def test_error_record(self, capsys, tmp_path, argv, code, error, message):
        path = tmp_path / "offset.json"
        path.write_text(json.dumps({"levels": [1e6 + 1, 1e6 + 2, 1e6 + 3]}))
        argv = [*argv, "--spectrum", str(path)]
        if argv[0] == "bounds":
            argv += ["--energy", "1000001.5"]
        assert run(argv) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        record = json.loads(captured.err, parse_constant=_reject_constant)
        assert record["error"] == error
        assert message in record["message"]
        if error == "NumericalError":
            assert set(record) == {"error", "message", "details"}
            assert math.isfinite(record["details"]["residual"]) and record["details"]["residual"]
        else:
            assert "details" not in record

    def test_unknown_subcommand_is_exit_2(self, capsys):
        assert run(["frobnicate"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "ParseError"
        assert "frobnicate" in err["message"]

    @pytest.mark.parametrize(
        "argv, word",
        [
            (["bounds", "--spectrum", "small", "--energy", "1.5", "--lipschitz", "0",
              "--out-dir", "out"], "--lipschitz"),
            (["means", "--spectrum", "small", "--levels", "1"], "--levels"),
            (["verify", "--experiment", "moments", "--spectrum", "small", "--energy", "1.5",
              "--count", "x", "--out-dir", "out"], "--count"),
            (["sample", "--mode", "bad", "--spectrum", "small", "--out", "out/x.csv"], "--mode"),
            (["verify", "--experiment", "energy", "--out-dir", "out"], "--experiment"),
            (["shift", "--spectrum", "small"], "--energy"),
            (["spins", "--m", "4", "--alpha", "0.3", "--gamma", "0.4", "--count", "10",
              "--seed", "1", "--workers", "2", "--out-dir", "out"], "--workers"),
        ],
        ids=["bounds-lipschitz", "unknown-flag", "count-not-int", "bad-mode",
             "bad-experiment", "missing-required", "spins-workers"],
    )
    def test_usage_error_is_json_exit_2(self, capsys, tmp_path, small_spectrum_file,
                                        argv, word):
        files = {"small": small_spectrum_file, "out": str(tmp_path / "out"),
                 "out/x.csv": str(tmp_path / "out" / "x.csv")}
        assert run([files.get(arg, arg) for arg in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "ParseError"
        assert word in err["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", list(_OPTIONS))
    def test_help_exits_0(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            run([command, "--help"])
        assert exc.value.code == 0
        usage = capsys.readouterr().out.split("\n\n")[0]
        assert set(re.findall(r"--[a-z][a-z-]*", usage)) == _OPTIONS[command]


class TestNonFiniteInputs:
    """NaN and infinite energies, epsilons and shell widths, NaN, negative or
    infinite solver tolerances and negative deviations fail with a
    DomainError before any work they would spoil: the named work, or, where
    none is named, the shift solver's root finder."""

    @staticmethod
    def _forbid(monkeypatch, target):
        def forbidden(*args, **kwargs):
            raise AssertionError(f"{target} ran")

        monkeypatch.setattr(target, forbidden)

    @pytest.mark.parametrize(
        "argv, forbidden",
        [
            (["bounds", "--spectrum", "big", "--energy", "nan"], None),
            (["bounds", "--spectrum", "big", "--energy", "inf", "--epsilon", "2"], None),
            (["canonical", "--bipartite", "bip", "--energy", "nan", "--epsilon", "2"], None),
            (["shift", "--spectrum", "big", "--epsilon", "2", "--energy", "nan"], None),
            (["shift", "--spectrum", "big", "--epsilon", "2", "--energy", "inf"], None),
            (["shift", "--spectrum", "big", "--epsilon", "2", "--energy=-inf"], None),
            (["shift", "--spectrum", "big", "--epsilon", "nan", "--energy", "1.5"], None),
            # an all-equal spectrum never reaches the root finder; it used to
            # print a null shift and exit 0
            (["shift", "--spectrum", "flat", "--epsilon", "inf", "--energy", "2.5"], None),
            (["verify", "--experiment", "tail", "--spectrum", "small", "--energy", "1.5",
              "--epsilon", "nan", "--count", "10", "--seed", "1"], None),
            (["sample", "--mode", "oracle", "--spectrum", "small", "--energy", "1.5",
              "--eta", "nan", "--count", "5", "--seed", "1"], "mee.sampling._map_ordered"),
            # no residual meets a negative or NaN tolerance: 200 iterations
            # and a NumericalError
            (["shift", "--spectrum", "s123", "--energy", "1.5", "--tol", "-1"], None),
            (["shift", "--spectrum", "s123", "--energy", "1.5", "--epsilon", "2",
              "--tol", "nan"], None),
            # every residual meets an infinite one: exit 0 with a wrong shift
            (["shift", "--spectrum", "s123", "--energy", "1.5", "--tol", "inf"], None),
            # a negative t fails in the bound, after the constants' solve, before any draw
            (["verify", "--experiment", "tail", "--spectrum", "small", "--energy", "1.5",
              "--count", "10", "--seed", "1", "--t-values=-0.1,0.2", "--out-dir", "out"],
             "mee.experiments._gaussian_stream"),
            # nan and -1 would fail every sigmas check, inf pass every one
            *[(["verify", "--experiment", "moments", "--spectrum", "small", "--energy", "1.5",
                "--count", "10", "--seed", "1", "--tolerance-sigmas", sigmas,
                "--out-dir", "out"], "mee.experiments._gaussian_stream")
              for sigmas in ("nan", "inf", "0", "-1")],
            # a dimension no float holds overflows the multiplier
            (["shift", "--spectrum", "big", "--energy", "1.5", "--epsilon", "2",
              "--dim", str(10**400)], None),
            (["bounds", "--spectrum", "big", "--energy", "1.5", "--dim", str(10**400)], None),
            (["bounds", "--spectrum", "big", "--energy", "1.5", "--epsilon", "2",
              "--dim", str(10**400)], None),
        ],
        ids=["bounds-energy-nan", "bounds-energy-inf", "canonical-energy-nan",
             "shift-energy-nan", "shift-energy-inf", "shift-energy-minus-inf",
             "shift-epsilon-nan", "shift-epsilon-inf-all-equal", "verify-tail-epsilon-nan",
             "sample-oracle-eta-nan", "shift-tol-negative", "shift-epsilon-tol-nan",
             "shift-tol-inf", "verify-tail-negative-t", "moments-sigmas-nan",
             "moments-sigmas-inf", "moments-sigmas-0", "moments-sigmas-minus-1",
             "shift-huge-dim", "bounds-grid-huge-dim", "bounds-epsilon-huge-dim"],
    )
    def test_domain_error(self, capsys, monkeypatch, tmp_path, shift_roots, spectrum_file,
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
        if forbidden is None:
            assert shift_roots == []


# Each run with its required flags, and the flags it does not read.
_UNREAD = {
    "verify-moments": (
        ["verify", "--experiment", "moments", "--spectrum", "small", "--energy", "1.5",
         "--count", "10", "--seed", "1", "--out-dir", "out"],
        ["--bipartite", "--epsilon", "--t-values", "--m", "--alpha", "--gamma", "--eta"],
    ),
    "verify-reduced-dm": (
        ["verify", "--experiment", "reduced-dm", "--bipartite", "bip", "--energy", "1.5",
         "--count", "10", "--seed", "1", "--out-dir", "out"],
        ["--spectrum", "--tolerance-sigmas", "--t-values", "--m", "--alpha", "--gamma",
         "--eta"],
    ),
    "verify-tail": (
        ["verify", "--experiment", "tail", "--spectrum", "small", "--energy", "1.5",
         "--count", "10", "--seed", "1", "--out-dir", "out"],
        ["--bipartite", "--tolerance-sigmas", "--m", "--alpha", "--gamma", "--eta"],
    ),
    "verify-spins": (
        ["verify", "--experiment", "spins", "--m", "4", "--alpha", "0.3", "--gamma", "0.4",
         "--count", "10", "--seed", "1", "--out-dir", "out"],
        ["--spectrum", "--bipartite", "--energy", "--epsilon", "--tolerance-sigmas",
         "--t-values"],
    ),
    "shift-harmonic": (["shift", "--spectrum", "small", "--energy", "1.5"], ["--dim"]),
    "bounds-epsilon": (
        ["bounds", "--spectrum", "small", "--energy", "1.5", "--epsilon", "2",
         "--out-dir", "out"],
        ["--epsilon-grid"],
    ),
    "sample-gaussian": (
        ["sample", "--mode", "gaussian", "--spectrum", "small", "--energy", "1.5",
         "--count", "5", "--seed", "1", "--out", "out/x.csv"],
        ["--eta", "--proposal", "--max-draws"],
    ),
    "sample-sphere": (
        ["sample", "--mode", "sphere", "--spectrum", "small", "--count", "5", "--seed", "1",
         "--out", "out/x.csv"],
        ["--energy", "--eta", "--proposal", "--max-draws"],
    ),
}
_FLAG_VALUES = {
    "--spectrum": "small", "--bipartite": "bip", "--energy": "1.5", "--epsilon": "2",
    "--tolerance-sigmas": "5", "--t-values": "0.1", "--m": "3", "--alpha": "0.3",
    "--gamma": "0.4", "--eta": "0.1", "--dim": "7", "--epsilon-grid": "1,3",
    "--proposal": "uniform", "--max-draws": "100",
}


@pytest.mark.parametrize(
    "case, flag",
    [(case, flag) for case, (_, flags) in _UNREAD.items() for flag in flags],
    ids=[f"{case}{flag}" for case, (_, flags) in _UNREAD.items() for flag in flags],
)
def test_unread_flag_is_exit_2(capsys, monkeypatch, tmp_path, shift_roots,
                               small_spectrum_file, bipartite_file, case, flag):
    for target in ("mee.sampling._map_ordered", "mee.experiments._map_ordered",
                   "mee.sampling._draw_batch"):
        TestNonFiniteInputs._forbid(monkeypatch, target)
    files = {"small": small_spectrum_file, "bip": bipartite_file,
             "out": str(tmp_path / "out"), "out/x.csv": str(tmp_path / "out" / "x.csv")}
    argv, _ = _UNREAD[case]
    argv = [files.get(arg, arg) for arg in [*argv, flag, _FLAG_VALUES[flag]]]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "ParseError"
    assert err["message"].endswith(f"does not read {flag}")
    assert shift_roots == []
    assert not (tmp_path / "out").exists()


_DRAW_CONFIG = {"command", "count", "seed", "stream"}
_T_VALUES = [0.1 * k for k in range(1, 21)]
_GRID = [0.5 * k for k in range(1, 17)]


@pytest.mark.parametrize(
    "argv, keys, defaults",
    [
        (["means", "--spectrum", "small"], {"command", "spectrum"}, {}),
        (_UNREAD["shift-harmonic"][0], {"command", "spectrum", "energy", "tol"},
         {"tol": 1e-12}),
        (["shift", "--spectrum", "small", "--energy", "1.5", "--epsilon", "2"],
         {"command", "spectrum", "energy", "epsilon", "dim", "tol"},
         {"dim": None, "tol": 1e-12}),
        (["bounds", "--spectrum", "small", "--energy", "1.5", "--out-dir", "out"],
         {"command", "spectrum", "energy", "epsilon_grid", "t_values", "dim"},
         {"epsilon_grid": _GRID, "t_values": _T_VALUES, "dim": None}),
        (_UNREAD["bounds-epsilon"][0],
         {"command", "spectrum", "energy", "epsilon", "t_values", "dim"},
         {"t_values": _T_VALUES, "dim": None}),
        (["canonical", "--bipartite", "bip", "--energy", "1.3", "--epsilon", "2",
          "--out-dir", "out"], {"command", "bipartite", "energy", "epsilon"}, {}),
        (["sample", "--mode", "sphere", "--spectrum", "small"],
         _DRAW_CONFIG | {"mode", "spectrum", "out"},
         {"count": 1000, "seed": 12345, "stream": 0, "out": None}),
        (_UNREAD["sample-gaussian"][0], _DRAW_CONFIG | {"mode", "spectrum", "energy", "out"},
         {"stream": 0}),
        (["sample", "--mode", "oracle", "--spectrum", "small", "--energy", "1.8",
          "--count", "5", "--seed", "1"],
         _DRAW_CONFIG | {"mode", "spectrum", "energy", "eta", "proposal", "max_draws", "out"},
         {"eta": None, "proposal": "uniform", "max_draws": None, "out": None}),
        (_UNREAD["verify-moments"][0],
         _DRAW_CONFIG | {"experiment", "spectrum", "energy", "tolerance_sigmas"},
         {"tolerance_sigmas": 5.0}),
        (_UNREAD["verify-reduced-dm"][0],
         _DRAW_CONFIG | {"experiment", "bipartite", "energy", "epsilon"}, {"epsilon": 2.0}),
        (_UNREAD["verify-tail"][0],
         _DRAW_CONFIG | {"experiment", "spectrum", "energy", "epsilon", "t_values"},
         {"epsilon": 2.0, "t_values": _T_VALUES}),
        (_UNREAD["verify-spins"][0], _DRAW_CONFIG | {"experiment", "m", "alpha", "gamma", "eta"},
         {"eta": None}),
        (["spins", "--m", "4", "--alpha", "0.3", "--gamma", "0.4", "--count", "10",
          "--seed", "1"], _DRAW_CONFIG | {"experiment", "m", "alpha", "gamma", "eta"},
         {"eta": None, "experiment": "spins"}),
    ],
    ids=["means", "shift-harmonic", "shift-epsilon", "bounds-grid", "bounds-epsilon",
         "canonical", "sample-sphere", "sample-gaussian", "sample-oracle", "moments",
         "reduced-dm", "tail", "spins", "spins-alias"],
)
def test_verify_config_echoes_the_flags_read(capsys, tmp_path, monkeypatch,
                                             small_spectrum_file, bipartite_file, argv,
                                             keys, defaults):
    """``config`` holds the command, the run's selector and every flag the
    run reads but --out-dir and --workers, absent ones at the value used."""
    monkeypatch.delenv("MEE_SEED", raising=False)
    files = {"small": small_spectrum_file, "bip": bipartite_file, "out": str(tmp_path / "out"),
             "out/x.csv": str(tmp_path / "out" / "x.csv")}
    code, record = run_json(capsys, [files.get(arg, arg) for arg in argv])
    assert code == 0
    assert set(record["config"]) == keys
    for key, value in defaults.items():
        assert record["config"][key] == value
    if "report" in record:
        assert "tolerance_sigmas" not in record["report"]["inputs"]


# Runs each named argv of the JSON object in argv[1] through mee.cli.run in
# this process, writing its stdout to out/<name>.stdout; exits 1 when one fails.
_RUN_EACH = """
import contextlib, json, sys
from mee.cli import run
for name, argv in json.loads(sys.argv[1]).items():
    with open(f"out/{name}.stdout", "w") as out, contextlib.redirect_stdout(out):
        if run(argv) != 0:
            sys.exit(1)
"""


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

    @pytest.mark.parametrize("case", ["spins", "tail", "moments-n1024", "tail-n1024",
                                      "reduced-dm-n900"])
    def test_report_bytes_at_any_worker_count(self, capsys, tmp_path, case):
        experiment = case.split("-n")[0]
        seed = "79" if case in ("spins", "tail") else "4"
        if case == "spins":  # the count is filled in the fourth of 15 chunks
            argv = ["--m", "8", "--alpha", "0.3", "--gamma", "0.4", "--count", "300"]
        elif case == "tail":  # two chunks of proposals
            spectrum = tmp_path / "n300.json"
            spectrum.write_text(json.dumps({"levels": [1.0, 2.0, 3.0], "degeneracies": [100] * 3}))
            argv = ["--spectrum", str(spectrum), "--energy", "1.5", "--count", "8000"]
        elif case == "reduced-dm-n900":  # chunks of 2330, 2330 and 340 states
            path = tmp_path / "bip.json"
            path.write_text(json.dumps({"levels_a": [1.0, 2.0, 3.0], "levels_b": [0.0] * 300}))
            argv = ["--bipartite", str(path), "--energy", "1.3", "--count", "5000"]
        else:
            # chunks of 2048 and 517 states
            path = tmp_path / "s1024.json"
            path.write_text(json.dumps({"levels": [1.0, 2.0, 3.0],
                                        "degeneracies": [342, 341, 341]}))
            argv = ["--spectrum", str(path), "--energy", "1.5", "--count", "2565"]
        outs = []
        for name, workers in (("w1", ["--workers", "1"]), ("w2", ["--workers", "2"]), ("wd", [])):
            out = tmp_path / name
            code = run(
                ["verify", "--experiment", experiment, *argv, "--seed", seed, *workers,
                 "--out-dir", str(out)]
            )
            capsys.readouterr()
            assert code == 0
            outs.append((out / "report.json").read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_bytes_do_not_depend_on_openblas(self, tmp_path):
        # OpenBLAS rounds a sum by its thread count and its kernel for the CPU;
        # no record may depend on either.  Each environment runs every command
        # in one fresh process, where the OpenBLAS settings take effect.
        rng = random.Random(8)
        inputs = {
            "large.json": {"levels": [rng.uniform(0.0, 10.0) for _ in range(20_000)],
                           "degeneracies": [rng.randint(1, 19) for _ in range(20_000)]},
            "s1024.json": {"levels": [1.0, 2.0, 3.0], "degeneracies": [342, 341, 341]},
            "s4096.json": {"levels": [1.0, 2.0, 3.0], "degeneracies": [1366, 1365, 1365]},
        }
        commands = {
            "means": ["means", "--spectrum", "large.json"],
            "bounds": ["bounds", "--spectrum", "large.json", "--energy", "3.5",
                       "--epsilon", "2", "--out-dir", "out/bounds"],
            "moments": ["verify", "--experiment", "moments", "--spectrum", "s1024.json",
                        "--energy", "1.5", "--count", "2565", "--seed", "4",
                        "--out-dir", "out/moments"],
            "spins": ["verify", "--experiment", "spins", "--m", "8", "--alpha", "0.3",
                      "--gamma", "0.4", "--count", "100", "--seed", "909",
                      "--out-dir", "out/spins"],
            "oracle": ["sample", "--mode", "oracle", "--proposal", "gaussian",
                       "--spectrum", "s4096.json", "--energy", "1.5", "--count", "20",
                       "--seed", "5", "--out", "out/oracle.csv"],
        }
        envs = {"threads-1": {"OPENBLAS_NUM_THREADS": "1"},
                "threads-2": {"OPENBLAS_NUM_THREADS": "2"}}
        if platform.machine().lower() in ("x86_64", "amd64"):
            envs["prescott"] = {"OPENBLAS_CORETYPE": "Prescott"}
        base = {k: v for k, v in os.environ.items()
                if not k.startswith(("OPENBLAS_", "GOTO_", "OMP_")) and k != "MEE_SEED"}
        base["PYTHONPATH"] = str(Path(mee.__file__).resolve().parents[1])
        outputs = {}
        for name, extra in envs.items():
            work = tmp_path / name
            (work / "out").mkdir(parents=True)
            for rel, obj in inputs.items():
                (work / rel).write_text(json.dumps(obj))
            proc = subprocess.run(
                [sys.executable, "-c", _RUN_EACH, json.dumps(commands)],
                cwd=work, env={**base, **extra}, capture_output=True, text=True, timeout=600,
            )
            assert proc.returncode == 0, proc.stderr
            out = work / "out"
            outputs[name] = {str(p.relative_to(out)): p.read_bytes()
                             for p in sorted(out.rglob("*")) if p.is_file()}
        first = outputs.pop("threads-1")
        assert {f"{name}.stdout" for name in commands} <= first.keys()
        assert "oracle.csv" in first and "moments/report.json" in first
        differ = {name: sorted(rel for rel in first.keys() | files.keys()
                               if files.get(rel) != first.get(rel))
                  for name, files in outputs.items()}
        assert not any(differ.values()), f"files that differ from threads-1: {differ}"

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


_BEYOND_SQUARES = {
    "bounds": ["bounds"],
    "verify-tail": ["verify", "--experiment", "tail", "--epsilon", "2", "--count", "10",
                    "--seed", "1"],
    "verify-moments": ["verify", "--experiment", "moments", "--count", "10", "--seed", "1"],
}


@pytest.mark.parametrize(
    "argv, unit",
    [
        *(pytest.param(argv, 1e200, id=name) for name, argv in _BEYOND_SQUARES.items()),
        # the shifts solve, and every 1/E'_k^2 overflows in the constants
        pytest.param(_BEYOND_SQUARES["bounds"], 1e-200, id="bounds-1e-200"),
        pytest.param(_BEYOND_SQUARES["verify-tail"], 1e-200, id="verify-tail-1e-200"),
        pytest.param(_BEYOND_SQUARES["verify-moments"], 1e-200, id="verify-moments-1e-200",
                     marks=pytest.mark.xfail(strict=True, reason=(
                         "E'^2/n underflows to 0 and the report fails after its draws "
                         "with a DomainError (ROADMAP item 9)"))),
    ],
)
def test_levels_beyond_the_squares_range_leave_one_record(capsys, recwarn, tmp_path, argv,
                                                          unit):
    # E'^2 and 1/E'_k^2 leave the float range: a NumericalError, not a traceback
    path = tmp_path / "levels.json"
    path.write_text(json.dumps({"levels": [unit, 2 * unit, 3 * unit]}))
    code = run([*argv, "--spectrum", str(path), "--energy", repr(1.5 * unit)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    record = json.loads(captured.err, parse_constant=_reject_constant)
    assert record["error"] == "NumericalError"
    assert "float range" in record["message"]
    assert not recwarn.list


@pytest.mark.parametrize("k", [155, 160])
def test_overflowing_reference_variance_leaves_one_record(capsys, recwarn, monkeypatch,
                                                           tmp_path, k):
    # the harmonic solve ends in a Newton step here, and E'^2/n overflows
    def forbidden(*args, **kwargs):
        raise AssertionError("_gaussian_stream ran")

    monkeypatch.setattr("mee.experiments._gaussian_stream", forbidden)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"levels": [float(f"{d}e{k}") for d in (1, 2, 3)]}))
    code = run(["verify", "--experiment", "moments", "--spectrum", str(path), "--energy",
                f"1.5e{k}", "--count", "10", "--seed", "1", "--out-dir", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    record = json.loads(captured.err, parse_constant=_reject_constant)
    assert record["error"] == "NumericalError"
    assert record["message"].startswith("the reference variance E'^2/n overflows")
    assert not recwarn.list
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds"],
        ["bounds", "--epsilon", "2"],
        ["verify", "--experiment", "tail", "--epsilon", "2", "--count", "10", "--seed", "1"],
    ],
    ids=["bounds", "bounds-epsilon", "verify-tail"],
)
def test_overflowing_constant_a_leaves_one_record(capsys, recwarn, tmp_path, argv):
    # E'_max^2 overflows in a alone: one NumericalError, not "a": null
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"levels": [1e157, 2e157, 3e157], "degeneracies": [2731] * 3}))
    code = run([*argv, "--spectrum", str(path), "--energy", "1.5e157",
                "--out-dir", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    record = json.loads(captured.err, parse_constant=_reject_constant)
    assert record["error"] == "NumericalError"
    assert record["message"].startswith("constant a is beyond the float range")
    assert not recwarn.list
    assert not (tmp_path / "out").exists()


def _scale_sweep_argv(name: str, tmp_path, unit: float) -> list[str]:
    """One run of the scale sweep, on {1, 2, 3}*unit with degeneracies 30 or on
    the bipartite {1, 2}*unit x ({0} * 20 + {unit})."""
    spectrum = tmp_path / "spectrum.json"
    spectrum.write_text(json.dumps({"levels": [unit, 2 * unit, 3 * unit],
                                    "degeneracies": [30] * 3}))
    bipartite = tmp_path / "bipartite.json"
    bipartite.write_text(json.dumps({"levels_a": [unit, 2 * unit],
                                     "levels_b": [0.0] * 20 + [unit]}))
    solve = ["--spectrum", str(spectrum), "--energy", repr(1.5 * unit)]
    pair = ["--bipartite", str(bipartite), "--energy", repr(1.3 * unit)]
    draw = ["--count", "10", "--seed", "1", "--workers", "1"]
    return {
        "means": ["means", "--spectrum", str(spectrum)],
        "shift": ["shift", *solve],
        "shift-epsilon": ["shift", *solve, "--epsilon", "3"],
        "bounds": ["bounds", *solve],
        "canonical": ["canonical", *pair, "--epsilon", "2"],
        "sample-gaussian": ["sample", "--mode", "gaussian", *solve, "--count", "5",
                            "--seed", "1"],
        "verify-moments": ["verify", "--experiment", "moments", *solve, *draw],
        "verify-tail": ["verify", "--experiment", "tail", *solve, *draw],
        "verify-reduced-dm": ["verify", "--experiment", "reduced-dm", *pair, *draw],
    }[name]


_SCALE_SWEEP = [
    pytest.param(name, k, id=f"{name}-2^-{k}", marks=pytest.mark.xfail(strict=True, reason=(
        "compute_means' sum of w/E_k^2 overflows with a RuntimeWarning below 2^-512 "
        "(ROADMAP item 9)")) if name == "means" and k > 512 else ())
    for name in ("means", "shift", "shift-epsilon", "bounds", "canonical", "sample-gaussian",
                 "verify-moments", "verify-tail", "verify-reduced-dm")
    for k in range(0, 1021, 60)
]


@pytest.mark.parametrize("name, k", _SCALE_SWEEP)
def test_spectra_at_any_scale_leave_one_record(capsys, recwarn, tmp_path, name, k):
    # the shift solver has no absolute floor: every shift solves down to 2^-1020,
    # and the other runs exit 0 or fail with one record where a sum leaves the
    # float range
    code = run(_scale_sweep_argv(name, tmp_path, 2.0 ** -k))
    captured = capsys.readouterr()
    assert code in (0, 1, 2)
    assert (captured.out if code else captured.err) == ""
    record = json.loads(captured.err if code else captured.out, parse_constant=_reject_constant)
    assert isinstance(record, dict)
    if name.startswith("shift"):
        assert code == 0
    assert not [w for w in recwarn.list if issubclass(w.category, RuntimeWarning)]


def test_module_entry_point(spectrum_file):
    proc = subprocess.run(
        [sys.executable, "-m", "mee", "means", "--spectrum", spectrum_file],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["means"]["n"] == 8193


def test_runs_in_one_process_match_runs_alone(capsys, small_spectrum_file):
    # the parser is built once per process and shared by every run in it
    runs = [
        ["shift", "--spectrum", small_spectrum_file, "--energy", "x"],
        ["bounds", "--spectrum", small_spectrum_file, "--energy", "1.5"],
        ["bounds", "--spectrum", small_spectrum_file, "--energy", "1.5", "--eta", "0.1"],
        ["means", "--spectrum", small_spectrum_file],
        ["verify", "--experiment", "moments", "--spectrum", small_spectrum_file,
         "--energy", "1.5", "--count", "300", "--seed", "3", "--workers", "1"],
    ]
    together = []
    for argv in runs:
        code = run(argv)
        captured = capsys.readouterr()
        together.append((code, captured.out.encode(), captured.err.encode()))
    assert build_parser() is build_parser()
    alone = []
    for argv in runs:
        proc = subprocess.run([sys.executable, "-m", "mee", *argv], capture_output=True)
        alone.append((proc.returncode, proc.stdout, proc.stderr))
    assert [code for code, _, _ in together] == [2, 0, 2, 0, 0]
    assert together == alone
