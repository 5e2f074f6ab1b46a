"""Tests of the benchmark's own machinery.

    python3 -m pytest bench -q
"""
import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import mee.cli as cli  # noqa: E402
import mee.io  # noqa: E402
from run import ANNOTATE, END_TO_END, PER_LAYER  # noqa: E402
from spans import Recorder, Span, self_times, union_length  # noqa: E402
from workloads import CheckFailed, check_report, check_states_csv  # noqa: E402


def _run_cli(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run(argv) == 0


@pytest.fixture
def spectrum(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"levels": [1.0, 2.0, 3.0], "degeneracies": [4, 4, 4]}))
    return path


# -- self time -------------------------------------------------------------


def test_union_merges_overlapping_and_clips_to_parent():
    assert union_length([(1, 4), (3, 6), (8, 9)], 0, 10) == pytest.approx(6.0)
    assert union_length([(-2, 1), (9, 12)], 0, 10) == pytest.approx(2.0)
    assert union_length([], 0, 10) == 0.0


def test_self_time_counts_overlapping_worker_children_once():
    spans = [
        Span(1, "experiments.moment_report_streamed", 0.0, 10.0, None, 0, 1),
        # two workers, overlapping in [3, 4]
        Span(2, "experiments.chunk", 1.0, 4.0, 1, 0, 2),
        Span(3, "experiments.chunk", 3.0, 6.0, 1, 0, 3),
        Span(4, "sampling.gaussian_chunk", 1.5, 3.5, 2, 0, 2),
        Span(5, "experiments.chunk", 8.0, 9.0, 1, 0, 2),
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 6.0)
    assert selfs[2] == pytest.approx(3.0 - 2.0)
    assert selfs[3] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(2.0)


# -- output checks ---------------------------------------------------------


def _states_csv(tmp_path, spectrum, count):
    out = tmp_path / "states.csv"
    _run_cli([
        "sample", "--spectrum", str(spectrum), "--energy", "1.5", "--mode", "gaussian",
        "--count", str(count), "--seed", "3", "--out", str(out),
    ])
    return out


def test_csv_check_accepts_the_written_file(tmp_path, spectrum):
    path = _states_csv(tmp_path, spectrum, 200)
    assert check_states_csv(path, 200, 12) == 200


@pytest.mark.parametrize("cut", ["mid_row", "last_row"])
def test_csv_check_rejects_a_truncated_file(tmp_path, spectrum, cut):
    path = _states_csv(tmp_path, spectrum, 200)
    text = path.read_text()
    if cut == "mid_row":
        text = text[: len(text) // 2]
    else:
        text = "".join(text.splitlines(keepends=True)[:-1])
    path.write_text(text)
    with pytest.raises(CheckFailed):
        check_states_csv(path, 200, 12)


def test_report_check_rejects_one_failed_identity(tmp_path, spectrum):
    out = tmp_path / "out"
    _run_cli([
        "verify", "--experiment", "moments", "--spectrum", str(spectrum), "--energy", "1.5",
        "--count", "4000", "--seed", "5", "--out-dir", str(out),
    ])
    path = out / "report.json"
    names = ("mean_norm_sq", "mean_shifted_energy", "var_shifted_energy", "var_norm_sq")
    check_report(path, names)
    record = json.loads(path.read_text())
    for m in record["report"]["measured"]:
        if m["name"] == "var_norm_sq":
            m["passed"] = False
    path.write_text(json.dumps(record))
    with pytest.raises(CheckFailed, match="var_norm_sq"):
        check_report(path, names)


# -- wrappers --------------------------------------------------------------


def _report_bytes(argv, out):
    _run_cli([*argv, "--out-dir", str(out)])
    return (out / "report.json").read_bytes()


@pytest.mark.parametrize("argv", [
    ["verify", "--experiment", "moments", "--energy", "1.5", "--count", "3000",
     "--workers", "2", "--seed", "11"],
    ["verify", "--experiment", "spins", "--m", "6", "--alpha", "0.3", "--gamma", "0.4",
     "--count", "30", "--seed", "11"],
])
def test_traced_op_writes_identical_report_bytes(tmp_path, spectrum, argv):
    if "moments" in argv:
        argv = [*argv, "--spectrum", str(spectrum)]
    original_load = mee.io.load_spectrum
    plain = _report_bytes(argv, tmp_path / "plain")
    rec = Recorder(ANNOTATE)
    with rec:
        assert cli.load_spectrum is not original_load
        rec.begin_op(1)
        traced = _report_bytes(argv, tmp_path / "traced")
    assert traced == plain
    assert cli.load_spectrum is original_load
    names = {s.name for s in rec.spans}
    assert "cli.run" in names and "sampling.gaussian_chunk" in names
    if "moments" in argv:
        (root,) = [s for s in rec.spans if s.name == "experiments.moment_report_streamed"]
        chunks = [s for s in rec.spans if s.name == "experiments.chunk"]
        assert chunks and all(s.parent == root.id for s in chunks)
    else:
        (oracle,) = [s for s in rec.spans if s.name == "sampling.oracle_manifold_sample"]
        assert oracle.info["accepted"] == 30 and 0 < oracle.info["accept_ratio"] < 1


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
