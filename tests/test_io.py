"""The CSV writer: the same bytes at any part count, serial under the split
threshold, and clean failure when a forked part fails."""
import json
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

import mee.io
from mee.cli import run
from mee.io import SPLIT_CELLS, load_spectrum, write_csv
from mee.sampling import RngSpec, oracle_manifold_sample

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")


def serial_bytes(header, table) -> bytes:
    """The CSV format written out: CRLF lines of repr cells."""
    lines = [",".join(header)] + [",".join(map(repr, row)) for row in table.tolist()]
    return "".join(line + "\r\n" for line in lines).encode()


def weighted_table(rows: int = 601, dim: int = 60, seed: int = 3):
    """An odd number of rows of interleaved amplitudes plus a weight column,
    above the split threshold, with the cells whose repr is special."""
    rng = np.random.default_rng(seed)
    states = rng.standard_normal((rows, 2 * dim))
    states[0, :6] = [0.0, -0.0, 5e-324, 1e16, 0.1, -2.5e-8]
    table = np.column_stack((states, rng.exponential(size=rows)))
    header = [f"{part}{k}" for k in range(dim) for part in ("re", "im")] + ["weight"]
    assert table.size >= SPLIT_CELLS
    return header, table


@pytest.fixture
def forks(monkeypatch):
    """Pids of the children ``os.fork`` started, seen from this process."""
    pids = []
    real = os.fork

    def counted():
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


def no_children_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


@needs_fork
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_same_bytes_at_any_part_count(tmp_path, monkeypatch, forks, workers):
    monkeypatch.setattr(mee.io, "_default_workers", lambda: workers)
    header, table = weighted_table()
    out = tmp_path / "sub" / "t.csv"
    write_csv(out, header, table)
    assert out.read_bytes() == serial_bytes(header, table)
    assert len(forks) == workers - 1
    assert sorted(p.name for p in out.parent.iterdir()) == ["t.csv"]
    assert no_children_left()


@needs_fork
def test_weighted_oracle_dump_at_any_part_count(capsys, tmp_path, monkeypatch, forks):
    spec = tmp_path / "s60.json"
    spec.write_text(json.dumps({"levels": [1.0, 2.0, 3.0], "degeneracies": [20, 20, 20]}))
    batch = oracle_manifold_sample(load_spectrum(spec), 1.8, 0.05, 601, None, RngSpec(seed=4))
    header = [f"{part}{k}" for k in range(60) for part in ("re", "im")] + ["weight"]
    want = serial_bytes(header, np.column_stack((batch.states.view(np.float64), batch.weights)))
    for workers in (1, 2, 3):
        monkeypatch.setattr(mee.io, "_default_workers", lambda: workers)
        out = tmp_path / f"w{workers}.csv"
        code = run(["sample", "--spectrum", str(spec), "--energy", "1.8", "--mode", "oracle",
                    "--count", "601", "--eta", "0.05", "--seed", "4", "--out", str(out)])
        assert code == 0
        assert out.read_bytes() == want
    capsys.readouterr()
    assert len(forks) == 0 + 1 + 2


def test_small_table_never_forks(tmp_path, monkeypatch):
    def no_fork():
        raise AssertionError("forked for a table under the threshold")

    monkeypatch.setattr(os, "fork", no_fork, raising=False)
    monkeypatch.setattr(mee.io, "_default_workers", lambda: 3)
    table = np.random.default_rng(5).standard_normal((SPLIT_CELLS // 8 - 1, 8))
    out = tmp_path / "small.csv"
    write_csv(out, list("abcdefgh"), table)
    assert table.size < SPLIT_CELLS
    assert out.read_bytes() == serial_bytes(list("abcdefgh"), table)


def test_without_fork_writes_serially(tmp_path, monkeypatch):
    monkeypatch.delattr(os, "fork", raising=False)
    monkeypatch.setattr(mee.io, "_default_workers", lambda: 3)
    header, table = weighted_table()
    out = tmp_path / "t.csv"
    write_csv(out, header, table)
    assert out.read_bytes() == serial_bytes(header, table)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_pipe_output_never_forks(tmp_path, monkeypatch):
    def no_fork():
        raise AssertionError("forked for a pipe")

    monkeypatch.setattr(os, "fork", no_fork, raising=False)
    monkeypatch.setattr(mee.io, "_default_workers", lambda: 3)
    header, table = weighted_table()
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()))
    reader.start()
    write_csv(fifo, header, table)
    reader.join(timeout=60)
    assert received == [serial_bytes(header, table)]
    assert fifo.exists()


@needs_fork
@pytest.mark.parametrize("where", ["child", "parent"])
def test_failed_part_is_exit_2_and_leaves_nothing(capsys, tmp_path, monkeypatch, forks, where):
    parent = os.getpid()
    real = mee.io._format_rows

    def failing(fh, rows):
        if (os.getpid() != parent) == (where == "child"):
            raise OSError("No space left on device")
        real(fh, rows)

    monkeypatch.setattr(mee.io, "_format_rows", failing)
    monkeypatch.setattr(mee.io, "_default_workers", lambda: 3)
    spec = tmp_path / "s60.json"
    spec.write_text(json.dumps({"levels": [1.0, 2.0, 3.0], "degeneracies": [20, 20, 20]}))
    out_dir = tmp_path / "out"
    code = run(["sample", "--spectrum", str(spec), "--energy", "1.5", "--mode", "gaussian",
                "--count", "601", "--seed", "4", "--out", str(out_dir / "states.csv")])
    captured = capsys.readouterr()
    assert code == 2
    assert json.loads(captured.err)["error"] == "OSError"  # one record, nothing else
    assert captured.out == ""
    assert list(out_dir.iterdir()) == []
    assert len(forks) == 2
    assert no_children_left()


@needs_fork
def test_piped_stdout_holds_one_record(tmp_path):
    """A subprocess with its stdout on a pipe: the record is printed once,
    after the children have exited, and stderr stays empty."""
    spec = tmp_path / "s60.json"
    spec.write_text(json.dumps({"levels": [1.0, 2.0, 3.0], "degeneracies": [20, 20, 20]}))
    dumps = {}
    for workers in (1, 3):
        dumps[workers] = tmp_path / f"w{workers}.csv"
        # python -m mee with the CPU count pinned, so the parts do not depend on the host
        script = (
            "import runpy, mee.io; "
            f"mee.io._default_workers = lambda: {workers}; "
            "runpy.run_module('mee', run_name='__main__', alter_sys=True)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, "sample", "--spectrum", str(spec), "--energy", "1.5",
             "--mode", "gaussian", "--count", "601", "--seed", "4",
             "--out", str(dumps[workers])],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert proc.stdout.count('"command": "sample"') == 1
        assert json.loads(proc.stdout)["produced"] == 601
    assert dumps[1].read_bytes() == dumps[3].read_bytes()
