"""The CSV writer: every cell is its ``repr``, whatever notation orjson would
give it, and a failed write leaves one error record and no partial file."""
import json
import os
import subprocess
import sys
import threading

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import mee.io
from mee.cli import run
from mee.errors import ParseError
from mee.io import load_bipartite, load_spectrum, write_csv
from mee.sampling import RngSpec, oracle_manifold_sample

# the cells whose repr orjson writes in another notation (or as null), and
# the nearest ones it writes alike
SPECIAL = [
    0.0, -0.0, 5e-324, -5e-324, 1e-5, -1e-5, 1e-4,
    float(np.nextafter(1e-4, np.inf)), float(np.nextafter(1e-4, -np.inf)),
    9999999999999998.0, -9999999999999998.0, 1e16, -1e16, 1.7976931348623157e308,
    float("nan"), float("inf"), float("-inf"),
]


def serial_bytes(header, table) -> bytes:
    """The CSV format written out: CRLF lines of repr cells."""
    lines = [",".join(header)] + [",".join(map(repr, row)) for row in table.tolist()]
    return "".join(line + "\r\n" for line in lines).encode()


def check_written(tmp_path, table, name="t.csv") -> None:
    """Write ``table`` into a new subdirectory and compare with its repr bytes."""
    header = [f"c{k}" for k in range(table.shape[1])]
    out = tmp_path / "sub" / name
    write_csv(out, header, table)
    assert out.read_bytes() == serial_bytes(header, table)


def weighted_table(rows: int = 601, dim: int = 60, seed: int = 3):
    """An odd number of rows of interleaved amplitudes plus a weight column,
    with the special cells in its first rows."""
    rng = np.random.default_rng(seed)
    states = rng.standard_normal((rows, 2 * dim))
    states[0, : len(SPECIAL)] = SPECIAL
    states[mee.io._BLOCK_ROWS, -len(SPECIAL) :] = SPECIAL  # the second block's first row
    table = np.column_stack((states, rng.exponential(size=rows)))
    header = [f"{part}{k}" for k in range(dim) for part in ("re", "im")] + ["weight"]
    return header, table


def test_special_cells_are_their_repr(tmp_path):
    # every pair of special cells side by side, over more rows than a block
    grid = np.array([[a, b] for a in SPECIAL for b in SPECIAL])
    assert len(grid) > 2 * mee.io._BLOCK_ROWS
    check_written(tmp_path, grid)
    check_written(tmp_path, grid.reshape(-1, len(SPECIAL)), "wide.csv")
    check_written(tmp_path, np.array(SPECIAL)[:, None], "column.csv")


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (1, 1), (0, 0), (40, 0)])
def test_empty_and_single_cell_tables(tmp_path, shape):
    table = np.full(shape, 1e-5)
    check_written(tmp_path, table)


def test_large_table_is_its_repr(tmp_path):
    header, table = weighted_table()
    out = tmp_path / "t.csv"
    write_csv(out, header, table)
    assert out.read_bytes() == serial_bytes(header, table)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv"]


@settings(deadline=None, max_examples=200)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=40),
                  elements=st.floats()))
def test_any_float_table_is_its_repr(table):
    header = [f"c{k}" for k in range(table.shape[1])]
    lines = [mee.io._format_block(table[lo : lo + mee.io._BLOCK_ROWS])
             for lo in range(0, len(table), mee.io._BLOCK_ROWS)]
    assert (",".join(header) + "\r\n").encode() + b"".join(lines) == serial_bytes(header, table)


def test_orjson_writes_repr_digits_inside_the_plain_range():
    """About 10^6 doubles in [1e-4, 1e16), both signs, drawn as random bit
    patterns (so every binade and every digit count shows up) and as the
    neighbours of each power of ten: orjson's text is their repr.  This is
    what the writer's fast path rests on, so it guards an orjson upgrade."""
    rng = np.random.default_rng(27)
    lo, hi = np.array([1e-4, 1e16]).view(np.int64)
    bits = rng.integers(lo, hi, size=1_000_000, dtype=np.int64)
    powers = np.array([10.0 ** k for k in range(-4, 16)])
    near = np.concatenate([powers + k * np.spacing(powers) for k in range(-3, 4)])
    values = np.concatenate((bits.view(np.float64), near[(near >= 1e-4) & (near < 1e16)]))
    values[::2] *= -1.0
    text = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY)
    assert text == ("[" + ",".join(map(repr, values.tolist())) + "]").encode()


def test_weighted_oracle_dump_is_its_repr(capsys, tmp_path):
    spec = tmp_path / "s60.json"
    spec.write_text(json.dumps({"levels": [1.0, 2.0, 3.0], "degeneracies": [20, 20, 20]}))
    batch = oracle_manifold_sample(load_spectrum(spec), 1.8, 0.05, 601, None, RngSpec(seed=4))
    header = [f"{part}{k}" for k in range(60) for part in ("re", "im")] + ["weight"]
    want = serial_bytes(header, np.column_stack((batch.states.view(np.float64), batch.weights)))
    out = tmp_path / "states.csv"
    code = run(["sample", "--spectrum", str(spec), "--energy", "1.8", "--mode", "oracle",
                "--count", "601", "--eta", "0.05", "--seed", "4", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    assert out.read_bytes() == want


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_pipe_output_never_forks(tmp_path, monkeypatch):
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork, raising=False)
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


def _fail_on_second_block(monkeypatch):
    """Make the second block of rows fail as a full disk would, after the
    first block is written."""
    real = mee.io._format_block
    calls = []

    def failing(block):
        calls.append(len(block))
        if len(calls) == 2:
            raise OSError("No space left on device")
        return real(block)

    monkeypatch.setattr(mee.io, "_format_block", failing)
    return calls


class FailingClose:
    """A file whose closing fails after the bytes written so far reach it."""

    def __init__(self, fh):
        self.fh = fh

    def write(self, data):
        return self.fh.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()
        raise OSError("No space left on device")


@pytest.mark.parametrize("where", ["block", "close"])
def test_failed_write_is_exit_2_and_leaves_nothing(capsys, tmp_path, monkeypatch, where):
    if where == "block":
        calls = _fail_on_second_block(monkeypatch)
    else:  # the last bytes fail as the file is flushed and closed
        calls = []
        real_open = mee.io.Path.open

        def failing_open(self, *args, **kwargs):
            fh = real_open(self, *args, **kwargs)
            return FailingClose(fh) if self.name == "states.csv" else fh

        monkeypatch.setattr(mee.io.Path, "open", failing_open)
    spec = tmp_path / "s60.json"
    spec.write_text(json.dumps({"levels": [1.0, 2.0, 3.0], "degeneracies": [20, 20, 20]}))
    out_dir = tmp_path / "out"
    code = run(["sample", "--spectrum", str(spec), "--energy", "1.5", "--mode", "gaussian",
                "--count", "601", "--seed", "4", "--out", str(out_dir / "states.csv")])
    captured = capsys.readouterr()
    assert code == 2
    record = json.loads(captured.err)  # one record, nothing else
    assert record["error"] == "OSError"
    assert "No space left on device" in record["message"]
    assert captured.out == ""
    assert list(out_dir.iterdir()) == []
    assert calls in ([], [mee.io._BLOCK_ROWS] * 2)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_failed_write_to_a_pipe_never_unlinks_it(tmp_path, monkeypatch):
    _fail_on_second_block(monkeypatch)
    header, table = weighted_table()
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()))
    reader.start()
    with pytest.raises(OSError, match="No space left on device"):
        write_csv(fifo, header, table)
    reader.join(timeout=60)
    assert fifo.exists()
    # the header and the first block went through before the failure
    assert serial_bytes(header, table).startswith(received[0])
    assert received[0].count(b"\r\n") == 1 + mee.io._BLOCK_ROWS


def test_piped_stdout_holds_one_record(tmp_path):
    """A subprocess with its stdout on a pipe: the record is printed once,
    after the dump is written, and stderr stays empty."""
    spec = tmp_path / "s60.json"
    spec.write_text(json.dumps({"levels": [1.0, 2.0, 3.0], "degeneracies": [20, 20, 20]}))
    dump = tmp_path / "states.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "mee", "sample", "--spectrum", str(spec), "--energy", "1.5",
         "--mode", "gaussian", "--count", "601", "--seed", "4", "--out", str(dump)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout.count('"command": "sample"') == 1
    assert json.loads(proc.stdout)["produced"] == 601
    assert dump.read_bytes().count(b"\r\n") == 1 + 601


@pytest.mark.parametrize(
    "loader, obj, message",
    [
        (load_spectrum, [1.0, 2.0], "must contain a JSON object"),
        (load_bipartite, "levels_a", "must contain a JSON object"),
        (load_spectrum, {"degeneracies": [1, 1]}, "is missing the 'levels' key"),
        (load_bipartite, {"levels_a": [1.0]}, "is missing 'levels_a'/'levels_b'"),
        (load_bipartite, {"levels_b": [1.0]}, "is missing 'levels_a'/'levels_b'"),
    ],
    ids=["spectrum-list", "bipartite-string", "no-levels", "no-levels-b", "no-levels-a"],
)
def test_schema_errors(tmp_path, loader, obj, message):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(ParseError, match=message):
        loader(path)
