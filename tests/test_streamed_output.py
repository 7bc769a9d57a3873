"""The CLI writes a result's JSON a chunk at a time: the same text as
``to_json_text`` plus a newline, checked before anything is written, and
never held whole in memory."""

import argparse
import tracemalloc

import numpy as np
import pytest

from qmarkov import Counts, Distribution, FidelityReport, ValidationError, cli
from qmarkov.analysis import _CHUNK, json_pieces, to_json_text

# Empty, one entry, and chunk edges: the first, two whole chunks, four
# chunks in, and eight whole chunks.
SIZES = [0, 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK, 4 * _CHUNK, 4 * _CHUNK + 1, 8 * _CHUNK]
WIDTH = 17


def distribution(size: int, seed: int = 0) -> Distribution:
    rng = np.random.default_rng(seed)
    support = np.sort(rng.choice(1 << WIDTH, size=size, replace=False))
    pool = np.array([0.0, -0.0, 5e-324, 1.0, *rng.random(500).tolist()])
    return Distribution(WIDTH, support, rng.choice(pool, size=size))


def counts(size: int) -> Counts:
    base = distribution(size, 1)
    tallies = np.random.default_rng(2).choice(np.array([0, 1, 7, 2**63 - 1]), size=size)
    return Counts(WIDTH, base.support, tallies, 12345)


def report(size: int) -> FidelityReport:
    return FidelityReport(0.125, distribution(size, 3), 0, 8192)


def written(capsys, tmp_path, argv) -> str:
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    if "--out" in argv:
        assert out == ""
        return (tmp_path / "out.json").read_text(encoding="utf-8")
    return out


@pytest.mark.parametrize("size", SIZES)
def test_run_and_oracle_write_the_text(capsys, tmp_path, monkeypatch, chain_spec_file, size):
    spec, out = chain_spec_file(), str(tmp_path / "out.json")
    dist, tallies = distribution(size), counts(size)
    monkeypatch.setattr(cli, "probabilities", lambda state: dist)
    monkeypatch.setattr(cli, "enumerate_paths", lambda chain: dist)
    monkeypatch.setattr(cli, "sample_counts", lambda *args: tallies)
    for value, argv in [
        (dist, ["run", "--spec", spec]),
        (dist, ["run", "--spec", spec, "--out", out]),
        (dist, ["oracle", "--spec", spec]),
        (dist, ["oracle", "--spec", spec, "--out", out]),
        (tallies, ["run", "--spec", spec, "--shots", "--seed", "1"]),
        (tallies, ["run", "--spec", spec, "--shots", "--seed", "1", "--out", out]),
    ]:
        assert written(capsys, tmp_path, argv) == to_json_text(value) + "\n", argv


@pytest.mark.parametrize("size", SIZES)
def test_fidelity_writes_the_text(capsys, tmp_path, monkeypatch, size):
    path = tmp_path / "one.json"
    path.write_text('{"0": 1.0}\n', encoding="utf-8")
    value = report(size)
    monkeypatch.setattr(cli, "compare_runs", lambda *args, **kwargs: value)
    text = written(capsys, tmp_path, ["fidelity", str(path), str(path)])
    assert text == to_json_text(value) + "\n"


@pytest.mark.parametrize("size", [0, 1, _CHUNK, _CHUNK + 1, 4 * _CHUNK, 4 * _CHUNK + 1])
def test_one_piece_per_chunk(size):
    pieces = list(json_pieces(counts(size)))
    assert pieces[0] == '{"shots": 12345, "counts": ' + ("{}}" if not size else "{")
    assert len(pieces) == (1 if not size else 2 + -(-size // _CHUNK))
    assert all(piece.count('": ') <= _CHUNK for piece in pieces)


@pytest.mark.parametrize(("value", "error"), [
    (Distribution(2, np.array([0, 3]), np.array([0.5, np.nan])), ValidationError),
    (FidelityReport(float("nan"), Distribution(1, np.array([0]), np.array([0.5])), 0, 0),
     ValidationError),
    (FidelityReport(0.5, Distribution(1, np.array([0]), np.array([np.inf])), 0, 0),
     ValidationError),
    (object(), TypeError),
], ids=["nan-distribution", "nan-distance", "inf-diff", "no-json-form"])
def test_refused_result_leaves_the_file(tmp_path, value, error):
    out = tmp_path / "out.json"
    out.write_bytes(b'{"0": 1.0}\n')
    with pytest.raises(error):
        cli._emit(value, argparse.Namespace(bit_order="time", out=str(out)))
    assert out.read_bytes() == b'{"0": 1.0}\n'


def test_refused_run_leaves_the_file(capsys, tmp_path, monkeypatch, chain_spec_file):
    out = tmp_path / "out.json"
    out.write_bytes(b"kept\n")
    bad = Distribution(3, np.array([0, 7]), np.array([np.inf, 0.5]))
    monkeypatch.setattr(cli, "probabilities", lambda state: bad)
    assert cli.main(["run", "--spec", chain_spec_file(), "--out", str(out)]) == 2
    assert "non-finite" in capsys.readouterr().err
    assert out.read_bytes() == b"kept\n"


def test_no_whole_file_text(tmp_path):
    # Writing holds a chunk's text at a time, so the traced peak stays under
    # 0.75 times the file (it reads 0.58x).  Grouping the 2**18 values takes
    # most of that, a hash table of two int32 slots per value (int64 slots
    # made it 0.95x); whole-file text adds at least the file again, and the
    # writer that joined the text peaked at 2.6x.
    width = 18
    rng = np.random.default_rng(18)
    probs = rng.choice(rng.random(4096), size=1 << width)
    dist = Distribution(width, np.arange(1 << width), probs)
    out = tmp_path / "out.json"
    tracemalloc.start()
    try:
        cli._emit(dist, argparse.Namespace(bit_order="time", out=str(out)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.read_text(encoding="utf-8") == to_json_text(dist) + "\n"
    assert peak < 0.75 * out.stat().st_size
