"""The CLI writes a result's JSON a chunk at a time: the same text as
``to_json_text`` plus a newline, checked before anything is written, and
never held whole in memory."""

import argparse
import builtins
import contextlib
import os
import stat
import tracemalloc
import weakref

import numpy as np
import pytest

from qmarkov import Counts, Distribution, FidelityReport, ValidationError, analysis, cli
from qmarkov.analysis import _BATCH, _CHUNK, json_pieces, to_json_text

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
    # --out is overwritten in place and cut at the new text's end: a longer
    # old file keeps no tail.  /dev/null takes the text and is not cut.
    spec, out = chain_spec_file(), str(tmp_path / "out.json")
    dist, tallies = distribution(size), counts(size)
    monkeypatch.setattr(cli, "probabilities", lambda state, out: dist)
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
        text = to_json_text(value) + "\n"
        if "--out" in argv:
            (tmp_path / "out.json").write_text("old " * (len(text) // 4 + 3), encoding="utf-8")
        assert written(capsys, tmp_path, argv) == text, argv
        assert cli.main([*argv, "--out", os.devnull]) == 0
        assert capsys.readouterr().out == ""


def test_rewrite_keeps_links_and_mode(tmp_path, chain_spec_file):
    # The file is written in place, not replaced: a symlink stays a link to
    # the same file, a hard link sees the new text, and the mode is kept.
    target, link, alias = tmp_path / "target.json", tmp_path / "link.json", tmp_path / "alias.json"
    target.write_text("x" * 4096, encoding="utf-8")
    target.chmod(0o600)
    os.link(target, alias)
    link.symlink_to(target)
    assert cli.main(["oracle", "--spec", chain_spec_file(), "--out", str(link)]) == 0
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_text(encoding="utf-8") == alias.read_text(encoding="utf-8") == (
        '{"000": 0.5, "100": 0.25, "110": 0.125, "111": 0.125}\n')
    assert stat.S_IMODE(target.stat().st_mode) == 0o600


def test_failed_write_leaves_a_prefix(capsys, tmp_path, monkeypatch, chain_spec_file):
    # A write that fails after its first piece exits 2; the file holds the
    # pieces written so far and none of the longer old file's tail.
    spec, out = chain_spec_file(steps=14, p00=0.5, p01=0.5), tmp_path / "out.json"
    assert cli.main(["run", "--spec", spec, "--out", str(out)]) == 0
    whole = out.read_text(encoding="utf-8")
    out.write_text(whole + "old tail " * 1000, encoding="utf-8")
    first = []

    def failing(value):
        pieces = json_pieces(value)
        first.append(next(pieces))
        yield first[0]
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "json_pieces", failing)
    assert cli.main(["run", "--spec", spec, "--out", str(out)]) == 2
    assert "No space left on device" in capsys.readouterr().err
    assert out.read_text(encoding="utf-8") == first[0]
    assert len(first[0]) < len(whole) and whole.startswith(first[0])


def test_out_never_opened_with_truncation(tmp_path, monkeypatch, chain_spec_file):
    # An O_TRUNC open of a file that was truncated and closed before waits
    # for its writeback on ext4, so no open of --out may truncate.
    spec, out = chain_spec_file(), str(tmp_path / "out.json")
    opened = []
    os_open, io_open = os.open, builtins.open

    def os_spy(path, flags, *args, **kwargs):
        opened.append((os.fspath(path), flags))
        return os_open(path, flags, *args, **kwargs)

    def io_spy(file, mode="r", *args, **kwargs):
        if not isinstance(file, int):
            opened.append((os.fspath(file), os.O_TRUNC if "w" in mode else 0))
        return io_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(os, "open", os_spy)
    monkeypatch.setattr(builtins, "open", io_spy)
    for argv in (["run", "--spec", spec], ["oracle", "--spec", spec],
                 ["run", "--spec", spec, "--shots", "--seed", "1"]):
        for _ in range(3):
            assert cli.main([*argv, "--out", out]) == 0
    flags = [flag for path, flag in opened if path == out]
    assert len(flags) == 9
    assert not any(flag & os.O_TRUNC for flag in flags)


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
    monkeypatch.setattr(cli, "probabilities", lambda state, out: bad)
    assert cli.main(["run", "--spec", chain_spec_file(), "--out", str(out)]) == 2
    assert "non-finite" in capsys.readouterr().err
    assert out.read_bytes() == b"kept\n"


def test_no_whole_file_text(tmp_path):
    # Writing holds a chunk's text at a time, so the traced peak stays under
    # 0.75 times the file (it reads 0.30x).  A batch's grouping takes most
    # of that (grouping all 2**18 values at once made it 0.58x, and with
    # int64 slots 0.95x); whole-file text adds at least the file again, and
    # the writer that joined the text peaked at 2.6x.
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


def test_exact_run_writes_without_the_state(tmp_path, monkeypatch, chain_spec_file):
    # An exact run drops its state once the probabilities are taken, so the
    # writer's grouping does not stack on the state's memory: when
    # json_pieces is entered at n = 18, neither the state nor its 4 MiB of
    # amplitudes is alive.
    refs, alive = [], []
    execute, pieces = cli.execute, cli.json_pieces

    def traced_execute(*args, **kwargs):
        state = execute(*args, **kwargs)
        refs.extend((weakref.ref(state), weakref.ref(state.amplitudes)))
        return state

    def traced_pieces(result):
        alive.append([ref() is not None for ref in refs])
        return pieces(result)

    monkeypatch.setattr(cli, "execute", traced_execute)
    monkeypatch.setattr(cli, "json_pieces", traced_pieces)
    spec = chain_spec_file(steps=18, p0=0.3, p00=0.6, p01=0.4, p10=0.25, p11=0.75)
    assert cli.main(["run", "--spec", spec, "--out", str(tmp_path / "q.json")]) == 0
    assert alive == [[False, False]]


def entry_by_entry(dist) -> str:
    """The map's text formatted one entry at a time: ``%d`` for tallies,
    else ``%.17g``."""
    fmt = "%d" if dist.probs.dtype.kind == "i" else "%.17g"
    return "{" + ", ".join(f'"{i:0{dist.width}b}": {fmt % v}'
                           for i, v in zip(dist.support.tolist(), dist.probs.tolist())) + "}"


def repeated_values(size, integral, seed):
    """``size`` values drawn from one pool, so batches repeat each other's
    values, with -0.0 beside 0.0 (tallies: 0 beside 2**63 - 1); the first
    and last values occur nowhere else."""
    rng = np.random.default_rng(seed)
    if integral:
        pool = np.array([0, 1, 7, 2**63 - 1, *rng.integers(2, 10**12, 300)])
        ends = [123456789012345, 98765]
    else:
        pool = np.array([0.0, -0.0, 5e-324, 1.0, *rng.random(300).tolist()])
        ends = [0.123456789, 1e-300]
    values = rng.choice(pool, size)
    values[[0, -1]] = ends
    return values


@pytest.mark.parametrize("integral", [False, True], ids=["floats", "tallies"])
@pytest.mark.parametrize("size", [_BATCH - 1, _BATCH, _BATCH + 1, 2 * _BATCH + 1])
def test_batch_edges(size, integral):
    # Values are formatted a batch at a time, each batch's distinct values
    # on their own, though later batches repeat them: the text is still that
    # of every entry formatted on its own.
    width = 18
    support = np.sort(np.random.default_rng(size).choice(1 << width, size, replace=False))
    values = repeated_values(size, integral, size)
    result = (Counts(width, support, values, 1) if integral
              else Distribution(width, support, values))
    assert "".join(analysis._distribution_pieces(result)) == entry_by_entry(result)


@pytest.mark.parametrize("integral", [False, True], ids=["floats", "tallies"])
def test_writer_hash_ties_resolved_exactly(monkeypatch, integral):
    # With every grouping multiplier 0 all values hash to one slot, so each
    # round settles one group and only the exact compare tells values
    # apart.  In batches of 64, each _formatted call gets distinct bit
    # patterns, and the calls together format every distinct one.
    monkeypatch.setattr(analysis, "_GROUP_ROUNDS", (np.uint64(0),) * 3)
    monkeypatch.setattr(analysis, "_BATCH", 64)
    formatted = []
    fmt = analysis._formatted

    def counting(values, spec):
        formatted.append(values.view(np.uint64).tolist())
        return fmt(values, spec)

    monkeypatch.setattr(analysis, "_formatted", counting)
    values = repeated_values(1000, integral, 7)
    result = Distribution(10, np.arange(1000), values)
    assert to_json_text(result) == entry_by_entry(result)
    assert all(len(set(bits)) == len(bits) for bits in formatted)
    assert set().union(*formatted) == set(values.view(np.uint64).tolist())


def traced_write_peak(dist, out):
    """The traced peak of ``cli._emit`` writing ``dist`` to ``out``."""
    tracemalloc.start()
    try:
        cli._emit(dist, argparse.Namespace(bit_order="time", out=str(out)))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_writer_memory_bounded_by_a_batch(tmp_path):
    # Grouping and formatting run a batch at a time, so writing holds the
    # result plus a batch's grouping and a chunk's records, whatever the
    # size of the map: about 51 bytes per batch entry at 4 and 8 batches,
    # where grouping the whole map at once took 100 bytes per batch entry
    # at 4 batches and twice that at 8.  A map of all-distinct values
    # formats every value of a batch, so its peak is higher, but it does not
    # grow from 2**18 entries to 2**19 (a cache of every value formatted so
    # far grew it by 20 MB).
    rng = np.random.default_rng(18)
    pool = rng.random(4096)
    out = tmp_path / "out.json"
    for width in (18, 19):
        dist = Distribution(width, np.arange(1 << width), rng.choice(pool, size=1 << width))
        assert traced_write_peak(dist, out) <= 64 * _BATCH, width
    assert out.read_text(encoding="utf-8") == to_json_text(dist) + "\n"
    peaks = []
    for width in (18, 19):
        probs = rng.random(1 << width)
        dist = Distribution(width, np.arange(1 << width), probs / probs.sum())
        peaks.append(traced_write_peak(dist, out))
    assert peaks[1] - peaks[0] <= 64 << 10, peaks
    assert out.read_text(encoding="utf-8") == to_json_text(dist) + "\n"


@pytest.mark.parametrize(("command", "batch_bytes"), [("run", 16), ("oracle", 16), ("fidelity", 64)])
def test_verification_memory_at_n18(tmp_path, chain_spec_file, command, batch_bytes):
    # Each verification call holds its result arrays plus a batch: at
    # n = 18 an exact run holds its 4 MiB state and the 4 MiB support and
    # values taken from it (|a|^2 goes in the state's own memory), and
    # fidelity holds the first file's 4 MiB of arrays, the second's values
    # (its keys are the first's) and their 2 MiB of differences.  Reading a
    # file adds a batch of tokens and their grouping, about 45 bytes per
    # batch entry over 32 bytes an entry.  The writer's grouping of all
    # 2**18 values made each call 41-51 bytes an entry.
    spec = chain_spec_file(steps=18, p0=0.3, p00=0.6, p01=0.4, p10=0.25, p11=0.75)
    q, o = str(tmp_path / "q.json"), str(tmp_path / "o.json")
    argv = {"run": ["run", "--spec", spec, "--out", q],
            "oracle": ["oracle", "--spec", spec, "--out", o],
            "fidelity": ["fidelity", q, o]}
    for call in ("run", "oracle"):  # the inputs, and lazy imports on first use
        assert cli.main(argv[call]) == 0
    with open(os.devnull, "w", encoding="utf-8") as sink, contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            assert cli.main(argv[command]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= (32 << 18) + batch_bytes * _BATCH
