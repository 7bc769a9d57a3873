"""Reading result files: the array reader of ``to_json_text``'s layout and the
``json.load`` path give the same arrays, totals and errors for every file."""

import json
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from qmarkov import Counts, Distribution, analysis, cli, core
from qmarkov.analysis import _CHUNK, read_json_layout, to_json_text
from qmarkov.errors import CapacityError, ValidationError


def outcome(path, monkeypatch, array_path: bool):
    """What ``_load_result`` makes of ``path``: the result's arrays and the
    ``(width, index, values, total)`` of every validation, or the error."""
    seen = []
    validate = core.parse_bitstring_map

    def spy(mapping, what, *args, **kwargs):
        width, index, values, total = validate(mapping, what, *args, **kwargs)
        seen.append((what, width, index.tolist(), values.dtype.str, values.tobytes(),
                     type(total).__name__, repr(total)))
        return width, index, values, total

    with monkeypatch.context() as patch:
        patch.setattr(core, "parse_bitstring_map", spy)
        if not array_path:
            patch.setattr(cli, "read_json_layout", lambda path, support: None)
        try:
            result = cli._load_result(path)
        except (ValidationError, CapacityError) as exc:
            return type(exc).__name__, str(exc)
    return (type(result).__name__, result.width, result.support.tolist(), result.probs.dtype.str,
            result.probs.tobytes(), getattr(result, "shots", None), seen)


def assert_paths_agree(tmp_path, monkeypatch, text, accepted=None):
    path = tmp_path / "result.json"
    path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    if accepted is not None:
        assert (read_json_layout(path) is not None) == accepted
    assert outcome(path, monkeypatch, True) == outcome(path, monkeypatch, False)


widths = st.integers(1, 12) | st.sampled_from([20, 40, 63])
floats = (st.floats(0.0, 1.0) | st.floats(-1.0, 1e300) | st.sampled_from([5e-324, 1e-300, -0.0])
          | st.floats(min_value=0.0, allow_infinity=False).map(lambda x: x / 3))
tallies = st.integers(0, 10**6) | st.integers(-5, 2**63 - 1)


@st.composite
def supports(draw, max_size=40):
    width = draw(widths)
    keys = draw(st.lists(st.integers(0, 2**width - 1), min_size=1, max_size=max_size, unique=True))
    return width, np.array(sorted(keys), dtype=np.int64)


@st.composite
def distributions(draw):
    width, support = draw(supports())
    probs = np.array(draw(st.lists(floats, min_size=len(support), max_size=len(support))))
    with np.errstate(over="ignore"):
        total = probs.sum()
    if draw(st.booleans()) and 0 < total < np.inf and (probs >= 0).all():
        probs = probs / total  # mostly passes the sum check
    return Distribution(width, support, probs)


@st.composite
def counts(draw):
    width, support = draw(supports())
    values = np.array(draw(st.lists(tallies, min_size=len(support), max_size=len(support))))
    shots = sum(values.tolist()) + draw(st.sampled_from([0, 0, 0, 1, -1]))
    return Counts(width, support, values, shots)


def keyed(dist) -> list:
    return [[format(int(k), f"0{dist.width}b"), v] for k, v in zip(dist.support, dist.probs.tolist())]


@given(st.one_of(distributions(), counts()))
@example(Distribution(1, np.array([0, 1]), np.array([0.25, 0.75])))
@example(Counts(2, np.array([0, 3]), np.array([2, 6]), 8))
@example(Distribution(63, np.array([0, 2**63 - 1]), np.array([0.5, 0.5])))
@example(Distribution(1, np.array([1]), np.array([-2.2250738585072014e-308])))  # 24 bytes
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_canonical_text(tmp_path, monkeypatch, result):
    # Every probability map to_json_text writes is read as arrays, but ints
    # in it ("1", "0", "-0") are left to json.load, and so is every counts
    # object.
    text = to_json_text(result) + "\n"
    accepted = not isinstance(result, Counts) and all(
        set(format(v, ".17g")) & set(".e") for v in result.probs.tolist())
    assert_paths_agree(tmp_path, monkeypatch, text, accepted=accepted)


@given(st.one_of(distributions(), counts()), st.data())
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_json_dumps_variants(tmp_path, monkeypatch, result, data):
    # Other separators, indentation, key order, repeated keys and tokens
    # outside to_json_text's output (repr floats, ints in a probability map).
    entries = keyed(result)
    if not isinstance(result, Counts) and data.draw(st.booleans()):
        entries = [[k, int(v)] if float(v).is_integer() else [k, v] for k, v in entries]
    entries = data.draw(st.permutations(entries)) if data.draw(st.booleans()) else entries
    if data.draw(st.booleans()):
        entries = entries + [data.draw(st.sampled_from(entries))]
    body = "{" + ", ".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in entries) + "}"
    if data.draw(st.booleans()):
        body = json.dumps(dict(entries), indent=data.draw(st.sampled_from([None, 0, 1, 2])),
                          separators=data.draw(st.sampled_from([None, (",", ":"), (", ", ": ")])),
                          sort_keys=data.draw(st.booleans()))
    if isinstance(result, Counts):
        body = '{"shots": %d, "counts": %s}' % (result.shots, body)
    assert_paths_agree(tmp_path, monkeypatch, body + data.draw(st.sampled_from(["", "\n", " \r\n\t"])))


TOKENS = ["1E-5", "1e-5", "1e999", "-1e999", "-0.0", "0.0", "0", "1", "-0", "01", "1.", ".5",
          "+1.0", "1.0e+2", "1.0E-02", "NaN", "Infinity", "-Infinity", "0x1", "1_0",
          "0.1" + "0" * 30, "01.5", '"0.5"', "true", "null", "0.5\0", "0.\x005", "１.0",
          " 0.5", "0.5 ", "0.5\n", "[0.5]", '"a', "{}"]
JUNK = ["", "\n", "x", "}", ",", " ", "﻿", "\0"]


@given(st.lists(st.sampled_from(TOKENS) | floats.map(repr), min_size=1, max_size=6),
       st.sampled_from(["", "﻿", " ", "\n"]), st.sampled_from(JUNK),
       st.sampled_from([None, -1, 0, 1, 7]))
@example(["1E-5", "0.99999"], "", "", None)
@example(["1e999"], "", "\n", None)
@example(["-0.0", "1.0"], "", "", None)
@example(["0.5\0", "0.5"], "", "", None)
@example(["3", "5"], "", "", 8)
@example(["-3", "11"], "", "", 8)
@example(["3", "9" * 19], "", "", 8)
@example(["01", "1"], "", "", 2)
@example(["01.5", "0.5"], "", "", None)
@example(["true", "0.5"], "", "", None)  # JSON but not a number, with an "e" in it
@example([" 0.5", "0.5\n"], "", "", None)  # floats with whitespace around them
@example(["NaN", "0.5"], "", "", None)
@example(['"a', 'b"'], "", "", None)  # one string over two tokens
@example(["[0.5", "0.5]"], "", "", None)  # one array over two tokens
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_odd_tokens_and_junk(tmp_path, monkeypatch, tokens, head, tail, shots):
    width = max(len(tokens) - 1, 0).bit_length() or 1
    body = "{" + ", ".join(f'"{i:0{width}b}": {t}' for i, t in enumerate(tokens)) + "}"
    if shots is not None:
        body = '{"shots": %d, "counts": %s}' % (shots, body)
    assert_paths_agree(tmp_path, monkeypatch, head + body + tail)


# A canonical two-record map with one byte of each class replaced by NUL or
# "x": "{", a quote, a key bit, ":", the space after it, a token byte, the
# comma, the separator space, the second record's quote and key bit, and the
# last byte before "}".
TWO_RECORDS = '{"0": 0.25, "1": 0.75}'
SUBSTITUTED = [TWO_RECORDS[:at] + byte + TWO_RECORDS[at + 1 :]
               for at in (0, 1, 2, 3, 4, 5, 7, 10, 11, 12, 13, len(TWO_RECORDS) - 2)
               for byte in "\0x"]


@pytest.mark.parametrize(
    "text",
    [
        *SUBSTITUTED,
        '{"0": 0.5, "0": 0.5}',  # repeated key
        '{"1": 0.5, "0": 0.5}',  # unsorted keys
        '{"0": 0.5, "01": 0.5}',  # mixed widths
        '{"0": 0.5,"1": 0.5}',
        '{"0": 0.5,x"1": 0.5}',
        '{"0": 0.5,\n"1": 0.5}',
        '{"0": 0.5, "1": 0.5]',
        '{"shots": 2, "counts": {"0": 1, "1": 1}]',
        '{"0":0.5, "1": 0.5}',
        '{ "0": 0.5, "1": 0.5}',
        '{"0": 0.5, "1": 0.5} ',
        '{"0": 0.5, "1": 0.5}\n\n',
        '{"2": 0.5, "1": 0.5}',
        '{"' + "1" * 64 + '": 1.0}',
        '{"' + "1" * 63 + '": 1.0}',
        '{"": 1.0}',
        "{}",
        '{"shots": 0, "counts": {"0": 0}}',
        '{"shots": -2, "counts": {"0": 1, "1": 1}}',
        '{"shots": 3, "counts": {"0": 1, "1": 1}}',
        '{"shots": 2, "counts": {"0": 1, "1": 1.0}}',
        '{"shots": 2, "counts": {}}',
        '{"shots": 02, "counts": {"0": 1, "1": 1}}',
        '{"counts": {"0": 1, "1": 1}, "shots": 2}',
        '{"shots": 9223372036854775808, "counts": {"0": 9223372036854775807, "1": 1}}',
        '{"shots": 2, "counts": {"0": 1, "1": 1}, "x": 1}',
        '{"shots": 2, "counts": {"0": 1, "1": 1}}}',
        '{"0": 0.5, "1": -0.5}',
        '{"0": 0.25, "1": 0.25}',
        '{"0": 0.5, "1": 0.5}x',
        '[0.5, 0.5]',
        "",
    ],
)
def test_layout_edges(tmp_path, monkeypatch, text):
    assert_paths_agree(tmp_path, monkeypatch, text)


# The edges of the first chunk, and the same edges four chunks in.
@pytest.mark.parametrize("entries", [_CHUNK - 1, _CHUNK, _CHUNK + 1,
                                     4 * _CHUNK - 1, 4 * _CHUNK, 4 * _CHUNK + 1])
@pytest.mark.parametrize("kind", ["distribution", "counts"])
def test_chunk_edges(tmp_path, monkeypatch, entries, kind):
    # A probability map is read as arrays and a counts object declined;
    # either way _load_result gives back the arrays that were written.
    rng = np.random.default_rng(entries)
    support = np.sort(rng.choice(1 << 18, entries, replace=False))
    if kind == "counts":
        tallies = rng.integers(1, 1000, entries)
        result = Counts(18, support, tallies, int(tallies.sum()))
    else:
        probs = rng.random(entries) ** 4 + 1e-9
        result = Distribution(18, support, probs / probs.sum())
    text = to_json_text(result) + "\n"
    assert_paths_agree(tmp_path, monkeypatch, text, accepted=kind == "distribution")
    loaded = cli._load_result(tmp_path / "result.json")
    assert type(loaded) is type(result) and loaded.width == result.width
    assert getattr(loaded, "shots", None) == getattr(result, "shots", None)
    assert loaded.support.tobytes() == result.support.tobytes()
    assert loaded.probs.dtype == result.probs.dtype
    assert loaded.probs.tobytes() == result.probs.tobytes()


# Tokens of 3 to 24 bytes, so records differ in length and slice edges fall
# at every offset of some record.
SLICED = Distribution(4, np.array([0, 1, 2, 3, 5, 8, 13, 14, 15]), np.array(
    [0.5, 0.25, 0.125, 1e-300, -2.2250738585072014e-308, 0.0625, 1 / 3, 2 / 3, 0.03125]))


def assert_sliced_read(tmp_path, monkeypatch, text, slice_bytes, accepted):
    """Read with ``slice_bytes`` per slice: the array reader and ``json.load``
    agree, the file is accepted or declined as at the default slice size, and
    an accepted file gives the same arrays."""
    path = tmp_path / "result.json"
    path.write_text(text, encoding="utf-8")
    whole = read_json_layout(path)
    assert (whole is not None) == accepted
    with monkeypatch.context() as patch:
        patch.setattr(analysis, "_SLICE", slice_bytes)
        assert_paths_agree(tmp_path, monkeypatch, text, accepted=accepted)
        sliced = read_json_layout(path)
    if accepted:
        assert sliced.width == whole.width
        assert sliced.support.tobytes() == whole.support.tobytes()
        assert sliced.probs.tobytes() == whole.probs.tobytes()


@pytest.mark.parametrize("slice_bytes", [1, 2, 3, 5, 8, 13, 31, 32, 33, 64, 1 << 12])
def test_slice_edges(tmp_path, monkeypatch, slice_bytes):
    # One byte per slice puts an edge after every byte; the rest are shorter
    # and longer than one record, so edges land at shifting offsets.
    text = to_json_text(SLICED) + "\n"
    assert_sliced_read(tmp_path, monkeypatch, text, slice_bytes, accepted=True)


def test_comma_ends_a_slice(tmp_path, monkeypatch):
    # The first slice holds bytes 1 to slice_bytes, so a slice of c bytes
    # ends on the comma at c and the next slice opens with its space.
    text = to_json_text(SLICED)
    commas = [at for at, byte in enumerate(text) if byte == ","]
    assert len(commas) == len(SLICED.support) - 1
    for comma in commas:
        assert_sliced_read(tmp_path, monkeypatch, text, comma, accepted=True)
    no_space = text[: commas[3] + 1] + "\n" + text[commas[3] + 2 :]
    assert_sliced_read(tmp_path, monkeypatch, no_space, commas[3], accepted=False)


@pytest.mark.parametrize("text", ['{"1": 1.0}', '{"0": 0.5}\n', '{"' + "1" * 63 + '": 1.0}'])
def test_one_record(tmp_path, monkeypatch, text):
    for slice_bytes in range(1, len(text) + 2):
        assert_sliced_read(tmp_path, monkeypatch, text, slice_bytes, accepted=True)


@pytest.mark.parametrize("spaces", [63, 64, 65, 200])
def test_trailing_whitespace(tmp_path, monkeypatch, spaces):
    # The last 65 bytes are read before the slices: at most 64 bytes of
    # whitespace may follow the closing brace.
    text = to_json_text(SLICED) + " \n" * (spaces // 2) + " " * (spaces % 2)
    for slice_bytes in (1, 7, 1 << 12):
        assert_sliced_read(tmp_path, monkeypatch, text, slice_bytes, accepted=spaces <= 64)


@pytest.mark.parametrize("slice_bytes", [1, 7, 30, 1 << 12])
@pytest.mark.parametrize("long", ["0." + "1" * 40, "0.5" + " " * 40, "0." + "1" * 23])
def test_record_longer_than_the_layout(tmp_path, monkeypatch, slice_bytes, long):
    # A token over 24 bytes is declined whether it ends in the slice or is
    # carried over more than one record's bytes; the 25-byte token is one
    # over the limit, and the padded one is JSON that json.load reads.
    text = to_json_text(SLICED)
    first, rest = text.split(",", 1)
    text = first[: first.index(":") + 2] + long + "," + rest
    assert_sliced_read(tmp_path, monkeypatch, text, slice_bytes, accepted=False)


@pytest.mark.parametrize("slice_bytes", [1, 7, 30, 1 << 12])
def test_more_records_than_keys(tmp_path, monkeypatch, capsys, slice_bytes):
    # Strictly increasing 4-bit keys allow at most 16 records, and the
    # reader's arrays hold that many: a full map is read, and a 17th record
    # is declined as soon as its slice is read.  fidelity then reports what
    # json.load makes of the repeated key.
    full = to_json_text(Distribution(4, np.arange(16), np.full(16, 1 / 16)))
    assert_sliced_read(tmp_path, monkeypatch, full, slice_bytes, accepted=True)
    over = full[:-1] + ', "1111": 0.0}\n'
    assert_sliced_read(tmp_path, monkeypatch, over, slice_bytes, accepted=False)
    path = str(tmp_path / "result.json")
    with monkeypatch.context() as patch:
        patch.setattr(analysis, "_SLICE", slice_bytes)
        assert cli.main(["fidelity", path, path]) == 2
    assert capsys.readouterr().err == f"error: {path} sums to 0.9375, expected 1 within 1e-09\n"


def test_reader_memory(tmp_path):
    # The file is read through one slice buffer, so the traced peak is the
    # token rows, keys and grouping: under 2.5 times the file (a whole-file
    # buffer made it 3.2x).  The result holds 16 bytes per entry, and nothing
    # sized by the file outlives the call.
    width = 18
    rng = np.random.default_rng(18)
    probs = rng.choice(rng.random(6000), size=1 << width)
    path = tmp_path / "big.json"
    path.write_text(to_json_text(Distribution(width, np.arange(1 << width), probs / probs.sum())),
                    encoding="utf-8")
    tracemalloc.start()
    try:
        result = read_json_layout(path)
        live, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result is not None and len(result.support) == 1 << width
    assert peak < 2.5 * path.stat().st_size
    assert live <= 16 * (1 << width) + (64 << 10)


def traced_read_peak(path):
    """The traced peak of ``read_json_layout(path)``, which must accept it."""
    tracemalloc.start()
    try:
        result = read_json_layout(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result is not None and len(result.support) == 1 << result.width
    return peak


def test_reader_memory_bounded_by_a_batch(tmp_path):
    # Only the keys and values, 16 bytes an entry, grow with the file; the
    # tokens are grouped and converted a batch at a time, so the rest of the
    # traced peak is bounded by the batch, not by the file (it reads 9.4 MB
    # against a 10.5 MB bound; a whole-file token matrix made it 16.3 MB).
    # A map of all-distinct values parses every token of a batch, so its
    # peak is higher, but it too grows by the keys and values alone from
    # 2**18 entries to 2**19 (a cache of every token read so far grew it by
    # 31 MB).
    width = 18
    rng = np.random.default_rng(19)
    probs = rng.choice(rng.random(6000), size=1 << width)
    path = tmp_path / "big.json"
    path.write_text(to_json_text(Distribution(width, np.arange(1 << width), probs / probs.sum())),
                    encoding="utf-8")
    assert traced_read_peak(path) <= 16 * (1 << width) + 96 * analysis._BATCH
    peaks = []
    for width in (18, 19):
        probs = rng.random(1 << width)
        dist = Distribution(width, np.arange(1 << width), probs / probs.sum())
        path.write_text(to_json_text(dist), encoding="utf-8")
        peaks.append(traced_read_peak(path))
    assert peaks[1] - peaks[0] <= 16 * (1 << 18) + (64 << 10), peaks


@pytest.mark.parametrize("slice_bytes", [1, 40, 100, 1 << 18])
def test_token_hash_ties_resolved_exactly(tmp_path, monkeypatch, slice_bytes):
    # With every grouping multiplier 0 all tokens hash to one slot, so each
    # round settles one group and only the word-for-word compare tells
    # tokens apart.  A batch of one record converts each slice on its own;
    # 0.125000001 and 0.125000009 share their first 8 bytes.  Each
    # json.loads call gets distinct tokens, the calls together parse every
    # distinct value, the file stays with the array reader, and arrays and
    # errors match json.load's.
    monkeypatch.setattr(analysis, "_GROUP_ROUNDS", (np.uint64(0),) * 3)
    monkeypatch.setattr(analysis, "_BATCH", 1)
    monkeypatch.setattr(analysis, "_SLICE", slice_bytes)
    parsed = []

    def counting(text):
        values = json.loads(text)
        parsed.append(values)
        return values

    monkeypatch.setattr(analysis, "json", types.SimpleNamespace(loads=counting))
    rng = np.random.default_rng(23)
    pool = np.array([0.125000001, 0.125000009, 1 / 3, 3e-310, 1e-300, 0.25])
    probs = rng.choice(pool, 50)
    support = np.sort(rng.choice(1 << 7, 50, replace=False))
    for scale in (1 / probs.sum(), 2 / probs.sum()):  # the second sums to 2: the same error
        dist = Distribution(7, support, probs * scale)
        assert_paths_agree(tmp_path, monkeypatch, to_json_text(dist) + "\n", accepted=True)
        parsed.clear()
        read_json_layout(tmp_path / "result.json")
        assert all(len(set(values)) == len(values) for values in parsed)
        assert set().union(*parsed) == set(dist.probs.tolist())
    # A token that is not a float, in the last batch, still sends the file to json.load.
    text = to_json_text(Distribution(7, support, probs / probs.sum()))
    last = text.rindex(":") + 2
    assert_paths_agree(tmp_path, monkeypatch, text[:last] + "true}", accepted=False)


def test_canonical_file_never_falls_back(tmp_path, monkeypatch, capsys):
    dist = Distribution(3, np.arange(8), np.full(8, 0.125))
    other = Distribution(3, np.array([1, 6]), np.array([0.375, 0.625]))
    for name, result in (("d.json", dist), ("e.json", other)):
        (tmp_path / name).write_text(to_json_text(result) + "\n", encoding="utf-8")

    def refuse(*args, **kwargs):
        raise AssertionError("json.load on a file in the layout")

    monkeypatch.setattr(json, "load", refuse)
    assert cli.main(["fidelity", str(tmp_path / "d.json"), str(tmp_path / "e.json")]) == 0
    report = capsys.readouterr().out
    monkeypatch.undo()
    assert json.loads(report)["diffs"]["001"] == 0.25


def test_hash_collisions_resolved_in_the_reader(tmp_path, monkeypatch):
    # With every multiplier 0 all tokens hash to one slot, so the rounds
    # alone must tell them apart; the file stays with the array reader.
    monkeypatch.setattr(analysis, "_GROUP_ROUNDS", (np.uint64(0),) * 3)
    dist = Distribution(2, np.arange(4), np.array([0.125, 0.375, 0.125, 0.375]))
    assert_paths_agree(tmp_path, monkeypatch, to_json_text(dist) + "\n", accepted=True)
    same = Distribution(2, np.arange(4), np.full(4, 0.25))
    assert_paths_agree(tmp_path, monkeypatch, to_json_text(same), accepted=True)


@given(supports(), st.data())
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_fidelity_with_itself_is_one(tmp_path, monkeypatch, capsys, drawn, data):
    # Any valid file to_json_text writes is at distance 0 from itself,
    # through the array reader and through json.load alike.
    width, support = drawn
    size = len(support)
    if data.draw(st.booleans()):
        tallies = np.array(data.draw(st.lists(st.integers(0, 10**6), min_size=size, max_size=size)))
        if not tallies.any():
            tallies[0] = 1
        result = Counts(width, support, tallies, int(tallies.sum()))
    else:
        weights = st.floats(0.0, 1.0) | st.sampled_from([0.0, 5e-324, 1e-300, 1.0])
        probs = np.array(data.draw(st.lists(weights, min_size=size, max_size=size)))
        if not probs.any():
            probs[0] = 1.0
        result = Distribution(width, support, probs / probs.sum())
    path = tmp_path / "result.json"
    path.write_text(to_json_text(result) + "\n", encoding="utf-8")
    for array_path in (True, False):
        with monkeypatch.context() as patch:
            if not array_path:
                patch.setattr(cli, "read_json_layout", lambda path, support: None)
            assert cli.main(["fidelity", str(path), str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert (report["distance"], report["fidelity"]) == (0.0, 1.0)


def test_other_layout_declined_before_reading_it_all(tmp_path):
    # An indented file fails on its second byte, so the reader must not
    # first allocate and fill a buffer as large as the file.
    rng = np.random.default_rng(3)
    probs = rng.random(1 << 16)
    dist = Distribution(16, np.arange(1 << 16), probs / probs.sum())
    path = tmp_path / "indented.json"
    path.write_text(json.dumps(json.loads(to_json_text(dist)), indent=1), encoding="utf-8")
    assert path.stat().st_size > 2 << 20
    tracemalloc.start()
    try:
        assert read_json_layout(path) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 10


def test_counts_file_declined_on_first_bytes(tmp_path):
    # A counts object opens with '{"s', so the reader declines it before it
    # sizes a buffer for the file, and json.load reads it.
    rng = np.random.default_rng(5)
    tallies = rng.integers(1, 1000, 1 << 16)
    counts = Counts(16, np.arange(1 << 16), tallies, int(tallies.sum()))
    path = tmp_path / "counts.json"
    path.write_text(to_json_text(counts) + "\n", encoding="utf-8")
    tracemalloc.start()
    try:
        assert read_json_layout(path) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 10
    loaded = cli._load_result(path)
    assert isinstance(loaded, Counts) and loaded.shots == counts.shots
    assert loaded.support.tolist() == counts.support.tolist()
    assert loaded.probs.tolist() == counts.probs.tolist()


def assert_groups(keys, first, inverse):
    """``first`` and ``inverse`` partition ``keys`` as ``np.unique`` does."""
    assert len(first) == len(np.unique(keys)) and len(inverse) == len(keys)
    assert (keys[first][inverse] == keys).all()
    assert len(np.unique(keys[first])) == len(first)


uint64s = st.integers(0, 2**64 - 1)


@given(st.lists(uint64s, min_size=1, max_size=64).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), max_size=300)) | st.lists(uint64s, max_size=300),
       st.sampled_from([0, 1000]))
@settings(max_examples=150, deadline=None)
def test_group_matches_unique(values, copies):
    # Copies of one value keep the misses of a round few, so later rounds run.
    keys = np.array(values[:1] * copies + values, np.uint64)
    assert_groups(keys, *analysis._group(keys))


@pytest.mark.parametrize("keys", [
    np.zeros(0, np.uint64),
    np.array([7], np.uint64),
    np.full(1 << 16, 2**64 - 1, np.uint64),
    np.random.default_rng(15).permutation((1 << 16) - 1).astype(np.uint64) * np.uint64(2**64 - 59),
    np.random.default_rng(16).random((1 << 16) + 1).view(np.uint64),
    np.array([0.0, -0.0, 0.0, -0.0, 1.0], np.float64).view(np.uint64),
    np.random.default_rng(17).permutation(np.concatenate((
        np.full(1 << 16, 3), np.arange(1 << 12) * 0x9E3779B1 + 4)).astype(np.uint64)),
    np.sort(np.random.default_rng(18).random(1 << 16)).view(np.uint64),
    np.random.default_rng(19).integers(0, 1 << 24, 1 << 16, np.uint64) << np.uint64(40),
], ids=["empty", "one", "all-equal", "distinct-2^16-1", "distinct-2^16+1", "signed-zeros", "skewed",
        "sorted-distinct-2^16", "multiples-of-2^40"])
def test_group_edges(keys):
    first, inverse = analysis._group(keys)
    assert_groups(keys, first, inverse)
    assert inverse.dtype == first.dtype == np.intp


def test_group_rounds_that_all_collide(monkeypatch):
    # With every multiplier 0 each round puts all keys in one slot, so it
    # settles only the last key's group; the rounds go on until none is left.
    monkeypatch.setattr(analysis, "_GROUP_ROUNDS", (np.uint64(0),) * 3)
    rng = np.random.default_rng(4)
    keys = np.where(rng.random(1 << 12) < 0.98, np.uint64(5),
                    rng.integers(0, 50, 1 << 12, np.uint64))
    assert_groups(keys, *analysis._group(keys))
    distinct = rng.permutation(1 << 12).astype(np.uint64)
    assert_groups(distinct, *analysis._group(distinct))
    # Rows of three words, many sharing their first word with other rows.
    rows = rng.integers(0, 64, (1000, 3), np.uint64)
    first, inverse = analysis._group(rows)
    assert len(first) == len(np.unique(rows, axis=0)) and len(inverse) == len(rows)
    assert (rows[first][inverse] == rows).all()
    assert len(np.unique(rows[first], axis=0)) == len(first)


def test_token_groups_checked_byte_for_byte(tmp_path, monkeypatch):
    # 0.125000001 and 0.125000009 share their first 8 bytes, and with every
    # multiplier 0 all tokens share a slot too: the rounds must still compare
    # all 24 bytes and keep the two apart.
    monkeypatch.setattr(analysis, "_GROUP_ROUNDS", (np.uint64(0),) * 3)
    probs = np.array([0.125000001, 0.125000009, 0.25, 0.49999999])
    text = to_json_text(Distribution(2, np.arange(4), probs)) + "\n"
    assert_paths_agree(tmp_path, monkeypatch, text, accepted=True)


def fidelity_report(capsys, monkeypatch, file_a, file_b, shared: bool) -> str:
    """``qmarkov fidelity`` output; unless ``shared``, the second file is
    read with an index of its own whatever its keys."""
    with monkeypatch.context() as patch:
        if not shared:
            patch.setattr(cli, "read_json_layout", lambda path, support: read_json_layout(path))
        assert cli.main(["fidelity", str(file_a), str(file_b)]) == 0
    return capsys.readouterr().out


def shared_key_variants(keys):
    """Named keys and weights that differ from ``keys`` (even, from 2): a key
    made odd in the first, middle or last record, that record dropped, or
    an odd key added before it (after the last)."""
    weights = np.linspace(1.0, 2.0, len(keys))
    variants = {"same": (keys, weights)}
    for name, at in (("first", 0), ("middle", len(keys) // 2), ("last", len(keys) - 1)):
        odd = keys.copy()
        odd[at] += 1
        variants[f"changed-{name}"] = odd, weights
        variants[f"fewer-{name}"] = np.delete(keys, at), np.delete(weights, at)
        added = at + 1 if name == "last" else at
        variants[f"more-{name}"] = (np.insert(keys, added, keys[at] + (1 if name == "last" else -1)),
                                    np.insert(weights, added, 0.75))
    return variants


@pytest.mark.parametrize("slice_bytes", [200, 1 << 18])
def test_second_file_read_against_the_first_keys(tmp_path, monkeypatch, capsys, slice_bytes):
    # Equal keys: the second result's index is the first's own array.  Any
    # difference in a key or in the record count, in the first, a middle or
    # the last slice, reads the second file with its own index, the arrays
    # the reader gives without the first's keys, and the same report.
    monkeypatch.setattr(analysis, "_SLICE", slice_bytes)
    width, keys = 11, np.arange(2, 1202, 2)
    first = tmp_path / "a.json"
    first.write_text(to_json_text(Distribution(width, keys, np.full(len(keys), 1 / len(keys))))
                     + "\n", encoding="utf-8")
    reference = read_json_layout(first)
    second = tmp_path / "b.json"
    for name, (keys, weights) in shared_key_variants(keys).items():
        assert (np.diff(keys) > 0).all(), name
        second.write_text(to_json_text(Distribution(width, keys, weights / weights.sum())) + "\n",
                          encoding="utf-8")
        alone, against = read_json_layout(second), read_json_layout(second, reference.support)
        assert np.array_equal(against.support, alone.support), name
        assert against.probs.tobytes() == alone.probs.tobytes(), name
        assert np.shares_memory(against.support, reference.support) == (name == "same"), name
        assert len(against.probs) == len(against.support)
        assert (fidelity_report(capsys, monkeypatch, first, second, True)
                == fidelity_report(capsys, monkeypatch, first, second, False)), name


def test_fidelity_shares_equal_keys(tmp_path, monkeypatch, capsys, chain_spec_file):
    # A run and its oracle list the same keys, so the compared sides hold
    # one index array between them.
    spec = chain_spec_file(steps=12, p0=0.3, p00=0.6, p01=0.4, p10=0.25, p11=0.75)
    q, o = tmp_path / "q.json", tmp_path / "o.json"
    assert cli.main(["run", "--spec", spec, "--out", str(q)]) == 0
    assert cli.main(["oracle", "--spec", spec, "--out", str(o)]) == 0
    sides = []
    compare = cli.compare_runs

    def spy(reference, observed, **kwargs):
        sides.append((reference, observed))
        return compare(reference, observed, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(cli, "compare_runs", spy)
        assert cli.main(["fidelity", str(q), str(o)]) == 0
    shared = capsys.readouterr().out
    ((reference, observed),) = sides
    assert np.shares_memory(reference.support, observed.support)
    assert shared == fidelity_report(capsys, monkeypatch, q, o, False)


def test_absorbing_chain_run_against_oracle(tmp_path, monkeypatch, capsys, chain_spec_file):
    # The README's absorbing chain: run lists the "101" rounding residue that
    # oracle omits, so either order of the two files has a record the other
    # lacks, and the reports are those of separate indices.
    spec = chain_spec_file()
    q, o = tmp_path / "q.json", tmp_path / "o.json"
    assert cli.main(["run", "--spec", spec, "--out", str(q)]) == 0
    assert cli.main(["oracle", "--spec", spec, "--out", str(o)]) == 0
    assert "101" in json.loads(q.read_text(encoding="utf-8"))
    assert "101" not in json.loads(o.read_text(encoding="utf-8"))
    for pair in ((q, o), (o, q)):
        assert (fidelity_report(capsys, monkeypatch, *pair, True)
                == fidelity_report(capsys, monkeypatch, *pair, False))


def test_counts_sides_keep_their_own_keys(tmp_path, monkeypatch, capsys, chain_spec_file):
    # A counts file is never read against other keys, nor lends its own.
    spec = chain_spec_file(steps=6, p0=0.3, p00=0.6, p01=0.4, p10=0.25, p11=0.75)
    c, o = tmp_path / "c.json", tmp_path / "o.json"
    assert cli.main(["run", "--spec", spec, "--shots", "--seed", "3", "--out", str(c)]) == 0
    assert cli.main(["oracle", "--spec", spec, "--out", str(o)]) == 0
    given_support = []
    reader = cli.read_json_layout

    def spy(path, support):
        given_support.append(support)
        return reader(path, support)

    for pair in ((c, o), (o, c)):
        given_support.clear()
        with monkeypatch.context() as patch:
            patch.setattr(cli, "read_json_layout", spy)
            assert cli.main(["fidelity", *map(str, pair)]) == 0
        report = capsys.readouterr().out
        assert given_support[0] is None
        assert (given_support[1] is None) == (pair[0] == c)
        assert report == fidelity_report(capsys, monkeypatch, *pair, False)
