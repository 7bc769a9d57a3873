"""CLI output is byte-identical to the dict-of-bitstrings formulas.

Every expected text here is built from plain dicts keyed by bitstrings and
one reference formatter, independently of how the package represents
distributions in memory.
"""

import json
import math
from collections import Counter

import numpy as np
import pytest
from conftest import brute_paths, random_chain
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qmarkov import Counts, Distribution, compile_to_circuit, execute, load_chain
from qmarkov.analysis import _CHUNK, compare_runs, to_json_text
from qmarkov.cli import main

SHOTS = 2048
READOUT = 0.03


def reference_text(value) -> str:
    """The serialization contract: dicts in insertion order, floats at .17g."""
    if isinstance(value, dict):
        return "{" + ", ".join(
            f"{json.dumps(k)}: {reference_text(v)}" for k, v in value.items()
        ) + "}"
    if isinstance(value, float):
        return format(value, ".17g")
    return json.dumps(value)


def reversed_keys(mapping: dict) -> dict:
    return {
        key[::-1]: value
        for key, value in sorted(mapping.items(), key=lambda kv: kv[0][::-1])
    }


def exact_dict(chain) -> dict:
    probs = np.abs(execute(compile_to_circuit(chain)).amplitudes) ** 2
    width = chain.steps
    return {format(i, f"0{width}b"): float(p) for i, p in enumerate(probs) if p != 0.0}


def counts_payload(chain, seed: int, readout: float = READOUT) -> dict:
    # Draw order of sample_counts: outcomes first, then (only with readout
    # noise) one uniform per bit.
    n = chain.steps
    probs = np.abs(execute(compile_to_circuit(chain)).amplitudes) ** 2
    probs = probs / probs.sum()
    rng = np.random.default_rng(seed)
    outcomes = rng.choice(probs.size, size=SHOTS, p=probs)
    if readout:
        flips = rng.random((SHOTS, n)) < readout
        outcomes = outcomes ^ (flips @ (1 << np.arange(n - 1, -1, -1)))
    tallies = Counter(int(i) for i in outcomes)
    counts = {format(i, f"0{n}b"): c for i, c in sorted(tallies.items())}
    return {"shots": SHOTS, "counts": counts}


def fidelity_payload(ref: dict, obs: dict) -> dict:
    keys = sorted(set(ref) | set(obs))
    total = 0.0
    for key in keys:
        diff = math.sqrt(ref.get(key, 0.0)) - math.sqrt(obs.get(key, 0.0))
        total += diff * diff
    distance = min((1.0 / math.sqrt(2.0)) * math.sqrt(total), 1.0)
    diffs = {key: abs(ref.get(key, 0.0) - obs.get(key, 0.0)) for key in keys}
    return {"distance": distance, "fidelity": 1.0 - distance, "diffs": diffs}


def spec_corpus(tmp_path):
    rng = np.random.default_rng(4096)
    chains = [random_chain(rng, steps=int(rng.integers(1, 13))) for _ in range(8)]
    chains.append(random_chain(rng, steps=12))
    out = []
    for idx, chain in enumerate(chains):
        path = tmp_path / f"spec{idx}.json"
        path.write_text(json.dumps({
            "steps": chain.steps,
            "initial": {"p0": chain.initial[0]},
            "transition": {
                "p00": chain.transition[0][0], "p01": chain.transition[0][1],
                "p10": chain.transition[1][0], "p11": chain.transition[1][1],
            },
        }))
        out.append((str(path), load_chain(str(path))))
    return out


def cli_text(capsys, *argv) -> str:
    """Exit status 0; the printed text, or the --out file's, without its newline."""
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    if "--out" in argv:
        assert out == ""
        with open(argv[argv.index("--out") + 1], encoding="utf-8") as fh:
            out = fh.read()
    assert out.endswith("\n")
    return out[:-1]


@pytest.fixture
def corpus(tmp_path):
    return spec_corpus(tmp_path)


@pytest.mark.parametrize("order", ["time", "reversed"])
def test_run_exact(capsys, corpus, order):
    for spec, chain in corpus:
        expected = exact_dict(chain)
        if order == "reversed":
            expected = reversed_keys(expected)
        text = cli_text(capsys, "run", "--spec", spec, "--bit-order", order)
        assert text == reference_text(expected)


@pytest.mark.parametrize("order", ["time", "reversed"])
def test_oracle(capsys, corpus, order):
    for spec, chain in corpus:
        expected = brute_paths(chain)
        if order == "reversed":
            expected = reversed_keys(expected)
        text = cli_text(capsys, "oracle", "--spec", spec, "--bit-order", order)
        assert text == reference_text(expected)


@pytest.mark.parametrize("order", ["time", "reversed"])
def test_sampled_run_with_readout_noise(capsys, corpus, order):
    for seed, (spec, chain) in enumerate(corpus):
        expected = counts_payload(chain, seed)
        if order == "reversed":
            expected["counts"] = reversed_keys(expected["counts"])
        text = cli_text(
            capsys, "run", "--spec", spec, "--shots", str(SHOTS), "--seed", str(seed),
            "--noise-readout", repr(READOUT), "--bit-order", order,
        )
        assert text == reference_text(expected)


def test_sampled_run_reversed_without_noise(capsys, corpus):
    for seed, (spec, chain) in enumerate(corpus):
        expected = counts_payload(chain, seed, readout=0.0)
        expected["counts"] = reversed_keys(expected["counts"])
        text = cli_text(
            capsys, "run", "--spec", spec, "--shots", str(SHOTS), "--seed", str(seed),
            "--bit-order", "reversed",
        )
        assert text == reference_text(expected)


def test_fidelity_distribution_vs_distribution(capsys, corpus, tmp_path):
    for spec, chain in corpus:
        run_file = tmp_path / "q.json"
        oracle_file = tmp_path / "o.json"
        quantum = exact_dict(chain)
        classical = brute_paths(chain)
        text = cli_text(capsys, "run", "--spec", spec, "--out", str(run_file))
        assert text == reference_text(quantum)
        text = cli_text(capsys, "oracle", "--spec", spec, "--out", str(oracle_file))
        assert text == reference_text(classical)
        text = cli_text(capsys, "fidelity", str(run_file), str(oracle_file))
        expected = fidelity_payload(quantum, classical)
        assert text == reference_text(expected)


def test_fidelity_counts_vs_distribution(capsys, corpus, tmp_path):
    for seed, (spec, chain) in enumerate(corpus):
        counts_file = tmp_path / "counts.json"
        oracle_file = tmp_path / "o.json"
        cli_text(capsys, "run", "--spec", spec, "--shots", str(SHOTS), "--seed",
                 str(seed), "--noise-readout", repr(READOUT), "--out", str(counts_file))
        cli_text(capsys, "oracle", "--spec", spec, "--out", str(oracle_file))
        text = cli_text(capsys, "fidelity", str(oracle_file), str(counts_file))
        counts = counts_payload(chain, seed)["counts"]
        observed = {key: value / SHOTS for key, value in counts.items()}
        expected = fidelity_payload(brute_paths(chain), observed)
        assert text == reference_text(expected)


def test_fidelity_counts_vs_counts(capsys, corpus, tmp_path):
    for seed, (spec, chain) in enumerate(corpus):
        files = [tmp_path / "a.json", tmp_path / "b.json"]
        cli_text(capsys, "run", "--spec", spec, "--shots", str(SHOTS), "--seed",
                 str(seed), "--out", str(files[0]))
        cli_text(capsys, "run", "--spec", spec, "--shots", str(SHOTS), "--seed",
                 str(seed + 100), "--noise-readout", repr(READOUT), "--out", str(files[1]))
        text = cli_text(capsys, "fidelity", str(files[0]), str(files[1]))
        sides = [
            counts_payload(chain, seed, readout=0.0)["counts"],
            counts_payload(chain, seed + 100)["counts"],
        ]
        ref, obs = ({key: value / SHOTS for key, value in c.items()} for c in sides)
        assert text == reference_text(fidelity_payload(ref, obs))


def test_fidelity_keeps_explicit_zero_entries(capsys, tmp_path):
    hand = tmp_path / "hand.json"
    hand.write_text('{"100": 0.25, "000": 0.5, "110": 0.25, "001": 0.0}')
    exact = tmp_path / "exact.json"
    exact.write_text('{"000": 0.5, "100": 0.25, "110": 0.125, "111": 0.125}')
    text = cli_text(capsys, "fidelity", str(hand), str(exact))
    assert '"001": 0' in text
    expected = fidelity_payload(
        {"000": 0.5, "001": 0.0, "100": 0.25, "110": 0.25},
        {"000": 0.5, "100": 0.25, "110": 0.125, "111": 0.125},
    )
    assert text == reference_text(expected)


def keyed(dist) -> dict:
    """The entries of an array-held distribution as a bitstring-keyed dict."""
    return {
        format(int(i), f"0{dist.width}b"): v
        for i, v in zip(dist.support.tolist(), dist.probs.tolist())
    }


# 0.0 and -0.0, the least subnormal, the 24-character extremes, and 1.0.
EDGE_VALUES = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, -1.7976931348623157e308, 1.0]


@st.composite
def distributions(draw):
    width = draw(st.integers(1, 63))
    index = draw(st.lists(st.integers(0, (1 << width) - 1), unique=True, max_size=40))
    values = draw(st.lists(
        st.sampled_from(EDGE_VALUES) | st.floats(allow_nan=False, allow_infinity=False),
        min_size=len(index), max_size=len(index),
    ))
    return Distribution(width, np.array(sorted(index), dtype=np.int64), np.array(values))


@given(distributions())
@example(Distribution(63, np.array([0, 1, 2**63 - 1]), np.array([0.0, -0.0, 0.0])))
@settings(max_examples=300, deadline=None)
def test_distribution_text_matches_reference(dist):
    assert to_json_text(dist) == reference_text(keyed(dist))


# The edges of the first chunk, and the same edges four chunks in.
CHUNK_EDGES = [_CHUNK - 1, _CHUNK, _CHUNK + 1, 4 * _CHUNK - 1, 4 * _CHUNK, 4 * _CHUNK + 1]


@pytest.mark.parametrize("size", CHUNK_EDGES)
def test_distribution_text_across_chunk_edges(size):
    rng = np.random.default_rng(size)
    width = 17
    support = np.sort(rng.choice(1 << width, size=size, replace=False))
    pool = np.array(EDGE_VALUES + rng.random(200).tolist())
    dist = Distribution(width, support, rng.choice(pool, size=size))
    assert to_json_text(dist) == reference_text(keyed(dist))


def test_empty_distribution_text():
    for width in (0, 5):
        empty = Distribution(width, np.zeros(0, dtype=np.int64), np.zeros(0))
        assert to_json_text(empty) == "{}" == reference_text({})


def test_all_distinct_distribution_text():
    width = 17
    rng = np.random.default_rng(17)
    dist = Distribution(width, np.arange(1 << width), rng.random(1 << width))
    assert len(np.unique(dist.probs)) == 1 << width
    assert to_json_text(dist) == reference_text(keyed(dist))


@pytest.mark.parametrize("order", ["time", "reversed"])
def test_counts_text_matches_reference(order):
    rng = np.random.default_rng(9)
    width, size = 20, 3 * _CHUNK // 2
    support = np.sort(rng.choice(1 << width, size=size, replace=False))
    tallies = rng.choice(np.array([0, 1, 7, 2**62, 2**63 - 1]), size=size)
    counts = Counts(width, support, tallies, int(rng.integers(1, 2**31)))
    expected = {"shots": counts.shots, "counts": keyed(counts)}
    if order == "reversed":
        counts = counts.bit_reversed()
        expected["counts"] = reversed_keys(expected["counts"])
    assert to_json_text(counts) == reference_text(expected)


@pytest.mark.parametrize("size", CHUNK_EDGES)
def test_report_text_across_chunk_edges(size):
    rng = np.random.default_rng(size + 1)
    width = 17
    union = np.sort(rng.choice(1 << width, size=size, replace=False))
    side = rng.integers(0, 3, size=size)  # 0: reference only, 1: observed only, 2: both
    sides = []
    for absent in (1, 0):
        support = union[side != absent]
        probs = rng.random(len(support))
        sides.append(Distribution(width, support, probs / probs.sum()))
    report = compare_runs(*sides)
    assert len(report.diffs) == size
    assert to_json_text(report) == reference_text(fidelity_payload(*map(keyed, sides)))


@given(st.integers(1, 10), st.integers(0, 2**32 - 1),
       st.sampled_from(["equal", "unequal", "zeros"]))
@settings(max_examples=120, deadline=None)
def test_report_on_equal_and_unequal_supports(width, seed, kind):
    # compare_runs skips the merge when both supports are the same array of
    # indices; the report must not change, explicit zeros included.
    rng = np.random.default_rng(seed)
    support = np.sort(rng.choice(1 << width, size=int(rng.integers(1, (1 << width) + 1)),
                                 replace=False))
    sides = []
    for _ in range(2):
        probs = rng.random(len(support)) * (rng.random(len(support)) < 0.7)
        if kind != "zeros":
            probs += 1e-3
        probs[rng.integers(len(probs))] += 1.0
        keep = rng.random(len(support)) < 0.8 if kind == "unequal" else slice(None)
        if not probs[keep].any():
            keep = slice(None)
        sides.append(Distribution(width, support[keep], probs[keep] / probs[keep].sum()))
    report = compare_runs(*sides)
    assert to_json_text(report) == reference_text(fidelity_payload(*map(keyed, sides)))
    if kind != "unequal":
        assert report.diffs.support.tolist() == support.tolist()
