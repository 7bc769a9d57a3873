"""Hellinger metric, counts normalization, and comparison reports."""

import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from conftest import worked_chain
from hypothesis import given, settings
from hypothesis import strategies as st

from qmarkov import analysis, cli, core
from qmarkov import (
    Counts,
    Distribution,
    FidelityReport,
    NoiseModel,
    ValidationError,
    compare_runs,
    compile_to_circuit,
    counts_to_distribution,
    enumerate_paths,
    execute,
    hellinger_distance,
    hellinger_fidelity,
    probabilities,
    sample_counts,
    to_json_text,
    validate_distribution,
)

# hand-derived: ||sqrt P - sqrt Q||^2 = (sqrt 0.5 - 1)^2 + 0.5 = 2 - sqrt 2
HAND_PAIR_DISTANCE = math.sqrt((2.0 - math.sqrt(2.0)) / 2.0)


def histogram(tallies: dict, shots: int) -> Counts:
    return Counts.from_json_dict({"shots": shots, "counts": tallies})


def random_distribution(rng, keys):
    raw = rng.random(len(keys)) + 1e-9
    raw /= raw.sum()
    return dict(zip(keys, raw))


class TestCountsToDistribution:
    def test_single_outcome(self):
        assert counts_to_distribution(histogram({"0": 8192}, 8192)) == {"0": 1.0}

    def test_two_outcomes(self):
        dist = counts_to_distribution(histogram({"00": 4096, "11": 4096}, 8192))
        assert dist == {"00": 0.5, "11": 0.5}

    def test_exact_division(self):
        dist = counts_to_distribution(histogram({"0": 3, "1": 1}, 4))
        assert dist == {"0": 0.75, "1": 0.25}

    def test_zero_shots_rejected(self):
        with pytest.raises(ValidationError):
            counts_to_distribution(histogram({}, 0))

    def test_counts_normalized_where_probabilities_expected(self):
        counts = histogram({"00": 5, "01": 2, "11": 1}, 8)
        exact = {"00": 0.5, "01": 0.25, "11": 0.25}
        normalized = counts_to_distribution(counts)
        assert hellinger_fidelity(counts, exact) == hellinger_fidelity(normalized, exact)
        assert hellinger_fidelity(exact, counts) == hellinger_fidelity(exact, normalized)
        assert hellinger_distance(counts, counts) == 0.0
        assert Distribution.from_mapping(counts) == {"00": 0.625, "01": 0.25, "11": 0.125}


class TestHellinger:
    def test_identical(self):
        dist = {"00": 0.25, "01": 0.75}
        assert hellinger_distance(dist, dist) == 0.0
        assert hellinger_fidelity(dist, dist) == 1.0

    def test_disjoint_supports(self):
        assert hellinger_distance({"0": 1.0}, {"1": 1.0}) == 1.0
        assert hellinger_fidelity({"0": 1.0}, {"1": 1.0}) == 0.0

    def test_hand_derived_pair(self):
        dist = hellinger_distance({"0": 0.5, "1": 0.5}, {"0": 1.0})
        assert dist == pytest.approx(HAND_PAIR_DISTANCE, abs=1e-12)
        assert dist == pytest.approx(0.541196, abs=1e-6)
        assert hellinger_fidelity({"0": 0.5, "1": 0.5}, {"0": 1.0}) == pytest.approx(
            0.458804, abs=1e-6
        )

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            hellinger_distance({"0": 1.0}, {"00": 1.0})

    def test_mixed_lengths_within_one_side(self):
        with pytest.raises(ValidationError):
            hellinger_distance({"0": 0.5, "01": 0.5}, {"0": 1.0})

    def test_negative_probability(self):
        with pytest.raises(ValidationError):
            hellinger_distance({"0": -0.1, "1": 1.1}, {"0": 1.0})

    @pytest.mark.parametrize(("p", "q"), [
        ({}, {}),
        ({"0": 0.25}, {"0": 1.0}),
        ({"0": 0.5, "1": 0.5}, {"0": 2.0}),
    ], ids=["both-empty", "sums-to-a-quarter", "sums-to-two"])
    def test_maps_that_are_not_distributions_refused(self, p, q):
        # Each of these used to give a plausible number (0.0, 0.646, 0.707).
        for compare in (hellinger_distance, hellinger_fidelity, compare_runs):
            with pytest.raises(ValidationError, match="is empty|sums to"):
                compare(p, q)

    @pytest.mark.parametrize(("p", "q", "message"), [
        (Distribution(1, [0], [0.25]), {"0": 1.0}, "sums to 0.25"),
        (Distribution(0, np.zeros(0, np.int64), np.zeros(0)),
         Distribution(0, np.zeros(0, np.int64), np.zeros(0)), "is empty"),
        ({"0": 1.0}, Distribution(1, np.array([0, 1]), np.array([-0.5, 1.5])), "negative"),
        (Distribution(1, np.array([0]), np.array([np.nan])), {"0": 1.0}, "non-finite"),
        (Counts(1, np.array([0]), np.array([3]), 5), {"0": 1.0}, "expected shots=5"),
        ({"0": 1.0}, Counts(1, np.zeros(0, np.int64), np.zeros(0, np.int64), 0), "'shots'"),
    ], ids=["sums-to-a-quarter", "both-empty", "negative", "nan", "tallies-short", "no-shots"])
    def test_built_sides_that_are_not_distributions_refused(self, p, q, message):
        # A hand-built Distribution or Counts takes the checks of a map: these
        # gave 0.354, 0.0, nan (with a RuntimeWarning) and 0.159.
        for compare in (hellinger_distance, hellinger_fidelity, compare_runs):
            with pytest.raises(ValidationError, match=message):
                compare(p, q)
            with pytest.raises(ValidationError, match=message):
                compare(q, p)

    def test_checked_sides_are_not_checked_again(self, monkeypatch):
        counts = histogram({"0": 3, "1": 1}, 4)
        exact = validate_distribution({"0": 0.75, "1": 0.25})
        seen = []

        def counting(mapping, what, *args, **kwargs):
            seen.append(what)
            return parse(mapping, what, *args, **kwargs)

        parse = core.parse_bitstring_map
        monkeypatch.setattr(core, "parse_bitstring_map", counting)
        assert compare_runs(counts, exact).hellinger_distance == 0.0
        assert seen == ["counts", "observed"]
        seen.clear()
        assert compare_runs(counts, exact, checked=True).reference_shots == 4
        assert seen == []

    def test_numpy_shots_still_compared(self):
        # sample_counts keeps the shots it is given, a numpy int included.
        state = execute(compile_to_circuit(worked_chain()))
        counts = sample_counts(state, np.int64(100), 1)
        assert compare_runs(counts, probabilities(state)).reference_shots == 100

    def test_metric_properties_random(self):
        rng = np.random.default_rng(314)
        keys = [format(i, "03b") for i in range(8)]
        for _ in range(1000):
            p = random_distribution(rng, keys)
            q = random_distribution(rng, keys)
            d = hellinger_distance(p, q)
            assert 0.0 <= d <= 1.0
            assert abs(d - hellinger_distance(q, p)) <= 1e-15
            assert hellinger_fidelity(p, q) + d == pytest.approx(1.0, abs=1e-15)

    def test_triangle_inequality_random(self):
        rng = np.random.default_rng(2718)
        keys = [format(i, "02b") for i in range(4)]
        for _ in range(1000):
            p = random_distribution(rng, keys)
            q = random_distribution(rng, keys)
            r = random_distribution(rng, keys)
            assert hellinger_distance(p, r) <= (
                hellinger_distance(p, q) + hellinger_distance(q, r) + 1e-12
            )

    @given(
        st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=4, max_size=4),
        st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=4, max_size=4),
    )
    @settings(max_examples=200)
    def test_bounds_property(self, raw_p, raw_q):
        keys = ["00", "01", "10", "11"]
        p = {k: v / sum(raw_p) for k, v in zip(keys, raw_p)}
        q = {k: v / sum(raw_q) for k, v in zip(keys, raw_q)}
        d = hellinger_distance(p, q)
        assert 0.0 <= d <= 1.0
        assert abs(d - hellinger_distance(q, p)) <= 1e-15


class TestValidateDistribution:
    def test_valid(self):
        validate_distribution({"00": 0.5, "11": 0.5})

    def test_empty(self):
        with pytest.raises(ValidationError):
            validate_distribution({})

    def test_bad_sum(self):
        with pytest.raises(ValidationError):
            validate_distribution({"0": 0.7, "1": 0.2})

    def test_bad_alphabet(self):
        with pytest.raises(ValidationError):
            validate_distribution({"0z": 1.0})

    def test_key_not_a_string(self):
        with pytest.raises(ValidationError, match="key that is not a bitstring"):
            validate_distribution({1: 1.0})

    @staticmethod
    def message(value):
        with pytest.raises(ValidationError) as info:
            validate_distribution(value)
        return str(info.value)

    def test_distribution_checked_on_its_arrays(self, monkeypatch):
        # A Distribution (or Counts) is checked from its arrays, never key by
        # key, with the same result and messages as its bitstring map.
        chain = worked_chain()
        exact = probabilities(execute(compile_to_circuit(chain)))
        counts = sample_counts(execute(compile_to_circuit(chain)), 512, 3)
        want = [validate_distribution(dict(d)) for d in (exact, counts_to_distribution(counts))]
        short = Distribution(1, np.array([0, 1]), np.array([0.7, 0.2]))
        empty = Distribution(0, np.zeros(0, dtype=np.int64), np.zeros(0))
        messages = [self.message(dict(short)), self.message({})]

        def refuse(self, key):
            raise AssertionError("read key by key")

        monkeypatch.setattr(Distribution, "__getitem__", refuse)
        got = [validate_distribution(exact), validate_distribution(counts)]
        assert [self.message(short), self.message(empty)] == messages
        monkeypatch.undo()
        for g, w in zip(got, want):
            assert g.width == w.width
            assert np.array_equal(g.support, w.support)
            assert np.array_equal(g.probs, w.probs)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -0.25])
    def test_bad_value_in_distribution_named(self, bad):
        dist = Distribution(2, np.array([0, 2, 3]), np.array([0.75, bad, 0.25]))
        assert self.message(dist) == self.message(dict(dist))
        assert "'10'" in self.message(dist)


BAD_SUPPORTS = {
    "duplicate": (1, np.array([0, 0])),
    "unsorted": (2, np.array([3, 0])),
    "negative": (2, np.array([-1, 0])),
    "out of range": (2, np.array([0, 7])),
    "out of range, unsorted": (2, np.array([7, 0])),
    "too short": (2, np.array([0])),
    "too long": (2, np.array([0, 1, 2])),
    "float": (2, np.array([0.0, 1.0])),
    "bool": (2, np.array([False, True])),
    "2-D": (2, np.array([[0, 1]])),
    "width beyond int64 keys": (64, np.array([0, 1])),
    "negative width": (-1, np.array([0, 1])),
    "fractional width": (1.5, np.array([0, 1])),
}


class TestHandBuiltSupport:
    """A hand-built ``Distribution`` or ``Counts`` has its keys checked where
    its values are: every comparison and every writer refuses a support that
    is not strictly increasing int indices within the width, one per value."""

    @pytest.mark.parametrize("case", BAD_SUPPORTS)
    def test_distribution_refused(self, case):
        width, support = BAD_SUPPORTS[case]
        dist = Distribution(width, support, np.array([0.5, 0.5]))
        good = Distribution(2, np.array([0, 3]), np.array([0.5, 0.5]))
        for call in (
            lambda: to_json_text(dist),
            lambda: to_json_text(FidelityReport(0.0, dist, 0, 0)),
            lambda: validate_distribution(dist),
            lambda: hellinger_distance(dist, good),
            lambda: hellinger_fidelity(good, dist),
            lambda: compare_runs(dist, good),
            lambda: compare_runs(good, dist),
        ):
            with pytest.raises(ValidationError):
                call()

    @pytest.mark.parametrize("case", BAD_SUPPORTS)
    def test_counts_refused(self, case):
        width, support = BAD_SUPPORTS[case]
        counts = Counts(width, support, np.array([2, 3]), 5)
        good = histogram({"00": 2, "11": 3}, 5)
        for call in (
            lambda: to_json_text(counts),
            lambda: Counts.from_json_dict({"shots": 5, "counts": counts}),
            lambda: hellinger_distance(counts, good),
            lambda: compare_runs(good, counts),
        ):
            with pytest.raises(ValidationError):
                call()

    @pytest.mark.parametrize("result", [Distribution(0, [0], [1.0]), Counts(0, [0], [1], 1)],
                             ids=["distribution", "counts"])
    def test_width_zero_with_entries_refused(self, result):
        # Width 0 holds the empty result only: a result with entries once
        # wrote {"": 1}, a file both read paths refuse.
        good = Distribution(1, np.array([0]), np.array([1.0]))
        for call in (
            lambda: to_json_text(result),
            lambda: to_json_text(FidelityReport(0.0, result, 0, 0)),
            lambda: validate_distribution(result),
            lambda: Counts.from_json_dict({"shots": 1, "counts": result}),
            lambda: hellinger_distance(result, good),
            lambda: hellinger_fidelity(good, result),
            lambda: compare_runs(result, good),
            lambda: compare_runs(good, result),
        ):
            with pytest.raises(ValidationError, match="width 0, expected 1 to 63"):
                call()

    def test_reported_cases(self):
        # A duplicate key once gave a distance and wrote a key twice, and an
        # index past the width wrote a wrapped key.
        twice = Distribution(1, np.array([0, 0]), np.array([0.5, 0.5]))
        with pytest.raises(ValidationError, match="strictly increasing"):
            hellinger_distance(twice, {"0": 1.0})
        with pytest.raises(ValidationError, match="strictly increasing"):
            to_json_text(twice)
        with pytest.raises(ValidationError, match=r"\[0, 2\*\*2\)"):
            to_json_text(Distribution(2, np.array([7, 0]), np.array([0.5, 0.5])))

    def test_valid_edges_accepted(self):
        top = (1 << 63) - 1
        for support in (np.array([top]), np.array([top], np.uint64), [top]):
            text = to_json_text(Distribution(63, support, np.array([1.0])))
            assert text == '{"%s": 1}' % ("1" * 63)
        assert to_json_text(Distribution(2, [], [])) == "{}"
        assert to_json_text(Distribution(0, np.zeros(0, np.int64), np.zeros(0))) == "{}"
        dist = Distribution(3, np.array([0, 5, 7], np.int32), np.array([0.25, 0.25, 0.5]))
        assert compare_runs(dist, dict(dist)).hellinger_distance == 0.0


class TestCompareRuns:
    def test_self_comparison(self):
        dist = {"00": 0.25, "01": 0.25, "10": 0.5}
        report = compare_runs(dist, dist)
        assert report.hellinger_fidelity == 1.0
        assert report.hellinger_distance == 0.0
        assert all(v == 0.0 for v in report.diffs.values())
        assert report.reference_shots == 0
        assert report.observed_shots == 0

    def test_counts_auto_normalized(self):
        counts = histogram({"0": 6, "1": 2}, 8)
        report = compare_runs({"0": 0.75, "1": 0.25}, counts)
        assert report.hellinger_fidelity == pytest.approx(1.0, abs=1e-15)
        assert report.observed_shots == 8

    def test_fidelity_complement_invariant(self):
        report = compare_runs({"0": 0.5, "1": 0.5}, {"0": 1.0})
        assert report.hellinger_fidelity + report.hellinger_distance == pytest.approx(
            1.0, abs=1e-15
        )

    def test_diff_fields(self):
        report = compare_runs({"0": 1.0}, {"1": 1.0})
        assert report.diffs == {"0": 1.0, "1": 1.0}

    def test_noisy_sampling_regression(self):
        # fixed-seed regression baseline, not a ground-truth value
        chain = worked_chain()
        state = execute(compile_to_circuit(chain))
        counts = sample_counts(state, 8192, 7, NoiseModel(0.0, 0.05))
        report = compare_runs(enumerate_paths(chain), counts)
        assert report.hellinger_fidelity < 1.0
        assert report.hellinger_fidelity == pytest.approx(
            0.8008154866879663, abs=1e-12
        )

    def test_wide_counts_stay_sparse(self):
        # 40-bit keys: a 2**40 vector could not be allocated, so this only
        # passes if the comparison works on the supports.
        wide = "1" * 40
        report = compare_runs(histogram({wide: 3}, 3), histogram({"0" * 40: 1, wide: 1}, 2))
        assert report.diffs == {"0" * 40: 0.5, wide: 0.5}
        assert report.hellinger_distance == pytest.approx(
            math.sqrt(1.0 - math.sqrt(0.5)), abs=1e-15
        )

    def test_env_capacity_then_sampling(self, monkeypatch):
        chain = worked_chain()
        monkeypatch.setenv("QSIM_MAX_QUBITS", str(chain.steps))
        state = execute(compile_to_circuit(chain))
        counts = sample_counts(state, 256, 5)
        assert len(next(iter(counts))) == chain.steps > 2
        report = compare_runs(probabilities(state), counts)
        assert 0.0 <= report.hellinger_distance < 1.0

    def test_report_json_dict_is_plain(self):
        report = compare_runs({"00": 0.5, "11": 0.5}, histogram({"00": 3, "01": 1}, 4))
        data = json.loads(to_json_text(report))
        assert data["diffs"] == {"00": 0.25, "01": 0.25, "11": 0.5}

    def test_json_dict_reads_arrays(self, monkeypatch):
        chain = worked_chain()
        counts = sample_counts(execute(compile_to_circuit(chain)), 512, 3)
        report = compare_runs(enumerate_paths(chain), counts)
        want = {
            "distance": report.hellinger_distance,
            "fidelity": report.hellinger_fidelity,
            "diffs": dict(report.diffs),
        }

        def refuse(self, key):
            raise AssertionError("read key by key")

        monkeypatch.setattr(Distribution, "__getitem__", refuse)
        assert json.loads(to_json_text(report)) == want

    def test_equal_supports_add_one_array(self):
        # With equal supports the sides are used as they are: compare_runs
        # adds the diffs (8 bytes an entry, made in place) and the distance's
        # chunk buffers (two of _CHUNK float64), not whole-array temporaries.
        size = 1 << 18
        rng = np.random.default_rng(6)
        sides = []
        for _ in range(2):
            probs = rng.random(size)
            sides.append(Distribution(18, np.arange(size), probs / probs.sum()))
        tracemalloc.start()
        try:
            report = compare_runs(*sides, checked=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(report.diffs) == size
        assert peak <= 8 * size + 2 * 8 * core._CHUNK + (16 << 10)

    def test_json_dict(self):
        report = FidelityReport(0.25, Distribution(1, np.array([0]), np.array([0.1])), 0, 8192)
        assert report.hellinger_fidelity == 0.75
        assert json.loads(to_json_text(report)) == {
            "distance": 0.25,
            "fidelity": 0.75,
            "diffs": {"0": 0.1},
        }


class TestChunkedSums:
    """The sequential sums run ``_CHUNK`` entries at a time and must give the
    bits of one ``np.cumsum`` over the whole array.  ``sqrt`` and ``cumsum``
    are SIMD-dispatched, so CI runs these at numpy's baseline level too."""

    SIZES = [0, 1, core._CHUNK - 1, core._CHUNK, core._CHUNK + 1, 3 * core._CHUNK + 5]

    @staticmethod
    def values(size, seed):
        # Spread over many binades, with subnormals and signed zeros, so the
        # sum rounds at most adds and a change of order would show.
        rng = np.random.default_rng(seed)
        pool = np.array([0.0, -0.0, 5e-324, 3e-310, 2.2250738585072014e-308, 1e-300])
        values = rng.random(size) ** 8
        picks = rng.random(size) < 0.2
        values[picks] = rng.choice(pool, int(picks.sum()))
        return values

    @staticmethod
    def whole_distance(p, q):
        diff = np.sqrt(p) - np.sqrt(q)
        total = float(np.cumsum(diff * diff)[-1]) if diff.size else 0.0
        return min(analysis._INV_SQRT2 * math.sqrt(total), 1.0)

    @pytest.mark.parametrize("size", SIZES)
    def test_distance_matches_whole_cumsum(self, size):
        p, q = self.values(size, 1), self.values(size, 2)
        assert repr(analysis._distance(p, q)) == repr(self.whole_distance(p, q))
        subnormal = np.full(size, 5e-324)
        assert repr(analysis._distance(subnormal, q)) == repr(self.whole_distance(subnormal, q))

    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("fill", [None, 5e-324, -0.0])  # mixed, subnormals only, -0.0 only
    def test_float_total_matches_whole_cumsum(self, size, fill):
        values = self.values(size, 3) if fill is None else np.full(size, fill)
        total = core.parse_bitstring_map(Distribution(20, np.arange(size), values), "d")[3]
        if size:  # an empty map totals the int 0, as sum([]) does
            assert repr(total) == repr(float(np.cumsum(values)[-1]) + 0.0)
            assert repr(total) == repr(sum(values.tolist()))
        if fill == 0.0 and size:  # the whole-array cumsum ends at -0.0; the total reads 0.0
            assert repr(total) == "0.0"

    def test_total_past_the_float_range(self, tmp_path, capsys):
        # Values that sum past the largest float total inf, as Python's sum
        # does, and are refused without a numpy overflow warning.
        path = tmp_path / "huge.json"
        path.write_text(to_json_text(Distribution(1, np.arange(2), np.full(2, 1.7e308))) + "\n",
                        encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="sums to inf"):
                Distribution.from_mapping({"0": 1.7e308, "1": 1.7e308})
            assert cli.main(["fidelity", str(path), str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path} sums to inf, expected 1 within 1e-09\n"

    def test_hellinger_on_unequal_supports(self):
        # Supports that overlap in part: the union spreads each side with
        # zeros, over more than three chunks.
        rng = np.random.default_rng(4)
        size = 3 * core._CHUNK + 5
        supports = [np.sort(rng.choice(1 << 18, size, replace=False)) for _ in range(2)]
        sides = []
        for support in supports:
            probs = self.values(size, len(sides))
            sides.append(Distribution(18, support, probs / probs.sum()))
        union = np.union1d(*supports)
        spread = []
        for side in sides:
            probs = np.zeros(len(union))
            probs[np.searchsorted(union, side.support)] = side.probs
            spread.append(probs)
        assert repr(hellinger_distance(*sides)) == repr(self.whole_distance(*spread))


class TestSamplingConvergence:
    def test_mean_fidelity_increases_with_shots(self):
        chain = worked_chain()
        state = execute(compile_to_circuit(chain))
        exact = enumerate_paths(chain)
        means = []
        for shots in (128, 1024, 8192):
            fids = [
                hellinger_fidelity(
                    exact, counts_to_distribution(sample_counts(state, shots, seed))
                )
                for seed in range(20)
            ]
            means.append(float(np.mean(fids)))
        assert means[0] < means[1] < means[2]


def report_with_distance(distance: float) -> FidelityReport:
    return FidelityReport(distance, Distribution(1, np.array([1]), np.array([0.5])), 0, 0)


class TestJsonText:
    def test_float_formatting(self):
        text = to_json_text(report_with_distance(1.0 / 3.0))
        assert text == (
            '{"distance": 0.33333333333333331, "fidelity": 0.66666666666666674, '
            '"diffs": {"1": 0.5}}'
        )
        assert json.loads(text)["distance"] == 1.0 / 3.0

    def test_nested(self):
        text = to_json_text(histogram({"00": 5}, 5))
        assert text == '{"shots": 5, "counts": {"00": 5}}'
        assert json.loads(text) == {"counts": {"00": 5}, "shots": 5}

    def test_simple_values(self):
        # Only result types serialize; plain values have no JSON form here.
        for value in ({"a": 0.5}, 0.5, [1, 2.5], None):
            with pytest.raises(TypeError):
                to_json_text(value)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValidationError):
            to_json_text(report_with_distance(bad))
        with pytest.raises(ValidationError):
            to_json_text(Distribution.from_vector(1, np.array([bad, 0.5])))

    def test_distribution_matches_dict_form(self):
        dist = Distribution.from_vector(2, np.array([0.0, 1.0 / 3.0, 0.0, 2.0 / 3.0]))
        assert to_json_text(dist) == '{"01": 0.33333333333333331, "11": 0.66666666666666663}'
        assert json.loads(to_json_text(dist)) == dict(dist.items())

    def test_hand_built_from_lists(self):
        # A hand-built result may hold lists, which the comparisons accept.
        dist = Distribution(1, [0], [1.0])
        counts = Counts(1, [0, 1], [2, 3], 5)
        assert to_json_text(dist) == '{"0": 1}'
        assert to_json_text(counts) == '{"shots": 5, "counts": {"0": 2, "1": 3}}'

    def test_unserializable(self):
        with pytest.raises(TypeError):
            to_json_text(object())
