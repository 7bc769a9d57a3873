"""Chain model, compiler, and classical oracles."""

import math

import numpy as np
import pytest
from conftest import assert_dist_close, brute_paths, random_chain, worked_chain

from qmarkov import (
    ABSORBING,
    RECURRENT,
    TRANSIENT,
    BinaryMarkovChain,
    CapacityError,
    Circuit,
    ValidationError,
    chain_from_dict,
    classify_states,
    compile_to_circuit,
    enumerate_paths,
    execute,
    hitting_stats,
    load_chain,
    marginal,
    probabilities,
    return_probability,
)


class TestChainValidation:
    def test_initial_must_sum(self):
        with pytest.raises(ValidationError):
            BinaryMarkovChain((0.6, 0.6), ((1.0, 0.0), (0.0, 1.0)), 2)

    def test_rows_must_sum(self):
        with pytest.raises(ValidationError):
            BinaryMarkovChain((0.5, 0.5), ((0.9, 0.0), (0.0, 1.0)), 2)

    def test_negative_entries(self):
        with pytest.raises(ValidationError):
            BinaryMarkovChain((0.5, 0.5), ((1.2, -0.2), (0.0, 1.0)), 2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_entries(self, bad):
        with pytest.raises(ValidationError):
            BinaryMarkovChain((0.5, 0.5), ((bad, 0.0), (0.0, 1.0)), 2)
        with pytest.raises(ValidationError):
            BinaryMarkovChain((bad, 0.5), ((1.0, 0.0), (0.0, 1.0)), 2)

    def test_steps_positive(self):
        with pytest.raises(ValidationError):
            BinaryMarkovChain((0.5, 0.5), ((1.0, 0.0), (0.0, 1.0)), 0)

    def test_shape_enforced(self):
        with pytest.raises(ValidationError, match="2 initial weights"):
            BinaryMarkovChain((1.0,), ((1.0, 0.0), (0.0, 1.0)), 2)


class TestChainSpecFile:
    def test_load(self, chain_spec_file):
        chain = load_chain(chain_spec_file(steps=3, p0=0.5, p11=0.5, p10=0.5))
        assert chain.steps == 3
        assert chain.initial == (0.5, 0.5)
        assert chain.transition == ((1.0, 0.0), (0.5, 0.5))

    def test_row_error_names_row(self, chain_spec_file):
        with pytest.raises(ValidationError, match="transition row 0"):
            load_chain(chain_spec_file(p00=0.8, p01=0.1))
        with pytest.raises(ValidationError, match="transition row 1"):
            load_chain(chain_spec_file(p10=0.8, p11=0.1))

    def test_near_miss_rows_normalized(self):
        # within the 1e-9 load tolerance; in-memory rows become exact
        chain = chain_from_dict(
            {
                "steps": 2,
                "initial": {"p0": 0.25},
                "transition": {
                    "p00": 0.7 + 2e-10,
                    "p01": 0.3,
                    "p10": 0.5,
                    "p11": 0.5 - 2e-10,
                },
            }
        )
        for row in chain.transition:
            assert abs(sum(row) - 1.0) <= 1e-12

    def test_p0_out_of_range(self):
        with pytest.raises(ValidationError):
            chain_from_dict(
                {
                    "steps": 1,
                    "initial": {"p0": 1.4},
                    "transition": {"p00": 1, "p01": 0, "p10": 0, "p11": 1},
                }
            )

    def test_missing_keys(self):
        with pytest.raises(ValidationError):
            chain_from_dict({"steps": 2})

    def test_not_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ValidationError):
            load_chain(str(path))


class TestEnumeratePaths:
    def test_deterministic_absorbing_start(self):
        chain = BinaryMarkovChain((1.0, 0.0), ((1.0, 0.0), (0.0, 1.0)), 3)
        assert enumerate_paths(chain) == {"000": 1.0}

    def test_worked_example(self):
        expected = {"000": 0.5, "100": 0.25, "110": 0.125, "111": 0.125}
        assert enumerate_paths(worked_chain()) == pytest.approx(expected, abs=1e-15)

    def test_identity_from_state_one(self):
        chain = BinaryMarkovChain((0.0, 1.0), ((1.0, 0.0), (0.0, 1.0)), 3)
        assert enumerate_paths(chain) == {"111": 1.0}

    def test_against_brute_force(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            chain = random_chain(rng, steps=int(rng.integers(1, 7)))
            assert_dist_close(enumerate_paths(chain), brute_paths(chain), 1e-14)

    def test_step_limit(self):
        chain = BinaryMarkovChain(
            (1.0, 0.0), ((1.0, 0.0), (0.0, 1.0)), 25
        )
        with pytest.raises(CapacityError):
            enumerate_paths(chain)


class TestMarginal:
    def test_step_zero_is_initial(self):
        chain = worked_chain()
        assert marginal(chain, 0) == pytest.approx((0.5, 0.5))

    def test_symmetric_chain_mixes_in_one_step(self):
        chain = BinaryMarkovChain((0.9, 0.1), ((0.5, 0.5), (0.5, 0.5)), 2)
        assert marginal(chain, 1) == pytest.approx((0.5, 0.5))

    def test_two_step_by_hand(self):
        # lambda = (0, 1), p11 = 0.6, p01 = 0.2: P(X2 = 1) = 0.6*0.6 + 0.4*0.2
        chain = BinaryMarkovChain((0.0, 1.0), ((0.8, 0.2), (0.4, 0.6)), 3)
        assert marginal(chain, 2)[1] == pytest.approx(0.44, abs=1e-12)

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            marginal(worked_chain(3), 3)
        with pytest.raises(ValidationError):
            marginal(worked_chain(3), -1)

    def test_consistent_with_path_sums(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            chain = random_chain(rng, steps=int(rng.integers(1, 8)))
            paths = enumerate_paths(chain)
            for n in range(chain.steps):
                sums = [0.0, 0.0]
                for key, prob in paths.items():
                    sums[int(key[n])] += prob
                expected = marginal(chain, n)
                assert sums[0] == pytest.approx(expected[0], abs=1e-10)
                assert sums[1] == pytest.approx(expected[1], abs=1e-10)


class TestReturnProbability:
    def test_starts_at_one(self):
        assert return_probability(0.3, 0, 5) == 1.0

    def test_no_mutation(self):
        for n in range(10):
            assert return_probability(0.0, n, 4) == pytest.approx(1.0, abs=1e-12)

    def test_two_strains_by_hand(self):
        # recurrence p(n+1) = (1 - 2a) p(n) + a iterated twice from 1
        assert return_probability(0.2, 2, 2) == pytest.approx(0.68, abs=1e-12)

    def test_matches_marginal_for_two_strains(self):
        for alpha in np.linspace(0.0, 1.0, 11):
            chain = BinaryMarkovChain(
                (0.0, 1.0),
                ((1.0 - alpha, alpha), (alpha, 1.0 - alpha)),
                21,
            )
            for n in range(21):
                closed = return_probability(float(alpha), n, 2)
                assert closed == pytest.approx(marginal(chain, n)[1], abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValidationError):
            return_probability(0.5, 1, 1)
        with pytest.raises(ValidationError):
            return_probability(1.2, 1, 2)
        with pytest.raises(ValidationError):
            return_probability(0.5, -1, 2)


class TestHittingStats:
    def test_half_escape(self):
        chain = BinaryMarkovChain((0.5, 0.5), ((1.0, 0.0), (0.5, 0.5)), 2)
        prob, mean = hitting_stats(chain, 0)
        assert prob == 1.0
        assert mean == pytest.approx(2.0)

    def test_forced_transition(self):
        chain = BinaryMarkovChain((0.5, 0.5), ((1.0, 0.0), (1.0, 0.0)), 2)
        assert hitting_stats(chain, 0) == (1.0, 1.0)

    def test_unreachable(self):
        chain = BinaryMarkovChain((0.5, 0.5), ((1.0, 0.0), (0.0, 1.0)), 2)
        prob, mean = hitting_stats(chain, 0)
        assert prob == 0.0
        assert mean == math.inf

    def test_requires_absorbing(self):
        chain = BinaryMarkovChain((0.5, 0.5), ((0.9, 0.1), (0.5, 0.5)), 2)
        with pytest.raises(ValidationError):
            hitting_stats(chain, 0)

    def test_state_one(self):
        chain = BinaryMarkovChain((0.5, 0.5), ((0.75, 0.25), (0.0, 1.0)), 2)
        prob, mean = hitting_stats(chain, 1)
        assert prob == 1.0
        assert mean == pytest.approx(4.0)

    def test_state_out_of_range(self):
        chain = BinaryMarkovChain((0.5, 0.5), ((1.0, 0.0), (0.5, 0.5)), 2)
        with pytest.raises(ValidationError, match="absorbing_state must be 0 or 1"):
            hitting_stats(chain, 2)


class TestClassifyStates:
    def test_identity_both_absorbing(self):
        chain = BinaryMarkovChain((0.5, 0.5), ((1.0, 0.0), (0.0, 1.0)), 2)
        assert classify_states(chain) == (ABSORBING, ABSORBING)

    def test_absorbing_and_transient(self):
        chain = BinaryMarkovChain((0.5, 0.5), ((1.0, 0.0), (0.3, 0.7)), 2)
        assert classify_states(chain) == (ABSORBING, TRANSIENT)

    def test_symmetric_both_recurrent(self):
        chain = BinaryMarkovChain((0.5, 0.5), ((0.5, 0.5), (0.5, 0.5)), 2)
        assert classify_states(chain) == (RECURRENT, RECURRENT)


class TestCompile:
    def test_absorbing_shape(self):
        circuit = compile_to_circuit(worked_chain())
        assert circuit.num_qubits == 3
        assert len(circuit.ops) == 3 + 2 * 7
        assert all(op.name != "X" for op in circuit.ops)  # no anti blocks

    def test_single_step(self):
        circuit = compile_to_circuit(worked_chain(steps=1))
        assert [op.name for op in circuit.ops] == ["H", "U1", "H"]
        assert all(op.qubits == (0,) for op in circuit.ops)

    def test_initial_angle(self):
        circuit = compile_to_circuit(worked_chain())
        assert circuit.ops[1].angle == pytest.approx(math.acos(2 * 0.5 - 1))

    def test_pair_angles_encode_p11(self):
        p11 = 0.3
        chain = BinaryMarkovChain((0.5, 0.5), ((1.0, 0.0), (0.7, p11)), 3)
        circuit = compile_to_circuit(chain)
        lam = math.acos(2 * (1 - p11) - 1)
        pair = circuit.ops[3:10]
        angles = [op.angle for op in pair if op.name == "U1"]
        assert angles == pytest.approx([lam / 2, -lam / 2, lam / 2])

    def test_time_homogeneous_pair_blocks(self):
        chain = BinaryMarkovChain((0.3, 0.7), ((0.6, 0.4), (0.2, 0.8)), 5)
        circuit = compile_to_circuit(chain)
        per_pair = 7 + 9  # controlled + anti blocks
        blocks = [
            circuit.ops[3 + t * per_pair : 3 + (t + 1) * per_pair]
            for t in range(chain.steps - 1)
        ]
        reference = [(op.name, op.angle) for op in blocks[0]]
        for t, block in enumerate(blocks):
            assert [(op.name, op.angle) for op in block] == reference
            assert all(
                set(op.qubits) <= {t, t + 1} for op in block
            )

    def test_anti_block_only_when_needed(self):
        with_anti = compile_to_circuit(
            BinaryMarkovChain((0.5, 0.5), ((0.9, 0.1), (0.5, 0.5)), 2)
        )
        assert len(with_anti.ops) == 3 + 7 + 9
        without = compile_to_circuit(
            BinaryMarkovChain((0.5, 0.5), ((1.0, 0.0), (0.5, 0.5)), 2)
        )
        assert len(without.ops) == 3 + 7

    def test_capacity(self):
        chain = BinaryMarkovChain((1.0, 0.0), ((1.0, 0.0), (0.0, 1.0)), 25)
        with pytest.raises(CapacityError):
            compile_to_circuit(chain)

    @pytest.mark.parametrize("limit", [1, 3, 5])
    def test_one_capacity_for_every_entry_point(self, monkeypatch, limit):
        # The quantum route and its oracle accept and refuse the same widths.
        monkeypatch.setenv("QSIM_MAX_QUBITS", str(limit))
        for steps in (limit, limit + 1):
            chain = worked_chain(steps)
            entry_points = (
                lambda: compile_to_circuit(chain),
                lambda: execute(Circuit(steps, [])),
                lambda: enumerate_paths(chain),
            )
            for call in entry_points:
                if steps > limit:
                    with pytest.raises(CapacityError, match=f"capacity is {limit}"):
                        call()
                else:
                    call()

    def test_degenerate_start_stays_absorbed(self):
        chain = BinaryMarkovChain((1.0, 0.0), ((1.0, 0.0), (0.5, 0.5)), 3)
        probs = probabilities(execute(compile_to_circuit(chain)))
        assert probs.get("000", 0.0) == pytest.approx(1.0, abs=1e-12)


class TestQuantumClassicalEquivalence:
    def test_random_chains(self):
        rng = np.random.default_rng(4242)
        for _ in range(40):
            chain = random_chain(rng)
            quantum = probabilities(execute(compile_to_circuit(chain)))
            classical = enumerate_paths(chain)
            assert_dist_close(quantum, classical, 1e-10)

    def test_absorbing_support(self):
        rng = np.random.default_rng(99)
        for _ in range(10):
            p11 = float(rng.random())
            lam0 = float(rng.uniform(0.1, 0.9))
            chain = BinaryMarkovChain(
                (lam0, 1.0 - lam0), ((1.0, 0.0), (1.0 - p11, p11)), 4
            )
            quantum = probabilities(execute(compile_to_circuit(chain)))
            classical = enumerate_paths(chain)
            for key in set(quantum) | set(classical):
                if "01" in key:
                    assert quantum.get(key, 0.0) <= 1e-12
                    assert classical.get(key, 0.0) == 0.0
