"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one pass/fail line (visible with ``pytest -s``).
"""

import math
import time
from contextlib import contextmanager

import numpy as np
from conftest import assert_dist_close, random_chain, worked_chain
from hypothesis import given, settings
from hypothesis import strategies as st

from qmarkov import (
    BinaryMarkovChain,
    Circuit,
    NoiseModel,
    RotationOrder,
    compile_to_circuit,
    compose_sequence,
    controlled_nth_root_x,
    controlled_nth_root_x_sequence,
    counts_to_distribution,
    enumerate_paths,
    execute,
    hellinger_distance,
    hellinger_fidelity,
    marginal,
    nth_root_x,
    nth_root_x_sequence,
    probabilities,
    return_probability,
    sample_counts,
    solve_rotation_order,
    standard_gate,
    to_json_text,
)


@contextmanager
def criterion(num, description):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d}: FAIL - {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {num:2d}: PASS - {description} ({elapsed:.2f}s)")


def chain_corpus():
    """100 seeded random chains, N in 1..10, absorbing cases included."""
    rng = np.random.default_rng(20240814)
    chains = [random_chain(rng) for _ in range(100)]
    assert any(c.transition[0][1] == 0.0 for c in chains)
    assert any(c.transition[0][1] > 0.0 for c in chains)
    return chains


def test_criterion_1_gate_enclosure_identity():
    with criterion(1, "enclosure identity H.U1(lam).H = root-X matrix, 1e-12"):
        start = time.perf_counter()
        for lam in (math.pi, math.pi / 2, math.pi / 3, math.pi / 10,
                    math.pi / 100, 0.0):
            order = RotationOrder(lam)
            composed = compose_sequence(nth_root_x_sequence(order), 1)
            assert np.max(np.abs(composed - nth_root_x(order))) <= 1e-12
        assert time.perf_counter() - start < 1.0


def test_criterion_2_controlled_decomposition_identity():
    with criterion(2, "7-gate sequence = controlled block matrix, 1e-12"):
        start = time.perf_counter()
        rng = np.random.default_rng(52)
        for lam in rng.uniform(0.0, math.pi, 50):
            order = RotationOrder(float(lam))
            composed = compose_sequence(controlled_nth_root_x_sequence(order), 2)
            assert np.max(np.abs(composed - controlled_nth_root_x(order))) <= 1e-12
        cnot_case = compose_sequence(
            controlled_nth_root_x_sequence(RotationOrder(math.pi)), 2
        )
        assert np.max(np.abs(cnot_case - standard_gate("CNOT"))) <= 1e-15
        assert time.perf_counter() - start < 1.0


def test_criterion_3_solver_round_trip():
    with criterion(3, "solver round trip on 101-point p0 grid, 1e-10"):
        start = time.perf_counter()
        for p0 in np.linspace(0.0, 1.0, 101):
            order = solve_rotation_order(float(p0))
            state = execute(Circuit(1, nth_root_x_sequence(order)))
            recovered = probabilities(state).get("0", 0.0)
            assert abs(recovered - p0) <= 1e-10
        assert time.perf_counter() - start < 1.0


def test_criterion_4_quantum_classical_equivalence():
    with criterion(4, "statevector vs path enumeration on 100 random chains, 1e-10"):
        start = time.perf_counter()
        for chain in chain_corpus():
            quantum = probabilities(execute(compile_to_circuit(chain)))
            classical = enumerate_paths(chain)
            assert_dist_close(quantum, classical, 1e-10)
        assert time.perf_counter() - start < 30.0


# About a fifth of the parameters sit on values where rounding is hardest:
# the endpoints, a step below 1, and magnitudes that vanish in a product.
chain_parameters = st.tuples(st.integers(0, 4), st.floats(0.0, 1.0),
                             st.sampled_from([0.0, 1.0, 1e-17, 1 - 1e-16, 1e-300]))


@given(st.integers(1, 12), st.lists(chain_parameters, min_size=3, max_size=3))
@settings(max_examples=300, deadline=None)
def test_quantum_matches_oracle_within_1e_12(steps, drawn):
    """The quantum route agrees with the oracle on every chain of 1-12
    steps: each entry within 1e-12, and at most 1e-24 of quantum mass on
    trajectories the oracle gives probability exactly 0."""
    p0, p01, p11 = (special if pick == 0 else plain for pick, plain, special in drawn)
    chain = BinaryMarkovChain((p0, 1.0 - p0), ((1.0 - p01, p01), (1.0 - p11, p11)), steps)
    quantum, oracle = np.zeros((2, 1 << steps))
    result = probabilities(execute(compile_to_circuit(chain)))
    quantum[result.support] = result.probs
    paths = enumerate_paths(chain)
    oracle[paths.support] = paths.probs
    assert np.max(np.abs(quantum - oracle)) <= 1e-12
    assert quantum[oracle == 0.0].sum() <= 1e-24


def test_criterion_5_worked_example():
    with criterion(5, "3-step absorbing worked example, 1e-12"):
        chain = worked_chain()
        expected = {"000": 0.5, "100": 0.25, "110": 0.125, "111": 0.125}
        classical = enumerate_paths(chain)
        assert classical == expected
        quantum = probabilities(execute(compile_to_circuit(chain)))
        assert_dist_close(quantum, expected, 1e-12)
        for key, prob in quantum.items():
            if "01" in key:
                assert prob <= 1e-12


def test_criterion_6_marginal_consistency():
    with criterion(6, "path-sum marginals = lambda P^n; return-probability grid"):
        for chain in chain_corpus():
            paths = enumerate_paths(chain)
            for n in range(chain.steps):
                sums = [0.0, 0.0]
                for key, prob in paths.items():
                    sums[int(key[n])] += prob
                expected = marginal(chain, n)
                assert abs(sums[0] - expected[0]) <= 1e-10
                assert abs(sums[1] - expected[1]) <= 1e-10
        for alpha in np.linspace(0.0, 1.0, 11):
            chain = BinaryMarkovChain(
                (0.0, 1.0),
                ((1.0 - alpha, alpha), (alpha, 1.0 - alpha)),
                21,
            )
            for n in range(21):
                closed = return_probability(float(alpha), n, 2)
                assert abs(closed - marginal(chain, n)[1]) <= 1e-12


def test_criterion_7_hellinger_suite():
    with criterion(7, "Hellinger bounds, symmetry, complement, triangle, hand pair"):
        rng = np.random.default_rng(777)
        keys = [format(i, "03b") for i in range(8)]

        def draw():
            raw = rng.random(8) + 1e-9
            raw /= raw.sum()
            return dict(zip(keys, raw))

        for _ in range(1000):
            p, q, r = draw(), draw(), draw()
            d = hellinger_distance(p, q)
            assert 0.0 <= d <= 1.0
            assert abs(d - hellinger_distance(q, p)) <= 1e-15
            assert abs(hellinger_fidelity(p, q) + d - 1.0) <= 1e-15
            assert hellinger_distance(p, p) == 0.0
            assert hellinger_distance(p, r) <= (
                d + hellinger_distance(q, r) + 1e-12
            )
        hand = hellinger_distance({"0": 0.5, "1": 0.5}, {"0": 1.0})
        assert abs(hand - 0.541196) <= 1e-6


def test_criterion_8_sampling_regime():
    with criterion(8, "8192-shot fidelity >= 0.99, byte-for-byte per seed"):
        chain = worked_chain()
        state = execute(compile_to_circuit(chain))
        exact = enumerate_paths(chain)
        for seed in (1, 2, 3, 4, 5):
            counts = sample_counts(state, 8192, seed)
            fid = hellinger_fidelity(exact, counts_to_distribution(counts))
            assert fid >= 0.99
            again = sample_counts(state, 8192, seed)
            assert to_json_text(counts) == to_json_text(again)


def test_criterion_9_noise_degradation():
    with criterion(9, "zero noise exact; mean fidelity decreases with readout noise"):
        chain = worked_chain()
        circuit = compile_to_circuit(chain)
        plain = probabilities(execute(circuit))
        zero_noise = probabilities(execute(circuit, noise=NoiseModel(0.0, 0.0)))
        assert abs(hellinger_fidelity(plain, zero_noise) - 1.0) <= 1e-9

        state = execute(circuit)
        exact = enumerate_paths(chain)
        means = []
        for level in (0.0, 0.02, 0.05, 0.1):
            noise = NoiseModel(0.0, level)
            fids = [
                hellinger_fidelity(
                    exact,
                    counts_to_distribution(sample_counts(state, 8192, seed, noise)),
                )
                for seed in range(20)
            ]
            means.append(float(np.mean(fids)))
        assert means[0] > means[1] > means[2] > means[3]
        assert 0.5 < means[2] < 1.0  # readout 0.05 brackets the reference range


def test_criterion_10_performance():
    with criterion(10, "20-step chain compiles and executes in under 5s"):
        chain = BinaryMarkovChain((0.3, 0.7), ((0.6, 0.4), (0.2, 0.8)), 20)
        start = time.perf_counter()
        circuit = compile_to_circuit(chain)
        state = execute(circuit)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0
        assert state.amplitudes.size == 1 << 20
        assert state.amplitudes.nbytes == (1 << 20) * 16  # one amplitude buffer
        assert abs(np.linalg.norm(state.amplitudes) - 1.0) <= 1e-10
