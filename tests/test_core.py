"""Statevector kernels, circuit execution, noise, and sampling."""

import functools
import json
import math
import operator
import struct
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_chain
from qmarkov import cli, core
from qmarkov import (
    BinaryMarkovChain,
    CapacityError,
    Circuit,
    Counts,
    Distribution,
    GateOp,
    NoiseModel,
    RotationOrder,
    Statevector,
    ValidationError,
    compile_to_circuit,
    controlled_nth_root_x_sequence,
    execute,
    hellinger_fidelity,
    probabilities,
    remap_qubits,
    sample_counts,
    standard_gate,
)
from qmarkov.analysis import counts_to_distribution, to_json_text

X = standard_gate("X")
ZERO = Statevector(1, np.array([1.0, 0.0]))


def random_state(rng, num_qubits):
    raw = rng.standard_normal(1 << num_qubits) + 1j * rng.standard_normal(
        1 << num_qubits
    )
    return Statevector(num_qubits, raw / np.linalg.norm(raw))


def run(num_qubits, *ops, **kwargs):
    """Amplitudes of ``execute`` on a circuit of the given primitives."""
    return execute(Circuit(num_qubits, list(ops)), **kwargs).amplitudes


class TestInit:
    def test_one_qubit(self):
        np.testing.assert_array_equal(run(1), [1, 0])

    def test_three_qubits(self):
        amps = run(3)
        assert amps[0] == 1.0
        assert not amps[1:].any()

    def test_capacity_default(self):
        with pytest.raises(CapacityError):
            run(25)

    def test_capacity_env_bounds(self, monkeypatch):
        # The range ends are limits like any other; outside it the value is
        # refused before a register is sized.
        monkeypatch.setenv("QSIM_MAX_QUBITS", "1")
        with pytest.raises(CapacityError):
            run(2)
        assert len(run(1)) == 2
        monkeypatch.setenv("QSIM_MAX_QUBITS", "58")
        assert len(run(4)) == 16
        for value in ("0", "59"):
            monkeypatch.setenv("QSIM_MAX_QUBITS", value)
            with pytest.raises(ValidationError, match=r"\[1, 58\]"):
                run(1)

    def test_capacity_env(self, monkeypatch):
        monkeypatch.setenv("QSIM_MAX_QUBITS", "3")
        with pytest.raises(CapacityError):
            run(4)
        assert len(run(3)) == 8

    def test_capacity_env_malformed(self, monkeypatch):
        monkeypatch.setenv("QSIM_MAX_QUBITS", "many")
        with pytest.raises(ValidationError):
            run(2)


class TestStatevectorInvariants:
    def test_length_enforced(self):
        with pytest.raises(ValidationError):
            Statevector(2, np.array([1.0, 0.0]))

    def test_norm_enforced(self):
        with pytest.raises(ValidationError):
            Statevector(1, np.array([1.0, 1.0]))

    def test_num_qubits_positive(self):
        with pytest.raises(ValidationError, match="num_qubits must be >= 1"):
            Statevector(0, np.array([1.0]))

    def test_constructor_checks_what_execute_skips(self):
        with pytest.raises(ValidationError):
            Statevector(3, np.full(8, 1.0 / math.sqrt(8)) * (1 + 1e-9))
        with pytest.raises(ValidationError):
            Statevector(2, np.eye(2) / math.sqrt(2))
        state = execute(Circuit(3, [GateOp("H", (0,)), GateOp("CNOT", (0, 2))]))
        assert Statevector(3, state.amplitudes).num_qubits == 3

    def test_execute_keeps_unit_norm_on_compiled_chains(self):
        rng = np.random.default_rng(16)
        for steps in range(1, 17):
            state = execute(compile_to_circuit(random_chain(rng, steps=steps)))
            assert state.amplitudes.shape == (1 << steps,)
            assert abs(np.linalg.norm(state.amplitudes) - 1.0) <= 1e-12


class TestApplySingle:
    def test_x_on_zero(self):
        np.testing.assert_array_equal(run(1, GateOp("X", (0,))), [0, 1])

    def test_phase_on_superposition(self):
        amps = run(1, GateOp("H", (0,)), GateOp("U1", (0,), math.pi / 3))
        expected = np.array(
            [1 / math.sqrt(2), np.exp(1j * math.pi / 3) / math.sqrt(2)]
        )
        np.testing.assert_allclose(amps, expected, atol=1e-15)


class TestApplyTwo:
    def test_cnot_flips_target(self):
        # |10> (control q0 set) -> |11>
        amps = run(2, GateOp("X", (0,)), GateOp("CNOT", (0, 1)))
        np.testing.assert_allclose(amps, [0, 0, 0, 1], atol=1e-15)

    def test_cnot_identity_on_clear_control(self):
        np.testing.assert_array_equal(run(2, GateOp("CNOT", (0, 1))), [1, 0, 0, 0])

    def test_controlled_half_turn_on_10(self):
        seq = controlled_nth_root_x_sequence(RotationOrder(math.pi / 2))
        amps = run(2, GateOp("X", (0,)), *remap_qubits(seq, (0, 1)))
        np.testing.assert_allclose(
            amps, [0, 0, (1 + 1j) / 2, (1 - 1j) / 2], atol=1e-15
        )


def dense_single(gate, target, num_qubits):
    """Independent construction: explicit Kronecker chain, q0 leftmost."""
    out = np.array([[1.0]], dtype=complex)
    for q in range(num_qubits):
        out = np.kron(out, gate if q == target else np.eye(2, dtype=complex))
    return out


def dense_two(gate, control, target, num_qubits):
    """Independent construction: per-column bit surgery on basis states."""
    dim = 1 << num_qubits
    out = np.zeros((dim, dim), dtype=complex)
    cpos = num_qubits - 1 - control
    tpos = num_qubits - 1 - target
    for col in range(dim):
        bc = (col >> cpos) & 1
        bt = (col >> tpos) & 1
        sub = 2 * bc + bt
        for new_sub in range(4):
            entry = gate[new_sub, sub]
            if entry == 0:
                continue
            row = col & ~(1 << cpos) & ~(1 << tpos)
            row |= (new_sub >> 1) << cpos
            row |= (new_sub & 1) << tpos
            out[row, col] += entry
    return out


def dense_op(op, num_qubits):
    """The dense oracle matrix of one primitive."""
    if op.name == "CNOT":
        return dense_two(op.matrix(), *op.qubits, num_qubits)
    return dense_single(op.matrix(), op.qubits[0], num_qubits)


def zero_state(num_qubits):
    state = np.zeros(1 << num_qubits, dtype=complex)
    state[0] = 1.0
    return state


class TestKernelsAgainstDenseOracle:
    @staticmethod
    def check_prefixes(num_qubits, ops):
        """``execute`` on every prefix of ``ops`` against the dense oracle."""
        expected = zero_state(num_qubits)
        for stop, op in enumerate(ops, 1):
            expected = dense_op(op, num_qubits) @ expected
            np.testing.assert_allclose(
                run(num_qubits, *ops[:stop]), expected, atol=1e-12, rtol=0
            )

    @staticmethod
    def spread(rng, num_qubits):
        """H then a random phase on every qubit: a state with no zero amplitude."""
        ops = [GateOp("H", (q,)) for q in range(num_qubits)]
        ops += [
            GateOp("U1", (q,), float(rng.uniform(-math.pi, math.pi)))
            for q in range(num_qubits)
        ]
        return ops

    def test_single_qubit_kernels(self):
        # Every single-qubit kernel on every target, in shuffled order.
        rng = np.random.default_rng(21)
        for num_qubits in range(1, 6):
            cover = [GateOp(name, (q,)) for q in range(num_qubits) for name in ("H", "X")]
            cover += [
                GateOp("U1", (q,), float(rng.uniform(-math.pi, math.pi)))
                for q in range(num_qubits)
            ]
            ops = self.spread(rng, num_qubits)
            for _ in range(2):
                ops += [cover[i] for i in rng.permutation(len(cover))]
            self.check_prefixes(num_qubits, ops)

    def test_two_qubit_kernels(self):
        # CNOT on every ordered control/target pair, in shuffled order,
        # interleaved with H so the entangled state keeps changing.
        rng = np.random.default_rng(22)
        for num_qubits in range(2, 6):
            cover = [
                GateOp("CNOT", (c, t))
                for c in range(num_qubits)
                for t in range(num_qubits)
                if c != t
            ]
            ops = self.spread(rng, num_qubits)
            for i in rng.permutation(len(cover)):
                ops += [cover[i], GateOp("H", (int(rng.integers(num_qubits)),))]
            self.check_prefixes(num_qubits, ops)


class TestProbabilities:
    def test_equal_superposition(self):
        probs = probabilities(execute(Circuit(1, [GateOp("H", (0,))])))
        assert probs["0"] == pytest.approx(0.5)
        assert probs["1"] == pytest.approx(0.5)

    def test_basis_state_omits_zero_entries(self):
        assert probabilities(execute(Circuit(1, []))) == {"0": 1.0}

    def test_complex_pair(self):
        state = Statevector(1, np.array([(1 + 1j) / 2, (1 - 1j) / 2]))
        probs = probabilities(state)
        # |1 +- i|^2 / 4 = 0.5 by direct arithmetic
        assert probs["0"] == pytest.approx(0.5, abs=1e-15)
        assert probs["1"] == pytest.approx(0.5, abs=1e-15)

    def test_sum_to_one(self):
        rng = np.random.default_rng(5)
        state = random_state(rng, 4)
        assert sum(probabilities(state).values()) == pytest.approx(1.0, abs=1e-10)


class TestSquaredMagnitudes:
    """|a|^2 a chunk at a time (``core._squared_magnitudes``, shared by
    ``probabilities`` and the sampling CDF) against the whole-array
    ``np.abs(a) ** 2``, bit for bit: ``np.abs`` is SIMD-dispatched, so CI
    also runs these at numpy's baseline level."""

    @staticmethod
    def amplitudes(size):
        # Magnitudes from subnormals to near 1, and exact zeros.
        rng = np.random.default_rng(size)
        scale = 10.0 ** rng.integers(-320, 1, size)
        amps = (rng.standard_normal(size) + 1j * rng.standard_normal(size)) * scale
        amps[rng.random(size) < 0.1] = 0.0
        return amps

    @pytest.mark.parametrize("size", [*(1 << n for n in range(1, 19)), core._CHUNK - 1,
                                      core._CHUNK + 1, 3 * core._CHUNK + 5])
    def test_matches_whole_array(self, size):
        amps = self.amplitudes(size)
        whole = (np.abs(amps) ** 2).tobytes()
        assert core._squared_magnitudes(amps, np.empty(size)).tobytes() == whole
        # Into the amplitudes' own memory: float slot i overlaps amplitude i // 2.
        own = amps.copy()
        out = core._squared_magnitudes(own, own.view(np.float64)[:size])
        assert np.shares_memory(out, own)
        assert out.tobytes() == whole

    def test_probabilities_into_the_state(self):
        # The public function leaves the state as it was; the CLI's form
        # writes into the state's memory and gives the same arrays.
        n = 15
        amps = self.amplitudes(1 << n)
        state = Statevector._unchecked(n, amps)
        before = amps.tobytes()
        public = probabilities(state)
        assert amps.tobytes() == before
        want = Distribution.from_vector(n, np.abs(amps) ** 2)
        inside = core._probabilities(state, amps.view(np.float64)[: 1 << n])
        for result in (public, inside):
            assert np.array_equal(result.support, want.support)
            assert result.probs.tobytes() == want.probs.tobytes()


class TestExecute:
    def test_empty_circuit(self):
        state = execute(Circuit(2, []))
        np.testing.assert_array_equal(state.amplitudes, [1, 0, 0, 0])

    def test_single_hadamard(self):
        state = execute(Circuit(1, [GateOp("H", (0,))]))
        np.testing.assert_allclose(
            state.amplitudes, [1 / math.sqrt(2), 1 / math.sqrt(2)], atol=1e-15
        )

    def test_left_to_right_order(self):
        # X then CNOT differs from CNOT then X on the control
        ops = [GateOp("X", (0,)), GateOp("CNOT", (0, 1))]
        state = execute(Circuit(2, ops))
        np.testing.assert_allclose(state.amplitudes, [0, 0, 0, 1], atol=1e-15)
        state = execute(Circuit(2, ops[::-1]))
        np.testing.assert_allclose(state.amplitudes, [0, 0, 1, 0], atol=1e-15)

    def test_matches_public_kernels(self):
        # execute against the product of the public GateOp matrices.
        rng = np.random.default_rng(31)
        ops = []
        for _ in range(10):
            kind = rng.integers(4)
            if kind == 0:
                ops.append(GateOp("H", (int(rng.integers(3)),)))
            elif kind == 1:
                ops.append(GateOp("X", (int(rng.integers(3)),)))
            elif kind == 2:
                ops.append(GateOp("U1", (int(rng.integers(3)),), float(rng.random())))
            else:
                c, t = rng.choice(3, size=2, replace=False)
                ops.append(GateOp("CNOT", (int(c), int(t))))
        expected = zero_state(3)
        for op in ops:
            expected = dense_op(op, 3) @ expected
        np.testing.assert_allclose(run(3, *ops), expected, atol=1e-12, rtol=0)

    def test_noiseless_deterministic(self):
        ops = [GateOp("H", (0,)), GateOp("CNOT", (0, 1)), GateOp("U1", (1,), 0.4)]
        a = execute(Circuit(2, ops))
        b = execute(Circuit(2, ops))
        assert np.array_equal(a.amplitudes, b.amplitudes)

    def test_noisy_requires_seed(self):
        with pytest.raises(ValidationError):
            execute(Circuit(1, [GateOp("H", (0,))]), noise=NoiseModel(0.1, 0.0))

    def test_noisy_reproducible(self):
        circuit = Circuit(2, [GateOp("H", (0,)), GateOp("CNOT", (0, 1))])
        noise = NoiseModel(0.3, 0.0)
        a = execute(circuit, noise=noise, rng_seed=99)
        b = execute(circuit, noise=noise, rng_seed=99)
        assert np.array_equal(a.amplitudes, b.amplitudes)

    def test_noisy_matches_replay(self):
        # Documented draw order: after each primitive, one uniform per touched
        # qubit (control first), an X on that qubit when it is below p.
        ops = [
            GateOp("H", (0,)),
            GateOp("H", (2,)),
            GateOp("CNOT", (0, 1)),
            GateOp("U1", (1,), 0.7),
            GateOp("CNOT", (2, 0)),
            GateOp("H", (1,)),
            GateOp("CNOT", (1, 2)),
            GateOp("U1", (0,), -1.1),
            GateOp("CNOT", (2, 1)),
        ]
        noiseless = run(3, *ops)
        flipped_seeds = 0
        for seed in (0, 1, 2, 3, 4):
            draws = np.random.default_rng(seed)
            expected = zero_state(3)
            for op in ops:
                expected = dense_op(op, 3) @ expected
                for q in op.qubits:
                    if draws.random() < 0.3:
                        expected = dense_single(X, q, 3) @ expected
            amps = run(3, *ops, noise=NoiseModel(0.3, 0.0), rng_seed=seed)
            np.testing.assert_allclose(amps, expected, atol=1e-12, rtol=0)
            flipped_seeds += not np.allclose(amps, noiseless, atol=1e-12)
        assert flipped_seeds >= 3

    def test_zero_noise_model_is_noiseless(self):
        circuit = Circuit(2, [GateOp("H", (0,)), GateOp("CNOT", (0, 1))])
        plain = execute(circuit)
        with_model = execute(circuit, noise=NoiseModel(0.0, 0.0))
        assert np.array_equal(plain.amplitudes, with_model.amplitudes)

    def test_certain_flip(self):
        # gate_flip_prob = 1 flips the touched qubit right back after X
        state = execute(
            Circuit(1, [GateOp("X", (0,))]), noise=NoiseModel(1.0, 0.0), rng_seed=0
        )
        np.testing.assert_allclose(state.amplitudes, [1, 0], atol=1e-15)

    def test_capacity(self, monkeypatch):
        monkeypatch.setenv("QSIM_MAX_QUBITS", "2")
        with pytest.raises(CapacityError):
            execute(Circuit(3, []))

    def test_norm_preserved_random_circuits(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            num_qubits = int(rng.integers(1, 7))
            ops = []
            for _ in range(int(rng.integers(0, 11))):
                kind = rng.integers(4)
                if kind == 0:
                    ops.append(GateOp("H", (int(rng.integers(num_qubits)),)))
                elif kind == 1:
                    ops.append(GateOp("X", (int(rng.integers(num_qubits)),)))
                elif kind == 2:
                    ops.append(
                        GateOp(
                            "U1",
                            (int(rng.integers(num_qubits)),),
                            float(rng.uniform(-math.pi, math.pi)),
                        )
                    )
                elif num_qubits >= 2:
                    c, t = rng.choice(num_qubits, size=2, replace=False)
                    ops.append(GateOp("CNOT", (int(c), int(t))))
            state = execute(Circuit(num_qubits, ops))
            assert abs(np.linalg.norm(state.amplitudes) - 1.0) <= 1e-12


# Per-op kernels on the full register, frozen here so the full-width
# reference keeps this arithmetic whatever ``core`` becomes.
def reference_u1(amps, angle, target):
    view = amps.reshape(1 << target, 2, -1)
    view[:, 1, :] *= np.exp(1j * angle)


def reference_x(amps, target, scratch):
    view = amps.reshape(1 << target, 2, -1)
    half = scratch[: view[:, 0, :].size].reshape(view[:, 0, :].shape)
    np.copyto(half, view[:, 0, :])
    view[:, 0, :] = view[:, 1, :]
    view[:, 1, :] = half


def reference_h(amps, target, scratch):
    view = amps.reshape(1 << target, 2, -1)
    lower = view[:, 0, :]
    upper = view[:, 1, :]
    diff = scratch[: lower.size].reshape(lower.shape)
    np.subtract(lower, upper, out=diff)
    lower += upper
    lower *= 1.0 / math.sqrt(2.0)
    np.multiply(diff, 1.0 / math.sqrt(2.0), out=upper)


def reference_cnot(amps, control, target, scratch):
    lo, hi = (control, target) if control < target else (target, control)
    view = amps.reshape(1 << lo, 2, 1 << (hi - lo - 1), 2, -1)
    if control < target:
        src = view[:, 1, :, 0, :]
        dst = view[:, 1, :, 1, :]
    else:
        src = view[:, 0, :, 1, :]
        dst = view[:, 1, :, 1, :]
    quarter = scratch[: src.size].reshape(src.shape)
    np.copyto(quarter, src)
    src[:] = dst
    dst[:] = quarter


def full_width_execute(circuit, noise=None, rng_seed=None):
    """Reference for ``execute``: every op, and every noise flip, on the full
    2**n buffer with the frozen kernels and the same draw order."""
    amps = zero_state(circuit.num_qubits)
    scratch = np.empty(max(1, amps.size // 2), dtype=complex)
    flip_prob = noise.gate_flip_prob if noise is not None else 0.0
    rng = np.random.default_rng(rng_seed) if flip_prob > 0.0 else None
    for op in circuit.ops:
        if op.name == "H":
            reference_h(amps, op.qubits[0], scratch)
        elif op.name == "U1":
            reference_u1(amps, op.angle, op.qubits[0])
        elif op.name == "X":
            reference_x(amps, op.qubits[0], scratch)
        else:
            reference_cnot(amps, op.qubits[0], op.qubits[1], scratch)
        if rng is not None:
            for q in op.qubits:
                if rng.random() < flip_prob:
                    reference_x(amps, q, scratch)
    return amps


def touching_in_order(rng, num_qubits, order):
    """Random primitives that first touch the qubits of ``order`` in that
    order, each first touch followed by a few ops on the qubits touched so far."""
    ops = []
    for k in range(len(order)):
        touched = [int(x) for x in order[: k + 1]]
        q = touched[-1]
        for _ in range(int(rng.integers(1, 5))):
            others = [x for x in touched if x != q]
            kind = int(rng.integers(4 if others else 3))
            if kind == 0:
                ops.append(GateOp("H", (q,)))
            elif kind == 1:
                ops.append(GateOp("X", (q,)))
            elif kind == 2:
                ops.append(GateOp("U1", (q,), float(rng.uniform(-math.pi, math.pi))))
            else:
                other = others[int(rng.integers(len(others)))]
                ops.append(GateOp("CNOT", (other, q) if rng.random() < 0.5 else (q, other)))
            q = touched[int(rng.integers(len(touched)))]
    return Circuit(num_qubits, ops)


class TestGrowingPrefix:
    """``execute`` runs ops only on the qubits touched so far, in runs on one
    or two qubits, chunk by chunk; the result must equal the full-width run
    bit for bit."""

    NOISES = (None, NoiseModel(0.2, 0.0))

    def assert_same_as_full_width(self, circuit, seeds=(0, 1, 2), signed_zeros=True):
        # Without ``signed_zeros``, -0.0 and +0.0 compare equal: an amplitude
        # that stays exactly zero gets its sign from ops the prefix never
        # runs (U1 with a negative cosine on a zero), which no output shows.
        for noise in self.NOISES:
            for seed in seeds:
                state = execute(circuit, noise=noise, rng_seed=seed)
                ref = Statevector(
                    circuit.num_qubits, full_width_execute(circuit, noise, seed)
                )
                got, want = state.amplitudes, ref.amplitudes
                if not signed_zeros:
                    got, want = got + 0.0, want + 0.0
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
                assert (
                    dict(sample_counts(state, 1024, seed))
                    == dict(sample_counts(ref, 1024, seed))
                )

    def test_compiled_chains(self):
        rng = np.random.default_rng(41)
        for steps in range(1, 13):
            self.assert_same_as_full_width(compile_to_circuit(random_chain(rng, steps)))

    def test_compiled_chain_in_several_chunks(self):
        # n = 18: the last run spans 2**18 amplitudes, 16 chunks.
        assert (1 << 18) // core._CHUNK == 16
        chain = BinaryMarkovChain((0.3, 0.7), ((0.6, 0.4), (0.2, 0.8)), 18)
        self.assert_same_as_full_width(compile_to_circuit(chain), seeds=(5,))
        # Runs on other pairs, after H on every qubit: 16 chunks each, cut
        # across the inner axis (q1, q2), the middle one (q0, q17) and the
        # outer one (q5, q6 and q8, q12).
        ops = [GateOp("H", (q,)) for q in range(18)]
        for a, b in ((1, 2), (0, 17), (5, 6), (8, 12)):
            ops += [
                GateOp("U1", (a,), 0.1 * b - 0.7),
                GateOp("CNOT", (a, b)),
                GateOp("H", (b,)),
                GateOp("X", (a,)),
                GateOp("U1", (b,), 2.3 - 0.2 * a),
                GateOp("CNOT", (b, a)),
                GateOp("H", (a,)),
            ]
        self.assert_same_as_full_width(Circuit(18, ops), seeds=(5,))

    def test_touch_orders(self):
        rng = np.random.default_rng(42)
        for num_qubits in range(1, 7):
            top_first = [num_qubits - 1, *rng.permutation(num_qubits - 1)]
            some = rng.permutation(num_qubits)[: int(rng.integers(1, num_qubits + 1))]
            for order in (
                top_first,
                list(range(num_qubits - 1, -1, -1)),
                rng.permutation(num_qubits),
                some,
            ):
                self.assert_same_as_full_width(
                    touching_in_order(rng, num_qubits, order), signed_zeros=False
                )

    def test_empty_circuit(self):
        for num_qubits in (1, 2, 5):
            self.assert_same_as_full_width(Circuit(num_qubits, []))

    @staticmethod
    def record_kernels(monkeypatch):
        """Record each ``_block`` run as (ops, amplitudes, fresh qubits) and
        each ``_grow`` as (width, new width)."""
        runs, grows = [], []

        def block(state, width, ops, fresh=0, kernel=core._block):
            runs.append((len(ops), state.size, fresh))
            kernel(state, width, ops, fresh)

        def grow(amps, width, new_width, spread=core._grow):
            grows.append((width, new_width))
            spread(amps, width, new_width)

        monkeypatch.setattr(core, "_block", block)
        monkeypatch.setattr(core, "_grow", grow)
        return runs, grows

    def test_work_follows_touched_qubits(self, monkeypatch):
        runs, grows = self.record_kernels(monkeypatch)
        chain = BinaryMarkovChain((0.3, 0.7), ((0.6, 0.4), (0.2, 0.8)), 12)
        execute(compile_to_circuit(chain))
        # The initial rotation acts on q0 alone; pair block t is 16 ops on
        # q_t and q_t+1, the first of which is on q_t+1.  Block 0 (four
        # amplitudes, width 2) runs one op at a time, every later block as
        # one run.
        assert runs[:3] == [(1, 2, 1)] + [(1, 2, 0)] * 2
        assert runs[3:19] == [(1, 4, 1)] + [(1, 4, 0)] * 15
        assert runs[19:] == [(16, 1 << (t + 2), 1) for t in range(1, 11)]
        # Full width every op would be 16 * 11 * 2**12 + 3 * 2**12.
        assert sum(ops * size for ops, size, _ in runs) == sum(16 << (t + 2) for t in range(11)) + 3 * 2
        # Each run that adds a qubit acts on it and on the qubits just
        # below, so its gather does the growth and _grow never runs.
        assert grows == []

    def test_growth_outside_the_fold(self, monkeypatch):
        # H on q0..q14 and a phase on each, then ops whose growth the run's
        # gather cannot do; each circuit spans several chunks.
        ops = [op for q in range(15) for op in (GateOp("H", (q,)), GateOp("U1", (q,), 0.1 * q - 0.6))]
        cases = [
            # Grows by q15 and q16, but the run is on q16 and q3.
            (17, [GateOp("H", (16,)), GateOp("CNOT", (16, 3)), GateOp("H", (3,))], [(15, 17)]),
            # Grows by q15, q16 and q17, with the run on the lowest bits, q16
            # and q17, but not on q15.
            (18, [GateOp("H", (17,)), GateOp("CNOT", (17, 16)), GateOp("H", (16,))], [(15, 18)]),
            # Grows by q15 only, with the run on q0 and q15: not the lowest bits.
            (16, [GateOp("CNOT", (0, 15)), GateOp("H", (15,)), GateOp("U1", (0,), 1.1)], [(15, 16)]),
            # Grows by q15 in a run of its own, then the final spread to 17.
            (17, [GateOp("H", (15,)), GateOp("U1", (15,), -0.4)], [(16, 17)]),
        ]
        _, grows = self.record_kernels(monkeypatch)
        for num_qubits, tail, wanted in cases:
            grows.clear()
            self.assert_same_as_full_width(Circuit(num_qubits, ops + tail), seeds=(4,))
            assert grows == wanted * len(self.NOISES)

    @pytest.mark.parametrize(
        "width, fresh, specs",
        [
            (16, 1, [("X", 1)]),  # a relabel alone moves the filled rows into place
            (16, 1, [("CNOT", 0, 1)]),
            (16, 1, [("H", 1), ("U1", 0), ("CNOT", 1, 0), ("H", 0), ("X", 1), ("U1", 1)]),
            (16, 1, [("U1", 1), ("H", 0), ("CNOT", 0, 1), ("H", 1)]),
            (16, 2, [("CNOT", 0, 1), ("H", 1), ("X", 0), ("U1", 0)]),
            (16, 2, [("H", 0), ("H", 1)]),
            (3, 1, [("H", 1), ("CNOT", 1, 0), ("U1", 0)]),  # one chunk
            (2, 2, [("CNOT", 0, 1), ("H", 1)]),  # 0-d columns
            (1, 1, [("H", 1)]),
        ],
    )
    def test_folded_run_matches_grow_then_run(self, width, fresh, specs):
        # The folded gather must give the state _grow then the run give, to
        # the bit.  The old prefix holds zeros of each sign, which a wrong
        # fill or a clobbered read would change; above it lies garbage both
        # must overwrite.  At width 16 the run spans four chunks.
        rng = np.random.default_rng(width * 10 + fresh)
        # Offset d is qubit width - 2 + d, so the run is on the lowest bits.
        ops = [GateOp(name, tuple(width - 2 + d for d in offsets), *[0.7] * (name == "U1"))
               for name, *offsets in specs]
        old = 1 << (width - fresh)
        start = np.full(1 << width, np.nan + 1j * np.nan)
        start[:old] = rng.standard_normal(old) + 1j * rng.standard_normal(old)
        for zero in (0.0, -0.0, complex(0.0, -0.0), complex(-0.0, -0.0)):
            start[rng.integers(old, size=max(1, old // 16))] = zero
        folded, grown = start.copy(), start.copy()
        core._block(folded, width, ops, fresh)
        core._grow(grown, width - fresh, width)
        core._block(grown, width, ops)
        assert np.array_equal(folded.view(np.uint64), grown.view(np.uint64))

    @staticmethod
    def traced_peak(run_it):
        tracemalloc.start()
        try:
            run_it()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_memory_is_state_plus_scratch(self):
        # H and U1 on each qubit in turn: one growth step per op pair, and
        # runs on the newest qubit, which copy nothing of size.
        ops = [op for q in range(16) for op in (GateOp("H", (q,)), GateOp("U1", (q,), 0.3))]
        ladder = Circuit(16, ops)
        assert self.traced_peak(lambda: execute(ladder)) <= 1.5 * 16 * (1 << 16) + 64 * 1024
        # On a compiled chain the bound is the full-width loop's own peak,
        # which holds a half-state scratch.
        chain = BinaryMarkovChain((0.3, 0.7), ((0.6, 0.4), (0.2, 0.8)), 16)
        circuit = compile_to_circuit(chain)
        reference = self.traced_peak(lambda: full_width_execute(circuit))
        assert self.traced_peak(lambda: execute(circuit)) <= reference + 64 * 1024

    @pytest.mark.parametrize(
        "last",
        [
            GateOp("X", (0,)),
            GateOp("X", (1,)),
            GateOp("X", (8,)),
            GateOp("CNOT", (0, 19)),
            GateOp("CNOT", (8, 9)),
            GateOp("H", (8,)),
            GateOp("U1", (8,), 0.3),
        ],
        ids=["x0", "x1", "x8", "cnot0_19", "cnot8_9", "h8", "u1_8"],
    )
    def test_peak_memory_of_one_op_on_any_qubits(self, last):
        # After H on every qubit of n = 20, one op on any qubits is a run of
        # its own: only the chunk buffer and one column of scratch sit beside
        # the 16 MiB state, no half-state scratch and no state-sized copy of
        # an overlapping operand.
        circuit = Circuit(20, [*(GateOp("H", (q,)) for q in range(20)), last])
        execute(circuit)
        assert self.traced_peak(lambda: execute(circuit)) <= 16 * (1 << 20) + 512 * 1024

    def test_peak_memory_of_compiled_chain_is_state_alone(self):
        # Growth spreads the prefix in place and X and CNOT ride each
        # chunk's copy back into the state, so at n = 20 only the chunk
        # buffer and one column of scratch sit beside the 16 MiB state.
        chain = BinaryMarkovChain((0.3, 0.7), ((0.6, 0.4), (0.2, 0.8)), 20)
        circuit = compile_to_circuit(chain)
        for noise in (None, NoiseModel(0.2, 0.0)):
            def run_it():
                execute(circuit, noise=noise, rng_seed=3)

            run_it()  # lazy imports on first use (numpy.random) are not execute's memory
            assert self.traced_peak(run_it) <= 16 * (1 << 20) + 512 * 1024


class TestCircuitValidation:
    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            Circuit(1, [GateOp("H", (1,))])

    def test_num_qubits_positive(self):
        with pytest.raises(ValidationError):
            Circuit(0, [])


class TestNoiseModel:
    def test_probability_range(self):
        with pytest.raises(ValidationError):
            NoiseModel(-0.1, 0.0)
        with pytest.raises(ValidationError):
            NoiseModel(0.0, 1.5)

    def test_is_noiseless(self):
        assert NoiseModel(0.0, 0.0).is_noiseless
        assert not NoiseModel(0.0, 0.1).is_noiseless


class TestCounts:
    def test_sum_enforced(self):
        with pytest.raises(ValidationError):
            Counts.from_json_dict({"shots": 4, "counts": {"0": 3, "1": 2}})

    def test_key_length_enforced(self):
        with pytest.raises(ValidationError):
            Counts.from_json_dict({"shots": 2, "counts": {"0": 1, "10": 1}})

    def test_key_alphabet_enforced(self):
        with pytest.raises(ValidationError):
            Counts.from_json_dict({"shots": 1, "counts": {"0x": 1}})

    def test_json_round_trip(self):
        counts = Counts.from_json_dict({"shots": 8, "counts": {"01": 3, "10": 5}})
        data = json.loads(to_json_text(counts))
        assert data == {"shots": 8, "counts": {"01": 3, "10": 5}}
        again = Counts.from_json_dict(data)
        assert dict(again) == dict(counts)
        assert again.shots == counts.shots

    def test_tallies_are_int64(self):
        counts = Counts.from_json_dict({"shots": 8, "counts": {"10": 5, "01": 3}})
        assert counts.probs.dtype == np.int64
        assert list(counts.support) == [1, 2]
        data = json.loads(to_json_text(counts))
        assert all(type(v) is int for v in data["counts"].values())
        assert type(data["shots"]) is int

    def test_count_beyond_int64_refused(self):
        with pytest.raises(ValidationError, match="int64"):
            Counts.from_json_dict({"shots": 2**63, "counts": {"0": 2**63}})

    def test_bit_reversed_keeps_shots(self):
        counts = Counts.from_json_dict({"shots": 8, "counts": {"001": 5, "011": 3}})
        flipped = counts.bit_reversed()
        assert isinstance(flipped, Counts)
        assert flipped.shots == 8
        assert dict(flipped) == {"100": 5, "110": 3}

    def test_from_json_rejects_extra_keys(self):
        with pytest.raises(ValidationError):
            Counts.from_json_dict({"shots": 1, "counts": {"0": 1}, "x": 2})


class TestBitKeys:
    """``bits_index`` and ``bitstring_bytes`` against ``format(i, f"0{w}b")``,
    the basis-index convention: q0 is the leftmost character and the top bit."""

    @staticmethod
    def cases(width):
        rng = np.random.default_rng(width)
        top = (1 << width) - 1  # 2**63 - 1 at width 63, the largest key
        picked = [0, top, top >> 1, 1 & top, *rng.integers(0, top, 8, endpoint=True).tolist()]
        return picked, [format(i, f"0{width}b") if width else "" for i in picked]

    @pytest.mark.parametrize("width", range(0, 64))
    def test_bits_index(self, width):
        index, keys = self.cases(width)
        bits = np.array([[c == "1" for c in key] for key in keys], bool).reshape(len(keys), width)
        assert core.bits_index(bits).tolist() == index  # bool, as readout noise passes
        # A column slice of a wider byte matrix, as the result reader passes.
        wide = np.full((len(keys), width + 5), 7, np.uint8)
        wide[:, 1 : width + 1] = bits
        got = core.bits_index(wide[:, 1 : width + 1])
        assert got.dtype == np.int64 and got.tolist() == index

    @pytest.mark.parametrize("width", range(0, 64))
    def test_bitstring_bytes(self, width):
        index, keys = self.cases(width)
        got = core.bitstring_bytes(np.array(index, np.int64), width)
        assert got.dtype == f"S{max(width, 1)}"
        assert got.astype(str).tolist() == keys
        # Every other entry of a longer array: a strided input.
        spaced = np.zeros(2 * len(index), np.int64)
        spaced[::2] = index
        assert core.bitstring_bytes(spaced[::2], width).astype(str).tolist() == keys


class TestParseBitstringMap:
    def test_index_order_and_mapping_order_total(self):
        # The arrays come back sorted, but the total is summed in mapping
        # order: in index order the two 1e-16 add up first and round 1.0 up.
        mapping = {"10": 1.0, "00": 1e-16, "01": 1e-16}
        width, index, values, total = core.parse_bitstring_map(mapping, "map")
        assert (width, index.tolist(), values.tolist()) == (2, [0, 1, 2], [1e-16, 1e-16, 1.0])
        assert total == 1.0 < sum(values.tolist())

    @given(st.lists(st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1e-9])
                    | st.floats(0.0, 1.0) | st.floats(0.0, 1e-300), min_size=1, max_size=64),
           st.sampled_from([0.0, -1e-9, 1e-9]), st.booleans())
    @example([-0.0], 0.0, False)
    @example([-0.0, -0.0, 0.0, -0.0], 0.0, False)
    @example([0.1] * 10, 0.0, False)
    @settings(max_examples=300, deadline=None)
    def test_float_total_is_pythons_sum(self, values, off, near_one):
        # The total of a float map is summed by numpy, one add after another;
        # it must be Python's sum to the bit, sign of zero included.  On
        # 3.10 and 3.11 that sum is sequential from the int 0; 3.12 made it
        # compensated, so the sequential fold is the reference there.
        if near_one and sum(values) > 0:
            values = [v / sum(values) for v in values]
            values[-1] += off
            values = [max(v, 0.0) for v in values]
        sequential = functools.reduce(operator.add, values, 0)
        if sys.version_info < (3, 12):
            assert struct.pack("<d", sum(values)) == struct.pack("<d", sequential)
        width = max(len(values) - 1, 1).bit_length()
        keys = [format(i, f"0{width}b") for i in range(len(values))][::-1]
        for mapping in (Distribution(width, np.arange(len(values)), np.array(values)),
                        dict(zip(keys, values))):
            total = core.parse_bitstring_map(mapping, "map")[3]
            assert type(total) is float
            assert struct.pack("<d", total) == struct.pack("<d", sequential)


class TestSampleCounts:
    def test_deterministic_state(self):
        counts = sample_counts(ZERO, 8192, 123)
        assert dict(counts) == {"0": 8192}

    def test_zero_shots_rejected(self):
        with pytest.raises(ValidationError):
            sample_counts(ZERO, 0, 1)

    def test_shots_beyond_numpy_refused(self):
        with pytest.raises(ValidationError, match="shots"):
            sample_counts(ZERO, 2**63, 1)
        # With readout noise the shots x n uniforms set the limit: 2**59 x 2
        # float64 is 2**63 bytes, one byte past what numpy can size.
        pair = execute(Circuit(2, [GateOp("H", (0,))]))
        with pytest.raises(ValidationError, match="shots"):
            sample_counts(pair, 2**59, 1, NoiseModel(0.0, 0.1))

    def test_seed_required(self):
        with pytest.raises(ValidationError):
            sample_counts(ZERO, 10, None)

    def test_forced_readout_flip(self):
        counts = sample_counts(
            ZERO, 8192, 5, NoiseModel(0.0, 1.0)
        )
        assert dict(counts) == {"1": 8192}

    def test_binomial_bounds(self):
        # 6 sigma around 4096 at 8192 shots: [3800, 4390]
        state = execute(Circuit(1, [GateOp("H", (0,))]))
        counts = sample_counts(state, 8192, 12345)
        assert sum(counts.values()) == 8192
        for bucket in counts.values():
            assert 3800 <= bucket <= 4390

    @pytest.mark.parametrize("case", range(20))
    def test_readout_noise_matches_exact_channel(self, case):
        # Readout bit flips are a tensor-product channel: [[1-p, p], [p, 1-p]]
        # along each bit axis of the ideal vector gives the exact noisy
        # distribution (Bravyi et al., PRA 103, 042605).  Pearson's
        # chi-square over the bins expecting at least 5 counts, as a z-score.
        n, p = 2 + case % 7, (0.01, 0.05, 0.2, 0.5)[case % 4]
        rng = np.random.default_rng(7000 + case)
        state = execute(compile_to_circuit(random_chain(rng, n)))
        exact = (np.abs(state.amplitudes) ** 2).reshape((2,) * n)
        flip = np.array([[1 - p, p], [p, 1 - p]])
        for axis in range(n):
            exact = np.moveaxis(np.tensordot(flip, exact, axes=(1, axis)), 0, axis)
        shots = 1 << 16
        counts = sample_counts(state, shots, int(rng.integers(2**31)), NoiseModel(0.0, p))
        observed = np.zeros(1 << n)
        observed[counts.support] = counts.probs
        expected = shots * exact.reshape(-1)
        kept = expected >= 5
        chi2 = float(((observed[kept] - expected[kept]) ** 2 / expected[kept]).sum())
        df = int(kept.sum()) - 1
        assert (chi2 - df) / math.sqrt(2 * df) <= 6

    def test_reproducible_per_seed(self):
        state = execute(Circuit(2, [GateOp("H", (0,))]))
        a = sample_counts(state, 4096, 42, NoiseModel(0.0, 0.02))
        b = sample_counts(state, 4096, 42, NoiseModel(0.0, 0.02))
        assert dict(a) == dict(b)
        assert to_json_text(a) == to_json_text(b)

    @pytest.mark.parametrize("sparse", [False, True])
    def test_draws_match_generator_choice(self, sparse):
        # sample_counts runs Generator.choice's algorithm for p= in one
        # buffer; a numpy release that changes choice would break the
        # per-seed determinism contract, so compare draws and generator state.
        rng = np.random.default_rng(2024)
        for _ in range(40):
            n = int(rng.integers(1, 13))
            state = random_state(rng, n)
            if sparse:
                amps = state.amplitudes * (rng.random(1 << n) < 0.1)
                amps[int(rng.integers(1 << n))] = 1.0
                state = Statevector(n, amps / np.linalg.norm(amps))
            seed = int(rng.integers(2**63))
            shots = int(rng.integers(1, 3000))
            probs = np.abs(state.amplitudes) ** 2
            want_rng = np.random.default_rng(seed)
            drawn = want_rng.choice(probs.size, size=shots, p=probs / probs.sum())
            index, tallies = np.unique(drawn, return_counts=True)
            counts = sample_counts(state, shots, seed)
            assert np.array_equal(counts.support, index)
            assert np.array_equal(counts.probs, tallies)
            # The readout uniforms come next from the same generator state.
            flips = want_rng.random((shots, n)) < 0.5
            index, tallies = np.unique(drawn ^ (flips @ (1 << np.arange(n - 1, -1, -1))),
                                       return_counts=True)
            noisy = sample_counts(state, shots, seed, NoiseModel(0.0, 0.5))
            assert np.array_equal(noisy.support, index)
            assert np.array_equal(noisy.probs, tallies)

    @pytest.mark.parametrize("size", [1, 3, 1000, core._CHUNK - 1, core._CHUNK + 1,
                                      3 * core._CHUNK + 5])
    def test_chunked_cdf_matches_whole_array(self, size):
        # |a|^2 a chunk at a time, into a new buffer or into the amplitudes'
        # own memory, against the whole-array calls, bit for bit; the sizes
        # leave a partial chunk.  Magnitudes span subnormals to near 1.
        rng = np.random.default_rng(size)
        scale = 10.0 ** rng.integers(-320, 1, size)
        amps = (rng.standard_normal(size) + 1j * rng.standard_normal(size)) * scale
        amps[rng.random(size) < 0.1] = 0.0
        amps[0] = 0.5 + 0.5j
        whole = np.abs(amps)
        whole *= whole
        whole /= whole.sum()
        np.cumsum(whole, out=whole)
        whole /= whole[-1]
        assert core._cdf(amps, np.empty(size)).tobytes() == whole.tobytes()
        shared = amps.copy()
        cdf = core._cdf(shared, shared.view(np.float64)[:size])
        assert np.shares_memory(cdf, shared)
        assert cdf.tobytes() == whole.tobytes()

    def test_library_state_left_untouched(self):
        rng = np.random.default_rng(31)
        for n, noise in ((3, None), (15, NoiseModel(0.0, 0.1))):
            state = random_state(rng, n)
            before = state.amplitudes.tobytes()
            sample_counts(state, 4096, 9, noise)
            assert state.amplitudes.tobytes() == before

    def test_cli_run_samples_in_the_state_memory(self, chain_spec_file, tmp_path):
        # cmd_run does not read the state after sampling, so the CDF goes in
        # its memory: the traced peak at n = 18 is the 4 MiB state plus
        # execute's chunk buffer, where a new CDF would add 2 MiB.  The
        # counts are the library call's.
        spec = chain_spec_file(steps=18, p0=0.3, p00=0.6, p01=0.4, p10=0.25, p11=0.75)
        out = tmp_path / "counts.json"
        argv = ["run", "--spec", spec, "--shots", "--seed", "5", "--out", str(out)]
        assert cli.main(argv) == 0  # lazy imports on first use are not the run's memory
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (16 << 18) + (1 << 20)
        chain = BinaryMarkovChain((0.3, 0.7), ((0.6, 0.4), (0.25, 0.75)), 18)
        state = execute(compile_to_circuit(chain))
        assert out.read_text(encoding="utf-8") == to_json_text(sample_counts(state, 8192, 5)) + "\n"

    def test_peak_memory_one_float_vector(self):
        # Beside the state, sampling holds one 2**n float64 CDF (8 MiB at
        # n = 20) and the per-shot arrays.
        n = 20
        state = Statevector(n, np.full(1 << n, 2.0 ** (-n / 2), dtype=complex))
        tracemalloc.start()
        try:
            sample_counts(state, 8192, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (8 << n) + (1 << 20)

    def test_peak_memory_per_shot(self):
        # The CDF is searched in sorted order: the uniforms, their order and
        # the sorted copy or the found outcomes, 24 bytes a shot, and the
        # outcomes go back into the sorted uniforms' memory.  Keeping every
        # array of that search alive took 41 bytes a shot.
        state = execute(Circuit(2, [GateOp("H", (0,))]))
        shots = 1 << 18
        sample_counts(state, 16, 1)  # lazy imports on first use are not the call's memory
        tracemalloc.start()
        try:
            sample_counts(state, shots, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 25 * shots

    def test_sampling_consistency(self):
        # empirical vs exact fidelity at 8192 shots, five fixed seeds
        state = execute(Circuit(2, [GateOp("H", (0,)), GateOp("CNOT", (0, 1))]))
        exact = probabilities(state)
        for seed in (1, 2, 3, 4, 5):
            counts = sample_counts(state, 8192, seed)
            fid = hellinger_fidelity(exact, counts_to_distribution(counts))
            assert fid >= 0.99
