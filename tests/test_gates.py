"""Gate matrices, the rotation solver, and decomposition identities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmarkov import (
    GateOp,
    RotationOrder,
    ValidationError,
    anti_controlled_sequence,
    compose_sequence,
    controlled_nth_root_x,
    controlled_nth_root_x_sequence,
    is_unitary,
    nth_root_x,
    nth_root_x_sequence,
    remap_qubits,
    solve_rotation_order,
    standard_gate,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)
CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)

lambdas = st.floats(min_value=0.0, max_value=math.pi, allow_nan=False)


class TestStandardGates:
    def test_hadamard(self):
        expected = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
        np.testing.assert_allclose(standard_gate("H"), expected, atol=0, rtol=0)

    def test_x(self):
        np.testing.assert_array_equal(standard_gate("X"), X)

    def test_cnot(self):
        np.testing.assert_array_equal(standard_gate("CNOT"), CNOT)

    def test_u1_pi_is_z(self):
        np.testing.assert_allclose(
            standard_gate("U1", math.pi), np.diag([1, -1]), atol=1e-15
        )

    def test_u1_requires_angle(self):
        with pytest.raises(ValidationError):
            standard_gate("U1")

    def test_angle_rejected_elsewhere(self):
        with pytest.raises(ValidationError):
            standard_gate("H", 0.3)

    def test_unknown_name(self):
        with pytest.raises(ValidationError):
            standard_gate("T")

    def test_unknown_primitive_op(self):
        with pytest.raises(ValidationError, match="unknown primitive"):
            GateOp("Y", (0,))

    def test_non_square_is_not_unitary(self):
        assert is_unitary(np.eye(2, 3)) is False


class TestRotationOrder:
    def test_n_equivalent(self):
        assert RotationOrder(math.pi).n_equivalent == pytest.approx(1.0)
        assert RotationOrder(math.pi / 2).n_equivalent == pytest.approx(2.0)
        assert RotationOrder(0.0).n_equivalent == math.inf

    def test_range_enforced(self):
        with pytest.raises(ValidationError):
            RotationOrder(-0.1)
        with pytest.raises(ValidationError):
            RotationOrder(math.pi + 0.1)


class TestNthRootX:
    def test_full_turn_is_x(self):
        np.testing.assert_allclose(nth_root_x(RotationOrder(math.pi)), X, atol=1e-15)

    def test_half_turn(self):
        expected = np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex) / 2
        np.testing.assert_allclose(
            nth_root_x(RotationOrder(math.pi / 2)), expected, atol=1e-15
        )

    def test_zero_is_identity(self):
        np.testing.assert_array_equal(nth_root_x(RotationOrder(0.0)), np.eye(2))

    def test_root_property(self):
        # the pi/n gate raised to the n-th power reproduces X
        for n in range(1, 17):
            gate = nth_root_x(RotationOrder(math.pi / n))
            np.testing.assert_allclose(
                np.linalg.matrix_power(gate, n), X, atol=1e-10
            )

    def test_unitary_on_random_angles(self):
        rng = np.random.default_rng(7)
        for lam in rng.uniform(0.0, math.pi, 200):
            order = RotationOrder(float(lam))
            assert is_unitary(nth_root_x(order), atol=1e-12)
            assert is_unitary(controlled_nth_root_x(order), atol=1e-12)

    @given(lambdas)
    @settings(max_examples=150)
    def test_probability_split(self, lam):
        gate = nth_root_x(RotationOrder(lam))
        p0 = abs(gate[0, 0]) ** 2
        p1 = abs(gate[1, 0]) ** 2
        assert abs(p0 + p1 - 1.0) <= 1e-12
        assert abs(p0 - (1.0 + math.cos(lam)) / 2.0) <= 1e-12


class TestSolver:
    def test_examples(self):
        assert solve_rotation_order(0.5).lam == pytest.approx(math.pi / 2)
        assert solve_rotation_order(0.0).lam == math.pi
        assert solve_rotation_order(1.0).lam == 0.0
        assert solve_rotation_order(1.0).n_equivalent == math.inf

    def test_domain(self):
        with pytest.raises(ValidationError):
            solve_rotation_order(-0.01)
        with pytest.raises(ValidationError):
            solve_rotation_order(1.5)

    def test_round_trip_grid(self):
        for p0 in np.linspace(0.0, 1.0, 101):
            gate = nth_root_x(solve_rotation_order(float(p0)))
            assert abs(abs(gate[0, 0]) ** 2 - p0) <= 1e-10

    @given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    @settings(max_examples=200)
    def test_round_trip_property(self, p0):
        gate = nth_root_x(solve_rotation_order(p0))
        assert abs(abs(gate[0, 0]) ** 2 - p0) <= 1e-10


class TestSequences:
    def test_single_sequence_shape(self):
        seq = nth_root_x_sequence(RotationOrder(0.3))
        assert [op.name for op in seq] == ["H", "U1", "H"]
        assert all(op.qubits == (0,) for op in seq)
        assert seq[1].angle == pytest.approx(0.3)

    def test_enclosure_hand_case(self):
        # H . diag(1, -1) . H worked out by hand gives X
        comp = compose_sequence(nth_root_x_sequence(RotationOrder(math.pi)), 1)
        np.testing.assert_allclose(comp, X, atol=1e-15)

    def test_enclosure_identity_hand_case(self):
        comp = compose_sequence(nth_root_x_sequence(RotationOrder(0.0)), 1)
        np.testing.assert_allclose(comp, np.eye(2), atol=1e-15)

    def test_enclosure_half_turn(self):
        comp = compose_sequence(nth_root_x_sequence(RotationOrder(math.pi / 2)), 1)
        expected = np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex) / 2
        np.testing.assert_allclose(comp, expected, atol=1e-15)

    @given(lambdas)
    @settings(max_examples=150)
    def test_enclosure_identity(self, lam):
        order = RotationOrder(lam)
        comp = compose_sequence(nth_root_x_sequence(order), 1)
        assert np.max(np.abs(comp - nth_root_x(order))) <= 1e-12

    def test_controlled_sequence_structure(self):
        lam = 0.8
        seq = controlled_nth_root_x_sequence(RotationOrder(lam))
        names = [(op.name, op.qubits) for op in seq]
        assert names == [
            ("H", (1,)),
            ("U1", (0,)),
            ("CNOT", (0, 1)),
            ("U1", (1,)),
            ("CNOT", (0, 1)),
            ("U1", (1,)),
            ("H", (1,)),
        ]
        angles = [op.angle for op in seq if op.name == "U1"]
        assert angles == pytest.approx([lam / 2, -lam / 2, lam / 2])

    def test_controlled_sequence_cnot_case(self):
        comp = compose_sequence(
            controlled_nth_root_x_sequence(RotationOrder(math.pi)), 2
        )
        np.testing.assert_allclose(comp, CNOT, atol=1e-15)

    def test_controlled_sequence_identity_case(self):
        comp = compose_sequence(controlled_nth_root_x_sequence(RotationOrder(0.0)), 2)
        np.testing.assert_allclose(comp, np.eye(4), atol=1e-15)

    def test_phase_core_gives_cz(self):
        # dropping the enclosing Hadamards leaves the exact controlled phase
        seq = controlled_nth_root_x_sequence(RotationOrder(math.pi))[1:-1]
        comp = compose_sequence(seq, 2)
        np.testing.assert_allclose(comp, np.diag([1, 1, 1, -1]), atol=1e-15)

    @given(lambdas)
    @settings(max_examples=150)
    def test_controlled_identity(self, lam):
        order = RotationOrder(lam)
        comp = compose_sequence(controlled_nth_root_x_sequence(order), 2)
        assert np.max(np.abs(comp - controlled_nth_root_x(order))) <= 1e-12

    def test_anti_controlled_block(self):
        for lam in (0.0, math.pi / 2, math.pi, 1.234):
            order = RotationOrder(lam)
            comp = compose_sequence(anti_controlled_sequence(order), 2)
            expected = np.eye(4, dtype=complex)
            expected[:2, :2] = nth_root_x(order)
            assert np.max(np.abs(comp - expected)) <= 1e-12

    def test_anti_cnot_mapping(self):
        comp = compose_sequence(anti_controlled_sequence(RotationOrder(math.pi)), 2)
        state_00 = np.array([1, 0, 0, 0], dtype=complex)
        state_10 = np.array([0, 0, 1, 0], dtype=complex)
        np.testing.assert_allclose(comp @ state_00, [0, 1, 0, 0], atol=1e-15)
        np.testing.assert_allclose(comp @ state_10, [0, 0, 1, 0], atol=1e-15)

    def test_anti_half_turn_on_00(self):
        comp = compose_sequence(anti_controlled_sequence(RotationOrder(math.pi / 2)), 2)
        out = comp @ np.array([1, 0, 0, 0], dtype=complex)
        np.testing.assert_allclose(out, [(1 + 1j) / 2, (1 - 1j) / 2, 0, 0], atol=1e-15)


class TestControlledMatrix:
    def test_cnot_case(self):
        np.testing.assert_allclose(
            controlled_nth_root_x(RotationOrder(math.pi)), CNOT, atol=1e-15
        )

    def test_identity_case(self):
        np.testing.assert_array_equal(
            controlled_nth_root_x(RotationOrder(0.0)), np.eye(4)
        )

    def test_half_turn_block(self):
        mat = controlled_nth_root_x(RotationOrder(math.pi / 2))
        np.testing.assert_array_equal(mat[:2, :2], np.eye(2))
        expected = np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex) / 2
        np.testing.assert_allclose(mat[2:, 2:], expected, atol=1e-15)


class TestCompose:
    def test_double_hadamard(self):
        comp = compose_sequence([GateOp("H", (0,)), GateOp("H", (0,))], 1)
        np.testing.assert_allclose(comp, np.eye(2), atol=1e-15)

    def test_empty_is_identity(self):
        np.testing.assert_array_equal(compose_sequence([], 1), np.eye(2))
        np.testing.assert_array_equal(compose_sequence([], 2), np.eye(4))

    def test_application_order(self):
        # X then U1(pi): phase lands on |1><0| entry, i.e. U1 @ X
        comp = compose_sequence(
            [GateOp("X", (0,)), GateOp("U1", (0,), math.pi)], 1
        )
        expected = standard_gate("U1", math.pi) @ standard_gate("X")
        np.testing.assert_allclose(comp, expected, atol=0, rtol=0)

    def test_reversed_cnot_embedding(self):
        comp = compose_sequence([GateOp("CNOT", (1, 0))], 2)
        # control q1, target q0: |01> -> |11>, |11> -> |01>
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[2, 2] = 1
        expected[3, 1] = expected[1, 3] = 1
        np.testing.assert_array_equal(comp, expected)

    def test_role_out_of_range(self):
        with pytest.raises(ValidationError):
            compose_sequence([GateOp("CNOT", (0, 1))], 1)

    def test_register_size_limit(self):
        with pytest.raises(ValidationError):
            compose_sequence([], 3)


class TestGateOp:
    def test_text_format(self):
        assert GateOp("H", (0,)).text() == "H q0"
        assert GateOp("CNOT", (2, 3)).text() == "CNOT q2 q3"
        assert GateOp("U1", (1,), math.pi / 3).text() == (
            f"U1 {math.pi / 3:.17g} q1"
        )

    def test_validation(self):
        with pytest.raises(ValidationError):
            GateOp("H", (0, 1))
        with pytest.raises(ValidationError):
            GateOp("CNOT", (1, 1))
        with pytest.raises(ValidationError):
            GateOp("H", (0,), 0.1)
        with pytest.raises(ValidationError):
            GateOp("U1", (0,))

    def test_remap(self):
        seq = remap_qubits(controlled_nth_root_x_sequence(RotationOrder(1.0)), (4, 5))
        assert seq[0].qubits == (5,)
        assert seq[2].qubits == (4, 5)

