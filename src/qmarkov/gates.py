"""Gate matrices and decompositions.

Provides the H/X/U1/CNOT primitives, the x-axis root rotation family
parametrized by its phase angle, the solver that turns a target probability
into such an angle, and the sequence constructions that realize the root
gates from primitives (verifiable by composition).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

UNITARY_ATOL = 1e-10

PRIMITIVE_NAMES = ("H", "X", "U1", "CNOT")

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

_H = np.array(
    [[_INV_SQRT2, _INV_SQRT2], [_INV_SQRT2, -_INV_SQRT2]], dtype=np.complex128
)
_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_CNOT = np.array(
    [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
    ],
    dtype=np.complex128,
)


def is_unitary(matrix: np.ndarray, atol: float = UNITARY_ATOL) -> bool:
    """Check U†U = I entrywise within ``atol``."""
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        return False
    identity = np.eye(matrix.shape[0])
    return bool(np.allclose(matrix.conj().T @ matrix, identity, rtol=0.0, atol=atol))


def standard_gate(name: str, angle: float | None = None) -> np.ndarray:
    """Return the canonical matrix for a primitive gate.

    ``angle`` is required for U1 (the phase gate diag(1, e^{i*angle})) and
    rejected for every other name.  CNOT uses basis order
    |control target> = 00, 01, 10, 11.
    """
    if name == "U1":
        if angle is None:
            raise ValidationError("U1 requires an angle")
        return np.array([[1.0, 0.0], [0.0, np.exp(1j * angle)]], dtype=np.complex128)
    if angle is not None:
        raise ValidationError(f"{name} takes no angle")
    if name == "H":
        return _H.copy()
    if name == "X":
        return _X.copy()
    if name == "CNOT":
        return _CNOT.copy()
    raise ValidationError(f"unknown gate name: {name!r}")


@dataclass(frozen=True)
class RotationOrder:
    """Angle of an x-axis root gate, ``lam`` in [0, pi].

    lam = pi is a full X, lam = 0 the identity.  The equivalent root order n
    satisfies n * lam = pi and is +inf at lam = 0; storing the angle instead
    of n keeps the identity endpoint well defined.
    """

    lam: float

    def __post_init__(self):
        if not 0.0 <= self.lam <= math.pi:
            raise ValidationError(f"rotation angle must lie in [0, pi], got {self.lam}")

    @property
    def n_equivalent(self) -> float:
        return math.inf if self.lam == 0.0 else math.pi / self.lam


@dataclass(frozen=True)
class GateOp:
    """One primitive gate application; ``qubits`` are register indices."""

    name: str
    qubits: tuple[int, ...]
    angle: float | None = None

    def __post_init__(self):
        if self.name not in PRIMITIVE_NAMES:
            raise ValidationError(f"unknown primitive: {self.name!r}")
        arity = 2 if self.name == "CNOT" else 1
        if len(self.qubits) != arity:
            raise ValidationError(
                f"{self.name} acts on {arity} qubit(s), got {self.qubits}"
            )
        if (self.angle is not None) != (self.name == "U1"):
            raise ValidationError("an angle is required for U1 and only for U1")
        if self.name == "CNOT" and self.qubits[0] == self.qubits[1]:
            raise ValidationError("CNOT control and target must differ")

    def matrix(self) -> np.ndarray:
        return standard_gate(self.name, self.angle)

    def text(self) -> str:
        """One-line form: ``H q0``, ``U1 <radians> q0``, ``CNOT q0 q1``."""
        qubits = " ".join(f"q{i}" for i in self.qubits)
        if self.name == "U1":
            return f"U1 {self.angle:.17g} {qubits}"
        return f"{self.name} {qubits}"


GateSequence = list[GateOp]


def nth_root_x(order: RotationOrder) -> np.ndarray:
    """2x2 rotation (1/2)[[1+e, 1-e], [1-e, 1+e]] with e = e^{i*lam}.

    Sends |0> to |0> with probability (1 + cos lam)/2; its n_equivalent-th
    power is X.
    """
    e = np.exp(1j * order.lam)
    return np.array([[1 + e, 1 - e], [1 - e, 1 + e]], dtype=np.complex128) / 2.0


def nth_root_x_sequence(order: RotationOrder) -> GateSequence:
    """Primitive realization on one qubit: H, U1(lam), H."""
    return [GateOp("H", (0,)), GateOp("U1", (0,), order.lam), GateOp("H", (0,))]


def solve_rotation_order(p0: float) -> RotationOrder:
    """Angle whose root gate keeps |0> with probability ``p0``.

    Inverts (1 + cos lam)/2 = p0 on [0, pi]; p0 = 0 gives the full X and
    p0 = 1 the identity.
    """
    if not 0.0 <= p0 <= 1.0:
        raise ValidationError(f"p0 must lie in [0, 1], got {p0}")
    return RotationOrder(math.acos(2.0 * p0 - 1.0))


def controlled_nth_root_x(order: RotationOrder) -> np.ndarray:
    """4x4 gate: identity on the control-|0> block, root rotation on the
    control-|1> block (basis order |control target> = 00, 01, 10, 11)."""
    out = np.eye(4, dtype=np.complex128)
    out[2:, 2:] = nth_root_x(order)
    return out


def controlled_nth_root_x_sequence(order: RotationOrder) -> GateSequence:
    """Primitive realization of the controlled root gate (roles: control 0,
    target 1).

    The core is an exact controlled phase built from half-angle U1 gates and
    two CNOTs, enclosed in Hadamards on the target; no global-phase residue.
    """
    half = order.lam / 2.0
    return [
        GateOp("H", (1,)),
        GateOp("U1", (0,), half),
        GateOp("CNOT", (0, 1)),
        GateOp("U1", (1,), -half),
        GateOp("CNOT", (0, 1)),
        GateOp("U1", (1,), half),
        GateOp("H", (1,)),
    ]


def anti_controlled_sequence(order: RotationOrder) -> GateSequence:
    """Controlled sequence conjugated by X on the control, so the rotation
    fires when the control is |0> instead of |1>."""
    flip = GateOp("X", (0,))
    return [flip, *controlled_nth_root_x_sequence(order), flip]


def remap_qubits(seq: GateSequence, mapping) -> GateSequence:
    """Re-address a sequence's qubit roles: role r goes to ``mapping[r]``."""
    return [
        GateOp(op.name, tuple(mapping[q] for q in op.qubits), op.angle) for op in seq
    ]


def _embed(op: GateOp, num_qubits: int) -> np.ndarray:
    if any(q < 0 or q >= num_qubits for q in op.qubits):
        raise ValidationError(
            f"{op.text()} addresses a qubit outside a {num_qubits}-qubit register"
        )
    mat = op.matrix()
    if op.name == "CNOT":  # compose_sequence allows it only on a 2-qubit register
        if op.qubits == (0, 1):
            return mat
        return mat.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)  # the qubits swap roles
    if num_qubits == 1:
        return mat
    eye = np.eye(2, dtype=np.complex128)
    return np.kron(mat, eye) if op.qubits[0] == 0 else np.kron(eye, mat)


def compose_sequence(seq: GateSequence, num_qubits: int) -> np.ndarray:
    """Multiply out a sequence over a 1- or 2-qubit register, in application
    order: the first gate of the sequence is the rightmost factor."""
    if num_qubits not in (1, 2):
        raise ValidationError("compose_sequence supports 1- or 2-qubit registers")
    total = np.eye(1 << num_qubits, dtype=np.complex128)
    for op in seq:
        total = _embed(op, num_qubits) @ total
    return total

