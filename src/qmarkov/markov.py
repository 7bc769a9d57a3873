"""Two-state Markov chains: the chain model, the compiler onto an entangled
qubit register (one qubit per time step), and the classical oracles used as
ground truth for the quantum route: exhaustive path enumeration, marginals,
the uniform-mutation return probability, hitting times, and state
classification."""

import json
import math
from dataclasses import dataclass

import numpy as np

from .core import Circuit, Distribution, check_capacity
from .errors import ValidationError
from .gates import (
    anti_controlled_sequence,
    controlled_nth_root_x_sequence,
    nth_root_x_sequence,
    remap_qubits,
    solve_rotation_order,
)

ROW_SUM_ATOL = 1e-12
FILE_ROW_SUM_ATOL = 1e-9

ABSORBING = "absorbing"
TRANSIENT = "transient"
RECURRENT = "recurrent"


def _is_stochastic(row: tuple[float, ...]) -> bool:
    return all(math.isfinite(x) and x >= 0 for x in row) and abs(sum(row) - 1.0) <= ROW_SUM_ATOL


@dataclass(frozen=True)
class BinaryMarkovChain:
    """Two-state homogeneous chain.

    ``initial`` is the distribution over states {0, 1} at step 0,
    ``transition`` the row-stochastic matrix ((p00, p01), (p10, p11)), and
    ``steps`` the number of discrete time steps (= qubits when compiled).
    """

    initial: tuple[float, float]
    transition: tuple[tuple[float, float], tuple[float, float]]
    steps: int

    def __post_init__(self):
        initial = tuple(float(x) for x in self.initial)
        transition = tuple(tuple(float(x) for x in row) for row in self.transition)
        object.__setattr__(self, "initial", initial)
        object.__setattr__(self, "transition", transition)
        if len(initial) != 2 or len(transition) != 2 or any(len(r) != 2 for r in transition):
            raise ValidationError("chain needs 2 initial weights and a 2x2 transition matrix")
        if self.steps < 1:
            raise ValidationError(f"steps must be >= 1, got {self.steps}")
        if not _is_stochastic(initial):
            raise ValidationError(
                f"initial distribution must be finite, non-negative and sum to 1: {initial}"
            )
        for i, row in enumerate(transition):
            if not _is_stochastic(row):
                raise ValidationError(
                    f"transition row {i} must be finite, non-negative and sum to 1: {row}"
                )

    @property
    def transition_matrix(self) -> np.ndarray:
        return np.array(self.transition, dtype=float)


def _json_number(value, name: str, integer: bool = False):
    """A spec value that must be a JSON number: a float, or an int when ``integer``."""
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        kind = "an integer" if integer else "a number"
        raise ValidationError(f"spec {name} must be {kind}, got {json.dumps(value)}")
    return value if integer else float(value)


def chain_from_dict(data: dict) -> BinaryMarkovChain:
    """Build a chain from the JSON spec layout.

    Expected shape::

        {"steps": N,
         "initial": {"p0": x},
         "transition": {"p00": .., "p01": .., "p10": .., "p11": ..}}

    ``steps`` must be a JSON integer and the probabilities JSON numbers (never
    bools or strings).  Transition rows that sum to 1 within 1e-9 are
    normalized so the in-memory chain is exactly stochastic;
    ``BinaryMarkovChain`` validates the result and reports a bad row by its
    number.
    """
    try:
        steps = _json_number(data["steps"], "steps", integer=True)
        p0 = _json_number(data["initial"]["p0"], "p0")
        t = data["transition"]
        rows = [[_json_number(t[f"p{i}{j}"], f"p{i}{j}") for j in "01"] for i in "01"]
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValidationError(f"malformed chain spec: {exc}") from exc
    for row in rows:
        total = row[0] + row[1]
        if abs(total - 1.0) <= FILE_ROW_SUM_ATOL:
            row[:] = [x / total for x in row]
    return BinaryMarkovChain((p0, 1.0 - p0), rows, steps)


def read_json(path):
    """Parse a UTF-8 JSON file.  Text that is not UTF-8, not JSON, or nested
    deeper than the recursion limit raises ``ValidationError``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:  # ValueError covers JSON and UTF-8 errors
            raise ValidationError(f"{path}: not valid JSON: {exc}") from exc


def load_chain(path) -> BinaryMarkovChain:
    """Read a chain spec JSON file (see ``chain_from_dict`` for the layout)."""
    return chain_from_dict(read_json(path))


def compile_to_circuit(chain: BinaryMarkovChain) -> Circuit:
    """Compile the chain onto ``steps`` qubits, qubit t representing step t.

    q0 receives the rotation realizing the initial distribution; each
    consecutive pair (q_t, q_t+1) receives the controlled rotation encoding
    P(next=1 | current=1) = p11 and, only when p01 > 0, the anti-controlled
    rotation encoding P(next=1 | current=0) = p01.  Pair parameters are
    identical for every t since the chain is homogeneous.
    """
    check_capacity(chain.steps, "chain")
    p01 = chain.transition[0][1]
    p11 = chain.transition[1][1]
    ops = nth_root_x_sequence(solve_rotation_order(chain.initial[0]))
    pair = controlled_nth_root_x_sequence(solve_rotation_order(1.0 - p11))
    anti = anti_controlled_sequence(solve_rotation_order(1.0 - p01)) if p01 > 0.0 else None
    for t in range(chain.steps - 1):
        ops.extend(remap_qubits(pair, (t, t + 1)))
        if anti is not None:
            ops.extend(remap_qubits(anti, (t, t + 1)))
    return Circuit(chain.steps, ops)


def enumerate_paths(chain: BinaryMarkovChain) -> Distribution:
    """Exact distribution over all 2**steps trajectories.

    Trajectory s0 s1 ... s_{N-1} is the basis index with s0 as its most
    significant bit; its probability is the product of the initial weight
    and the stepwise transition probabilities.  Exact zeros are outside the
    support.  Bounded by the same register capacity as the quantum route.
    """
    check_capacity(chain.steps, "chain")
    probs = np.array(chain.initial, dtype=float)
    matrix = chain.transition_matrix
    for _ in range(chain.steps - 1):
        probs = probs[..., np.newaxis] * matrix
    return Distribution.from_vector(chain.steps, probs.reshape(-1))


def marginal(chain: BinaryMarkovChain, n: int) -> tuple[float, float]:
    """State distribution at step ``n``: the initial row vector times the
    n-th power of the transition matrix."""
    if not 0 <= n <= chain.steps - 1:
        raise ValidationError(f"step {n} outside [0, {chain.steps - 1}]")
    power = np.linalg.matrix_power(chain.transition_matrix, n)
    row = np.array(chain.initial, dtype=float) @ power
    return float(row[0]), float(row[1])


def return_probability(alpha: float, n: int, strains: int) -> float:
    """Probability of being back at the starting variant after ``n`` steps.

    Models a process over ``strains`` variants that keeps its variant with
    probability 1 - alpha and otherwise jumps to one of the others uniformly;
    closed form 1/N + (1 - 1/N) * (1 - alpha*N/(N-1))**n.  For strains = 2
    this equals the corresponding chain marginal.
    """
    if strains < 2:
        raise ValidationError(f"strains must be >= 2, got {strains}")
    if not 0.0 <= alpha <= 1.0:
        raise ValidationError(f"alpha must lie in [0, 1], got {alpha}")
    if n < 0:
        raise ValidationError(f"n must be >= 0, got {n}")
    base = 1.0 - alpha * strains / (strains - 1.0)
    return 1.0 / strains + (1.0 - 1.0 / strains) * base**n


def hitting_stats(chain: BinaryMarkovChain, absorbing_state: int) -> tuple[float, float]:
    """(hit probability, mean hitting time) of ``absorbing_state`` starting
    from the other state.

    Solves the 2-state linear system: with escape probability p from the
    other state into the absorbing one, the hit probability is 1 iff p > 0
    and the mean time is 1/p (+inf when p = 0).
    """
    if absorbing_state not in (0, 1):
        raise ValidationError(f"absorbing_state must be 0 or 1, got {absorbing_state}")
    j = absorbing_state
    if abs(chain.transition[j][j] - 1.0) > ROW_SUM_ATOL:
        raise ValidationError(
            f"state {j} is not absorbing: p_{j}{j} = {chain.transition[j][j]}"
        )
    escape = chain.transition[1 - j][j]
    if escape > 0.0:
        return 1.0, 1.0 / escape
    return 0.0, math.inf


def classify_states(chain: BinaryMarkovChain) -> tuple[str, str]:
    """Label each state absorbing, transient, or recurrent.

    A state is absorbing iff its self-transition probability is 1; a
    non-absorbing state is transient iff the other state is absorbing and
    reachable, else recurrent.
    """
    labels = []
    for i in (0, 1):
        other = 1 - i
        if abs(chain.transition[i][i] - 1.0) <= ROW_SUM_ATOL:
            labels.append(ABSORBING)
        elif (
            abs(chain.transition[other][other] - 1.0) <= ROW_SUM_ATOL
            and chain.transition[i][other] > 0.0
        ):
            labels.append(TRANSIENT)
        else:
            labels.append(RECURRENT)
    return labels[0], labels[1]
