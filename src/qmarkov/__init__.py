"""Quantum simulation of two-state Markov chains.

Exact statevector engine with noise injection and seeded sampling, x-axis
root rotation gates with verified primitive decompositions, a chain-to-
circuit compiler, classical path-enumeration oracles, and Hellinger-fidelity
analysis of result distributions.
"""

from .analysis import (
    FidelityReport,
    compare_runs,
    counts_to_distribution,
    hellinger_distance,
    hellinger_fidelity,
    to_json_text,
    validate_distribution,
)
from .core import (
    Circuit,
    Counts,
    Distribution,
    NoiseModel,
    Statevector,
    configured_max_qubits,
    execute,
    probabilities,
    sample_counts,
)
from .errors import CapacityError, ValidationError
from .gates import (
    GateOp,
    GateSequence,
    RotationOrder,
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
from .markov import (
    ABSORBING,
    RECURRENT,
    TRANSIENT,
    BinaryMarkovChain,
    chain_from_dict,
    classify_states,
    compile_to_circuit,
    enumerate_paths,
    hitting_stats,
    load_chain,
    marginal,
    return_probability,
)

__version__ = "0.1.0"

__all__ = [
    "ABSORBING",
    "BinaryMarkovChain",
    "CapacityError",
    "Circuit",
    "Counts",
    "Distribution",
    "FidelityReport",
    "GateOp",
    "GateSequence",
    "NoiseModel",
    "RECURRENT",
    "RotationOrder",
    "Statevector",
    "TRANSIENT",
    "ValidationError",
    "anti_controlled_sequence",
    "chain_from_dict",
    "classify_states",
    "compare_runs",
    "compile_to_circuit",
    "compose_sequence",
    "configured_max_qubits",
    "controlled_nth_root_x",
    "controlled_nth_root_x_sequence",
    "counts_to_distribution",
    "enumerate_paths",
    "execute",
    "hellinger_distance",
    "hellinger_fidelity",
    "hitting_stats",
    "is_unitary",
    "load_chain",
    "marginal",
    "nth_root_x",
    "nth_root_x_sequence",
    "probabilities",
    "remap_qubits",
    "return_probability",
    "sample_counts",
    "solve_rotation_order",
    "standard_gate",
    "to_json_text",
    "validate_distribution",
]
