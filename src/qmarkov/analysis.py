"""Distribution utilities: counts normalization, the Hellinger metric with
its fidelity complement, and run-comparison reports."""

import json
import math
from dataclasses import dataclass

import numpy as np

from .core import Counts, Distribution, bitstring_bytes, counts_to_distribution
from .errors import ValidationError

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def validate_distribution(dist, what: str = "distribution") -> Distribution:
    """Check a bitstring->probability map: binary keys of one length,
    non-negative values summing to 1 within 1e-9.  Returns it as a
    ``Distribution``."""
    return Distribution.from_mapping(dist, what, normalized=True)


def _on_union(p, q, p_what: str, q_what: str):
    """Width, the sorted union of both supports, and each side's
    probabilities over it (absent entries read as zero)."""
    p = Distribution.from_mapping(p, p_what)
    q = Distribution.from_mapping(q, q_what)
    if len(p) and len(q) and p.width != q.width:
        raise ValidationError(f"bitstring lengths differ: {p.width} vs {q.width}")
    width = p.width if len(p) else q.width
    # Both supports are sorted, so a stable sort merges two runs.  (np.union1d
    # takes a hash-table path that is ~15x slower at 2**20 entries and
    # imports numpy.ma on first use.)
    merged = np.sort(np.concatenate((p.support, q.support)), kind="stable")
    union = merged[np.diff(merged, prepend=-1) != 0]
    spread = []
    for side in (p, q):
        probs = np.zeros(len(union))
        probs[np.searchsorted(union, side.support)] = side.probs
        spread.append(probs)
    return width, union, *spread


def _distance(p_probs: np.ndarray, q_probs: np.ndarray) -> float:
    # Sequential sum in index order, so the result is reproducible to the
    # last bit (a pairwise np.sum would change it).
    diff = np.sqrt(p_probs) - np.sqrt(q_probs)
    total = float(np.cumsum(diff * diff)[-1]) if diff.size else 0.0
    return min(_INV_SQRT2 * math.sqrt(total), 1.0)


def hellinger_distance(p, q) -> float:
    """(1/sqrt 2) times the L2 distance between the square-root vectors.

    Computed over the union of supports; absent keys count as probability
    zero.  Symmetric, and 0 exactly for identical inputs.
    """
    _, _, p_probs, q_probs = _on_union(p, q, "first distribution", "second distribution")
    return _distance(p_probs, q_probs)


def hellinger_fidelity(p, q) -> float:
    """1 minus the Hellinger distance."""
    return 1.0 - hellinger_distance(p, q)


@dataclass(frozen=True)
class FidelityReport:
    """Comparison of two runs; fidelity is exactly 1 - distance.

    ``diffs`` holds per-bitstring absolute probability differences over the
    union of supports, in key order; a shots field of 0 marks an exact
    (non-sampled) side.
    """

    hellinger_distance: float
    hellinger_fidelity: float
    diffs: Distribution
    reference_shots: int
    observed_shots: int

    def to_json_dict(self) -> dict:
        diffs = self.diffs
        if isinstance(diffs, Distribution):  # from the arrays, not key by key
            diffs = zip(diffs, diffs.probs.tolist())
        return {
            "distance": self.hellinger_distance,
            "fidelity": self.hellinger_fidelity,
            "diffs": dict(diffs),
        }


def compare_runs(reference, observed) -> FidelityReport:
    """Build a fidelity report between two runs.

    Either side may be a ``Counts`` histogram (normalized by its shots, which
    are recorded) or a distribution of probabilities (shots recorded as 0).
    Work and memory scale with the supports, not with 2**width.
    """
    width, union, ref_probs, obs_probs = _on_union(reference, observed, "reference", "observed")
    distance = _distance(ref_probs, obs_probs)
    diffs = Distribution(width, union, np.abs(ref_probs - obs_probs))
    shots = [side.shots if isinstance(side, Counts) else 0 for side in (reference, observed)]
    return FidelityReport(distance, 1.0 - distance, diffs, *shots)


def to_json_text(value) -> str:
    """JSON text with floats rendered at 17 significant digits (lossless).

    A ``Distribution`` renders as an object over its support in index order,
    and ``Counts`` as ``{"shots": int, "counts": {bitstring: int}}``.  NaN and
    infinity have no JSON form and raise ``ValidationError``.
    """
    if isinstance(value, Counts):
        tallies = Distribution(value.width, value.support, value.probs)
        return '{"shots": %d, "counts": %s}' % (value.shots, to_json_text(tallies))
    if isinstance(value, Distribution):
        probs = value.probs
        if not np.isfinite(probs).all():
            raise ValidationError("cannot serialize a non-finite probability")
        items = [None] * (2 * len(probs))
        items[::2] = bitstring_bytes(value.support, value.width).tolist()
        items[1::2] = probs.tolist()
        entry = b'"%s": %d' if probs.dtype.kind == "i" else b'"%s": %.17g'
        body = b", ".join([entry] * len(probs)) % tuple(items)
        return "{" + body.decode("ascii") + "}"
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValidationError(f"cannot serialize the non-finite number {value}")
        return format(value, ".17g")
    if isinstance(value, (bool, int, str)) or value is None:
        return json.dumps(value)
    if isinstance(value, dict):
        body = ", ".join(
            f"{json.dumps(str(k))}: {to_json_text(v)}" for k, v in value.items()
        )
        return "{" + body + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(to_json_text(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value).__name__}")
