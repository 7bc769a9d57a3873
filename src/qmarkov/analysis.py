"""Distribution utilities: counts normalization, the Hellinger metric with
its fidelity complement, and run-comparison reports."""

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
    """Comparison of two runs; fidelity is 1 - distance by construction.

    ``diffs`` holds per-bitstring absolute probability differences over the
    union of supports, in key order; a shots field of 0 marks an exact
    (non-sampled) side.
    """

    hellinger_distance: float
    diffs: Distribution
    reference_shots: int
    observed_shots: int

    @property
    def hellinger_fidelity(self) -> float:
        return 1.0 - self.hellinger_distance


def compare_runs(reference, observed) -> FidelityReport:
    """Build a fidelity report between two runs.

    Either side may be a ``Counts`` histogram (normalized by its shots, which
    are recorded) or a distribution of probabilities (shots recorded as 0).
    Work and memory scale with the supports, not with 2**width.
    """
    width, union, ref_probs, obs_probs = _on_union(reference, observed, "reference", "observed")
    diffs = Distribution(width, union, np.abs(ref_probs - obs_probs))
    shots = [side.shots if isinstance(side, Counts) else 0 for side in (reference, observed)]
    return FidelityReport(_distance(ref_probs, obs_probs), diffs, *shots)


_CHUNK = 1 << 16  # entries per record matrix of _distribution_text
_VALUE_BYTES = 24  # every %.17g float and %d int64 fits, e.g. -2.2250738585072014e-308


def _distribution_text(dist: Distribution) -> str:
    """``{"key": value, ...}`` over the support, built without a Python
    object per entry: each distinct value is formatted once, and each chunk
    of entries fills a matrix of fixed-width records whose NUL padding one
    mask drops."""
    integral = dist.probs.dtype.kind == "i"
    probs = np.asarray(dist.probs, dtype=np.int64 if integral else np.float64)
    if not np.isfinite(probs).all():
        raise ValidationError("cannot serialize a non-finite probability")
    if not len(probs):
        return "{}"
    # Keyed on bit patterns, so -0.0 stays apart from 0.0.
    uniq, inverse = np.unique(probs.view(np.uint64), return_inverse=True)
    fmt = b"%-24d" if integral else b"%-24.17g"
    padded = (fmt * len(uniq)) % tuple(uniq.view(probs.dtype).tolist())
    table = np.frombuffer(padded.replace(b" ", b"\0"), np.uint8).reshape(-1, _VALUE_BYTES)
    # Record layout: '"' key '": ' value ', ', the value NUL-padded.
    key_bytes = max(dist.width, 1)  # bitstring_bytes gives S1 at width 0
    value_at = key_bytes + 4
    records = np.empty((min(len(probs), _CHUNK), value_at + _VALUE_BYTES + 2), np.uint8)
    records[:, 0] = ord('"')
    records[:, value_at - 3 : value_at] = np.frombuffer(b'": ', np.uint8)
    records[:, -2:] = np.frombuffer(b", ", np.uint8)
    pieces = ["{"]
    for start in range(0, len(probs), _CHUNK):
        support = dist.support[start : start + _CHUNK]
        chunk = records[: len(support)]
        keys = bitstring_bytes(support, dist.width)
        chunk[:, 1 : value_at - 3] = keys.view(np.uint8).reshape(len(support), key_bytes)
        chunk[:, value_at:-2] = table[inverse[start : start + _CHUNK]]
        pieces.append(chunk[chunk != 0].tobytes().decode("ascii"))
    pieces[-1] = pieces[-1][:-2]
    pieces.append("}")
    return "".join(pieces)


def to_json_text(value) -> str:
    """JSON text of a result, floats rendered at 17 significant digits
    (lossless).

    A ``Distribution`` renders as an object over its support in index order,
    ``Counts`` as ``{"shots": int, "counts": {bitstring: int}}`` and a
    ``FidelityReport`` as ``{"distance": float, "fidelity": float, "diffs":
    {bitstring: float}}``.  NaN and infinity have no JSON form and raise
    ``ValidationError``; any other type raises ``TypeError``.
    """
    if isinstance(value, Counts):
        return '{"shots": %d, "counts": %s}' % (value.shots, _distribution_text(value))
    if isinstance(value, Distribution):
        return _distribution_text(value)
    if isinstance(value, FidelityReport):
        floats = (value.hellinger_distance, value.hellinger_fidelity)
        if not all(map(math.isfinite, floats)):
            raise ValidationError(f"cannot serialize the non-finite distance {floats[0]}")
        diffs = _distribution_text(value.diffs)
        return '{"distance": %.17g, "fidelity": %.17g, "diffs": %s}' % (*floats, diffs)
    raise TypeError(f"cannot serialize {type(value).__name__}")
