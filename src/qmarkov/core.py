"""Exact statevector engine: ``execute`` runs H/X/U1/CNOT through one in-place
kernel, a run of ops on at most two qubits at a time; and sampling.

Basis index convention: the bit of qubit q0 is the most significant bit of
the amplitude index, so ``format(index, f"0{n}b")`` is the time-ordered
bitstring (leftmost character = q0).

Determinism: all randomness flows through numpy's PCG64 generator
(``np.random.default_rng``) seeded with a caller-supplied integer, and draws
happen in a fixed documented order, so noisy execution and sampling are
byte-for-byte reproducible per seed.  The kernel touches disjoint amplitude
sets with no reductions, so results do not depend on BLAS thread counts.
"""

import copy
import functools
import itertools
import math
import numbers
import os
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, ValidationError
from .gates import _INV_SQRT2, GateOp

DEFAULT_MAX_QUBITS = 24
MAX_QUBITS_ENV = "QSIM_MAX_QUBITS"
MAX_QUBITS_CEILING = 58
DIST_SUM_ATOL = 1e-9
MAX_KEY_BITS = 63


def configured_max_qubits() -> int:
    """Capacity limit: the QSIM_MAX_QUBITS environment variable, else 24.

    The variable must lie in [1, 58]: 2**58 complex128 amplitudes is the
    largest buffer numpy can size, so a larger value is refused up front.
    """
    raw = os.environ.get(MAX_QUBITS_ENV)
    if raw is None:
        return DEFAULT_MAX_QUBITS
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValidationError(f"{MAX_QUBITS_ENV} must be an integer, got {raw!r}") from exc
    if not 1 <= value <= MAX_QUBITS_CEILING:
        raise ValidationError(
            f"{MAX_QUBITS_ENV} must lie in [1, {MAX_QUBITS_CEILING}], got {value}"
        )
    return value


def check_capacity(width: int, what: str) -> None:
    """Refuse a ``width``-qubit ``what`` above ``configured_max_qubits()``."""
    limit = configured_max_qubits()
    if width > limit:
        raise CapacityError(f"{what} needs {width} qubits, capacity is {limit}")


def bits_index(bits: np.ndarray) -> np.ndarray:
    """The basis index of each row of 0/1 ``bits``, its first column (q0) the top bit."""
    index = np.zeros(len(bits), dtype=np.int64)
    for column in bits.T:
        index <<= 1
        index |= column
    return index


def bitstring_bytes(index: np.ndarray, width: int) -> np.ndarray:
    """Time-ordered bitstrings (q0 leftmost) of basis indices, as ``S{width}``."""
    if width == 0:
        return np.zeros(len(index), dtype="S1")
    bits = np.empty((len(index), width), dtype=np.uint8)
    for col in range(width):
        bits[:, col] = (index >> (width - 1 - col)) & 1
    bits += ord("0")
    return bits.view(f"S{width}").reshape(-1)


def _ordered_sum(size: int, fill) -> float:
    """``values[0] + values[1] + ...`` from 0.0, one add after another as
    ``np.cumsum`` makes them, without a ``size``-long array: ``fill(lo, hi,
    out)`` writes ``values[lo:hi]`` to ``out``, ``_CHUNK`` values at a time.
    Each chunk's first value takes the running total, so the adds are those
    of one ``np.cumsum`` over all values, bit for bit."""
    scratch = np.empty(min(size, _CHUNK))
    total = 0.0
    with np.errstate(over="ignore"):  # a sum past the float range is inf, as Python's is
        for lo in range(0, size, _CHUNK):
            part = scratch[: min(size - lo, _CHUNK)]
            fill(lo, lo + len(part), part)
            part[0] += total
            total = np.cumsum(part, out=part)[-1]
    return float(total)


def _checked_support(dist, what: str) -> np.ndarray:
    """A hand-built ``Distribution``'s support as an array, refused unless it
    is a 1-D int array of strictly increasing indices in [0, 2**width), one
    per value, for a width in [1, 63]; width 0 holds the empty result only."""
    width, support = dist.width, np.asarray(dist.support)
    lowest = 1 if support.size else 0
    if not isinstance(width, numbers.Integral) or not lowest <= width <= MAX_KEY_BITS:
        raise ValidationError(f"{what} has width {width!r}, expected {lowest} to {MAX_KEY_BITS}")
    if support.ndim != 1 or np.shape(dist.probs) != support.shape or (
            len(support) and support.dtype.kind not in "iu"):
        raise ValidationError(f"{what} needs a 1-D int support with one index per value")
    if len(support) and (support[0] < 0 or int(support[-1]) >> width
                         or (support[1:] <= support[:-1]).any()):
        raise ValidationError(f"{what} needs strictly increasing indices in [0, 2**{width})")
    return support.astype(np.int64, copy=False)


def parse_bitstring_map(mapping, what: str, integral: bool = False):
    """The one validator for ``{bitstring: number}`` input.

    Keys must be non-empty binary strings of one width, at most 63 bits (the
    int64 basis index); values finite, non-negative numbers (ints within the
    int64 range when ``integral``), never bools.  A ``Distribution`` is such
    a map in array form, its support checked by ``_checked_support``.
    Returns ``(width, index, values, total)``: each entry's basis index and
    value (int64 when ``integral``, else float64) sorted by index, and the
    plain sequential ``sum`` of the values in mapping order.
    An empty map has width 0.
    """
    dtype = np.dtype(np.int64 if integral else np.float64)
    if isinstance(mapping, Distribution):
        width, index = mapping.width, _checked_support(mapping, what)
        raw, order = mapping.probs, slice(None)
        floats = np.asarray(raw).dtype.kind == "f"
    else:
        keys = list(mapping)
        raw = list(mapping.values())
        if not keys:
            return 0, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=dtype), 0
        try:
            joined = "".join(keys)
        except TypeError:
            raise ValidationError(f"{what} has a key that is not a bitstring") from None
        widths = sorted(set(map(len, keys)))
        if len(widths) > 1:
            raise ValidationError(f"{what} mixes bitstring lengths {widths[0]} and {widths[1]}")
        width = widths[0]
        try:
            bits = np.frombuffer(joined.encode("ascii"), dtype=np.uint8) - np.uint8(ord("0"))
            malformed = width == 0 or bool((bits > 1).any())
        except UnicodeEncodeError:
            malformed = True
        if malformed:
            key = next(k for k in keys if not k or set(k) - {"0", "1"})
            raise ValidationError(f"{what} has a malformed bitstring {key!r}")
        if width > MAX_KEY_BITS:
            raise CapacityError(f"{what} has {width}-bit keys, the limit is {MAX_KEY_BITS}")
        index = bits_index(bits.reshape(-1, width))

        kind = int if integral else numbers.Real
        types = set(map(type, raw))
        if not all(issubclass(t, kind) and not issubclass(t, bool) for t in types):
            key = next(k for k, v in zip(keys, raw)
                       if not isinstance(v, kind) or isinstance(v, bool))
            raise ValidationError(f"{what} has a non-numeric value for {key!r}")
        floats = types == {float}
        order = np.argsort(index, kind="stable")
    # In mapping order: an error names the first bad entry, the total is a sequential sum.
    try:
        values = np.asarray(raw, dtype=dtype)
    except OverflowError:
        raise ValidationError(f"{what} has an int beyond the {dtype} range") from None
    bad = ~(np.isfinite(values) & (values >= 0))
    if bad.any():
        key = bitstring_bytes(index[bad][:1], width)[0].decode("ascii")
        raise ValidationError(f"{what} has a negative or non-finite value for {key!r}")
    if floats and not integral and len(values):
        # Python's sum of floats (3.10, 3.11) without a float object per
        # entry: one add after another from 0, so -0.0 reads 0.0.
        total = _ordered_sum(len(values), lambda lo, hi, out: np.copyto(out, values[lo:hi]))
    else:  # ints, alone or mixed with floats: exact, as int64 could overflow
        total = sum(raw if isinstance(raw, list) else raw.tolist())
    return width, index[order], values[order], total


class Distribution(Mapping):
    """A distribution over a ``width``-bit register, held as arrays.

    ``support`` is the sorted basis-index array of the listed entries (q0 the
    most significant bit) and ``probs[i]`` is the probability of
    ``support[i]``.  A computed result comes from its dense 2**width vector
    via ``from_vector`` and lists the nonzero entries; a parsed map lists its
    keys, so explicit zeros survive and no 2**width vector is allocated.  As
    a ``Mapping[str, float]`` it iterates the support in index order, which
    is sorted bitstring order; absent keys read as zero through ``.get``.
    Bitstring keys are made only at the JSON edge.
    """

    __slots__ = ("width", "support", "probs")

    def __init__(self, width: int, support: np.ndarray, probs: np.ndarray):
        self.width = width
        self.support = support
        self.probs = probs

    @classmethod
    def from_vector(cls, width: int, vector: np.ndarray) -> "Distribution":
        """The nonzero entries of a dense vector indexed by basis index."""
        support = np.flatnonzero(vector)
        return cls(width, support, vector[support])

    @classmethod
    def from_mapping(cls, mapping, what: str = "distribution") -> "Distribution":
        """Validate a bitstring->probability map: non-empty, summing to 1
        within 1e-9.  ``Counts`` are divided by their shots first; a
        ``Distribution`` is checked on its arrays and returned as a new one
        on them."""
        if isinstance(mapping, Counts):
            mapping = counts_to_distribution(mapping)
        width, index, values, total = parse_bitstring_map(mapping, what)
        if not len(index):
            raise ValidationError(f"{what} is empty")
        if abs(total - 1.0) > DIST_SUM_ATOL:
            raise ValidationError(f"{what} sums to {total}, expected 1 within {DIST_SUM_ATOL}")
        return cls(width, index, values)

    def bit_reversed(self) -> "Distribution":
        """The same distribution keyed with q0 as the rightmost character."""
        index = np.zeros_like(self.support)
        for bit in range(self.width):
            index |= ((self.support >> bit) & 1) << (self.width - 1 - bit)
        order = np.argsort(index)
        out = copy.copy(self)
        out.support, out.probs = index[order], self.probs[order]
        return out

    def __len__(self) -> int:
        return len(self.support)

    def __iter__(self):
        return iter(bitstring_bytes(self.support, self.width).astype(str).tolist())

    def __getitem__(self, key: str) -> float:
        if isinstance(key, str) and len(key) == self.width and not set(key) - {"0", "1"}:
            index = int(key, 2)
            pos = int(np.searchsorted(self.support, index))
            if pos < len(self.support) and self.support[pos] == index:
                return self.probs[pos].item()
        raise KeyError(key)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self)!r})"


@dataclass
class Statevector:
    """Dense register state: 2**num_qubits complex amplitudes, unit L2 norm."""

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.num_qubits < 1:
            raise ValidationError(f"num_qubits must be >= 1, got {self.num_qubits}")
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (1 << self.num_qubits,):
            raise ValidationError(
                f"expected {1 << self.num_qubits} amplitudes, got shape {amps.shape}"
            )
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > 1e-10:
            raise ValidationError(f"state norm must be 1 within 1e-10, got {norm}")
        self.amplitudes = amps

    @classmethod
    def _unchecked(cls, num_qubits: int, amplitudes: np.ndarray) -> "Statevector":
        """A state ``execute`` built from unitary kernels, without the
        constructor's full pass over the amplitudes for the norm."""
        state = object.__new__(cls)
        state.num_qubits, state.amplitudes = num_qubits, amplitudes
        return state


def probabilities(state: Statevector) -> Distribution:
    """Born-rule distribution over the register's basis states.

    Basis states with exactly zero amplitude are outside the support (absent
    keys read as probability zero everywhere in this package).
    """
    return _probabilities(state, np.empty(1 << state.num_qubits))


def _probabilities(state, out) -> Distribution:
    """``probabilities`` with |a|^2 written to the float64 buffer ``out`` of
    2^n slots.  A caller done with the state can pass
    ``state.amplitudes.view(np.float64)[: 1 << n]``, so the dense vector takes
    no memory beside the state (see ``_squared_magnitudes``)."""
    return Distribution.from_vector(state.num_qubits, _squared_magnitudes(state.amplitudes, out))


@dataclass(frozen=True)
class NoiseModel:
    """Stochastic bit-flip noise.

    ``gate_flip_prob`` applies an X to each touched qubit after each gate,
    independently; ``readout_flip_prob`` flips each measured classical bit.
    Both zero is exactly noiseless.
    """

    gate_flip_prob: float = 0.0
    readout_flip_prob: float = 0.0

    def __post_init__(self):
        for label, p in (
            ("gate_flip_prob", self.gate_flip_prob),
            ("readout_flip_prob", self.readout_flip_prob),
        ):
            if not 0.0 <= p <= 1.0:
                raise ValidationError(f"{label} must lie in [0, 1], got {p}")

    @property
    def is_noiseless(self) -> bool:
        return self.gate_flip_prob == 0.0 and self.readout_flip_prob == 0.0


@dataclass
class Circuit:
    """Ordered primitive gate applications over a fixed-width register.

    Ops execute strictly left to right (list order = time order).
    """

    num_qubits: int
    ops: list[GateOp] = field(default_factory=list)

    def __post_init__(self):
        if self.num_qubits < 1:
            raise ValidationError(f"num_qubits must be >= 1, got {self.num_qubits}")
        for op in self.ops:
            for q in op.qubits:
                if not 0 <= q < self.num_qubits:
                    raise IndexError(
                        f"{op.text()} addresses qubit {q} in a "
                        f"{self.num_qubits}-qubit register"
                    )


_CHUNK = 1 << 14  # amplitudes (256 KiB) per chunk of a run; entries per chunk of result text


@functools.lru_cache(maxsize=1024)
def _layout(width, qubits):
    """How ``_block`` reads a run on ``qubits``, cached as runs repeat: the
    prefix's shape, an axis per run qubit and per span of other qubits; the
    order putting run axes first; a column's shape; and per chunk of at most
    256 KiB, cut innermost axis first, each column's index, which drops the
    chunk's size-1 axes (numpy loops over them more slowly)."""
    edges = [-1, *qubits, width]
    free = [1 << (hi - lo - 1) for lo, hi in zip(edges, edges[1:])]
    room = _CHUNK >> len(qubits)
    takes = [min(size, max(1, room // math.prod(free[i + 1 :]))) for i, size in enumerate(free)]
    chunks = []
    for starts in itertools.product(*map(range, [0] * len(free), free, takes)):
        cut = [slice(s, s + t) if t > 1 else s for s, t in zip(starts, takes)]
        chunks.append([(*c, *cut, ...) for c in itertools.product((0, 1), repeat=len(qubits))])
    shape = [d for size in free for d in (size, 2)][:-1]
    axes = [*range(1, len(shape), 2), *range(0, len(shape), 2)]
    return shape, axes, [t for t in takes if t > 1], chunks


def _block(state, width, ops, fresh=0):
    """Run ``ops``, all on one or two qubits, on ``state`` chunk by chunk.

    Each value c of the run qubits (the lowest-numbered one is the high bit
    of c) has a column; ``where[c]`` is the row holding the amplitudes whose
    run qubits read c.  Each chunk's columns are copied into the rows of one
    contiguous buffer, H and U1 run on the rows, X and CNOT only change
    ``where``, and the copy back puts row ``where[c]`` in column c.

    With ``fresh`` > 0 the run also grows the prefix, as ``_grow`` would:
    the lowest ``fresh`` bits of ``width`` are new qubits in |0>, and the
    run's qubits are the lowest bits of ``width``, so each chunk is a block
    of the state.  Its rows with the new qubits at 0 are copied from the
    old prefix, ``state[: state.size >> fresh]``, and the others set to
    +0.0.  Chunks run top down: a chunk writes only where the chunks below
    it never read.
    """
    qubits = tuple(sorted({q for op in ops for q in op.qubits}))
    where, steps = list(range(1 << len(qubits))), []
    for op in ops:
        *control, flip = [1 << (len(qubits) - 1 - qubits.index(q)) for q in op.qubits]
        if op.name in ("X", "CNOT"):
            mask = sum(control)
            where = [where[c ^ flip if c & mask == mask else c] for c in range(len(where))]
        else:
            phase = None if op.name == "H" else np.exp(1j * op.angle)
            pairs = [(where[c], where[c | flip]) for c in range(len(where)) if not c & flip]
            steps.append((phase, pairs))
    shape, axes, column, chunks = _layout(width, qubits)
    view = state.reshape(shape).transpose(axes)
    buffer = np.empty([len(where), *column], dtype=np.complex128)
    rows = [buffer[c, ...] for c in range(len(where))]  # views, even of 0-d rows
    diff = np.empty(column, dtype=np.complex128)
    old = state[: state.size >> fresh].reshape(-1, len(where) >> fresh)
    for keys in reversed(chunks):
        for c, key in enumerate(keys):
            if not fresh:
                rows[c][...] = view[key]
            elif c % (1 << fresh):
                rows[c][...] = 0
            else:  # key[len(qubits)] is the chunk's cut of the one outer axis
                rows[c][...] = old[key[len(qubits)], c >> fresh]
        for phase, pairs in steps:
            for lower, upper in pairs:
                if phase is None:  # H
                    np.subtract(rows[lower], rows[upper], out=diff)
                    rows[lower] += rows[upper]
                    rows[lower] *= _INV_SQRT2
                    np.multiply(diff, _INV_SQRT2, out=rows[upper])
                else:
                    rows[upper] *= phase
        for c, key in enumerate(keys):
            view[key] = rows[where[c]]


def _grow(amps, width, new_width):
    """Spread ``amps[: 1 << width]`` over ``new_width`` qubits in |0>, top chunk first."""
    shift, step = new_width - width, min(1 << width, _CHUNK // 4)
    for start in range((1 << width) - step, -1, -step):
        chunk = amps[start : start + step].copy()
        spread = amps[start << shift : (start + step) << shift]
        spread[:] = 0
        spread[:: 1 << shift] = chunk


def _check_seed(rng_seed: int | None) -> None:
    if rng_seed is not None and rng_seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {rng_seed}")


def execute(
    circuit: Circuit, noise: NoiseModel | None = None, rng_seed: int | None = None
) -> Statevector:
    """Run a circuit from the all-|0> state, gates in list order.

    Noiseless execution is deterministic and ignores the seed.  With gate
    noise enabled, one uniform draw per touched qubit per gate decides the
    stochastic X insertions (control first for CNOT), so the result is
    reproducible per seed.
    """
    check_capacity(circuit.num_qubits, "circuit")
    if noise is not None and not noise.is_noiseless and rng_seed is None:
        raise ValidationError("rng_seed is required when noise is enabled")
    _check_seed(rng_seed)
    flip_prob = noise.gate_flip_prob if noise is not None else 0.0
    rng = np.random.default_rng(rng_seed) if flip_prob > 0.0 else None

    n = circuit.num_qubits
    amps = np.zeros(1 << n, dtype=np.complex128)
    amps[0] = 1.0
    # Untouched qubits are |0>: ops run on the prefix of qubits 0..width-1.
    width, ops, i = 0, circuit.ops, 0
    while i < len(ops):
        before, width = width, max(width, max(ops[i].qubits) + 1)
        # A run: ops in a row on at most two live qubits.  While width <= 2
        # it is one op, as a run on both qubits would have length-1 columns,
        # on which numpy's complex multiply rounds differently.
        qubits, end = {*ops[i].qubits}, i + 1
        while (width > 2 and end < len(ops) and max(ops[end].qubits) < width
               and len(qubits := qubits | {*ops[end].qubits}) <= 2):
            end += 1
        run = ops[i:end]
        # The run's gather grows the prefix when the new qubits are its own
        # and its qubits are the lowest bits of the new width; else _grow.
        live = {q for op in run for q in op.qubits}
        low = width - len(live)
        fresh = width - before if low <= before and live == set(range(low, width)) else 0
        if width > before and not fresh:
            _grow(amps, before, width)
        if rng is not None:  # each op, then an X on each qubit its gate noise flips
            xs = [[GateOp("X", (q,)) for q in op.qubits if rng.random() < flip_prob] for op in run]
            run = [x for op, flips in zip(run, xs) for x in (op, *flips)]
        _block(amps[: 1 << width], width, run, fresh)
        i = end
    if width < n:
        _grow(amps, width, n)
    return Statevector._unchecked(n, amps)


class Counts(Distribution):
    """Measurement histogram in the ``Distribution`` layout: ``probs`` holds
    the int64 tally of each support entry, and the tallies total ``shots``.

    Sampling builds one from its arrays; ``from_json_dict`` is the one parse
    point for a counts input.  Wherever probabilities are expected, a
    ``Counts`` is first divided by its shots (``counts_to_distribution``).
    """

    __slots__ = ("shots",)

    def __init__(self, width: int, support: np.ndarray, tallies: np.ndarray, shots: int):
        super().__init__(width, support, tallies)
        self.shots = shots

    @classmethod
    def from_json_dict(cls, data: dict) -> "Counts":
        """Check a parsed counts object.  Its ``counts`` may also be a
        ``Distribution`` of tallies, as ``Counts`` sides are re-checked."""
        if not isinstance(data, dict) or set(data) != {"shots", "counts"}:
            raise ValidationError("counts JSON needs exactly the keys 'shots' and 'counts'")
        shots = data["shots"]
        raw = data["counts"]
        if not isinstance(shots, numbers.Integral) or isinstance(shots, bool) or shots < 1:
            raise ValidationError("'shots' must be a positive integer")
        if not isinstance(raw, Mapping):
            raise ValidationError("'counts' must be an object")
        width, index, tallies, total = parse_bitstring_map(raw, "counts", integral=True)
        if total != shots:
            raise ValidationError(f"counts sum to {total}, expected shots={shots}")
        return cls(width, index, tallies, shots)


def counts_to_distribution(counts: Counts) -> Distribution:
    """Normalize a histogram by its shot count."""
    return Distribution(counts.width, counts.support, np.divide(counts.probs, counts.shots))


def _squared_magnitudes(amplitudes, out):
    """Write |a|^2 of each amplitude, bit for bit ``np.abs(amplitudes) ** 2``,
    into the float64 buffer ``out`` and return it.  It goes in ``_CHUNK``
    amplitudes at a time, so ``out`` may be the amplitudes' own memory: float
    slot i overlaps amplitude i // 2, which the forward walk has already
    read.  ``np.abs`` writes to a scratch chunk, never to memory it reads:
    numpy copies an overlapping operand and then takes a loop that rounds
    some |a| differently from the whole-array call."""
    scratch = np.empty(min(len(out), _CHUNK))
    for lo in range(0, len(out), _CHUNK):
        part = out[lo : lo + _CHUNK]
        mag = np.abs(amplitudes[lo : lo + _CHUNK], out=scratch[: len(part)])
        np.multiply(mag, mag, out=part)
    return out


def _cdf(amplitudes, cdf):
    """Write the CDF of |a|^2 over ``amplitudes``, normalized and scaled to
    end at 1, into the float64 buffer ``cdf`` and return it; ``cdf`` may be
    the amplitudes' own memory (see ``_squared_magnitudes``)."""
    _squared_magnitudes(amplitudes, cdf)
    cdf /= cdf.sum()
    np.cumsum(cdf, out=cdf)
    cdf /= cdf[-1]
    return cdf


def sample_counts(
    state: Statevector,
    shots: int,
    rng_seed: int | None,
    noise: NoiseModel | None = None,
) -> Counts:
    """Multinomial sample of the state's distribution, with optional readout
    bit flips.

    Draw order per seed: the ``shots`` outcome draws first, then (only when
    readout_flip_prob > 0) one uniform per measured bit.
    """
    return _sample_counts(state, shots, rng_seed, noise, None)


def _sample_counts(state, shots, rng_seed, noise, cdf) -> Counts:
    """``sample_counts`` with its CDF built in the float64 buffer ``cdf`` of
    2^n slots, a new array when None.  A caller done with the state can pass
    ``state.amplitudes.view(np.float64)[: 1 << n]``, so the CDF takes no
    memory beside the state (see ``_cdf``)."""
    if shots < 1:
        raise ValidationError(f"shots must be >= 1, got {shots}")
    if rng_seed is None:
        raise ValidationError("rng_seed is required for sampling")
    _check_seed(rng_seed)
    n = state.num_qubits
    flip_prob = noise.readout_flip_prob if noise is not None else 0.0
    # numpy sizes no array beyond intp's range in bytes: the int64 outcomes
    # and, with readout noise, the shots x n float64 uniforms.
    if int(shots) * 8 * (n if flip_prob > 0.0 else 1) > np.iinfo(np.intp).max:
        raise ValidationError(f"shots={shots} is too many: numpy cannot size the draw arrays")
    # Generator.choice's own algorithm for p=, run in one buffer: the CDF of
    # the normalized probabilities, scaled to end at 1, searched with one
    # uniform per shot.  Same draws, same generator state afterwards.
    cdf = _cdf(state.amplitudes, np.empty(1 << n) if cdf is None else cdf)
    rng = np.random.default_rng(rng_seed)
    # Uniforms in ascending order search the CDF with fewer cache misses;
    # the outcomes go back to draw order, each shot's readout flips its own.
    # The sorted uniforms' memory, no longer read, takes the outcomes.
    draws = rng.random(shots)
    order = draws.argsort()
    draws = draws[order]
    found = cdf.searchsorted(draws, side="right")
    outcomes = draws.view(np.int64)
    outcomes[order] = found
    del draws, order, found
    if flip_prob > 0.0:
        outcomes ^= bits_index(rng.random((shots, n)) < flip_prob)
    index, tallies = np.unique(outcomes, return_counts=True)
    return Counts(n, index, tallies, shots)
