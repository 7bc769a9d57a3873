"""Distribution utilities: counts normalization, the Hellinger metric with
its fidelity complement, run-comparison reports, and the JSON text of
results: written from arrays, and read back as arrays for probability maps."""

import itertools
import json
import math
import os
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import (_CHUNK, MAX_KEY_BITS, Counts, Distribution, _checked_support, _ordered_sum,
                   bits_index, bitstring_bytes, counts_to_distribution)
from .errors import ValidationError
from .gates import _INV_SQRT2


# Checks a bitstring->probability map and returns it as a ``Distribution``.
validate_distribution = Distribution.from_mapping


def _checked(side, what: str):
    """A comparison input after its checks: ``Counts`` whose tallies total
    its positive shots, or else a non-empty map of finite, non-negative
    values summing to 1 within 1e-9, as a ``Distribution``."""
    if isinstance(side, Counts):
        return Counts.from_json_dict({"shots": side.shots, "counts": side})
    return Distribution.from_mapping(side, what)


def _on_union(p, q):
    """Width, the sorted union of both supports, and each side's
    probabilities over it (absent entries read as zero), for two checked
    sides; ``Counts`` are divided by their shots."""
    p, q = (counts_to_distribution(s) if isinstance(s, Counts) else s for s in (p, q))
    if p.width != q.width:
        raise ValidationError(f"bitstring lengths differ: {p.width} vs {q.width}")
    if np.array_equal(p.support, q.support):  # e.g. a run against its oracle
        return p.width, p.support, *(np.asarray(side.probs, np.float64) for side in (p, q))
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
    return p.width, union, *spread


def _distance(p_probs: np.ndarray, q_probs: np.ndarray) -> float:
    # Sequential sum in index order, so the result is reproducible to the
    # last bit (a pairwise np.sum would change it), a chunk at a time.
    def squares(lo, hi, out):
        np.sqrt(p_probs[lo:hi], out=out)
        out -= np.sqrt(q_probs[lo:hi])
        out *= out

    return min(_INV_SQRT2 * math.sqrt(_ordered_sum(len(p_probs), squares)), 1.0)


def hellinger_distance(p, q) -> float:
    """(1/sqrt 2) times the L2 distance between the square-root vectors.

    Computed over the union of supports; absent keys count as probability
    zero.  Symmetric, and 0 exactly for identical inputs.  Each side, a map,
    ``Distribution`` or ``Counts``, is checked first and raises
    ``ValidationError`` if it is not a distribution.
    """
    sides = _checked(p, "first distribution"), _checked(q, "second distribution")
    _, _, p_probs, q_probs = _on_union(*sides)
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


def compare_runs(reference, observed, *, checked: bool = False) -> FidelityReport:
    """Build a fidelity report between two runs.

    Either side may be a ``Counts`` histogram (normalized by its shots, which
    are recorded) or a distribution of probabilities (shots recorded as 0).
    Each side takes the checks of ``hellinger_distance``, and ``Counts``
    tallies must total their shots; ``checked`` says that both sides, a
    ``Counts`` or ``Distribution`` each, have passed those checks already.
    Work and memory scale with the supports, not with 2**width.
    """
    if not checked:
        reference, observed = _checked(reference, "reference"), _checked(observed, "observed")
    width, union, ref_probs, obs_probs = _on_union(reference, observed)
    diffs = np.subtract(ref_probs, obs_probs)
    diffs = Distribution(width, union, np.abs(diffs, out=diffs))
    shots = [side.shots if isinstance(side, Counts) else 0 for side in (reference, observed)]
    return FidelityReport(_distance(ref_probs, obs_probs), diffs, *shots)


_VALUE_BYTES = 24  # every %.17g float and %d int64 fits, e.g. -2.2250738585072014e-308


def _take_rows(table: np.ndarray, index: np.ndarray) -> np.ndarray:
    """The ``_VALUE_BYTES``-byte rows of ``table``, a ``V24`` array, at
    ``index`` as uint8 rows: a 1-D take of 24-byte items, about twice as
    fast as fancy indexing rows of a 2-D uint8 table."""
    return table.take(index).view(np.uint8).reshape(-1, _VALUE_BYTES)


_GROUP_ROUNDS = tuple(map(np.uint64, (0xBF58476D1CE4E5B9, 0x94D049BB133111EB, 0xD6E8FEB86659FD93)))


def _owners(rows: np.ndarray, index: np.ndarray, mult: np.uint64) -> np.ndarray:
    """Hash ``rows`` of uint64 words into a table of at least twice as many
    slots, keeping the top bits of each row's words folded into the odd
    ``mult`` by multiplying and xoring (Knuth, TAOCP vol. 3, 6.4); per row,
    the ``index`` entry of the last row written to its slot."""
    bits = max(len(rows) - 1, 1).bit_length() + 1
    first, *rest = rows.T
    slot = first * mult
    for word in rest:
        slot ^= word
        slot *= mult
    slot >>= np.uint64(64 - bits)
    slot = slot.view(np.int64)  # numpy casts uint64 indices, but not int64 ones
    owner = np.empty(1 << bits, index.dtype)
    owner[slot] = index
    return owner[slot]


def _group(keys: np.ndarray):
    """Group equal keys, uint64 words or rows of them: the index of one key
    per group (``first``) and each key's group number (``inverse``), so that
    ``keys[first][inverse] == keys``.  Groups come in no particular order.

    Each round hashes the keys not yet grouped with ``_owners``.  A key joins
    its slot owner's group only if the two are equal word for word, so
    groups are exact, and equal keys share a slot, so a group is settled in
    one round.  The keys a round leaves go to the next, and as every slot's
    owner is settled, the rounds end.  Positions are int32, which halves the
    owner table and the gathers: callers group at most ``_BATCH`` keys plus
    one slice's records, far below 2**31.
    """
    rows = keys[:, None] if keys.ndim == 1 else keys
    words = rows.T
    is_first = np.zeros(len(keys), bool)
    todo, sub, inverse = np.arange(len(keys), dtype=np.int32), rows, None
    for mult in itertools.cycle(_GROUP_ROUNDS):
        cand = _owners(sub, todo, mult)
        is_first[cand] = True  # every owner is in its own group
        if inverse is None:  # the first round covers every key, so its owners need no copy
            inverse = cand
        else:
            inverse[todo] = cand
        # Word by word: the owners' words gather faster one at a time than as rows.
        missed = words[0][cand] != sub[:, 0]
        for k in range(1, len(words)):
            missed |= words[k][cand] != sub[:, k]
        todo = todo[missed]
        if not len(todo):
            break
        sub = rows.take(todo, axis=0)
    first = np.flatnonzero(is_first)
    label = np.empty(len(keys), np.intp)
    label[first] = np.arange(len(first))
    return first, label[inverse]


def _record_head(width: int) -> np.ndarray:
    """The separator space and record head ' "' key '": ' as bytes, key ``width`` zeros."""
    return np.frombuffer(b' "' + b"0" * width + b'": ', np.uint8)


_BATCH = 4 * _CHUNK  # values formatted, or records' tokens converted, at a time


def _formatted(values: np.ndarray, fmt: bytes) -> np.ndarray:
    """Each of ``values`` as ``fmt`` gives it, NUL-padded, as one ``V24`` item."""
    padded = (fmt * len(values)) % tuple(values.tolist())
    return np.frombuffer(padded.replace(b" ", b"\0"), f"V{_VALUE_BYTES}")


def _distribution_pieces(dist: Distribution, head: str = "", tail: str = ""):
    """``head``, ``{"key": value, ...}`` over the support and ``tail``, as an
    iterator of str pieces: ``head + "{"``, one piece per chunk of at most
    ``_CHUNK`` entries, and ``"}" + tail``.  The support and value checks run
    before the iterator exists.  A hand-built ``dist`` may hold lists."""
    support = _checked_support(dist, "result")
    probs = np.asarray(dist.probs)
    integral = probs.dtype.kind == "i"
    probs = np.asarray(probs, dtype=np.int64 if integral else np.float64)
    if not np.isfinite(probs).all():
        raise ValidationError("cannot serialize a non-finite probability")
    if not len(probs):
        return iter((head + "{}" + tail,))
    fmt = b"%-24d" if integral else b"%-24.17g"
    pieces = _record_pieces(dist.width, support, probs, fmt)
    return itertools.chain((head + "{",), pieces, ("}" + tail,))


def _record_pieces(width: int, support: np.ndarray, probs: np.ndarray, fmt: bytes):
    """The entries, a chunk at a time, built without a Python object per
    entry.  Per ``_BATCH`` values, the batch's distinct values, grouped with
    ``_group`` on bit patterns so that -0.0 stays apart from 0.0, are each
    formatted once.  Each chunk fills a matrix of fixed-width records (head,
    value from its batch's rows NUL-padded, ``, ``) whose NUL padding one
    mask drops.  The last record loses its ``, ``."""
    value_at = width + 4
    records = np.empty((min(len(support), _CHUNK), value_at + _VALUE_BYTES + 2), np.uint8)
    records[:, :value_at] = _record_head(width)[1:]
    records[:, -2:] = np.frombuffer(b", ", np.uint8)
    bits = probs.view(np.uint64)
    for lo in range(0, len(bits), _BATCH):
        first, inverse = _group(bits[lo : lo + _BATCH])
        rows = _formatted(probs[lo:][first], fmt)
        for start in range(0, len(inverse), _CHUNK):
            index = support[lo + start : lo + min(start + _CHUNK, len(inverse))]
            chunk = records[: len(index)]
            keys = bitstring_bytes(index, width).view(np.uint8)
            chunk[:, 1 : value_at - 3] = keys.reshape(len(index), width)
            del keys  # not held while the next chunk is made
            chunk[:, value_at:-2] = _take_rows(rows, inverse[start : start + _CHUNK])
            if lo + start + len(index) == len(support):
                chunk[-1, -2:] = 0
            yield str(chunk[chunk != 0], "ascii")


def json_pieces(value):
    """``to_json_text(value)`` as an iterator of str pieces, one per chunk of
    at most ``_CHUNK`` entries plus the text around them, so a writer holds
    one chunk's text at a time.  The checks run before it returns: NaN and
    infinity raise ``ValidationError``, and any other type ``TypeError``."""
    if isinstance(value, Counts):
        return _distribution_pieces(value, '{"shots": %d, "counts": ' % value.shots, "}")
    if isinstance(value, Distribution):
        return _distribution_pieces(value)
    if isinstance(value, FidelityReport):
        floats = (value.hellinger_distance, value.hellinger_fidelity)
        if not all(map(math.isfinite, floats)):
            raise ValidationError(f"cannot serialize the non-finite distance {floats[0]}")
        head = '{"distance": %.17g, "fidelity": %.17g, "diffs": ' % floats
        return _distribution_pieces(value.diffs, head, "}")
    raise TypeError(f"cannot serialize {type(value).__name__}")


def to_json_text(value) -> str:
    """JSON text of a result, floats rendered at 17 significant digits
    (lossless).

    A ``Distribution`` renders as an object over its support in index order,
    ``Counts`` as ``{"shots": int, "counts": {bitstring: int}}`` and a
    ``FidelityReport`` as ``{"distance": float, "fidelity": float, "diffs":
    {bitstring: float}}``.  NaN and infinity have no JSON form and raise
    ``ValidationError``; any other type raises ``TypeError``.
    """
    return "".join(json_pieces(value))


# Row k keeps k bytes of a token, as one V24 item.
_PREFIX = (np.tri(_VALUE_BYTES + 1, _VALUE_BYTES, -1, np.uint8) * np.uint8(255)).view(
    f"V{_VALUE_BYTES}").reshape(-1)

_SLICE = 16 * _CHUNK  # bytes read at a time: 256 KiB, the size of core._block's chunk buffer


def _convert_tokens(tokens: np.ndarray, out: np.ndarray) -> bool:
    """Write the float of each NUL-padded token row of ``tokens`` to ``out``;
    the tokens hold no NUL of their own, as the reader refuses a file with
    one.  Identical tokens are grouped, and the distinct ones go through one
    ``json.loads``.  False when a token is not a JSON float."""
    rep, inverse = _group(tokens.view(np.uint64))  # identical tokens, by their three words
    distinct = tokens[rep]
    # ",token" rows; the mask drops the padding.
    listed = np.insert(distinct, 0, ord(","), axis=1)
    try:
        values = json.loads(b"[%s]" % listed[listed != 0].tobytes()[1:])
    except ValueError:
        return False
    # Only floats: a string, array or object could hold a comma, and so
    # more than one token.
    if not set(map(type, values)) <= {float}:
        return False
    np.take(values, inverse, out=out)
    return True


def read_json_layout(path, support=None):
    """A probability map in exactly the layout ``to_json_text`` writes, read
    with array operations; None for any other file.

    The layout is ``{"<bits>": <number>, ...}``, entries joined by ``", "``,
    then at most 64 bytes of whitespace.  Keys have one width of 1-63 bits
    and strictly increasing indices; each value token has at most 24 bytes
    and loads as a JSON float.  A file that does not open with ``{"0`` or
    ``{"1``, such as a counts object, is declined on its first bytes, and one
    with a NUL byte as it is read.  The file is read ``_SLICE`` bytes at a
    time into one buffer, the bytes after a slice's last comma carried to
    the front of the next, so each slice's records are checked against one
    template and their keys and tokens gathered while it is in cache.  The
    tokens of ``_BATCH`` records at a time are then converted by
    ``_convert_tokens``, so each distinct token goes through ``json.loads``
    once per batch and only the keys and values grow with the file.  Given
    ``support``, a sorted int64 index array such as another result's, each
    slice's keys are compared with it: when all of them equal it, the
    result's index is ``support`` itself, and from the first key that
    differs (or a missing or extra record) the keys go to an index of their
    own.  Returns an unchecked ``Distribution``.
    """
    with open(path, "rb") as fh:
        opening = fh.read(66)
        if opening[:3] not in (b'{"0', b'{"1'):
            return None
        size = os.fstat(fh.fileno()).st_size
        fh.seek(max(size - 65, 0))
        tail = fh.read(65)  # the closing brace and at most 64 bytes of whitespace
        body = tail.rstrip(b" \t\n\r")
        width = opening.find(b'"', 2) - 2
        if not body.endswith(b"}") or not 1 <= width <= MAX_KEY_BITS:
            return None
        hi = size - len(tail) + len(body) - 1  # the closing brace

        # Each record is the separator space (the "{" stands in for the first
        # one), the head and then the value token, which is cut at its length
        # and NUL-padded.  Byte minus template is 0, or 0-1 in a key.
        template = _record_head(width)
        record = len(template) + _VALUE_BYTES  # the longest record
        limit = (template == ord("0")).view(np.uint8)
        # Records of a space, head, one byte and "," each; strictly increasing
        # keys allow at most 2^width.
        most = min(hi // (width + 7) + 1, 1 << width)
        index = np.empty(most, np.int64) if support is None else support
        probs = np.empty(most)
        buf = np.empty(record + min(_SLICE, hi) + _VALUE_BYTES, np.uint8)  # padded to end every window
        windows = sliding_window_view(buf, record)
        # A batch, and the records of one slice: they start width + 7 bytes apart.
        room = min(most, _BATCH + len(buf) // (width + 7) + 1)
        tokens = np.empty((room, _VALUE_BYTES), np.uint8)
        buf[0] = ord(" ")
        fh.seek(1)
        # Bytes carried, bytes to read, records so far and in the batch.
        kept, left, count, filled = 1, hi - 1, 0, 0
        while left:
            step = min(_SLICE, left)
            # A NUL would pass as a token's padding.
            if fh.readinto(buf[kept : kept + step]) != step or not buf[kept : kept + step].all():
                return None
            left -= step
            end = kept + step
            ends = 1 + np.flatnonzero(buf[1:end] == ord(","))
            cut = ends[-1] + 1 if len(ends) else 0  # the bytes carried to the next slice start here
            if left and end - cut > record:
                return None  # a record longer than any in the layout
            if not left:
                ends = np.append(ends, end)  # the closing brace ends the last record
            if len(ends):
                starts = np.concatenate(([1], ends[:-1] + 2))
                lengths = ends - starts - (width + 4)  # of each value token
                if not ((lengths > 0) & (lengths <= _VALUE_BYTES)).all():
                    return None
                rec = windows[starts - 1]
                head = rec[:, : width + 5] - template
                if (head > limit).any():
                    return None
                if count + len(starts) > most:
                    return None
                keys = bits_index(head[:, 2 : width + 2])
                if index is support and not np.array_equal(index[count : count + len(keys)], keys):
                    index = np.empty(most, np.int64)  # the keys so far were support's
                    index[:count] = support[:count]
                if index is not support:
                    index[count : count + len(keys)] = keys
                if (np.diff(index[max(count - 1, 0) : count + len(starts)]) <= 0).any():
                    return None
                batch = slice(filled, filled + len(starts))
                tokens[batch] = rec[:, width + 5 :]
                tokens[batch] &= _take_rows(_PREFIX, lengths)
                count, filled = count + len(starts), batch.stop
            if filled and (filled >= _BATCH or not left):
                if not _convert_tokens(tokens[:filled], probs[count - filled : count]):
                    return None
                filled = 0
            kept = end - cut
            buf[:kept] = buf[cut:end]
    # The arrays were sized for ``most`` entries, and support may list more.
    if len(index) > count:
        index = index[:count].copy()
    if len(probs) > count:
        probs = probs[:count].copy()
    return Distribution(width, index, probs)
