"""Output checks.  Each returns a list of problems; an empty list means correct.

The checks read only the JSON the CLI wrote and import nothing from the
program, so a defect in the program cannot hide itself from them.
"""

import json
import math

EXACT_TOL = 1e-12
SUM_TOL = 1e-9
# Hellinger fidelity estimated from 8192 shots moves by about 1e-3 between
# trajectories that differ by one late flip; over 150 drawn chains the largest
# rise of an 8-seed mean with noise was 2.5e-4.  A real rise is far larger.
FIDELITY_SLACK = 5e-3


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in JSON")


def load_json(path):
    """Parse a CLI output file; NaN and Infinity are not JSON and are refused."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh, parse_constant=_reject_constant)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _first_bad_key(keys, width: int):
    """The first key that is not a width-bit string, or None."""
    keys = list(keys)
    if all(len(key) == width for key in keys) and set("".join(keys)) <= {"0", "1"}:
        return None
    return next(key for key in keys if len(key) != width or set(key) - {"0", "1"})


def check_distribution(dist, width: int) -> list[str]:
    """Non-negative probabilities over width-bit keys, summing to 1 within 1e-9."""
    if not isinstance(dist, dict) or not dist:
        return ["distribution is not a non-empty object"]
    key = _first_bad_key(dist, width)
    if key is not None:
        return [f"key {key!r} is not a {width}-bit string"]
    for key, value in dist.items():
        if not _is_number(value) or value < 0:
            return [f"bad probability {value!r} for {key!r}"]
    total = math.fsum(dist.values())
    if not abs(total - 1.0) <= SUM_TOL:
        return [f"probabilities sum to {total!r}"]
    return []


def check_exact(dist: dict, reference: dict, tol: float = EXACT_TOL) -> list[str]:
    """Same key set as the reference and every probability within ``tol``."""
    if dist.keys() != reference.keys():
        extra = len(dist.keys() - reference.keys())
        missing = len(reference.keys() - dist.keys())
        return [f"key sets differ: {extra} extra, {missing} missing"]
    worst = max(abs(dist[key] - value) for key, value in reference.items())
    if not worst <= tol:
        return [f"max abs probability difference {worst!r} exceeds {tol!r}"]
    return []


def check_report(report, max_distance: float | None = None) -> list[str]:
    """A fidelity report: distance in [0, 1], fidelity = 1 - distance."""
    if not isinstance(report, dict):
        return ["fidelity report is not an object"]
    distance, fidelity = report.get("distance"), report.get("fidelity")
    if not (_is_number(distance) and _is_number(fidelity)):
        return [f"distance {distance!r} / fidelity {fidelity!r} are not finite numbers"]
    if not 0.0 <= distance <= 1.0 or abs(fidelity - (1.0 - distance)) > EXACT_TOL:
        return [f"inconsistent report: distance {distance!r}, fidelity {fidelity!r}"]
    if max_distance is not None and not distance <= max_distance:
        return [f"Hellinger distance {distance!r} exceeds {max_distance!r}"]
    return []


def check_counts(payload, shots: int, width: int) -> list[str]:
    """A counts file: the requested shot total over width-bit keys."""
    if not isinstance(payload, dict) or set(payload) != {"shots", "counts"}:
        return ["counts file needs exactly the keys 'shots' and 'counts'"]
    counts = payload["counts"]
    if payload["shots"] != shots or not isinstance(counts, dict):
        return [f"shots {payload['shots']!r}, expected {shots}"]
    key = _first_bad_key(counts, width)
    if key is not None:
        return [f"key {key!r} is not a {width}-bit string"]
    for key, value in counts.items():
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            return [f"bad count {value!r} for {key!r}"]
    total = sum(counts.values())
    if total != shots:
        return [f"counts total {total}, expected {shots}"]
    return []


def check_fidelity_series(means: dict, slack: float = FIDELITY_SLACK) -> list:
    """Noise levels whose seed-averaged fidelity lies outside (0, 1] or rises
    above that of the next lower noise level by more than ``slack``."""
    bad = []
    previous = None
    for level in sorted(means):
        mean = means[level]
        if not 0.0 < mean <= 1.0 or (previous is not None and mean > previous + slack):
            bad.append(level)
        previous = mean
    return bad
