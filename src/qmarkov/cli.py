"""Command-line front end: compile, run, oracle, fidelity, gate-check.

Exit codes: 0 success, 2 validation/usage error, 3 capacity exceeded or
out of memory.
"""

import argparse
import functools
import os
import stat
import sys

import numpy as np

from .analysis import compare_runs, json_pieces, read_json_layout
from .core import Counts, Distribution, NoiseModel, execute
# probabilities and sample_counts with one more argument, the float64 buffer
# of |a|^2 or of the CDF; under the public names, so spans and tests that
# wrap them still see every call.
from .core import _probabilities as probabilities
from .core import _sample_counts as sample_counts
from .errors import CapacityError, ValidationError
from .gates import (
    RotationOrder,
    compose_sequence,
    controlled_nth_root_x,
    controlled_nth_root_x_sequence,
    nth_root_x,
    nth_root_x_sequence,
    solve_rotation_order,
)
from .markov import compile_to_circuit, enumerate_paths, load_chain, read_json

DEFAULT_SHOTS = 8192
GATE_CHECK_TOL = 1e-12


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmarkov",
        description="Compile two-state Markov chains to quantum circuits, "
        "simulate them exactly or with sampling, and compare result "
        "distributions by Hellinger fidelity.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compile_p = sub.add_parser(
        "compile", help="print the gate listing compiled from a chain spec"
    )
    compile_p.add_argument("--spec", required=True, help="chain spec JSON file")
    compile_p.set_defaults(func=cmd_compile)

    run_p = sub.add_parser(
        "run", help="execute a chain circuit; exact probabilities or sampled counts"
    )
    run_p.add_argument("--spec", required=True, help="chain spec JSON file")
    run_p.add_argument(
        "--shots",
        nargs="?",
        const=DEFAULT_SHOTS,
        type=int,
        default=None,
        help="sample this many shots (bare flag = 8192); omit for exact probabilities",
    )
    run_p.add_argument("--seed", type=int, default=None, help="RNG seed")
    run_p.add_argument("--noise-gate", type=float, default=None, metavar="P")
    run_p.add_argument("--noise-readout", type=float, default=None, metavar="P")
    run_p.add_argument("--bit-order", choices=("time", "reversed"), default="time")
    run_p.add_argument("--out", default=None, help="write JSON here instead of stdout")
    run_p.set_defaults(func=cmd_run)

    oracle_p = sub.add_parser(
        "oracle", help="classical path enumeration for a chain spec"
    )
    oracle_p.add_argument("--spec", required=True, help="chain spec JSON file")
    oracle_p.add_argument("--bit-order", choices=("time", "reversed"), default="time")
    oracle_p.add_argument("--out", default=None, help="write JSON here instead of stdout")
    oracle_p.set_defaults(func=cmd_oracle)

    fid_p = sub.add_parser(
        "fidelity", help="Hellinger comparison of two result files"
    )
    fid_p.add_argument("file_a", help="reference counts or distribution JSON")
    fid_p.add_argument("file_b", help="observed counts or distribution JSON")
    fid_p.set_defaults(func=cmd_fidelity)

    gate_p = sub.add_parser(
        "gate-check", help="verify the rotation decompositions for one angle"
    )
    group = gate_p.add_mutually_exclusive_group(required=True)
    group.add_argument("--lambda", dest="lam", type=float, help="angle in radians")
    group.add_argument("--p0", type=float, help="target probability of keeping |0>")
    gate_p.set_defaults(func=cmd_gate_check)

    return parser


def _write(pieces, stream) -> None:
    """Write a result's JSON ``pieces`` and a newline to a text ``stream``;
    ``writelines`` lets each piece go before it makes the next."""
    stream.writelines(pieces)
    stream.write("\n")


def _emit(result, args) -> None:
    """Write ``result`` as JSON in ``args.bit_order`` to ``args.out`` or
    stdout; the file is opened only once the result has passed the checks.

    The file is overwritten in place and then cut at the written length, even
    when a write fails.  Opening with ``O_TRUNC`` instead makes ext4 (with its
    default ``auto_da_alloc``) start writeback on close, and every later
    truncating open of the file waits for that I/O.
    """
    if args.bit_order == "reversed":
        result = result.bit_reversed()
    pieces = json_pieces(result)
    if args.out is None:
        _write(pieces, sys.stdout)
        return
    fd = os.open(args.out, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w", encoding="utf-8") as fh:
        try:
            _write(pieces, fh)
        finally:
            try:
                fh.flush()
            finally:
                if stat.S_ISREG(os.fstat(fd).st_mode):  # not /dev/null, a FIFO or a tty
                    os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))


def cmd_compile(args) -> int:
    circuit = compile_to_circuit(load_chain(args.spec))
    for op in circuit.ops:
        print(op.text())
    print(f"# qubits={circuit.num_qubits} gates={len(circuit.ops)}")
    return 0


def _noise_from_args(args) -> NoiseModel | None:
    if args.noise_gate is None and args.noise_readout is None:
        return None
    gate = args.noise_gate if args.noise_gate is not None else 0.0
    readout = args.noise_readout if args.noise_readout is not None else 0.0
    return NoiseModel(gate, readout)


def cmd_run(args) -> int:
    chain = load_chain(args.spec)
    circuit = compile_to_circuit(chain)
    noise = _noise_from_args(args)
    if noise is not None and not noise.is_noiseless and args.seed is None:
        raise ValidationError("--seed is required when noise is enabled")
    if args.shots is not None and args.seed is None:
        raise ValidationError("--seed is required when sampling")
    if args.shots is None and args.noise_readout is not None:
        raise ValidationError("--noise-readout needs --shots: only sampled bits are read out")
    state = execute(circuit, noise=noise, rng_seed=args.seed)
    # The state is not read again, so its own memory holds |a|^2 or the CDF.
    own = state.amplitudes.view(np.float64)[: 1 << state.num_qubits]
    if args.shots is None:
        result = probabilities(state, own)
        del state, own  # their memory is free while the result is written
        _emit(result, args)
    else:
        _emit(sample_counts(state, args.shots, args.seed, noise, own), args)
    return 0


def cmd_oracle(args) -> int:
    _emit(enumerate_paths(load_chain(args.spec)), args)
    return 0


def _load_result(path, support=None):
    """Parse a result file: a counts object or a bitstring->probability map.

    A probability map in the layout ``to_json_text`` writes is read as
    arrays, its value tokens a batch at a time, so only its keys and values
    grow with the file; when its keys equal ``support``, an int64 index
    array, it shares that array and only its values grow.  Any other file,
    counts included, goes through ``json.load``.  Both then take the same
    checks, so they give the same arrays and the same errors.
    """
    data = read_json_layout(path, support)
    if data is None:
        data = read_json(path)
        if not isinstance(data, dict):
            raise ValidationError(f"{path}: expected a JSON object")
    if isinstance(data, dict) and data.keys() & {"shots", "counts"}:  # neither is a bitstring
        return Counts.from_json_dict(data)
    return Distribution.from_mapping(data, str(path))


def cmd_fidelity(args) -> int:
    # A run and its oracle list the same keys, so the second file is read
    # against the first's; a Counts side keeps its own.
    reference = _load_result(args.file_a)
    support = None if isinstance(reference, Counts) else reference.support
    report = compare_runs(reference, _load_result(args.file_b, support), checked=True)
    _write(json_pieces(report), sys.stdout)
    return 0


def cmd_gate_check(args) -> int:
    order = RotationOrder(args.lam) if args.lam is not None else solve_rotation_order(args.p0)
    single = nth_root_x(order)
    single_seq = nth_root_x_sequence(order)
    controlled = controlled_nth_root_x(order)
    controlled_seq = controlled_nth_root_x_sequence(order)
    enclosure_err = float(np.max(np.abs(compose_sequence(single_seq, 1) - single)))
    controlled_err = float(np.max(np.abs(compose_sequence(controlled_seq, 2) - controlled)))

    print(f"lambda: {order.lam:.17g}")
    print(f"n_equivalent: {order.n_equivalent:.17g}")
    print("matrix:")
    for row in single:
        print("  [" + ", ".join(f"{z.real:+.6f}{z.imag:+.6f}j" for z in row) + "]")
    print("sequence:")
    for op in single_seq:
        print(f"  {op.text()}")
    print("controlled sequence:")
    for op in controlled_seq:
        print(f"  {op.text()}")
    print(f"enclosure max error: {enclosure_err:.3e}")
    print(f"controlled max error: {controlled_err:.3e}")
    ok = enclosure_err < GATE_CHECK_TOL and controlled_err < GATE_CHECK_TOL
    print("status: ok" if ok else "status: FAILED")
    return 0 if ok else 1


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 3
    except (ValidationError, IndexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
