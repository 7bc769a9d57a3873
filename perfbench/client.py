"""Benchmark client: one workload as a closed loop of in-process CLI calls.

run.py starts it with PYTHONPATH set to the checkout's ``src``.  It imports
``qmarkov.cli``, writes the workload's inputs, makes one tiny warm-up call
and then repeats the workload's pass until ``--seconds`` have elapsed.  It
writes per-call timings, exit codes and output digests (and, when traced,
span totals) as JSON to ``--result``; checking the outputs is run.py's job.
"""

import argparse
import contextlib
import hashlib
import json
import os
import resource
import sys
import time
import traceback

import workloads
from tracing import Tracer


def invoke(cli, call) -> tuple[int, float]:
    """One ``cli.main(argv)`` call with printed output going to ``call.stdout``."""
    start = time.perf_counter()
    with open(call.stdout, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
        try:
            code = cli.main(list(call.argv))
        except SystemExit as exc:  # argparse usage errors exit 2
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a traceback is a failed call, not a failed benchmark
            traceback.print_exc()
            code = 1
    return code, time.perf_counter() - start


def _digest(path: str) -> str | None:
    try:
        with open(path, "rb") as fh:
            return hashlib.file_digest(fh, "sha256").hexdigest()
    except FileNotFoundError:
        return None


def _size(path: str | None) -> int:
    return os.path.getsize(path) if path and os.path.exists(path) else 0


def run_pass(cli, calls, tracer: Tracer | None) -> dict:
    records = []
    for call in calls:
        if tracer is None:
            code, seconds = invoke(cli, call)
        else:
            with tracer.span("main:" + call.command):
                code, seconds = invoke(cli, call)
        records.append({"tag": call.tag, "code": code, "seconds": seconds})
    # Digests and sizes are taken after the timed calls.
    for call, record in zip(calls, records):
        record["digest"] = _digest(call.output)
        record["bytes"] = _size(call.stdout) + _size(call.out)
    result = {
        "traced": tracer is not None,
        "wall": sum(r["seconds"] for r in records),
        "calls": records,
    }
    if tracer is not None:
        result["layers"] = tracer.take()
    return result


def _thread_count() -> int | None:
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.STEPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True, help="directory for inputs and outputs")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", help="write the run's JSON record here")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after imports, input generation and the warm-up call")
    args = parser.parse_args()

    import qmarkov.cli as cli

    src = os.path.join(os.getcwd(), "src") + os.sep
    if not os.path.abspath(cli.__file__).startswith(src):
        print(f"error: imported {cli.__file__}, not the checkout under {src}", file=sys.stderr)
        return 2
    workloads.write_inputs(args.workload, args.seed, args.work)
    calls, warmup = workloads.plan(args.workload, args.seed, args.work)
    code, _ = invoke(cli, warmup)
    if code != 0:
        print(f"error: warm-up call exited {code}", file=sys.stderr)
        return 1
    if args.setup_only:
        # System-wide clock, so run.py can time set-up from before this
        # process started, without the interpreter's exit.
        print(time.clock_gettime(time.CLOCK_MONOTONIC))
        return 0

    start = time.perf_counter()
    passes = []
    tracer = None
    if args.trace:
        # One untraced pass first: its outputs and wall time are the reference
        # for the traced passes' byte-identity and tracing overhead.
        passes.append(run_pass(cli, calls, None))
        tracer = Tracer()
        tracer.install(cli)
    while True:
        passes.append(run_pass(cli, calls, tracer))
        if time.perf_counter() - start >= args.seconds:
            break

    record = {
        "numpy": sys.modules["numpy"].__version__,
        "threads": _thread_count(),
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "missing_spans": tracer.missing if tracer else [],
        "passes": passes,
    }
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
