"""qmarkov benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload is a closed loop of
in-process ``qmarkov.cli.main(argv)`` calls from one client (client.py, a
child process that runs only this workload); this script times the
client's set-up, checks every output the client wrote, and prints one JSON
result as the last line of standard output, preceded by a line holding the
machine record and the drawn inputs.

--trace 0 reports the end-to-end metrics: wall_s (median wall time of one
pass of CLI calls), setup_s (median of several fresh set-ups: interpreter
start, imports, input generation and one tiny warm-up call), peak_rss_mib
(the client's peak resident set) and ok_frac (1 - failed / attempted calls).
--trace 1 runs one untraced pass, then traced passes, and reports the
per-layer metrics from spans around the functions ``qmarkov.cli`` calls.

Exit code 0 with a result; 1 when the client cannot run; 2 on bad usage
or when the current directory is not a qmarkov checkout.
"""

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import checks
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_RUNS = 5
TIME_LIMIT_S = 170
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SPAN_METRICS = {
    "markov.load_chain_s": "load_chain",
    "markov.compile_s": "compile_to_circuit",
    "markov.enumerate_paths_s": "enumerate_paths",
    "core.execute_s": "execute",
    "core.probabilities_s": "probabilities",
    "core.sample_counts_s": "sample_counts",
    "analysis.compare_runs_s": "compare_runs",
    "analysis.to_json_text_s": "to_json_text",
    "cli.run_self_s": "main:run",
    "cli.oracle_self_s": "main:oracle",
    "cli.fidelity_self_s": "main:fidelity",
}
GATE_METRICS = {"gates.ops_h": "H", "gates.ops_u1": "U1", "gates.ops_x": "X", "gates.ops_cnot": "CNOT"}
AMPLITUDE_BYTES = 16  # complex128


class BenchError(Exception):
    """The client could not produce a run to check."""


def _read(path: str) -> str | None:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def machine_record() -> dict:
    """What the numbers depend on, read without changing any setting."""
    model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = _read(os.path.join(base, index, "level"))
        if level in ("2", "3"):
            caches[f"L{level}"] = _read(os.path.join(base, index, "size"))
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def run_client(argv: list[str], env: dict, deadline: float) -> str:
    """Run the client to completion and return what it printed."""
    try:
        return subprocess.run(argv, env=env, stdout=subprocess.PIPE, text=True, check=True,
                              timeout=max(1.0, deadline - time.monotonic())).stdout
    except subprocess.CalledProcessError as exc:
        raise BenchError(f"client exited {exc.returncode}") from exc
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"client did not finish within {TIME_LIMIT_S} s") from exc


def check_outputs(name: str, calls) -> tuple[dict, dict]:
    """Check the files of the last pass.

    Returns the problems found per call tag, and values read from the outputs
    that the traced run reports as per-layer metrics.
    """
    width = workloads.STEPS[name]
    problems = {call.tag: [] for call in calls}
    values = {}

    def read(call):
        try:
            return checks.load_json(call.output)
        except (OSError, ValueError) as exc:
            problems[call.tag].append(f"{call.output}: {exc}")
            return None

    if name == "verify_exact_n20":
        run, oracle, fidelity = calls
        reference = read(oracle)
        problems["oracle"] += checks.check_distribution(reference, width)
        dist = read(run)
        problems["run"] += checks.check_distribution(dist, width)
        if not problems["run"] and not problems["oracle"]:
            problems["run"] += checks.check_exact(dist, reference)
            values["core.norm_drift"] = abs(math.fsum(dist.values()) - 1.0)
        del dist, reference
        report = read(fidelity)
        problems["fidelity"] += checks.check_report(report, checks.EXACT_TOL)
        if not problems["fidelity"]:
            values["analysis.hellinger_distance"] = report["distance"]
        return problems, values

    supports, distances, fidelities = [], [], {}
    for call in calls:
        data = read(call)
        if data is None:
            continue
        if call.command == "oracle":
            problems[call.tag] += checks.check_distribution(data, width)
        elif call.command == "run":
            problems[call.tag] += checks.check_counts(data, workloads.SHOTS, width)
            if not problems[call.tag]:
                supports.append(len(data["counts"]))
        else:
            problems[call.tag] += checks.check_report(data)
            if not problems[call.tag]:
                distances.append(data["distance"])
                fidelities.setdefault(call.level, []).append(data["fidelity"])
    if supports:
        values["core.counts_support"] = statistics.fmean(supports)
    if distances:
        values["analysis.hellinger_distance"] = statistics.fmean(distances)
    if name == "noise_sweep_n10":
        means = {level: statistics.fmean(f) for level, f in fidelities.items()}
        for level in workloads.SWEEP_LEVELS:
            values[f"analysis.fidelity_mean.{level}"] = means.get(level, 0.0)
        bad = set(checks.check_fidelity_series(means))
        bad |= set(workloads.SWEEP_LEVELS) - set(means)
        for call in calls:
            if call.command == "fidelity" and call.level in bad:
                problems[call.tag].append(f"seed-averaged fidelity series {means} fails at {call.level}")
    return problems, values


def count_failures(passes: list[dict], problems: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, reasons): a call fails on a nonzero exit, on output
    that differs from the checked last pass, or on a failed output check."""
    expected = {r["tag"]: r["digest"] for r in passes[-1]["calls"]}
    attempted = failed = 0
    reasons = []
    for number, one_pass in enumerate(passes):
        for record in one_pass["calls"]:
            tag = record["tag"]
            attempted += 1
            why = list(problems.get(tag, []))
            if record["code"] != 0:
                why.append(f"exit code {record['code']}")
            if record["digest"] != expected[tag]:
                why.append("output differs from the last pass")
            if why:
                failed += 1
                reasons.append(f"pass {number} {tag}: " + "; ".join(why))
    return attempted, failed, reasons


def layer_metrics(client: dict, values: dict) -> dict:
    passes = client["passes"]
    traced = [p for p in passes if p["traced"]]

    def median(get):
        return statistics.median(get(p) for p in traced)

    wall = median(lambda p: p["wall"])
    metrics = {
        key: median(lambda p, span=span: p["layers"]["self_s"].get(span, 0.0))
        for key, span in SPAN_METRICS.items()
    }
    # Counts repeat exactly from pass to pass; take the last.
    gate_ops = traced[-1]["layers"]["gate_ops"]
    amp_ops = traced[-1]["layers"]["amp_ops"]
    metrics["markov.circuit_ops"] = sum(gate_ops.values())
    metrics.update({key: gate_ops.get(kind, 0) for key, kind in GATE_METRICS.items()})
    execute_s = metrics["core.execute_s"]
    # One full-state read and write per primitive pass; computed, not measured.
    moved = 2 * AMPLITUDE_BYTES * amp_ops
    metrics.update({
        "core.execute_share": execute_s / wall,
        "core.execute_ns_per_amp_op": execute_s * 1e9 / amp_ops if amp_ops else 0.0,
        "core.execute_bytes_computed": moved,
        "core.execute_gbps_computed": moved / execute_s / 1e9 if execute_s else 0.0,
        "core.execute_peak_traced_bytes": max(p["layers"]["peak_bytes"] for p in traced),
        "core.norm_drift": values.get("core.norm_drift", 0.0),
        "core.counts_support": values.get("core.counts_support", 0.0),
        "analysis.hellinger_distance": values.get("analysis.hellinger_distance", 0.0),
        "cli.output_bytes": median(lambda p: sum(r["bytes"] for r in p["calls"])),
        "cli.calls": sum(len(p["calls"]) for p in traced),
        "bench.traced_wall_s": wall,
        "bench.trace_overhead_s": wall - passes[0]["wall"],
        "bench.missing_spans": len(client["missing_spans"]),
    })
    for level in workloads.SWEEP_LEVELS:
        key = f"analysis.fidelity_mean.{level}"
        metrics[key] = values.get(key, 0.0)
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.STEPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "qmarkov", "cli.py")):
        print(f"error: {root} is not a qmarkov checkout (no src/qmarkov/cli.py)", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    work = os.path.join(HERE, ".work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    client = [sys.executable, os.path.join(HERE, "client.py"),
              "--workload", args.workload, "--seed", str(args.seed), "--work", work]
    result_path = os.path.join(work, "client.json")
    try:
        setup = []
        for _ in range(SETUP_RUNS):
            start = time.clock_gettime(time.CLOCK_MONOTONIC)
            ready = run_client(client + ["--setup-only"], env, deadline)
            setup.append(float(ready) - start)
        run_client(client + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                             "--result", result_path], env, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    with open(result_path, "r", encoding="utf-8") as fh:
        client_record = json.load(fh)

    calls, _ = workloads.plan(args.workload, args.seed, work)
    problems, values = check_outputs(args.workload, calls)
    passes = client_record["passes"]
    attempted, failed, reasons = count_failures(passes, problems)
    for reason in reasons[:20]:
        print(f"check failed: {reason}", file=sys.stderr)

    if args.trace:
        measured = layer_metrics(client_record, values)
    else:
        measured = {
            "wall_s": statistics.median(p["wall"] for p in passes),
            "setup_s": statistics.median(setup),
            "peak_rss_mib": client_record["maxrss_kib"] / 1024,
            "ok_frac": 1.0 - failed / attempted,
        }
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in declared}

    params, seeds = workloads.draw(args.seed, workloads.RUN_SEEDS.get(args.workload, 0))
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "chain": params,
        "run_seeds": seeds,
        "steps": workloads.STEPS[args.workload],
        "gates": workloads.gate_count(workloads.STEPS[args.workload]),
        "passes": len(passes),
        "pass_wall_s": [p["wall"] for p in passes],
        "setup_runs_s": setup,
        "machine": dict(machine_record(), numpy=client_record["numpy"],
                        client_threads=client_record["threads"]),
        "missing_spans": client_record["missing_spans"],
        "failures": reasons[:20],
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(os.path.join(work, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"record": record, "result": result}, fh, indent=1)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
