"""Run workloads once per seed and summarise each metric across the runs.

    python3 perfbench/spread.py --seeds 1 2 3 [--workloads NAME ...] [--trace 0|1] [--out FILE]

Run from the root of a checkout; workloads default to all of BENCHMARK.json.
For each metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread: the distance between
the quartiles as a share of the median.  With ``--out`` it also writes every
run's result and record as JSON; the files under ``baseline/`` were made so.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    stats = {"median": median, "values": values}
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
        stats.update(q1=q1, q3=q3, spread=(q3 - q1) / median if median else 0.0)
    return stats


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    return {"seed": seed, **json.loads(lines[-2]), "result": json.loads(lines[-1])}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--workloads", nargs="+")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]

    report = {}
    for workload in args.workloads or [w["name"] for w in bench["workloads"]]:
        runs = []
        for seed in args.seeds:
            run = run_once(workload, seed, bench["run_seconds"], args.trace)
            runs.append(run)
            values = {k: v["value"] for k, v in run["result"]["metrics"].items()}
            print(json.dumps({"workload": workload, "seed": seed,
                              "correct": run["result"]["correct"], "metrics": values}), file=sys.stderr)
        summary = {"runs": len(runs), "all_correct": all(r["result"]["correct"] for r in runs)}
        for name in names:
            summary[name] = summarise([r["result"]["metrics"][name]["value"] for r in runs])
        report[workload] = {"summary": summary, "runs": runs}
        print(json.dumps({workload: summary}, indent=1))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
