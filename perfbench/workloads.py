"""Workload definitions: seeded chain specs and the CLI call sequence of one pass.

A pass is the closed-loop sequence of ``qmarkov.cli.main(argv)`` calls that
produces one verified result.  Every pass of a run repeats the same argv, so
repeated passes must write byte-identical outputs.

The seed draws p0, p01 and p11 uniformly from [0.05, 0.95], with
p00 = 1 - p01 and p10 = 1 - p11.  Because p01 > 0 every pair gets both
rotation blocks, so the gate count is 16 (n - 1) + 3 whatever the seed.
"""

import json
import os
import random
from dataclasses import dataclass

SHOTS = 8192
NOISY_GATE = 0.005
READOUT = 0.01
SWEEP_LEVELS = (0.001, 0.003, 0.01, 0.03)
NOISY_SEEDS = 3
SWEEP_SEEDS = 8
WARMUP_STEPS = 3
RUN_SEEDS = {"sample_n22": 1, "noisy_sample_n20": NOISY_SEEDS, "noise_sweep_n10": SWEEP_SEEDS}


@dataclass(frozen=True)
class Call:
    """One CLI invocation; printed output is captured into ``stdout``."""

    tag: str
    argv: tuple[str, ...]
    stdout: str
    out: str | None = None
    level: float | None = None

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def output(self) -> str:
        """The file that holds this call's result."""
        return self.out if self.out is not None else self.stdout


# Register width of each workload; BENCHMARK.json records why each was chosen.
STEPS = {
    "verify_exact_n20": 20,
    "sample_n22": 22,
    "noisy_sample_n20": 20,
    "noise_sweep_n10": 10,
}


def draw(seed: int, runs: int = 0) -> tuple[dict, list[int]]:
    """Chain parameters, then ``runs`` values for ``run --seed``, from one seed."""
    rng = random.Random(seed)
    p0, p01, p11 = (rng.uniform(0.05, 0.95) for _ in range(3))
    return {"p0": p0, "p01": p01, "p11": p11}, [rng.randrange(2**31) for _ in range(runs)]


def gate_count(steps: int) -> int:
    return 16 * (steps - 1) + 3


def write_spec(path: str, steps: int, params: dict) -> None:
    spec = {
        "steps": steps,
        "initial": {"p0": params["p0"]},
        "transition": {
            "p00": 1.0 - params["p01"],
            "p01": params["p01"],
            "p10": 1.0 - params["p11"],
            "p11": params["p11"],
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)


def _sampled_run(spec: str, seed: int, gate: float | None) -> tuple[str, ...]:
    argv = ("run", "--spec", spec, "--shots", "--seed", str(seed))
    if gate is not None:
        argv += ("--noise-gate", repr(gate), "--noise-readout", repr(READOUT))
    return argv


def write_inputs(name: str, seed: int, work: str) -> None:
    """Write the spec files ``plan`` refers to; the program sees nothing else."""
    os.makedirs(work, exist_ok=True)
    params, _ = draw(seed)
    write_spec(os.path.join(work, "spec.json"), STEPS[name], params)
    write_spec(os.path.join(work, "warmup_spec.json"), WARMUP_STEPS, params)


def plan(name: str, seed: int, work: str) -> tuple[list[Call], Call]:
    """The calls of one pass over the inputs in ``work``, and the warm-up call."""
    _, seeds = draw(seed, RUN_SEEDS.get(name, 0))
    spec = os.path.join(work, "spec.json")
    tiny = os.path.join(work, "warmup_spec.json")

    def path(leaf):
        return os.path.join(work, leaf)

    warmup = Call(
        "warmup",
        ("run", "--spec", tiny, "--out", path("warmup.json")),
        path("warmup.stdout"),
        path("warmup.json"),
    )

    if name == "verify_exact_n20":
        calls = [
            Call("run", ("run", "--spec", spec, "--out", path("q.json")),
                 path("run.stdout"), path("q.json")),
            Call("oracle", ("oracle", "--spec", spec, "--out", path("o.json")),
                 path("oracle.stdout"), path("o.json")),
            Call("fidelity", ("fidelity", path("q.json"), path("o.json")),
                 path("fidelity.json")),
        ]
    elif name == "sample_n22":
        (k,) = seeds
        calls = [Call("run", _sampled_run(spec, k, None), path("counts.json"))]
    elif name == "noisy_sample_n20":
        calls = [
            Call(f"run-{j}", _sampled_run(spec, k, NOISY_GATE), path(f"counts-{j}.json"))
            for j, k in enumerate(seeds)
        ]
    else:
        oracle = path("o.json")
        calls = [Call("oracle", ("oracle", "--spec", spec, "--out", oracle),
                      path("oracle.stdout"), oracle)]
        for p in SWEEP_LEVELS:
            for j, k in enumerate(seeds):
                counts = path(f"counts-{p}-{j}.json")
                calls.append(Call(
                    f"run-{p}-{j}",
                    _sampled_run(spec, k, p) + ("--out", counts),
                    path(f"run-{p}-{j}.stdout"), counts, p,
                ))
                calls.append(Call(
                    f"fidelity-{p}-{j}", ("fidelity", counts, oracle),
                    path(f"fidelity-{p}-{j}.json"), None, p,
                ))
    return calls, warmup
