"""Tests of the benchmark's own checker and tracer.

    python3 -m pytest perfbench/test_checks.py
"""

import json
import types

import pytest

import checks
import run
import workloads
from tracing import WRAPPED, Tracer


def _write(path, data):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)


def _pass(calls, digest="d"):
    return {"calls": [{"tag": c.tag, "code": 0, "digest": digest} for c in calls]}


def _failures(name, tmp_path, write_outputs):
    calls, _ = workloads.plan(name, 7, str(tmp_path))
    write_outputs(calls)
    problems, _ = run.check_outputs(name, calls)
    attempted, failed, _ = run.count_failures([_pass(calls)], problems)
    assert attempted == len(calls)
    return failed


def _counts(width, shots):
    return {"shots": shots, "counts": {"0" * width: shots - 1, "1" * width: 1}}


def test_exact_distribution_perturbed_by_1e_9_is_a_failure(tmp_path):
    width = workloads.STEPS["verify_exact_n20"]
    oracle = {"0" * width: 0.25, "1" * width: 0.75}
    perturbed = {"0" * width: 0.25 + 1e-9, "1" * width: 0.75}
    assert checks.check_exact(dict(oracle), oracle) == []
    assert checks.check_exact(perturbed, oracle)

    def outputs(calls):
        run_call, oracle_call, fidelity_call = calls
        _write(run_call.output, perturbed)
        _write(oracle_call.output, oracle)
        _write(fidelity_call.output, {"distance": 0.0, "fidelity": 1.0, "diffs": {}})

    assert _failures("verify_exact_n20", tmp_path, outputs) == 1


def test_counts_total_not_equal_to_shots_is_a_failure(tmp_path):
    width = workloads.STEPS["sample_n22"]
    good = _counts(width, workloads.SHOTS)
    short = {"shots": workloads.SHOTS, "counts": {"0" * width: workloads.SHOTS - 1}}
    assert checks.check_counts(good, workloads.SHOTS, width) == []
    assert checks.check_counts(short, workloads.SHOTS, width)
    assert checks.check_counts(good, workloads.SHOTS, width - 1)

    assert _failures("sample_n22", tmp_path, lambda calls: _write(calls[0].output, short)) == 1


def test_fidelity_rising_with_noise_is_a_failure(tmp_path):
    levels = workloads.SWEEP_LEVELS
    assert checks.check_fidelity_series(dict(zip(levels, (0.77, 0.75, 0.66, 0.40)))) == []
    assert checks.check_fidelity_series(dict(zip(levels, (0.77, 0.80, 0.66, 0.40)))) == [0.003]
    assert checks.check_fidelity_series({0.001: 0.0}) == [0.001]

    rising = dict(zip(levels, (0.40, 0.66, 0.75, 0.77)))
    width = workloads.STEPS["noise_sweep_n10"]

    def outputs(calls):
        for call in calls:
            if call.command == "oracle":
                _write(call.output, {"0" * width: 1.0})
            elif call.command == "run":
                _write(call.output, _counts(width, workloads.SHOTS))
            else:
                fidelity = rising[call.level]
                _write(call.output, {"distance": 1.0 - fidelity, "fidelity": fidelity, "diffs": {}})

    # Every level above the lowest rises, so its fidelity calls fail.
    assert _failures("noise_sweep_n10", tmp_path, outputs) == 3 * workloads.SWEEP_SEEDS


def test_output_differing_between_passes_is_a_failure():
    calls, _ = workloads.plan("noisy_sample_n20", 7, "unused")
    problems = {call.tag: [] for call in calls}
    attempted, failed, _ = run.count_failures([_pass(calls, "a"), _pass(calls, "b")], problems)
    assert (attempted, failed) == (2 * len(calls), len(calls))


def test_non_finite_json_is_refused(tmp_path):
    path = tmp_path / "nan.json"
    path.write_text('{"000": NaN}')
    with pytest.raises(ValueError):
        checks.load_json(path)


def test_tracer_reports_missing_names_and_self_time():
    calls = []

    def load_chain(path):
        calls.append(path)
        return path

    module = types.SimpleNamespace(load_chain=load_chain)
    tracer = Tracer()
    tracer.install(module)
    assert tracer.missing == [name for name in WRAPPED if name != "load_chain"]
    with tracer.span("main:run"):
        assert module.load_chain("spec.json") == "spec.json"
    summary = tracer.take()
    assert calls == ["spec.json"]
    assert set(summary["self_s"]) == {"main:run", "load_chain"}
    assert all(value >= 0 for value in summary["self_s"].values())
    assert tracer.take()["self_s"] == {}
