"""Command-line interface: commands, exit codes, file I/O."""

import json
import math
import subprocess
import sys

import pytest
from conftest import assert_dist_close

from qmarkov import cli, core
from qmarkov.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompile:
    def test_absorbing_listing(self, capsys, chain_spec_file):
        code, out, _ = run_cli(capsys, "compile", "--spec", chain_spec_file())
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[-1] == "# qubits=3 gates=17"
        assert lines[0] == "H q0"
        assert lines[1].startswith("U1 ")
        assert sum(1 for line in lines if line.startswith("CNOT")) == 4
        assert "CNOT q1 q2" in lines

    def test_single_step_listing(self, capsys, chain_spec_file):
        code, out, _ = run_cli(capsys, "compile", "--spec", chain_spec_file(steps=1))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[-1] == "# qubits=1 gates=3"

    def test_invalid_row_names_row(self, capsys, chain_spec_file):
        path = chain_spec_file(p00=0.8, p01=0.1)
        code, _, err = run_cli(capsys, "compile", "--spec", path)
        assert code == 2
        assert "transition row 0" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "compile", "--spec", "/nonexistent.json")
        assert code == 2
        assert "error" in err

    def test_capacity_exit_code(self, capsys, chain_spec_file):
        code, _, err = run_cli(capsys, "compile", "--spec", chain_spec_file(steps=30))
        assert code == 3

    def test_env_capacity_override(self, capsys, chain_spec_file, monkeypatch):
        monkeypatch.setenv("QSIM_MAX_QUBITS", "2")
        code, _, _ = run_cli(capsys, "compile", "--spec", chain_spec_file(steps=3))
        assert code == 3


class TestRun:
    def test_exact_mode(self, capsys, chain_spec_file):
        code, out, _ = run_cli(capsys, "run", "--spec", chain_spec_file())
        assert code == 0
        dist = json.loads(out)
        expected = {"000": 0.5, "100": 0.25, "110": 0.125, "111": 0.125}
        assert_dist_close(dist, expected, 1e-12)

    def test_exact_deterministic_start(self, capsys, chain_spec_file):
        path = chain_spec_file(p0=1.0)
        code, out, _ = run_cli(capsys, "run", "--spec", path)
        assert code == 0
        dist = json.loads(out)
        assert dist.get("000", 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_sampling(self, capsys, chain_spec_file):
        code, out, _ = run_cli(
            capsys, "run", "--spec", chain_spec_file(), "--shots", "8192",
            "--seed", "7",
        )
        assert code == 0
        data = json.loads(out)
        assert data["shots"] == 8192
        assert sum(data["counts"].values()) == 8192

    def test_bare_shots_flag_defaults_to_8192(self, capsys, chain_spec_file):
        code, out, _ = run_cli(
            capsys, "run", "--spec", chain_spec_file(), "--shots", "--seed", "1"
        )
        assert code == 0
        assert json.loads(out)["shots"] == 8192

    def test_sampling_requires_seed(self, capsys, chain_spec_file):
        code, _, err = run_cli(
            capsys, "run", "--spec", chain_spec_file(), "--shots", "100"
        )
        assert code == 2
        assert "seed" in err

    def test_noise_requires_seed(self, capsys, chain_spec_file):
        code, _, err = run_cli(
            capsys, "run", "--spec", chain_spec_file(), "--noise-gate", "0.1"
        )
        assert code == 2
        assert "seed" in err

    @pytest.mark.parametrize("sampled", [(), ("--shots", "--seed", "3")])
    def test_zero_noise_flags_same_bytes(self, capsys, chain_spec_file, sampled):
        # Zero noise is no noise: no seed is needed, and the bytes are the same.
        path = chain_spec_file()
        zero = ("--noise-gate", "0", *(("--noise-readout", "0") if sampled else ()))
        code, plain, _ = run_cli(capsys, "run", "--spec", path, *sampled)
        assert code == 0
        assert run_cli(capsys, "run", "--spec", path, *sampled, *zero) == (0, plain, "")

    def test_sampling_reproducible(self, capsys, chain_spec_file):
        path = chain_spec_file()
        argv = ("run", "--spec", path, "--shots", "2048", "--seed", "11",
                "--noise-readout", "0.05")
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_reversed_bit_order(self, capsys, chain_spec_file):
        path = chain_spec_file(p0=0.25)
        _, time_out, _ = run_cli(capsys, "run", "--spec", path)
        _, rev_out, _ = run_cli(
            capsys, "run", "--spec", path, "--bit-order", "reversed"
        )
        time_dist = json.loads(time_out)
        rev_dist = json.loads(rev_out)
        assert rev_dist == {key[::-1]: value for key, value in time_dist.items()}

    def test_negative_seed(self, capsys, chain_spec_file):
        code, out, err = run_cli(
            capsys, "run", "--spec", chain_spec_file(), "--shots", "--seed", "-1"
        )
        assert code == 2
        assert out == ""
        assert "seed" in err

    @pytest.mark.parametrize("command", ["run", "oracle"])
    def test_nan_spec_rejected(self, capsys, chain_spec_file, command):
        path = chain_spec_file(p00=math.nan)
        code, out, err = run_cli(capsys, command, "--spec", path)
        assert code == 2
        assert out == ""
        assert "transition row 0" in err

    @pytest.mark.parametrize("command", ["run", "oracle"])
    @pytest.mark.parametrize(
        ("field", "value"),
        [
            ("steps", "1e999"),
            ("steps", "2.7"),
            ("steps", "true"),
            ("steps", '"3"'),
            ("p0", "true"),
            ("p0", '"0.5"'),
            ("p01", "false"),
            ("p11", '"0.5"'),
            ("p10", "1" + "0" * 400),
        ],
    )
    def test_spec_values_must_be_json_numbers(self, capsys, tmp_path, command, field, value):
        spec = {"steps": "3", "p0": "0.5", "p00": "1.0", "p01": "0.0", "p10": "0.5", "p11": "0.5"}
        spec[field] = value
        path = tmp_path / "spec.json"
        path.write_text(
            '{"steps": %(steps)s, "initial": {"p0": %(p0)s}, "transition": '
            '{"p00": %(p00)s, "p01": %(p01)s, "p10": %(p10)s, "p11": %(p11)s}}' % spec
        )
        code, out, err = run_cli(capsys, command, "--spec", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "spec" in err
        assert "Traceback" not in err

    def test_readout_noise_needs_shots(self, capsys, chain_spec_file):
        code, out, err = run_cli(capsys, "run", "--spec", chain_spec_file(),
                                 "--noise-readout", "0.3", "--seed", "1")
        assert code == 2
        assert out == ""
        assert "--noise-readout" in err and "--shots" in err

    @pytest.mark.parametrize("shots", [2**62, 2**63 - 1, 2**63, 10**20])
    def test_shots_beyond_numpy_refused(self, capsys, chain_spec_file, shots):
        # Refused in sample_counts before any draw array is allocated.
        code, out, err = run_cli(capsys, "run", "--spec", chain_spec_file(),
                                 "--shots", str(shots), "--seed", "1")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "shots" in err
        assert "Traceback" not in err

    def test_env_capacity_beyond_numpy_refused(self, capsys, chain_spec_file, monkeypatch):
        # 2**64 amplitudes cannot be sized; refused before execute allocates.
        monkeypatch.setenv("QSIM_MAX_QUBITS", "64")

        def unreachable(*args, **kwargs):
            raise AssertionError("execute reached")

        monkeypatch.setattr("qmarkov.cli.execute", unreachable)
        code, out, err = run_cli(capsys, "run", "--spec", chain_spec_file(steps=64))
        assert code == 2
        assert out == ""
        assert "QSIM_MAX_QUBITS" in err and "58" in err
        assert "Traceback" not in err

    def test_out_of_memory_exit_code(self, capsys, chain_spec_file, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 16.0 TiB")

        monkeypatch.setattr("qmarkov.cli.execute", exhausted)
        code, out, err = run_cli(capsys, "run", "--spec", chain_spec_file())
        assert code == 3
        assert out == ""
        assert err.startswith("error: out of memory") and "16.0 TiB" in err

    def test_out_file(self, capsys, chain_spec_file, tmp_path):
        target = tmp_path / "dist.json"
        code, out, _ = run_cli(
            capsys, "run", "--spec", chain_spec_file(), "--out", str(target)
        )
        assert code == 0
        assert out == ""
        assert "000" in json.loads(target.read_text())


class TestOracle:
    def test_identity_chain(self, capsys, chain_spec_file):
        path = chain_spec_file(steps=2, p0=0.0, p00=1.0, p01=0.0, p10=0.0, p11=1.0)
        code, out, _ = run_cli(capsys, "oracle", "--spec", path)
        assert code == 0
        assert json.loads(out) == {"11": 1.0}

    def test_worked_example(self, capsys, chain_spec_file):
        code, out, _ = run_cli(capsys, "oracle", "--spec", chain_spec_file())
        assert code == 0
        assert json.loads(out) == {
            "000": 0.5,
            "100": 0.25,
            "110": 0.125,
            "111": 0.125,
        }

    def test_env_capacity_override(self, capsys, chain_spec_file, monkeypatch):
        monkeypatch.setenv("QSIM_MAX_QUBITS", "2")
        code, out, _ = run_cli(capsys, "oracle", "--spec", chain_spec_file(steps=3))
        assert code == 3
        assert out == ""

    def test_matches_run_exact(self, capsys, chain_spec_file):
        path = chain_spec_file(p0=0.3, p00=0.6, p01=0.4, p10=0.2, p11=0.8, steps=4)
        _, run_out, _ = run_cli(capsys, "run", "--spec", path)
        _, oracle_out, _ = run_cli(capsys, "oracle", "--spec", path)
        assert_dist_close(json.loads(run_out), json.loads(oracle_out), 1e-10)


class TestFidelity:
    def test_file_vs_itself(self, capsys, tmp_path):
        path = tmp_path / "dist.json"
        path.write_text(json.dumps({"00": 0.5, "11": 0.5}))
        code, out, _ = run_cli(capsys, "fidelity", str(path), str(path))
        assert code == 0
        report = json.loads(out)
        assert report["fidelity"] == 1.0
        assert report["distance"] == 0.0

    def test_disjoint_single_outcomes(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps({"0": 1.0}))
        b.write_text(json.dumps({"1": 1.0}))
        code, out, _ = run_cli(capsys, "fidelity", str(a), str(b))
        assert code == 0
        assert json.loads(out)["fidelity"] == 0.0

    def test_length_mismatch(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps({"0": 1.0}))
        b.write_text(json.dumps({"11": 1.0}))
        code, _, err = run_cli(capsys, "fidelity", str(a), str(b))
        assert code == 2

    def test_counts_vs_exact(self, capsys, chain_spec_file, tmp_path):
        spec = chain_spec_file()
        counts_file = tmp_path / "counts.json"
        exact_file = tmp_path / "exact.json"
        run_cli(capsys, "run", "--spec", spec, "--shots", "8192", "--seed", "7",
                "--out", str(counts_file))
        run_cli(capsys, "run", "--spec", spec, "--out", str(exact_file))
        code, out, _ = run_cli(capsys, "fidelity", str(exact_file), str(counts_file))
        assert code == 0
        assert json.loads(out)["fidelity"] >= 0.99

    def test_round_trip_specs(self, capsys, chain_spec_file, tmp_path):
        corpus = [
            dict(steps=1, p0=0.7),
            dict(steps=3),
            dict(steps=4, p0=0.3, p00=0.6, p01=0.4, p10=0.2, p11=0.8),
            dict(steps=2, p0=0.0, p00=1.0, p01=0.0, p10=0.0, p11=1.0),
        ]
        for idx, kwargs in enumerate(corpus):
            spec = chain_spec_file(name=f"spec{idx}.json", **kwargs)
            run_file = tmp_path / f"run{idx}.json"
            oracle_file = tmp_path / f"oracle{idx}.json"
            run_cli(capsys, "run", "--spec", spec, "--out", str(run_file))
            run_cli(capsys, "oracle", "--spec", spec, "--out", str(oracle_file))
            code, out, _ = run_cli(
                capsys, "fidelity", str(run_file), str(oracle_file)
            )
            assert code == 0
            assert json.loads(out)["fidelity"] >= 1.0 - 1e-9

    def test_malformed_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2]")
        code, _, err = run_cli(capsys, "fidelity", str(path), str(path))
        assert code == 2

    @pytest.mark.parametrize(
        ("key", "expected"),
        [("2" * 30, 2), ("x" * 70, 2), ("1" * 64, 3)],
    )
    def test_key_checks(self, capsys, tmp_path, monkeypatch, key, expected):
        # Malformed keys are validation errors (2) whatever their width; only
        # well-formed keys beyond the 63-bit index limit are capacity errors.
        monkeypatch.setenv("QSIM_MAX_QUBITS", "4")
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({key: 1.0}))
        code, out, _ = run_cli(capsys, "fidelity", str(path), str(path))
        assert code == expected
        assert out == ""

    def test_counts_wider_than_register_capacity(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("QSIM_MAX_QUBITS", "2")
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps({"shots": 2, "counts": {"00000": 1, "11111": 1}}))
        b.write_text(json.dumps({"shots": 1, "counts": {"11111": 1}}))
        code, out, _ = run_cli(capsys, "fidelity", str(a), str(b))
        assert code == 0
        assert json.loads(out)["diffs"] == {"00000": 0.5, "11111": 0.5}

    @pytest.mark.parametrize("data", [
        {"shots": 5, "counts": {"0": 5}, "x": 1},
        {"shots": 1.0},
    ], ids=["extra-key", "shots-only"])
    def test_broken_counts_object_named(self, capsys, tmp_path, data):
        # Neither key can be a bitstring, so the file is a broken counts object.
        path = tmp_path / "counts.json"
        path.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "fidelity", str(path), str(path))
        assert (code, out) == (2, "")
        assert "counts JSON needs exactly the keys 'shots' and 'counts'" in err

    @pytest.mark.parametrize(("data", "message"), [
        ({"é": 1.0}, "malformed bitstring 'é'"),
        ({"shots": 1, "counts": [1]}, "'counts' must be an object"),
    ], ids=["non-ascii-key", "counts-not-an-object"])
    def test_malformed_content_named(self, capsys, tmp_path, data, message):
        path = tmp_path / "result.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, out, err = run_cli(capsys, "fidelity", str(path), str(path))
        assert (code, out) == (2, "")
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("count", [2**63, 2**70])
    def test_count_beyond_int64_refused(self, capsys, tmp_path, count):
        path = tmp_path / "counts.json"
        path.write_text(json.dumps({"shots": count + 1, "counts": {"0": count, "1": 1}}))
        code, out, err = run_cli(capsys, "fidelity", str(path), str(path))
        assert code == 2
        assert out == ""
        assert "int64" in err


class TestUndecodableInput:
    """A file that is not UTF-8, nests deeper than the recursion limit or
    holds an int longer than Python converts is a validation error, for
    result files and spec files alike."""

    BAD = {
        "not_utf8": b'{"0": 1.0, "1": "\xff"}',
        "bom_utf16": '{"0": 1.0}'.encode("utf-16"),
        "too_deep": b"[" * 100_000 + b"]" * 100_000,
        "int_too_long": b'{"steps": ' + b"1" * 5000 + b"}",
    }

    @pytest.mark.parametrize("problem", sorted(BAD))
    @pytest.mark.parametrize("command", ["fidelity", "compile", "run", "oracle"])
    def test_exit_2(self, capsys, tmp_path, problem, command):
        path = tmp_path / "bad.json"
        path.write_bytes(self.BAD[problem])
        argv = [str(path), str(path)] if command == "fidelity" else ["--spec", str(path)]
        code, out, err = run_cli(capsys, command, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {path}: not valid JSON: ")
        assert "Traceback" not in err


class TestParser:
    def test_built_once(self, capsys, chain_spec_file, monkeypatch):
        spec = chain_spec_file()
        assert run_cli(capsys, "compile", "--spec", spec)[0] == 0

        def rebuild():
            raise AssertionError("parser rebuilt")

        monkeypatch.setattr(cli, "build_parser", rebuild)
        assert run_cli(capsys, "oracle", "--spec", spec)[0] == 0
        assert run_cli(capsys, "compile", "--spec", spec)[0] == 0


class TestParseCount:
    """Each counts input is parsed once; counts the program computes never are."""

    @pytest.fixture
    def parses(self, monkeypatch):
        calls = []
        original = core.parse_bitstring_map

        def counting(mapping, what, *args, **kwargs):
            calls.append(what)
            return original(mapping, what, *args, **kwargs)

        monkeypatch.setattr(core, "parse_bitstring_map", counting)
        return calls

    @pytest.mark.parametrize("order", ["time", "reversed"])
    def test_sampled_run(self, capsys, chain_spec_file, parses, order):
        code, _, _ = run_cli(capsys, "run", "--spec", chain_spec_file(), "--shots",
                             "--seed", "7", "--bit-order", order)
        assert code == 0
        assert parses == []

    @pytest.mark.parametrize("observed", ["oracle.json", "counts.json"])
    def test_fidelity(self, capsys, chain_spec_file, tmp_path, parses, observed):
        spec = chain_spec_file()
        run_cli(capsys, "run", "--spec", spec, "--shots", "--seed", "7",
                "--out", str(tmp_path / "counts.json"))
        run_cli(capsys, "oracle", "--spec", spec, "--out", str(tmp_path / "oracle.json"))
        parses.clear()
        code, _, _ = run_cli(capsys, "fidelity", str(tmp_path / "counts.json"),
                             str(tmp_path / observed))
        assert code == 0
        assert len(parses) == 2


class TestGateCheck:
    def test_p0_half(self, capsys):
        code, out, _ = run_cli(capsys, "gate-check", "--p0", "0.5")
        assert code == 0
        assert "n_equivalent: 2" in out
        assert "status: ok" in out

    def test_lambda_pi(self, capsys):
        code, out, _ = run_cli(capsys, "gate-check", "--lambda", repr(math.pi))
        assert code == 0
        assert "n_equivalent: 1" in out
        assert "H q1" in out
        assert "CNOT q0 q1" in out

    def test_p0_out_of_domain(self, capsys):
        code, _, err = run_cli(capsys, "gate-check", "--p0", "1.5")
        assert code == 2

    def test_flag_exclusivity(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["gate-check", "--p0", "0.5", "--lambda", "1.0"])
        assert excinfo.value.code == 2
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            main(["gate-check"])
        assert excinfo.value.code == 2
        capsys.readouterr()


class TestUsage:
    def test_no_command(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2
        capsys.readouterr()

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2
        capsys.readouterr()

    def test_module_invocation(self, chain_spec_file):
        result = subprocess.run(
            [sys.executable, "-m", "qmarkov", "oracle", "--spec", chain_spec_file()],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert json.loads(result.stdout)["000"] == 0.5
