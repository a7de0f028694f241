import json

import numpy as np
import pytest

from pitchpilot.cli import EXIT_CONFIG, EXIT_DIVERGED, EXIT_OK, main
from pitchpilot.engine import TRACE_COLUMNS, Trace

QUIET = ["--no-noise", "--set", "loop.disturbance.amplitude=0"]


def run_cli(*argv):
    return main(list(argv))


class TestSimulate:
    def test_writes_artifacts(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli("simulate", "--out", str(out), "--duration", "0.05",
                       *QUIET)
        assert code == EXIT_OK
        assert (out / "trace.csv").exists()
        assert (out / "metrics.txt").exists()
        assert (out / "plot_trace.py").exists()
        rows = (out / "trace.csv").read_text().splitlines()
        assert len(rows) == 52   # header + duration/dt + 1 samples

    def test_byte_identical_reruns(self, tmp_path):
        for name in ("one", "two"):
            assert run_cli("simulate", "--out", str(tmp_path / name),
                           "--seed", "5", "--duration", "2") == EXIT_OK
        a = (tmp_path / "one" / "trace.csv").read_bytes()
        b = (tmp_path / "two" / "trace.csv").read_bytes()
        assert a == b

    def test_set_override_changes_result(self, tmp_path):
        run_cli("simulate", "--out", str(tmp_path / "base"),
                "--duration", "1", *QUIET)
        run_cli("simulate", "--out", str(tmp_path / "lowgain"),
                "--duration", "1", "--set", "loop.actuator.gain=2", *QUIET)
        base = Trace.from_csv(tmp_path / "base" / "trace.csv")
        low = Trace.from_csv(tmp_path / "lowgain" / "trace.csv")
        assert not np.array_equal(base.omega, low.omega)

    def test_malformed_config_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = run_cli("simulate", "--config", str(bad), "--out",
                       str(tmp_path))
        assert code == EXIT_CONFIG
        assert "error" in capsys.readouterr().err

    def test_unknown_key_exit_code(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"loop": {"typo": 1}}))
        assert run_cli("simulate", "--config", str(cfg), "--out",
                       str(tmp_path)) == EXIT_CONFIG

    @pytest.mark.parametrize("override", ["loop.pid.k_p=abc",
                                          "loop.actuator.wn=abc",
                                          "loop.plant.J_z=abc",
                                          "scenario.seed=abc",
                                          "scenario.seed=1.5",
                                          "loop.noise.seed=-1",
                                          "scenario.initial=abc",
                                          "scenario.command=abc",
                                          "loop.noise.enabled=maybe",
                                          "loop.compensator.enabled=maybe",
                                          "loop.kalman.enabled=maybe",
                                          "loop.pid.k_p=true",
                                          "loop.disturbance.amplitude=true",
                                          "scenario.duration=true",
                                          "missile.m=true"])
    def test_mistyped_value_exit_code(self, tmp_path, capsys, override):
        command = "size" if override.startswith("missile.") else "simulate"
        assert run_cli(command, "--out", str(tmp_path),
                       "--set", override) == EXIT_CONFIG
        section = override.partition("=")[0].rsplit(".", 1)[0]
        assert f"'{section}'" in capsys.readouterr().err

    def test_divergence_exit_code(self, tmp_path):
        code = run_cli("simulate", "--out", str(tmp_path),
                       "--set", "loop.pid.k_p=1e9",
                       "--set", "loop.pid.k_d=1e9", *QUIET)
        assert code == EXIT_DIVERGED

    def test_default_run_divergence_exit_code(self, tmp_path):
        # Diverges at step 9244 with a non-finite PID error later in the
        # same loop-delay window.
        assert run_cli("simulate", "--out", str(tmp_path), "--set",
                       "loop.actuator.gain=1e6") == EXIT_DIVERGED


class TestAb:
    def test_report_and_traces(self, tmp_path):
        code = run_cli("ab", "--out", str(tmp_path), *QUIET)
        assert code == EXIT_OK
        report = (tmp_path / "ab_report.txt").read_text()
        assert "rise time:" in report
        assert "settling time:" in report
        assert (tmp_path / "trace_a.csv").exists()
        assert (tmp_path / "trace_b.csv").exists()

    def test_identity_compensator_no_improvement(self, tmp_path):
        code = run_cli("ab", "--out", str(tmp_path), "--duration", "4",
                       "--set", "loop.compensator.a=1", *QUIET)
        assert code == EXIT_OK
        a = Trace.from_csv(tmp_path / "trace_a.csv")
        b = Trace.from_csv(tmp_path / "trace_b.csv")
        assert np.max(np.abs(a.omega - b.omega)) < 1e-9

    def test_noise_envelopes_reported(self, tmp_path):
        code = run_cli("ab", "--out", str(tmp_path), "--duration", "6",
                       "--set", "loop.disturbance.amplitude=0")
        assert code == EXIT_OK
        report = (tmp_path / "ab_report.txt").read_text()
        assert "Noise envelope A" in report
        assert "Noise envelope B" in report


class TestSize:
    def test_report_values(self, tmp_path, capsys):
        assert run_cli("size", "--out", str(tmp_path)) == EXIT_OK
        text = (tmp_path / "sizing.txt").read_text()
        assert "-2.7532" in text
        assert "0.0865" in text
        assert "12.50%" in text
        assert "pass" in text


class TestSweepAndTune:
    def test_sweep_winner_reported(self, tmp_path, capsys):
        code = run_cli("sweep", "--out", str(tmp_path), "--values", "5,6,7",
                       "--duration", "4", *QUIET)
        assert code == EXIT_OK
        assert (tmp_path / "sweep.csv").read_text().count("\n") == 4
        assert "best actuator.gain" in capsys.readouterr().out

    def test_empty_values_usage_error(self, tmp_path):
        assert run_cli("sweep", "--out", str(tmp_path), "--values", ",",
                       *QUIET) == EXIT_CONFIG

    @pytest.mark.parametrize("values", ["0.5:2", "a"],
                             ids=["float-range", "non-number"])
    def test_malformed_values_usage_error(self, tmp_path, values):
        assert run_cli("sweep", "--out", str(tmp_path), "--values", values,
                       *QUIET) == EXIT_CONFIG

    def test_tune_budget_one_echoes_start(self, tmp_path, capsys):
        code = run_cli("tune", "--out", str(tmp_path), "--max-evals", "1",
                       "--duration", "4", *QUIET)
        assert code == EXIT_OK
        text = (tmp_path / "tuned_gains.txt").read_text()
        assert "k_p=44.0000" in text
        assert "k_i=23.4000" in text
        assert "k_d=24.0000" in text


class TestMetricsCommand:
    def test_recompute_from_csv(self, tmp_path, capsys):
        run_cli("simulate", "--out", str(tmp_path), *QUIET)
        capsys.readouterr()
        code = run_cli("metrics", "--trace", str(tmp_path / "trace.csv"))
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "rise time" in out
        assert "pass" in out

    @pytest.mark.parametrize("case", ["missing", "directory", "ragged",
                                      "non-numeric", "out-is-a-file"])
    def test_unusable_path_exit_code(self, tmp_path, capsys, case):
        header, row = ",".join(TRACE_COLUMNS), ",".join(["0.0"] * 11)
        contents = {"ragged": f"{header}\n{row}\n0.0,1.0\n",
                    "non-numeric": f"{header}\nabc{row[3:]}\n",
                    "out-is-a-file": ""}
        path = tmp_path if case == "directory" else tmp_path / "trace.csv"
        if case in contents:
            path.write_text(contents[case])
        argv = (["simulate", "--duration", "0.05", "--out", str(path)]
                if case == "out-is-a-file" else ["metrics", "--trace", str(path)])
        assert run_cli(*argv) == EXIT_CONFIG
        assert str(path) in capsys.readouterr().err
