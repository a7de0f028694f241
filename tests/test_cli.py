import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pitchpilot
from pitchpilot.cli import EXIT_CONFIG, EXIT_DIVERGED, EXIT_OK, main
from pitchpilot.config import default_config
from pitchpilot.engine import TRACE_COLUMNS, Trace
from pitchpilot.errors import fixed

# `sweep` and `tune` run noise-free and take no --no-noise.
NO_DISTURBANCE = ["--set", "loop.disturbance.amplitude=0"]
QUIET = ["--no-noise", *NO_DISTURBANCE]
HUGE = "9" * 401   # an integer past the float range
# An integer inside the float range whose square is past it.
BIG = "1" + "0" * 200
# Overrides that build valid sections but drive a sizing result past the
# float range, and the result the error names.
NONFINITE_SIZING = {"missile.X_CG=1e308 tail_sizing.X_AC=-1e308":
                    "S_T/S_ref = nan",
                    "missile.X_CG=1e308 missile.X_AC=-1e308":
                    "static margin = -inf",
                    "missile.X_AC=1e307": "static margin in percent = inf",
                    f"missile.b={BIG}": "wing area S_W = inf"}


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

    def test_plot_script_runs_from_any_directory(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli("simulate", "--out", str(out), "--duration", "0.05",
                       *QUIET) == EXIT_OK
        # matplotlib is no dependency: a stub whose savefig writes its path.
        stub = tmp_path / "stub" / "matplotlib"
        stub.mkdir(parents=True)
        (stub / "__init__.py").write_text("")
        (stub / "pyplot.py").write_text(
            "def _ignore(*args, **kwargs):\n"
            "    pass\n\n\n"
            "plot = axhline = xlabel = ylabel = legend = _ignore\n\n\n"
            "def savefig(path, **kwargs):\n"
            "    with open(path, 'w') as fh:\n"
            "        fh.write(str(path))\n")
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        script = os.path.relpath(out / "plot_trace.py", elsewhere)
        result = subprocess.run(
            [sys.executable, script], cwd=elsewhere, capture_output=True,
            text=True, env={**os.environ, "PYTHONPATH": str(stub.parent)})
        assert result.returncode == 0, result.stderr
        png = out.resolve() / "trace.png"
        assert png.read_text() == str(png)
        assert list(elsewhere.iterdir()) == []

    def test_no_response_writes_a_note(self, tmp_path, capsys):
        # Within 50 ms the 100 ms actuator delay keeps the pitch at its start.
        assert run_cli("simulate", "--out", str(tmp_path), "--duration",
                       "0.05", *QUIET) == EXIT_OK
        note = "Step metrics\n  (trace never crossed the 10% threshold)\n"
        assert (tmp_path / "metrics.txt").read_text() == note
        assert capsys.readouterr().out.startswith(note)

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

    @pytest.mark.parametrize("body", [
        pytest.param(b"{not json", id="not-json"),
        pytest.param(b'{"loop": 1}\xff', id="not-utf-8"),
        pytest.param(b'{"loop": {"pid": {"k_p": ' + b"9" * 5000 + b"}}}",
                     id="int-9x5000"),
        pytest.param(b"[" * 100_000, id="nested-1e5")])
    def test_malformed_config_exit_code(self, tmp_path, capsys, body):
        bad = tmp_path / "bad.json"
        bad.write_bytes(body)
        code = run_cli("simulate", "--config", str(bad), "--out",
                       str(tmp_path))
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "error" in err
        assert str(bad) in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == [bad]

    def test_unknown_key_exit_code(self, tmp_path, capsys):
        # `missile.m` is a paper value the airframe section no longer holds.
        cfg = tmp_path / "cfg.json"
        for command, doc, key in [("simulate", {"loop": {"typo": 1}},
                                   "loop.typo"),
                                  ("size", {"missile": {"m": 85}},
                                   "missile.m")]:
            cfg.write_text(json.dumps(doc))
            assert run_cli(command, "--config", str(cfg), "--out",
                           str(tmp_path)) == EXIT_CONFIG
            assert (f"unknown configuration key '{key}'"
                    in capsys.readouterr().err)

    @pytest.mark.parametrize("override", ["loop.pid.k_p=abc",
                                          "loop.actuator.wn=abc",
                                          "loop.plant.J_z=abc",
                                          "scenario.seed=abc",
                                          "scenario.seed=1.5",
                                          "scenario.seed=-1",
                                          "scenario.initial=abc",
                                          "scenario.command=abc",
                                          "loop.noise.enabled=maybe",
                                          "loop.compensator.enabled=maybe",
                                          "loop.kalman.enabled=maybe",
                                          "loop.pid.k_p=true",
                                          "loop.disturbance.amplitude=true",
                                          "scenario.duration=true",
                                          "missile.b=true",
                                          "loop.disturbance.frequency=1e400",
                                          'loop.actuator.gain="7"',
                                          *(pytest.param(f"{key}={HUGE}",
                                                         id=f"{key}=9x401")
                                            for key in ("loop.pid.k_p",
                                                        "loop.actuator.gain",
                                                        "loop.actuator.tau",
                                                        "scenario.initial",
                                                        "scenario.duration")),
                                          "--duration=inf",
                                          "derivatives.C_Ma=abc",
                                          "loop.actuator.wn=1e400",
                                          "loop.compensator.a=1e400",
                                          "loop.noise.variance=NaN",
                                          "missile.X_CG=NaN",
                                          "scenario.initial=1e308"
                                          " scenario.command=-1e308",
                                          pytest.param(
                                              "loop.pid.k_p=" + "9" * 5000,
                                              id="loop.pid.k_p=9x5000"),
                                          pytest.param("loop=" + "[" * 100_000,
                                                       id="loop=[x1e5"),
                                          *NONFINITE_SIZING])
    def test_mistyped_value_exit_code(self, tmp_path, capsys, override):
        # `size` is the only command that builds the sizing sections.
        command = ("size" if override.startswith(("missile.", "derivatives.",
                                                  "tail_sizing."))
                   else "simulate")
        option = ([override] if override.startswith("--")
                  else [arg for item in override.split()
                        for arg in ("--set", item)])
        assert run_cli(command, "--out", str(tmp_path), *option) == EXIT_CONFIG
        section = ("scenario" if override.startswith("--")
                   else override.partition("=")[0].rsplit(".", 1)[0])
        named = NONFINITE_SIZING.get(override, f"'{section}'")
        assert named in capsys.readouterr().err
        assert not [path for path in tmp_path.rglob("*") if path.is_file()]

    @pytest.mark.parametrize("duration", ["1e12", "1e300"])
    def test_run_too_long_for_memory_exit_code(self, tmp_path, capsys,
                                               duration):
        # The record is allocated before the run's noise is drawn.
        assert run_cli("simulate", "--out", str(tmp_path), "--duration",
                       duration) == EXIT_CONFIG
        assert "fits in memory" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_divergence_exit_code(self, tmp_path):
        code = run_cli("simulate", "--out", str(tmp_path),
                       "--set", "loop.pid.k_p=1e9",
                       "--set", "loop.pid.k_d=1e9", *QUIET)
        assert code == EXIT_DIVERGED

    @pytest.mark.parametrize("argv, code", [
        (["--set", "loop.pid.k_p=abc"], EXIT_CONFIG),
        (["--no-noise", "--set", "loop.pid.k_p=1e9", "--set", "loop.pid.k_i=0",
          "--set", "loop.pid.k_d=1e9"], EXIT_DIVERGED)],
        ids=["invalid-section", "diverged"])
    def test_failed_command_makes_no_out_directory(self, tmp_path, argv,
                                                   code):
        out = tmp_path / "new" / "run"
        assert run_cli("simulate", *argv, "--out", str(out)) == code
        assert list(tmp_path.iterdir()) == []

    def test_out_below_a_file_is_refused_before_the_run(self, tmp_path,
                                                        monkeypatch, capsys):
        (tmp_path / "file").write_text("")
        monkeypatch.setattr("pitchpilot.cli.cmd_simulate", lambda *args:
                            pytest.fail("the command ran"))
        assert run_cli("simulate", "--out",
                       str(tmp_path / "file" / "run")) == EXIT_CONFIG
        assert "file is not a directory" in capsys.readouterr().err

    @pytest.mark.parametrize("override, named", [
        ("loop.plant.J_z=1e-300", "PitchPlantParams(J_z=1e-300"),
        ("loop.actuator.wn=1e200", "ActuatorParams("),
        ("loop.actuator.gain=1e308", "ActuatorParams(gain=1e+308"),
        ("loop.disturbance.frequency=1e300", "DisturbanceParams("),
        pytest.param(f"loop.actuator.wn={BIG}", "ActuatorParams(",
                     id="loop.actuator.wn=1e200-as-int")])
    def test_hold_past_the_float_range_names_its_parameters(
            self, tmp_path, capsys, override, named):
        assert run_cli("simulate", "--out", str(tmp_path),
                       "--set", override) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "no finite zero-order hold" in err
        assert named in err
        assert "A=[[" not in err

    def test_lead_past_the_float_range_names_its_parameters(self, tmp_path,
                                                            capsys):
        # b0 = a·2T/dt + 1 overflows: no step of the run could be computed.
        assert run_cli("simulate", "--duration", "0.5", "--out", str(tmp_path),
                       "--set", "loop.compensator.a=1e300",
                       "--set", "loop.compensator.T=1e300") == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "no finite bilinear map" in err
        assert "CompensatorParams(" in err
        assert list(tmp_path.iterdir()) == []

    def test_delay_past_the_run_exit_code(self, tmp_path):
        # The delay line is cut at the run length instead of allocating
        # tau/dt entries.
        assert run_cli("simulate", "--out", str(tmp_path), "--set",
                       "loop.actuator.tau=1e300", *QUIET) == EXIT_OK

    @pytest.mark.parametrize("command", ["simulate", "ab"])
    @pytest.mark.parametrize("sample_time", ["1e15", "1e300"])
    def test_noise_hold_past_the_run_exit_code(self, tmp_path, command,
                                               sample_time):
        # One draw is held to the end, not repeated sample_time/dt times.
        assert run_cli(command, "--duration", "1", "--out", str(tmp_path),
                       "--set", f"loop.noise.sample_time={sample_time}",
                       *NO_DISTURBANCE) == EXIT_OK

    def test_overflow_in_the_plant_exit_code(self, tmp_path):
        # The plant and the error go non-finite in the same step (48).
        assert run_cli(
            "simulate", "--out", str(tmp_path), "--duration", "2",
            "--set", "loop.actuator.gain=4614188.555029062",
            "--set", "loop.plant.J_z=1.4568900730998578e-08",
            "--set", "loop.plant.lam=0",
            "--set", "loop.pid.k_p=3143279.220717917",
            "--set", "loop.pid.k_d=0", "--set", "loop.actuator.tau=0.001",
            "--set", "loop.kalman.enabled=false") == EXIT_DIVERGED

    def test_huge_actuator_gain_diverges(self, tmp_path):
        # The servo's hold is finite but past expm's reach without scaling.
        assert run_cli("simulate", "--out", str(tmp_path), "--set",
                       "loop.actuator.gain=1e100") == EXIT_DIVERGED

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

    def test_leg_that_never_responds_is_named(self, tmp_path, capsys):
        # As a diverged leg is: the error names leg A, and nothing is written.
        assert run_cli("ab", "--duration", "0.05", "--no-noise",
                       "--out", str(tmp_path)) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "trace never crossed the 10% threshold (leg A)" in err
        assert list(tmp_path.iterdir()) == []

    def test_identity_compensator_no_improvement(self, tmp_path):
        code = run_cli("ab", "--out", str(tmp_path), "--duration", "4",
                       "--set", "loop.compensator.a=1", *QUIET)
        assert code == EXIT_OK
        a = Trace.from_csv(tmp_path / "trace_a.csv")
        b = Trace.from_csv(tmp_path / "trace_b.csv")
        assert np.max(np.abs(a.omega - b.omega)) < 1e-9

    def test_overflowing_noise_envelope(self, tmp_path):
        # Errors near 1e300 reach the report's noise envelope, which must
        # print them without a warning (an error under the pytest filter).
        assert run_cli("ab", "--out", str(tmp_path), "--set",
                       "scenario.initial=1e300", "--set",
                       "loop.actuator.tau=0.01") == EXIT_OK

    def test_zero_variance_reports_as_no_noise(self, tmp_path):
        # Both spellings draw no noise, so the run decides that the report
        # has no noise envelope.
        written = []
        for spelling in (["--set", "loop.noise.variance=0"], ["--no-noise"]):
            out = tmp_path / spelling[-1]
            assert run_cli("ab", "--out", str(out), "--duration", "2",
                           *spelling) == EXIT_OK
            written.append({name: (out / name).read_bytes() for name in
                            ("trace_a.csv", "trace_b.csv", "ab_report.txt")})
        assert written[0] == written[1]
        assert b"Noise envelope" not in written[0]["ab_report.txt"]

    def test_noise_envelope_of_huge_errors(self, tmp_path):
        # Noise of deviation 1e150 moves a pitch near 1e150, so the envelope
        # is printed, in exponent form and without a warning.
        assert run_cli("ab", "--out", str(tmp_path), "--duration", "2",
                       "--set", "scenario.initial=1e150",
                       "--set", "loop.noise.variance=1e300",
                       "--set", "loop.actuator.tau=0.01") == EXIT_OK
        report = (tmp_path / "ab_report.txt").read_text()
        assert re.search(r"Noise envelope A: max \S+e\+149 min -\S+e\+149",
                         report)

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

    def test_tail_sizing_reads_the_airframe_centre_of_gravity(self, tmp_path):
        # TailSizingInputs with X_CG = 2.0 m give the ratio -3.7647.
        assert run_cli("size", "--out", str(tmp_path),
                       "--set", "missile.X_CG=2.0") == EXIT_OK
        text = (tmp_path / "sizing.txt").read_text()
        assert "tail area ratio S_T/S_ref = -3.7647" in text
        assert "tail area S_T = 0.1182 m^2" in text


@pytest.mark.parametrize("argv", ["size --dt 0.003", "size --duration 1",
                                  "size --seed 5", "size --no-noise",
                                  "sweep --seed 5", "sweep --no-noise",
                                  "tune --seed 5", "tune --no-noise"])
def test_option_the_command_would_ignore_is_a_usage_error(tmp_path, argv):
    # `size` runs no loop; `sweep` and `tune` run it noise-free.
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv.split(), "--out", str(tmp_path))
    assert exc.value.code == EXIT_CONFIG


def _files(directory):
    return {path.name: path.read_bytes() for path in directory.iterdir()}


# Each scenario flag, the `--set` item it stands for, and a `--set` item
# that the flag overrides: a leaf set to a JSON object is still a leaf.
FLAGS = [(["--seed", "3"], "scenario.seed=3", "scenario.seed=5"),
         (["--seed", "3"], "scenario.seed=3", "scenario.seed={}"),
         (["--duration", "0.5"], "scenario.duration=0.5",
          "scenario.duration=0.3"),
         (["--dt", "0.002"], "scenario.dt=0.002", "scenario.dt=0.001"),
         (["--no-noise"], "loop.noise.enabled=false",
          "loop.noise.enabled=true")]


@pytest.mark.parametrize("flag, item, conflict", FLAGS,
                         ids=["seed", "seed-over-object", "duration", "dt",
                              "no-noise"])
def test_flag_writes_what_its_set_twin_writes(tmp_path, flag, item,
                                              conflict):
    base = ["simulate", "--set", "scenario.duration=0.4"]
    runs = {"base": base, "flag": [*base, *flag],
            "set": [*base, "--set", item],
            "flag-beats-set": [*base, "--set", conflict, *flag]}
    for name, argv in runs.items():
        assert run_cli(*argv, "--out", str(tmp_path / name)) == EXIT_OK
    flagged = _files(tmp_path / "flag")
    assert _files(tmp_path / "set") == flagged
    assert _files(tmp_path / "flag-beats-set") == flagged
    assert _files(tmp_path / "base")["trace.csv"] != flagged["trace.csv"]


def test_set_without_equals_is_a_usage_error(tmp_path, capsys):
    assert run_cli("simulate", "--set", "loop.pid.k_p", "--out",
                   str(tmp_path)) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "error: --set expects KEY=VALUE, got 'loop.pid.k_p'\n")
    assert list(tmp_path.iterdir()) == []


# sha256 of default outputs written by the row-by-row `repr` trace writer
# and the reports before huge values took exponent form.  The zero-order
# holds are computed in Python floats, so no BLAS kernel moves them (see
# the test below); they still assume the C library's `sin` and `cos` (the
# disturbance and `engine._plan`'s oscillator) and the stream of numpy's
# `Generator.normal` (numpy 2.4.6, x86-64).
GOLDEN = {
    ("ab", "--seed", "0"): {
        "trace_a.csv": "f857b732a9af5cd2633a5f123a01295d"
                       "247e7d09bf5763112ee0d416a49c9d57",
        "trace_b.csv": "50b3ebef317bd32f52222c319880b760"
                       "fa3cc9da48e7e18fff2b1ece2209ebd2",
        "ab_report.txt": "519f4f69d9d1582a6fd26af88d3c6f48"
                         "738d41fed1dc55c5edabe0322950774d"},
    ("simulate",): {
        "trace.csv": "50b3ebef317bd32f52222c319880b760"
                     "fa3cc9da48e7e18fff2b1ece2209ebd2",
        "metrics.txt": "ae0886cef2ea2822126168471cea5e94"
                       "e1538d6056e8d796bc0b927e7380825d"},
    ("size",): {
        "sizing.txt": "c193df244e0716d4371c8a16919c7a6f"
                      "41bf5abbe621149baa400f29dbbb6a07"},
    ("sweep",): {
        "sweep.csv": "68b8e852f8d4cd12186cb14934b81b9d"
                     "eecf680fc8d403f66fed536cd81e2d83"},
    ("tune", "--max-evals", "16"): {
        "tuned_gains.txt": "d0573850eb4d1dc0465101bd5f1018ad"
                           "dc6424867f782608c2b42a9d4e9c1764"},
}


def _hashes(directory, argv):
    return {name: hashlib.sha256((directory / name).read_bytes()).hexdigest()
            for name in GOLDEN[argv]}


@pytest.mark.parametrize("argv", list(GOLDEN), ids=" ".join)
def test_default_outputs_are_byte_identical(tmp_path, argv):
    assert run_cli(*argv, "--out", str(tmp_path)) == EXIT_OK
    assert _hashes(tmp_path, argv) == GOLDEN[argv]


def _child(*args, **env):
    """`python *args` in a fresh process that imports this package, with
    `env` added to its environment; returns its stdout."""
    src = str(Path(pitchpilot.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], check=True,
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path, **env}).stdout


@pytest.mark.parametrize("coretype", ["Haswell", "Nehalem"])
@pytest.mark.parametrize("argv", [("ab", "--seed", "0"), ("simulate",),
                                  ("sweep",)], ids=" ".join)
def test_default_traces_do_not_depend_on_the_blas_kernel(tmp_path, argv,
                                                         coretype):
    # OPENBLAS_CORETYPE makes numpy's OpenBLAS use the named CPU kernel in
    # place of the one it picks for the CPU, in the child process only.
    _child("-m", "pitchpilot.cli", *argv, "--out", str(tmp_path),
           OPENBLAS_CORETYPE=coretype)
    assert _hashes(tmp_path, argv) == GOLDEN[argv]


def test_a_run_imports_no_scipy(tmp_path):
    # scipy is a test dependency only: the holds are the package's own.
    argv = ["simulate", "--duration", "0.5", "--out", str(tmp_path)]
    code = ("import sys\n"
            "import pitchpilot\n"
            "from pitchpilot import cli\n"
            f"cli.main({argv!r})\n"
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])\n")
    assert _child("-c", code).splitlines()[-1] == "[]"


class TestHugeValuesInExponentForm:
    @pytest.mark.parametrize("value, spec, text", [
        (999999999.94, ".1f", "999999999.9"),
        (-999999999.94, ".1f", "-999999999.9"),
        (1e9, ".1f", "1.0000e+09"),
        (-3471706646730172.5, ".0f", "-3.4717e+15"),
        (1.9e307, ".2f", "1.9000e+307"),
        (float("inf"), ".3f", "inf"),
        (float("nan"), ".1f", "nan"),
    ])
    def test_fixed(self, value, spec, text):
        assert fixed(value, spec) == text

    def test_sizing_margins(self, tmp_path):
        assert run_cli("size", "--out", str(tmp_path),
                       "--set", "missile.X_AC=1e306") == EXIT_OK
        assert "static margin = 1.9231e+307% of length" \
               " (5.0000e+306 calibers)" in (tmp_path / "sizing.txt").read_text()

    def test_step_metrics_of_a_runaway_run(self, tmp_path, capsys):
        assert run_cli("simulate", "--out", str(tmp_path), "--no-noise",
                       "--duration", "1",
                       "--set", "loop.actuator.gain=5000") == EXIT_OK
        text = (tmp_path / "metrics.txt").read_text()
        assert "percent overshoot  = 3.4717e+15 %" in text
        assert not re.search(r"\d{10}", text)


# A short run per command that writes files; each would exit 0.
WRITERS = {"simulate": ["--duration", "2", *QUIET],
           "ab": ["--duration", "2", *QUIET],
           "size": [],
           "sweep": ["--values", "7", "--duration", "2", *NO_DISTURBANCE],
           "tune": ["--max-evals", "1", "--duration", "2", *NO_DISTURBANCE]}


@pytest.mark.parametrize("command, name", [
    ("simulate", "trace.csv"), ("simulate", "metrics.txt"),
    ("simulate", "plot_trace.py"), ("ab", "trace_a.csv"),
    ("ab", "ab_report.txt"), ("size", "sizing.txt"), ("sweep", "sweep.csv"),
    ("tune", "tuned_gains.txt")])
def test_unwritable_output_exit_code(tmp_path, capsys, command, name):
    (tmp_path / name).mkdir()
    assert run_cli(command, "--out", str(tmp_path),
                   *WRITERS[command]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert str(tmp_path / name) in err
    assert "Traceback" not in err
    # Neither an earlier output nor a staging file is left behind.
    assert list(tmp_path.iterdir()) == [tmp_path / name]


def _raise_oserror(*args, **kwargs):
    raise OSError(30, "Read-only file system")


def test_out_that_cannot_be_made_exit_code(tmp_path, capsys, monkeypatch):
    # Permission bits do not stop root, so the file system is made to fail.
    monkeypatch.setattr(Path, "mkdir", _raise_oserror)
    out = tmp_path / "run"
    assert run_cli("size", "--out", str(out)) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot use output directory {out}:")
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("owner, name", [(tempfile, "mkdtemp"),
                                         (Trace, "to_csv")],
                         ids=["mkdtemp", "to_csv"])
def test_failed_write_exit_code(tmp_path, capsys, monkeypatch, owner, name):
    monkeypatch.setattr(owner, name, _raise_oserror)
    assert run_cli("simulate", "--out", str(tmp_path),
                   *WRITERS["simulate"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write output:")
    assert "Read-only file system" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def _disk_full(*args, **kwargs):
    raise OSError(28, "No space left on device")


# Where a write can fail, and whose outputs reach it: a `Trace` is written
# only by `simulate` and `ab`.
FAILING_WRITES = {"mkdir": (Path, "mkdir"), "mkdtemp": (tempfile, "mkdtemp"),
                  "write_text": (Path, "write_text"),
                  "to_csv": (Trace, "to_csv")}


@pytest.mark.parametrize("command, failing", [
    (command, failing) for command in WRITERS for failing in FAILING_WRITES
    if failing != "to_csv" or command in ("simulate", "ab")])
def test_failed_write_leaves_no_new_out(tmp_path, capsys, monkeypatch,
                                        command, failing):
    # The outputs are staged in tmp_path, the nearest existing directory,
    # and NEW/run is made only once all of them are staged.
    monkeypatch.setattr(*FAILING_WRITES[failing], _disk_full)
    out = tmp_path / "NEW" / "run"
    assert run_cli(command, "--out", str(out),
                   *WRITERS[command]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot use output directory {out}:"
                          if failing == "mkdir"
                          else "error: cannot write output:")
    assert "No space left on device" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", WRITERS)
def test_failed_rename_exit_code(tmp_path, capsys, monkeypatch, command):
    # A rename fails after NEW/run was made, which README names as the one
    # way a failed command can leave a new --out.
    monkeypatch.setattr(Path, "replace", _disk_full)
    assert run_cli(command, "--out", str(tmp_path / "NEW" / "run"),
                   *WRITERS[command]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write output:")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, code", [
    (["simulate", "--set", "scenario.command=10"],   # a step from 10 to 10
     EXIT_CONFIG),
    (["ab", "--duration", "0.002"], EXIT_CONFIG),     # no response yet
    (["simulate", "--set", "loop.pid.k_p=1e9", "--set", "loop.pid.k_d=1e9",
      *QUIET], EXIT_DIVERGED),
    # The lead output overflows at step 303, the deflection only at 403,
    # after the run's last step.
    (["simulate", "--no-noise", "--duration", "0.35", "--set",
      "loop.compensator.a=1e100"], EXIT_DIVERGED),
    # 1.5 steps, not rounded to 2.
    (["simulate", "--duration", "0.0015", *QUIET], EXIT_CONFIG)],
    ids=["degenerate-step", "no-response", "diverged", "lead-overflow",
         "part-step"])
def test_step_error_writes_nothing(tmp_path, argv, code):
    assert run_cli(*argv, "--out", str(tmp_path)) == code
    assert list(tmp_path.iterdir()) == []


class TestSweepAndTune:
    def test_sweep_without_a_response_names_no_best(self, tmp_path, capsys):
        # Neither run outlasts its delay, so both cost the penalty.
        assert run_cli("sweep", "--out", str(tmp_path), "--param",
                       "actuator.tau", "--values", "1,2", "--duration",
                       "0.5") == EXIT_OK
        assert capsys.readouterr().out == (
            "swept actuator.tau over 2 values;"
            " no value gave a measurable response\n")
        assert (tmp_path / "sweep.csv").read_text() == (
            "value,t_r,t_p,t_s,m_p,cost\n"
            "1.0,,,,,1000000.0\n2.0,,,,,1000000.0\n")

    def test_sweep_winner_reported(self, tmp_path, capsys):
        code = run_cli("sweep", "--out", str(tmp_path), "--values", "5,6,7",
                       "--duration", "4", *NO_DISTURBANCE)
        assert code == EXIT_OK
        assert (tmp_path / "sweep.csv").read_text().count("\n") == 4
        assert "best actuator.gain" in capsys.readouterr().out

    def test_sweep_winner_is_a_measured_value(self, tmp_path, capsys):
        # 1e300 diverges and costs the penalty, which is below the cost of
        # the measured 5000: the winner is still the only value measured.
        assert run_cli("sweep", "--out", str(tmp_path), "--values",
                       "5000,1e300", "--duration", "1") == EXIT_OK
        assert capsys.readouterr().out == (
            "swept actuator.gain over 2 values;"
            " best actuator.gain = 5000.0 (cost 2.3057e+13)\n")

    def test_empty_values_usage_error(self, tmp_path):
        assert run_cli("sweep", "--out", str(tmp_path), "--values", ",",
                       *NO_DISTURBANCE) == EXIT_CONFIG

    # A range's ends and count are refused before it is expanded, or 1:HUGE
    # counts towards 10**401, and 1:10**12 towards 10**12, until memory runs
    # out.
    @pytest.mark.parametrize("values", ["0.5:2", "a", "nan,inf",
                                        f"{HUGE}:{HUGE}", f"1:{HUGE}",
                                        "1:1000000000000"],
                             ids=["float-range", "non-number", "non-finite",
                                  "huge-range", "range-to-huge",
                                  "range-past-the-cap"])
    def test_malformed_values_usage_error(self, tmp_path, capsys, values):
        out = tmp_path / "run"
        assert run_cli("sweep", "--out", str(out), "--values", values,
                       *NO_DISTURBANCE) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert values.split(",")[0] in err
        assert not out.exists()

    @pytest.mark.parametrize("values, crossing", [
        ("1:5", None), ("1:6", "1:6"), ("1:3,4:6", "4:6"),
        ("1,2,3,4,5,6", "6"), ("9:1,1:5", None)])
    def test_values_past_the_cap_are_refused(self, tmp_path, capsys,
                                             monkeypatch, values, crossing):
        monkeypatch.setattr("pitchpilot.cli.MAX_SWEEP_VALUES", 5)
        out = tmp_path / "run"
        code = run_cli("sweep", "--out", str(out), "--values", values,
                       "--duration", "0.05", *NO_DISTURBANCE)
        if crossing is None:
            assert code == EXIT_OK and (out / "sweep.csv").exists()
        else:
            assert code == EXIT_CONFIG and not out.exists()
            assert capsys.readouterr().err == (
                f"error: sweep value '{crossing}' takes the sweep past"
                " 5 values\n")

    def test_swept_value_fails_as_set_does(self, tmp_path, capsys):
        assert run_cli("sweep", "--out", str(tmp_path), "--values", "7,nan",
                       "--duration", "1", *NO_DISTURBANCE) == EXIT_CONFIG
        swept = capsys.readouterr().err
        assert run_cli("simulate", "--out", str(tmp_path), "--set",
                       "loop.actuator.gain=NaN", *QUIET) == EXIT_CONFIG
        assert "'loop.actuator'" in swept
        assert capsys.readouterr().err == swept

    @pytest.mark.parametrize("budget", ["1", "3"])
    def test_diverged_start_is_untunable_at_any_budget(self, tmp_path,
                                                       capsys, budget):
        # Fewer evaluations than the simplex has vertices, all diverged.
        assert run_cli("tune", "--out", str(tmp_path), "--max-evals", budget,
                       "--set", "loop.pid.k_p=1e9",
                       "--set", "loop.pid.k_d=1e9") == EXIT_CONFIG
        assert "divergence penalty" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_tune_budget_one_echoes_start(self, tmp_path, capsys):
        code = run_cli("tune", "--out", str(tmp_path), "--max-evals", "1",
                       "--duration", "4", *NO_DISTURBANCE)
        assert code == EXIT_OK
        text = (tmp_path / "tuned_gains.txt").read_text()
        assert "k_p=44.0000" in text
        assert "k_i=23.4000" in text
        assert "k_d=24.0000" in text


class TestMetricsCommand:
    def test_recompute_from_csv(self, tmp_path, capsys):
        # The trace re-measures to the bytes of the run's own metrics.txt,
        # noise-free and noisy.
        for name, quiet in (("quiet", QUIET), ("noisy", [])):
            out_dir = tmp_path / name
            assert run_cli("simulate", "--out", str(out_dir),
                           *quiet) == EXIT_OK
            capsys.readouterr()
            code = run_cli("metrics", "--trace", str(out_dir / "trace.csv"))
            assert code == EXIT_OK
            out = capsys.readouterr().out
            assert "rise time" in out
            assert "pass" in out
            assert out.encode() == (out_dir / "metrics.txt").read_bytes()

    @pytest.mark.parametrize("t", [[1.0, 0.0], [0.0, 0.0], [0.0, math.nan],
                                   [0.0, math.inf]],
                             ids=["decreasing", "repeated", "nan", "inf"])
    def test_time_not_strictly_increasing_exit_code(self, tmp_path, capsys,
                                                    t):
        # A full step, 10 -> 1 deg, at times the step cannot be measured on.
        rows = np.zeros((2, len(TRACE_COLUMNS)))
        rows[:, TRACE_COLUMNS.index("t")] = t
        rows[:, TRACE_COLUMNS.index("omega")] = [10.0, 1.0]
        rows[:, TRACE_COLUMNS.index("cmd")] = 1.0
        path = tmp_path / "trace.csv"
        Trace(rows).to_csv(path)
        assert run_cli("metrics", "--trace", str(path)) == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ")
        assert str(path) in err
        assert "strictly increasing" in err

    # The trace runs from 10 to 1 deg; each refusal names the values used.
    @pytest.mark.parametrize("argv, named", [
        (["--band-fraction", "1e308"], "--band-fraction 1e+308"),
        (["--start", "inf"], "--start inf"),
        (["--target", "nan"], "--target nan"),
        (["--band-fraction", "0"], "--band-fraction 0.0"),
        (["--start", "1", "--target", "1"], "--start 1.0 --target 1.0"),
        (["--target", "100"], "--target 100.0")],
        ids=["huge-fraction", "infinite-start", "nan-target", "zero-fraction",
             "degenerate-step", "never-responds"])
    def test_unmeasurable_step_names_its_options(self, tmp_path, capsys,
                                                 argv, named):
        run_cli("simulate", "--out", str(tmp_path), "--duration", "1")
        capsys.readouterr()
        path = tmp_path / "trace.csv"
        assert run_cli("metrics", "--trace", str(path), *argv) == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: cannot measure trace {path} with ")
        assert named in err

    @pytest.mark.parametrize("case", ["missing", "directory", "ragged",
                                      "non-numeric", "header-only",
                                      "comment-only", "wrong-header",
                                      "two-columns", "out-is-a-file"])
    def test_unusable_path_exit_code(self, tmp_path, capsys, case):
        header, row = ",".join(TRACE_COLUMNS), ",".join(["0.0"] * 11)
        contents = {"ragged": f"{header}\n{row}\n0.0,1.0\n",
                    "non-numeric": f"{header}\nabc{row[3:]}\n",
                    "header-only": f"{header}\n",
                    "comment-only": f"{header}\n# only a comment\n",
                    "wrong-header": f"t,omega\n{row}\n",
                    "two-columns": f"{header}\n0.0,1.0\n0.0,1.0\n",
                    "out-is-a-file": ""}
        path = tmp_path if case == "directory" else tmp_path / "trace.csv"
        if case in contents:
            path.write_text(contents[case])
        argv = (["simulate", "--duration", "0.05", "--out", str(path)]
                if case == "out-is-a-file" else ["metrics", "--trace", str(path)])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli(*argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert str(path) in err
        assert "Warning" not in err
        assert not caught


def _leaves(doc, prefix=""):
    for key, value in doc.items():
        path = f"{prefix}{key}"
        yield from (_leaves(value, path + ".") if isinstance(value, dict)
                    else [path])


LEAVES = sorted(_leaves(default_config()))
LOOP_LEAVES = [path.removeprefix("loop.") for path in LEAVES
               if path.startswith("loop.")]
json_scalars = (st.none() | st.booleans() | st.integers() | st.floats()
                | st.text(max_size=6))
# What follows `KEY=` on the command line.
override_values = st.one_of(
    st.sampled_from(["NaN", "Infinity", "-Infinity", "1e400", "-1e400",
                     HUGE, "-" + HUGE, BIG, "-" + BIG, "9" * 5000,
                     "[" * 100_000]),
    json_scalars.map(json.dumps),
    st.lists(json_scalars, max_size=3).map(json.dumps),
    st.text(max_size=8))
# `size` builds the sizing sections, the other commands loop and scenario.
SIZING_LEAVES = [path for path in LEAVES
                 if path.split(".")[0] in ("missile", "derivatives",
                                           "tail_sizing")]
RUN_LEAVES = [path for path in LEAVES if path not in SIZING_LEAVES]
ODD_KEYS = ["loop", "loop.pid", "scenario.x", ""]
number_texts = (st.sampled_from(["nan", "inf", "-inf", "1e400", "abc"])
                | st.floats().map(repr) | st.integers().map(str))
# `sweep --values` items: numbers, and ranges whose ends are small, far
# enough apart to count past the cap, or past the float range, so that no
# drawn sweep runs long.
range_ends = (st.integers(-2, 3).map(str)
              | st.sampled_from(["1000000000000", "-1000000000000", HUGE,
                                 "-" + HUGE]))
value_items = st.one_of(st.sampled_from(["0.5", "7"]),
                        st.tuples(range_ends, range_ends).map(":".join),
                        number_texts, st.sampled_from(["", "0.5:2", "1:2:3"]))
# `--duration` and `--dt`: a run of at most STEP_BUDGET steps (or shorter
# than one step), or a pair with one value the scenario refuses before it
# runs.
STEP_BUDGET = 100
dts = st.sampled_from([0.001, 0.005]) | st.floats(1e-4, 0.005)
bad_lengths = st.sampled_from(["0", "-0.001", "nan", "inf", "1e400", "abc"])
run_lengths = st.one_of(
    st.tuples(st.integers(1, STEP_BUDGET) | st.floats(0.5, STEP_BUDGET), dts)
    .map(lambda pair: (repr(pair[0] * pair[1]), repr(pair[1]))),
    st.tuples(bad_lengths, dts.map(repr)),
    st.tuples(st.just("0.05"), bad_lengths | st.just("0.006")),
).map(lambda pair: ["--duration", pair[0], "--dt", pair[1]])
json_values = st.recursive(
    json_scalars, lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3), max_leaves=6)


@st.composite
def config_documents(draw):
    """A `--config` document: any JSON value, or the default document's
    sections holding up to three leaves, each of its default value or of
    any JSON value."""
    if draw(st.booleans()):
        return draw(json_values)
    doc, defaults = {}, default_config()
    for path in draw(st.lists(st.sampled_from(LEAVES), max_size=3)):
        *sections, leaf = path.split(".")
        node, default = doc, defaults
        for key in sections:
            node, default = node.setdefault(key, {}), default[key]
        node[leaf] = draw(st.just(default[leaf]) | json_values)
    return doc


def _tree(root):
    """Each path below `root` with its bytes, None for a directory."""
    return {path.relative_to(root): None if path.is_dir()
            else path.read_bytes() for path in root.rglob("*")}


@st.composite
def argvs(draw, trace):
    """argv for one CLI call: a real subcommand with real document paths."""
    command = draw(st.sampled_from(["simulate", "ab", "size", "sweep", "tune",
                                    "metrics"]))
    if command == "metrics":
        argv = ["metrics", "--trace", trace]
        for option in ("--start", "--target", "--band-fraction"):
            if draw(st.booleans()):
                argv.append(f"{option}={draw(number_texts)}")
        return argv
    argv = [command]
    keys = st.sampled_from(
        (SIZING_LEAVES if command == "size" else RUN_LEAVES) + ODD_KEYS)
    for key, value in draw(st.lists(st.tuples(keys, override_values),
                                    max_size=3)):
        argv += ["--set", f"{key}={value}"]
    if command == "size":
        return argv
    if command in ("simulate", "ab"):
        if draw(st.booleans()):
            argv.append(f"--seed={draw(number_texts)}")
        if draw(st.booleans()):
            argv.append("--no-noise")
    if command == "sweep":
        param = draw(st.sampled_from(LOOP_LEAVES) | st.text(max_size=6))
        values = ",".join(draw(st.lists(value_items, min_size=1, max_size=4)))
        argv += [f"--param={param}", f"--values={values}"]
    if command == "tune":
        argv.append(f"--max-evals={draw(st.integers(-1, 3))}")
    # Last, so no --set or --config can lengthen the run.
    return argv + draw(run_lengths)


class TestExitCodeContract:
    @pytest.fixture(scope="class")
    def trace(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("fuzz-trace")
        assert run_cli("simulate", "--out", str(out), "--duration", "0.05",
                       *QUIET) == EXIT_OK
        return str(out / "trace.csv")

    @settings(derandomize=True, database=None, deadline=None,
              max_examples=450)
    @given(data=st.data())
    def test_any_argv_exits_0_2_or_3(self, trace, data):
        argv = data.draw(argvs(trace))
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            if argv[0] != "metrics":
                # A new --out, one that holds a file, a file, or below one.
                (tmp / "old").mkdir()
                (tmp / "old" / "kept.txt").write_text("kept")
                (tmp / "file").write_text("a file")
                out = data.draw(st.sampled_from(["new/run", "old", "file",
                                                 "file/run"]))
                argv[1:1] = ["--out", str(tmp / out)]
                if data.draw(st.booleans()):
                    config = tmp / "config.json"
                    config.write_text(json.dumps(data.draw(
                        config_documents())))
                    argv[1:1] = ["--config", str(config)]
            before = _tree(tmp)
            err = io.StringIO()
            try:
                with contextlib.redirect_stderr(err):
                    code = main(argv)
            except SystemExit as exc:   # argparse usage errors
                assert exc.code == EXIT_CONFIG
                code = exc.code
            else:
                assert code in (EXIT_OK, EXIT_CONFIG, EXIT_DIVERGED)
                if code != EXIT_OK:
                    assert err.getvalue().startswith("error: ")
                    assert "Traceback" not in err.getvalue()
            if code != EXIT_OK:
                assert _tree(tmp) == before
            assert not list(tmp.rglob(".pitchpilot-*"))   # no stage left
            if argv[0] != "metrics":
                assert (tmp / "old" / "kept.txt").read_text() == "kept"
