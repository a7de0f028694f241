import hashlib
import json
import re
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pitchpilot.cli import EXIT_CONFIG, EXIT_DIVERGED, EXIT_OK, main
from pitchpilot.config import default_config
from pitchpilot.engine import TRACE_COLUMNS, Trace
from pitchpilot.errors import fixed

# `sweep` and `tune` run noise-free and take no --no-noise.
NO_DISTURBANCE = ["--set", "loop.disturbance.amplitude=0"]
QUIET = ["--no-noise", *NO_DISTURBANCE]
HUGE = "9" * 401   # an integer past the float range
# Overrides that build valid sections but drive a sizing result past the
# float range, and the result the error names.
NONFINITE_SIZING = {"tail_sizing.X_CG=1e308 tail_sizing.X_AC=-1e308":
                    "S_T/S_ref = nan",
                    "missile.X_CG=1e308 missile.X_AC=-1e308":
                    "static margin = -inf",
                    "missile.X_AC=1e307": "static margin in percent = inf"}


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

    def test_delay_past_the_run_exit_code(self, tmp_path):
        # The delay line is cut at the run length instead of allocating
        # tau/dt entries.
        assert run_cli("simulate", "--out", str(tmp_path), "--set",
                       "loop.actuator.tau=1e300", *QUIET) == EXIT_OK

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

    def test_identity_compensator_no_improvement(self, tmp_path):
        code = run_cli("ab", "--out", str(tmp_path), "--duration", "4",
                       "--set", "loop.compensator.a=1", *QUIET)
        assert code == EXIT_OK
        a = Trace.from_csv(tmp_path / "trace_a.csv")
        b = Trace.from_csv(tmp_path / "trace_b.csv")
        assert np.max(np.abs(a.omega - b.omega)) < 1e-9

    def test_overflowing_noise_envelope(self, tmp_path):
        # Errors near 1e300 square past the float range in the envelope's
        # variance, which must not warn (an error under the pytest filter).
        assert run_cli("ab", "--out", str(tmp_path), "--set",
                       "scenario.initial=1e300", "--set",
                       "loop.actuator.tau=0.01") == EXIT_OK

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


@pytest.mark.parametrize("argv", ["size --dt 0.003", "size --duration 1",
                                  "size --seed 5", "size --no-noise",
                                  "sweep --seed 5", "sweep --no-noise",
                                  "tune --seed 5", "tune --no-noise"])
def test_option_the_command_would_ignore_is_a_usage_error(tmp_path, argv):
    # `size` runs no loop; `sweep` and `tune` run it noise-free.
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv.split(), "--out", str(tmp_path))
    assert exc.value.code == EXIT_CONFIG


# sha256 of default outputs written by the row-by-row `repr` trace writer
# and the reports before huge values took exponent form (numpy 2.4.6,
# scipy 1.17.1, x86-64).
GOLDEN = {
    ("ab", "--seed", "0"): {
        "trace_a.csv": "719c891a62319812b85ca320a35409c7"
                       "fc7d97addd15f31c68d3c068b5e5789a",
        "trace_b.csv": "475d026ac574536543235e87e514796b"
                       "071634157d355d51ead5ecf799bcc006",
        "ab_report.txt": "519f4f69d9d1582a6fd26af88d3c6f48"
                         "738d41fed1dc55c5edabe0322950774d"},
    ("simulate",): {
        "trace.csv": "475d026ac574536543235e87e514796b"
                     "071634157d355d51ead5ecf799bcc006",
        "metrics.txt": "ae0886cef2ea2822126168471cea5e94"
                       "e1538d6056e8d796bc0b927e7380825d"},
    ("size",): {
        "sizing.txt": "c193df244e0716d4371c8a16919c7a6f"
                      "41bf5abbe621149baa400f29dbbb6a07"},
    ("sweep",): {
        "sweep.csv": "bedf8387b498971020e57f186c41a967"
                     "dac9940804e59e231f64edd676ce1730"},
    ("tune", "--max-evals", "16"): {
        "tuned_gains.txt": "d0573850eb4d1dc0465101bd5f1018ad"
                           "dc6424867f782608c2b42a9d4e9c1764"},
}


@pytest.mark.parametrize("argv", list(GOLDEN), ids=" ".join)
def test_default_outputs_are_byte_identical(tmp_path, argv):
    assert run_cli(*argv, "--out", str(tmp_path)) == EXIT_OK
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in GOLDEN[argv]} == GOLDEN[argv]


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


@pytest.mark.parametrize("argv, code", [
    (["simulate", "--set", "scenario.command=10"],   # a step from 10 to 10
     EXIT_CONFIG),
    (["ab", "--duration", "0.002"], EXIT_CONFIG),     # no response yet
    (["simulate", "--set", "loop.pid.k_p=1e9", "--set", "loop.pid.k_d=1e9",
      *QUIET], EXIT_DIVERGED)],
    ids=["degenerate-step", "no-response", "diverged"])
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

    def test_empty_values_usage_error(self, tmp_path):
        assert run_cli("sweep", "--out", str(tmp_path), "--values", ",",
                       *NO_DISTURBANCE) == EXIT_CONFIG

    @pytest.mark.parametrize("values", ["0.5:2", "a", "nan,inf"],
                             ids=["float-range", "non-number", "non-finite"])
    def test_malformed_values_usage_error(self, tmp_path, values):
        assert run_cli("sweep", "--out", str(tmp_path), "--values", values,
                       *NO_DISTURBANCE) == EXIT_CONFIG

    def test_swept_value_fails_as_set_does(self, tmp_path, capsys):
        assert run_cli("sweep", "--out", str(tmp_path), "--values", "7,nan",
                       "--duration", "1", *NO_DISTURBANCE) == EXIT_CONFIG
        swept = capsys.readouterr().err
        assert run_cli("simulate", "--out", str(tmp_path), "--set",
                       "loop.actuator.gain=NaN", *QUIET) == EXIT_CONFIG
        assert "'loop.actuator'" in swept
        assert capsys.readouterr().err == swept

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
        run_cli("simulate", "--out", str(tmp_path), *QUIET)
        capsys.readouterr()
        code = run_cli("metrics", "--trace", str(tmp_path / "trace.csv"))
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "rise time" in out
        assert "pass" in out

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
                     HUGE, "-" + HUGE]),
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
        argv += [f"--param={param}", "--values=0.5,7"]
    if command == "tune":
        argv.append(f"--max-evals={draw(st.integers(-1, 3))}")
    # Last, so no --set can lengthen the run.
    return argv + ["--duration", "0.05", "--dt", "0.001"]


class TestExitCodeContract:
    @pytest.fixture(scope="class")
    def trace(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("fuzz-trace")
        assert run_cli("simulate", "--out", str(out), "--duration", "0.05",
                       *QUIET) == EXIT_OK
        return str(out / "trace.csv")

    @settings(derandomize=True, database=None, deadline=None,
              max_examples=150)
    @given(data=st.data())
    def test_any_argv_exits_0_2_or_3(self, trace, data):
        argv = data.draw(argvs(trace))
        with tempfile.TemporaryDirectory() as out:
            if argv[0] != "metrics":
                argv[1:1] = ["--out", out]
            try:
                code = main(argv)
            except SystemExit as exc:   # argparse usage errors
                assert exc.code == EXIT_CONFIG
            else:
                assert code in (EXIT_OK, EXIT_CONFIG, EXIT_DIVERGED)
