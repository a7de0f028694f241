import io
import math
import tempfile
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pitchpilot import engine
from pitchpilot.blocks import (ActuatorParams, CompensatorParams,
                               DisturbanceParams, KalmanParams, NoiseParams,
                               PidGains, PitchPlantParams)
from pitchpilot.engine import (TRACE_COLUMNS, LoopConfig, Scenario, Trace,
                               run_ab_pair, run_scenario, stability_probe)
from pitchpilot.errors import ConfigError, DivergedError


class TestScenario:
    def test_validation(self):
        with pytest.raises(ConfigError):
            Scenario(duration=0.0)
        with pytest.raises(ConfigError):
            Scenario(dt=0.02)   # resolution guard
        with pytest.raises(ConfigError):
            Scenario(dt=2.0, duration=1.0)

    @pytest.mark.parametrize("initial, command", [(1e308, -1e308),
                                                  (-10 ** 308, 10 ** 308)],
                             ids=["float", "int"])
    def test_step_past_the_float_range_rejected(self, initial, command):
        with pytest.raises(ConfigError, match="command - initial"):
            Scenario(initial=initial, command=command)


class TestRunScenario:
    def test_equilibrium_start(self, quiet_config):
        sc = Scenario(initial=5.0, command=5.0, duration=1.0)
        trace = run_scenario(quiet_config, sc)
        assert np.max(np.abs(trace.omega - 5.0)) < 1e-9

    def test_delay_hold_is_exact(self, ab_traces):
        for trace in ab_traces:
            held = trace.omega[trace.t < 0.1]
            assert np.all(held == 10.0)

    def test_trace_shape(self, quiet_config):
        trace = run_scenario(quiet_config, Scenario(duration=0.05))
        assert len(trace) == 51
        spacing = np.diff(trace.t)
        assert np.allclose(spacing, 0.001, rtol=0, atol=1e-12)

    def test_determinism_with_noise(self, noisy_config):
        sc = Scenario(seed=123, duration=2.0)
        t1 = run_scenario(noisy_config, sc)
        t2 = run_scenario(noisy_config, sc)
        for name in ("omega", "omega_meas", "omega_filt", "delta"):
            assert np.array_equal(getattr(t1, name), getattr(t2, name))

    def test_noise_off_is_seed_independent(self, quiet_config):
        t1 = run_scenario(quiet_config, Scenario(seed=1, duration=1.0))
        t2 = run_scenario(quiet_config, Scenario(seed=999, duration=1.0))
        assert np.array_equal(t1.omega, t2.omega)

    @pytest.mark.parametrize("plant", [PitchPlantParams(),
                                       PitchPlantParams(J_z=1.0, lam=2800.0)],
                             ids=["default", "stiff"])
    def test_halving_dt_converges(self, quiet_config, plant):
        cfg = replace(quiet_config, plant=plant)
        base = run_scenario(cfg, Scenario(duration=4.0, dt=0.001))
        fine = run_scenario(cfg, Scenario(duration=4.0, dt=0.0005))
        diff = np.max(np.abs(base.omega - fine.omega[::2]))
        assert diff < 0.005 * 9.0   # < 0.5% of the 9 degree step

    def test_zero_gains_hold_equilibrium(self, quiet_config):
        cfg = replace(quiet_config, pid=PidGains(k_p=0, k_i=0, k_d=0))
        trace = run_scenario(cfg, Scenario(duration=1.0))
        assert np.all(trace.omega == 10.0)
        assert np.all(np.abs(trace.omega_dot) <= 1e-12)

    @pytest.mark.parametrize("J, lam, amp, freq",
                             [(40.0, 6.0, 1.0, 1.0), (10.0, 20.0, 3.0, 2.5),
                              (1.0, 3000.0, 1.0, 1.0)])
    def test_open_loop_plant_matches_closed_form(self, J, lam, amp, freq):
        # Zero gains leave the deflection at zero, so the plant runs open
        # loop: J·w'' + lam·w' = -amp·sin(freq·t) from rest at 10 deg.
        cfg = LoopConfig(pid=PidGains(k_p=0, k_i=0, k_d=0),
                         plant=PitchPlantParams(J_z=J, lam=lam),
                         disturbance=DisturbanceParams(amp, freq),
                         noise=NoiseParams(enabled=False))
        trace = run_scenario(cfg, Scenario())
        t = trace.t
        a, f = lam / J, freq
        scale = -amp / J / (a * a + f * f)
        rate = scale * (a * np.sin(f * t) - f * np.cos(f * t)
                        + f * np.exp(-a * t))
        pitch = 10.0 + scale * (a * (1.0 - np.cos(f * t)) / f - np.sin(f * t)
                                + f / a * (1.0 - np.exp(-a * t)))
        assert np.all(trace.delta == 0.0)
        assert np.max(np.abs(trace.omega_dot - rate)) < 1e-12
        assert np.max(np.abs(trace.omega - pitch)) < 1e-12

    def test_diverged_run_carries_step_index(self, quiet_config):
        cfg = replace(quiet_config, pid=PidGains(k_p=1e9, k_i=0, k_d=1e9))
        with pytest.raises(DivergedError) as excinfo:
            run_scenario(cfg, Scenario(duration=10.0))
        assert excinfo.value.step > 0

    def test_float64_parameters_diverge_at_the_same_step(self, quiet_config,
                                                        as_float64):
        # numpy scalars in the loop would warn on overflow before the
        # finiteness check fires; the loop must run on floats regardless.
        cfg = replace(quiet_config, pid=PidGains(k_p=1e9, k_i=0, k_d=1e9))
        steps = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for loop, scenario in ((cfg, Scenario()),
                                   (as_float64(cfg), as_float64(Scenario()))):
                with pytest.raises(DivergedError) as excinfo:
                    run_scenario(loop, scenario)
                steps.append(excinfo.value.step)
        assert steps[0] == steps[1]

    def test_tau_must_divide_dt(self, quiet_config):
        cfg = replace(quiet_config,
                      actuator=replace(quiet_config.actuator, tau=0.0015))
        with pytest.raises(ConfigError):
            run_scenario(cfg, Scenario(duration=1.0))

    def test_noise_sample_time_must_divide_dt(self, noisy_config):
        cfg = replace(noisy_config,
                      noise=replace(noisy_config.noise, sample_time=0.0015))
        with pytest.raises(ConfigError):
            run_scenario(cfg, Scenario(duration=1.0))


class TestWindows:
    """run_scenario advances the loop tau/dt + 1 steps at a time."""

    @pytest.mark.parametrize("tau", [0.0, 0.1, 0.26])
    def test_shorter_runs_are_exact_prefixes(self, tau):
        # 0.05 s and 0.101 s end inside the first windows at tau > 0.
        cfg = LoopConfig(actuator=ActuatorParams(tau=tau))
        full = run_scenario(cfg, Scenario(duration=2.0))
        for duration in (0.05, 0.101, 0.2, 1.0):
            part = run_scenario(cfg, Scenario(duration=duration))
            assert len(part) == round(duration / 0.001) + 1
            for name in TRACE_COLUMNS:
                assert (getattr(part, name).tobytes()
                        == getattr(full, name)[:len(part)].tobytes()), name

    # In the first three runs a PID error goes non-finite later in the
    # window that diverges, so the checks must run in step order to report
    # the divergence; those steps were measured on the per-step loop.  In
    # the last, the plant overflows in the same step as the error.
    @pytest.mark.parametrize("config, duration, step", [
        *(pytest.param(LoopConfig(actuator=ActuatorParams(gain=gain),
                                  compensator=CompensatorParams(a=a)),
                       10.0, step, id=f"{gain}-{a}-{step}")
          for gain, a, step in ((1e6, 11.0, 9244), (5e4, 1e3, 8084),
                                (5e3, 1e300, 106))),
        pytest.param(LoopConfig(
            pid=PidGains(k_p=3143279.220717917, k_d=0),
            actuator=ActuatorParams(gain=4614188.555029062, tau=0.001),
            plant=PitchPlantParams(J_z=1.4568900730998578e-08, lam=0),
            kalman=KalmanParams(enabled=False)), 2.0, 48,
            id="plant-and-error-overflow-together")])
    def test_divergence_is_reported_at_its_step(self, config, duration,
                                                 step):
        with pytest.raises(DivergedError) as excinfo:
            run_scenario(config, Scenario(duration=duration))
        assert excinfo.value.step == step

    @pytest.mark.parametrize("tau", [20.0, 1e300])
    def test_delay_past_the_run_holds_its_preload(self, tau):
        # A 0.5 s run has 501 steps, so a 0.501 s delay line outputs only its
        # preload, and so does any longer one.
        scenario = Scenario(duration=0.5)
        longest = run_scenario(LoopConfig(actuator=ActuatorParams(tau=0.501)),
                               scenario)
        run = run_scenario(LoopConfig(actuator=ActuatorParams(tau=tau)),
                           scenario)
        assert not longest.delta.any()
        for name in TRACE_COLUMNS:
            assert (getattr(run, name).tobytes()
                    == getattr(longest, name).tobytes()), name

    def test_nan_process_noise_is_a_config_error(self):
        with pytest.raises(ConfigError, match="KalmanParams.q_rate"):
            run_scenario(LoopConfig(kalman=KalmanParams(q_rate=float("nan"))),
                         Scenario())


class TestAbPair:
    def test_identical_during_delay_hold(self, ab_traces):
        trace_a, trace_b = ab_traces
        hold = trace_a.t < 0.1
        assert np.array_equal(trace_a.omega[hold], trace_b.omega[hold])

    def test_b_improves_rise_and_settle(self, ab_metrics):
        m_a, m_b = ab_metrics
        assert m_b.t_r < m_a.t_r
        assert m_b.t_s < m_a.t_s

    def test_unity_compensator_is_identity(self, quiet_config):
        cfg = replace(quiet_config,
                      compensator=replace(quiet_config.compensator, a=1.0))
        trace_a, trace_b = run_ab_pair(cfg, Scenario(duration=2.0))
        assert np.max(np.abs(trace_a.omega - trace_b.omega)) < 1e-9

    def test_diverged_leg_is_tagged(self, quiet_config):
        cfg = replace(quiet_config, pid=PidGains(k_p=1e9, k_i=0, k_d=1e9))
        with pytest.raises(DivergedError) as excinfo:
            run_ab_pair(cfg, Scenario(duration=10.0))
        assert excinfo.value.leg == "A"


class TestStabilityProbe:
    def test_delay_free_and_published_delay_stable(self, quiet_config):
        verdicts = dict(stability_probe(quiet_config, Scenario(), [0.0, 0.1]))
        assert verdicts[0.0] is True
        assert verdicts[0.1] is True

    def test_monotone_verdicts(self, probe_verdicts):
        verdicts = probe_verdicts
        seen_unstable = False
        for _, stable in verdicts:
            if not stable:
                seen_unstable = True
            if seen_unstable:
                assert not stable


class TestTraceCsv:
    def test_roundtrip(self, quiet_config, tmp_path):
        trace = run_scenario(quiet_config, Scenario(duration=0.05))
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "t,cmd,omega,omega_dot,omega_meas,omega_filt,error,u_pid,u_lead,delta,d_t"
        back = Trace.from_csv(path)
        assert np.array_equal(back.omega, trace.omega)
        assert np.array_equal(back.delta, trace.delta)


def _repr_csv(columns):
    """The trace CSV written row by row as `repr(float(value))`."""
    lines = [",".join(TRACE_COLUMNS)]
    lines += [",".join(repr(float(v)) for v in row) for row in zip(*columns)]
    return ("\n".join(lines) + "\n").encode()


def _written(columns):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.csv"
        Trace(*columns).to_csv(path)
        return path.read_bytes()


# Where the encoder's notation leaves `repr`'s, or comes closest to it:
# signed zeros, subnormals, non-finite values and both sides of 1e-4 and
# 1e16.
_EDGES = [s * v for v in (0.0, 5e-324, 2.2250738585072014e-308, math.inf,
                          math.nextafter(1e-4, 0.0), 1e-4,
                          math.nextafter(1e-4, 1.0), math.nextafter(1e16, 0.0),
                          1e16, math.nextafter(1e16, math.inf),
                          1.7976931348623157e308)
          for s in (1.0, -1.0)] + [math.nan]


class TestTraceCsvWriter:
    """`Trace.to_csv` writes each value as `repr(float(value))`."""

    @settings(derandomize=True, database=None, deadline=None,
              max_examples=300)
    @given(rows=st.lists(st.lists(st.floats() | st.sampled_from(_EDGES),
                                  min_size=11, max_size=11), max_size=30),
           block=st.integers(1, 8))
    def test_each_line_is_the_repr_of_its_row(self, rows, block):
        columns = np.array(rows, dtype=float).reshape(-1, 11).T
        with mock.patch.object(engine, "_CSV_BLOCK", block):
            assert _written(columns) == _repr_csv(columns)

    @pytest.mark.parametrize("n", [0, 1, engine._CSV_BLOCK - 1,
                                   engine._CSV_BLOCK, engine._CSV_BLOCK + 1,
                                   2 * engine._CSV_BLOCK])
    def test_lengths_at_block_edges(self, n):
        rng = np.random.default_rng(n)
        rows = rng.standard_normal((n, 11)) * 10.0 ** rng.uniform(-6, 18,
                                                                  (n, 11))
        rows.flat[::97] = np.resize(_EDGES, rows.flat[::97].size)
        columns = rows.T
        assert _written(columns) == _repr_csv(columns)

    @pytest.mark.parametrize("kinds", [(np.int64,) * 11, (np.float32,) * 11,
                                       (np.int64, np.float32, np.int32,
                                        np.float64)],
                             ids=["int64", "float32", "mixed"])
    def test_columns_other_than_float64(self, kinds):
        n = 700
        ints = np.arange(n, dtype=np.int64) * (2**53 + 1) - 2**62
        thirds = np.linspace(-3.0, 3.0, n) / 7.0
        columns = [(ints if np.dtype(kind).kind == "i" else thirds
                    ).astype(kind) for kind in kinds]
        columns += [np.full(n, 0.1)] * (11 - len(columns))
        assert _written(columns) == _repr_csv(columns)


def _read_back(data):
    """`Trace.from_csv` of a file holding `data`, as an (n, 11) array."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.csv"
        path.write_bytes(data)
        trace = Trace.from_csv(path)
        return np.column_stack([getattr(trace, name)
                                for name in TRACE_COLUMNS])


def _loadtxt(body):
    """`np.loadtxt`'s (n, 11) array for a trace body, or None where the
    reader must reject it."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)   # no data
            data = np.loadtxt(io.TextIOWrapper(io.BytesIO(body),
                                               encoding="utf-8"),
                              delimiter=",", ndmin=2)
    except ValueError:
        return None
    return data if len(data) and data.shape[1] == 11 else None


def _bits(array):
    """The float64 bit patterns of `array`, every nan made the same."""
    return np.where(np.isnan(array), np.nan, array).view(np.int64)


_HEADER = engine._CSV_HEADER + b"\n"
# Fields where JSON's grammar and `np.loadtxt`'s part, or come close.
_ODD_FIELDS = ["-0", "0", "+1", "1.", ".5", "01", "1E5", "1e400", "-1e400",
               "1e-400", "-1e-400", "inf", "-inf", "nan", " 1.0", "1.0 ",
               "true", "null", '"1.5"', "", "-", "1e+16", "1e-05", "-0.0",
               "-0e0", "9007199254740993", "18446744073709551615",
               "123456789012345678901234567890", "2.2250738585072011e-308"]
# Finite fields: below 1e16, where `repr` writes no "+", or of any size.
_plain_fields = [st.floats(-1e16, 1e16, exclude_min=True, exclude_max=True
                           ).map(repr),
                 st.floats(allow_nan=False, allow_infinity=False).map(repr)
                 | st.integers(-2**70, 2**70).map(str)]
# More than one read block of writer rows, for bodies whose only odd field
# is in the last block.
_LONG_BODY = "".join(
    ",".join(map(repr, row)) + "\n"
    for row in np.random.default_rng(7).standard_normal((
        2 * engine._CSV_READ // 200, 11)).tolist()).encode()


def _assert_read_like_loadtxt(body):
    """`Trace.from_csv` of the header and `body` gives `np.loadtxt`'s bits,
    or both reject it."""
    expected = _loadtxt(body)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        if expected is None:
            with pytest.raises(ConfigError):
                _read_back(_HEADER + body)
        else:
            assert np.array_equal(_read_back(_HEADER + body).view(np.int64),
                                  expected.view(np.int64))


@st.composite
def _bodies(draw):
    """Trace bodies of rows of plain numbers, most of 11 fields and in
    three bodies of four below 1e16, with up to two odd fields, blank or
    comment lines, CRLF line ends, a missing last newline, a byte that is
    not UTF-8 and a long clean prefix mixed in."""
    width = draw(st.sampled_from([11, 11, 11, 11, 1, None]))
    plain = _plain_fields[draw(st.integers(0, 3)) // 3]
    rows = draw(st.lists(
        st.lists(plain, min_size=width or 0, max_size=width or 13),
        max_size=12))
    for row, odd in draw(st.lists(st.tuples(st.integers(0, 11 * 12),
                                            st.sampled_from(_ODD_FIELDS)),
                                  max_size=2)):
        if rows and rows[row % len(rows)]:
            cells = rows[row % len(rows)]
            cells[row % len(cells)] = odd
    lines = [",".join(row) for row in rows]
    if draw(st.integers(0, 3)) == 0:
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(["", "# note", "#1,2"])))
    newline = draw(st.sampled_from(["\n"] * 4 + ["\r\n"]))
    body = (newline.join(lines) + draw(st.sampled_from([newline, ""]))
            ).encode()
    if draw(st.integers(0, 19)) == 0:
        at = draw(st.integers(0, len(body)))
        body = body[:at] + b"\xff" + body[at:]
    return (_LONG_BODY if draw(st.booleans()) else b"") + body


class TestTraceCsvReader:
    """`Trace.from_csv` reads what `np.loadtxt` reads, bit for bit."""

    @settings(derandomize=True, database=None, deadline=None,
              max_examples=400)
    @given(body=_bodies())
    def test_same_bits_or_same_rejection_as_loadtxt(self, body):
        _assert_read_like_loadtxt(body)

    @pytest.mark.parametrize("where", ["first-field", "last-field",
                                       "end-of-file", "last-block"])
    @pytest.mark.parametrize("odd", _ODD_FIELDS,
                             ids=[repr(f) for f in _ODD_FIELDS])
    def test_one_odd_field(self, odd, where):
        row = [odd] + ["0.5"] * 10
        if where in ("last-field", "end-of-file"):
            row.reverse()
        body = ",".join(row) + ("" if where == "end-of-file" else "\n")
        _assert_read_like_loadtxt(
            (_LONG_BODY if where == "last-block" else b"") + body.encode())

    @pytest.mark.parametrize("lines", [1, 2])
    def test_line_longer_than_a_block(self, lines):
        # 0.5 with more digits than a block holds, on one line or two.
        row = ",".join(["0." + "5" * engine._CSV_READ] + ["0.5"] * 10)
        _assert_read_like_loadtxt(_LONG_BODY + "\n".join([row] * lines)
                                  .encode())

    def test_line_longer_than_a_block_never_reaches_loadtxt(self):
        # The line carries into the next read instead of sending the whole
        # file to `np.loadtxt`.
        body = _LONG_BODY + ",".join(["0." + "5" * engine._CSV_READ]
                                     + ["0.5"] * 10).encode()
        expected = _loadtxt(body)
        with mock.patch.object(np, "loadtxt",
                               side_effect=AssertionError("np.loadtxt")):
            back = _read_back(_HEADER + body)
        assert np.array_equal(back.view(np.int64), expected.view(np.int64))

    @settings(derandomize=True, database=None, deadline=None,
              max_examples=200)
    @given(rows=st.lists(st.lists(st.floats() | st.sampled_from(_EDGES),
                                  min_size=11, max_size=11), min_size=1,
                         max_size=30))
    def test_written_rows_read_back(self, rows):
        columns = np.array(rows, dtype=float).reshape(-1, 11).T
        assert np.array_equal(_bits(_read_back(_written(columns))),
                              _bits(columns.T))

    @pytest.fixture(scope="class")
    def noisy_b(self):
        """Leg B of the default (noisy) `ab` experiment."""
        return run_ab_pair(LoopConfig(), Scenario())[1]

    @pytest.mark.parametrize("case", ["noisy", "first-600-rows",
                                      "noise-free"])
    def test_writer_files_never_reach_loadtxt(self, case, noisy_b,
                                              quiet_config, tmp_path):
        trace = {"noisy": noisy_b,
                 "first-600-rows": Trace(*(getattr(noisy_b, name)[:600]
                                           for name in TRACE_COLUMNS)),
                 "noise-free": run_scenario(quiet_config, Scenario())}[case]
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        with mock.patch.object(np, "loadtxt",
                               side_effect=AssertionError("np.loadtxt")):
            back = Trace.from_csv(path)
        for name in TRACE_COLUMNS:
            assert np.array_equal(getattr(back, name).view(np.int64),
                                  getattr(trace, name).view(np.int64)), name

    def test_peak_memory_is_a_small_multiple_of_the_trace(self, noisy_b,
                                                          tmp_path):
        path = tmp_path / "trace.csv"
        noisy_b.to_csv(path)
        tracemalloc.start()
        try:
            back = Trace.from_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Measured on x86-64 with numpy 2.4.6 and orjson 3.8.3: the reader
        # peaks at 1.78 MB, 2.0x the 0.88 MB array (the blocks, then their
        # concatenation); `np.loadtxt` peaks at 1.20 MB, and one
        # `orjson.loads` over the whole file at 9.73 MB (11x).
        assert peak < 3 * len(back) * len(TRACE_COLUMNS) * 8
