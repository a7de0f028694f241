import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.signal import lti

from pitchpilot.engine import TRACE_COLUMNS, Trace
from pitchpilot.errors import DomainError, NoResponseError
from pitchpilot.metrics import (BandSpec, StepMetrics, StepTracker,
                                band_for_step, noise_envelope, step_metrics,
                                step_report)


def make_trace(t, omega, cmd=None, error=None):
    rows = np.zeros((len(t), len(TRACE_COLUMNS)))
    for name, column in dict(t=t, omega=omega, cmd=cmd, error=error).items():
        if column is not None:
            rows[:, TRACE_COLUMNS.index(name)] = column
    return Trace(rows)


class TestBandForStep:
    def test_published_band(self):
        band = band_for_step(10, 1, 0.05)
        assert band.half_width == 0.45

    def test_unit_step(self):
        assert band_for_step(1, 0, 0.05).half_width == pytest.approx(0.05)

    def test_direct_arithmetic(self):
        assert band_for_step(0, 20, 0.10).half_width == pytest.approx(2.0)

    def test_degenerate_step(self):
        with pytest.raises(DomainError):
            band_for_step(5, 5, 0.05)
        with pytest.raises(DomainError):
            band_for_step(10, 1, 0.0)


class TestStepMetrics:
    def test_already_settled(self):
        t = np.linspace(0, 1, 101)
        trace = make_trace(t, np.full_like(t, 1.0))
        m = step_metrics(trace, 10, 1, band_for_step(10, 1, 0.05))
        assert m.m_p == 0.0
        assert m.t_s == 0.0
        assert m.t_r == 0.0
        assert m.t_r_onset == 0.0
        assert m.req_accuracy

    def test_analytic_second_order(self):
        # Dense-integration oracle: unit step of wn=50, mu=0.5.
        wn, mu = 50.0, 0.5
        system = lti([wn ** 2], [1, 2 * mu * wn, wn ** 2])
        t = np.arange(0, 0.5, 1e-5)
        t, y = system.step(T=t)
        m = step_metrics(make_trace(t, y), 0, 1, BandSpec(0.05))
        assert m.pct_overshoot == pytest.approx(16.30, abs=0.05)
        assert m.t_p == pytest.approx(0.07255, abs=2e-4)
        # Onset rise (0 -> 100%): (pi - arccos mu) / wd.
        wd = wn * math.sqrt(1 - mu ** 2)
        assert (math.pi - math.acos(mu)) / wd == pytest.approx(0.04837,
                                                               abs=1e-5)
        assert m.t_r_onset == pytest.approx((math.pi - math.acos(mu)) / wd,
                                            abs=1e-6)

    def test_system_b_shape(self, ab_metrics):
        _, m_b = ab_metrics
        assert m_b.t_r < m_b.t_p
        assert m_b.pct_overshoot == pytest.approx(100 * m_b.m_p / 1.0)

    def test_time_shift_invariance(self, ab_traces):
        trace = ab_traces[1]
        shifted = make_trace(trace.t + 3.0, trace.omega)
        m0 = step_metrics(trace, 10, 1, band_for_step(10, 1, 0.05))
        m1 = step_metrics(shifted, 10, 1, band_for_step(10, 1, 0.05))
        assert m1.t_r == pytest.approx(m0.t_r, rel=1e-12)
        assert m1.t_r_onset == pytest.approx(m0.t_r_onset, rel=1e-12)
        assert m1.t_p == pytest.approx(m0.t_p + 3.0, rel=1e-12)
        assert m1.t_s == pytest.approx(m0.t_s + 3.0, rel=1e-12)
        assert m1.m_p == m0.m_p

    def test_amplitude_scaling(self, ab_traces):
        trace = ab_traces[1]
        scale = 2.5
        scaled = make_trace(trace.t, trace.omega * scale)
        m0 = step_metrics(trace, 10, 1, band_for_step(10, 1, 0.05))
        m1 = step_metrics(scaled, 10 * scale, scale,
                          band_for_step(10 * scale, scale, 0.05))
        assert m1.t_r == pytest.approx(m0.t_r, rel=1e-9)
        assert m1.t_p == m0.t_p
        assert m1.t_s == pytest.approx(m0.t_s, rel=1e-9)
        assert m1.m_p == pytest.approx(m0.m_p * scale, rel=1e-9)
        assert m1.pct_overshoot == pytest.approx(m0.pct_overshoot, rel=1e-9)

    def test_settling_is_last_entry_never_left(self):
        t = np.arange(0, 6.0, 0.01)
        y = 1.0 + 2.0 * np.exp(-t) * np.cos(4 * t)
        trace = make_trace(t, y)
        band = BandSpec(0.45)
        m = step_metrics(trace, 3.0, 1.0, band)
        inside = np.abs(y - 1.0) <= 0.45
        last_outside = np.nonzero(~inside)[0][-1]
        assert t[last_outside] <= m.t_s <= t[last_outside + 1]
        assert np.all(inside[last_outside + 1:])

    def test_target_never_crossed(self):
        t = np.linspace(0, 1, 101)
        y = 1.0 + 9.0 * np.exp(-5.0 * t)   # approaches the target from above
        m = step_metrics(make_trace(t, y), 10, 1, band_for_step(10, 1, 0.05))
        assert m.t_r_onset == math.inf
        assert m.t_s is not None

    def test_never_settles(self):
        t = np.linspace(0, 1, 101)
        y = 10 - 12 * t   # ends far below the band
        m = step_metrics(make_trace(t, y), 10, 1, band_for_step(10, 1, 0.05))
        assert m.t_s is None

    def test_no_response(self):
        t = np.linspace(0, 1, 101)
        trace = make_trace(t, np.full_like(t, 10.0))
        with pytest.raises(NoResponseError):
            step_metrics(trace, 10, 1, band_for_step(10, 1, 0.05))

    def test_empty_trace(self):
        # `Trace` refuses a table without rows, so none reaches the metrics.
        with pytest.raises(ValueError, match=r"shape \(0, 11\).*at least"
                                             " one row of 11 values"):
            Trace(np.empty((0, len(TRACE_COLUMNS))))


# The vectorised `step_metrics` that `StepTracker` replaced, kept as the
# reference: a rising and a falling branch over the whole trace, with the
# band centred on the step's target.
def _crossing_time(t, y, level, rising):
    """First time y crosses `level` (interpolated); t[0] if already past."""
    past = y >= level if rising else y <= level
    if past[0]:
        return t[0]
    idx = np.nonzero(past)[0]
    if len(idx) == 0:
        return None
    return _interpolate(t, y, idx[0] - 1, level)


def _interpolate(t, y, i, level):
    """Time at which y reaches `level`, linear between samples i and i+1."""
    y0, y1 = y[i], y[i + 1]
    frac = (level - y0) / (y1 - y0) if y1 != y0 else 1.0
    return t[i] + frac * (t[i + 1] - t[i])


def reference_step_metrics(trace, start, target,
                           band: BandSpec) -> StepMetrics:
    """Measure a start->target step response on the true pitch signal."""
    if start == target:
        raise DomainError("degenerate step: start equals target")
    t = np.asarray(trace.t, dtype=float)
    y = np.asarray(trace.omega, dtype=float)
    span = target - start
    rising = span > 0

    t10 = _crossing_time(t, y, start + 0.1 * span, rising)
    if t10 is None:
        raise NoResponseError("trace never crossed the 10% threshold")
    t90 = _crossing_time(t, y, start + 0.9 * span, rising)
    t_r = (t90 - t10) if t90 is not None else float("inf")
    t100 = _crossing_time(t, y, target, rising)
    t_r_onset = (t100 - t[0]) if t100 is not None else float("inf")

    # Excursion beyond the target in the direction of travel.
    direction = 1.0 if rising else -1.0
    excursion = (y - target) * direction
    i_peak = int(np.argmax(excursion))
    m_p = max(float(excursion[i_peak]), 0.0)
    t_p = float(t[i_peak])

    inside = np.abs(y - target) <= band.half_width
    outside = np.nonzero(~inside)[0]
    if len(outside) == 0:
        t_s = float(t[0])
    elif outside[-1] + 1 >= len(y):
        t_s = None
    else:
        j = outside[-1]
        edge = target + band.half_width * np.sign(y[j] - target)
        t_s = float(_interpolate(t, y, j, edge))

    pct = 100.0 * m_p / abs(target) if target != 0 else float("nan")
    final_error = abs(float(y[-1]) - target)

    return StepMetrics(
        t_r=float(t_r),
        t_r_onset=float(t_r_onset),
        t_p=t_p,
        t_s=t_s,
        m_p=m_p,
        pct_overshoot=pct,
        final_error=final_error,
        req_rise=t_r <= 0.350,
        req_overshoot=pct <= 20.0,
        req_accuracy=final_error <= 0.05 * abs(span),
    )


finite = st.floats(allow_nan=False, allow_infinity=False)
non_finite = st.sampled_from([math.nan, math.inf, -math.inf])
ends = st.integers(-20, 20).map(float) | finite


@st.composite
def step_traces(draw):
    """(t, omega, start, target, band): a rising or falling step whose pitch
    is flat stretches of levels, band edges, values in between, any floats
    and non-finite values, on a time grid with any values dropped in."""
    start = draw(ends)
    target = draw(ends.filter(lambda x: x != start))
    span = target - start
    half_width = draw(st.floats(1e-3, 1e3) | finite.map(abs).filter(bool))
    band = BandSpec(half_width)
    marks = [start, start + 0.1 * span, start + 0.9 * span, target,
             target - half_width, target + half_width]
    value = (st.sampled_from(marks) | st.floats(-0.5, 1.5).map(
        lambda u: start + u * span) | finite | non_finite)
    omega = []
    for v, repeat in draw(st.lists(st.tuples(value, st.integers(1, 4)),
                                   min_size=1, max_size=12)):
        omega += [v] * repeat
    t = np.arange(len(omega)) * 0.01
    for i, v in draw(st.lists(st.tuples(st.integers(0, len(t) - 1),
                                        finite | non_finite), max_size=3)):
        t[i] = v
    return t, np.array(omega), start, target, band


def _outcome(measure, *args):
    """The fields of the StepMetrics `measure` returns, or the type and
    message of what it raises (a warning is an error under the suite's
    filter)."""
    try:
        return astuple(measure(*args))
    except Exception as exc:
        return type(exc), str(exc)


def _same(a, b):
    """Equal outcomes, NaN matching NaN."""
    return len(a) == len(b) and all(x == y or (x != x and y != y)
                                    for x, y in zip(a, b))


class TestStepTracker:
    @settings(derandomize=True, database=None, deadline=None,
              max_examples=300)
    @given(step=step_traces())
    # t10 = t90 = t[0] = inf: the rise (inf - inf) warns before the onset's
    # interpolation (inf + -inf) would.
    @example(step=(np.array([math.inf, 0.01]), np.array([0.95, 1.2]), 0.0,
                   1.0, BandSpec(0.05)))
    # No response, so no excursion is taken, whose -1e308 - 1e308 would
    # overflow.
    @example(step=(np.array([0.0, 0.01]), np.array([-1e308, 0.0]), 0.0,
                   1e308, BandSpec(1.0)))
    # A NaN pitch is the peak: M_p is NaN at the first NaN row, rising and
    # falling.
    @example(step=(np.arange(6) * 0.1, np.array([0, 0.5, math.nan, 1.2,
                                                  math.nan, 1]), 0.0, 1.0,
                   BandSpec(0.05)))
    @example(step=(np.arange(6) * 0.1, -np.array([0, 0.5, math.nan, 1.2,
                                                   math.nan, 1]), 0.0, -1.0,
                   BandSpec(0.05)))
    def test_same_as_the_vectorised_reference(self, step):
        t, omega, start, target, band = step
        trace = make_trace(t, omega)
        expected = _outcome(reference_step_metrics, trace, start, target,
                            band)
        assert _same(_outcome(step_metrics, trace, start, target, band),
                     expected)

    @settings(derandomize=True, database=None, deadline=None,
              max_examples=200)
    @given(step=step_traces(), cuts=st.lists(st.integers(0, 60),
                                              max_size=6))
    def test_any_split_gives_the_same_metrics(self, step, cuts):
        # Every Scenario's step is finite (`Scenario` rejects one that
        # overflows); with an infinite span the 10 % level is infinite
        # and lies past the target.
        t, y, start, target, band = step
        assume(math.isfinite(target - start))

        def batched():
            tracker = StepTracker(start, target, band)
            for k1 in sorted(min(cut, len(y)) for cut in cuts):
                tracker.update(t, y, k1)
            return tracker.metrics(t, y)

        # Non-finite rows warn in whichever batch holds them.
        with np.errstate(all="ignore"):
            whole = _outcome(step_metrics, make_trace(t, y), start, target,
                             band)
            assert _same(_outcome(batched), whole)

    def test_degenerate_step_rejected(self):
        with pytest.raises(DomainError, match="degenerate step"):
            StepTracker(10.0, 10.0, BandSpec(0.5))


class TestDevaudReport:
    """The verdict lines, the last three of `step_report`'s block."""

    def make(self, t_r, pct, final):
        return StepMetrics(t_r=t_r, t_r_onset=2 * t_r, t_p=t_r + 0.1,
                           t_s=1.0, m_p=pct / 100, pct_overshoot=pct,
                           final_error=final, req_rise=t_r <= 0.350,
                           req_overshoot=pct <= 20.0,
                           req_accuracy=final <= 0.45)

    def verdicts(self, m):
        return step_report(m).splitlines()[-3:]

    def test_system_b_pattern(self):
        lines = self.verdicts(self.make(0.28, 370.0, 0.01))
        assert [line[:3] for line in lines] == ["(1)", "(2)", "(3)"]
        assert lines[0].endswith("pass")
        assert lines[1].endswith("fail")
        assert lines[2].endswith("pass")

    def test_marginal_rise_fails(self):
        assert self.verdicts(self.make(0.355, 790.0, 0.01))[0].endswith(
            "fail")

    def test_perfect_response(self):
        assert all(line.endswith("pass")
                   for line in self.verdicts(self.make(0.0, 0.0, 0.0)))


class TestRequirementLimits:
    """Each limit passes when met exactly and fails one float above it."""

    def test_rise_time_of_350_ms(self):
        # t10 is the first sample and t90 the second, so t_r is t[1].
        for t1, verdict in ((0.35, True),
                            (math.nextafter(0.35, math.inf), False)):
            m = step_metrics(make_trace([0.0, t1], [0.1, 0.9]), 0.0, 1.0,
                             BandSpec(0.05))
            assert m.t_r == t1
            assert m.req_rise is verdict

    def test_overshoot_of_20_percent(self):
        # 100 * (6 - 5) / 5 is 20 exactly; 100 * (3.6 - 3) / 3 rounds to
        # the next float above 20.
        for target, peak, pct, verdict in (
                (5.0, 6.0, 20.0, True),
                (3.0, 3.6, math.nextafter(20.0, math.inf), False)):
            m = step_metrics(make_trace([0.0, 0.1, 0.2], [0.0, peak, target]),
                             0.0, target, BandSpec(0.05))
            assert m.pct_overshoot == pct
            assert m.req_overshoot is verdict

    def test_final_error_of_5_percent_of_the_step(self):
        # A unit step from -1 to 0 whose final error is the last pitch.
        for error, verdict in ((0.05, True),
                               (math.nextafter(0.05, math.inf), False)):
            m = step_metrics(make_trace([0.0, 0.1], [-1.0, -error]), -1.0,
                             0.0, BandSpec(0.05))
            assert m.final_error == error
            assert m.req_accuracy is verdict

    def test_printed_limits(self):
        # Rise 350 ms, overshoot 20 %, final error 0.1 of a unit step.
        m = step_metrics(make_trace([0.0, 0.35, 0.4, 0.5],
                                    [0.1, 0.9, 1.2, 1.1]), 0.0, 1.0,
                         BandSpec(0.05))
        assert step_report(m).splitlines()[-3:] == [
            "(1) rise time 350 ms <= 350 ms: pass",
            "(2) overshoot 20% <= 20%: pass",
            "(3) steady-state error 0.100 deg <= 5% of step: fail"]


class TestNoiseEnvelope:
    def test_noise_free_steady_state(self, ab_traces):
        _, trace_b = ab_traces
        # Without noise the late-window error is only the slow settling
        # tail: an order of magnitude below the noisy envelopes (~0.2 deg).
        mx, mn = noise_envelope(trace_b, 7.0)
        assert abs(mx) < 0.01
        assert abs(mn) < 0.01

    def test_window_validation(self, ab_traces):
        with pytest.raises(DomainError):
            noise_envelope(ab_traces[0], 20.0)

    def test_simple_window(self):
        t = np.arange(0, 1.01, 0.01)
        err = np.where(t < 0.5, 5.0, np.sin(4 * np.pi * t))
        trace = make_trace(t, np.zeros_like(t), error=err)
        mx, mn = noise_envelope(trace, 0.5)
        assert mx == pytest.approx(1.0, abs=1e-2)
        assert mn == pytest.approx(-1.0, abs=1e-2)

    def test_errors_near_the_float_range(self):
        # Errors of 1e300 come back as they are, with no RuntimeWarning (an
        # error under the pytest filter).
        t = np.arange(0, 1.01, 0.01)
        trace = make_trace(t, np.zeros_like(t),
                           error=1e300 * np.sin(4 * np.pi * t))
        mx, mn = noise_envelope(trace, 0.5)
        assert mx == pytest.approx(1e300, rel=1e-2)
        assert mn == pytest.approx(-1e300, rel=1e-2)
