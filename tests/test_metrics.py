import math

import numpy as np
import pytest
from scipy.signal import lti

from pitchpilot.engine import TRACE_COLUMNS, Trace
from pitchpilot.errors import DomainError, NoResponseError
from pitchpilot.metrics import (BandSpec, StepMetrics, band_for_step,
                                devaud_report, noise_envelope, step_metrics)


def make_trace(t, omega, cmd=None, error=None):
    t = np.asarray(t, dtype=float)
    omega = np.asarray(omega, dtype=float)
    zeros = np.zeros_like(t)
    fields = {name: zeros for name in TRACE_COLUMNS}
    fields.update(t=t, omega=omega,
                  cmd=cmd if cmd is not None else zeros,
                  error=error if error is not None else zeros)
    return Trace(**fields)


class TestBandForStep:
    def test_published_band(self):
        band = band_for_step(10, 1, 0.05)
        assert band.half_width == 0.45
        assert band.target == 1

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
        m = step_metrics(make_trace(t, y), 0, 1, BandSpec(1.0, 0.05))
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
        band = BandSpec(1.0, 0.45)
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


class TestDevaudReport:
    def make(self, t_r, pct, final):
        return StepMetrics(t_r=t_r, t_r_onset=2 * t_r, t_p=t_r + 0.1,
                           t_s=1.0, m_p=pct / 100, pct_overshoot=pct,
                           final_error=final, req_rise=t_r <= 0.350,
                           req_overshoot=pct <= 20.0,
                           req_accuracy=final <= 0.45)

    def test_system_b_pattern(self):
        report = devaud_report(self.make(0.28, 370.0, 0.01))
        lines = report.splitlines()
        assert len(lines) == 3
        assert lines[0].endswith("pass")
        assert lines[1].endswith("fail")
        assert lines[2].endswith("pass")

    def test_marginal_rise_fails(self):
        report = devaud_report(self.make(0.355, 790.0, 0.01))
        assert report.splitlines()[0].endswith("fail")

    def test_perfect_response(self):
        report = devaud_report(self.make(0.0, 0.0, 0.0))
        assert all(line.endswith("pass") for line in report.splitlines())


class TestNoiseEnvelope:
    def test_noise_free_steady_state(self, ab_traces):
        _, trace_b = ab_traces
        # Without noise the late-window error is only the slow settling
        # tail: an order of magnitude below the noisy envelopes (~0.2 deg).
        mx, mn, var = noise_envelope(trace_b, 7.0)
        assert abs(mx) < 0.01
        assert abs(mn) < 0.01
        assert var < 1e-4

    def test_window_validation(self, ab_traces):
        with pytest.raises(DomainError):
            noise_envelope(ab_traces[0], 20.0)

    def test_simple_window(self):
        t = np.arange(0, 1.01, 0.01)
        err = np.where(t < 0.5, 5.0, np.sin(4 * np.pi * t))
        trace = make_trace(t, np.zeros_like(t), error=err)
        mx, mn, var = noise_envelope(trace, 0.5)
        assert mx == pytest.approx(1.0, abs=1e-2)
        assert mn == pytest.approx(-1.0, abs=1e-2)
        assert 0 < var < 1.0

    def test_variance_past_the_float_range_is_inf(self):
        # Squaring errors of 1e300 overflows: the variance is inf, with no
        # RuntimeWarning (an error under the pytest filter).
        t = np.arange(0, 1.01, 0.01)
        trace = make_trace(t, np.zeros_like(t),
                           error=1e300 * np.sin(4 * np.pi * t))
        mx, mn, var = noise_envelope(trace, 0.5)
        assert mx == pytest.approx(1e300, rel=1e-2)
        assert mn == pytest.approx(-1e300, rel=1e-2)
        assert var == math.inf
