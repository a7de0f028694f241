"""End-to-end acceptance checks against the published measurements."""

import math

import numpy as np
import pytest

from pitchpilot.aero import (AeroDerivatives, MissileConfig, TailSizingInputs,
                             check_control_margin, static_margin, tail_area,
                             tail_area_ratio)
from pitchpilot.blocks import Actuator, ActuatorParams, CompensatorParams, \
    Kalman, KalmanParams, Lead, PitchPlantParams
from pitchpilot.engine import Scenario, run_scenario
from pitchpilot.metrics import band_for_step, noise_envelope, step_metrics
from pitchpilot.tuner import SweepSpec, sweep

TABLE_TARGETS = [
    # (system, metric, target, relative tolerance)
    ("A", "t_r", 0.355, 0.20),
    ("A", "t_p", 0.660, 0.20),
    ("A", "t_s", 2.780, 0.20),
    ("A", "m_p", 7.9, 0.25),
    ("B", "t_r", 0.280, 0.20),
    ("B", "t_p", 0.430, 0.20),
    ("B", "t_s", 2.500, 0.20),
    ("B", "m_p", 3.7, 0.25),
    ("B", "pct_overshoot", 370.0, 0.25),
]


class TestCriterion1TableReproduction:
    @pytest.mark.parametrize("system,metric,target,rel", TABLE_TARGETS,
                             ids=[f"{s}-{m}" for s, m, _, _ in TABLE_TARGETS])
    def test_published_measurement(self, ab_metrics, system, metric, target,
                                   rel):
        m = ab_metrics[0 if system == "A" else 1]
        value = getattr(m, metric)
        assert value == pytest.approx(target, rel=rel)


class TestCriterion2OrdinalImprovement:
    def test_b_strictly_better(self, ab_metrics):
        m_a, m_b = ab_metrics
        assert m_b.t_r < m_a.t_r
        assert m_b.t_s < m_a.t_s
        assert m_b.m_p < m_a.m_p

    def test_rise_improvement_window(self, ab_metrics):
        m_a, m_b = ab_metrics
        improvement = 100.0 * (m_a.t_r - m_b.t_r) / m_a.t_r
        assert 10.0 <= improvement <= 35.0

    def test_settle_improvement_window(self, ab_metrics):
        m_a, m_b = ab_metrics
        improvement = 100.0 * (m_a.t_s - m_b.t_s) / m_a.t_s
        assert 3.0 <= improvement <= 20.0


class TestCriterion3DelayHold:
    def test_noise_free_traces_hold_exactly(self, ab_traces):
        for trace in ab_traces:
            assert np.all(trace.omega[trace.t < 0.1] == 10.0)

    def test_noisy_trace_holds_exactly(self, noisy_config):
        trace = run_scenario(noisy_config, Scenario(seed=0))
        assert np.all(trace.omega[trace.t < 0.1] == 10.0)


class TestCriterion4DevaudVerdicts:
    def test_system_b_pattern(self, ab_metrics):
        _, m_b = ab_metrics
        assert m_b.req_rise          # t_r <= 350 ms
        assert not m_b.req_overshoot  # %M_p far above 20%
        assert m_b.req_accuracy      # steady error <= 5% of step


class TestCriterion5ToleranceBand:
    def test_published_band_is_exact(self):
        assert band_for_step(10, 1, 0.05).half_width == 0.45


class TestCriterion6StabilityProbe:
    def test_stable_at_published_delay(self, probe_verdicts):
        verdicts = dict(probe_verdicts)
        assert verdicts[0.1] is True

    def test_finite_destabilising_delay_found(self, probe_verdicts):
        unstable = [delay for delay, stable in probe_verdicts if not stable]
        assert unstable
        assert min(unstable) >= 0.1


class TestCriterion7NoiseAmplification:
    def test_b_envelope_dominates_every_seed(self, noise_pairs):
        for seed, (trace_a, trace_b) in noise_pairs.items():
            env_a = noise_envelope(trace_a, 5.0)
            env_b = noise_envelope(trace_b, 5.0)
            assert env_b[0] > env_a[0] and abs(env_b[1]) > abs(env_a[1]), \
                f"seed {seed}: B envelope {env_b[:2]} vs A {env_a[:2]}"

    def test_b_envelope_bracket(self, noise_pairs):
        hits = 0
        for trace_a, trace_b in noise_pairs.values():
            mx, mn, _ = noise_envelope(trace_b, 5.0)
            if 0.08 <= mx <= 0.35 and 0.10 <= abs(mn) <= 0.40:
                hits += 1
        assert hits >= 8


class TestCriterion8Sizing:
    def test_tail_ratio_and_area(self):
        inputs = TailSizingInputs()
        ratio = tail_area_ratio(inputs)
        assert ratio == pytest.approx(-2.754, rel=0.005)
        assert tail_area(inputs) == pytest.approx(0.0865, rel=0.005)

    def test_static_margin_exact_arithmetic(self):
        cfg = MissileConfig()
        assert static_margin(cfg.X_AC, cfg.X_CG, cfg.l_M) == \
            (3.15 - 2.5) / 5.2
        assert static_margin(cfg.X_AC, cfg.X_CG, cfg.l_M) * 100 == \
            pytest.approx(12.5)

    def test_control_margin(self):
        assert check_control_margin(-0.300, 0.267)


class TestCriterion9OracleEquivalence:
    def test_actuator_peak_matches_closed_form(self):
        params = ActuatorParams()
        act = Actuator(params, dt=0.001)
        ys = np.array([act.step(1.0) for _ in range(1000)])
        t = np.arange(1, 1001) * 0.001
        zeta = params.mu
        peak = params.gain * (1 + math.exp(-math.pi * zeta
                                           / math.sqrt(1 - zeta ** 2)))
        t_peak = params.tau + math.pi / (params.wn * math.sqrt(1 - zeta ** 2))
        assert peak == pytest.approx(8.141, abs=0.001)
        assert t_peak == pytest.approx(0.1726, abs=0.0001)
        assert ys.max() == pytest.approx(peak, rel=0.005)
        assert t[ys.argmax()] == pytest.approx(t_peak, rel=0.005)

    def test_lead_geometric_mean_gain(self):
        params = CompensatorParams()
        lead = Lead(params, dt=0.001)
        w = 1.0 / (params.T * math.sqrt(params.a))
        assert abs(lead.freq_response(w)) == \
            pytest.approx(math.sqrt(params.a), rel=0.005)

    def test_kalman_gain_matches_riccati_fixed_point(self):
        dt = 0.001
        params = KalmanParams()
        kal = Kalman(params, PitchPlantParams(), dt=dt)
        for _ in range(20000):
            kal.step(0.0, 0.0)
        p01f = kal.p01 + kal.f01 * kal.p11
        p00_pred = kal.p00 + kal.f01 * kal.p01 + kal.f01 * p01f + kal.q00
        gain_filter = p00_pred / (p00_pred + params.r)

        F = np.array([[1.0, kal.f01], [0.0, kal.f11]])
        Q = np.diag([params.q_omega, params.q_rate]) * dt
        H = np.array([[1.0, 0.0]])
        P = np.eye(2)
        for _ in range(20000):
            Pp = F @ P @ F.T + Q
            K = Pp @ H.T / (H @ Pp @ H.T + params.r)
            P = (np.eye(2) - K @ H) @ Pp
        assert gain_filter == pytest.approx(float(K[0, 0]), abs=1e-6)


class TestCriterion10GainSweep:
    def test_winner_near_published_gain(self, quiet_config, scenario):
        spec = SweepSpec(path="actuator.gain",
                         values=tuple(float(g) for g in range(1, 16)),
                         scenario=scenario, config=quiet_config)
        rows = sweep(spec)
        winner = min(rows, key=lambda row: row[2])[0]
        assert winner in {5.0, 6.0, 7.0, 8.0, 9.0}


class TestCriterion11NumericalHygiene:
    def test_halving_dt_perturbs_metrics_under_two_percent(self, quiet_config,
                                                           scenario):
        band = band_for_step(scenario.initial, scenario.command, 0.05)
        metrics = []
        for dt in (0.001, 0.0005):
            trace = run_scenario(quiet_config,
                                 Scenario(duration=scenario.duration, dt=dt))
            metrics.append(step_metrics(trace, scenario.initial,
                                        scenario.command, band))
        coarse, fine = metrics
        for name in ("t_r", "t_p", "t_s", "m_p"):
            a, b = getattr(coarse, name), getattr(fine, name)
            assert abs(a - b) <= 0.02 * abs(b)

    def test_identical_seeds_give_byte_identical_csvs(self, noisy_config,
                                                      tmp_path):
        paths = []
        for name in ("first", "second"):
            trace = run_scenario(noisy_config, Scenario(seed=11, duration=3.0))
            path = tmp_path / f"{name}.csv"
            trace.to_csv(path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()
