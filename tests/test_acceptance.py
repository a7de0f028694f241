"""End-to-end acceptance checks against the published measurements."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import solve_discrete_are, solve_discrete_lyapunov
from scipy.signal import cont2discrete

from pitchpilot.aero import (AeroDerivatives, MissileConfig, TailSizingInputs,
                             check_control_margin, sizing_report,
                             static_margin, tail_area_ratio)
from pitchpilot.blocks import Actuator, ActuatorParams, CompensatorParams, \
    DisturbanceParams, GainSchedule, Kalman, KalmanParams, Lead, \
    PitchPlantParams, plant_step
from pitchpilot.engine import Scenario, run_scenario
from pitchpilot.metrics import band_for_step, noise_envelope, step_metrics
from pitchpilot.tuner import SweepSpec, sweep

# The rise rows read the onset rise `t_r_onset` (step onset to the first
# crossing of the target), the convention the published numbers were taken
# in.  This rests on the paper's own numbers: fit a delayed second-order
# response to the published peak rows and the 100 ms delay.  The overshoot
# M_p / 9 deg gives zeta = 0.041 (A) and 0.272 (B), and t_p - 0.1 s gives
# omega_d = 5.61 and 9.52 rad/s.  That response rises from onset in
# 0.1 s + (pi - arccos zeta) / omega_d = 0.387 s (A) and 0.294 s (B), +9% and
# +5% from the published 0.355 s and 0.280 s; from 10% to 90% it rises in
# 0.188 s and 0.130 s, -47% and -54%.  The 10-90% `t_r` stays the rise that
# requirement (1), the tuner and the CLI reports use.
TABLE_TARGETS = [
    # (system, published row, StepMetrics field, target, relative tolerance)
    ("A", "t_r", "t_r_onset", 0.355, 0.20),
    ("A", "t_p", "t_p", 0.660, 0.20),
    ("A", "t_s", "t_s", 2.780, 0.20),
    ("A", "m_p", "m_p", 7.9, 0.25),
    ("B", "t_r", "t_r_onset", 0.280, 0.20),
    ("B", "t_p", "t_p", 0.430, 0.20),
    ("B", "t_s", "t_s", 2.500, 0.20),
    ("B", "m_p", "m_p", 3.7, 0.25),
    ("B", "pct_overshoot", "pct_overshoot", 370.0, 0.25),
]


class TestCriterion1TableReproduction:
    @pytest.mark.parametrize("system,row,field,target,rel", TABLE_TARGETS,
                             ids=[f"{s}-{r}" for s, r, *_ in TABLE_TARGETS])
    def test_published_measurement(self, ab_metrics, system, row, field,
                                   target, rel):
        """Each published row, measured under the convention it was taken in.

        The settling rows A-t_s and B-t_s fail, cause open: with the
        published 5% band (+/-0.45 deg) A settles in 1.92 s and B in 1.54 s
        against 2.78 s and 2.50 s, and a 2% band gives A 2.69 s and B
        1.78 s.  The disturbance moves neither by more than 5 ms.  The peak
        and rise rows agree, so the gap is in the slow tail after the peak.
        That tail is not the integral action's: noise-free, without the
        disturbance and with the +/-0.45 deg band, k_i = 23.4, 11.7 and 0
        settle A in 1.921, 1.968 and 1.952 s and B in 1.543, 1.497 and
        1.361 s (ROADMAP item 10 gives the table).  The paper does not say
        what tail it had.
        """
        m = ab_metrics[0 if system == "A" else 1]
        value = getattr(m, field)
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


def _window(trace, signal, start=5.0):
    """`signal` of the trace over [start, end]."""
    return getattr(trace, signal)[trace.t >= start]


def _stationary_noise_variances(config, dt):
    """Stationary (loop error, delta) variances of the linearised loop.

    An independent oracle built from the parameter dataclasses alone, with
    no block's `step`: the PID with trapezoidal integral and filtered
    derivative written from its definition, the bilinear map of the lead
    (a·T·s + 1)/(T·s + 1), the exact zero-order holds of servo and plant, a
    shift register of tau/dt slots for the transport delay, and the filter
    at its steady-state Kalman gain from the discrete Riccati equation.
    Noise held for `hold` steps from a random phase has the triangular
    autocovariance variance·(1 - |m|/hold); a moving sum of `hold` white
    draws scaled by 1/sqrt(hold) has exactly that, so the held noise enters
    through hold - 1 registers.  Each signal is a row of coefficients over
    [state, fresh draw], so the stacked next-state rows are [Phi, Gamma] of
    x' = Phi·x + Gamma·v, and the discrete Lyapunov equation gives the
    stationary covariance.  Signals are deviations about the command.
    """
    pid, lead, act = config.pid, config.compensator, config.actuator
    plant, kal, noise = config.plant, config.kalman, config.noise
    n_slots = round(act.tau / dt)
    hold = round(noise.sample_time / dt)
    n = 11 + n_slots + hold - 1
    basis = iter(np.eye(n + 1))
    est, servo, body = (np.array([next(basis), next(basis)]) for _ in range(3))
    integral, d_filt, e_prev, u_prev, y_prev = (next(basis) for _ in range(5))
    buf = [next(basis) for _ in range(n_slots)]     # newest first
    regs = [next(basis) for _ in range(hold - 1)]   # newest first
    draw = next(basis)

    def zoh(A, B):
        Ad, Bd, *_ = cont2discrete((np.array(A), np.array(B), np.eye(2),
                                    np.zeros((2, 1))), dt, "zoh")
        return Ad, Bd[:, 0]

    F, G = zoh([[0.0, 1.0], [0.0, -plant.lam / plant.J_z]],
               [[0.0], [1.0 / plant.J_z]])
    Fs, Gs = zoh([[0.0, 1.0], [-act.wn ** 2, -2.0 * act.mu * act.wn]],
                 [[0.0], [act.gain * act.wn ** 2]])
    if lead.enabled:
        (num,), den, _ = cont2discrete(([lead.a * lead.T, 1.0], [lead.T, 1.0]),
                                       dt, "bilinear")
    else:
        num, den = (1.0, 0.0), (1.0, 0.0)
    P = solve_discrete_are(F.T, np.array([[1.0], [0.0]]),
                           np.diag([kal.q_omega, kal.q_rate]) * dt, [[kal.r]])
    K = P[:, 0] / (P[0, 0] + kal.r)

    err = -est[0]
    integral_next = integral + 0.5 * dt * (err + e_prev)
    d_filt_next = d_filt + dt / (pid.tau_f + dt) * ((err - e_prev) / dt
                                                    - d_filt)
    u_pid = pid.k_p * err + pid.k_i * integral_next + pid.k_d * d_filt_next
    u_lead = (num[0] * u_pid + num[1] * u_prev - den[1] * y_prev) / den[0]
    servo_next = Fs @ servo + np.outer(Gs, u_lead)
    delta = buf[-1]
    body_next = F @ body + np.outer(G, delta)
    meas = body_next[0] + (draw + sum(regs)) / math.sqrt(hold)
    pred = F @ est + np.outer(G, delta)
    est_next = pred + np.outer(K, meas - pred[0])
    rows = np.array([*est_next, *servo_next, *body_next, integral_next,
                     d_filt_next, err, u_pid, u_lead,
                     *[servo_next[0], *buf][:-1], *[draw, *regs][:-1]])
    phi, gamma = rows[:, :n], rows[:, n]
    cov = solve_discrete_lyapunov(phi, noise.variance * np.outer(gamma, gamma))
    i_delta = 11 + n_slots - 1
    return cov[0, 0], cov[i_delta, i_delta]


class TestCriterion7NoiseAmplification:
    def test_b_envelope_dominates_every_seed(self, noise_pairs):
        """The lead amplifies noise where the loop carries it: in `delta`.

        The lead's phase margin lowers the complementary-sensitivity peak
        that brings noise into the loop error, so B's error is the quieter
        one; its high-frequency gain a acts on the actuator path instead.
        The envelope is taken about the mean over [5 s, end].
        """
        def envelope(trace):
            delta = _window(trace, "delta")
            return delta.max() - delta.mean(), delta.min() - delta.mean()

        for seed, (trace_a, trace_b) in noise_pairs.items():
            env_a = envelope(trace_a)
            env_b = envelope(trace_b)
            assert env_b[0] > env_a[0] and abs(env_b[1]) > abs(env_a[1]), \
                f"seed {seed}: B envelope {env_b} vs A {env_a}"

    def test_linear_oracle_predicts_noise_split(self, noisy_config,
                                                noise_pairs):
        """The oracle puts the lead's noise in `delta`, not the loop error.

        The 10-seed mean variances over [5 s, end] agree with it to within
        3 standard errors of that mean, computed from the per-seed spread:
        about 15% (A) and 11% (B) of the mean on the error, and 11% (A) and
        2% (B) on `delta`.
        """
        predicted = [
            _stationary_noise_variances(
                replace(noisy_config, compensator=replace(
                    noisy_config.compensator, enabled=enabled)),
                Scenario().dt)
            for enabled in (False, True)]
        (err_a, delta_a), (err_b, delta_b) = predicted
        assert err_b / err_a < 1 < delta_b / delta_a
        for leg, variances in enumerate(predicted):
            for signal, want in zip(("error", "delta"), variances):
                got = np.array([_window(pair[leg], signal).var()
                                for pair in noise_pairs.values()])
                se = got.std(ddof=1) / math.sqrt(len(got))
                assert abs(got.mean() - want) <= 3 * se, \
                    f"{'AB'[leg]} {signal}: {got.mean()} vs {want} ± {3 * se}"

    def test_b_envelope_bracket(self, noise_pairs):
        hits = 0
        for trace_a, trace_b in noise_pairs.values():
            mx, mn = noise_envelope(trace_b, 5.0)
            if 0.08 <= mx <= 0.35 and 0.10 <= abs(mn) <= 0.40:
                hits += 1
        assert hits >= 8


class TestCriterion8Sizing:
    def test_tail_ratio_and_area(self):
        inputs, airframe = TailSizingInputs(), MissileConfig()
        ratio = tail_area_ratio(inputs, airframe.X_CG)
        assert ratio == pytest.approx(-2.754, rel=0.005)
        report = sizing_report(airframe, AeroDerivatives(), inputs)
        (line,) = [line for line in report.splitlines()
                   if line.startswith("tail area S_T =")]
        assert float(line.split()[4]) == pytest.approx(0.0865, rel=0.005)

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
        act = Actuator(params, dt=0.001, run_steps=1000)
        ys = np.array(act.step([1.0] * 1000))
        t = np.arange(1, 1001) * 0.001
        zeta = params.mu
        peak = params.gain * (1 + math.exp(-math.pi * zeta
                                           / math.sqrt(1 - zeta ** 2)))
        t_peak = params.tau + math.pi / (params.wn * math.sqrt(1 - zeta ** 2))
        assert peak == pytest.approx(8.141, abs=0.001)
        assert t_peak == pytest.approx(0.1726, abs=0.0001)
        assert ys.max() == pytest.approx(peak, rel=0.005)
        assert t[ys.argmax()] == pytest.approx(t_peak, rel=0.005)

    def test_lead_geometric_mean_gain(self, lead_response):
        params = CompensatorParams()
        lead = Lead(params, dt=0.001)
        w = 1.0 / (params.T * math.sqrt(params.a))
        assert abs(lead_response(lead, w, 0.001)) == \
            pytest.approx(math.sqrt(params.a), rel=0.005)

    def test_kalman_gain_matches_riccati_fixed_point(self):
        dt = 0.001
        params = KalmanParams()
        rows = plant_step(PitchPlantParams(), DisturbanceParams(), dt)
        schedule = GainSchedule(params, rows, dt, 20001)
        kal = Kalman(schedule)
        kal.step([0.0] * 20000, [0.0] * 20000)
        # The gain the next update will use.
        gain_filter = schedule.k0[kal.updates]

        F = np.array([[1.0, schedule.f01], [0.0, schedule.f11]])
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
