import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from pitchpilot.blocks import (Actuator, ActuatorParams, CompensatorParams,
                               DisturbanceParams, GainSchedule, Kalman,
                               KalmanParams, Lead, NoiseParams, NoiseSource,
                               Pid, PidGains, PitchPlantParams, _zoh,
                               disturbance_at, plant_step)
from pitchpilot.errors import ConfigError, DomainError


@pytest.mark.parametrize("build", [
    lambda dt: Pid(PidGains(), dt),
    lambda dt: Lead(CompensatorParams(), dt),
    lambda dt: _zoh(((0.0,),), (1.0,), dt),
    lambda dt: GainSchedule(KalmanParams(), plant_step(
        PitchPlantParams(), DisturbanceParams(), 0.001), dt, 1000)],
    ids=["Pid", "Lead", "_zoh", "GainSchedule"])
@pytest.mark.parametrize("dt", [0.0, -0.001, math.nan])
def test_nonpositive_dt_rejected(build, dt):
    with pytest.raises(ConfigError, match="dt must be > 0"):
        build(dt)


class TestPid:
    def test_constant_error(self):
        dt = 0.001
        pid = Pid(PidGains(tau_f=0.0), dt)
        out = pid.step([1.0] * 2000)[-1]
        # After the first step the derivative term is zero and the trapezoid
        # integral tracks 23.4*t to within half a step.
        t = 2000 * dt
        assert out == pytest.approx(44.0 + 23.4 * t, abs=23.4 * dt)

    def test_zero_error(self):
        pid = Pid(PidGains(), 0.001)
        assert pid.step([0.0] * 100) == [0.0] * 100

    def test_ramp_error(self):
        dt = 0.0005
        pid = Pid(PidGains(tau_f=0.0), dt)
        out = pid.step([k * dt for k in range(2001)])[-1]
        t = 2000 * dt
        # Trapezoidal integration of a ramp is exact, the finite-difference
        # slope is exact, so the closed form holds exactly past step one.
        assert out == pytest.approx(44.0 * t + 11.7 * t * t + 24.0, rel=1e-12)

    def test_pure_proportional_is_memoryless(self):
        pid = Pid(PidGains(k_p=3.0, k_i=0.0, k_d=0.0), 0.001)
        errors = [1.0, -2.5, 0.0, 7.75]
        assert pid.step(errors) == [3.0 * e for e in errors]

    def test_gain_validation(self):
        with pytest.raises(DomainError):
            PidGains(tau_f=-0.01)
        with pytest.raises(DomainError):
            PidGains(k_p=float("nan"))


class TestLead:
    def test_unit_dc_gain(self):
        lead = Lead(CompensatorParams(), dt=0.001)
        y = lead.step([3.0] * 50)[-1]
        assert y == pytest.approx(3.0, abs=0.25)  # ~5T of settling
        y = lead.step([3.0] * 200)[-1]
        assert y == pytest.approx(3.0, abs=1e-6)

    def test_step_response_matches_continuous(self):
        # Closed form for the lead unit step: y(t) = 1 + (a-1)*exp(-t/T),
        # cross-checked against dense trapezoidal integration at 1 us.
        a, T = 11.0, 0.01
        dt_fine = 1e-6
        fine = Lead(CompensatorParams(a=a, T=T), dt=dt_fine)
        for t, expected in [(dt_fine, a),
                            (0.005, 1 + (a - 1) * math.exp(-0.5)),
                            (0.02, 1 + (a - 1) * math.exp(-2.0))]:
            fine2 = Lead(CompensatorParams(a=a, T=T), dt=dt_fine)
            y = fine2.step([1.0] * int(round(t / dt_fine)))[-1]
            assert y == pytest.approx(expected, rel=2e-3)

    def test_geometric_mean_frequency_gain(self, lead_response):
        params = CompensatorParams()
        lead = Lead(params, dt=0.001)
        w = 1.0 / (params.T * math.sqrt(params.a))
        h = lead_response(lead, w, 0.001)
        assert abs(h) == pytest.approx(math.sqrt(params.a), rel=5e-3)
        max_lead = math.degrees(math.asin((params.a - 1) / (params.a + 1)))
        assert math.degrees(np.angle(h)) == pytest.approx(max_lead, abs=0.5)
        assert max_lead == pytest.approx(56.4, abs=0.1)

    def test_halving_dt_converges(self):
        def u(t):
            return math.sin(2 * t)

        dt = 0.002
        coarse = Lead(CompensatorParams(), dt=dt)
        fine = Lead(CompensatorParams(), dt=dt / 2)
        y_coarse = coarse.step([u((k + 1) * dt) for k in range(500)])
        y_fine = fine.step([u((k + 1) * dt / 2) for k in range(1000)])[1::2]
        for a, b in zip(y_coarse[3:], y_fine[3:]):
            assert abs(a - b) <= 0.01 * max(abs(b), 0.1)

    def test_resolution_guard(self):
        with pytest.raises(ConfigError):
            Lead(CompensatorParams(T=0.01), dt=0.006)

    def test_param_validation(self):
        with pytest.raises(DomainError):
            CompensatorParams(a=0.0)
        with pytest.raises(DomainError):
            CompensatorParams(T=-1.0)


class TestActuator:
    def test_pure_delay_hold(self):
        act = Actuator(ActuatorParams(), dt=0.001, run_steps=100)
        outputs = act.step([math.sin(k) for k in range(100)])
        assert outputs == [0.0] * 100

    def test_unit_step_dc_gain(self):
        act = Actuator(ActuatorParams(), dt=0.001, run_steps=3000)
        y = act.step([1.0] * 3000)[-1]
        assert y == pytest.approx(7.0, rel=1e-6)

    def test_unit_step_peak(self):
        params = ActuatorParams()
        act = Actuator(params, dt=0.001, run_steps=1000)
        ys = np.array(act.step([1.0] * 1000))
        t = np.arange(1, 1001) * 0.001
        peak = params.gain * (1 + math.exp(-math.pi * params.mu
                                           / math.sqrt(1 - params.mu ** 2)))
        t_peak = params.tau + math.pi / (params.wn * math.sqrt(1 - params.mu ** 2))
        assert ys.max() == pytest.approx(peak, rel=5e-3)
        assert t[ys.argmax()] == pytest.approx(t_peak, rel=5e-3)
        assert peak == pytest.approx(8.141, abs=1e-3)
        assert t_peak == pytest.approx(0.1726, abs=1e-4)

    def test_matches_dense_integration(self):
        # Undelayed section vs RK4 of the same ODE at a 100x finer step.
        params = ActuatorParams(tau=0.0)
        dt = 0.001
        act = Actuator(params, dt=dt, run_steps=200)
        coarse = act.step([1.0] * 200)
        h = dt / 100
        x0 = x1 = 0.0
        dense = []
        for k in range(200 * 100):
            def f(a, b):
                return b, params.gain * params.wn ** 2 - params.wn ** 2 * a \
                    - 2 * params.mu * params.wn * b
            k1 = f(x0, x1)
            k2 = f(x0 + h / 2 * k1[0], x1 + h / 2 * k1[1])
            k3 = f(x0 + h / 2 * k2[0], x1 + h / 2 * k2[1])
            k4 = f(x0 + h * k3[0], x1 + h * k3[1])
            x0 += h / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
            x1 += h / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
            if (k + 1) % 100 == 0:
                dense.append(x0)
        assert np.allclose(coarse, dense, rtol=1e-6, atol=1e-9)

    def test_delay_line_is_cut_at_the_run_length(self):
        act = Actuator(ActuatorParams(tau=1e300), dt=0.001, run_steps=50)
        assert len(act.fixed[1:]) == 50
        assert act.step([math.sin(k) for k in range(50)]) == [0.0] * 50

    def test_run_length_is_required(self):
        # A default of no bound built a line of tau/dt zeros: at tau = 1e300
        # a count past the index range, an OverflowError.
        with pytest.raises(TypeError):
            Actuator(ActuatorParams(tau=1e300), 0.001)
        act = Actuator(ActuatorParams(tau=1e300), 0.001, 3)
        assert act.fixed == (0.0,) * 4

    def test_delay_must_divide_dt(self):
        with pytest.raises(ConfigError):
            Actuator(ActuatorParams(tau=0.0015), dt=0.001, run_steps=1)

    def test_param_validation(self):
        with pytest.raises(DomainError):
            ActuatorParams(wn=0.0)
        with pytest.raises(DomainError):
            ActuatorParams(gain=0.0)


class TestLoopCoefficientsArePythonFloats:
    """The step loop must see Python floats only: one numpy scalar turns
    every later operation into a numpy scalar operation, about twice as slow,
    without changing a single result."""

    # A numpy dt, as from np.linspace, must not reach the step loop either.
    @pytest.mark.parametrize("float64, dt", [
        (False, 0.001), (True, 0.001), (False, np.float64(0.001))],
        ids=["default", "np.float64", "np.float64-dt"])
    def test_block_coefficients_and_outputs(self, as_float64, float64, dt):
        def params(cls):
            return as_float64(cls()) if float64 else cls()

        pid = Pid(params(PidGains), dt)
        lead = Lead(params(CompensatorParams), dt)
        act = Actuator(params(ActuatorParams), dt, run_steps=1)
        rows = plant_step(params(PitchPlantParams),
                          params(DisturbanceParams), dt)
        # Two updates, so the schedule's recursion predicts once.
        kal = Kalman(GainSchedule(params(KalmanParams), rows, dt, 2),
                     initial_pitch=2.0)
        values = {f"{name}.{attr}": getattr(block, attr)
                  for name, block, attrs in (
                      ("pid", pid, "k_p k_i k_d alpha"),
                      ("lead", lead, "b0 b1 a0 a1"),
                      ("act", act, "a00 a01 a10 a11 b_0 b_1 x0"),
                      ("kal", kal, "x0"),
                      ("kal.schedule", kal.schedule, "f01 f11 g0 g1"))
                  for attr in attrs.split()}
        values.update((f"kal.schedule.p[{i}]", v)
                      for i, v in enumerate(kal.schedule.p))
        values.update((f"plant_step[{i}][{j}]", v)
                      for i, row in enumerate(rows) for j, v in enumerate(row))
        values["pid.step"], = pid.step([1.0])
        values["lead.step"], = lead.step([1.0])
        values["act.step"], = act.step([1.0])
        values["kal.step"], = kal.step([1.0], [1.0])
        noise = NoiseSource(params(NoiseParams), dt, seed=1)
        values["noise.sample"], = noise.sample(1)
        values["disturbance_at"], = disturbance_at(
            params(DisturbanceParams), [1.0])
        assert [n for n, v in values.items() if type(v) is not float] == []


class TestPitchPlant:
    def test_validation(self):
        with pytest.raises(DomainError):
            PitchPlantParams(J_z=0)
        with pytest.raises(DomainError):
            PitchPlantParams(lam=-1.0)


class TestZoh:
    def test_plant_closed_form(self):
        # x = [pitch, rate], J·rate' = u - lam·rate, with a = lam/J.
        J, lam, dt = 40.0, 6.0, 0.001
        Ad, Bd = _zoh(((0.0, 1.0), (0.0, -lam / J)), (0.0, 1.0 / J), dt)
        a = lam / J
        decay = math.exp(-a * dt)
        f01 = (1.0 - decay) / a
        assert Ad[0][0] == 1.0 and Ad[1][0] == 0.0
        assert Ad[1][1] == pytest.approx(decay, abs=1e-15)
        assert Ad[0][1] == pytest.approx(f01, abs=1e-15)
        assert Bd[1] == pytest.approx((1.0 - decay) / lam, abs=1e-15)
        assert Bd[0] == pytest.approx((dt - f01) / lam, abs=1e-15)

    def test_each_hold_is_fresh(self):
        # No hold is kept between calls: a caller may modify what it gets.
        A, B = ((0.0, 1.0), (-2500.0, -50.0)), (0.0, 17500.0)
        Ad, Bd = _zoh(A, B, 0.001)
        expected = ([row[:] for row in Ad], Bd[:])
        Ad[0][0] = Bd[1] = -1.0
        assert _zoh(A, B, 0.001) == expected

    @pytest.mark.parametrize("wn", [5.0, 50.0, 500.0])
    @pytest.mark.parametrize("gain", [1.0, 7.0, 1e3, 1e6])
    def test_actuator_hold_matches_mpmath(self, gain, wn):
        p, dt = ActuatorParams(gain=gain, wn=wn), 0.001
        act = Actuator(p, dt, run_steps=1)
        _assert_hold_near_exact(
            [[act.a00, act.a01, act.b_0], [act.a10, act.a11, act.b_1]],
            [[0.0, 1.0], [-wn * wn, -2.0 * p.mu * wn]], [0.0, gain * wn * wn],
            dt)

    @pytest.mark.parametrize("dt", [0.001, 0.005])
    @pytest.mark.parametrize("frequency", [0.0, 1.0, 5.0, 50.0])
    def test_plant_hold_matches_mpmath(self, frequency, dt):
        # The plant with the disturbance oscillator, as `plant_step` holds
        # it; entry (0, 3) is formed by cancellation.
        J, lam = 40.0, 6.0
        A = ((0.0, 1.0, 0.0, 0.0), (0.0, -lam / J, -1.0 / J, 0.0),
             (0.0, 0.0, 0.0, frequency), (0.0, 0.0, -frequency, 0.0))
        B = (0.0, 1.0 / J, 0.0, 0.0)
        Ad, Bd = _zoh(A, B, dt)
        _assert_hold_near_exact([row + [b] for row, b in zip(Ad, Bd)], A, B,
                                dt)

    # Every hold above, once balanced, has a 1-norm within Higham's θ₁₃, so
    # `_expm` squares none of them; each of these it scales and squares once.
    @pytest.mark.parametrize("A, B, dt", [
        (((0.0, 1.0), (-1e6, -1e3)), (0.0, 7e6), 0.005),
        (((0.0, 1.0, 0.0, 0.0), (0.0, -6.0 / 1e-3, -1.0 / 1e-3, 0.0),
          (0.0, 0.0, 0.0, 1.0), (0.0, 0.0, -1.0, 0.0)),
         (0.0, 1.0 / 1e-3, 0.0, 0.0), 0.001)],
        ids=["servo-wn-1000-dt-5ms", "plant-J_z-1e-3"])
    def test_squared_hold_matches_mpmath(self, A, B, dt):
        Ad, Bd = _zoh(A, B, dt)
        _assert_hold_near_exact([row + [b] for row, b in zip(Ad, Bd)], A, B,
                                dt)

    @pytest.mark.parametrize("plant, disturbance", [
        (PitchPlantParams(J_z=1e-20), DisturbanceParams()),
        (PitchPlantParams(), DisturbanceParams(frequency=1e19))])
    def test_hold_past_float_resolution_is_refused(self, plant, disturbance):
        # An entry of [[A, B], [0, 0]]·dt of 2**53 or more is not known to
        # within 1 once rounded, e.g. the disturbance's phase per step.
        with pytest.raises(ConfigError, match="no finite zero-order hold"):
            plant_step(plant, disturbance, 0.001)

    @pytest.mark.parametrize("A, B, dt", [
        # Bd[0] = 1e308·(9 + e⁻¹⁰) is past the float range, so the power of
        # two that scales it back to B's size overflows.
        (((0.0, 1.0), (0.0, -1.0)), (0.0, 1e308), 10.0),
        # exp(1000) overflows in the squarings: the hold is not finite.
        (((1000.0,),), (1.0,), 1.0)],
        ids=["Bd-past-the-float-range", "Ad-not-finite"])
    def test_hold_that_overflows_is_refused(self, A, B, dt):
        with pytest.raises(ConfigError, match="no finite zero-order hold"):
            _zoh(A, B, dt)

    @pytest.mark.parametrize("gain", [1e40, 1e75, 1e90, 1e100, -1e300])
    def test_hold_of_a_huge_input_gain(self, gain):
        # An unscaled expm of B = gain·wn² loses Ad or overflows, yet the
        # hold is linear in B.
        dt = 0.001
        unit = Actuator(ActuatorParams(gain=1.0), dt, run_steps=1)
        act = Actuator(ActuatorParams(gain=gain), dt, run_steps=1)
        for name in ("a00", "a01", "a10", "a11"):
            assert getattr(act, name) == pytest.approx(getattr(unit, name),
                                                       rel=1e-12)
        assert act.b_0 / gain == pytest.approx(unit.b_0, rel=1e-12)
        assert act.b_1 / gain == pytest.approx(unit.b_1, rel=1e-12)


def _assert_hold_near_exact(rows, A, B, dt):
    """`rows`, the hold [Ad | Bd] of x' = A·x + B·u, against the same rows of
    exp([[A, B], [0, 0]]·dt) in 50-digit arithmetic (Van Loan 1978): within
    4 ulp on every entry at least 1e-6 of its row's largest, and within 1
    ulp of the row's largest on the others."""
    n = len(B)
    with mpmath.workdps(50):
        M = mpmath.zeros(n + 1, n + 1)
        for i in range(n):
            for j in range(n):
                M[i, j] = mpmath.mpf(A[i][j]) * dt
            M[i, n] = mpmath.mpf(B[i]) * dt
        E = mpmath.expm(M)
        for i, row in enumerate(rows):
            exact = [E[i, j] for j in range(n + 1)]
            top = max(abs(float(x)) for x in exact)
            for j, (got, want) in enumerate(zip(row, exact)):
                bound = (4 * math.ulp(float(want))
                         if abs(float(want)) >= 1e-6 * top
                         else math.ulp(top))
                assert abs(got - want) <= bound, (i, j, got, float(want))


def _covariance(schedule):
    """Covariance after the last update of the schedule."""
    p00, p01, p11 = schedule.p
    return np.array([[p00, p01], [p01, p11]])


class TestKalman:
    rows = plant_step(PitchPlantParams(), DisturbanceParams(), 0.001)

    def test_huge_r_ignores_measurement(self):
        kal = Kalman(GainSchedule(KalmanParams(r=1e12), self.rows, 0.001,
                                  200), initial_pitch=5.0)
        est = kal.step(measurements=[500.0] * 200, controls=[0.0] * 200)[-1]
        assert est == pytest.approx(5.0, abs=1e-3)

    def test_tiny_r_tracks_measurement(self):
        kal = Kalman(GainSchedule(KalmanParams(r=1e-12), self.rows, 0.001,
                                  1), initial_pitch=0.0)
        est, = kal.step(measurements=[3.21], controls=[0.0])
        assert est == pytest.approx(3.21, abs=1e-6)

    def test_steady_state_gain_matches_riccati(self):
        dt = 0.001
        params = KalmanParams()
        schedule = GainSchedule(params, self.rows, dt, 20001)
        kal = Kalman(schedule)
        kal.step([0.0] * 20000, [0.0] * 20000)
        # The gain the next update will use.
        gain_filter = schedule.k0[kal.updates]

        # Independent Riccati fixed-point iteration on the same model.
        F = np.array([[1.0, schedule.f01], [0.0, schedule.f11]])
        Q = np.diag([params.q_omega, params.q_rate]) * dt
        H = np.array([[1.0, 0.0]])
        P = np.eye(2)
        for _ in range(20000):
            Pp = F @ P @ F.T + Q
            K = Pp @ H.T / (H @ Pp @ H.T + params.r)
            P = (np.eye(2) - K @ H) @ Pp
        assert gain_filter == pytest.approx(float(K[0, 0]), abs=1e-6)

    def test_covariance_monotone_and_positive(self):
        def covariance(count):
            return _covariance(GainSchedule(KalmanParams(), self.rows,
                                            0.001, count))

        prev = np.trace(covariance(0))
        for count in range(1, 501):
            cov = covariance(count)
            cur = np.trace(cov)
            assert cur <= prev + 1e-12
            assert np.all(np.linalg.eigvalsh(cov) > 0)
            prev = cur

    # The cosine's first control is 1.0: the first update predicts too.
    @pytest.mark.parametrize("control", [math.sin, math.cos])
    def test_transparent_for_exact_model(self, control):
        # Feed measurements generated by the prediction model itself: the
        # innovation stays zero and the estimate reproduces the truth.
        dt = 0.001
        schedule = GainSchedule(KalmanParams(), self.rows, dt, 100)
        kal = Kalman(schedule, initial_pitch=2.0)
        x = np.array([2.0, 0.0])
        F = np.array([[1.0, schedule.f01], [0.0, schedule.f11]])
        G = np.array([schedule.g0, schedule.g1])
        for k in range(100):
            u = control(0.1 * k)
            x = F @ x + G * u
            est, = kal.step([x[0]], [u])
            assert est == pytest.approx(x[0], abs=1e-12)

    def test_controls_short_of_the_measurements_raise(self):
        kal = Kalman(GainSchedule(KalmanParams(), self.rows, 0.001, 3), 1.0)
        before = dict(vars(kal))
        with pytest.raises(ValueError):
            kal.step([1.0, 2.0, 3.0], [0.0])
        assert vars(kal) == before

    def test_a_window_past_the_schedule_raises(self):
        kal = Kalman(GainSchedule(KalmanParams(), self.rows, 0.001, 2), 1.0)
        kal.step([1.0, 2.0], [0.0, 0.0])
        before = dict(vars(kal))
        with pytest.raises(ValueError):
            kal.step([3.0], [0.0])
        assert vars(kal) == before

    def test_r_validation(self):
        with pytest.raises(DomainError):
            KalmanParams(r=0.0)


class TestNoise:
    def test_zero_variance(self):
        src = NoiseSource(NoiseParams(variance=0.0), dt=0.001, seed=1)
        assert src.sample(1000) == [0.0] * 1000

    def test_statistical_oracle(self):
        src = NoiseSource(NoiseParams(variance=0.1, sample_time=0.01),
                          dt=0.01, seed=42)
        draws = np.array(src.sample(100000))
        assert abs(draws.mean()) < 0.01
        assert draws.var() == pytest.approx(0.1, rel=0.10)

    def test_determinism(self):
        a = NoiseSource(NoiseParams(), dt=0.001, seed=7)
        b = NoiseSource(NoiseParams(), dt=0.001, seed=7)
        assert a.sample(500) == b.sample(500)

    def test_zero_order_hold(self):
        src = NoiseSource(NoiseParams(sample_time=0.01), dt=0.001, seed=3)
        values = src.sample(30)
        assert len(set(values[:10])) == 1
        assert len(set(values[10:20])) == 1
        assert values[0] != values[10]

    # 250 steps end inside a hold of 3 and of 10 steps; the two holds past
    # the run are one draw, not a repeat of 10^18 or 10^303 entries.
    @pytest.mark.parametrize("hold_steps", [1, 3, 10, 10**18, 10**303],
                             ids=["1", "3", "10", "10**18", "10**303"])
    def test_one_call_draws_the_scalar_sequence(self, hold_steps):
        params = NoiseParams(sample_time=0.001 * hold_steps)
        src = NoiseSource(params, dt=0.001, seed=11)
        rng = np.random.default_rng(11)
        expected, value = [], None
        for k in range(250):
            if k % hold_steps == 0:
                value = rng.normal(0.0, math.sqrt(params.variance))
            expected.append(value)
        assert src.sample(250) == expected

    @pytest.mark.parametrize("count", [0, 1, 9, 10, 11, 101])
    def test_shorter_call_is_a_prefix(self, count):
        src = NoiseSource(NoiseParams(sample_time=0.01), dt=0.001, seed=5)
        assert src.sample(count) == src.sample(250)[:count]

    def test_equal_calls_return_the_same_list(self):
        src = NoiseSource(NoiseParams(), dt=0.001, seed=5)
        first = src.sample(300)
        assert src.sample(300) == first
        assert len(first) == 300

    def test_sample_time_guard(self):
        with pytest.raises(ConfigError):
            NoiseSource(NoiseParams(sample_time=0.0015), dt=0.001, seed=0)

    @pytest.mark.parametrize("dt", [0.0, -0.001])
    def test_nonpositive_dt_rejected(self, dt):
        with pytest.raises(ConfigError, match="dt must be > 0"):
            NoiseSource(NoiseParams(), dt=dt, seed=0)


class TestDisturbance:
    def test_zero_time(self):
        assert disturbance_at(DisturbanceParams(), [0.0]) == [0.0]

    def test_quarter_period(self):
        assert disturbance_at(DisturbanceParams(amplitude=1.0, frequency=1.0),
                              [math.pi / 2]) == pytest.approx([1.0])

    def test_direct_evaluation(self):
        assert disturbance_at(DisturbanceParams(amplitude=2.0, frequency=3.0),
                              [1.0]) == pytest.approx([2 * math.sin(3)],
                                                      rel=1e-12)

    def test_negative_time_rejected(self):
        with pytest.raises(DomainError):
            disturbance_at(DisturbanceParams(), [-0.1])

    def test_param_validation(self):
        with pytest.raises(DomainError):
            DisturbanceParams(amplitude=-1.0)


signal = st.floats(min_value=-1e3, max_value=1e3,
                   allow_nan=False, allow_infinity=False)
cut_points = st.lists(st.integers(0, 200), max_size=8)


def _windows(values, cuts):
    """`values` split at `cuts` (clamped to its length; a repeated cut
    gives an empty window)."""
    bounds = [0, *sorted(min(c, len(values)) for c in cuts), len(values)]
    return [values[a:b] for a, b in zip(bounds, bounds[1:])]


def _assert_split_invariant(make, step, values, cuts):
    """`step(block, window)` over `values` as one window, as the windows
    split at `cuts`, and one value per window: equal outputs, equal end
    states."""
    results = []
    for windows in ([values], _windows(values, cuts),
                    [values[i:i + 1] for i in range(len(values))]):
        block = make()
        outputs = [y for window in windows for y in step(block, window)]
        results.append((outputs, vars(block)))
    assert results[1] == results[0]
    assert results[2] == results[0]


class TestWindowSplits:
    """A block's outputs and end state do not depend on how its inputs are
    split into windows, so the engine's window length cannot move a
    result."""

    @given(values=st.lists(signal, max_size=200), cuts=cut_points)
    def test_pid(self, values, cuts):
        _assert_split_invariant(lambda: Pid(PidGains(), 0.001), Pid.step,
                                values, cuts)

    @given(values=st.lists(signal, max_size=200), cuts=cut_points)
    def test_lead(self, values, cuts):
        _assert_split_invariant(lambda: Lead(CompensatorParams(), 0.001),
                                Lead.step, values, cuts)

    @pytest.mark.parametrize("tau", [0.0, 0.1])
    @given(values=st.lists(signal, max_size=200), cuts=cut_points)
    def test_actuator(self, tau, values, cuts):
        _assert_split_invariant(
            lambda: Actuator(ActuatorParams(tau=tau), 0.001, len(values)),
            Actuator.step, values, cuts)

    @pytest.mark.parametrize("tau", [0.0, 0.1])
    @given(values=st.lists(signal, max_size=200), later=signal)
    def test_actuator_fixed_is_its_next_output(self, tau, values, later):
        line = round(tau / 0.001)
        act = Actuator(ActuatorParams(tau=tau), 0.001, len(values) + line)
        outputs = act.step(values)
        fixed = act.fixed
        assert len(fixed) == line + 1
        assert fixed[0] == (outputs[-1] if values else 0.0)
        assert act.step([later] * line) == list(fixed[1:])

    @given(values=st.lists(st.tuples(signal, signal), max_size=200),
           cuts=cut_points)
    def test_kalman(self, values, cuts):
        def step(kal, window):
            return kal.step([z for z, _ in window], [u for _, u in window])

        # One schedule for every filter: `vars(block)` holds it.
        schedule = GainSchedule(
            KalmanParams(),
            plant_step(PitchPlantParams(), DisturbanceParams(), 0.001),
            0.001, len(values))
        _assert_split_invariant(lambda: Kalman(schedule, 2.0), step, values,
                                cuts)

    @given(values=st.lists(st.floats(0.0, 1e3), max_size=200),
           cuts=cut_points)
    def test_disturbance(self, values, cuts):
        _assert_split_invariant(
            lambda: DisturbanceParams(amplitude=2.0, frequency=3.0),
            disturbance_at, values, cuts)
