"""The per-configuration plan changes no trace: an independent one-step
reference loop on the package's zero-order holds, and a cache that cannot
alias configurations.  The same loop places a diverged run's step and
signal."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from pitchpilot.blocks import (ActuatorParams, CompensatorParams,
                               DisturbanceParams, KalmanParams, NoiseParams,
                               PidGains, PitchPlantParams, _zoh,
                               disturbance_at)
from pitchpilot.engine import (TRACE_COLUMNS, LoopConfig, Scenario, _plan,
                               run_scenario)
from pitchpilot.errors import DivergedError

DISTURBANCE = DisturbanceParams(amplitude=2.0, frequency=5.0)


def reference_run(config: LoopConfig, scenario: Scenario):
    """The loop advanced one step per iteration, every block written out in
    its documented operation order and the Kalman covariance computed
    inline; returns the trace as an (n, 11) array in TRACE_COLUMNS order."""
    dt = float(scenario.dt)
    n = int(round(scenario.duration / dt)) + 1
    cmd = float(scenario.command)

    pid = config.pid
    k_p, k_i, k_d = float(pid.k_p), float(pid.k_i), float(pid.k_d)
    alpha = float(dt / (pid.tau_f + dt))
    integral = d_filt = prev_error = 0.0

    comp = config.compensator
    c = 2.0 * comp.T / dt
    b0, b1 = float(comp.a * c + 1.0), float(1.0 - comp.a * c)
    a0, a1 = float(c + 1.0), float(1.0 - c)
    lead_u = lead_y = 0.0

    # The holds are the package's own `_zoh`: this loop checks the windowed
    # engine on the same coefficients, and tests/test_blocks.py checks the
    # holds against an mpmath oracle.
    act = config.actuator
    wn2 = act.wn * act.wn
    ((s00, s01), (s10, s11)), (sb0, sb1) = _zoh(
        ((0.0, 1.0), (-wn2, -2.0 * act.mu * act.wn)), (0.0, act.gain * wn2),
        dt)
    servo0 = servo1 = 0.0
    line = [0.0] * min(round(act.tau / dt), n)

    amp = float(config.disturbance.amplitude)
    freq = float(config.disturbance.frequency)
    J_z, lam = config.plant.J_z, config.plant.lam
    Ad, Bd = _zoh(((0.0, 1.0, 0.0, 0.0), (0.0, -lam / J_z, -1.0 / J_z, 0.0),
                   (0.0, 0.0, 0.0, freq), (0.0, 0.0, -freq, 0.0)),
                  (0.0, 1.0 / J_z, 0.0, 0.0), dt)
    (_, p01, p0s, p0c), (_, p11, p1s, p1c) = Ad[:2]
    p0u, p1u = Bd[:2]

    noise = config.noise
    hold = round(noise.sample_time / dt)
    sigma = math.sqrt(noise.variance)
    noisy = noise.enabled and noise.variance > 0
    rng = np.random.default_rng(scenario.seed)
    v = 0.0

    kal = config.kalman
    # The filter predicts with the plant's own hold, without the disturbance.
    f01, g0, f11, g1 = p01, p0u, p11, p1u
    q00, q11, r = float(kal.q_omega * dt), float(kal.q_rate * dt), float(kal.r)
    x0, x1 = float(scenario.initial), 0.0
    P00, P01, P11 = 1.0, 0.0, 1.0

    omega, omega_dot = float(scenario.initial), 0.0
    delta = 0.0
    rows = []
    for k in range(n):
        t = k * dt
        if k:
            # The plant reaches step k with step k-1's deflection and the
            # disturbance oscillator at step k-1's time.
            t_prev = (k - 1) * dt
            d = amp * math.sin(freq * t_prev)
            d_c = amp * math.cos(freq * t_prev)
            omega += p01 * omega_dot + p0u * delta + p0s * d + p0c * d_c
            omega_dot = p11 * omega_dot + p1u * delta + p1s * d + p1c * d_c
        if noisy and k % hold == 0:
            v = rng.normal(0.0, sigma)
        meas = omega + (v if noisy else 0.0)
        if kal.enabled:
            if k:
                x0 += f01 * x1 + g0 * delta
                x1 = f11 * x1 + g1 * delta
                p01f = P01 + f01 * P11
                P00 += f01 * P01 + f01 * p01f + q00
                P01 = p01f * f11
                P11 = f11 * f11 * P11 + q11
            S = P00 + r
            k0 = P00 / S
            k1 = P01 / S
            innov = meas - x0
            x0 += k0 * innov
            x1 += k1 * innov
            P11 -= k1 * P01
            P00 *= 1.0 - k0
            P01 *= 1.0 - k0
            filt = x0
        else:
            filt = meas
        error = cmd - filt
        integral += 0.5 * (error + prev_error) * dt
        d_filt += alpha * ((error - prev_error) / dt - d_filt)
        prev_error = error
        u_pid = k_p * error + k_i * integral + k_d * d_filt
        if comp.enabled:
            lead_y = (b0 * u_pid + b1 * lead_u - a1 * lead_y) / a0
            lead_u = u_pid
            u_lead = lead_y
        else:
            u_lead = u_pid
        servo0, servo1 = (s00 * servo0 + s01 * servo1 + sb0 * u_lead,
                          s10 * servo0 + s11 * servo1 + sb1 * u_lead)
        line.append(servo0)
        delta = line.pop(0)
        rows.append((t, cmd, omega, omega_dot, meas, filt, error, u_pid,
                     u_lead, delta, amp * math.sin(freq * t)))
    return np.array(rows)


def _bytes(trace):
    columns = [getattr(trace, name) for name in TRACE_COLUMNS]
    return np.stack(columns, axis=1).tobytes()


def _clear_caches():
    _plan.cache_clear()


@pytest.mark.parametrize("tau, lead, kalman, noise", itertools.product(
    [0.0, 0.005, 0.1, 0.26], [False, True], [False, True], [False, True]))
def test_reference_loop_is_bit_identical(tau, lead, kalman, noise):
    config = LoopConfig(
        compensator=CompensatorParams(enabled=lead),
        actuator=ActuatorParams(tau=tau),
        disturbance=DISTURBANCE,
        noise=NoiseParams(enabled=noise),
        kalman=KalmanParams(enabled=kalman))
    scenario = Scenario(duration=2.0, seed=3)
    assert _bytes(run_scenario(config, scenario)) == \
        reference_run(config, scenario).tobytes()


def test_reference_loop_under_a_fast_disturbance():
    # At 50 rad/s a separate hold of the plant alone rounds unlike the
    # plant block of its hold with the oscillator: the filter must predict
    # with the latter, the plant the loop runs.
    config = LoopConfig(
        disturbance=replace(DISTURBANCE, frequency=50.0))
    scenario = Scenario(duration=2.0, seed=3)
    assert _bytes(run_scenario(config, scenario)) == \
        reference_run(config, scenario).tobytes()


# A window draws its noise in one `normal` call; the reference draws one
# value per call.  That these agree is a property of numpy's generator, not
# a documented guarantee, so it is pinned at hold lengths of 1 and 10 steps
# and of 7, which does not divide the 101-step window.
@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("sample_time", [0.001, 0.01, 0.007])
def test_noise_drawn_per_window_is_bit_identical(seed, sample_time):
    config = LoopConfig(disturbance=DISTURBANCE,
                        noise=NoiseParams(sample_time=sample_time))
    scenario = Scenario(duration=2.0, seed=seed)
    assert _bytes(run_scenario(config, scenario)) == \
        reference_run(config, scenario).tobytes()


# The four runs of tests/test_engine.py's divergence steps, and a lead whose
# output overflows a full loop delay before the deflection does.
DIVERGING = [
    *((LoopConfig(actuator=ActuatorParams(gain=gain),
                  compensator=CompensatorParams(a=a)), 10.0)
      for gain, a in ((1e6, 11.0), (5e4, 1e3), (5e3, 1e300))),
    (LoopConfig(pid=PidGains(k_p=3143279.220717917, k_d=0),
                actuator=ActuatorParams(gain=4614188.555029062, tau=0.001),
                plant=PitchPlantParams(J_z=1.4568900730998578e-08, lam=0),
                kalman=KalmanParams(enabled=False)), 2.0),
    (LoopConfig(compensator=CompensatorParams(a=1e100),
                noise=NoiseParams(enabled=False)), 10.0),
    # One-step windows: the run diverges inside a batch of 250 windows.
    (LoopConfig(actuator=ActuatorParams(gain=1e6, tau=0.0)), 2.0)]


@pytest.mark.parametrize("config, duration", DIVERGING,
                         ids=["gain-1e6", "gain-5e4-a-1e3", "gain-5e3-a-1e300",
                              "plant-and-error", "a-1e100-no-noise",
                              "gain-1e6-no-delay"])
def test_divergence_step_is_the_first_non_finite_row(config, duration):
    # The reference loop runs on through overflow, so its first row holding
    # a value that is not finite, and that row's first such column, are
    # where the run diverged.
    scenario = Scenario(duration=duration)
    ref = ~np.isfinite(reference_run(config, scenario))
    step = int(ref.any(axis=1).argmax())
    assert ref[step].any()
    with pytest.raises(DivergedError) as excinfo:
        run_scenario(config, scenario)
    assert (excinfo.value.step, excinfo.value.signal) == \
        (step, TRACE_COLUMNS[int(ref[step].argmax())])


@pytest.mark.parametrize("field", ["amplitude", "frequency"])
@pytest.mark.parametrize("first", [0.0, -0.0], ids=["+0 first", "-0 first"])
def test_signed_zero_disturbances_do_not_alias(field, first):
    # The two configurations compare equal, so the plan cache, keyed on
    # equality, hands the second run the first one's plan.  That is sound
    # only because a parameter set stores a zero as +0.0: both must run as
    # +0.0, cold and warm, whichever comes first.
    scenario = Scenario(duration=0.2)
    configs = [LoopConfig(disturbance=replace(DISTURBANCE, **{field: zero}))
               for zero in (first, -first)]
    assert configs[0] == configs[1]
    cold = []
    for config in configs:
        _clear_caches()
        cold.append(run_scenario(config, scenario))
    assert [math.copysign(1.0, trace.d_t[1]) for trace in cold] == [1.0, 1.0]
    warm = [run_scenario(config, scenario) for config in configs]
    assert len({_bytes(trace) for trace in cold + warm}) == 1


def test_mixed_runs_in_any_order_give_the_same_traces():
    base = LoopConfig(disturbance=DISTURBANCE)
    configs = [base,
               replace(base, kalman=KalmanParams(q_rate=0.05)),
               replace(base, kalman=KalmanParams(q_omega=0.0)),
               replace(base, kalman=KalmanParams(q_omega=-0.0)),
               replace(base, kalman=KalmanParams(enabled=False)),
               replace(base, plant=PitchPlantParams(J_z=30.0)),
               replace(base, disturbance=DisturbanceParams(0.5, 2.0)),
               replace(base, disturbance=DisturbanceParams(0.5, 2))]
    runs = [(config, Scenario(duration=0.5)) for config in configs]
    runs[1:1] = [(base, Scenario(duration=0.3)),
                 (base, Scenario(duration=0.5, dt=0.0005))]
    cold = []
    for config, scenario in runs:
        _clear_caches()
        cold.append(_bytes(run_scenario(config, scenario)))
    forwards = [_bytes(run_scenario(*run)) for run in runs]
    backwards = [_bytes(run_scenario(*run)) for run in reversed(runs)][::-1]
    assert forwards == cold
    assert backwards == cold


def _negative_amplitude():
    # Validation refuses amplitude < 0; a parameter set built past it shows
    # that a zero keeps its sign: -2.0 * sin(0.0) is -0.0.
    params = DisturbanceParams(frequency=3.0)
    object.__setattr__(params, "amplitude", -2.0)
    return params


@pytest.mark.parametrize("disturbance, dt", [
    (DisturbanceParams(), 0.001),
    (_negative_amplitude(), 0.001),
    (DisturbanceParams(amplitude=0.0, frequency=7.0), 0.001),
    (DisturbanceParams(amplitude=1.5, frequency=1e4), 0.001),
    (DISTURBANCE, 0.005)],
    ids=["default", "negative-amplitude", "zero-amplitude", "1e4-rad-s",
         "dt-5ms"])
def test_plan_sine_is_disturbance_at_bit_for_bit(disturbance, dt):
    _clear_caches()
    t, d_sin, *_ = _plan(dt, 2001, disturbance, PitchPlantParams(),
                         KalmanParams())
    expected = np.array(disturbance_at(disturbance, t.tolist()))
    assert d_sin.dtype == np.float64
    assert np.array_equal(d_sin.view(np.int64), expected.view(np.int64))


def test_plan_arrays_are_read_only():
    # Runs of one configuration share the plan, so no run may write to it.
    _clear_caches()
    t, d_sin, d_cos, *_ = _plan(0.001, 11, DISTURBANCE, PitchPlantParams(),
                                KalmanParams())
    for shared in (t, d_sin, d_cos):
        with pytest.raises(ValueError, match="read-only"):
            shared[0] = 1.0
