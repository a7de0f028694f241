"""Discrete-time signal blocks of the autopilot loop.

Each block owns its own mutable state and is advanced a window of steps
per call: its per-step method takes a sequence with one input per step and
returns a list with one output per step, running the same recursion over
local variables as a one-step call would.  Any split of the inputs into
windows gives the same outputs and end state; build a fresh set per run.
The exception is the noise, which no loop signal reaches: `NoiseSource`
holds no state and draws a whole run's noise in one call.

What no measurement or control reaches is computed once per configuration
instead: the Kalman filter's covariance recursion fills a `GainSchedule`,
which `gain_schedule` keeps for the next filter with the same parameters,
so a filter's step only updates its state.

Step methods do not check their inputs: a non-finite value runs through the
recursion like any other, and `engine.run_scenario`, which scans every
window's signals, decides where a run diverged.

Every coefficient a block reads per step is a Python float, converted once
in `__init__`: a numpy scalar would send each step's arithmetic through
numpy's scalar machinery, about twice as slow as Python's float path.
"""

import functools
import math
from array import array
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .errors import (ConfigError, DomainError, NonNegative, Nonzero, Params,
                     Positive)


@dataclass(frozen=True)
class PidGains(Params):
    """Parallel PID gains plus first-order derivative-filter time constant."""

    k_p: float = 44.0
    k_i: float = 23.4
    k_d: float = 24.0
    tau_f: NonNegative = 0.055   # derivative filter time constant (s)


@dataclass(frozen=True)
class CompensatorParams(Params):
    """Phase-lead network (a·T·s + 1)/(T·s + 1)."""

    a: Positive = 11.0
    T: Positive = 0.01
    enabled: bool = True


@dataclass(frozen=True)
class ActuatorParams(Params):
    """2nd-order servo n·wn²/(s² + 2·mu·wn·s + wn²) with transport delay tau."""

    gain: Nonzero = 7.0
    wn: Positive = 50.0
    mu: Positive = 0.5
    tau: NonNegative = 0.1


@dataclass(frozen=True)
class NoiseParams(Params):
    """Zero-order-hold white measurement noise."""

    enabled: bool = True
    variance: NonNegative = 0.1     # deg²
    sample_time: Positive = 0.01   # hold interval (s)


@dataclass(frozen=True)
class DisturbanceParams(Params):
    """Sinusoidal disturbance torque amplitude·sin(frequency·t)."""

    amplitude: NonNegative = 1.0
    frequency: NonNegative = 1.0   # rad/s


@dataclass(frozen=True)
class KalmanParams(Params):
    """2-state pitch/pitch-rate filter tuning."""

    enabled: bool = True
    q_omega: NonNegative = 1e-4   # process noise intensity on pitch
    q_rate: NonNegative = 1e-2    # process noise intensity on pitch rate
    r: Positive = 0.1             # measurement variance (deg²)


@dataclass(frozen=True)
class PitchPlantParams(Params):
    """Rotational plant: J_z·w_ddot = delta - lam·w_dot - d."""

    J_z: Positive = 40.0     # moment of inertia (loop units)
    lam: NonNegative = 6.0   # aerodynamic resistance (torque per unit rate)

    def model(self):
        """(A, B) of x' = A·x + B·u on x = [pitch, rate], u = net torque."""
        return (np.array([[0.0, 1.0], [0.0, -self.lam / self.J_z]]),
                np.array([0.0, 1.0 / self.J_z]))


def _zoh(A, B, dt):
    """Exact zero-order-hold discretization (Ad, Bd) of x' = A·x + B·u, from
    one matrix exponential of [[A, B], [0, 0]]·dt (Van Loan 1978)."""
    if not dt > 0:
        raise ConfigError("dt must be > 0")
    # expm picks its scaling from the norm of the whole matrix, so a B far
    # above A costs Ad its accuracy: hold B scaled down by an exact power of
    # two and scale Bd, which is linear in B, back up.
    e_A = math.frexp(max(float(np.max(np.abs(A))), 1.0))[1]
    e_B = math.frexp(float(np.max(np.abs(B))))[1]
    shift = max(0, e_B - e_A - 32)
    n = len(B)
    M = np.zeros((n + 1, n + 1))
    M[:n, :n] = A
    M[:n, n] = np.ldexp(B, -shift)
    with np.errstate(over="ignore", invalid="ignore"):
        Md = expm(M * dt)
        Ad, Bd = Md[:n, :n], np.ldexp(Md[:n, n], shift)
    if not (np.isfinite(Ad).all() and np.isfinite(Bd).all()):
        raise ConfigError(f"no finite zero-order hold of A={A.tolist()},"
                          f" B={B.tolist()} at dt={dt}")
    return Ad, Bd


def plant_step(plant: PitchPlantParams, disturbance: DisturbanceParams, dt):
    """Exact ZOH map of the plant and the disturbance oscillator s' = f·c,
    c' = -f·s (Van Loan 1978): two rows of floats give the pitch increment
    and next rate from (rate, delta, amp·sin(f·t), amp·cos(f·t)) at the
    step start."""
    A, B = plant.model()
    f = float(disturbance.frequency)
    Ae = np.zeros((4, 4))
    Ae[:2, :2] = A
    Ae[:2, 2] = -B
    Ae[2, 3], Ae[3, 2] = f, -f
    Ad, Bd = _zoh(Ae, np.concatenate((B, [0.0, 0.0])), dt)
    return np.column_stack((Ad[:2, 1], Bd[:2], Ad[:2, 2:])).tolist()


def finite_prefix(values):
    """Number of leading finite entries of the sequence `values`."""
    # One C-level sum clears the common all-finite case: an inf or nan entry
    # always makes the sum non-finite (the converse can fail by overflow).
    if math.isfinite(sum(values)):
        return len(values)
    return next((i for i, v in enumerate(values) if not math.isfinite(v)),
                len(values))


def cache_last(build):
    """`build` with its last result kept: a call whose arguments have the
    same reprs as the last call's returns that result without building.
    Keying on repr, not on equality, keeps apart values that compare equal
    but compute differently (0.0 and -0.0, 1 and 1.0).  Like
    functools.lru_cache(maxsize=1), the wrapper has `cache_clear`."""
    last = {}

    @functools.wraps(build)
    def cached(*args):
        key = tuple(map(repr, args))
        if key not in last:
            last.clear()
            last[key] = build(*args)
        return last[key]

    cached.cache_clear = last.clear
    return cached


@cache_last
def gain_schedule(params: KalmanParams, plant: PitchPlantParams, dt):
    """The `GainSchedule` of these parameters, shared by every filter that
    uses them until another set is asked for."""
    return GainSchedule(params, plant, dt)


def _steps(value, dt, what):
    """value/dt as an int; ConfigError unless it is a whole number of steps."""
    if not dt > 0:
        raise ConfigError("dt must be > 0")
    ratio = value / dt
    n = round(ratio) if math.isfinite(ratio) else 0
    # A positive value must span at least one step; a step count past the
    # float range is taken as none.
    if abs(ratio - n) > 1e-9 * max(1.0, ratio) or n == 0 < value:
        raise ConfigError(
            f"{what}={value} is not an integer multiple of dt={dt}")
    return n


class Pid:
    """Parallel PID with trapezoidal integral and filtered derivative.

    The derivative acts on the error; its first-order filter uses
    alpha = dt/(tau_f + dt), which reduces to a raw finite difference at
    tau_f = 0.  The previous error starts at zero, so a nonzero initial
    error produces the usual derivative kick on the first step.
    """

    def __init__(self, gains: PidGains, dt):
        if not dt > 0:
            raise ConfigError("dt must be > 0")
        self.k_p, self.k_i, self.k_d = (
            float(gains.k_p), float(gains.k_i), float(gains.k_d))
        self.dt = float(dt)
        self.alpha = float(dt / (gains.tau_f + dt))
        self.integral = 0.0
        self.d_filt = 0.0
        self.prev_error = 0.0

    def step(self, errors):
        """Controller output for each error of the window."""
        k_p, k_i, k_d = self.k_p, self.k_i, self.k_d
        dt, alpha = self.dt, self.alpha
        integral, d_filt, prev = self.integral, self.d_filt, self.prev_error
        out = []
        for error in errors:
            integral += 0.5 * (error + prev) * dt
            d_filt += alpha * ((error - prev) / dt - d_filt)
            prev = error
            out.append(k_p * error + k_i * integral + k_d * d_filt)
        self.integral, self.d_filt, self.prev_error = integral, d_filt, prev
        return out


class Lead:
    """Bilinear discretization of the lead network (a·T·s + 1)/(T·s + 1).

    The trapezoidal map preserves the unit DC gain exactly; the
    instantaneous gain tends to `a` as dt -> 0.
    """

    def __init__(self, params: CompensatorParams, dt):
        if not dt > 0:
            raise ConfigError("dt must be > 0")
        if dt > params.T / 2:
            raise ConfigError(
                f"dt={dt} too coarse for lead time constant T={params.T}"
                " (need dt <= T/2)")
        c = 2.0 * params.T / dt
        self.b0 = float(params.a * c + 1.0)
        self.b1 = float(1.0 - params.a * c)
        self.a0 = float(c + 1.0)
        self.a1 = float(1.0 - c)
        self.u_prev = 0.0
        self.y_prev = 0.0

    def step(self, inputs):
        """Filter output for each input of the window."""
        b0, b1, a0, a1 = self.b0, self.b1, self.a0, self.a1
        u_prev, y = self.u_prev, self.y_prev
        out = []
        for u in inputs:
            y = (b0 * u + b1 * u_prev - a1 * y) / a0
            u_prev = u
            out.append(y)
        self.u_prev, self.y_prev = u_prev, y
        return out


class Actuator:
    """2nd-order servo advanced by exact zero-order-hold, then a pure delay.

    The delay line holds tau/dt servo outputs, preloaded with zeros (the
    servo starts at rest), so the output is zero for exactly tau seconds
    regardless of the input.  A line longer than `run_steps`, the steps the
    block will run, only outputs its preload.
    """

    def __init__(self, params: ActuatorParams, dt, run_steps=math.inf):
        wn2 = params.wn * params.wn   # `**` raises OverflowError past 1e154
        A = np.array([[0.0, 1.0], [-wn2, -2.0 * params.mu * params.wn]])
        B = np.array([0.0, params.gain * wn2])
        Ad, Bd = _zoh(A, B, dt)
        n_slots = min(_steps(params.tau, dt, "actuator delay tau"), run_steps)
        (self.a00, self.a01), (self.a10, self.a11) = Ad.tolist()
        self.b_0, self.b_1 = Bd.tolist()
        self.x0 = self.x1 = 0.0
        self._line = [0.0] * n_slots

    @property
    def pending(self):
        """The delay line, oldest first: the deflections the next tau/dt
        steps will output, whatever their commands."""
        return tuple(self._line)

    def step(self, commands):
        """Delayed servo output for each command of the window."""
        a00, a01, a10, a11 = self.a00, self.a01, self.a10, self.a11
        b_0, b_1 = self.b_0, self.b_1
        x0, x1 = self.x0, self.x1
        servo = []
        for u in commands:
            x0, x1 = (a00 * x0 + a01 * x1 + b_0 * u,
                      a10 * x0 + a11 * x1 + b_1 * u)
            servo.append(x0)
        self.x0, self.x1 = x0, x1
        line = self._line + servo
        self._line = line[len(servo):]
        return line[:len(servo)]


class Kalman:
    """Linear 2-state filter on [pitch, pitch rate].

    The prediction model is the exact zero-order-hold discretization of the
    undisturbed rotational plant driven by the deflection torque, so with
    noise disabled the filter is transparent to machine precision.  Its
    covariance and gains do not depend on the measurements: the filter
    reads them from the `GainSchedule` of its parameters and updates only
    its state.  The first measurement is taken at the initial state, so the
    first update has no prediction.
    """

    def __init__(self, params: KalmanParams, plant: PitchPlantParams, dt,
                 initial_pitch=0.0):
        self.schedule = gain_schedule(params, plant, dt)
        self.f01, self.f11 = self.schedule.f01, self.schedule.f11
        self.g0, self.g1 = self.schedule.g0, self.schedule.g1
        self.x0 = float(initial_pitch)
        self.x1 = 0.0
        self.updates = 0

    def step(self, measurements, controls):
        """Per step, predict with the control torque held over the step,
        then update with the measurement; returns the filtered pitches.
        The first update of the filter reads no control."""
        start = self.updates
        self.updates = start + len(measurements)
        k0s, k1s = self.schedule.gains(start, self.updates)
        f01, f11, g0, g1 = self.f01, self.f11, self.g0, self.g1
        x0, x1 = self.x0, self.x1
        out = []
        if start == 0 and measurements:
            innov = measurements[0] - x0
            x0 += k0s[0] * innov
            x1 += k1s[0] * innov
            out.append(x0)
            measurements, controls = measurements[1:], controls[1:]
            k0s, k1s = k0s[1:], k1s[1:]
        for measurement, control, k0, k1 in zip(measurements, controls,
                                                k0s, k1s):
            x0 += f01 * x1 + g0 * control
            x1 = f11 * x1 + g1 * control
            innov = measurement - x0
            x0 += k0 * innov
            x1 += k1 * innov
            out.append(x0)
        self.x0, self.x1 = x0, x1
        return out


class GainSchedule:
    """Gains of a `Kalman` filter's successive updates.

    Entry j of `k0`, `k1` is update j's gain on pitch and on rate.  The
    covariance starts at the identity, and every update after the first
    predicts before it updates, as the filter does; `p` is (p00, p01, p11)
    after the last update computed.  Entries are computed when first asked
    for and appended, never changed, so filters can share a schedule.  The
    tables are `array('d')`: 8 bytes an entry, grown in place to the
    length asked for.
    """

    def __init__(self, params: KalmanParams, plant: PitchPlantParams, dt):
        Ad, Bd = _zoh(*plant.model(), dt)
        # The transition matrix is upper triangular for this plant; keep the
        # recursion in scalar form so a 10^4-step schedule stays cheap.
        (_, self.f01), (_, self.f11) = Ad.tolist()
        self.g0, self.g1 = Bd.tolist()
        self.q00 = float(params.q_omega * dt)
        self.q11 = float(params.q_rate * dt)
        self.r = float(params.r)
        self.k0, self.k1 = array("d"), array("d")
        self.p = (1.0, 0.0, 1.0)

    def gains(self, start, stop):
        """(k0 list, k1 list) of updates start .. stop - 1."""
        if stop > len(self.k0):
            self._extend(stop)
        return self.k0[start:stop].tolist(), self.k1[start:stop].tolist()

    def _extend(self, count):
        """Compute entries up to `count`: the filter's covariance recursion."""
        f01, f11, q00, q11, r = self.f01, self.f11, self.q00, self.q11, self.r
        p00, p01, p11 = self.p
        k0s, k1s = self.k0.append, self.k1.append
        for j in range(len(self.k0), count):
            if j:
                p01f = p01 + f01 * p11
                p00 += f01 * p01 + f01 * p01f + q00
                p01 = p01f * f11
                p11 = f11 * f11 * p11 + q11
            S = p00 + r
            k0 = p00 / S
            k1 = p01 / S
            p11 -= k1 * p01
            p00 *= 1.0 - k0
            p01 *= 1.0 - k0
            k0s(k0)
            k1s(k1)
        self.p = p00, p01, p11


class NoiseSource:
    """Zero-order-hold white noise, deterministic for a given seed."""

    def __init__(self, params: NoiseParams, dt, seed):
        self.hold = _steps(params.sample_time, dt, "noise sample_time")
        self.sigma = math.sqrt(params.variance)
        self.enabled = params.enabled and params.variance > 0
        self.seed = seed

    def sample(self, count):
        """Noise of the run's first `count` steps, drawn afresh every `hold`
        steps by one `normal` call (the same numbers as one call per draw)
        of a generator seeded anew, so equal calls give equal lists."""
        if not self.enabled:
            return [0.0] * count
        draws = np.random.default_rng(self.seed).normal(
            0.0, self.sigma, size=-(-count // self.hold))
        return np.repeat(draws, self.hold)[:count].tolist()


def disturbance_at(params: DisturbanceParams, times):
    """Disturbance torque amplitude·sin(frequency·t) at each time t >= 0 of
    the sequence `times`."""
    first = min(times, default=0.0)
    if first < 0:
        raise DomainError(f"t must be >= 0, got {first}")
    amp, freq = float(params.amplitude), float(params.frequency)
    return [amp * math.sin(freq * t) for t in times]
