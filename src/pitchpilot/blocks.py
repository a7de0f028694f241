"""Discrete-time signal blocks of the autopilot loop.

Each block owns its own mutable state and is advanced once per simulation
step.  Instances are cheap; build a fresh set per run and never share them
across runs.

Every coefficient a block reads per step is a Python float, converted once
in `__init__`: a numpy scalar would send each step's arithmetic through
numpy's scalar machinery, about twice as slow as Python's float path.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .errors import ConfigError, DomainError


@dataclass(frozen=True)
class PidGains:
    """Parallel PID gains plus first-order derivative-filter time constant."""

    k_p: float = 44.0
    k_i: float = 23.4
    k_d: float = 24.0
    tau_f: float = 0.055   # derivative filter time constant (s)

    def __post_init__(self):
        for name in ("k_p", "k_i", "k_d", "tau_f"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"PidGains.{name} must be finite")
        if self.tau_f < 0:
            raise DomainError("tau_f must be >= 0")


@dataclass(frozen=True)
class CompensatorParams:
    """Phase-lead network (a·T·s + 1)/(T·s + 1)."""

    a: float = 11.0
    T: float = 0.01
    enabled: bool = True

    def __post_init__(self):
        check_flag(self.enabled)
        if not (self.a > 0 and self.T > 0):
            raise DomainError("compensator a and T must be > 0")


@dataclass(frozen=True)
class ActuatorParams:
    """2nd-order servo n·wn²/(s² + 2·mu·wn·s + wn²) with transport delay tau."""

    gain: float = 7.0
    wn: float = 50.0
    mu: float = 0.5
    tau: float = 0.1

    def __post_init__(self):
        if not (self.wn > 0 and self.mu > 0):
            raise DomainError("wn and mu must be > 0")
        if self.tau < 0:
            raise DomainError("tau must be >= 0")
        if self.gain == 0:
            raise DomainError("gain must be nonzero")


@dataclass(frozen=True)
class NoiseParams:
    """Zero-order-hold white measurement noise."""

    enabled: bool = True
    variance: float = 0.1     # deg²
    sample_time: float = 0.01  # hold interval (s)
    seed: int | None = None   # None -> use the scenario seed

    def __post_init__(self):
        check_flag(self.enabled)
        if self.variance < 0:
            raise DomainError("noise variance must be >= 0")
        if not self.sample_time > 0:
            raise DomainError("noise sample_time must be > 0")
        if self.seed is not None:
            check_seed(self.seed)


@dataclass(frozen=True)
class DisturbanceParams:
    """Sinusoidal disturbance torque amplitude·sin(frequency·t)."""

    amplitude: float = 1.0
    frequency: float = 1.0   # rad/s

    def __post_init__(self):
        if self.amplitude < 0 or self.frequency < 0:
            raise DomainError("disturbance amplitude and frequency must be >= 0")


@dataclass(frozen=True)
class KalmanParams:
    """2-state pitch/pitch-rate filter tuning."""

    enabled: bool = True
    q_omega: float = 1e-4   # process noise intensity on pitch
    q_rate: float = 1e-2    # process noise intensity on pitch rate
    r: float = 0.1          # measurement variance (deg²)

    def __post_init__(self):
        check_flag(self.enabled)
        if self.q_omega < 0 or self.q_rate < 0:
            raise DomainError("process noise intensities must be >= 0")
        if not self.r > 0:
            raise ConfigError("measurement variance r must be > 0")


@dataclass(frozen=True)
class PitchPlantParams:
    """Rotational plant: J_z·w_ddot = delta - lam·w_dot - d."""

    J_z: float = 40.0   # moment of inertia (loop units)
    lam: float = 6.0    # aerodynamic resistance (torque per unit rate)

    def __post_init__(self):
        if not self.J_z > 0:
            raise DomainError(f"J_z must be > 0, got {self.J_z}")
        if self.lam < 0:
            raise DomainError(f"lam must be >= 0, got {self.lam}")

    def model(self):
        """(A, B) of x' = A·x + B·u on x = [pitch, rate], u = net torque."""
        return (np.array([[0.0, 1.0], [0.0, -self.lam / self.J_z]]),
                np.array([0.0, 1.0 / self.J_z]))


def check_seed(seed):
    """DomainError unless `seed` is a non-negative int."""
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise DomainError(f"seed must be a non-negative integer, got {seed!r}")


def check_flag(enabled):
    """DomainError unless `enabled` is a bool: a truthy string such as
    "maybe" must not switch a block on."""
    if not isinstance(enabled, bool):
        raise DomainError(f"enabled must be true or false, got {enabled!r}")


def check_real(value, name):
    """DomainError unless `value` is a finite real number (bool excluded)."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value)):
        raise DomainError(f"{name} must be a finite number, got {value!r}")


def _zoh(A, B, dt):
    """Exact zero-order-hold discretization (Ad, Bd) of x' = A·x + B·u."""
    if not dt > 0:
        raise ConfigError("dt must be > 0")
    n = len(B)
    M = np.zeros((n + 1, n + 1))
    M[:n, :n] = A
    M[:n, n] = B
    Md = expm(M * dt)
    return Md[:n, :n], Md[:n, n]


def plant_step(plant: PitchPlantParams, disturbance: DisturbanceParams, dt):
    """Exact ZOH map of the plant and the disturbance oscillator s' = f·c,
    c' = -f·s (Van Loan 1978): two rows of floats give the pitch increment
    and next rate from (rate, delta, amp·sin(f·t), amp·cos(f·t)) at the
    step start."""
    A, B = plant.model()
    f = disturbance.frequency
    Ae = np.zeros((4, 4))
    Ae[:2, :2] = A
    Ae[:2, 2] = -B
    Ae[2, 3], Ae[3, 2] = f, -f
    Ad, Bd = _zoh(Ae, np.concatenate((B, [0.0, 0.0])), dt)
    return np.column_stack((Ad[:2, 1], Bd[:2], Ad[:2, 2:])).tolist()


def _steps(value, dt, what):
    """value/dt as an int; ConfigError unless it is a whole number of steps."""
    ratio = value / dt
    n = round(ratio)
    if abs(ratio - n) > 1e-9 * max(1.0, ratio):
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

    def step(self, error):
        if not math.isfinite(error):
            raise ConfigError(f"non-finite PID error {error}")
        dt, prev = self.dt, self.prev_error
        self.integral += 0.5 * (error + prev) * dt
        self.d_filt += self.alpha * ((error - prev) / dt - self.d_filt)
        self.prev_error = error
        return (self.k_p * error + self.k_i * self.integral
                + self.k_d * self.d_filt)


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
        self.params = params
        c = 2.0 * params.T / dt
        self.b0 = float(params.a * c + 1.0)
        self.b1 = float(1.0 - params.a * c)
        self.a0 = float(c + 1.0)
        self.a1 = float(1.0 - c)
        self.u_prev = 0.0
        self.y_prev = 0.0

    def step(self, u):
        y = (self.b0 * u + self.b1 * self.u_prev - self.a1 * self.y_prev) / self.a0
        self.u_prev = u
        self.y_prev = y
        return y

    def freq_response(self, w):
        """Complex gain of the discrete filter at angular frequency w (rad/s)."""
        dt = 2.0 * self.params.T / (self.a0 - 1.0)
        z = np.exp(1j * w * dt)
        return (self.b0 * z + self.b1) / (self.a0 * z + self.a1)


class Actuator:
    """2nd-order servo advanced by exact zero-order-hold, then a pure delay.

    The delay is a ring buffer of tau/dt slots preloaded with the steady
    deflection for `initial` command, so the output holds that value for
    exactly tau seconds regardless of the input.
    """

    def __init__(self, params: ActuatorParams, dt, initial=0.0):
        self.params = params
        A = np.array([[0.0, 1.0],
                      [-params.wn ** 2, -2.0 * params.mu * params.wn]])
        B = np.array([0.0, params.gain * params.wn ** 2])
        Ad, Bd = _zoh(A, B, dt)
        n_slots = _steps(params.tau, dt, "actuator delay tau")
        (self.a00, self.a01), (self.a10, self.a11) = Ad.tolist()
        self.b_0, self.b_1 = Bd.tolist()
        steady = float(params.gain * initial)
        self.x0 = steady
        self.x1 = 0.0
        self.buf = [steady] * n_slots
        self.idx = 0

    def step(self, command):
        x0 = self.a00 * self.x0 + self.a01 * self.x1 + self.b_0 * command
        x1 = self.a10 * self.x0 + self.a11 * self.x1 + self.b_1 * command
        self.x0, self.x1 = x0, x1
        if not self.buf:
            return x0
        out = self.buf[self.idx]
        self.buf[self.idx] = x0
        self.idx = (self.idx + 1) % len(self.buf)
        return out


class Kalman:
    """Linear 2-state filter on [pitch, pitch rate].

    The prediction model is the exact zero-order-hold discretization of the
    undisturbed rotational plant driven by the deflection torque, so with
    noise disabled the filter is transparent to machine precision.
    """

    def __init__(self, params: KalmanParams, plant: PitchPlantParams, dt,
                 initial_pitch=0.0):
        Ad, Bd = _zoh(*plant.model(), dt)
        # The transition matrix is upper triangular for this plant; keep the
        # filter in scalar form so a 10^4-step run stays cheap.
        (_, self.f01), (_, self.f11) = Ad.tolist()
        self.g0, self.g1 = Bd.tolist()
        self.q00 = float(params.q_omega * dt)
        self.q11 = float(params.q_rate * dt)
        self.r = float(params.r)
        self.x0 = float(initial_pitch)
        self.x1 = 0.0
        self.p00, self.p01, self.p11 = 1.0, 0.0, 1.0

    @property
    def P(self):
        return np.array([[self.p00, self.p01], [self.p01, self.p11]])

    def assimilate(self, measurement):
        """Measurement update only (used for the initial sample)."""
        S = self.p00 + self.r
        k0 = self.p00 / S
        k1 = self.p01 / S
        innov = measurement - self.x0
        self.x0 += k0 * innov
        self.x1 += k1 * innov
        self.p11 -= k1 * self.p01
        self.p00 *= 1.0 - k0
        self.p01 *= 1.0 - k0
        return self.x0

    def step(self, measurement, control):
        """Predict with the given control torque, then update; returns pitch."""
        f01, f11 = self.f01, self.f11
        self.x0 += f01 * self.x1 + self.g0 * control
        self.x1 = f11 * self.x1 + self.g1 * control
        p01f = self.p01 + f01 * self.p11
        self.p00 += f01 * self.p01 + f01 * p01f + self.q00
        self.p01 = p01f * f11
        self.p11 = f11 * f11 * self.p11 + self.q11
        return self.assimilate(measurement)


class NoiseSource:
    """Zero-order-hold white noise, deterministic for a given seed."""

    def __init__(self, params: NoiseParams, dt, seed):
        self.hold = _steps(params.sample_time, dt, "noise sample_time")
        self.sigma = math.sqrt(params.variance)
        self.enabled = params.enabled and params.variance > 0
        self.rng = np.random.default_rng(seed)
        self.value = 0.0

    def sample(self, k):
        """Noise value for step index k; draws fresh at each hold boundary."""
        if not self.enabled:
            return 0.0
        if k % self.hold == 0:
            self.value = self.rng.normal(0.0, self.sigma)
        return self.value


def disturbance_at(params: DisturbanceParams, t):
    """Disturbance torque amplitude·sin(frequency·t) at time t >= 0."""
    if t < 0:
        raise DomainError(f"t must be >= 0, got {t}")
    return params.amplitude * math.sin(params.frequency * t)
