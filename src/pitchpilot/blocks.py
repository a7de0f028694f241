"""Discrete-time signal blocks of the autopilot loop.

Each block owns its own mutable state and is advanced a window of steps
per call: its per-step method takes a sequence with one input per step and
returns a list with one output per step, running the same recursion over
local variables as a one-step call would.  Any split of the inputs into
windows gives the same outputs and end state; build a fresh set per run.
The exception is the noise, which no loop signal reaches: `NoiseSource`
holds no state and draws a whole run's noise in one call.

The Kalman filter's covariance reaches no measurement or control, so its
recursion runs once, in the constructor of an immutable `GainSchedule`,
and a filter's step only updates its state from the gains it is given.
`engine._plan` holds one schedule per configuration; the blocks keep no
cache, so each `Actuator` computes its servo's hold afresh.

Step methods do not check their inputs: a non-finite value runs through the
recursion like any other, and `engine.run_scenario`, which checks every
signal it records, decides where a run diverged.

Every coefficient a block reads per step is a Python float, because
`errors.Params` stores real fields as floats, each block takes its step size
as `float(dt)` and the holds are floats in tuples and lists: a
numpy scalar would send each step's arithmetic through numpy's scalar
machinery, about twice as slow as Python's float path.
"""

import math
import operator
from array import array
from dataclasses import dataclass

import numpy as np

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


# Higham's bound on the 1-norm of the argument up to which the Padé
# approximant of degree m is exact to double precision (SIAM J. Matrix
# Anal. Appl. 26, 2005, Table 2.3).
_THETA = ((3, 1.495585217958292e-2), (5, 2.539398330063230e-1),
          (7, 9.504178996162932e-1), (9, 2.097847961257068e0),
          (13, 5.371920351148152e0))


def _sum(terms):
    """The terms added left to right: the builtin `sum` compensates from
    Python 3.12 on, so its bits would depend on the interpreter."""
    total = 0.0
    for term in terms:
        total += term
    return total


def _dot(u, v):
    return _sum(map(operator.mul, u, v))


def _mul(X, Y):
    """X·Y of square matrices held as lists of rows."""
    columns = list(zip(*Y))
    return [[_dot(row, column) for column in columns] for row in X]


def _solve(P, Q):
    """P⁻¹·Q by Gaussian elimination with partial pivoting."""
    n = len(P)
    rows = [p + q for p, q in zip(P, Q)]
    for k in range(n):
        pivot = max(range(k, n), key=lambda i: abs(rows[i][k]))
        rows[k], rows[pivot] = rows[pivot], rows[k]
        top = rows[k]
        for i in range(k + 1, n):
            f = rows[i][k] / top[k]
            rows[i] = [a - f * b for a, b in zip(rows[i], top)]
    X = [None] * n
    for k in reversed(range(n)):
        row = rows[k]
        X[k] = [(row[n + j] - _dot(row[k + 1:n], [x[j] for x in X[k + 1:]]))
                / row[k] for j in range(n)]
    return X


def _balance(M):
    """(D⁻¹·M·D, e) with D = diag(2**e) chosen so that each state's row and
    column have norms within a factor of two where both are nonzero
    (Parlett & Reinsch 1969, radix 2): powers of two scale exactly."""
    n = len(M)
    M = [row[:] for row in M]
    e = [0] * n
    done = False
    while not done:
        done = True
        for i in range(n):
            c = _sum(abs(M[j][i]) for j in range(n) if j != i)
            r = _sum(abs(x) for j, x in enumerate(M[i]) if j != i)
            if c == 0 or r == 0:
                continue
            f, before = 0, c + r
            while c < r / 2:
                f, c = f + 1, c * 4
            while c >= r * 2:
                f, c = f - 1, c / 4
            if math.ldexp(c + r, -f) < 0.95 * before:
                done = False
                e[i] += f
                for j in range(n):
                    M[i][j] = math.ldexp(M[i][j], -f)
                    M[j][i] = math.ldexp(M[j][i], f)
    return M, e


def _expm(M):
    """exp(M) of a square matrix held as a list of rows of floats, by
    scaling and squaring with the Padé degree that Higham's bounds pick.
    It exponentiates the balanced D⁻¹·M·D, so that no entry far below the
    others is lost, and returns D·exp(D⁻¹·M·D)·D⁻¹, undone by `ldexp`."""
    n = len(M)
    A, e = _balance(M)
    norm = max(_sum(map(abs, column)) for column in zip(*A))
    squarings = 0
    for m, theta in _THETA:
        if norm <= theta:
            break
    else:
        squarings = math.frexp(norm / theta)[1]
        A = [[math.ldexp(x, -squarings) for x in row] for row in A]
    # The approximant's numerator is sum b_j·A^j; U and V, its odd and even
    # parts, come from the even powers of A up to the degree.
    f = math.factorial
    b = [f(2 * m - j) / (f(j) * f(m - j)) for j in range(m + 1)]
    identity = [[float(i == j) for j in range(n)] for i in range(n)]
    powers = [identity, _mul(A, A)]
    while len(powers) <= m // 2:
        powers.append(_mul(powers[-1], powers[1]))

    def part(first):
        return [[_dot(b[first::2], [p[i][j] for p in powers])
                 for j in range(n)] for i in range(n)]

    U, V = _mul(A, part(1)), part(0)
    E = _solve([[v - u for u, v in zip(us, vs)] for us, vs in zip(U, V)],
               [[v + u for u, v in zip(us, vs)] for us, vs in zip(U, V)])
    for _ in range(squarings):
        E = _mul(E, E)
    return [[math.ldexp(x, e[i] - e[j]) for j, x in enumerate(row)]
            for i, row in enumerate(E)]


def _zoh(A, B, dt, *params):
    """Exact zero-order-hold discretization (Ad, Bd) of x' = A·x + B·u, from
    one matrix exponential of [[A, B], [0, 0]]·dt (Van Loan 1978), computed
    in Python floats, so its bits depend on no BLAS.  A (rows of floats) and
    B (floats) give fresh lists Ad and Bd.  A hold that is not finite, or
    whose matrix holds an entry of 2**53 or more, is a ConfigError naming
    `params`, the sets A and B came from."""
    dt, n = _step_size(dt), len(B)
    refused = ConfigError(f"no finite zero-order hold of"
                          f" {', '.join(map(repr, params))} at dt={dt}")
    # exp scales by the norm of the whole matrix, so a B far from A would
    # cost Ad its accuracy: hold B at A's scale by an exact power of two and
    # scale Bd, which is linear in B, back.
    shift = (math.frexp(max(map(abs, B)))[1]
             - math.frexp(max(abs(a) for row in A for a in row))[1])
    try:
        M = [[a * dt for a in row] + [math.ldexp(b, -shift) * dt]
             for row, b in zip(A, B)]
        # Past 2**53 the spacing of floats is 2 or more, so the rounding
        # of M·dt alone may move an entry, such as a phase advance per
        # step, by a whole unit: no float hold is then the hold.
        if not all(abs(x) < 2.0 ** 53 for row in M for x in row):
            raise refused
        E = _expm(M + [[0.0] * (n + 1)])
        Ad = [row[:n] for row in E[:n]]
        Bd = [math.ldexp(row[n], shift) for row in E[:n]]
    except OverflowError:   # a power of two past the float range
        raise refused from None
    if not all(math.isfinite(x) for row in Ad + [Bd] for x in row):
        raise refused
    return Ad, Bd


def plant_step(plant: PitchPlantParams, disturbance: DisturbanceParams, dt):
    """Exact zero-order-hold map of the plant J_z·w'' = delta - lam·w' - d,
    the one place its model is written, with d = amp·sin(f·t) carried as
    the oscillator s' = f·c, c' = -f·s (Van Loan 1978): two rows of floats
    give the pitch increment and next rate from (rate, delta, amp·sin(f·t),
    amp·cos(f·t)) at the step start.  Their first two columns, the plant
    block of the hold, are the undisturbed plant's own hold."""
    J, f = plant.J_z, disturbance.frequency
    Ad, Bd = _zoh(((0.0, 1.0, 0.0, 0.0), (0.0, -plant.lam / J, -1.0 / J, 0.0),
                   (0.0, 0.0, 0.0, f), (0.0, 0.0, -f, 0.0)),
                  (0.0, 1.0 / J, 0.0, 0.0), dt, plant, disturbance)
    return [[row[1], u, row[2], row[3]] for row, u in zip(Ad, Bd[:2])]


def _step_size(dt):
    """dt as a float, the type every coefficient derived from it must have;
    ConfigError unless dt > 0."""
    if not dt > 0:
        raise ConfigError("dt must be > 0")
    return float(dt)


def _steps(value, dt, what):
    """value/dt as an int; ConfigError unless it is a whole number of steps."""
    ratio = value / _step_size(dt)
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
        self.k_p, self.k_i, self.k_d = gains.k_p, gains.k_i, gains.k_d
        self.dt = dt = _step_size(dt)
        self.alpha = dt / (gains.tau_f + dt)
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
        dt = _step_size(dt)
        if dt > params.T / 2:
            raise ConfigError(
                f"dt={dt} too coarse for lead time constant T={params.T}"
                " (need dt <= T/2)")
        c = 2.0 * params.T / dt
        self.b0 = params.a * c + 1.0
        self.b1 = 1.0 - params.a * c
        self.a0 = c + 1.0
        self.a1 = 1.0 - c
        # As with a hold `_zoh` refuses, no step could be computed: a
        # configuration error, not a divergence at step 0.
        if not all(map(math.isfinite, (self.b0, self.b1, self.a0, self.a1))):
            raise ConfigError(f"no finite bilinear map of {params!r}"
                              f" at dt={dt}")
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
    regardless of the input; it is cut at `run_steps`, the steps the block
    will run.  `fixed` reports the deflections no later command can change.
    """

    def __init__(self, params: ActuatorParams, dt, run_steps):
        wn2 = params.wn * params.wn   # `**` raises OverflowError past 1e154
        Ad, Bd = _zoh(((0.0, 1.0), (-wn2, -2.0 * params.mu * params.wn)),
                      (0.0, params.gain * wn2), dt, params)
        n_slots = min(_steps(params.tau, dt, "actuator delay tau"), run_steps)
        (self.a00, self.a01), (self.a10, self.a11) = Ad
        self.b_0, self.b_1 = Bd
        self.x0 = self.x1 = 0.0
        self._fixed = [0.0] * (n_slots + 1)

    @property
    def fixed(self):
        """The last output (0.0 before any), then the line, oldest first."""
        return tuple(self._fixed)

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
        line = self._fixed + servo
        self._fixed = line[len(servo):]
        return line[1:len(servo) + 1]


class GainSchedule:
    """Gains of the first `count` updates of a `Kalman` filter, computed by
    the constructor and never changed, so filters can share a schedule.

    The prediction model is the undisturbed plant's own hold, the first two
    columns of the `rows` of `plant_step`: `f01`, `f11` its transition on
    [pitch, pitch rate], `g0`, `g1` its input.  The identity is the
    covariance of the first prediction; every later update predicts its
    covariance from the last update's.  Entry j of the `array('d')` tables
    `k0`, `k1` is update j's gain on pitch and on rate; `p` is (p00, p01,
    p11) after the last update.
    """

    def __init__(self, params: KalmanParams, rows, dt, count):
        dt = _step_size(dt)
        (f01, g0, _, _), (f11, g1, _, _) = rows
        self.f01, self.f11, self.g0, self.g1 = f01, f11, g0, g1
        q00, q11, r = params.q_omega * dt, params.q_rate * dt, params.r
        self.k0, self.k1 = array("d"), array("d")
        k0s, k1s = self.k0.append, self.k1.append
        p00, p01, p11 = 1.0, 0.0, 1.0
        for j in range(count):
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


class Kalman:
    """Linear 2-state filter on [pitch, pitch rate] with the gains of a
    `GainSchedule`.  It updates only its state, which starts at rest at
    `initial_pitch`; each update predicts with its control and the plant's
    own hold, then corrects with its measurement, so on a noise-free,
    undisturbed plant its estimate is the true pitch bit for bit.
    """

    def __init__(self, schedule: GainSchedule, initial_pitch=0.0):
        self.schedule = schedule
        self.x0 = initial_pitch
        self.x1 = 0.0
        self.updates = 0

    def step(self, measurements, controls):
        """Per step, predict with the control torque held over the step,
        then update with the measurement, the first update too; returns the
        filtered pitches.  ValueError, with the filter unchanged, unless
        there is one control per measurement and the schedule holds a gain
        for each."""
        schedule, start = self.schedule, self.updates
        stop = start + len(measurements)
        k0s = schedule.k0[start:stop].tolist()
        k1s = schedule.k1[start:stop].tolist()
        f01, f11, g0, g1 = schedule.f01, schedule.f11, schedule.g0, schedule.g1
        x0, x1 = self.x0, self.x1
        out = []
        for measurement, control, k0, k1 in zip(measurements, controls,
                                                k0s, k1s, strict=True):
            x0 += f01 * x1 + g0 * control
            x1 = f11 * x1 + g1 * control
            innov = measurement - x0
            x0 += k0 * innov
            x1 += k1 * innov
            out.append(x0)
        self.x0, self.x1, self.updates = x0, x1, stop
        return out


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
        of a generator seeded anew, so equal calls give equal lists.  A hold
        past the run is one draw held to its end."""
        if not self.enabled:
            return [0.0] * count
        draws = np.random.default_rng(self.seed).normal(
            0.0, self.sigma, size=-(-count // self.hold))
        return np.repeat(draws, min(self.hold, count))[:count].tolist()


def disturbance_at(params: DisturbanceParams, times):
    """Disturbance torque amplitude·sin(frequency·t) at each time t >= 0 of
    the sequence `times`."""
    first = min(times, default=0.0)
    if first < 0:
        raise DomainError(f"t must be >= 0, got {first}")
    amp, freq = params.amplitude, params.frequency
    return [amp * math.sin(freq * t) for t in times]
