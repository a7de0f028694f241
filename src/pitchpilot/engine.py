"""Fixed-step simulation of the closed pitch-autopilot loop.

Per step the blocks advance in a fixed order: error -> PID -> lead ->
actuator -> plant -> noise -> Kalman.  The error junction uses the filtered
pitch produced by the previous step's filter stage (one-step computational
delay).  The plant advances by its exact zero-order-hold map, with the
sinusoidal disturbance carried as oscillator states, so its update has no
step-size limit; everything else is discrete-time.
"""

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .blocks import (Actuator, ActuatorParams, CompensatorParams,
                     DisturbanceParams, Kalman, KalmanParams, Lead,
                     NoiseParams, NoiseSource, Pid, PidGains,
                     PitchPlantParams, check_seed, disturbance_at, plant_step)
from .errors import ConfigError, DivergedError


@dataclass(frozen=True)
class LoopConfig:
    """Every block parameter of the autopilot loop."""

    pid: PidGains = field(default_factory=PidGains)
    compensator: CompensatorParams = field(default_factory=CompensatorParams)
    actuator: ActuatorParams = field(default_factory=ActuatorParams)
    plant: PitchPlantParams = field(default_factory=PitchPlantParams)
    disturbance: DisturbanceParams = field(default_factory=DisturbanceParams)
    noise: NoiseParams = field(default_factory=NoiseParams)
    kalman: KalmanParams = field(default_factory=KalmanParams)


@dataclass(frozen=True)
class Scenario:
    """Complete input to one run: boundary conditions, step size, seed."""

    initial: float = 10.0    # starting pitch (deg)
    command: float = 1.0     # commanded pitch (deg)
    duration: float = 10.0   # simulated time (s)
    dt: float = 0.001        # step size (s)
    seed: int = 0

    def __post_init__(self):
        if not self.duration > 0:
            raise ConfigError("duration must be > 0")
        if not 0 < self.dt <= self.duration:
            raise ConfigError("need 0 < dt <= duration")
        if self.dt > 0.005:
            raise ConfigError(
                f"dt={self.dt} too coarse for the 50 rad/s actuator"
                " (need dt <= 0.005)")
        check_seed(self.seed)


@dataclass(frozen=True)
class Trace:
    """Uniformly sampled record of every loop signal, one value per step."""

    t: np.ndarray
    cmd: np.ndarray
    omega: np.ndarray
    omega_dot: np.ndarray
    omega_meas: np.ndarray
    omega_filt: np.ndarray
    error: np.ndarray
    u_pid: np.ndarray
    u_lead: np.ndarray
    delta: np.ndarray
    d_t: np.ndarray

    def __len__(self):
        return len(self.t)

    def to_csv(self, path):
        """Write the trace as CSV with full-precision decimal values."""
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(TRACE_COLUMNS) + "\n")
            cols = [getattr(self, name) for name in TRACE_COLUMNS]
            for row in zip(*cols):
                fh.write(",".join(repr(float(v)) for v in row) + "\n")

    @classmethod
    def from_csv(cls, path):
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
            if tuple(header) != TRACE_COLUMNS:
                raise ConfigError(f"unexpected trace header {header}")
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        if data.shape[1] != len(TRACE_COLUMNS):
            raise ConfigError("trace column count mismatch")
        return cls(*data.T)


TRACE_COLUMNS = tuple(f.name for f in fields(Trace))


def run_scenario(config: LoopConfig, scenario: Scenario) -> Trace:
    """Simulate the closed loop once and return the full Trace.

    Deterministic given (config, scenario).  Raises DivergedError with the
    offending step index if any signal goes non-finite.
    """
    dt = scenario.dt
    n_steps = int(round(scenario.duration / dt))
    n = n_steps + 1
    rec = np.empty((n, len(TRACE_COLUMNS)))

    pid = Pid(config.pid, dt)
    lead = Lead(config.compensator, dt) if config.compensator.enabled else None
    act = Actuator(config.actuator, dt, initial=0.0)
    seed = config.noise.seed if config.noise.seed is not None else scenario.seed
    noise = NoiseSource(config.noise, dt, seed)
    kal = (Kalman(config.kalman, config.plant, dt, scenario.initial)
           if config.kalman.enabled else None)
    (p01, p0u, p0s, p0c), (p11, p1u, p1s, p1c) = plant_step(
        config.plant, config.disturbance, dt)
    amp, freq = config.disturbance.amplitude, config.disturbance.frequency

    omega = float(scenario.initial)
    omega_dot = 0.0
    cmd = float(scenario.command)

    # Measurement pipeline for the initial sample (update-only; prediction
    # starts with the first full step).
    meas = omega + noise.sample(0)
    filt = kal.assimilate(meas) if kal else meas

    # Overflow past the finiteness check below is reported as DivergedError,
    # so numpy's own overflow warnings are just noise here.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n):
            t = k * dt
            err = cmd - filt
            u_pid = pid.step(err)
            u_lead = lead.step(u_pid) if lead else u_pid
            delta = act.step(u_lead)
            d = disturbance_at(config.disturbance, t)
            rec[k] = (t, cmd, omega, omega_dot, meas, filt, err, u_pid, u_lead,
                      delta, d)

            if not (math.isfinite(omega) and math.isfinite(delta)
                    and math.isfinite(u_pid)):
                raise DivergedError(k)
            if k == n_steps:
                break

            # Pitch is the integral of rate, so its coefficient on pitch is
            # exactly 1 and the update is written as an increment.
            d_cos = amp * math.cos(freq * t)
            omega += p01 * omega_dot + p0u * delta + p0s * d + p0c * d_cos
            omega_dot = p11 * omega_dot + p1u * delta + p1s * d + p1c * d_cos

            meas = omega + noise.sample(k + 1)
            filt = kal.step(meas, delta) if kal else meas

    return Trace(*rec.T)


def run_ab_pair(config: LoopConfig, scenario: Scenario):
    """Run the identical configuration without (A) and with (B) the lead.

    Both legs use the same seed, so the comparison isolates the compensator.
    """
    traces = []
    for leg, enabled in (("A", False), ("B", True)):
        cfg = replace(config,
                      compensator=replace(config.compensator, enabled=enabled))
        try:
            traces.append(run_scenario(cfg, scenario))
        except DivergedError as exc:
            raise DivergedError(exc.step, leg=leg) from exc
    return tuple(traces)


def stability_probe(config: LoopConfig, scenario: Scenario, delays):
    """Stable/unstable verdict for each actuator delay in `delays`.

    A run is unstable if it diverges or if the final error magnitude exceeds
    the initial error magnitude.
    """
    verdicts = []
    err0 = abs(scenario.command - scenario.initial)
    for tau in delays:
        cfg = replace(config, actuator=replace(config.actuator, tau=tau))
        try:
            trace = run_scenario(cfg, scenario)
        except DivergedError:
            verdicts.append((tau, False))
            continue
        stable = bool(abs(trace.error[-1]) <= err0)
        verdicts.append((tau, stable))
    return verdicts
