"""Fixed-step simulation of the closed pitch-autopilot loop.

Per step the blocks advance in a fixed order: error -> PID -> lead ->
actuator -> plant -> noise -> Kalman.  The error junction uses the filtered
pitch produced by the previous step's filter stage (one-step computational
delay).  The plant integrates with classical RK4; everything else is
discrete-time.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .blocks import (Actuator, ActuatorParams, CompensatorParams,
                     DisturbanceParams, Kalman, KalmanParams, Lead,
                     NoiseParams, NoiseSource, Pid, PidGains,
                     PitchPlantParams, disturbance_at)
from .errors import ConfigError, DivergedError

TRACE_COLUMNS = ("t", "cmd", "omega", "omega_dot", "omega_meas",
                 "omega_filt", "error", "u_pid", "u_lead", "delta", "d_t")


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
        return cls(**{name: data[:, i] for i, name in enumerate(TRACE_COLUMNS)})


def run_scenario(config: LoopConfig, scenario: Scenario) -> Trace:
    """Simulate the closed loop once and return the full Trace.

    Deterministic given (config, scenario).  Raises DivergedError with the
    offending step index if any signal goes non-finite.
    """
    dt = scenario.dt
    n_steps = int(round(scenario.duration / dt))
    n = n_steps + 1
    cols = {name: np.empty(n) for name in TRACE_COLUMNS}

    pid = Pid(config.pid)
    lead = Lead(config.compensator, dt) if config.compensator.enabled else None
    act = Actuator(config.actuator, dt, initial=0.0)
    seed = config.noise.seed if config.noise.seed is not None else scenario.seed
    noise = NoiseSource(config.noise, dt, seed)
    kal = (Kalman(config.kalman, config.plant, dt, scenario.initial)
           if config.kalman.enabled else None)

    omega = float(scenario.initial)
    omega_dot = 0.0
    cmd = float(scenario.command)
    J, lam = config.plant.J_z, config.plant.lam

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
            u_pid = pid.step(err, dt)
            u_lead = lead.step(u_pid) if lead else u_pid
            delta = act.step(u_lead)
            d = disturbance_at(config.disturbance, t)

            cols["t"][k] = t
            cols["cmd"][k] = cmd
            cols["omega"][k] = omega
            cols["omega_dot"][k] = omega_dot
            cols["omega_meas"][k] = meas
            cols["omega_filt"][k] = filt
            cols["error"][k] = err
            cols["u_pid"][k] = u_pid
            cols["u_lead"][k] = u_lead
            cols["delta"][k] = delta
            cols["d_t"][k] = d

            if not (math.isfinite(omega) and math.isfinite(delta)
                    and math.isfinite(u_pid)):
                raise DivergedError(k)
            if k == n_steps:
                break

            # RK4 on (omega, omega_dot); deflection torque held over the step,
            # disturbance evaluated at the stage times.
            d_half = disturbance_at(config.disturbance, t + 0.5 * dt)
            d_full = disturbance_at(config.disturbance, t + dt)
            k1w = omega_dot
            k1r = (delta - lam * omega_dot - d) / J
            w2 = omega_dot + 0.5 * dt * k1r
            k2w = w2
            k2r = (delta - lam * w2 - d_half) / J
            w3 = omega_dot + 0.5 * dt * k2r
            k3w = w3
            k3r = (delta - lam * w3 - d_half) / J
            w4 = omega_dot + dt * k3r
            k4w = w4
            k4r = (delta - lam * w4 - d_full) / J
            omega += dt / 6.0 * (k1w + 2.0 * k2w + 2.0 * k3w + k4w)
            omega_dot += dt / 6.0 * (k1r + 2.0 * k2r + 2.0 * k3r + k4r)

            meas = omega + noise.sample(k + 1)
            filt = kal.step(meas, delta) if kal else meas

    return Trace(**cols)


def run_ab_pair(config: LoopConfig, scenario: Scenario):
    """Run the identical configuration without (A) and with (B) the lead.

    Both legs use the same seed, so the comparison isolates the compensator.
    """
    cfg_a = replace(config, compensator=replace(config.compensator, enabled=False))
    cfg_b = replace(config, compensator=replace(config.compensator, enabled=True))
    try:
        trace_a = run_scenario(cfg_a, scenario)
    except DivergedError as exc:
        raise DivergedError(exc.step, leg="A") from exc
    try:
        trace_b = run_scenario(cfg_b, scenario)
    except DivergedError as exc:
        raise DivergedError(exc.step, leg="B") from exc
    return trace_a, trace_b


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
