"""Fixed-step simulation of the closed pitch-autopilot loop.

Per step the loop runs error -> PID -> lead -> actuator, then plant ->
noise -> Kalman into the next step.  The error junction uses the pitch
filtered from the step's own measurement, which the plant reached with the
previous step's deflection (a one-step computational delay).

The actuator's transport delay holds D = tau/dt deflections already fixed
(at most the run's step count), so no signal crosses the loop in fewer
than L = D + 1 steps.  `run_scenario` therefore advances the loop in
windows of L steps, calling each block once per window with one list entry
per step (tau = 0 gives L = 1).  Per window: the plant, driven by the
actuator's last output and its pending delay line, and the Kalman filter, on
the pitches plus the window's noise, run over the window; then PID -> lead
-> actuator run on the filtered pitches.  Each block does the same
operations in the same order as a one-step loop, so the trace is the same
bit for bit, and one scan per window checks the signals in step order.

The plant advances by its exact zero-order-hold map, with the sinusoidal
disturbance carried as oscillator states, so its update has no step-size
limit; everything else is discrete-time.

A workflow repeats runs that differ only in the controller or the actuator,
so what those never reach is computed once per configuration and kept for
the next run: `_plan` holds the time grid k·dt, amplitude·cos(frequency·t)
for the plant's exact hold and the plant's hold rows, and the Kalman filter
reads its gains from a `blocks.GainSchedule`.  A run draws its noise in
one `NoiseSource.sample` call; per window stay the block recursions and
the disturbance sine (`disturbance_at`).
"""

import io
import math
import warnings
from dataclasses import dataclass, field, fields, replace

import numpy as np
import orjson

from .blocks import (Actuator, ActuatorParams, CompensatorParams,
                     DisturbanceParams, Kalman, KalmanParams, Lead,
                     NoiseParams, NoiseSource, Pid, PidGains,
                     PitchPlantParams, cache_last, disturbance_at,
                     finite_prefix, plant_step)
from .errors import ConfigError, DivergedError, Params, Positive


@dataclass(frozen=True)
class LoopConfig(Params):
    """Every block parameter of the autopilot loop."""

    pid: PidGains = field(default_factory=PidGains)
    compensator: CompensatorParams = field(default_factory=CompensatorParams)
    actuator: ActuatorParams = field(default_factory=ActuatorParams)
    plant: PitchPlantParams = field(default_factory=PitchPlantParams)
    disturbance: DisturbanceParams = field(default_factory=DisturbanceParams)
    noise: NoiseParams = field(default_factory=NoiseParams)
    kalman: KalmanParams = field(default_factory=KalmanParams)


@dataclass(frozen=True)
class Scenario(Params):
    """Complete input to one run: boundary conditions, step size, seed."""

    initial: float = 10.0    # starting pitch (deg)
    command: float = 1.0     # commanded pitch (deg)
    duration: Positive = 10.0   # simulated time (s)
    dt: Positive = 0.001        # step size (s)
    seed: int = 0

    def __post_init__(self):
        super().__post_init__()
        # The first errors are about command - initial.  If that overflows,
        # the run cannot start: a configuration error, not a divergence.
        if not math.isfinite(float(self.command) - float(self.initial)):
            raise ConfigError("command - initial is past the float range")
        if self.dt > self.duration:
            raise ConfigError("need dt <= duration")
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
        """Write the trace as CSV, each value as `repr(float(value))`.

        orjson encodes each block of rows in C with Ryu, which picks the
        same shortest round-trip digits as `repr`.  Its notation differs
        only for non-finite values (`null`), for |x| >= 1e16 (`1e16`, not
        `1e+16`) and for nonzero |x| < 1e-4 (`1e-8`, not `1e-08`), so a row
        holding any such value is written with `repr` instead.  Blocks keep
        the encoder's output, not the trace's, from setting peak memory.
        """
        cols = [np.asarray(getattr(self, name), dtype=float)
                for name in TRACE_COLUMNS]
        with open(path, "wb") as fh:
            fh.write(_CSV_HEADER + b"\n")
            for k in range(0, len(self), _CSV_BLOCK):
                block = np.column_stack([c[k:k + _CSV_BLOCK] for c in cols])
                lines = orjson.dumps(block, option=orjson.OPT_SERIALIZE_NUMPY
                                     )[2:-2].split(b"],[")
                mag = np.abs(block)
                off = ~(mag < 1e16) | ((mag > 0) & (mag < 1e-4))
                for i in np.flatnonzero(off.any(axis=1)):
                    lines[i] = ",".join(map(repr, block[i].tolist())).encode()
                fh.write(b"\n".join(lines) + b"\n")

    @classmethod
    def from_csv(cls, path):
        """Read a trace CSV: the header line, then one row of 11 values per
        line.

        The file is opened once and its header checked once.  The body is
        read in blocks of about 64 KiB of whole lines (`_CSV_READ`; a line
        longer than a block carries into the next read), each parsed in C
        by one `orjson.loads` call as `[[row],[row],...]` into one (m, 11)
        float64 array, so the peak memory stays near twice the trace.  A
        block takes this path only if its bytes are `0-9 . , - e E` and
        newlines, and its rows hold no integer field `-0`, which JSON reads
        as the integer 0.  Within those bytes JSON's number grammar is a
        subset of `np.loadtxt`'s, and both round correctly, so every number
        reads back to the same double.  If a block fails a check, fails to
        parse or has rows of other than 11 values, the whole body is read
        again as UTF-8 text with `np.loadtxt`, the one grammar for files
        the writer did not produce (`+1`, `1.`, `inf`, CRLF line ends,
        comments).  A file without rows is a ConfigError naming it, raised
        before either parser runs when the body is empty, and without
        numpy's empty-input warning when it holds only comments.
        """
        try:
            with open(path, "rb") as fh:
                if fh.readline().strip() != _CSV_HEADER:
                    raise ValueError("first line is not the header"
                                     f" {_CSV_HEADER.decode()}")
                body = fh.tell()
                data = _json_rows(fh)
                if data is None:
                    fh.seek(body)
                    with (io.TextIOWrapper(fh, "utf-8") as text,
                          warnings.catch_warnings()):
                        # A body of comments is the "no rows" error below.
                        warnings.filterwarnings(
                            "ignore", "loadtxt: input contained no data")
                        data = np.loadtxt(text, delimiter=",", ndmin=2)
            if len(data) == 0:
                raise ValueError("no rows")
            if data.shape[1] != len(TRACE_COLUMNS):
                raise ValueError(f"{data.shape[1]} columns, not"
                                 f" {len(TRACE_COLUMNS)}")
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read trace {path}: {exc}") from exc
        return cls(*data.T)


TRACE_COLUMNS = tuple(f.name for f in fields(Trace))
_CSV_HEADER = ",".join(TRACE_COLUMNS).encode()
_CSV_BLOCK = 512    # rows per encoder call in `Trace.to_csv`
_CSV_READ = 1 << 16    # bytes per decoder call in `Trace.from_csv`
_JSON_BYTES = b"0123456789.,-eE\n"    # the bytes a block may hold


def _json_rows(fh):
    """The rows left in the binary file `fh` as one (n, 11) array, read by
    orjson a block of whole lines at a time (n = 0 for blank lines), or
    None if a block is not plain JSON numbers in rows of 11."""
    blocks, rest = [np.empty((0, len(TRACE_COLUMNS)))], b""
    while True:
        chunk = fh.read(_CSV_READ)
        text = rest + chunk
        cut = text.rfind(b"\n") + 1 if chunk else len(text)
        lines, rest = text[:cut].rstrip(b"\n"), text[cut:]
        if lines:
            block = _json_block(lines)
            if block is None:
                return None
            blocks.append(block)
        if not chunk:
            return np.concatenate(blocks)


def _json_block(lines):
    """Newline-separated CSV rows as an (m, 11) float64 array parsed by
    orjson, or None where orjson and `np.loadtxt` could disagree."""
    if lines.translate(None, _JSON_BYTES):    # leaves any other byte
        return None
    try:
        block = np.array(orjson.loads(b"[[" + lines.replace(b"\n", b"],[")
                                      + b"]]"), dtype=float)
    except ValueError:    # not JSON, or ragged rows
        return None
    if block.shape[1] != len(TRACE_COLUMNS):
        return None
    # An integer field -0 read as 0 is a zero: scan only blocks with one.
    if not block.all() and (b"-0," in lines or b"-0\n" in lines
                            or lines.endswith(b"-0")):
        return None
    return block


def run_scenario(config: LoopConfig, scenario: Scenario) -> Trace:
    """Simulate the closed loop once and return the full Trace.

    Deterministic given (config, scenario).  Raises DivergedError with the
    offending step index if any signal goes non-finite.
    """
    dt = float(scenario.dt)
    try:
        n = int(round(scenario.duration / dt)) + 1
        rec = np.empty((n, len(TRACE_COLUMNS)))
    except (OverflowError, ValueError, MemoryError) as exc:
        raise ConfigError(f"no trace of duration={scenario.duration} at"
                          f" dt={dt} fits in memory: {exc}") from exc

    pid = Pid(config.pid, dt)
    lead = Lead(config.compensator, dt) if config.compensator.enabled else None
    act = Actuator(config.actuator, dt, run_steps=n)
    window = len(act.pending) + 1
    noise = NoiseSource(config.noise, dt, scenario.seed).sample(n)
    kal = (Kalman(config.kalman, config.plant, dt, scenario.initial)
           if config.kalman.enabled else None)
    t, d_cos, plant_rows = _plan(dt, n, config.disturbance, config.plant)
    (p01, p0u, p0s, p0c), (p11, p1u, p1s, p1c) = plant_rows

    omega = float(scenario.initial)
    omega_dot = 0.0
    cmd = float(scenario.command)
    rec[:, 0] = t
    rec[:, 1] = cmd

    # The first window is the initial sample alone, filtered by the
    # Kalman filter's first update, which has no prediction and so reads
    # no control.
    k0, k1 = 0, 1
    ds = disturbance_at(config.disturbance, [0.0])
    omegas, rates, drive = [omega], [omega_dot], [0.0]
    while True:
        meas = [w + v for w, v in zip(omegas, noise[k0:k1])]
        filt = kal.step(meas, drive) if kal else meas
        errors = [cmd - f for f in filt]
        u_pid = pid.step(errors)
        u_lead = lead.step(u_pid) if lead else u_pid
        delta = act.step(u_lead)
        bad = min(finite_prefix(x) for x in (omegas, errors, u_pid, delta))
        if bad < len(errors):
            raise DivergedError(k0 + bad)
        for col, values in enumerate((omegas, rates, meas, filt, errors,
                                      u_pid, u_lead, delta, ds), start=2):
            rec[k0:k1, col] = values
        if k1 == n:
            return Trace(*rec.T)

        # The next window's plant steps start from steps k1-1 .. k2-2, whose
        # deflections the actuator has already fixed: its last output and
        # its delay line.
        k2 = min(k1 + window, n)
        drive = [delta[-1], *act.pending][:k2 - k1]
        d_from = ds[-1]
        k0, k1 = k1, k2
        ds = disturbance_at(config.disturbance, t[k0:k1].tolist())
        omegas, rates = [], []
        for u, d, d_c in zip(drive, [d_from, *ds],
                             d_cos[k0 - 1:k1 - 1].tolist()):
            # Pitch is the integral of rate, so its coefficient on pitch is
            # exactly 1 and the update is written as an increment.
            omega += p01 * omega_dot + p0u * u + p0s * d + p0c * d_c
            omega_dot = p11 * omega_dot + p1u * u + p1s * d + p1c * d_c
            omegas.append(omega)
            rates.append(omega_dot)


@cache_last
def _plan(dt, n, disturbance: DisturbanceParams, plant: PitchPlantParams):
    """The gain-independent part of a run of n steps: the time grid k·dt,
    amplitude·cos(frequency·t) on it and the plant's exact-hold rows
    (`plant_step`).  The sine stays a per-window `disturbance_at` call."""
    amp = float(disturbance.amplitude)
    freq = float(disturbance.frequency)
    t = np.arange(n) * dt
    d_cos = np.fromiter((amp * math.cos(freq * (k * dt)) for k in range(n)),
                        float, n)
    t.flags.writeable = d_cos.flags.writeable = False   # shared across runs
    return t, d_cos, plant_step(plant, disturbance, dt)


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
