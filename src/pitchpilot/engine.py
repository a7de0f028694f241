"""Fixed-step simulation of the closed pitch-autopilot loop.

Per step the loop runs error -> PID -> lead -> actuator, then plant ->
noise -> Kalman into the next step.  The error junction uses the pitch
filtered from the step's own measurement, which the plant reached with the
previous step's deflection (a one-step computational delay).

The run's duration and the actuator's transport delay are whole numbers of
steps (`blocks._steps`).  The actuator reports the L = D + 1 deflections it
has fixed, its last output and a delay line of D = tau/dt (at most the
run's step count), so no signal crosses the loop in fewer than L steps.
`run_scenario` therefore advances the loop in windows of L steps, calling
each block once per window with one list entry per step (tau = 0 gives
L = 1).  Per window: the plant, driven by those fixed deflections, and the
Kalman filter, on the pitches plus the window's noise, run over the window;
then PID -> lead -> actuator run on the filtered pitches.  Each block does
the same operations in the same order as a one-step loop, so the trace is
the same bit for bit.  t, cmd and d_t are stored before the loop, the other
eight columns per window; one check per batch of at least `_BATCH_ROWS`
rows (the loop runs on through inf and nan) and at the last row finds the
first step, and in it the first signal, that is not finite.

The plant advances by its exact zero-order-hold map, with the sinusoidal
disturbance carried as oscillator states, so its update has no step-size
limit; everything else is discrete-time.  The Kalman filter predicts with
the plant's own hold, so without noise or disturbance it is bit-exact.

A workflow repeats runs that differ only in the controller or the actuator,
so what those never reach is computed once per configuration and kept for
the next run in one plan, `_plan`: the time grid k·dt, the disturbance
amplitude·sin(frequency·t) and amplitude·cos(frequency·t) for the plant's
exact hold, the plant's hold rows and the Kalman filter's
`blocks.GainSchedule`.  A run draws its noise in one `NoiseSource.sample`
call and takes one slice of each disturbance array per window; per window
stay the block recursions.
"""

import functools
import io
import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np
import orjson

from .blocks import (Actuator, ActuatorParams, CompensatorParams,
                     DisturbanceParams, GainSchedule, Kalman, KalmanParams,
                     Lead, NoiseParams, NoiseSource, Pid, PidGains,
                     PitchPlantParams, _steps, disturbance_at, plant_step)
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
    duration: Positive = 10.0   # simulated time (s), a whole number of dt
    dt: Positive = 0.001        # step size (s)
    seed: int = 0

    def __post_init__(self):
        super().__post_init__()
        # The first errors are about command - initial.  If that overflows,
        # the run cannot start: a configuration error, not a divergence.
        if not math.isfinite(self.command - self.initial):
            raise ConfigError("command - initial is past the float range")
        if self.dt > 0.005:
            raise ConfigError(f"dt={self.dt} too coarse (need dt <= 0.005)")
        # After the dt limit, so that a coarse dt is refused as such and not
        # for the duration it does not divide.
        _steps(self.duration, self.dt, "duration")


TRACE_COLUMNS = ("t", "cmd", "omega", "omega_dot", "omega_meas",
                 "omega_filt", "error", "u_pid", "u_lead", "delta", "d_t")


# A trace compares and hashes by identity: element-wise equality over a
# numpy table would raise.
@dataclass(frozen=True, eq=False)
class Trace:
    """Uniformly sampled record of every loop signal: `rows` holds one row
    per step and one column per `TRACE_COLUMNS` name, C-ordered float64, and
    each name reads its column as a view of `rows`."""

    rows: np.ndarray

    def __post_init__(self):
        rows = np.ascontiguousarray(self.rows, dtype=float)
        width = len(TRACE_COLUMNS)
        if rows.ndim != 2 or rows.shape[1] != width or not len(rows):
            raise ValueError(f"trace table of shape {rows.shape}, not (n,"
                             f" {width}): a trace needs at least one row of"
                             f" {width} values")
        object.__setattr__(self, "rows", rows)

    def __len__(self):
        return len(self.rows)

    def to_csv(self, path):
        """Write the trace as CSV, each value as `repr(float(value))`.

        orjson encodes each block of rows in C with Ryu, which picks the
        same shortest round-trip digits as `repr`.  Its notation differs
        only for non-finite values (`null`), for |x| >= 1e16 (`1e16`, not
        `1e+16`) and for nonzero |x| < 1e-4 (`1e-8`, not `1e-08`), so a row
        holding any such value is written with `repr` instead.  Blocks keep
        the encoder's output, not the trace's, from setting peak memory.
        """
        with open(path, "wb") as fh:
            fh.write(_CSV_HEADER + b"\n")
            for k in range(0, len(self), _CSV_BLOCK):
                block = self.rows[k:k + _CSV_BLOCK]
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
        longer than a block carries into the next read), each parsed in C by
        one `orjson.loads` call as `[[row],[row],...]` into one float64
        array, so the peak memory stays near twice the trace.  A block takes
        this path only if its bytes are `0-9 . , + - e E` and newlines, and
        its rows hold no integer field `-0`, which JSON reads as the integer
        0.  Within those bytes JSON's number grammar is a subset of
        `np.loadtxt`'s (JSON takes `+` only in an exponent, as `repr` writes
        1e+16), and both round correctly, so every number reads back to the
        same double.  If a block fails a check or fails to parse, the whole
        body is read again as UTF-8 text with `np.loadtxt`, the one grammar
        for files the writer did not produce (`+1`, `1.`, `inf`, CRLF line
        ends, comments).  Either way, a file without rows or not 11 wide is
        a ConfigError naming it, as `Trace` refuses such a table; a body of
        comments is refused without numpy's empty-input warning.
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
                        # `Trace` refuses a body of comments below.
                        warnings.filterwarnings(
                            "ignore", "loadtxt: input contained no data")
                        data = np.loadtxt(text, delimiter=",", ndmin=2)
            return cls(data)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read trace {path}: {exc}") from exc


for _col, _name in enumerate(TRACE_COLUMNS):
    setattr(Trace, _name, property(lambda self, col=_col: self.rows[:, col]))
del _col, _name
_CSV_HEADER = ",".join(TRACE_COLUMNS).encode()
_CSV_BLOCK = 512    # rows per encoder call in `Trace.to_csv`
_CSV_READ = 1 << 16    # bytes per decoder call in `Trace.from_csv`
_JSON_BYTES = b"0123456789.,+-eE\n"    # the bytes a block may hold


def _json_rows(fh):
    """The rows left in the binary file `fh` as one array, read by orjson a
    block of whole lines at a time (an empty (0, 11) table for a body
    without rows), or None if a block is not plain JSON numbers."""
    blocks, rest = [], b""
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
            return (np.concatenate(blocks) if blocks
                    else np.empty((0, len(TRACE_COLUMNS))))


def _json_block(lines):
    """CSV rows as one float64 table of any width, parsed by orjson, or None
    where orjson fails or could read them differently from `np.loadtxt`."""
    if lines.translate(None, _JSON_BYTES):    # leaves any other byte
        return None
    try:
        block = np.array(orjson.loads(b"[[" + lines.replace(b"\n", b"],[")
                                      + b"]]"), dtype=float)
    except ValueError:    # not JSON, or ragged rows
        return None
    # An integer field -0 read as 0 is a zero: scan only blocks with one.
    if not block.all() and (b"-0," in lines or b"-0\n" in lines
                            or lines.endswith(b"-0")):
        return None
    return block


# A check of a batch of rows costs a few numpy calls whatever its length, so
# `run_scenario` checks and watches at least this many rows at once: 3
# windows at the default 0.1 s delay, and not one check per step at none.
_BATCH_ROWS = 250


def run_scenario(config: LoopConfig, scenario: Scenario,
                 watch=None) -> Trace:
    """Simulate the closed loop once and return the full Trace.

    Deterministic given (config, scenario).  Raises DivergedError at the
    first step whose row of the Trace holds a value that is not finite,
    naming the first such column.  `watch(trace, k0, k1)`, if given, is
    called after each batch of `_BATCH_ROWS` or more rows but the last, once
    rows k0..k1-1 of the returned Trace's `rows`, the run's one record, are
    written and checked (later rows are not yet written); it may end the run
    by raising.
    """
    dt = scenario.dt
    n = _steps(scenario.duration, dt, "duration") + 1
    try:
        rec = np.empty((n, len(TRACE_COLUMNS)))
    except (ValueError, MemoryError) as exc:
        raise ConfigError(f"no trace of duration={scenario.duration} at"
                          f" dt={dt} fits in memory: {exc}") from exc

    pid = Pid(config.pid, dt)
    lead = Lead(config.compensator, dt) if config.compensator.enabled else None
    act = Actuator(config.actuator, dt, run_steps=n)
    noise = NoiseSource(config.noise, dt, scenario.seed).sample(n)
    t, d_sin, d_cos, plant_rows, schedule = _plan(
        dt, n, config.disturbance, config.plant, config.kalman)
    kal = Kalman(schedule, scenario.initial) if schedule else None
    (p01, p0u, p0s, p0c), (p11, p1u, p1s, p1c) = plant_rows

    omega, omega_dot, cmd = scenario.initial, 0.0, scenario.command
    # The columns known before the loop; each window stores the other eight.
    rec[:, 0], rec[:, 1], rec[:, 10] = t, cmd, d_sin
    trace = Trace(rec)

    # The first window is the initial sample alone; the Kalman filter's
    # first update predicts with the actuator's rest deflection, which
    # leaves the prediction at the initial state.  Rows before `checked`
    # are finite and watched.
    k0, k1, checked = 0, 1, 0
    # Unused: the plan's sine is the d_t column.  This one call per run is
    # the `blocks.disturbance_at` that perfbench/tracing.py times and
    # tests/test_trace_hooks.py needs reached; ROADMAP item 5 deletes it.
    disturbance_at(config.disturbance, [0.0])
    omegas, rates, drive = [omega], [omega_dot], act.fixed[:1]
    while True:
        meas = [w + v for w, v in zip(omegas, noise[k0:k1])]
        filt = kal.step(meas, drive) if kal else meas
        errors = [cmd - f for f in filt]
        u_pid = pid.step(errors)
        u_lead = lead.step(u_pid) if lead else u_pid
        delta = act.step(u_lead)
        # The eight signals the loop computes, one list per trace column.
        rec[k0:k1].T[2:10] = (omegas, rates, meas, filt, errors, u_pid,
                              u_lead, delta)
        if k1 - checked >= _BATCH_ROWS or k1 == n:
            finite = np.isfinite(rec[checked:k1])
            if not finite.all():
                # The first False in row-major order: the earliest step, and
                # in it the first signal in column order.
                step, col = divmod(int(finite.argmin()), len(TRACE_COLUMNS))
                raise DivergedError(checked + step, TRACE_COLUMNS[col])
            if k1 == n:
                return trace
            if watch:
                watch(trace, checked, k1)
            checked = k1

        # Each row of the next window is reached by a plant step from the
        # row before it, whose deflection the actuator has fixed: so the
        # window is as long as `act.fixed`, or ends the run.
        fixed = act.fixed
        k0, k1 = k1, min(k1 + len(fixed), n)
        drive = fixed[:k1 - k0]
        omegas, rates = [], []
        for u, d, d_c in zip(drive, d_sin[k0 - 1:k1 - 1].tolist(),
                             d_cos[k0 - 1:k1 - 1].tolist()):
            # Pitch is the integral of rate, so its coefficient on pitch is
            # exactly 1 and the update is written as an increment.
            omega += p01 * omega_dot + p0u * u + p0s * d + p0c * d_c
            omega_dot = p11 * omega_dot + p1u * u + p1s * d + p1c * d_c
            omegas.append(omega)
            rates.append(omega_dot)


@functools.lru_cache(maxsize=1)
def _plan(dt, n, disturbance: DisturbanceParams, plant: PitchPlantParams,
          kalman: KalmanParams):
    """What a run of n steps needs that no controller or actuator setting
    reaches: the time grid k·dt, amplitude·sin(frequency·t) (`math.sin`,
    as in `disturbance_at`) and amplitude·cos(frequency·t) on it, the
    plant's one exact hold (`plant_step`'s rows) and the Kalman filter's
    n-update `GainSchedule` on those rows (None with the filter off)."""
    rows = plant_step(plant, disturbance, dt)
    schedule = GainSchedule(kalman, rows, dt, n) if kalman.enabled else None
    amp, freq = disturbance.amplitude, disturbance.frequency
    t = np.arange(n) * dt
    d_sin = np.fromiter((amp * math.sin(freq * (k * dt)) for k in range(n)),
                        float, n)
    d_cos = np.fromiter((amp * math.cos(freq * (k * dt)) for k in range(n)),
                        float, n)
    # Shared across runs.
    t.flags.writeable = d_sin.flags.writeable = d_cos.flags.writeable = False
    return t, d_sin, d_cos, rows, schedule


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
            raise DivergedError(exc.step, exc.signal, leg) from exc
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
