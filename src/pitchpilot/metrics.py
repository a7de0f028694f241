"""Step-response measurements and noise statistics extracted from a Trace.

Conventions, all applied by `StepTracker`: rise time is the 10%->90%
traversal of the start->target interval; the onset rise is the time from the
first sample to the first crossing of the target (the 0->100% rise of an
underdamped response, as in Ogata, Modern Control Engineering, sec. 5-3);
overshoot is the peak beyond the target in the direction of travel; settling
requires remaining inside the band through the end of the trace.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NoResponseError, Params, Positive, fixed

# Settling-band half-width as a fraction of the step magnitude.
BAND_FRACTION = 0.05
# The requirements: (1) rise time in s, (2) percent overshoot, (3) final
# error as a fraction of the step magnitude.
RISE_LIMIT = 0.350
OVERSHOOT_LIMIT = 20.0
ACCURACY_LIMIT = 0.05


@dataclass(frozen=True)
class BandSpec(Params):
    """Settling band: the step's target +/- half_width, in degrees."""

    half_width: Positive


@dataclass(frozen=True)
class StepMetrics:
    """Step-response measurements plus requirement verdicts.

    `t_r` is the 10%->90% rise; `t_r_onset` is the time from the first
    sample to the first crossing of the target, inf if it is never crossed.
    `t_s` is None when the response never settles.  `pct_overshoot` is
    normalized by |target|.
    Verdicts: (1) t_r <= RISE_LIMIT, (2) %M_p <= OVERSHOOT_LIMIT, (3) final
    error <= ACCURACY_LIMIT of the step magnitude.
    """

    t_r: float
    t_r_onset: float
    t_p: float
    t_s: float | None
    m_p: float
    pct_overshoot: float
    final_error: float
    req_rise: bool
    req_overshoot: bool
    req_accuracy: bool


def band_for_step(start, target, fraction=BAND_FRACTION):
    """Band of half-width fraction·|start - target| around the target."""
    if start == target:
        raise DomainError("degenerate step: start equals target")
    return BandSpec(half_width=fraction * abs(start - target))


def _crossing_time(t, y, level):
    """First time y reaches `level` from below; t[0] if already there."""
    idx = np.nonzero(y >= level)[0]
    if len(idx) == 0:
        return None
    if idx[0] == 0:
        return t[0]
    return _interpolate(t, y, idx[0] - 1, level)


def _interpolate(t, y, i, level):
    """Time at which y reaches `level`, linear between samples i and i+1."""
    y0, y1 = y[i], y[i + 1]
    frac = (level - y0) / (y1 - y0) if y1 != y0 else 1.0
    return t[i] + frac * (t[i + 1] - t[i])


class StepTracker:
    """A step response measured from a trace's rows a batch at a time.

    `update(t, y, k1)` takes rows k..k1-1 of the time and pitch columns, k
    being the first row not yet taken, and `metrics(t, y)` the rest; taking
    the last row without crossing 10 % raises NoResponseError.  Where
    target - start is finite, any batches give the same result.  A falling
    step is measured as the rising step of -y: negation is exact and
    commutes with subtraction, so every number is the same double."""

    def __init__(self, start, target, band: BandSpec):
        if start == target:
            raise DomainError("degenerate step: start equals target")
        span = target - start
        s = self.sign = 1.0 if span > 0 else -1.0
        start, self.target, self.span = s * start, s * target, s * span
        self.levels = (start + 0.1 * self.span, start + 0.9 * self.span)
        self.half_width = band.half_width
        # For the rows so far, None until seen: the first crossing of 10 %,
        # the 10->90 % rise, the onset rise and the last row outside the
        # band; and the first largest excursion (or first NaN) and its row.
        self.t10 = self.t_r = self.t_r_onset = self.last_out = None
        self.peak, self.i_peak, self.k = -math.inf, 0, 0

    def update(self, t, y, k1):
        k0, self.k = self.k, k1
        # Row k0-1 is below every level not yet crossed, so a crossing at
        # row k0 interpolates from it as on the whole trace.
        lo = max(k0 - 1, 0)
        ts, ys = t[lo:k1], self.sign * y[lo:k1]
        if self.t10 is None:
            self.t10 = _crossing_time(ts, ys, self.levels[0])
        if self.t10 is not None and self.t_r is None:
            t90 = _crossing_time(ts, ys, self.levels[1])
            self.t_r = None if t90 is None else t90 - self.t10
        if self.t10 is not None and self.t_r_onset is None:
            t100 = _crossing_time(ts, ys, self.target)
            self.t_r_onset = None if t100 is None else t100 - t[0]
        if self.t10 is None and k1 == len(y):
            raise NoResponseError("trace never crossed the 10% threshold")
        if k0 == k1:
            return
        rows = ys[k0 - lo:]
        excursion = rows - self.target
        top = excursion.max()
        # As np.argmax over all rows so far: the first largest, or first NaN.
        if top > self.peak or math.isnan(top) and not math.isnan(self.peak):
            i = int(np.argmax(excursion))
            self.peak, self.i_peak = float(excursion[i]), k0 + i
        distance = np.abs(excursion)
        if not distance.max() <= self.half_width:
            outside = np.nonzero(~(distance <= self.half_width))[0]
            self.last_out = k0 + int(outside[-1])

    def metrics(self, t, y) -> StepMetrics:
        self.update(t, y, len(y))
        t_r, t_r_onset = (math.inf if v is None else float(v)
                          for v in (self.t_r, self.t_r_onset))
        m_p = max(float(self.peak), 0.0)
        j, t_s = self.last_out, None
        if j is None:
            t_s = float(t[0])
        elif j + 1 < len(y):
            ys = self.sign * y[j:j + 2]
            edge = self.target + self.half_width * np.sign(ys[0] - self.target)
            t_s = float(_interpolate(t[j:j + 2], ys, 0, edge))
        pct = 100.0 * m_p / abs(self.target) if self.target else float("nan")
        final_error = abs(self.sign * float(y[-1]) - self.target)
        return StepMetrics(
            t_r=t_r,
            t_r_onset=t_r_onset,
            t_p=float(t[self.i_peak]),
            t_s=t_s,
            m_p=m_p,
            pct_overshoot=pct,
            final_error=final_error,
            req_rise=t_r <= RISE_LIMIT,
            req_overshoot=pct <= OVERSHOOT_LIMIT,
            req_accuracy=final_error <= ACCURACY_LIMIT * self.span,
        )


def step_metrics(trace, start, target, band: BandSpec) -> StepMetrics:
    """Measure a start->target step response on the true pitch signal."""
    return StepTracker(start, target, band).metrics(trace.t, trace.omega)


def step_report(m: StepMetrics, label="") -> str:
    """The metrics block: the measurements, then the three verdicts."""
    def verdict(num, text, ok):
        return f"({num}) {text}: {'pass' if ok else 'fail'}\n"
    t_s = f"{fixed(m.t_s * 1000, '.1f')} ms" if m.t_s is not None else "never"
    return (
        f"Step metrics {label}".rstrip() + "\n"
        f"  rise time t_r      = {fixed(m.t_r * 1000, '.1f')} ms\n"
        f"  peak time t_p      = {fixed(m.t_p * 1000, '.1f')} ms\n"
        f"  settling time t_s  = {t_s}\n"
        f"  peak overshoot M_p = {fixed(m.m_p, '.3f')} deg\n"
        f"  percent overshoot  = {fixed(m.pct_overshoot, '.1f')} %\n"
        + verdict(1, f"rise time {fixed(m.t_r * 1000, '.0f')} ms"
                     f" <= {RISE_LIMIT * 1000:.0f} ms", m.req_rise)
        + verdict(2, f"overshoot {fixed(m.pct_overshoot, '.0f')}%"
                     f" <= {OVERSHOOT_LIMIT:.0f}%", m.req_overshoot)
        + verdict(3, f"steady-state error {fixed(m.final_error, '.3f')} deg"
                     f" <= {ACCURACY_LIMIT:.0%} of step", m.req_accuracy))


def noise_envelope(trace, window_start):
    """(max, min) of the loop error over [window_start, end]."""
    t = trace.t
    if not window_start < t[-1]:
        raise DomainError("window_start must precede the end of the trace")
    err = trace.error[t >= window_start]
    return float(err.max()), float(err.min())
