"""Step-response measurements and noise statistics extracted from a Trace.

Conventions: rise time is the 10%->90% traversal of the start->target
interval; the onset rise is the time from the first sample to the first
crossing of the target (the 0->100% rise of an underdamped response, as in
Ogata, Modern Control Engineering, sec. 5-3); overshoot is measured on the
true pitch beyond the target in the direction of travel; settling requires
remaining inside the band through the end of the trace.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NoResponseError, Params, Positive, fixed

# Settling-band half-width as a fraction of the step magnitude.
BAND_FRACTION = 0.05


@dataclass(frozen=True)
class BandSpec(Params):
    """Settling band: target +/- half_width, both in degrees."""

    target: float
    half_width: Positive


@dataclass(frozen=True)
class StepMetrics:
    """Step-response measurements plus requirement verdicts.

    `t_r` is the 10%->90% rise; `t_r_onset` is the time from the first
    sample to the first crossing of the target, inf if it is never crossed.
    `t_s` is None when the response never settles.  `pct_overshoot` is
    normalized by |target|.
    Verdicts: (1) t_r <= 350 ms, (2) %M_p <= 20%, (3) final error <= 5% of
    the step magnitude.
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
    if not fraction > 0:
        raise DomainError("fraction must be > 0")
    if start == target:
        raise DomainError("degenerate step: start equals target")
    return BandSpec(target=target, half_width=fraction * abs(start - target))


def _crossing_time(t, y, level, rising):
    """First time y crosses `level` (interpolated); t[0] if already past."""
    past = y >= level if rising else y <= level
    if past[0]:
        return t[0]
    idx = np.nonzero(past)[0]
    if len(idx) == 0:
        return None
    return _interpolate(t, y, idx[0] - 1, level)


def _interpolate(t, y, i, level):
    """Time at which y reaches `level`, linear between samples i and i+1."""
    y0, y1 = y[i], y[i + 1]
    frac = (level - y0) / (y1 - y0) if y1 != y0 else 1.0
    return t[i] + frac * (t[i + 1] - t[i])


def step_metrics(trace, start, target, band: BandSpec) -> StepMetrics:
    """Measure a start->target step response on the true pitch signal."""
    if len(trace) == 0:
        raise DomainError("empty trace")
    if start == target:
        raise DomainError("degenerate step: start equals target")
    t = np.asarray(trace.t, dtype=float)
    y = np.asarray(trace.omega, dtype=float)
    span = target - start
    rising = span > 0

    t10 = _crossing_time(t, y, start + 0.1 * span, rising)
    if t10 is None:
        raise NoResponseError("trace never crossed the 10% threshold")
    t90 = _crossing_time(t, y, start + 0.9 * span, rising)
    t_r = (t90 - t10) if t90 is not None else float("inf")
    t100 = _crossing_time(t, y, target, rising)
    t_r_onset = (t100 - t[0]) if t100 is not None else float("inf")

    # Excursion beyond the target in the direction of travel.
    direction = 1.0 if rising else -1.0
    excursion = (y - target) * direction
    i_peak = int(np.argmax(excursion))
    m_p = max(float(excursion[i_peak]), 0.0)
    t_p = float(t[i_peak])

    inside = np.abs(y - band.target) <= band.half_width
    outside = np.nonzero(~inside)[0]
    if len(outside) == 0:
        t_s = float(t[0])
    elif outside[-1] + 1 >= len(y):
        t_s = None
    else:
        j = outside[-1]
        edge = band.target + band.half_width * np.sign(y[j] - band.target)
        t_s = float(_interpolate(t, y, j, edge))

    pct = 100.0 * m_p / abs(target) if target != 0 else float("nan")
    final_error = abs(float(y[-1]) - target)

    return StepMetrics(
        t_r=float(t_r),
        t_r_onset=float(t_r_onset),
        t_p=t_p,
        t_s=t_s,
        m_p=m_p,
        pct_overshoot=pct,
        final_error=final_error,
        req_rise=t_r <= 0.350,
        req_overshoot=pct <= 20.0,
        req_accuracy=final_error <= 0.05 * abs(span),
    )


def devaud_report(metrics: StepMetrics) -> str:
    """Three-line pass/fail rendering of the requirement verdicts."""
    def line(num, text, ok):
        return f"({num}) {text}: {'pass' if ok else 'fail'}"
    return "\n".join([
        line(1, f"rise time {fixed(metrics.t_r * 1000, '.0f')} ms <= 350 ms",
             metrics.req_rise),
        line(2, f"overshoot {fixed(metrics.pct_overshoot, '.0f')}% <= 20%",
             metrics.req_overshoot),
        line(3, f"steady-state error {fixed(metrics.final_error, '.3f')} deg"
                " <= 5% of step",
             metrics.req_accuracy),
    ])


def noise_envelope(trace, window_start):
    """(max, min, variance) of the loop error over [window_start, end]."""
    t = np.asarray(trace.t, dtype=float)
    if not window_start < t[-1]:
        raise DomainError("window_start must precede the end of the trace")
    err = np.asarray(trace.error, dtype=float)[t >= window_start]
    mx, mn = float(err.max()), float(err.min())
    # Scaled by a power of two, err.var() cannot overflow and scales back to
    # the same float; a variance past the float range is inf, not a warning.
    scale = 2.0 ** (math.frexp(max(mx, -mn))[1] - 1)
    return mx, mn, float((err / scale).var()) * scale * scale
