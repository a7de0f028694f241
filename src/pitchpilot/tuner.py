"""Parameter sweeps and derivative-free PID gain tuning.

Tuning and sweeping always run with noise disabled so the cost surface is
deterministic; diverged runs get a large finite penalty so the simplex can
retreat instead of crashing.

Most of Nelder-Mead's evaluations only ask whether a cost is below a
ceiling (the score a candidate must beat).  `tune_pid` passes that ceiling
to `evaluate`, which stops a run as soon as a lower bound on its cost from
the run so far reaches it; the search, its best gains and its history are
the same as with every run simulated in full.  `sweep` reports every cost,
so it passes no ceiling.
"""

import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import config as cfgmod
from .engine import LoopConfig, Scenario, run_scenario
from .errors import (ConfigError, DivergedError, NoResponseError,
                     NonNegative, Params, Positive, UntunableStartError)
from .metrics import _crossing_time, band_for_step, step_metrics

# Nelder-Mead stops before its budget once the simplex spans less than X_TOL
# in every coordinate and its scores differ by less than F_TOL.
X_TOL, F_TOL = 1e-6, 1e-9


@dataclass(frozen=True)
class CostSpec(Params):
    """Weighted step-response cost: w_ts·t_s + w_mp·M_p + w_tr·t_r + w_iae·IAE."""

    w_ts: NonNegative = 1.0
    w_mp: NonNegative = 0.5
    w_tr: NonNegative = 0.2
    w_iae: NonNegative = 0.01
    divergence_penalty: Positive = 1e6


@dataclass(frozen=True)
class SweepSpec(Params):
    """One-parameter study over an ordered list of values."""

    # Document path below the `loop` section, e.g. "actuator.gain": each
    # value goes through the same override and build as --set loop.<path>.
    path: str
    values: tuple
    scenario: Scenario = field(default_factory=Scenario)
    config: LoopConfig = field(default_factory=LoopConfig)

    def __post_init__(self):
        super().__post_init__()
        if len(self.values) == 0:
            raise ConfigError("sweep needs a non-empty value list")


def _quiet(config: LoopConfig) -> LoopConfig:
    return replace(config, noise=replace(config.noise, enabled=False))


class _Stopped(Exception):
    """Raised by `_CostBound` to end a run whose cost reached the ceiling;
    its one argument is the value the run stops with."""


# A bound costs a few numpy reductions, whatever the length of its rows, so
# `_CostBound` takes at least this many rows at once: 3 windows at the
# default 0.1 s delay, and not one reduction per step when there is none.
_BOUND_STEPS = 250


class _CostBound:
    """A `run_scenario` watch that keeps a lower bound on `evaluate`'s cost
    from the run so far, and stops the run once it reaches `ceiling`.

    Each term bounds its counterpart of the full run from below:
    - t_s by the time of the last sample outside the band (the full t_s
      interpolates after that sample, or is the duration);
    - M_p by the peak excursion so far;
    - t_r by t[k] - t10 while 90 % is not yet crossed (t90 lies after
      t[k]), and by the exact t90 - t10 once it is;
    - the IAE by the running sum of |cmd - omega| scaled by 1 - 4·n·2⁻⁵³
      for a run of n steps: summed in any order, n non-negative floats err
      by at most (n-1)·2⁻⁵³ relative to their exact sum, to first order
      (Higham, Accuracy and Stability of Numerical Algorithms, 2002, sec.
      4.2), both here and in the full run's `np.sum`.
    The terms are added as `evaluate` adds them, so rounding keeps the
    bound at most the formula's cost.  A run that diverges later, or never
    crosses 10 %, costs the penalty instead, so the value it stops with is
    the bound capped at the penalty.  Rows are taken in batches of at
    least `_BOUND_STEPS` (whole windows), each reduced once.
    """

    def __init__(self, cost, scenario, band, ceiling):
        self.cost, self.ceiling, self.dt = cost, ceiling, scenario.dt
        self.target, self.half_width = band.target, band.half_width
        start, span = scenario.initial, scenario.command - scenario.initial
        self.rising = span > 0
        self.direction = 1.0 if self.rising else -1.0
        self.levels = [start + 0.1 * span, start + 0.9 * span]
        self.crossed = []    # t10, then t90, as `step_metrics` finds them
        self.peak = -np.inf if self.rising else np.inf
        self.t_out = 0.0     # time of the last sample outside the band
        self.abs_error = 0.0
        self.k = 0           # the first row not yet taken

    def __call__(self, trace, k0, k1):
        if k1 - self.k < _BOUND_STEPS:
            return
        k0, self.k = self.k, k1
        y = trace.omega[k0:k1]
        d = np.abs(y - self.target)
        self.abs_error += float(d.sum())
        if d[-1] > self.half_width:
            self.t_out = float(trace.t[k1 - 1])
        elif d.max() > self.half_width:
            self.t_out = float(trace.t[k0 + np.flatnonzero(
                d > self.half_width)[-1]])
        if self.rising:
            self.peak = max(self.peak, float(y.max()))
        else:
            self.peak = min(self.peak, float(y.min()))
        for level in self.levels[len(self.crossed):]:
            if (self.peak - level) * self.direction < 0:
                break
            # Sample k0-1 is not past the level, or an earlier batch would
            # have crossed it, so the first crossing is interpolated here
            # exactly as on the whole trace.
            k = max(k0 - 1, 0)
            self.crossed.append(_crossing_time(
                trace.t[k:k1], trace.omega[k:k1], level, self.rising))
        if len(self.crossed) == 2:
            t_r = self.crossed[1] - self.crossed[0]
        elif self.crossed:
            t_r = trace.t[k1 - 1] - self.crossed[0]
        else:
            t_r = 0.0
        cost = self.cost
        m_p = max((self.peak - self.target) * self.direction, 0.0)
        iae = self.abs_error * (1 - 4 * len(trace) * 2.0 ** -53) * self.dt
        bound = (cost.w_ts * self.t_out + cost.w_mp * m_p
                 + cost.w_tr * float(t_r) + cost.w_iae * iae)
        if bound >= self.ceiling:
            raise _Stopped(min(bound, cost.divergence_penalty))


def evaluate(config: LoopConfig, scenario: Scenario, cost: CostSpec,
             ceiling=math.inf):
    """(StepMetrics or None, cost) of one noise-free run.

    A run that diverges or never crosses 10 % of the step costs the
    divergence penalty.  With a ceiling at most that penalty, the run
    stops once a lower bound on its cost (`_CostBound`) reaches the
    ceiling, and the result is (None, bound): the bound is at least the
    ceiling and at most the full run's cost, so it compares with the
    ceiling as that cost would.  A cost below the ceiling is always exact.
    """
    band = band_for_step(scenario.initial, scenario.command)
    watch = (_CostBound(cost, scenario, band, ceiling)
             if ceiling <= cost.divergence_penalty else None)
    try:
        trace = run_scenario(_quiet(config), scenario, watch)
        m = step_metrics(trace, scenario.initial, scenario.command, band)
    except (DivergedError, NoResponseError):
        return None, cost.divergence_penalty
    except _Stopped as stop:
        return None, stop.args[0]
    iae = float(np.sum(np.abs(trace.cmd - trace.omega)) * scenario.dt)
    t_s = m.t_s if m.t_s is not None else scenario.duration
    value = (cost.w_ts * t_s + cost.w_mp * m.m_p
             + cost.w_tr * m.t_r + cost.w_iae * iae)
    return m, value


def sweep(spec: SweepSpec):
    """One run per value, scored by the default `CostSpec`; returns
    [(value, StepMetrics or None, cost), ...]."""
    rows = []
    doc = {"loop": asdict(spec.config)}
    for value in spec.values:
        cfgmod.apply_override(doc, "loop." + spec.path, value)
        m, c = evaluate(cfgmod.loop_config_from(doc), spec.scenario,
                        CostSpec())
        rows.append((value, m, c))
    return rows


class _BudgetSpent(Exception):
    """Raised by `nelder_mead`'s probe once the evaluation budget is spent."""


def nelder_mead(f, x0, steps, max_evals):
    """Minimal Nelder-Mead with a hard evaluation budget.

    `f(x, ceiling)` returns the cost of x, or any value at least `ceiling`
    when the cost is.  The ceiling is what the value is next compared with:
    scores[-2] for a reflection, the reflection's cost for an expansion,
    scores[-1] for a contraction, and inf for the first simplex and for
    shrinks, whose costs are stored.  Each ceiling is at least the best
    cost so far, so the search, best_x, best_f and history are the same as
    with exact costs, and every stored score is exact.

    Returns (best_x, best_f, history) where history is the best-so-far cost
    after each evaluation (non-increasing by construction).  The first
    evaluation always runs.
    """
    alpha, gamma, rho, sigma = 1.0, 2.0, 0.5, 0.5
    x0 = np.asarray(x0, dtype=float)
    history = []
    best = {"x": x0.copy(), "f": np.inf}

    def probe(x, ceiling=np.inf):
        fx = f(np.asarray(x, dtype=float), ceiling)
        if fx < best["f"]:
            best["x"], best["f"] = np.array(x, dtype=float), fx
        history.append(best["f"])
        if len(history) >= max_evals:
            raise _BudgetSpent
        return fx

    simplex = np.tile(x0, (len(x0) + 1, 1))
    for i in range(len(x0)):
        simplex[i + 1, i] += steps[i]
    try:
        scores = np.array([probe(x) for x in simplex], dtype=float)

        while True:
            order = np.argsort(scores)
            simplex, scores = simplex[order], scores[order]
            if (np.max(np.abs(simplex[1:] - simplex[0])) < X_TOL
                    and np.max(scores) - np.min(scores) < F_TOL):
                break
            centroid = simplex[:-1].mean(axis=0)
            xr = centroid + alpha * (centroid - simplex[-1])
            fr = probe(xr, scores[-2])
            if scores[0] <= fr < scores[-2]:
                simplex[-1], scores[-1] = xr, fr
                continue
            if fr < scores[0]:
                xe = centroid + gamma * (xr - centroid)
                fe = probe(xe, fr)
                if fe < fr:
                    simplex[-1], scores[-1] = xe, fe
                else:
                    simplex[-1], scores[-1] = xr, fr
                continue
            xc = centroid + rho * (simplex[-1] - centroid)
            fc = probe(xc, scores[-1])
            if fc < scores[-1]:
                simplex[-1], scores[-1] = xc, fc
                continue
            for i in range(1, len(simplex)):
                simplex[i] = simplex[0] + sigma * (simplex[i] - simplex[0])
                scores[i] = probe(simplex[i])
    except _BudgetSpent:
        pass
    return best["x"], best["f"], history


def tune_pid(config: LoopConfig, scenario: Scenario, cost: CostSpec,
             max_evals):
    """Nelder-Mead over (k_p, k_i, k_d) starting from the config's gains,
    with at most `max_evals` evaluations.

    Returns (PidGains, history).  Never returns gains worse than the start.
    """
    if max_evals < 1:
        raise ConfigError("max_evals must be >= 1")
    start = np.array([config.pid.k_p, config.pid.k_i, config.pid.k_d])

    def objective(gains, ceiling):
        pid = replace(config.pid, k_p=float(gains[0]), k_i=float(gains[1]),
                      k_d=float(gains[2]))
        _, value = evaluate(replace(config, pid=pid), scenario, cost, ceiling)
        return value

    steps = [max(0.05 * abs(g), 0.5) for g in start]
    best_x, best_f, history = nelder_mead(objective, start, steps, max_evals)
    if best_f >= cost.divergence_penalty:
        raise UntunableStartError("no evaluated gains scored below the"
                                  " divergence penalty")
    gains = replace(config.pid, k_p=float(best_x[0]), k_i=float(best_x[1]),
                    k_d=float(best_x[2]))
    return gains, history
