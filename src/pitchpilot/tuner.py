"""Parameter sweeps and derivative-free PID gain tuning.

Tuning and sweeping always run with noise disabled so the cost surface is
deterministic; diverged runs get a large finite penalty so the simplex can
retreat instead of crashing.

Most of Nelder-Mead's evaluations only ask whether a cost is below a
ceiling (the score a candidate must beat).  `tune_pid` passes that ceiling
to `evaluate`, which stops a run once a lower bound on its cost from the
batches of rows `run_scenario` watches reaches it; the search, its best
gains and its history are the same as with every run simulated in full.
`metrics.StepTracker` measures those rows.  `sweep` passes no ceiling.
"""

import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import config as cfgmod
from .engine import LoopConfig, Scenario, run_scenario
from .errors import (ConfigError, DivergedError, NoResponseError,
                     NonNegative, Params, Positive, UntunableStartError)
from .metrics import StepTracker, band_for_step, step_metrics

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


def _weighted(cost: CostSpec, t_s, m_p, t_r, iae):
    """w_ts·t_s + w_mp·M_p + w_tr·t_r + w_iae·IAE for the cost and its bound
    alike: one order of rounding keeps the bound at most the cost."""
    return (cost.w_ts * t_s + cost.w_mp * m_p + cost.w_tr * t_r
            + cost.w_iae * iae)


class _Stopped(Exception):
    """Raised by `_CostBound` to end a run whose cost reached the ceiling;
    its one argument is the value the run stops with."""


class _CostBound:
    """A `run_scenario` watch that stops a run once a lower bound on
    `evaluate`'s cost from the batches so far reaches `ceiling`: t_s by the
    last row outside the band, M_p by the peak so far, t_r by t[k1-1] - t10
    until 90 % is crossed, and the IAE by the running sum of |cmd - omega|
    times 1 - 4·n·2⁻⁵³ for n steps, as two sums of n non-negative floats
    differ by at most (n-1)·2⁻⁵³ each (Higham, Accuracy and Stability of
    Numerical Algorithms, 2002, sec. 4.2).  It is capped at the penalty, the
    cost of a run that would diverge or never cross 10 %."""

    def __init__(self, cost, scenario, band, ceiling):
        self.cost, self.ceiling, self.dt = cost, ceiling, scenario.dt
        self.command = scenario.command
        self.step = StepTracker(scenario.initial, scenario.command, band)
        self.abs_error = 0.0

    def __call__(self, trace, k0, k1):
        step = self.step
        step.update(trace.t, trace.omega, k1)
        self.abs_error += float(np.abs(trace.omega[k0:k1]
                                       - self.command).sum())
        t_s = 0.0 if step.last_out is None else float(trace.t[step.last_out])
        # Until 90 % is crossed, the full run's t90 lies after t[k1-1], or
        # its rise counts as the duration, which is longer.
        t_r = step.t_r
        if t_r is None:
            t_r = 0.0 if step.t10 is None else trace.t[k1 - 1] - step.t10
        iae = self.abs_error * (1 - 4 * len(trace) * 2.0 ** -53) * self.dt
        bound = _weighted(self.cost, t_s, max(float(step.peak), 0.0),
                          float(t_r), iae)
        if bound >= self.ceiling:
            raise _Stopped(min(bound, self.cost.divergence_penalty))


def evaluate(config: LoopConfig, scenario: Scenario, cost: CostSpec,
             ceiling=math.inf):
    """(StepMetrics or None, cost) of one noise-free run.

    A run that diverges or never crosses 10 % of the step costs the
    divergence penalty; a t_s or t_r that never comes counts as the
    duration.  With a ceiling at most that penalty, the run stops once a
    lower bound on its cost (`_CostBound`) reaches the ceiling, and the
    result is (None, bound): the bound is at least the ceiling and at most
    the full run's cost, so it compares with the ceiling as that cost
    would.  A cost below the ceiling is always exact.
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
    t_r = m.t_r if math.isfinite(m.t_r) else scenario.duration
    return m, _weighted(cost, t_s, m.m_p, t_r, iae)


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
        pid = replace(config.pid, k_p=gains[0], k_i=gains[1], k_d=gains[2])
        _, value = evaluate(replace(config, pid=pid), scenario, cost, ceiling)
        return value

    steps = [max(0.05 * abs(g), 0.5) for g in start]
    best_x, best_f, history = nelder_mead(objective, start, steps, max_evals)
    if best_f >= cost.divergence_penalty:
        raise UntunableStartError("no evaluated gains scored below the"
                                  " divergence penalty")
    gains = replace(config.pid, k_p=best_x[0], k_i=best_x[1], k_d=best_x[2])
    return gains, history
