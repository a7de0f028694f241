"""Parameter sweeps and derivative-free PID gain tuning.

Tuning and sweeping always run with noise disabled so the cost surface is
deterministic; diverged runs get a large finite penalty so the simplex can
retreat instead of crashing.
"""

from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import config as cfgmod
from .engine import LoopConfig, Scenario, run_scenario
from .errors import (ConfigError, DivergedError, NoResponseError,
                     NonNegative, Params, Positive, UntunableStartError)
from .metrics import band_for_step, step_metrics

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


def evaluate(config: LoopConfig, scenario: Scenario, cost: CostSpec):
    """(StepMetrics or None, cost) of one noise-free run."""
    try:
        trace = run_scenario(_quiet(config), scenario)
        band = band_for_step(scenario.initial, scenario.command)
        m = step_metrics(trace, scenario.initial, scenario.command, band)
    except (DivergedError, NoResponseError):
        return None, cost.divergence_penalty
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

    Returns (best_x, best_f, history) where history is the best-so-far cost
    after each evaluation (non-increasing by construction).  The first
    evaluation always runs.
    """
    alpha, gamma, rho, sigma = 1.0, 2.0, 0.5, 0.5
    x0 = np.asarray(x0, dtype=float)
    history = []
    best = {"x": x0.copy(), "f": np.inf}

    def probe(x):
        fx = f(np.asarray(x, dtype=float))
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
            fr = probe(xr)
            if scores[0] <= fr < scores[-2]:
                simplex[-1], scores[-1] = xr, fr
                continue
            if fr < scores[0]:
                xe = centroid + gamma * (xr - centroid)
                fe = probe(xe)
                if fe < fr:
                    simplex[-1], scores[-1] = xe, fe
                else:
                    simplex[-1], scores[-1] = xr, fr
                continue
            xc = centroid + rho * (simplex[-1] - centroid)
            fc = probe(xc)
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

    def objective(gains):
        pid = replace(config.pid, k_p=float(gains[0]), k_i=float(gains[1]),
                      k_d=float(gains[2]))
        _, value = evaluate(replace(config, pid=pid), scenario, cost)
        return value

    steps = [max(0.05 * abs(g), 0.5) for g in start]
    best_x, best_f, history = nelder_mead(objective, start, steps, max_evals)
    n_vertices = len(start) + 1
    if (len(history) >= n_vertices
            and best_f >= cost.divergence_penalty):
        raise UntunableStartError("every initial simplex vertex diverged")
    gains = replace(config.pid, k_p=float(best_x[0]), k_i=float(best_x[1]),
                    k_d=float(best_x[2]))
    return gains, history
