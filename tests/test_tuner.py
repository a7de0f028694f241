import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pitchpilot import tuner
from pitchpilot.engine import Scenario, run_scenario
from pitchpilot.errors import ConfigError, UntunableStartError
from pitchpilot.metrics import band_for_step, step_metrics
from pitchpilot.tuner import (CostSpec, SweepSpec, evaluate, nelder_mead,
                              sweep, tune_pid)


class TestCostSpec:
    def test_negative_weight_rejected(self):
        with pytest.raises(ConfigError):
            CostSpec(w_ts=-1.0)


def _shaped(shape, x):
    """A 2-D test cost: a quadratic bowl, the bowl with a cliff, or the
    floor of the bowl (ties)."""
    value = float(np.sum((x - np.array([3.0, -2.0])) ** 2))
    if shape == "cliff":
        value += 1e6 if x[0] > 2.0 else 0.0
    elif shape == "plateau":
        value = float(np.floor(value))
    return value


class TestNelderMead:
    def test_quadratic_convergence(self):
        target = np.array([3.0, -1.5, 7.0])

        def f(x, ceiling):
            return float(np.sum((x - target) ** 2))

        best, cost, history = nelder_mead(
            f, x0=np.zeros(3), steps=[1.0, 1.0, 1.0], max_evals=200)
        assert len(history) <= 200
        assert np.allclose(best, target, atol=1e-4)

    def test_budget_of_one_returns_start(self):
        calls = []

        def f(x, ceiling):
            calls.append(np.array(x))
            return float(np.sum(x ** 2))

        best, _, history = nelder_mead(f, np.array([2.0, 3.0]), [1.0, 1.0],
                                       max_evals=1)
        assert len(calls) == 1
        assert np.array_equal(best, [2.0, 3.0])
        assert len(history) == 1

    def test_history_non_increasing(self):
        def f(x, ceiling):
            return float(np.sum((x - 1.0) ** 2))

        _, _, history = nelder_mead(f, np.array([5.0, 5.0]), [1.0, 1.0],
                                    max_evals=60)
        assert all(b <= a for a, b in zip(history, history[1:]))

    @pytest.mark.parametrize("shape", ["quadratic", "cliff", "plateau"])
    @pytest.mark.parametrize("max_evals", range(1, 41))
    def test_budget_at_every_exit(self, shape, max_evals):
        # From the origin all three reach the expansion and contraction
        # steps; the plateau's ties also reach the shrink step.  None
        # converges within 40 evaluations, so each spends its whole budget.
        calls = []

        def f(x, ceiling):
            value = _shaped(shape, x)
            calls.append((x.copy(), value))
            return value

        best_x, best_f, history = nelder_mead(f, np.zeros(2), [1.0, 1.0],
                                              max_evals)
        assert len(calls) == len(history) == max_evals
        x, value = min(calls, key=lambda call: call[1])
        assert best_f == value
        assert np.array_equal(best_x, x)

    @pytest.mark.parametrize("shape", ["quadratic", "cliff", "plateau"])
    @pytest.mark.parametrize("max_evals", [1, 2, 3, 4, 7, 16, 40])
    @pytest.mark.parametrize("stand_in", ["ceiling", "midway"])
    def test_costs_at_or_above_the_ceiling_can_be_bounds(self, shape,
                                                          max_evals,
                                                          stand_in):
        # A cost at or above its ceiling may come back as any value at or
        # above the ceiling; each ceiling is at least the best so far.
        best, stood_in = [np.inf], []

        def bounded(x, ceiling):
            value = _shaped(shape, x)
            assert ceiling >= best[0]
            best[0] = min(best[0], value)
            if value < ceiling:
                return value
            stood_in.append(value)
            return ceiling if stand_in == "ceiling" else (ceiling + value) / 2

        exact = nelder_mead(lambda x, ceiling: _shaped(shape, x), np.zeros(2),
                            [1.0, 1.0], max_evals)
        lazy = nelder_mead(bounded, np.zeros(2), [1.0, 1.0], max_evals)
        assert np.array_equal(lazy[0], exact[0])
        assert lazy[1:] == exact[1:]
        if max_evals >= 7:
            assert stood_in


def _scaled_gains(config, factors):
    pid = config.pid
    return replace(config, pid=replace(
        pid, k_p=pid.k_p * factors[0], k_i=pid.k_i * factors[1],
        k_d=pid.k_d * factors[2]))


# Gains from 0.2 to 3 times the defaults: from sluggish through the default
# response to diverging ones.
_factors = st.lists(st.floats(0.2, 3.0), min_size=3, max_size=3)


class TestCeiling:
    """`evaluate` with a ceiling: a stopped run's value is a bound."""

    @settings(derandomize=True, database=None, deadline=None,
              max_examples=50)
    @given(factors=_factors, scales=st.lists(st.floats(0.3, 1.5),
                                             min_size=2, max_size=2),
           # The default falling step, and a rising one.
           sc=st.sampled_from([Scenario(),
                               Scenario(initial=1.0, command=10.0)]))
    def test_stopped_value_compares_as_the_full_cost(self, quiet_config,
                                                     factors, scales, sc):
        config = _scaled_gains(quiet_config, factors)
        cost = CostSpec()
        _, full = evaluate(config, sc, cost)
        ceilings = [full * scales[0], full * scales[1], full,
                    math.nextafter(full, -math.inf),
                    math.nextafter(full, math.inf),
                    cost.divergence_penalty, math.inf]
        for ceiling in ceilings:
            m, value = evaluate(config, sc, cost, ceiling)
            assert (value >= ceiling) == (full >= ceiling)
            if m is not None or value < ceiling:
                assert value == full
            else:
                assert ceiling <= value <= full

    def test_stops_only_runs_that_reach_the_ceiling(self, quiet_config):
        sluggish = replace(quiet_config, pid=replace(
            quiet_config.pid, k_p=2.0, k_i=0.0, k_d=0.0))
        # The default run; and a proportional-only run of 1 s that crosses
        # 10 % but never 90 %: its rise counts as the duration, so its cost
        # is finite and below the penalty, with or without the rise's
        # weight.
        for config, sc, cost in [
                (quiet_config, Scenario(), CostSpec()),
                (sluggish, Scenario(duration=1.0), CostSpec()),
                (sluggish, Scenario(duration=1.0), CostSpec(w_tr=0))]:
            m, full = evaluate(config, sc, cost)
            assert full < cost.divergence_penalty
            assert (m.t_r == math.inf) == (config is sluggish)
            m, value = evaluate(config, sc, cost, full * 0.5)
            assert m is None and full * 0.5 <= value < full
            m, value = evaluate(config, sc, cost,
                                math.nextafter(full, math.inf))
            assert m is not None and value == full


def _unbounded(config, scenario, cost, ceiling=math.inf):
    return evaluate(config, scenario, cost)


class TestTuneWithStops:
    """`tune_pid` stops runs early yet returns what full runs give."""

    @settings(derandomize=True, database=None, deadline=None,
              max_examples=12)
    @given(factors=st.lists(st.floats(0.5, 2.0), min_size=3, max_size=3),
           max_evals=st.integers(1, 40))
    def test_same_gains_and_history_as_full_runs(self, quiet_config,
                                                 factors, max_evals):
        config, sc = _scaled_gains(quiet_config, factors), Scenario(
            duration=4.0)

        def tune():
            try:
                return repr(tune_pid(config, sc, CostSpec(), max_evals))
            except UntunableStartError as exc:
                return repr(exc)

        with mock.patch.object(tuner, "evaluate", _unbounded):
            full = tune()
        assert tune() == full

    def test_default_tune_stops_runs(self, quiet_config):
        # The 16-evaluation budget of `tune --max-evals 16`.
        seen = []

        def recording(config, scenario, cost, ceiling=math.inf):
            _, value = evaluate(config, scenario, cost, ceiling)
            seen.append((ceiling, value, evaluate(config, scenario, cost)[1]))
            return None, value

        with mock.patch.object(tuner, "evaluate", recording):
            tune_pid(quiet_config, Scenario(), CostSpec(), 16)
        assert any(value != full for _, value, full in seen)
        assert all((value >= c) == (full >= c) for c, value, full in seen)


class TestSweep:
    def test_single_value_matches_run_scenario(self, quiet_config):
        sc = Scenario(duration=6.0)
        spec = SweepSpec(path="actuator.gain", values=(7.0,), scenario=sc,
                         config=quiet_config)
        [(value, m, cost)] = sweep(spec)
        trace = run_scenario(quiet_config, sc)
        m_direct = step_metrics(trace, sc.initial, sc.command,
                                band_for_step(sc.initial, sc.command, 0.05))
        assert value == 7.0
        assert m.t_r == m_direct.t_r
        assert m.t_s == m_direct.t_s
        assert cost > 0

    def test_ignored_parameter_gives_flat_costs(self, quiet_config):
        sc = Scenario(duration=4.0)
        spec = SweepSpec(path="noise.variance", values=(0.0, 0.1, 0.5),
                         scenario=sc, config=quiet_config)
        rows = sweep(spec)
        assert all(row[2] == rows[0][2] for row in rows)

    def test_order_independence(self, quiet_config):
        sc = Scenario(duration=4.0)
        values = (5.0, 9.0, 7.0)
        forward = sweep(SweepSpec(path="actuator.gain", values=values,
                                  scenario=sc, config=quiet_config))
        reverse = sweep(SweepSpec(path="actuator.gain", values=values[::-1],
                                  scenario=sc, config=quiet_config))
        assert {v: c for v, _, c in forward} == {v: c for v, _, c in reverse}

    def test_bad_path_rejected(self, quiet_config):
        with pytest.raises(ConfigError):
            sweep(SweepSpec(path="nonsense.value", values=(1.0,),
                            config=quiet_config))

    @pytest.mark.parametrize("path, value", [("actuator.gain", float("nan")),
                                             ("actuator.tau", -1.0),
                                             ("noise.enabled", 1.0),
                                             ("noise.sample_time", -1.0),
                                             ("actuator", 1.0)])
    def test_value_built_like_an_override(self, quiet_config, path, value):
        with pytest.raises(ConfigError, match=r"'loop\.(actuator|noise)"):
            sweep(SweepSpec(path=path, values=(value,), config=quiet_config,
                            scenario=Scenario(duration=0.05)))

    def test_empty_values_rejected(self, quiet_config):
        with pytest.raises(ConfigError):
            SweepSpec(path="actuator.gain", values=(), config=quiet_config)


class TestTunePid:
    def test_budget_of_one_returns_start(self, quiet_config):
        gains, history = tune_pid(quiet_config, Scenario(duration=4.0),
                                  CostSpec(), max_evals=1)
        assert gains == quiet_config.pid
        assert len(history) == 1

    def test_never_worse_than_start(self, quiet_config):
        sc = Scenario(duration=4.0)
        _, start_cost = evaluate(quiet_config, sc, CostSpec())
        gains, history = tune_pid(quiet_config, sc, CostSpec(), max_evals=10)
        assert history[-1] <= start_cost
        assert all(b <= a for a, b in zip(history, history[1:]))

    def test_zero_weight_cost_returns_start(self, quiet_config):
        # Every evaluation costs 0 or the penalty, and only a strictly lower
        # cost replaces the best, so the start stays best.
        gains, history = tune_pid(
            quiet_config, Scenario(duration=1.0),
            CostSpec(w_ts=0, w_mp=0, w_tr=0, w_iae=0), max_evals=8)
        assert gains == quiet_config.pid
        assert 1 <= len(history) <= 8
        assert history == [0.0] * len(history)

    def test_untunable_start(self, quiet_config):
        # Near-zero gains never pull the pitch off its start within a short
        # run, so every simplex vertex fails to respond.
        cfg = replace(quiet_config,
                      pid=replace(quiet_config.pid, k_p=0.0, k_i=0.0, k_d=0.0))
        with pytest.raises(UntunableStartError):
            tune_pid(cfg, Scenario(duration=1.0), CostSpec(), max_evals=6)

    def test_max_evals_validation(self, quiet_config):
        with pytest.raises(ConfigError):
            tune_pid(quiet_config, Scenario(), CostSpec(), max_evals=0)
