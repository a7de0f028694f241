import warnings
from dataclasses import replace

import numpy as np
import pytest

from pitchpilot.blocks import (DisturbanceParams, NoiseParams, PidGains,
                               PitchPlantParams)
from pitchpilot.engine import (LoopConfig, Scenario, Trace, run_ab_pair,
                               run_scenario, stability_probe)
from pitchpilot.errors import ConfigError, DivergedError


class TestScenario:
    def test_validation(self):
        with pytest.raises(ConfigError):
            Scenario(duration=0.0)
        with pytest.raises(ConfigError):
            Scenario(dt=0.02)   # resolution guard
        with pytest.raises(ConfigError):
            Scenario(dt=2.0, duration=1.0)


class TestRunScenario:
    def test_equilibrium_start(self, quiet_config):
        sc = Scenario(initial=5.0, command=5.0, duration=1.0)
        trace = run_scenario(quiet_config, sc)
        assert np.max(np.abs(trace.omega - 5.0)) < 1e-9

    def test_delay_hold_is_exact(self, ab_traces):
        for trace in ab_traces:
            held = trace.omega[trace.t < 0.1]
            assert np.all(held == 10.0)

    def test_trace_shape(self, quiet_config):
        trace = run_scenario(quiet_config, Scenario(duration=0.05))
        assert len(trace) == 51
        spacing = np.diff(trace.t)
        assert np.allclose(spacing, 0.001, rtol=0, atol=1e-12)

    def test_determinism_with_noise(self, noisy_config):
        sc = Scenario(seed=123, duration=2.0)
        t1 = run_scenario(noisy_config, sc)
        t2 = run_scenario(noisy_config, sc)
        for name in ("omega", "omega_meas", "omega_filt", "delta"):
            assert np.array_equal(getattr(t1, name), getattr(t2, name))

    def test_noise_off_is_seed_independent(self, quiet_config):
        t1 = run_scenario(quiet_config, Scenario(seed=1, duration=1.0))
        t2 = run_scenario(quiet_config, Scenario(seed=999, duration=1.0))
        assert np.array_equal(t1.omega, t2.omega)

    @pytest.mark.parametrize("plant", [PitchPlantParams(),
                                       PitchPlantParams(J_z=1.0, lam=2800.0)],
                             ids=["default", "stiff"])
    def test_halving_dt_converges(self, quiet_config, plant):
        cfg = replace(quiet_config, plant=plant)
        base = run_scenario(cfg, Scenario(duration=4.0, dt=0.001))
        fine = run_scenario(cfg, Scenario(duration=4.0, dt=0.0005))
        diff = np.max(np.abs(base.omega - fine.omega[::2]))
        assert diff < 0.005 * 9.0   # < 0.5% of the 9 degree step

    def test_zero_gains_hold_equilibrium(self, quiet_config):
        cfg = replace(quiet_config, pid=PidGains(k_p=0, k_i=0, k_d=0))
        trace = run_scenario(cfg, Scenario(duration=1.0))
        assert np.all(trace.omega == 10.0)
        assert np.all(np.abs(trace.omega_dot) <= 1e-12)

    @pytest.mark.parametrize("J, lam, amp, freq",
                             [(40.0, 6.0, 1.0, 1.0), (10.0, 20.0, 3.0, 2.5),
                              (1.0, 3000.0, 1.0, 1.0)])
    def test_open_loop_plant_matches_closed_form(self, J, lam, amp, freq):
        # Zero gains leave the deflection at zero, so the plant runs open
        # loop: J·w'' + lam·w' = -amp·sin(freq·t) from rest at 10 deg.
        cfg = LoopConfig(pid=PidGains(k_p=0, k_i=0, k_d=0),
                         plant=PitchPlantParams(J_z=J, lam=lam),
                         disturbance=DisturbanceParams(amp, freq),
                         noise=NoiseParams(enabled=False))
        trace = run_scenario(cfg, Scenario())
        t = trace.t
        a, f = lam / J, freq
        scale = -amp / J / (a * a + f * f)
        rate = scale * (a * np.sin(f * t) - f * np.cos(f * t)
                        + f * np.exp(-a * t))
        pitch = 10.0 + scale * (a * (1.0 - np.cos(f * t)) / f - np.sin(f * t)
                                + f / a * (1.0 - np.exp(-a * t)))
        assert np.all(trace.delta == 0.0)
        assert np.max(np.abs(trace.omega_dot - rate)) < 1e-12
        assert np.max(np.abs(trace.omega - pitch)) < 1e-12

    def test_diverged_run_carries_step_index(self, quiet_config):
        cfg = replace(quiet_config, pid=PidGains(k_p=1e9, k_i=0, k_d=1e9))
        with pytest.raises(DivergedError) as excinfo:
            run_scenario(cfg, Scenario(duration=10.0))
        assert excinfo.value.step > 0

    def test_float64_parameters_diverge_at_the_same_step(self, quiet_config,
                                                        as_float64):
        # numpy scalars in the loop would warn on overflow before the
        # finiteness check fires; the loop must run on floats regardless.
        cfg = replace(quiet_config, pid=PidGains(k_p=1e9, k_i=0, k_d=1e9))
        steps = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for loop, scenario in ((cfg, Scenario()),
                                   (as_float64(cfg), as_float64(Scenario()))):
                with pytest.raises(DivergedError) as excinfo:
                    run_scenario(loop, scenario)
                steps.append(excinfo.value.step)
        assert steps[0] == steps[1]

    def test_tau_must_divide_dt(self, quiet_config):
        cfg = replace(quiet_config,
                      actuator=replace(quiet_config.actuator, tau=0.0015))
        with pytest.raises(ConfigError):
            run_scenario(cfg, Scenario(duration=1.0))

    def test_noise_sample_time_must_divide_dt(self, noisy_config):
        cfg = replace(noisy_config,
                      noise=replace(noisy_config.noise, sample_time=0.0015))
        with pytest.raises(ConfigError):
            run_scenario(cfg, Scenario(duration=1.0))


class TestAbPair:
    def test_identical_during_delay_hold(self, ab_traces):
        trace_a, trace_b = ab_traces
        hold = trace_a.t < 0.1
        assert np.array_equal(trace_a.omega[hold], trace_b.omega[hold])

    def test_b_improves_rise_and_settle(self, ab_metrics):
        m_a, m_b = ab_metrics
        assert m_b.t_r < m_a.t_r
        assert m_b.t_s < m_a.t_s

    def test_unity_compensator_is_identity(self, quiet_config):
        cfg = replace(quiet_config,
                      compensator=replace(quiet_config.compensator, a=1.0))
        trace_a, trace_b = run_ab_pair(cfg, Scenario(duration=2.0))
        assert np.max(np.abs(trace_a.omega - trace_b.omega)) < 1e-9

    def test_diverged_leg_is_tagged(self, quiet_config):
        cfg = replace(quiet_config, pid=PidGains(k_p=1e9, k_i=0, k_d=1e9))
        with pytest.raises(DivergedError) as excinfo:
            run_ab_pair(cfg, Scenario(duration=10.0))
        assert excinfo.value.leg == "A"


class TestStabilityProbe:
    def test_delay_free_and_published_delay_stable(self, quiet_config):
        verdicts = dict(stability_probe(quiet_config, Scenario(), [0.0, 0.1]))
        assert verdicts[0.0] is True
        assert verdicts[0.1] is True

    def test_monotone_verdicts(self, probe_verdicts):
        verdicts = probe_verdicts
        seen_unstable = False
        for _, stable in verdicts:
            if not stable:
                seen_unstable = True
            if seen_unstable:
                assert not stable


class TestTraceCsv:
    def test_roundtrip(self, quiet_config, tmp_path):
        trace = run_scenario(quiet_config, Scenario(duration=0.05))
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "t,cmd,omega,omega_dot,omega_meas,omega_filt,error,u_pid,u_lead,delta,d_t"
        back = Trace.from_csv(path)
        assert np.array_equal(back.omega, trace.omega)
        assert np.array_equal(back.delta, trace.delta)
