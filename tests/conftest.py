import numpy as np
import pytest
from dataclasses import fields, is_dataclass, replace

from pitchpilot.blocks import DisturbanceParams, NoiseParams
from pitchpilot.engine import LoopConfig, Scenario, run_ab_pair
from pitchpilot.errors import NonNegative, Nonzero, Positive
from pitchpilot.metrics import band_for_step, step_metrics


@pytest.fixture(scope="session")
def quiet_config():
    """Default loop with noise and time-varying disturbance off."""
    return LoopConfig(noise=NoiseParams(enabled=False),
                      disturbance=DisturbanceParams(amplitude=0.0))


@pytest.fixture(scope="session")
def noisy_config():
    """Default loop with noise on and time-varying disturbance off."""
    return LoopConfig(disturbance=DisturbanceParams(amplitude=0.0))


@pytest.fixture(scope="session")
def scenario():
    return Scenario()


@pytest.fixture(scope="session")
def ab_traces(quiet_config, scenario):
    """The noise-free compensator A/B experiment (shared across tests)."""
    return run_ab_pair(quiet_config, scenario)


@pytest.fixture(scope="session")
def ab_metrics(ab_traces, scenario):
    band = band_for_step(scenario.initial, scenario.command, 0.05)
    trace_a, trace_b = ab_traces
    m_a = step_metrics(trace_a, scenario.initial, scenario.command, band)
    m_b = step_metrics(trace_b, scenario.initial, scenario.command, band)
    return m_a, m_b


@pytest.fixture(scope="session")
def probe_verdicts(quiet_config, scenario):
    """Stability verdicts on the 50..500 ms delay grid."""
    from pitchpilot.engine import stability_probe
    delays = [round(0.05 * i, 2) for i in range(1, 11)]
    return stability_probe(quiet_config, scenario, delays)


@pytest.fixture(scope="session")
def noise_pairs(noisy_config):
    """A/B traces with noise on for 10 fixed seeds."""
    pairs = {}
    for seed in range(10):
        pairs[seed] = run_ab_pair(noisy_config, Scenario(seed=seed))
    return pairs


@pytest.fixture(scope="session")
def lead_response():
    """Complex gain at w (rad/s) of a `Lead` stepped every dt seconds,
    from its difference-equation coefficients."""
    def response(lead, w, dt):
        z = np.exp(1j * w * dt)
        return (lead.b0 * z + lead.b1) / (lead.a0 * z + lead.a1)
    return response


def _float64_fields(params):
    """`params` with every float field, sub-sections included, as
    np.float64."""
    return replace(params, **{
        f.name: (_float64_fields(getattr(params, f.name))
                 if is_dataclass(f.type)
                 else np.float64(getattr(params, f.name)))
        for f in fields(params)
        if f.type in (float, Positive, NonNegative, Nonzero)
        or is_dataclass(f.type)})


@pytest.fixture(scope="session")
def as_float64():
    """Recast a parameter dataclass the way numpy-built callers pass it,
    e.g. `SweepSpec(values=np.linspace(...))`."""
    return _float64_fields
