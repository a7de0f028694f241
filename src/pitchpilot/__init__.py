"""pitchpilot: deterministic missile pitch-autopilot simulation toolkit."""

from .aero import (AeroDerivatives, MissileConfig, TailSizingInputs,
                   aspect_ratio, check_control_margin, slender_wing_cn_alpha,
                   span_from_area, static_margin, static_margin_calibers,
                   tail_area, tail_area_ratio, wing_area_from_span)
from .blocks import (Actuator, ActuatorParams, CompensatorParams,
                     DisturbanceParams, Kalman, KalmanParams, Lead,
                     NoiseParams, NoiseSource, Pid, PidGains,
                     PitchPlantParams, disturbance_at)
from .config import default_config, load_config
from .engine import (LoopConfig, Scenario, Trace, run_ab_pair, run_scenario,
                     stability_probe)
from .errors import (ConfigError, DivergedError, DomainError, NoResponseError,
                     PitchPilotError, SingularConfigurationError,
                     UntunableStartError)
from .metrics import (BandSpec, StepMetrics, band_for_step, devaud_report,
                      noise_envelope, step_metrics)
from .tuner import CostSpec, SweepSpec, nelder_mead, sweep, tune_pid

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
