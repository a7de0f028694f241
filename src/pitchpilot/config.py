"""JSON configuration: defaults, loading, dotted-path overrides, builders.

One document with sections `missile`, `derivatives`, `tail_sizing`, `loop`
(sub-sections `pid`, `compensator`, `actuator`, `plant`, `disturbance`,
`noise`, `kalman`) and `scenario`.  Every key defaults to the published
value, so an empty file reproduces the compensated system B.
"""

import json
from dataclasses import MISSING, fields

from .aero import AeroDerivatives, MissileConfig, TailSizingInputs
from .engine import LoopConfig, Scenario
from .errors import ConfigError

# Document section -> dataclass.  The defaults live in the dataclasses; a
# field whose default is built by a factory is a nested sub-section.
SECTIONS = {
    "missile": MissileConfig,
    "derivatives": AeroDerivatives,
    "tail_sizing": TailSizingInputs,
    "loop": LoopConfig,
    "scenario": Scenario,
}


def _defaults(cls):
    return {f.name: (f.default if f.default_factory is MISSING
                     else _defaults(f.default_factory))
            for f in fields(cls)}


def default_config():
    """The full default configuration document."""
    return {name: _defaults(cls) for name, cls in SECTIONS.items()}


def _merge(base, override, path=""):
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown configuration key '{where}'")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"'{where}' must be a section, got {value!r}")
            _merge(base[key], value, where)
        else:
            base[key] = value
    return base


def load_config(path=None):
    """Defaults merged with the JSON document at `path` (if given)."""
    cfg = default_config()
    if path is None:
        return cfg
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        user = json.loads(text) if text.strip() else {}
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"malformed config {path}: {exc.msg} at line {exc.lineno}") from exc
    if not isinstance(user, dict):
        raise ConfigError(f"config root must be a JSON object in {path}")
    return _merge(cfg, user)


def parse_value(text):
    """Parse an override value: JSON literal, falling back to a string."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def apply_override(cfg, dotted, value):
    """Set `dotted` (e.g. loop.actuator.gain) to `value` inside cfg."""
    parts = dotted.split(".")
    node = cfg
    for i, part in enumerate(parts[:-1]):
        if not isinstance(node, dict) or part not in node:
            raise ConfigError(f"unknown configuration key '{dotted}'")
        node = node[part]
    leaf = parts[-1]
    if not isinstance(node, dict) or leaf not in node:
        raise ConfigError(f"unknown configuration key '{dotted}'")
    if isinstance(node[leaf], dict):
        raise ConfigError(f"'{dotted}' is a section, not a value")
    node[leaf] = value
    return cfg


def _build(cls, doc, where):
    """Instantiate `cls` from its document section, sub-sections first."""
    kwargs = {f.name: (doc[f.name] if f.default_factory is MISSING
                       else _build(f.default_factory, doc[f.name],
                                   f"{where}.{f.name}"))
              for f in fields(cls)}
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid '{where}' section: {exc}") from exc


def _section(cfg, name):
    return _build(SECTIONS[name], cfg[name], name)


def loop_config_from(cfg) -> LoopConfig:
    return _section(cfg, "loop")


def scenario_from(cfg) -> Scenario:
    return _section(cfg, "scenario")


def missile_from(cfg) -> MissileConfig:
    return _section(cfg, "missile")


def derivatives_from(cfg) -> AeroDerivatives:
    return _section(cfg, "derivatives")


def tail_sizing_from(cfg) -> TailSizingInputs:
    return _section(cfg, "tail_sizing")
