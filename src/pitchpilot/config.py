"""JSON configuration: defaults, loading, dotted-path overrides, builders.

One document with sections `missile`, `derivatives`, `tail_sizing`, `loop`
(sub-sections `pid`, `compensator`, `actuator`, `plant`, `disturbance`,
`noise`, `kalman`) and `scenario`.  Every key defaults to the published
value, so an empty file reproduces the compensated system B.
"""

import json
from dataclasses import MISSING, asdict, fields

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


def default_config():
    """The full default configuration document."""
    return {name: asdict(cls()) for name, cls in SECTIONS.items()}


# A key is a section if its default is one, so a leaf that an earlier
# override set to a JSON object is still a leaf.
_SCHEMA = default_config()


def _merge(base, override, path="", schema=_SCHEMA):
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in schema:
            raise ConfigError(f"unknown configuration key '{where}'")
        if isinstance(schema[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"'{where}' must be a section, got {value!r}")
            _merge(base[key], value, where, schema[key])
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
    except (ValueError, RecursionError) as exc:
        # Not UTF-8, an integer past Python's digit limit, or nesting past
        # the recursion limit.
        raise ConfigError(f"malformed config {path}: {exc}") from exc
    if not isinstance(user, dict):
        raise ConfigError(f"config root must be a JSON object in {path}")
    return _merge(cfg, user)


def parse_value(text):
    """Parse an override value: JSON literal, falling back to a string."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError):
        # Also an integer past Python's digit limit or nesting past the
        # recursion limit: the section's build then rejects the string.
        return text


def apply_override(cfg, dotted, value):
    """Set `dotted` (e.g. loop.actuator.gain) to `value` inside cfg, as a
    config file holding that one key would."""
    override = value
    for name in reversed(dotted.split(".")):
        override = {name: override}
    return _merge(cfg, override)


def _build(cls, doc, where):
    """Instantiate `cls` from its document section, sub-sections first."""
    kwargs = {f.name: (doc[f.name] if f.default_factory is MISSING
                       else _build(f.default_factory, doc[f.name],
                                   f"{where}.{f.name}"))
              for f in fields(cls)}
    try:
        return cls(**kwargs)
    except ConfigError as exc:
        raise ConfigError(f"invalid '{where}' section: {exc}") from exc


def _section(cfg, name):
    return _build(SECTIONS[name], cfg[name], name)


def loop_config_from(cfg) -> LoopConfig:
    return _section(cfg, "loop")


def scenario_from(cfg) -> Scenario:
    return _section(cfg, "scenario")


def airframe_from(cfg) -> tuple:
    """The airframe sections in `aero.sizing_report`'s argument order."""
    return tuple(_section(cfg, name)
                 for name in ("missile", "derivatives", "tail_sizing"))
