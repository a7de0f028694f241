import json
import math
from dataclasses import fields, is_dataclass, replace
from fractions import Fraction

import numpy as np
import pytest

from pitchpilot import config as cfgmod
from pitchpilot.aero import AeroDerivatives, MissileConfig, TailSizingInputs
from pitchpilot.errors import (ConfigError, DomainError, NonNegative, Nonzero,
                               Params, Positive)
from pitchpilot.metrics import BandSpec
from pitchpilot.tuner import CostSpec, SweepSpec


def _nested(params):
    """`params` and every parameter dataclass nested in it."""
    yield params
    for f in fields(params):
        if is_dataclass(f.type):
            yield from _nested(getattr(params, f.name))


# One valid instance of every parameter dataclass; a SweepSpec holds the
# scenario and the loop with its blocks.
PARAMETER_SETS = {type(p): p for root in (
    SweepSpec("actuator.gain", (7.0,)), CostSpec(), MissileConfig(),
    AeroDerivatives(), TailSizingInputs(),
    BandSpec(half_width=0.45))
    for p in _nested(root)}
# Annotation -> values a field so annotated rejects.
VIOLATIONS = {Positive: (0, -1), NonNegative: (-1,), Nonzero: (0,),
              float: (math.nan, math.inf), bool: (1, None), int: (-1, 0.5)}
REALS = (float, Positive, NonNegative, Nonzero)
RANGED_FIELDS = [pytest.param(params, f, id=f"{cls.__name__}.{f.name}")
                 for cls, params in PARAMETER_SETS.items()
                 for f in fields(params) if f.type in VIOLATIONS]


class TestDefaults:
    def test_empty_file_reproduces_system_b(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("{}")
        cfg = cfgmod.load_config(path)
        assert cfg == cfgmod.default_config()
        loop = cfgmod.loop_config_from(cfg)
        assert loop.compensator.enabled
        assert loop.compensator.a == 11.0
        assert loop.actuator.gain == 7.0
        assert loop.pid.k_p == 44.0
        scenario = cfgmod.scenario_from(cfg)
        assert (scenario.initial, scenario.command) == (10.0, 1.0)

    def test_sections_present(self):
        cfg = cfgmod.default_config()
        assert set(cfg) == {"missile", "derivatives", "tail_sizing", "loop",
                            "scenario"}
        assert set(cfg["loop"]) == {"pid", "compensator", "actuator", "plant",
                                    "disturbance", "noise", "kalman"}

    def test_builders_accept_defaults(self):
        cfg = cfgmod.default_config()
        cfgmod.airframe_from(cfg)
        cfgmod.loop_config_from(cfg)
        cfgmod.scenario_from(cfg)


class TestLoading:
    def test_partial_override(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"loop": {"actuator": {"gain": 5.0}}}))
        cfg = cfgmod.load_config(path)
        assert cfg["loop"]["actuator"]["gain"] == 5.0
        assert cfg["loop"]["actuator"]["wn"] == 50.0

    def test_unknown_key_named(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"loop": {"bogus": 1}}))
        with pytest.raises(ConfigError, match="loop.bogus"):
            cfgmod.load_config(path)

    def test_malformed_json_names_line(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{\n  "loop": {,}\n}')
        with pytest.raises(ConfigError, match="line 2"):
            cfgmod.load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            cfgmod.load_config(tmp_path / "absent.json")

    def test_root_must_be_an_object(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="root must be a JSON object"):
            cfgmod.load_config(path)


class TestOverrides:
    def test_dotted_path(self):
        cfg = cfgmod.default_config()
        cfgmod.apply_override(cfg, "loop.pid.k_p", 50.0)
        assert cfg["loop"]["pid"]["k_p"] == 50.0

    def test_unknown_path(self):
        with pytest.raises(ConfigError, match="loop.pid.k_q"):
            cfgmod.apply_override(cfgmod.default_config(), "loop.pid.k_q", 1)

    def test_section_not_assignable(self):
        with pytest.raises(ConfigError):
            cfgmod.apply_override(cfgmod.default_config(), "loop.pid", 1)

    @pytest.mark.parametrize("section", ["noise", "compensator", "kalman"])
    def test_enabled_takes_json_bool(self, tmp_path, section):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"loop": {section: {"enabled": False}}}))
        from_file = cfgmod.loop_config_from(cfgmod.load_config(path))
        cfg = cfgmod.apply_override(cfgmod.default_config(),
                                    f"loop.{section}.enabled",
                                    cfgmod.parse_value("false"))
        from_set = cfgmod.loop_config_from(cfg)
        assert getattr(from_file, section).enabled is False
        assert getattr(from_set, section).enabled is False

    def test_value_parsing(self):
        assert cfgmod.parse_value("1.5") == 1.5
        assert cfgmod.parse_value("true") is True
        assert cfgmod.parse_value("null") is None
        assert cfgmod.parse_value("hello") == "hello"


class TestRangeAnnotations:
    def test_every_parameter_set_validates_by_type(self):
        assert [cls.__name__ for cls in PARAMETER_SETS
                if not issubclass(cls, Params)] == []

    @pytest.mark.parametrize("params, field", RANGED_FIELDS)
    def test_every_ranged_field_is_checked(self, params, field):
        name = f"{type(params).__name__}.{field.name}"
        for bad in VIOLATIONS[field.type]:
            with pytest.raises(DomainError,
                               match=rf"^{name} must be .*, got {bad}$"):
                replace(params, **{field.name: bad})
        if field.type is NonNegative:
            assert getattr(replace(params, **{field.name: 0.0}),
                           field.name) == 0.0

    @pytest.mark.parametrize("params, field", [
        p for p in RANGED_FIELDS if p.values[1].type in REALS])
    def test_every_real_field_is_stored_as_a_float(self, params, field):
        default = getattr(params, field.name)
        forms = [np.float64(default), Fraction(default)]
        if default == int(default):
            forms.append(int(default))
        for value in forms:
            stored = getattr(replace(params, **{field.name: value}),
                             field.name)
            assert type(stored) is float, type(value)
            assert stored == default, type(value)
        if field.type in (float, NonNegative):
            # A zero is stored as +0.0, so parameter sets that compare equal
            # compute alike.
            stored = getattr(replace(params, **{field.name: -0.0}),
                             field.name)
            assert type(stored) is float
            assert math.copysign(1.0, stored) == 1.0
