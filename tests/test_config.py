import json

import pytest

from pitchpilot import config as cfgmod
from pitchpilot.errors import ConfigError


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
        cfgmod.missile_from(cfg)
        cfgmod.derivatives_from(cfg)
        cfgmod.tail_sizing_from(cfg)
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
