import math
from dataclasses import fields, replace

import pytest

from pitchpilot.aero import (AeroDerivatives, MissileConfig, TailSizingInputs,
                             check_control_margin, sizing_report,
                             static_margin, static_margin_calibers,
                             tail_area_ratio, wing_area_from_span)
from pitchpilot.errors import DomainError, SingularConfigurationError

X_CG = MissileConfig().X_CG   # the airframe's centre of gravity, 2.5 m


def _reported_tail_area(tail):
    """S_T (m²) as the sizing report prints it for the default airframe."""
    report = sizing_report(MissileConfig(), AeroDerivatives(), tail)
    (line,) = [line for line in report.splitlines()
               if line.startswith("tail area S_T =")]
    return float(line.split()[4])


class TestWingArea:
    def test_published_value(self):
        assert wing_area_from_span(0.888, 2.75) == pytest.approx(0.287, abs=5e-4)

    def test_identity_case(self):
        assert wing_area_from_span(1, 1) == 1

    def test_direct_arithmetic(self):
        assert wing_area_from_span(2, 4) == 1

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            wing_area_from_span(0, 2.75)
        with pytest.raises(DomainError):
            wing_area_from_span(0.888, -1)

    def test_rejects_area_past_the_float_range(self):
        with pytest.raises(DomainError, match="S_W = inf"):
            wing_area_from_span(1e200, 2.75)


class TestTailSizing:
    def test_default_ratio_and_area(self):
        inputs = TailSizingInputs()
        assert tail_area_ratio(inputs, X_CG) == pytest.approx(-2.754, rel=5e-3)
        assert _reported_tail_area(inputs) == pytest.approx(0.0865, rel=5e-3)

    def test_area_independent_of_reference_area_without_body_lift(self):
        # With no body lift (the default) every term of the ratio scales
        # with S_W/S_ref, so S_T = |ratio|·S_ref does not move with S_ref.
        # Body lift adds a term that does not scale, and S_T moves.
        def areas(C_Na_body):
            return [abs(tail_area_ratio(replace(TailSizingInputs(), S_ref=s,
                                                C_Na_body=C_Na_body),
                                        X_CG)) * s
                    for s in (0.0314, math.pi / 4 * 0.2 ** 2,
                              math.pi / 4 * 0.3 ** 2)]

        without = areas(0.0)
        assert without == pytest.approx([without[0]] * 3, rel=1e-12)
        with_body = areas(0.1)
        assert with_body[2] != pytest.approx(with_body[0], rel=1e-2)

    def test_no_lifting_surfaces_needs_no_tail(self):
        inputs = replace(TailSizingInputs(), C_Na_body=0.0, C_Na_wing=0.0)
        assert tail_area_ratio(inputs, X_CG) == 0.0

    def test_numerator_linear_in_wing_arm(self):
        # Body term zero and X_AC at X_CG isolates the wing term.
        base = replace(TailSizingInputs(), C_Na_body=0.0, X_AC=2.5)
        doubled = replace(base, X_CP_wing=2.5 - 2 * (2.5 - base.X_CP_wing))
        assert tail_area_ratio(doubled, 2.5) == pytest.approx(
            2 * tail_area_ratio(base, 2.5), rel=1e-12)

    def test_rescaling_invariance(self):
        base = TailSizingInputs()
        for scale in (0.5, 3.0, 17.0):
            scaled = replace(
                base, d=base.d * scale,
                X_CP_body=base.X_CP_body * scale,
                X_CP_wing=base.X_CP_wing * scale,
                X_CP_tail=base.X_CP_tail * scale, X_AC=base.X_AC * scale)
            assert tail_area_ratio(scaled, X_CG * scale) == pytest.approx(
                tail_area_ratio(base, X_CG), rel=1e-12)

    def test_longer_tail_arm_needs_less_tail(self):
        base = TailSizingInputs()
        prev = abs(tail_area_ratio(base, X_CG))
        for aft in (5.0, 5.5, 6.0, 7.0):
            cur = abs(tail_area_ratio(replace(base, X_CP_tail=aft), X_CG))
            assert cur < prev
            prev = cur

    def test_singular_denominator(self):
        # X_CP_tail at X_CG with X_AC = X_CG zeroes the denominator.
        inputs = replace(TailSizingInputs(), X_CP_tail=2.5, X_AC=2.5)
        with pytest.raises(SingularConfigurationError, match="denominator"):
            tail_area_ratio(inputs, 2.5)

    def test_construction_guards(self):
        with pytest.raises(DomainError):
            TailSizingInputs(d=0)
        with pytest.raises(DomainError):
            TailSizingInputs(C_Na_tail=0.0)

    def test_nonfinite_ratio_rejected(self):
        # Finite inputs whose arms overflow: inf - inf makes the ratio nan.
        inputs = replace(TailSizingInputs(), X_AC=-1e308)
        with pytest.raises(DomainError, match="S_T/S_ref = nan"):
            tail_area_ratio(inputs, 1e308)


class TestStaticMargin:
    def test_published_value(self):
        assert static_margin(3.150, 2.500, 5.200) == pytest.approx(0.125, rel=1e-12)

    def test_neutral(self):
        assert static_margin(2.5, 2.5, 5.2) == 0.0

    def test_unstable_flagged(self):
        assert static_margin(2.0, 2.5, 5.0) == pytest.approx(-0.10)

    def test_antisymmetry(self):
        assert static_margin(3.0, 2.0, 5.0) == -static_margin(2.0, 3.0, 5.0)

    def test_calibers(self):
        assert static_margin_calibers(3.15, 2.5, 0.2) == pytest.approx(3.25)

    def test_rejects_bad_length(self):
        with pytest.raises(DomainError):
            static_margin(3.15, 2.5, 0)

    @pytest.mark.parametrize("d", [0.0, -0.2])
    def test_calibers_reject_bad_diameter(self, d):
        with pytest.raises(DomainError, match="d must be > 0"):
            static_margin_calibers(3.15, 2.5, d)

    def test_rejects_margin_past_the_float_range(self):
        with pytest.raises(DomainError, match="static margin = -inf"):
            static_margin(-1e308, 1e308, 5.2)
        with pytest.raises(DomainError, match="calibers = -inf"):
            static_margin_calibers(-1e308, 1e308, 0.2)


class TestControlMargin:
    def test_published_pass(self):
        assert check_control_margin(-0.300, 0.267) is True

    def test_boundary_strict(self):
        assert check_control_margin(0, 0) is False

    def test_signed_comparison(self):
        assert check_control_margin(0.3, 0.267) is False


class TestMissileConfig:
    def test_defaults_valid(self):
        MissileConfig()

    def test_rejects_nonpositive_length(self):
        with pytest.raises(DomainError):
            MissileConfig(l_M=-1.0)


class _Reads:
    """A stand-in for `obj` that records the attribute names read from it."""

    def __init__(self, obj):
        self.obj, self.names = obj, set()

    def __getattr__(self, name):
        self.names.add(name)
        return getattr(self.obj, name)


def test_sizing_report_reads_every_field():
    # A field the report never reads is a configuration key that changes
    # no output.
    sections = [_Reads(cls()) for cls in (MissileConfig, AeroDerivatives,
                                          TailSizingInputs)]
    sizing_report(*sections)
    for section in sections:
        assert section.names == {f.name for f in fields(section.obj)}
