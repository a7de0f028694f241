"""Conceptual-design calculators: wing sizing, tail sizing, stability margins.

All the routines here are pure functions over small value types, so they are
safe to call from anywhere.  Lengths are metres, areas m², coefficients per
radian unless noted.
"""

import math
from dataclasses import dataclass

from .errors import (DomainError, Nonzero, Params, Positive,
                     SingularConfigurationError, fixed)


@dataclass(frozen=True)
class MissileConfig(Params):
    """Geometric summary of the airframe.

    All X_* stations are measured from the nose tip.  `b` is the full
    tip-to-tip span (the exposed-panel figure is b/2).
    """

    d: Positive = 0.2         # body diameter (m)
    l_M: Positive = 5.2       # overall length (m)
    b: Positive = 0.888       # full wingspan (m)
    AR: Positive = 2.75       # aspect ratio
    X_CG: float = 2.5         # centre of gravity (m from nose)
    X_AC: float = 3.15        # aerodynamic centre (m from nose)


@dataclass(frozen=True)
class AeroDerivatives(Params):
    """Aerodynamic derivatives (per radian)."""

    C_Ma: float = -0.300
    C_Md: float = 0.267


@dataclass(frozen=True)
class TailSizingInputs(Params):
    """Inputs to the tail-area ratio formula.

    `d` is the normalizing length applied to every moment arm.  The default
    set reproduces the published ratio of -2.754, which requires the arms to
    enter in metres, i.e. a unit normalizing length (see README notes on the
    source data).
    """

    d: Positive = 1.0
    S_W: Positive = 0.287
    S_ref: Positive = 0.0314
    X_CG: float = 2.5
    X_CP_body: float = 0.2
    X_CP_wing: float = 2.85
    X_CP_tail: float = 4.8
    X_AC: float = 0.094
    C_Na_body: float = 0.0
    C_Na_wing: float = 0.262
    C_Na_tail: Nonzero = 0.262


def _finite_result(value, what):
    """`value`, or DomainError if the inputs drove it past the float range."""
    if not math.isfinite(value):
        raise DomainError(f"{what} = {value!r} is not a finite number")
    return value


def wing_area_from_span(b, AR):
    """Wing area from full span and aspect ratio: S_W = b²/AR."""
    if not (b > 0 and AR > 0):
        raise DomainError(f"b and AR must be > 0, got b={b}, AR={AR}")
    return _finite_result(b * b / AR, "wing area S_W")


def tail_area_ratio(inputs: TailSizingInputs):
    """Required tail-to-reference area ratio S_T/S_ref.

    The formula balances body, wing, and static-margin pitching-moment
    contributions against the tail arm; the denominator applies to the
    static-margin term only, matching the printed grouping of the source
    sizing equation.  Arms are normalized by `inputs.d`.  The result can be
    negative; see tail_area for the magnitude convention.
    """
    d = inputs.d
    sw_ratio = inputs.S_W / inputs.S_ref
    body_arm = (inputs.X_CG - inputs.X_CP_body) / d
    wing_arm = (inputs.X_CG - inputs.X_CP_wing) / d
    margin_arm = (inputs.X_AC - inputs.X_CG) / d
    tail_arm = (inputs.X_CP_tail - inputs.X_CG) / d

    denom = inputs.C_Na_tail * tail_arm - margin_arm
    if denom == 0:
        raise SingularConfigurationError(
            "tail sizing denominator C_Na_tail*(X_CP_tail - X_CG)/d"
            " - (X_AC - X_CG)/d vanished")

    body_term = inputs.C_Na_body * body_arm
    wing_term = inputs.C_Na_wing * wing_arm * sw_ratio
    margin_term = (inputs.C_Na_body + inputs.C_Na_wing * sw_ratio) * margin_arm
    return _finite_result(body_term + wing_term + margin_term / denom,
                          "tail area ratio S_T/S_ref")


def tail_area(inputs: TailSizingInputs):
    """Tail area |S_T/S_ref|·S_ref; the ratio's sign is left to the caller."""
    return abs(tail_area_ratio(inputs)) * inputs.S_ref


def static_margin(X_AC, X_CG, l_M):
    """Static margin (X_AC - X_CG)/l_M; positive means statically stable."""
    if not l_M > 0:
        raise DomainError(f"l_M must be > 0, got {l_M}")
    return _finite_result((X_AC - X_CG) / l_M, "static margin")


def static_margin_calibers(X_AC, X_CG, d):
    """Alternate static margin in calibers: (X_AC - X_CG)/d."""
    if not d > 0:
        raise DomainError(f"d must be > 0, got {d}")
    return _finite_result((X_AC - X_CG) / d, "static margin in calibers")


def check_control_margin(C_Ma, C_Md):
    """Signed control-margin check: pass iff C_Ma < C_Md."""
    return C_Ma < C_Md


def sizing_report(config: MissileConfig, derivs: AeroDerivatives,
                  tail: TailSizingInputs):
    """Plain-text conceptual-sizing summary."""
    ratio = tail_area_ratio(tail)
    area = abs(ratio) * tail.S_ref
    margin = static_margin(config.X_AC, config.X_CG, config.l_M)
    percent = _finite_result(margin * 100, "static margin in percent")
    wing_area = wing_area_from_span(config.b, config.AR)
    calibers = static_margin_calibers(config.X_AC, config.X_CG, config.d)
    cm_pass = check_control_margin(derivs.C_Ma, derivs.C_Md)
    lines = [
        "Conceptual sizing report",
        "------------------------",
        f"wing area S_W = b^2/AR = {fixed(wing_area, '.4f')} m^2",
        f"tail area ratio S_T/S_ref = {fixed(ratio, '.4f')}",
        f"tail area S_T = {fixed(area, '.4f')} m^2",
        f"static margin = {fixed(percent, '.2f')}% of length"
        f" ({fixed(calibers, '.3f')} calibers)"
        f" -> {'stable' if margin > 0 else 'NOT stable'}",
        f"control margin C_Ma={derivs.C_Ma} < C_Md={derivs.C_Md}:"
        f" {'pass' if cm_pass else 'FAIL'}",
    ]
    return "\n".join(lines) + "\n"
