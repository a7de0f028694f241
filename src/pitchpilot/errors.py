"""Exception types shared across the toolkit, the validating base of the
parameter dataclasses and the reports' number format."""

import math
import numbers
from dataclasses import fields, is_dataclass
from typing import Annotated


class PitchPilotError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(PitchPilotError):
    """A parameter set or configuration file is invalid."""


class DomainError(ConfigError, ValueError):
    """A numeric input is outside the domain of a calculator."""


class SingularConfigurationError(ConfigError):
    """A sizing denominator vanished for the given geometry."""


class DivergedError(PitchPilotError):
    """A simulation produced a non-finite signal.

    Attributes:
        step: index of the step at which the signal went non-finite.
        signal: name of that signal, a trace column.
        leg: optional tag ("A" or "B") for paired runs.
    """

    def __init__(self, step, signal, leg=None):
        self.step = step
        self.signal = signal
        self.leg = leg
        tag = f" (leg {leg})" if leg else ""
        super().__init__(f"simulation diverged at step {step}"
                         f" in {signal}{tag}")


class NoResponseError(PitchPilotError):
    """A trace never crossed the 10% rise threshold."""


class UntunableStartError(PitchPilotError):
    """No gains a tuning run evaluated scored below the divergence penalty."""


def fixed(value, spec):
    """`value` formatted by `spec` (fixed point, as ".3f"), or in exponent
    form once |value| >= 1e9, where fixed point runs to hundreds of
    digits."""
    return format(value, spec if abs(value) < 1e9 else ".4e")


def _number(value, kind):
    """Whether `value` is a `kind` (a `numbers` ABC) and not a bool."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _finite(value):
    try:
        return _number(value, numbers.Real) and math.isfinite(value)
    except OverflowError:   # an int past the float range
        return False


def _count(value):
    return _number(value, numbers.Integral) and value >= 0


# Reals restricted to a range: annotate a field with one of these and
# every `Params` checks the range.
Positive = Annotated[float, "> 0"]
NonNegative = Annotated[float, ">= 0"]
Nonzero = Annotated[float, "!= 0"]

# Annotation -> (what a field so annotated takes, its test).
_KINDS = {
    float: ("a finite number", _finite),
    Positive: ("a finite number > 0", lambda v: _finite(v) and v > 0),
    NonNegative: ("a finite number >= 0", lambda v: _finite(v) and v >= 0),
    Nonzero: ("a finite number != 0", lambda v: _finite(v) and v != 0),
    bool: ("true or false", lambda v: isinstance(v, bool)),
    int: ("a non-negative integer", _count),
}
# The annotations of real fields, which `Params` stores as Python floats.
_REALS = (float, Positive, NonNegative, Nonzero)


class Params:
    """Base of every parameter dataclass: construction raises DomainError
    unless each field fits its annotation as `_KINDS` says.  A dataclass
    annotation takes an instance of that class; any other annotation is not
    checked.  A real field (`float`, `Positive`, `NonNegative`, `Nonzero`)
    that passes is stored as `float(value) + 0.0`: an int, a Fraction or a
    numpy scalar as the Python float it equals, and -0.0 as +0.0, so
    parameter sets that compare equal compute alike.  A subclass with
    checks of its own calls this hook first."""

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            what, fits = _KINDS.get(f.type, ("", lambda v: True))
            if is_dataclass(f.type):
                what, fits = (f"a {f.type.__name__}",
                              lambda v: isinstance(v, f.type))
            if not fits(value):
                raise DomainError(f"{type(self).__name__}.{f.name} must be"
                                  f" {what}, got {value!r}")
            if f.type in _REALS:    # the dataclasses are frozen
                object.__setattr__(self, f.name, float(value) + 0.0)
