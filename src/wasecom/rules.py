"""The kind and range of each config dataclass field, declared once.

A field made with `ruled` carries a `Rule`, and its dataclass's
`__post_init__` is or calls `check`: a ValueError names the first field that
breaks its rule ("rho must be nonnegative, got -1"), and an enum's string
value becomes its member.  The config parser checks each JSON value's kind
with the same rules (`Rule.kind_error`).
"""
from __future__ import annotations

import dataclasses
import functools
import math
from enum import Enum

import numpy as np

_LARGEST = math.nextafter(math.inf, 0)  # the largest float
_NUMBER = (int, float, np.integer, np.floating)
# each plain kind's test and its name in an error; no bool is a number
_KINDS = {
    int: (lambda v: type(v) is not bool and isinstance(v, (int, np.integer)), "an integer"),
    float: (lambda v: type(v) is not bool and isinstance(v, _NUMBER), "a number"),
    bool: (lambda v: type(v) is bool, "true or false"),
    str: (lambda v: isinstance(v, str), "a string"),
    list: (lambda v: isinstance(v, list) and all(map(_KINDS[float][0], v)), "a list of numbers"),
}


class Rule:
    """A field's kind (int, float, bool, str, list of numbers or an Enum),
    whether it takes None, and for numbers (a list's entries each) the bounds:
    `least` closed below, `above` open below, `most` closed above (given with
    `least`), and whether the value must be finite.  NaN is never in range."""

    def __init__(self, kind, nullable=False, least=None, above=None, most=None, finite=True):
        self.kind, self.nullable = kind, nullable
        self.least, self.above, self.most = least, above, most
        self.finite = finite and kind in (float, list)
        self._test, self._noun = ((lambda v: isinstance(v, (kind, str)), "a string")
                                  if issubclass(kind, Enum) else _KINDS[kind])
        # in range is lo <= v <= hi: an open bound moves to the next float inward
        lo = least if above is None else math.nextafter(above, math.inf)
        big = _LARGEST if self.finite else math.inf
        self._lo, self._hi = -big if lo is None else lo, big if most is None else most
        self._plain = kind if kind in (int, float, bool) else None

    def kind_error(self, name: str, value) -> str | None:
        """Why `value` is not of this field's kind, or None if it is."""
        if self._test(value) or (value is None and self.nullable):
            return None
        return f"{name} must be {self._noun}{' or null' if self.nullable else ''}, got {value!r}"

    def _range_error(self, name: str, x, value) -> str:
        if self.finite and not abs(x) <= _LARGEST:
            expected = "be finite"
        elif self.most is not None:
            expected = f"lie in [{self.least:g}, {self.most:g}]"
        elif self.above is not None:
            expected = "be positive" if self.above == 0 else f"be above {self.above:g}"
        elif self.least == 0:
            expected = "be a nonnegative integer" if self.kind is int else "be nonnegative"
        else:
            expected = f"be at least {self.least:g}"
        return f"{name} must {expected}, got {value!r}"

    def check(self, name: str, value):
        """`value`, an enum's string value as its member; a ValueError naming
        `name` if it breaks the rule."""
        if type(value) is self._plain and self._lo <= value <= self._hi:
            return value  # the common case, decided at once
        error = self.kind_error(name, value)
        if error:
            raise ValueError(error)
        kind = self.kind
        if value is None or kind in (bool, str):
            return value
        if kind not in _KINDS:  # an Enum: its member, or its string value
            try:
                return value if isinstance(value, kind) else kind(value)
            except ValueError:
                raise ValueError(f"{name} must be one of {', '.join(repr(m.value) for m in kind)}, "
                                 f"got {value!r}") from None
        for v in value if kind is list else (value,):
            x = float(v) if isinstance(v, np.floating) else v  # a float32 compared as a float
            if not self._lo <= x <= self._hi:
                raise ValueError(self._range_error(name, x, value))
        return value


def ruled(kind, default=dataclasses.MISSING, *, factory=dataclasses.MISSING, **bounds):
    """A dataclass field that `check` holds to its rule; a default of None takes None."""
    rule = Rule(kind, nullable=default is None, **bounds)
    return dataclasses.field(default=default, default_factory=factory, metadata={"rule": rule})


@functools.cache
def rules(cls) -> dict:
    """The rule of each ruled field of a dataclass, by field name."""
    return {f.name: f.metadata["rule"] for f in dataclasses.fields(cls) if "rule" in f.metadata}


def check(obj):
    """Hold each ruled field of a dataclass instance to its rule, in field order."""
    for name, rule in rules(type(obj)).items():
        setattr(obj, name, rule.check(name, getattr(obj, name)))
