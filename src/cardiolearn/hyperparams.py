"""Hyperparameter fields, and `check`, the one rule checker for JSON input.

A field declared with `hyperparameter(default, interval)` carries its name,
default, type (its annotation, int or float) and range, an interval written
like "(0, 1]" or "[1, inf)". A `Hyperparameters` config checks itself when it
is constructed, `dataclasses.replace` included: each such field's value is
coerced to the field's type and range-checked, so an invalid config cannot
exist and no caller checks one again.

`check(value, rule, what, error)` tests a JSON value from a bundle, a config
or grid file, a hyperparameter or a threshold against a rule, which is
- an interval string: a finite number inside it (`NUMBER`: any finite one);
- `bool`, `int`, `str`, `list` or `dict`: that JSON kind;
- a tuple of strings: one of them;
- `(None, rule)`: null, or a value following `rule`;
- `(kind, rule)`, `kind` one of the types above: that JSON kind, following `rule`;
- `[rule]`: a list whose elements each follow `rule`;
- `(keys, rule)`: an object keyed by exactly `keys`, each value following `rule`;
- `{key: rule}`: an object holding each key, its value following that key's rule.
A bool is neither a number nor an int. A message names the value at key k as
`<what> k`, an object element of a list as `<what>`, any other as `<what> token`.
"""

import numbers
import reprlib
import sys
from dataclasses import field, fields

from .errors import BadHyperparameter

NUMBER = "(-inf, inf)"

_KINDS = {bool: "true or false", int: "an integer", str: "a string",
          list: "a JSON list", dict: "a JSON object"}


def hyperparameter(default, interval: str, error: type = BadHyperparameter):
    """A config field with a default and the interval its values must lie in;
    a value outside it raises `error`."""
    return field(default=default, metadata={"interval": interval, "error": error})


def _within(interval: str):
    """The test of whether a number lies in `interval`."""
    low, high = (float(end) for end in interval[1:-1].split(","))
    above = low.__lt__ if interval[0] == "(" else low.__le__
    below = high.__gt__ if interval[-1] == ")" else high.__ge__
    return lambda value: above(value) and below(value)


def check(value, rule, what: str, error: type = BadHyperparameter):
    """`value`, if it follows `rule`; else `error` with one message naming `what`."""
    if isinstance(rule, str):
        # (int, float) first: the abstract numbers.Real test is slow
        if (isinstance(value, bool) or not isinstance(value, (int, float, numbers.Real))
                or not abs(value) <= sys.float_info.max):
            raise error(f"{what} must be a number, got {reprlib.repr(value)}")
        if rule != NUMBER and not _within(rule)(value):
            raise error(f"{what} must be in {rule}, got {reprlib.repr(value)}")
    elif isinstance(rule, type):
        if not isinstance(value, rule) or (isinstance(value, bool) and rule is not bool):
            raise error(f"{what} must be {_KINDS[rule]}, got {reprlib.repr(value)}")
    elif isinstance(rule, list):
        (item,) = rule
        name = what if isinstance(item, dict) else f"{what} token"
        for element in check(value, list, what, error):
            check(element, item, name, error)
    elif isinstance(rule, dict):
        check(value, dict, what, error)
        for key, item in rule.items():
            if key not in value:
                raise error(f"{what} must hold the key {key!r}")
            check(value[key], item, f"{what} {key}", error)
    elif isinstance(rule[0], str):
        if value not in rule:
            raise error(f"{what} must be one of {', '.join(rule)}, got {reprlib.repr(value)}")
    elif rule[0] is None:
        if value is not None:
            check(value, rule[1], what, error)
    elif isinstance(rule[0], type):
        check(check(value, rule[0], what, error), rule[1], what, error)
    else:
        keys, item = rule
        for key, element in check(value, dict, what, error).items():
            check(element, item, f"{what} {key}", error)
        if set(value) != set(keys):
            raise error(f"{what} keys {reprlib.repr(sorted(value))} are not {list(keys)}")
    return value


def _typed(name: str, kind: type, value, error: type):
    """`value` as `kind` (int or float); bools, non-numbers, non-finite values
    and, for an int field, non-integral values are rejected. An int stays
    exact; only an integral float is converted to one."""
    what = f"hyperparameter {name!r}"
    check(value, NUMBER, what, error)
    if kind is int and not isinstance(value, numbers.Integral) and not float(value).is_integer():
        raise error(f"{what} must be an integer, got {value!r}")
    return kind(value)


class Hyperparameters:
    """Base of a config dataclass whose ranged fields are `hyperparameter`s."""

    def __post_init__(self) -> None:
        """Coerce each ranged field to its type and range-check it; a fault
        raises that field's error."""
        for f in fields(self):
            if "interval" in f.metadata:
                error = f.metadata["error"]
                value = _typed(f.name, f.type, getattr(self, f.name), error)
                check(value, f.metadata["interval"], f.name, error)
                object.__setattr__(self, f.name, value)
