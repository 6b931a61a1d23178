"""Hyperparameter fields: a config dataclass is the one table of its values.

A field declared with `hyperparameter(default, interval)` carries its name,
default, type (its annotation, int or float) and range, an interval written
like "(0, 1]" or "[1, inf)". A model family's values from outside (flags,
config and grid files, bundles) enter through `Hyperparameters.build`, which
coerces each to its field's type and range-checks the result.
"""

import numbers
import sys
from dataclasses import field, fields
from typing import Mapping

from .errors import BadHyperparameter


def hyperparameter(default, interval: str, error: type = BadHyperparameter):
    """A config field with a default and the interval its values must lie in;
    a value outside it raises `error`."""
    return field(default=default, metadata={"interval": interval, "error": error})


def within(value, interval: str) -> bool:
    low, high = (float(end) for end in interval[1:-1].split(","))
    above = low < value if interval[0] == "(" else low <= value
    below = value < high if interval[-1] == ")" else value <= high
    return above and below


def _typed(name: str, kind: type, value):
    """`value` as `kind` (int or float); bools, non-numbers, non-finite values
    and, for an int field, non-integral values are rejected."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not abs(value) <= sys.float_info.max):
        raise BadHyperparameter(f"hyperparameter {name!r} must be a finite number, got {value!r}")
    if kind is int and float(value) != int(value):
        raise BadHyperparameter(f"hyperparameter {name!r} must be an integer, got {value!r}")
    return kind(value)


class Hyperparameters:
    """Base of a config dataclass whose ranged fields are `hyperparameter`s."""

    @classmethod
    def build(cls, values: Mapping, **fixed):
        """The config from `values`, each coerced to its field's type, plus the
        `fixed` fields; range-checked."""
        kinds = {f.name: f.type for f in fields(cls)}
        config = cls(**fixed, **{name: _typed(name, kinds[name], v) for name, v in values.items()})
        config.validate()
        return config

    def validate(self) -> None:
        for f in fields(self):
            interval = f.metadata.get("interval")
            value = getattr(self, f.name)
            if interval is not None and not within(value, interval):
                raise f.metadata["error"](f"{f.name} must be in {interval}, got {value}")
