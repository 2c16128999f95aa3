"""Numerical tolerances used throughout the pipeline.

All tolerances can be scaled at once through the TWISTDECOMP_TOL_SCALE
environment variable (a finite positive float multiplier), or overridden per
field via the CLI.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass
from functools import cached_property, lru_cache

from . import _memo

ENV_TOL_SCALE = "TWISTDECOMP_TOL_SCALE"


@dataclass(frozen=True)
class Tolerances:
    unitary: float = 1e-9       # |U^H U - I| and |scalar| - 1
    cocycle: float = 1e-8       # numeric cocycle identity + normalization
    snap: float = 1e-6          # snapping numeric values to roots of unity
    rep: float = 1e-8           # defining relation over exact cocycles
    rep_numeric: float = 1e-6   # defining relation over numeric cocycles
    char: float = 1e-6          # character matching / multiplicity rounding
    scalar: float = 1e-7        # scalar-matrix deviation in induced cocycles

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if not (math.isfinite(value) and value > 0):    # NaN or inf would pass every check
                raise ValueError(f"tolerance {f.name} must be positive")

    def scaled(self, factor: float) -> "Tolerances":
        if not (math.isfinite(factor) and factor > 0):
            raise ValueError("tolerance scale must be positive")
        return Tolerances(
            **{f.name: getattr(self, f.name) * factor for f in dataclasses.fields(self)}
        )

    def replace(self, **overrides) -> "Tolerances":
        return dataclasses.replace(self, **overrides)

    @cached_property
    def _content(self) -> bytes:
        """Memo digest of every field, computed once per instance."""
        return _memo.key("tolerances", repr(self))


def default_tolerances() -> Tolerances:
    """Default tolerances, scaled by TWISTDECOMP_TOL_SCALE if set.

    The variable is read on every call; each value it takes gets one
    validated instance, so repeated calls share that instance and its
    memo digest.
    """
    return _scaled_defaults(os.environ.get(ENV_TOL_SCALE))


@lru_cache(maxsize=16)
def _scaled_defaults(raw: str | None) -> Tolerances:
    base = Tolerances()
    return base if raw is None else base.scaled(float(raw))
