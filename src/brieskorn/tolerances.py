"""Default numerical tolerances and their resolution against overrides.

Every tolerance that the verification code holds a value against is named
here, except the rotation-spin bound, a fixed constant of ``cli``. Each can
be overridden only through ``cli.RunConfig.tolerances``, the command line's
``--tol``, or the ``BRIESKORN_TOLERANCES`` environment variable (a comma
separated list of ``name=value`` pairs); ``cli.run`` resolves them once.
Every value must be finite and positive.
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterable

from .errors import ConfigError, UnknownTolerance

DEFAULT_TOLERANCES: dict[str, float] = {
    # matrix-level group relations, e.g. rotation powers against +/- identity
    "matrix_relation": 1e-9,
    # lifted relations and action/invariance residuals on sampled points
    "invariance": 1e-8,
    # polygon area against the curvature integral
    "area": 1e-12,
    # measured interior angles against the prescribed ones
    "angle": 1e-10,
    # relative mismatch between integrated and closed-form monodromy
    "ode_vs_analytic": 1e-6,
    # monodromy determinant drift from 1
    "determinant": 1e-9,
    # rotation within this of a multiple of 2*pi counts as degenerate
    "degenerate_rotation": 1e-12,
}

ENV_VAR = "BRIESKORN_TOLERANCES"


def exceeds(value: float, tolerance: float) -> bool:
    """The verdict of every tolerance check: True unless value <= tolerance.

    A NaN value fails, where ``value > tolerance`` would let it pass.
    """
    return not value <= tolerance


def worst(values: Iterable[float]) -> float:
    """The largest of ``values`` (0.0 for none), NaN if any is NaN.

    Python's ``max`` keeps a NaN only when it comes first.
    """
    out = 0.0
    for value in values:
        if math.isnan(value):
            return value
        if value > out:
            out = value
    return out


def _checked(name: str, value) -> float:
    if name not in DEFAULT_TOLERANCES:
        raise UnknownTolerance(f"unknown tolerance {name!r}")
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"tolerance {name} is not a number: {value!r}") from None
    if not (math.isfinite(value) and value > 0.0):
        raise ConfigError(f"tolerance {name} must be finite and positive, got {value!r}")
    return value


def parse_pairs(pairs: Iterable[str]) -> dict[str, float]:
    """Checked overrides from ``name=value`` strings; blank entries are skipped."""
    out: dict[str, float] = {}
    for pair in pairs:
        if not pair.strip():
            continue
        name, _, value = pair.partition("=")
        if not value:
            raise ConfigError(f"tolerance override {pair!r} is not name=value")
        out[name.strip()] = _checked(name.strip(), value)
    return out


def resolve(overrides: dict[str, float] | None = None) -> dict[str, float]:
    """Merge defaults, the environment profile, and explicit overrides.

    Every name and value is checked; a resolved dict resolves to itself.
    """
    merged = dict(DEFAULT_TOLERANCES)
    merged.update(parse_pairs(os.environ.get(ENV_VAR, "").split(",")))
    for name, value in (overrides or {}).items():
        merged[name] = _checked(name, value)
    return merged
