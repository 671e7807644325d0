"""Exception types shared across the package; :func:`check_keys`, the
one strict-key check of every JSON block (config, grid, case, potential,
model, micz); and :func:`int_key` and :func:`float_key`, the one check of
an integer and of a real config value respectively.

The CLI maps outcomes to stable exit codes:

0  success
1  accuracy or tolerance failure: :class:`AccuracyError` (a LAPACK
   eigensolver failure included), or a result whose deviation from the
   closed form exceeds ``--tol``
2  config error: :class:`ConfigError` (a ``ValueError``), any other
   rejected value (``ValueError``), or a flag the subcommand does not take
3  spherical-separability violation: :class:`SeparabilityError`
4  violated QES precondition: :class:`QesPreconditionError`
5  bracket failure: :class:`BracketError`
6  QES closure failure: :class:`QesClosureError`
"""

from __future__ import annotations

import math
import sys

__all__ = [
    "HurwitzKeplerError",
    "ConfigError",
    "SeparabilityError",
    "QesPreconditionError",
    "QesClosureError",
    "BracketError",
    "AccuracyError",
    "check_keys",
    "int_key",
    "float_key",
]


class HurwitzKeplerError(Exception):
    """Base class for package-specific failures."""


class ConfigError(HurwitzKeplerError, ValueError):
    """Malformed or inconsistent run configuration."""


class SeparabilityError(HurwitzKeplerError):
    """A spherical-chart solve was requested for a non-separable model."""


class QesPreconditionError(HurwitzKeplerError, ValueError):
    """A quasi-exact-solvability parameter constraint is violated."""


class QesClosureError(HurwitzKeplerError):
    """The polynomial ansatz space fails to close under the Hamiltonian."""


class BracketError(HurwitzKeplerError):
    """No eigenvalue-matching sign change inside the requested bracket.

    ``bracket`` is the searched (E_lo, E_hi) and ``endpoint_mismatch`` maps
    each branch pair (i, j) to its mismatch mu_u[i] + mu_v[j] at E_lo and
    at E_hi.
    """

    def __init__(
        self, message: str, bracket: tuple | None = None, endpoint_mismatch: dict | None = None
    ):
        super().__init__(message)
        self.bracket = bracket
        self.endpoint_mismatch = {} if endpoint_mismatch is None else endpoint_mismatch


class AccuracyError(HurwitzKeplerError):
    """A solve failed to converge to the requested tolerance, or the eigensolver failed.

    When a solve's gate trips, ``state`` is the state that failed (its
    index for a fixed-problem solve, its branch pair (i, j) for a
    parabolic joint search), ``nodes`` the size of the solve (its number
    of basis functions), ``bar`` that state's error bar and ``tol`` the bar
    allowed relative to the value; otherwise all four are None.
    """

    def __init__(
        self,
        message: str,
        state=None,
        nodes: int | None = None,
        bar: float | None = None,
        tol: float | None = None,
    ):
        super().__init__(message)
        self.state = state
        self.nodes = nodes
        self.bar = bar
        self.tol = tol


def check_keys(d, allowed, required=frozenset(), what: str = "config") -> dict:
    """Return ``d`` if it is an object whose keys lie in ``allowed`` and cover ``required``."""
    if not isinstance(d, dict):
        raise ConfigError(f"{what} must be a JSON object")
    unknown = set(d) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {what}: {sorted(unknown)}")
    missing = set(required) - set(d)
    if missing:
        raise ConfigError(f"missing key(s) in {what}: {sorted(missing)}")
    return d


def int_key(d: dict, key: str, default=None, minimum=None, what: str = "config") -> int:
    """``d[key]`` (``default`` when absent) as an int, never truncated.

    A JSON integer, or a number equal to one (``2.0``), is accepted; a
    boolean, a non-integral or non-numeric value, or one below ``minimum``
    is a :class:`ConfigError` that names the key.
    """
    v = d.get(key, default)
    integral = isinstance(v, int) or (isinstance(v, float) and math.isfinite(v) and v.is_integer())
    if isinstance(v, bool) or not integral:
        raise ConfigError(f"{what} key {key!r} must be an integer, got {v!r}")
    if minimum is not None and v < minimum:
        raise ConfigError(f"{what} key {key!r} must be at least {minimum}, got {v!r}")
    return int(v)


def float_key(d: dict, key: str, default=None, what: str = "config") -> float:
    """``d[key]`` (``default`` when absent) as a float, never coerced.

    A JSON integer or real is accepted; a boolean, a string or any other
    type, or a value that is not finite as a float, is a
    :class:`ConfigError` that names the key.
    """
    v = d.get(key, default)
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not abs(v) <= sys.float_info.max:
        raise ConfigError(f"{what} key {key!r} must be a finite number, got {v!r}")
    return float(v)
