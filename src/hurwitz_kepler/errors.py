"""Exception types shared across the package, each carrying the CLI's exit
code for its failure; :func:`check_keys`, the one strict-key check of every
JSON block (config, grid, case, potential, model, micz); and :func:`int_key`
and :func:`float_key`, the one check of an integer and of a real config
value respectively, each with the range of its key (:func:`scale_range`
derives the range of a scale from the power with which it enters a run).

The CLI's exit codes are a stable contract, defined on the types: each
error type carries its code as ``exit_code`` and the label that starts its
stderr line as ``label``, and ``cli.main`` reads both from the type it
catches.  The codes are

0  success
1  accuracy or tolerance failure: :class:`AccuracyError` (a LAPACK
   eigensolver failure included), or a result whose deviation from the
   closed form exceeds ``--tol``
2  config error: :class:`ConfigError` (a ``ValueError``), any other
   rejected value (``ValueError``), or a flag the subcommand does not take
3  spherical-separability violation: :class:`SeparabilityError`
4  violated QES precondition: :class:`QesPreconditionError`
5  empty energy window: :class:`BracketError`
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
    "scale_range",
]


class HurwitzKeplerError(Exception):
    """Base class for package-specific failures.

    ``exit_code`` is the CLI's exit code for the type and ``label`` starts
    its stderr line, ``label: message``.
    """

    exit_code, label = 1, "error"

    def report(self) -> str:
        """The CLI's stderr text of the failure."""
        return f"{self.label}: {self}"


class ConfigError(HurwitzKeplerError, ValueError):
    """Malformed or inconsistent run configuration."""

    exit_code, label = 2, "config error"


class SeparabilityError(HurwitzKeplerError):
    """A spherical-chart solve was requested for a non-separable model."""

    exit_code, label = 3, "separability error"


class QesPreconditionError(HurwitzKeplerError, ValueError):
    """A quasi-exact-solvability parameter constraint is violated."""

    exit_code, label = 4, "QES precondition violated"


class BracketError(HurwitzKeplerError):
    """The energy window (E_lo, E_hi) of a parabolic joint search holds no resolved level.

    Either the lowest level above E_lo, once resolved, lies at or above
    E_hi, or no level above E_lo settles on the largest basis of the level
    enumeration.  The message names the window.
    """

    exit_code, label = 5, "bracket error"


class QesClosureError(HurwitzKeplerError):
    """The polynomial ansatz space fails to close under the Hamiltonian."""

    exit_code, label = 6, "QES closure failed"


class AccuracyError(HurwitzKeplerError):
    """A solve failed to converge to the requested tolerance, or the eigensolver failed.

    When a solve's gate trips, ``state`` is the state that failed (its
    index for a fixed-problem solve, its branch pair (i, j) for a
    parabolic joint search), ``nodes`` the size of the solve (its number
    of basis functions), ``bar`` that state's error bar and ``tol`` the bar
    allowed relative to the value, and the report adds a line of them;
    otherwise all four are None.
    """

    exit_code, label = 1, "accuracy error"

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

    def report(self) -> str:
        if self.state is None:
            return super().report()
        fields = f"state {self.state}: error bar {self.bar:.3g}, size {self.nodes}, tol {self.tol:.1g}"
        return f"{super().report()}\n  {fields}"


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


def int_key(d: dict, key: str, default=None, minimum=None, maximum=None, what: str = "config") -> int:
    """``d[key]`` (``default`` when absent) as an int, never truncated.

    A JSON integer, or a number equal to one (``2.0``), is accepted; a
    boolean, a non-integral or non-numeric value, or one below ``minimum``
    or above ``maximum`` is a :class:`ConfigError` that names the key.
    """
    v = d.get(key, default)
    integral = isinstance(v, int) or (isinstance(v, float) and math.isfinite(v) and v.is_integer())
    if isinstance(v, bool) or not integral:
        raise ConfigError(f"{what} key {key!r} must be an integer, got {v!r}")
    if minimum is not None and v < minimum:
        raise ConfigError(f"{what} key {key!r} must be at least {minimum}, got {v!r}")
    if maximum is not None and v > maximum:
        raise ConfigError(f"{what} key {key!r} must be at most {maximum}, got {v!r}")
    return int(v)


# Room that a scale's power leaves at both ends of the normal float range: a
# pencil's rounding is the Frobenius norm of its entries, and the sum of
# their squares at unit scale stays below 1e13 on bases of up to 512
# functions (7.2e12 for the polar equation, 7.2e8 for the oscillator).
_ROOM = 1e16


def scale_range(power: int) -> tuple:
    """The range (lo, hi) of a positive scale x whose power x**power a run meets.

    x**power then stays within a factor ``_ROOM`` of both ends of the
    normal float range, so it neither overflows nor loses precision.
    """
    return (sys.float_info.min * _ROOM) ** (1.0 / power), (sys.float_info.max / _ROOM) ** (1.0 / power)


def float_key(d: dict, key: str, default=None, what: str = "config", bounds=(-math.inf, math.inf)) -> float:
    """``d[key]`` (``default`` when absent) as a float, never coerced and never -0.0.

    A JSON integer or real is accepted; a boolean, a string or any other
    type, a value that is not finite as a float, or one outside ``bounds``
    (lo, hi), both inclusive, is a :class:`ConfigError` that names the key.
    """
    v = d.get(key, default)
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not abs(v) <= sys.float_info.max:
        raise ConfigError(f"{what} key {key!r} must be a finite number, got {v!r}")
    v = float(v) + 0.0  # -0.0 + 0.0 is 0.0
    lo, hi = bounds
    if not lo <= v <= hi:
        span = "nonnegative" if bounds == (0.0, math.inf) else f"between {lo:.3g} and {hi:.3g}"
        if lo > 0.0:
            span = "positive, " + span
        raise ConfigError(f"{what} key {key!r} must be {span}, got {v!r}")
    return v
