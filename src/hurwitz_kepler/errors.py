"""Exception types shared across the package.

The CLI maps outcomes to stable exit codes:

0  success
1  accuracy or tolerance failure: :class:`AccuracyError`, or a result
   whose deviation from the closed form exceeds ``--tol``
2  config error: :class:`ConfigError` or a rejected value (``ValueError``)
3  spherical-separability violation: :class:`SeparabilityError`
4  violated QES precondition: :class:`QesPreconditionError`
5  bracket failure: :class:`BracketError`
6  QES closure failure: :class:`QesClosureError`
"""

from __future__ import annotations

__all__ = [
    "HurwitzKeplerError",
    "ConfigError",
    "SeparabilityError",
    "QesPreconditionError",
    "QesClosureError",
    "BracketError",
    "AccuracyError",
]


class HurwitzKeplerError(Exception):
    """Base class for package-specific failures."""


class ConfigError(HurwitzKeplerError):
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
    """Grid refinement failed to converge to the requested tolerance."""
