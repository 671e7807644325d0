"""Potential families, the four product models and their effective terms.

An 8-D factor potential is one of

    sho    : w^2 rho^2 / 2 + c / rho^2
    sub2   : sho + a rho + b / rho         (powers below 2)
    super2 : sho + b rho^4 + a rho^6       (powers above 2)

with rho^2 = x_s x_s.  A 16-D model is an ordered pair of factors plus
per-factor charges (Z1, Z2) and energy parameters (E1, E2); under the
oscillator-Coulomb duality E_a = -omega_a^2/2, which is the default.

One evaluator, :func:`factor_potential`, holds the three formulas: it
returns V(rho) - c/rho^2 at rho^2 = x with the harmonic piece written as
-E x.  Every chart is that function at its own x: the oscillator radius
(x = rho^2, E = -omega^2/2, see :func:`eval_potential`), the spherical
chart (x = r cos^2(theta/2) or r sin^2(theta/2)) and the parabolic chart
(x = w/2).

The Kepler-side effective terms here follow the separated equations
literally: the inverse-square strengths c1, c2 are routed into the
angular / centrifugal numerators (J(J+6)+8c1)/4 and (L(L+6)+8c2)/4 and
are therefore EXCLUDED from the W evaluators, which carry the remaining
potential pieces and the -Z_a constants.

Everything here is pure; returned evaluators capture only immutable
coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import SeparabilityError, check_keys, float_key, int_key, scale_range

__all__ = [
    "Potential8D",
    "OscillatorModel",
    "MiczParams",
    "factor_potential",
    "eval_potential",
    "spherical_W",
    "is_spherically_separable",
    "parabolic_W",
    "micz_centrifugal_strengths",
    "model_number",
    "potential_from_dict",
    "model_from_dict",
    "micz_from_dict",
]

_VARIANTS = ("sho", "sub2", "super2")


@dataclass(frozen=True)
class Potential8D:
    """One 8-D factor potential.

    ``c`` may be negative for quasi-exactly-solvable parameter maps; it is
    only required to keep the effective angular exponent real, which every
    consumer checks at the point of use.
    """

    variant: str
    omega: float
    c: float = 0.0
    a: float = 0.0
    b: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "variant", str(self.variant).lower())
        if self.variant not in _VARIANTS:
            raise ValueError(f"unknown potential variant {self.variant!r}")
        if not (self.omega > 0.0 and math.isfinite(self.omega)):
            raise ValueError("omega must be a positive real")
        for name in ("c", "a", "b"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"coefficient {name} must be finite")
        if self.variant == "sho" and (self.a != 0.0 or self.b != 0.0):
            raise ValueError("sho variant must have a = b = 0")


def factor_potential(p: Potential8D, E, x, pole=0.0):
    """V(rho) - c/rho^2 at rho^2 = x, with omega^2 rho^2 / 2 written as -E x.

    Vectorized over ``E`` and ``x``.  A nonzero 1/rho coefficient raises
    ValueError wherever x <= ``pole``.
    """
    out = -E * x
    if p.variant == "sub2":
        if p.b != 0.0:
            if np.any(x <= pole):
                raise ValueError(
                    "factor potential is singular at rho = 0 with a nonzero 1/rho coefficient"
                )
            out = out + p.b / np.sqrt(x)
        if p.a != 0.0:
            out = out + p.a * np.sqrt(x)
    elif p.variant == "super2":
        out = out + p.b * x**2 + p.a * x**3
    return out


def eval_potential(p: Potential8D, rho: float) -> float:
    """V(rho) for the given variant; rho is the 8-D radius (> 0)."""
    rho = np.asarray(rho, dtype=float)
    if np.any(rho <= 0.0):
        raise ValueError("rho must be positive (singular terms)")
    x = rho**2
    v = factor_potential(p, -0.5 * p.omega**2, x) + p.c / x
    return float(v) if np.ndim(rho) == 0 else v


@dataclass(frozen=True)
class OscillatorModel:
    """Ordered pair of 8-D factors with charges and energy parameters."""

    p1: Potential8D
    p2: Potential8D
    Z1: float = 0.0
    Z2: float = 0.0
    E1: float = field(default=math.nan)
    E2: float = field(default=math.nan)

    def __post_init__(self):
        if math.isnan(self.E1):
            object.__setattr__(self, "E1", -0.5 * self.p1.omega**2)
        if math.isnan(self.E2):
            object.__setattr__(self, "E2", -0.5 * self.p2.omega**2)

    @property
    def Z(self) -> float:
        return self.Z1 + self.Z2


@dataclass(frozen=True)
class MiczParams:
    """Kepler-side parameters: charge, non-central strengths, (J, L)."""

    Z: float
    c1: float = 0.0
    c2: float = 0.0
    J: int = 0
    L: int = 0

    def __post_init__(self):
        if self.c1 < 0.0 or self.c2 < 0.0:
            raise ValueError("non-central strengths c1, c2 must be nonnegative")
        if self.J < 0 or self.L < 0 or self.J != int(self.J) or self.L != int(self.L):
            raise ValueError("J and L must be nonnegative integers")


def model_number(model: OscillatorModel) -> int | None:
    """Model index 1-4 by factor variants; None when a factor is pure sho."""
    key = (model.p1.variant, model.p2.variant)
    return {
        ("sub2", "sub2"): 1,
        ("sub2", "super2"): 2,
        ("super2", "sub2"): 3,
        ("super2", "super2"): 4,
    }.get(key)


def spherical_W(model: OscillatorModel, r: float, theta: float):
    """Effective spherical-chart source W'(r, theta), c-terms excluded.

    Evaluates the per-model expression with u_s u_s -> r cos^2(theta/2)
    and v_s v_s -> r sin^2(theta/2); theta-independent exactly on the
    separable set E1 = E2, a = b = 0.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise ValueError("r must be positive")
    xu = r * np.cos(np.asarray(theta) / 2.0) ** 2
    xv = r * np.sin(np.asarray(theta) / 2.0) ** 2
    # x/r = cos^2 or sin^2 of the half angle; 1e-24 catches the float
    # representation of the poles theta in {0, pi}
    pole = 1e-24 * r
    w = (
        factor_potential(model.p1, model.E1, xu, pole)
        + factor_potential(model.p2, model.E2, xv, pole)
    ) / r - model.Z1 - model.Z2
    return float(w) if np.ndim(w) == 0 else w


def is_spherically_separable(model: OscillatorModel) -> bool:
    """True iff E1 = E2 and all four anharmonic coefficients vanish."""
    return (
        model.E1 == model.E2
        and model.p1.a == 0.0
        and model.p1.b == 0.0
        and model.p2.a == 0.0
        and model.p2.b == 0.0
    )


def require_spherically_separable(model: OscillatorModel) -> None:
    if not is_spherically_separable(model):
        raise SeparabilityError(
            "model is not separable in the spherical chart; "
            "requires E1=E2, a=b=0 (both factors)"
        )


def parabolic_W(model: OscillatorModel):
    """Single-variable evaluators (W'_u, W'_v); c-terms excluded.

    Each is its factor potential at rho^2 = w/2 minus its charge, with the
    model energy parameter E1 or E2.
    """

    def factor(p: Potential8D, E: float, Za: float):
        def w_eval(w):
            w = np.asarray(w, dtype=float)
            if np.any(w < 0.0):
                raise ValueError("parabolic coordinate must be nonnegative")
            out = factor_potential(p, E, 0.5 * w) - Za
            return float(out) if np.ndim(out) == 0 else out

        return w_eval

    return factor(model.p1, model.E1, model.Z1), factor(model.p2, model.E2, model.Z2)


def micz_centrifugal_strengths(m: MiczParams) -> tuple[float, float]:
    """Numerators/4 of the two centrifugal-like terms: (alpha_u, alpha_v)."""
    alpha_u = (m.J * (m.J + 6) + 8.0 * m.c1) / 4.0
    alpha_v = (m.L * (m.L + 6) + 8.0 * m.c2) / 4.0
    return alpha_u, alpha_v


# ---------------------------------------------------------------------------
# JSON-facing constructors (strict: unknown keys rejected)

# Ranges of the scale keys, from the power with which each enters a pencil
# whose rounding squares its entries: a factor's omega as E = -omega^2/2 in
# an oscillator pencil of entries in omega, and the micz charge Z as Z^2 in
# the Coulomb pencil (its basis scale is 3 / Z, and E goes as Z^2).
_FACTOR_OMEGA = scale_range(2)
_CHARGE = scale_range(4)


def potential_from_dict(d: dict) -> Potential8D:
    check_keys(d, {"variant", "omega", "c", "a", "b"}, {"variant", "omega"}, "potential")
    return Potential8D(
        variant=d["variant"],
        omega=float_key(d, "omega", what="potential", bounds=_FACTOR_OMEGA),
        c=float_key(d, "c", 0.0, what="potential"),
        a=float_key(d, "a", 0.0, what="potential"),
        b=float_key(d, "b", 0.0, what="potential"),
    )


def model_from_dict(d: dict) -> OscillatorModel:
    check_keys(d, {"p1", "p2", "Z1", "Z2", "E1", "E2"}, {"p1", "p2"}, "model")
    kwargs = {name: float_key(d, name, what="model") for name in ("E1", "E2") if name in d}
    return OscillatorModel(
        p1=potential_from_dict(d["p1"]),
        p2=potential_from_dict(d["p2"]),
        Z1=float_key(d, "Z1", 0.0, what="model"),
        Z2=float_key(d, "Z2", 0.0, what="model"),
        **kwargs,
    )


def micz_from_dict(d: dict) -> MiczParams:
    check_keys(d, {"Z", "c1", "c2", "J", "L"}, {"Z"}, "micz block")
    return MiczParams(
        Z=float_key(d, "Z", what="micz block", bounds=_CHARGE),
        c1=float_key(d, "c1", 0.0, what="micz block"),
        c2=float_key(d, "c2", 0.0, what="micz block"),
        J=int_key(d, "J", 0, minimum=0, what="micz block"),
        L=int_key(d, "L", 0, minimum=0, what="micz block"),
    )
