"""Coordinate charts used to separate the oscillator and Kepler problems.

Three charts: 8-D hyperspherical (hyperradius + 7 angles), 9-D spherical
(radius, polar angle theta, 7 sphere angles) and 9-D parabolic (u, v, 7
sphere angles with x9 = (u-v)/2 and radius (u+v)/2).  The sphere-angle
index increases outward in the nested-sine chain; the innermost angle is
the azimuth in [0, 2pi), the rest lie in [0, pi].

At chart singularities (theta in {0, pi}, u*v = 0, zero sphere part) the
inverse maps return zero angles by convention; only the radius and x9 are
contracted there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Hyperspherical8",
    "Spherical9",
    "Parabolic9",
    "hyperspherical_to_cartesian8",
    "spherical9_to_cartesian",
    "parabolic_to_cartesian9",
    "cartesian9_to_parabolic",
]

_TWO_PI = 2.0 * math.pi


def _check_angles(phi) -> tuple:
    phi = np.asarray(phi, dtype=float)
    if phi.shape != (7,):
        raise ValueError(f"expected 7 sphere angles, got shape {phi.shape}")
    p0, p1, p2, p3, p4, p5, p6 = phi = tuple(phi.tolist())
    # one chain of comparisons, false on NaN; the failure is named afterwards
    if not (
        0.0 <= p0 < _TWO_PI
        and 0.0 <= p1 <= math.pi
        and 0.0 <= p2 <= math.pi
        and 0.0 <= p3 <= math.pi
        and 0.0 <= p4 <= math.pi
        and 0.0 <= p5 <= math.pi
        and 0.0 <= p6 <= math.pi
    ):
        if not all(map(math.isfinite, phi)):
            raise ValueError("angles must be finite")
        if not (0.0 <= p0 < _TWO_PI):
            raise ValueError("azimuthal angle must lie in [0, 2*pi)")
        raise ValueError("polar angles must lie in [0, pi]")
    return phi


@dataclass(frozen=True)
class Hyperspherical8:
    """Hyperradius r >= 0 and angles (phi_1 .. phi_7) on the 7-sphere."""

    r: float
    phi: tuple

    def __post_init__(self):
        if not (self.r >= 0.0 and math.isfinite(self.r)):
            raise ValueError("hyperradius must be finite and nonnegative")
        object.__setattr__(self, "phi", _check_angles(self.phi))


@dataclass(frozen=True)
class Spherical9:
    """Radius r >= 0, polar angle theta in [0, pi], angles (phi_0 .. phi_6)."""

    r: float
    theta: float
    phi: tuple

    def __post_init__(self):
        if not (self.r >= 0.0 and math.isfinite(self.r)):
            raise ValueError("radius must be finite and nonnegative")
        if not (0.0 <= self.theta <= math.pi):
            raise ValueError("theta must lie in [0, pi]")
        object.__setattr__(self, "phi", _check_angles(self.phi))


@dataclass(frozen=True)
class Parabolic9:
    """Parabolic coordinates u, v >= 0 and angles (phi_0 .. phi_6)."""

    u: float
    v: float
    phi: tuple

    def __post_init__(self):
        if not (self.u >= 0.0 and self.v >= 0.0):
            raise ValueError("parabolic coordinates u, v must be nonnegative")
        if not (math.isfinite(self.u) and math.isfinite(self.v)):
            raise ValueError("parabolic coordinates must be finite")
        object.__setattr__(self, "phi", _check_angles(self.phi))


def _sphere7_embed(phi, scale: float) -> list:
    """``scale`` times the unit 8-vector of 7 nested-sine angles (innermost is the azimuth)."""
    p0, p1, p2, p3, p4, p5, p6 = phi
    scale = float(scale)  # a numpy scalar would make every product below a numpy one
    s6 = scale * math.sin(p6)
    s5 = s6 * math.sin(p5)
    s4 = s5 * math.sin(p4)
    s3 = s4 * math.sin(p3)
    s2 = s3 * math.sin(p2)
    s1 = s2 * math.sin(p1)
    return [
        s1 * math.sin(p0),
        s1 * math.cos(p0),
        s2 * math.cos(p1),
        s3 * math.cos(p2),
        s4 * math.cos(p3),
        s5 * math.cos(p4),
        s6 * math.cos(p5),
        scale * math.cos(p6),
    ]


def _sphere7_invert(x8: list) -> tuple:
    """Angles of an 8-vector of floats; zero angles at degeneracies."""
    if not any(x8):
        return (0.0,) * 7
    phi = [0.0] * 7
    tail = abs(x8[0])
    for i in range(1, 7):
        tail = math.hypot(tail, x8[i])  # |x8[:i + 1]|
        phi[i] = math.atan2(tail, x8[i + 1])
    # the azimuth is undefined when the first two components vanish; a tiny
    # negative atan2 plus 2 pi rounds to 2 pi, which is the azimuth 0
    if x8[0] != 0.0 or x8[1] != 0.0:
        az = math.atan2(x8[0], x8[1])
        if az < 0.0:
            az += _TWO_PI
        phi[0] = az if az < _TWO_PI else 0.0
    return tuple(phi)


def hyperspherical_to_cartesian8(c: Hyperspherical8) -> np.ndarray:
    """Cartesian 8-vector of the hyperspherical point; |x| = r."""
    return np.array(_sphere7_embed(c.phi, c.r))


def spherical9_to_cartesian(c: Spherical9) -> np.ndarray:
    """Cartesian 9-vector with x9 = r cos(theta) and |x| = r."""
    x = _sphere7_embed(c.phi, c.r * math.sin(c.theta))
    x.append(c.r * math.cos(c.theta))
    return np.array(x)


def parabolic_to_cartesian9(c: Parabolic9) -> np.ndarray:
    """Cartesian 9-vector with x9 = (u-v)/2, |x| = (u+v)/2."""
    x = _sphere7_embed(c.phi, math.sqrt(c.u * c.v))
    x.append(0.5 * (c.u - c.v))
    return np.array(x)


def cartesian9_to_parabolic(x) -> Parabolic9:
    """Invert :func:`parabolic_to_cartesian9`; u = |x| + x9, v = |x| - x9."""
    x = np.asarray(x, dtype=float)
    if x.shape != (9,):
        raise ValueError(f"expected a 9-vector, got shape {x.shape}")
    x = x.tolist()
    if not all(map(math.isfinite, x)):
        raise ValueError("cartesian 9-vector has non-finite entries")
    r = math.hypot(*x)
    if r == 0.0:
        raise ValueError("parabolic chart is undefined at the origin")
    return Parabolic9(u=max(r + x[8], 0.0), v=max(r - x[8], 0.0), phi=_sphere7_invert(x[:8]))
