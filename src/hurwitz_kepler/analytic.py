"""Closed-form spectra: singular oscillator, duality map and QES families.

Singular oscillator (8-D radial, kinetic -Laplacian/2): the regular
solution r^L' exp(-w r^2/2) 1F1(-N; L'+4; w r^2) with
L'(L'+6) = L(L+6) + 2c terminates at eigenvalue Z = w (2N + L' + 4).

Quasi-exactly-solvable families: the primed-parameter tables map onto the
reduced radial operator

    H f = -f'' - (Dim/r) f' + V(r) f

(no 1/2 on the kinetic term; Dim is the first-derivative coefficient,
Dim = d' + 2 l' - 1).  With the gauge factor r^(-c') exp(-phi) the tables
close exactly for c' <= (Dim - 1)/2, where -c' is the upper root m of
m(m + Dim - 1) = c (above it the tables do not close):

* super2 (phi = a' r^4/4 + b' r^2/2): the monomials {r^{2k}} with
  k < N span an invariant space; the N x N block eigenvalues are the N
  closed-form energies of the mapped potential.
* sub2 (phi = b' r^2/2 + a' r): the energy is fixed at
  E = b'(2N + Dim - 1 - 2c') - a'^2 = -d, while polynomial closure
  quantizes the 1/rho coefficient; the N x N block eigenvalues are the N
  admissible charges (the table's b-formula is the N = 1 root).

H(r^j G)/G with G = r^m exp(-phi) is a three-term recurrence, so each
block is a tridiagonal (Jacobi) matrix that ``qes_solve`` writes in closed
form; its off-diagonal products are positive, so it is symmetrized and
solved with ``eigh``.  The coefficients that would leave the span are
computed from the mapped potential and must vanish.

All functions are pure and thread-safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import QesClosureError, QesPreconditionError
from .potentials import Potential8D

__all__ = [
    "QuantumNumbers",
    "DualPair",
    "QesPrimedParams",
    "QesSolution",
    "kummer_1f1_terminating",
    "effective_lprime",
    "singular_oscillator_energy",
    "radial_wavefunction",
    "dual_map",
    "dual_map_inverse",
    "qes_map_sub2",
    "qes_map_super2",
    "qes_solve",
    "qes_wavefunction",
]


@dataclass(frozen=True)
class QuantumNumbers:
    """Radial index N and hyperangular momenta (L, J), all nonnegative."""

    N: int
    L: int = 0
    J: int = 0

    def __post_init__(self):
        for name in ("N", "L", "J"):
            val = getattr(self, name)
            if not (val >= 0 and float(val).is_integer()):
                raise ValueError(f"{name} must be a nonnegative integer")


def kummer_1f1_terminating(n: int, beta: float, z: float) -> float:
    """Exact finite sum 1F1(-n; beta; z) = sum_k (-n)_k / ((beta)_k k!) z^k.

    An array z is evaluated elementwise, by the same operations as a
    scalar; n = 0 returns the scalar 1.0.
    """
    if not (n >= 0 and float(n).is_integer()):
        raise ValueError("n must be a nonnegative integer")
    total = 1.0
    term = 1.0
    for k in range(int(n)):
        denom = beta + k
        if denom == 0.0:
            raise ValueError(f"Pochhammer zero in denominator at k = {k}")
        term *= (-(n - k)) / (denom * (k + 1)) * z
        total += term
    return total


def effective_lprime(L: int, c: float) -> float:
    """Upper root of L'(L'+6) = L(L+6) + 2c, the regular branch."""
    if not (L >= 0 and float(L).is_integer()):
        raise ValueError("L must be a nonnegative integer")
    disc = (L + 3.0) ** 2 + 2.0 * c
    if disc < 0.0:
        raise ValueError("effective angular exponent is complex: (L+3)^2 + 2c < 0")
    return -3.0 + math.sqrt(disc)


def singular_oscillator_energy(q: QuantumNumbers, omega: float, c: float) -> float:
    """Eigenvalue Z = omega (2N + L' + 4) of the 8-D singular oscillator."""
    if omega <= 0.0:
        raise ValueError("omega must be positive")
    return omega * (2 * q.N + effective_lprime(q.L, c) + 4.0)


def radial_wavefunction(q: QuantumNumbers, omega: float, c: float, r) -> float:
    """Unnormalized R(r) = r^L' exp(-w r^2/2) 1F1(-N; L'+4; w r^2)."""
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise ValueError("r must be positive")
    lp = effective_lprime(q.L, c)
    z = omega * r**2
    if np.ndim(r) == 0:
        return float(r**lp * math.exp(-0.5 * z) * kummer_1f1_terminating(q.N, lp + 4.0, z))
    return r**lp * np.exp(-0.5 * z) * kummer_1f1_terminating(q.N, lp + 4.0, z)


@dataclass(frozen=True)
class DualPair:
    """Oscillator frequency, Coulomb charge and bound energy E = -w^2/2."""

    omega: float
    Z: float
    E: float

    def __post_init__(self):
        if abs(self.E + 0.5 * self.omega**2) > 1e-12 * max(1.0, self.omega**2):
            raise ValueError("DualPair requires E = -omega^2/2")


def dual_map(omega: float, Z: float) -> DualPair:
    """Exchange the oscillator eigenvalue/frequency roles: E = -omega^2/2."""
    if omega <= 0.0:
        raise ValueError("omega must be positive")
    return DualPair(omega=omega, Z=Z, E=-0.5 * omega**2)


def dual_map_inverse(E: float, Z: float) -> DualPair:
    """Recover omega = sqrt(-2E) from a bound-sector energy (E < 0)."""
    if E >= 0.0:
        raise ValueError("inverse duality needs a bound-state energy E < 0")
    return DualPair(omega=math.sqrt(-2.0 * E), Z=Z, E=E)


# ---------------------------------------------------------------------------
# Quasi-exactly-solvable constructors


@dataclass(frozen=True)
class QesPrimedParams:
    """Primed-table parameters (a', b', c') with block size N and Dim."""

    a_p: float
    b_p: float
    c_p: float = 0.0
    N: int = 1
    dim: int = 8

    def __post_init__(self):
        if not (self.N >= 1 and float(self.N).is_integer()):
            raise ValueError("block size N must be a positive integer")
        if not (self.dim >= 1 and float(self.dim).is_integer()):
            raise ValueError("Dim must be a positive integer")
        object.__setattr__(self, "N", int(self.N))
        object.__setattr__(self, "dim", int(self.dim))


def _mapped_c(p: QesPrimedParams) -> float:
    """The mapped centrifugal strength c = c'(c' - D + 1), +0.0 at c' = 0 (not -0.0)."""
    return p.c_p * (p.c_p - p.dim + 1.0) + 0.0


def qes_map_sub2(p: QesPrimedParams) -> tuple[Potential8D, float]:
    """Map primed constants to the sub-quadratic family.

    Returns the potential (omega^2 = 2 b'^2, a = 2 a' b', b = -a'(D - 2c'),
    c = c'(c' - D + 1), b and c +0.0 where zero) together with the derived
    energy-offset constant d = a'^2 - b'(2N + D - 1 - 2c'); the QES energy
    equals -d.
    """
    if p.b_p <= 0.0:
        raise QesPreconditionError("sub2 map needs b' > 0 (so omega is real positive)")
    D = p.dim
    pot = Potential8D(
        variant="sub2",
        omega=math.sqrt(2.0) * p.b_p,
        a=2.0 * p.a_p * p.b_p,
        b=-p.a_p * (D - 2.0 * p.c_p) + 0.0,
        c=_mapped_c(p),
    )
    d = p.a_p**2 - p.b_p * (2 * p.N + D - 1.0 - 2.0 * p.c_p)
    return pot, d


def qes_map_super2(p: QesPrimedParams) -> Potential8D:
    """Map primed constants to the super-quadratic (sextic) family.

    omega^2 = 2[b'^2 - (4N + D - 2c' - 1) a'], a = a'^2, b = 2 a' b',
    c = c'(c' - D + 1); requires a' > 0 and omega^2 > 0.
    """
    if p.a_p <= 0.0:
        raise QesPreconditionError("super2 map needs a' > 0 (normalizable r^6 tail)")
    D = p.dim
    omega_sq = 2.0 * (p.b_p**2 - (4 * p.N + D - 2.0 * p.c_p - 1.0) * p.a_p)
    if omega_sq <= 0.0:
        raise QesPreconditionError(
            "non-oscillator regime: 2[b'^2 - (4N + D - 2c' - 1) a'] = "
            f"{omega_sq:.6g} <= 0"
        )
    return Potential8D(
        variant="super2",
        omega=math.sqrt(omega_sq),
        a=p.a_p**2,
        b=2.0 * p.a_p * p.b_p,
        c=_mapped_c(p),
    )


def _gauge_power(p: QesPrimedParams) -> float:
    """Upper root m of m(m + Dim - 1) = c'(c' - Dim + 1): -c' or c' - Dim + 1.

    Taken from c' rather than from the mapped c, whose rounding moves a
    root near the double one at c' = (Dim - 1)/2 by sqrt(eps).
    """
    return max(-p.c_p, p.c_p - p.dim + 1.0)


@dataclass(frozen=True)
class QesSolution:
    """Closed-form block solution for one QES configuration.

    ``energies[i]`` pairs with ``polynomials[i]`` (ascending coefficients
    of p_{N-1} in r for sub2, in r^2 for super2).  For the sub2 family all
    states share the energy -d while ``charges[i]`` holds the admissible
    1/rho coefficient of state i; for super2 ``charges`` is None and the
    mapped potential is shared.  ``gauge`` stores (a', b') and
    ``power`` the reduced-function exponent actually used.
    """

    family: str
    energies: tuple
    polynomials: tuple
    gauge: tuple
    power: float
    charges: tuple | None
    closure_residual: float


# Largest coefficient left outside the ansatz span, relative to the
# largest inside it, that still counts as closure.
_CLOSURE_TOL = 1e-9


def _tridiagonal_eig(diag, upper, lower):
    """Ascending eigenpairs of T (T[k, k], T[k-1, k], T[k, k-1]), vectors monic.

    Every product upper * lower is positive, so with off = sqrt(upper lower)
    and D = diag(prod lower / off) the matrix D^-1 T D is symmetric with
    off-diagonal ``off``; ``eigh`` solves it and D maps its vectors back.
    An unreduced tridiagonal block has no eigenvector with a zero last
    component, so every polynomial keeps all N coefficients.
    """
    off = np.sqrt(upper * lower)
    vals, vecs = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    vecs *= np.cumprod(np.concatenate(([1.0], lower / off)))[:, None]
    return vals, vecs / vecs[-1]


def qes_solve(p: QesPrimedParams, family: str) -> QesSolution:
    """Solve the N-dimensional QES block for the mapped potential.

    With G = r^m exp(-phi), H(r^j G)/G has three powers of r left once the
    mapped potential cancels the rest, so the block is a three-term
    (Jacobi) recurrence written here in closed form, with m the upper root
    of m(m + Dim - 1) = c and (A, B) = (a', b'):

    * super2, basis r^(2k): diagonal B(4k + 2m + 1 + Dim), T[k-1, k] =
      -2k(2k - 1 + 2m + Dim), T[k+1, k] = A(4k + 2m + 3 + Dim) - B^2 +
      omega^2/2, which is the stray coefficient T[N, N-1] minus
      4A(N - 1 - k).
    * sub2, r H - r E, basis r^k: diagonal A(2k + 2m + Dim) + b,
      T[k-1, k] = -k(k - 1 + 2m + Dim), T[k+1, k] = B(2k + 1 + 2m + Dim)
      - A^2 - E, which is -2B(N - 1 - k) once the top one, T[N, N-1] = 0,
      fixes E; the charges b are the eigenvalues of minus the b-free block.
      The terms (omega^2/2 - B^2) r^(k+3) and (a - 2AB) r^(k+2) leak out of
      the span, and E must be -d, which fails for c' > (Dim - 1)/2.

    The off-diagonal products, 8A k(N - k)(2k - 1 + 2m + Dim) and
    2B k(N - k)(k - 1 + 2m + Dim) for 0 < k < N, are positive because
    2m + Dim - 1 = |2c' - Dim + 1| >= 0 for the upper root and A, B > 0
    are preconditions of the maps, so the block is symmetrizable.  The
    stray coefficient, the leaks (the mapped a, b, c against the gauge),
    the gap between E and -d and (sub2) each state's residual of the
    recurrence must vanish to ``_CLOSURE_TOL`` relative, or
    :class:`QesClosureError` is raised.
    """
    family = family.lower()
    if family == "sub2":
        return _qes_solve_sub2(p)
    if family == "super2":
        return _qes_solve_super2(p)
    raise ValueError(f"unknown QES family {family!r}")


def _qes_solve_sub2(p: QesPrimedParams) -> QesSolution:
    pot, d = qes_map_sub2(p)
    N, dim = p.N, p.dim
    A, B, m = p.a_p, p.b_p, _gauge_power(p)
    k = np.arange(N)
    energy = B * (2 * N - 1 + 2 * m + dim) - A * A  # the top raise vanishes
    # minus the block, so that its eigenvalues are the charges.  No sign
    # check: 2m + dim - 1 >= 0 by the choice of root and B > 0 by the map's
    # precondition, so every upper * lower is positive.
    diag = -A * (2 * k + 2 * m + dim)
    upper = k[1:] * (k[1:] - 1 + 2 * m + dim)
    lower = 2.0 * B * (N - 1 - k[:-1])
    block = np.diag(diag) + np.diag(upper, 1) + np.diag(lower, -1)
    leak = max(
        abs(0.5 * pot.omega**2 - B * B), abs(pot.a - 2.0 * A * B), abs(pot.c - m * (m + dim - 1))
    )
    gap = abs(energy + d)
    scale = max(_potential_scale(pot), B * B, A * A, abs(energy), np.max(np.abs(block)))
    if gap > _CLOSURE_TOL * scale:
        raise QesClosureError(
            f"sub2 block energy {energy:.6g} is not -d = {-d:.6g}: the gauge power "
            f"m = {m:.6g} is not -c' (c' > (Dim - 1)/2)"
        )

    charges, vecs = _tridiagonal_eig(diag, upper, lower)
    # each state against the recurrence as written
    states = np.max(np.abs(block @ vecs - vecs * charges), axis=0) / np.max(np.abs(vecs), axis=0)
    worst = float(max(np.max(states), leak, gap) / scale)
    if worst > _CLOSURE_TOL:
        raise QesClosureError(f"sub2 closure residual {worst:.3g} exceeds {_CLOSURE_TOL:.1g}")

    return QesSolution(
        family="sub2",
        energies=tuple([energy] * N),
        polynomials=tuple(tuple(v) for v in vecs.T),
        gauge=(p.a_p, p.b_p),
        power=m,
        charges=tuple(charges),
        closure_residual=worst,
    )


def _qes_solve_super2(p: QesPrimedParams) -> QesSolution:
    pot = qes_map_super2(p)
    N, dim = p.N, p.dim
    if pot.a <= 0.0:  # a = a'^2 underflows to 0 for a' > 0 below about 1e-162
        raise QesPreconditionError("super2 needs a positive r^6 coefficient")
    A, B, m = p.a_p, p.b_p, _gauge_power(p)
    k = np.arange(N)
    diag = B * (4 * k + 2 * m + 1 + dim)
    upper = -2.0 * k[1:] * (2 * k[1:] - 1 + 2 * m + dim)
    # The raises below the stray one, -4A(N - 1 - k), written without it so
    # that they stay negative where B^2 - omega^2/2 rounds.  No sign check:
    # A > 0 by the map's precondition and 2m + dim - 1 >= 0 by the choice
    # of root, so every upper * lower is positive.
    lower = -4.0 * A * (N - 1 - k[:-1])
    stray = max(
        abs(A * (4 * N - 1 + 2 * m + dim) - B * B + 0.5 * pot.omega**2),
        abs(pot.a - A * A),
        abs(pot.b - 2.0 * A * B),
        abs(pot.c - m * (m + dim - 1)),
    )
    scale = max(_potential_scale(pot), B * B, np.max(np.abs(diag)), np.max(np.abs(upper), initial=0.0))
    if stray > _CLOSURE_TOL * scale:
        raise QesClosureError(
            f"super2 ansatz space does not close (stray coefficient {stray:.3g}); "
            "the r^2 coefficient is inconsistent with the block size"
        )

    energies, vecs = _tridiagonal_eig(diag, upper, lower)
    return QesSolution(
        family="super2",
        energies=tuple(energies),
        polynomials=tuple(tuple(v) for v in vecs.T),
        gauge=(p.a_p, p.b_p),
        power=m,
        charges=None,
        closure_residual=stray / scale,
    )


def _potential_scale(pot: Potential8D) -> float:
    return max(0.5 * pot.omega**2, abs(pot.a), abs(pot.b), abs(pot.c))


def qes_wavefunction(sol: QesSolution, i: int, r):
    """Reduced radial function f_i(r) = p_i(.) r^power exp(-phi(r))."""
    r = np.asarray(r, dtype=float)
    a_p, b_p = sol.gauge
    coeffs = sol.polynomials[i]
    if sol.family == "super2":
        arg = r**2
        phi = 0.25 * a_p * r**4 + 0.5 * b_p * r**2
    else:
        arg = r
        phi = 0.5 * b_p * r**2 + a_p * r
    poly = sum(c * arg**k for k, c in enumerate(coeffs))
    out = poly * r**sol.power * np.exp(-phi)
    return float(out) if np.ndim(out) == 0 else out
