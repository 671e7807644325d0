"""Closed-form spectra: singular oscillator, duality map and QES families.

Singular oscillator (8-D radial, kinetic -Laplacian/2): the regular
solution r^L' exp(-w r^2/2) 1F1(-N; L'+4; w r^2) with
L'(L'+6) = L(L+6) + 2c terminates at eigenvalue Z = w (2N + L' + 4).

Quasi-exactly-solvable families: the primed-parameter tables map onto the
reduced radial operator

    H f = -f'' - (Dim/r) f' + V(r) f

(no 1/2 on the kinetic term; Dim is the first-derivative coefficient,
Dim = d' + 2 l' - 1).  With the gauge factor r^(-c') exp(-phi) the tables
close exactly:

* super2 (phi = a' r^4/4 + b' r^2/2): the monomials {r^{2k}} with
  k < N span an invariant space; the N x N block eigenvalues are the N
  closed-form energies of the mapped potential.
* sub2 (phi = b' r^2/2 + a' r): the energy is fixed at
  E = b'(2N + Dim - 1 - 2c') - a'^2 = -d, while polynomial closure
  quantizes the 1/rho coefficient; the N x N block eigenvalues are the N
  admissible charges (the table's b-formula is the N = 1 root).

``qes_solve`` builds these blocks by literally applying H to the ansatz
basis, so closure is verified numerically rather than assumed.

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
            if val != int(val) or val < 0:
                raise ValueError(f"{name} must be a nonnegative integer")


def kummer_1f1_terminating(n: int, beta: float, z: float) -> float:
    """Exact finite sum 1F1(-n; beta; z) = sum_k (-n)_k / ((beta)_k k!) z^k."""
    if n != int(n) or n < 0:
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
    if L != int(L) or L < 0:
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
    hyp = np.array([kummer_1f1_terminating(q.N, lp + 4.0, zz) for zz in z])
    return r**lp * np.exp(-0.5 * z) * hyp


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
        if self.N < 1 or self.N != int(self.N):
            raise ValueError("block size N must be a positive integer")
        if self.dim < 1 or self.dim != int(self.dim):
            raise ValueError("Dim must be a positive integer")


def qes_map_sub2(p: QesPrimedParams) -> tuple[Potential8D, float]:
    """Map primed constants to the sub-quadratic family.

    Returns the potential (omega^2 = 2 b'^2, a = 2 a' b', b = -a'(D - 2c'),
    c = c'(c' - D + 1)) together with the derived energy-offset constant
    d = a'^2 - b'(2N + D - 1 - 2c'); the QES energy equals -d.
    """
    if p.b_p <= 0.0:
        raise QesPreconditionError("sub2 map needs b' > 0 (so omega is real positive)")
    D = p.dim
    pot = Potential8D(
        variant="sub2",
        omega=math.sqrt(2.0) * p.b_p,
        a=2.0 * p.a_p * p.b_p,
        b=-p.a_p * (D - 2.0 * p.c_p),
        c=p.c_p * (p.c_p - D + 1.0),
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
        c=p.c_p * (p.c_p - D + 1.0),
    )


# -- Laurent-polynomial helpers (dict: integer power -> coefficient) --------


def _padd(p: dict, q: dict, s: float = 1.0) -> dict:
    out = dict(p)
    for k, v in q.items():
        out[k] = out.get(k, 0.0) + s * v
    return out


def _pmul(p: dict, q: dict) -> dict:
    out: dict = {}
    for k1, v1 in p.items():
        for k2, v2 in q.items():
            out[k1 + k2] = out.get(k1 + k2, 0.0) + v1 * v2
    return out


def _pdiff(p: dict) -> dict:
    return {k - 1: k * v for k, v in p.items() if k != 0}


def _pclean(p: dict, tol: float = 0.0) -> dict:
    scale = max((abs(v) for v in p.values()), default=0.0)
    return {k: v for k, v in p.items() if abs(v) > tol * scale}


def _apply_reduced_hamiltonian(y: dict, dim: int, m: float, dphi: dict, V: dict) -> dict:
    """Laurent coefficients of H(y G)/G for G = r^m exp(-phi), phi' = dphi.

    H f = -f'' - (dim/r) f' + V f.  The gauge power m enters only through
    G'/G = m/r - phi'(r); the m/r piece is tracked as a formal 1/r term so
    non-integer m never mixes with the integer Laurent powers.
    """
    glog = _padd({-1: m}, dphi, -1.0)  # G'/G
    glog2 = _padd(_pmul(glog, glog), _padd({-2: -m}, _pdiff(dphi), -1.0))  # G''/G
    out = _padd({}, _pdiff(_pdiff(y)), -1.0)
    out = _padd(out, _pmul(glog, _pdiff(y)), -2.0)
    out = _padd(out, _pmul(glog2, y), -1.0)
    out = _padd(out, _pmul({-1: float(dim)}, _pdiff(y)), -1.0)
    out = _padd(out, _pmul(_pmul({-1: float(dim)}, glog), y), -1.0)
    out = _padd(out, _pmul(V, y))
    return _pclean(out, 1e-300)


def _gauge_power(c_pot: float, dim: int) -> float:
    """Upper root of m(m + dim - 1) = c_pot (regular reduced exponent)."""
    disc = (dim - 1.0) ** 2 / 4.0 + c_pot
    if disc < 0.0:
        raise QesPreconditionError("inverse-square strength below the critical bound")
    return -(dim - 1.0) / 2.0 + math.sqrt(disc)


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


def _trim_poly(vec: np.ndarray) -> list[float]:
    coeffs = list(vec)
    scale = max(abs(c) for c in coeffs)
    while len(coeffs) > 1 and abs(coeffs[-1]) <= 1e-12 * scale:
        coeffs.pop()
    lead = coeffs[-1]
    return [c / lead for c in coeffs]


def _require_real(vals: np.ndarray, what: str) -> np.ndarray:
    if np.max(np.abs(vals.imag)) > 1e-9 * max(1.0, np.max(np.abs(vals.real))):
        raise QesClosureError(f"{what} came out complex; QES structure violated")
    return vals.real


# Largest coefficient left outside the ansatz span, relative to the
# largest inside it, that still counts as closure.
_CLOSURE_TOL = 1e-9


def qes_solve(p: QesPrimedParams, family: str) -> QesSolution:
    """Solve the N-dimensional QES block for the mapped potential.

    The reduced Hamiltonian -f'' - (Dim/r) f' + V f is applied to the
    ansatz basis {monomial_k * gauge factor}; the expansion must close on
    the span to ``_CLOSURE_TOL`` relative (for sub2, closure quantizes the
    1/rho coefficient), or :class:`QesClosureError` is raised.
    """
    family = family.lower()
    if family == "sub2":
        return _qes_solve_sub2(p)
    if family == "super2":
        return _qes_solve_super2(p)
    raise ValueError(f"unknown QES family {family!r}")


def _qes_solve_sub2(p: QesPrimedParams) -> QesSolution:
    pot, _ = qes_map_sub2(p)
    N, dim = p.N, p.dim
    m = _gauge_power(pot.c, dim)
    dphi = {1: p.b_p, 0: p.a_p}
    V0 = {2: 0.5 * pot.omega**2, 1: pot.a}  # 1/rho term handled as the unknown
    if pot.c != 0.0:
        V0[-2] = pot.c

    # r-multiplied pencil: r H (r^k G) = sum_j P[j,k] r^j G, plus b * r^k G.
    cols = [
        _pclean(_pmul({1: 1.0}, _apply_reduced_hamiltonian({k: 1.0}, dim, m, dphi, V0)), 1e-14)
        for k in range(N)
    ]
    energy = cols[N - 1].get(N, 0.0)  # top-degree row fixes the eigenvalue

    mat = np.zeros((N, N))
    stray = 0.0
    scale = max(max(abs(v) for v in col.values()) for col in cols)
    for k, col in enumerate(cols):
        for j, v in col.items():
            jj = int(round(j))
            if jj == N and k == N - 1:
                continue  # the top-degree row, consumed by the energy
            if 0 <= jj <= N - 1:
                mat[jj, k] += v
            else:
                stray = max(stray, abs(v))
        if k + 1 <= N - 1:
            mat[k + 1, k] -= energy  # -E * (r * r^k) contribution
    if stray > _CLOSURE_TOL * scale:
        raise QesClosureError(f"sub2 pencil leaked outside the span (|coef| = {stray:.3g})")

    vals, vecs = np.linalg.eig(-mat)
    vals = _require_real(vals, "admissible charges")
    vecs = _require_real(vecs, "polynomial coefficients")
    order = np.argsort(vals)
    charges = vals[order]
    polys = [_trim_poly(vecs[:, i]) for i in order]

    # verify closure state by state with the full operator
    worst = 0.0
    for b_i, coeffs in zip(charges, polys):
        V = dict(V0)
        V[-1] = b_i
        y = {k: c for k, c in enumerate(coeffs)}
        res = _padd(
            _apply_reduced_hamiltonian(y, dim, m, dphi, V), {k: energy * c for k, c in y.items()}, -1.0
        )
        rscale = max(abs(c) for c in y.values()) * max(1.0, abs(energy))
        worst = max(worst, max((abs(v) for v in res.values()), default=0.0) / rscale)
    if worst > _CLOSURE_TOL:
        raise QesClosureError(f"sub2 closure residual {worst:.3g} exceeds {_CLOSURE_TOL:.1g}")

    return QesSolution(
        family="sub2",
        energies=tuple([energy] * N),
        polynomials=tuple(tuple(c) for c in polys),
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
    m = _gauge_power(pot.c, dim)
    A = math.sqrt(pot.a)
    B = pot.b / (2.0 * A)
    dphi = {3: A, 1: B}
    V = {2: 0.5 * pot.omega**2, 4: pot.b, 6: pot.a}
    if pot.c != 0.0:
        V[-2] = pot.c

    basis = [2 * k for k in range(N)]
    mat = np.zeros((N, N))
    stray = 0.0
    scale = 0.0
    for k, pw in enumerate(basis):
        col = _pclean(_apply_reduced_hamiltonian({pw: 1.0}, dim, m, dphi, V), 1e-14)
        scale = max(scale, max(abs(v) for v in col.values()))
        for j, v in col.items():
            jj = int(round(j))
            if jj in basis:
                mat[basis.index(jj), k] += v
            else:
                stray = max(stray, abs(v))
    if stray > _CLOSURE_TOL * scale:
        raise QesClosureError(
            f"super2 ansatz space does not close (stray coefficient {stray:.3g}); "
            "the r^2 coefficient is inconsistent with the block size"
        )

    vals, vecs = np.linalg.eig(mat)
    vals = _require_real(vals, "QES energies")
    vecs = _require_real(vecs, "polynomial coefficients")
    order = np.argsort(vals)
    energies = vals[order]
    polys = [_trim_poly(vecs[:, i]) for i in order]

    return QesSolution(
        family="super2",
        energies=tuple(energies),
        polynomials=tuple(tuple(c) for c in polys),
        gauge=(p.a_p, p.b_p),
        power=m,
        charges=None,
        closure_residual=stray / max(scale, 1e-300),
    )


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
