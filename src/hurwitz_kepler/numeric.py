"""Sturm-Liouville eigensolvers for the separated ODEs.

Every separated equation in this package has the self-adjoint form

    -(1/w(x)) d/dx ( w(x) dR/dx ) + q(x) R = mu m(x) R

with a power-law or sin^7 weight w and an optional positive eigenvalue
weight m (the parabolic equations carry m = 1/w with w the parabolic
coordinate).

The fixed problems (the 8-D singular oscillator, the spherical-chart
radial and polar equations and the QES cross-checks) are solved by
:func:`fd_eigensolve` in a Galerkin basis that carries each problem's
regular pole exponent and decay: x^s e^(-t/2) times Laguerre polynomials
in t = (x/beta)^p on a power weight, and z^sigma (1 - z)^tau times Jacobi
polynomials in z = sin^2(theta/2) on the sin^7 weight (Baye, Phys. Rep.
565 (2015) 1).  The Gauss rule of each basis comes from one symmetric
eigensolve of its Jacobi matrix (Golub & Welsch, Math. Comp. 23 (1969)
221), so the fixed problems need numpy alone, and its nodes and the exact
stiffness are cached per weight and basis size.  Their Ritz values fall
geometrically with the basis size, and a solve stops where they change
by no more than their rounding.

The parabolic joint search solves on grids.  Its conservative three-point
scheme

    A_ii  = (w_{i-1/2} + w_{i+1/2}) / h^2 + q_i w_i
    A_i,i+1 = -w_{i+1/2} / h^2

is symmetrized exactly by the diagonal similarity diag(sqrt(w_i)) (the
discrete version of substituting R = w^{-1/2} chi), so the assembled
matrix is symmetric tridiagonal to machine precision and a direct
selected-eigenvalue solve is cheap.  Vanishing endpoint weights make the
Dirichlet ghost values the natural regular boundary condition at w = 0.
The scheme is second order, and on these regular problems its error runs
in powers of h (Paine, de Hoog & Anderssen 1981).  The search climbs a
ladder of grids on one domain, each rung of 2m+1 nodes after one of m, so
h halves exactly (nested iteration, Brandt 1977), and extrapolates with
:func:`_richardson`.  On every grid each eigenvalue is the Rayleigh
quotient of its eigenvector, accurate to rounding where the state lives;
a bisection value is only good to eps |T| over the whole domain.  The
domain is widened until the requested states have decayed, on one
bisected small grid of about a sixteenth of the nodes, the pilot
(:func:`_contain`).

The two parabolic equations depend on the energy only through -E w/2, so
on a fixed grid each is the linear pencil T(E) = T0 - (E/2) diag(w) of a
right-definite two-parameter Sturm-Liouville problem.  The joint search
assembles T0 once per grid and evaluates an energy with one diagonal
shift and one eigensolve per equation; its eigenvalues fall strictly
with E and their slopes follow from the eigenvectors (Hellmann-Feynman),
so each matching root is found by safeguarded Newton iteration on the
pilot, then by one Newton root per rung up the ladder, and the roots of
the top five rungs are Richardson-extrapolated, with an error bar.  At
the w = 0 poles the states behave as w^s, and besides h^2, h^4, ... the
root's error runs in h^(3 + 2s), h^(4 + 2s), ..., the singular exponents
of a singular Sturm-Liouville problem (Pryce 1993); the extrapolation
removes the four lowest powers of that series.
The charge enters only as a constant shift of each pencil, so the
eigenvalues at the bracket's upper end already give the charge each
branch pair binds there; with sho factors that charge grows as sqrt(-E)
(the Coulomb Sturmian scaling), which seeds Newton within the
discretization error of the root.  Any other factor only makes the seed
a first guess, and a pair without a seed starts from the secant point.

Every grid eigensolve goes through :func:`_shifted`, the one caller of
:func:`eigh_tridiagonal`, the one call into LAPACK, which imports scipy on
its first call: importing this module (and the package, and its CLI)
loads numpy only, so work that runs no joint search never pays scipy's
start-up.  Only the pilot of each search bisects, and only on the first
domain, to a loose tolerance.  Every other solve already has an
eigenvector and an eigenvalue estimate in hand for each state: a widened
domain the previous domain's vectors, interpolated, and quotients; the
lower bracket end and the first Newton evaluation of each pair the E_hi
vectors and their Sturmian scaling (sho factors) or their linear
extrapolation along the Hellmann-Feynman slopes; and each later Newton
evaluation, on its rung or on the next one up (whose nodes hold the
rung's as its odd nodes), the previous one's vectors, prolonged, and the
linear extrapolation from it.  From a start that good one tridiagonal
solve with the estimate as shift converges (Ipsen 1997), and inverse
iteration alone gives the eigenpairs, certified by the discrete Sturm
oscillation theorem (the j-th vector changes sign exactly j times) and a
residual at rounding level.  A vector that fails is solved again from
itself and its Rayleigh quotient, at most three solves in all; a call
with a vector that still fails bisects after all.

Solves share no mutable state; concurrent sector sweeps are safe.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import AccuracyError, BracketError
from .potentials import (
    MiczParams,
    OscillatorModel,
    Potential8D,
    factor_potential,
    micz_centrifugal_strengths,
)

__all__ = [
    "Grid",
    "RadialProblem",
    "Spectrum",
    "JointState",
    "fd_eigensolve",
    "build_radial_problem",
    "parabolic_joint_solve",
    "qes_verification_problem",
    "spherical_micz_energies",
]

_TAIL_LIMIT = math.exp(-20.0)
# Grid nodes per node of the one grid of a joint search that bisects, its pilot.
_PILOT_RATIO = 16
# Error bar, relative to |E|, at which the joint search stops climbing.
_TARGET = 1e-10
_MAX_EXTENSIONS = 6
_EPS = float(np.finfo(float).eps)
# Largest error bar accepted, relative to max(1, |mu|) in fd_eigensolve and
# to |E| in the joint search.
_CONV_TOL = 1e-5
# Basis functions of the first Galerkin block of fd_eigensolve, functions
# added between two of its Ritz tests, and Gauss nodes beyond the basis size.
_BLOCK = 32
_STEP = 4
_EXTRA = 4
# Largest basis of fd_eigensolve for up to 128 states (4 k functions for
# more): the tables of 512 functions take about 15 MB and a second to
# build, and a Ritz value that has not settled by then meets a rounding
# floor that grows with the basis, while the bench's solves settle on 8 to
# 40 functions.
_MAX_BASIS = 512
# Share of its peak below which a Ritz function's sign is not counted: its
# tail, where the basis cannot follow the decay, keeps wiggles up to about
# 1e-7 of the peak.
_NODE_FLOOR = 1e-6
# Basis scale of a Coulomb radial problem times Z: its functions decay as
# exp(-Z r / 6), as a level of principal number 6 does, between the ground
# level (4) and the micz radial levels of the tests (up to about 10).
_COULOMB_SCALE = 3.0
# Largest residual |T chi - mu chi| accepted from inverse iteration or a loose
# bisection, relative to sum_k |d_k| chi_k^2, the scale of T where the state
# lives (|T| itself is set by the smallest cells of a log-stretched grid).
# Converged vectors stay below 2e-15 on every solve of the tests and the
# benchmark; one with 1e-5 of a neighbour mixed in sits near 1e-11.
_WARM_TOL = 1e-13
# Inverse-iteration solves allowed per column of a warm eigensolve.
_WARM_PASSES = 3
# Width, relative to max|d|, to which the one bisection of a problem brackets
# its eigenvalues; the certificates, not this width, decide the result.
_BISECT_TOL = 1e-8


def _certified(d, e, index: int, v):
    """Rayleigh quotient of the unit vector ``v`` for T = tridiag(e, d, e), and its certificate.

    ``v`` is certified as eigenvector ``index`` (counted from 0) when it has
    exactly ``index`` sign changes (the discrete Sturm oscillation theorem,
    valid because every assembled ``e`` is strictly negative, certifies the
    index) and its residual |T v - mu v| is at most ``_WARM_TOL sum_k |d_k|
    v_k^2`` (2-norms).
    """
    t_v = d * v
    t_v[:-1] += e * v[1:]
    t_v[1:] += e * v[:-1]
    mu = float(np.einsum("k,k->", v, t_v))
    t_v -= mu * v
    residual = math.sqrt(np.einsum("k,k->", t_v, t_v))
    scale = np.einsum("k,k,k->", np.abs(d), v, v)
    return mu, bool(residual <= _WARM_TOL * scale) and _count_nodes(v) == index


def _inverse_iteration(gtsv, d, e, first: int, estimates, vectors):
    """Certified eigenpairs by inverse iteration from ``estimates`` and ``vectors``, or None.

    Column j is solved once, (T - estimate_j) y = vector_j, and normalised;
    while :func:`_certified` rejects it, it is solved again from its own
    vector and quotient (Rayleigh-quotient iteration), at most
    ``_WARM_PASSES`` solves in all.  None when a column is still rejected
    then, or when a solve meets an exact zero pivot.
    """
    mu = np.empty(len(estimates))
    chi = np.empty((len(d), len(mu)), order="F")
    for j, (sigma, v) in enumerate(zip(estimates, vectors.T)):
        for _ in range(_WARM_PASSES):
            *_, y, info = gtsv(e, d - sigma, e, v)
            if info != 0:
                return None
            v = y / math.sqrt(np.einsum("k,k->", y, y))
            sigma, ok = _certified(d, e, first + j, v)
            if ok:
                break
        else:
            return None
        mu[j], chi[:, j] = sigma, v
    return mu, chi


def eigh_tridiagonal(d, e, first: int, last: int, estimates=None, vectors=None):
    """Eigenpairs ``first..last`` of T = tridiag(e, d, e): Rayleigh quotients, unit vectors.

    This is the one call into LAPACK, and scipy is imported on its first
    call.  A warm call passes ``estimates`` (one per wanted eigenvalue) and
    start ``vectors`` (one column each, any norm), and bisection is
    skipped: each column gets one ``gtsv`` solve of (T - estimate) y =
    start and is kept if it passes the certificates of :func:`_certified`;
    one that fails is solved again from its own vector and quotient
    (Rayleigh-quotient iteration), at most ``_WARM_PASSES`` solves in all
    (see :func:`_inverse_iteration`).  Without ``estimates`` it is
    ``scipy.linalg.eigh_tridiagonal`` with ``select="i"``: bisection
    (stebz) to ``_BISECT_TOL max|d|``, then inverse iteration (stein) from
    those values, whose vectors are kept if they pass the same
    certificates and are otherwise the start of the warm path.  If a column
    still fails, or a solve meets an exact zero pivot, the call bisects to
    full precision.  A LAPACK failure of bisection is an
    :class:`AccuracyError`.
    """
    from scipy.linalg import LinAlgError, get_lapack_funcs
    from scipy.linalg import eigh_tridiagonal as bisect

    try:
        if estimates is None:
            tol = _BISECT_TOL * np.max(np.abs(d))
            _, vectors = bisect(d, e, select="i", select_range=(first, last), tol=tol)
            estimates, ok = zip(*(_certified(d, e, first + j, v) for j, v in enumerate(vectors.T)))
            if all(ok):
                return np.array(estimates), vectors
        (gtsv,) = get_lapack_funcs(("gtsv",), (d, e))
        pairs = _inverse_iteration(gtsv, d, e, first, estimates, vectors)
        if pairs is not None:
            return pairs
        _, chi = bisect(d, e, select="i", select_range=(first, last))
        return np.array([_certified(d, e, first + j, v)[0] for j, v in enumerate(chi.T)]), chi
    except LinAlgError as exc:
        raise AccuracyError(f"tridiagonal eigensolve failed: {exc}") from exc


@dataclass(frozen=True)
class Grid:
    """Node count and placement (uniform or log-stretched).

    :func:`fd_eigensolve` reads only n, the largest basis size it may use.
    The joint search climbs from about n/16 nodes, placed as ``spacing``
    and ``stretch`` say, and stops at its target accuracy or on the first
    rung of at least 2n+1 nodes (n widened with the domain), so n caps
    the resolution.
    """

    n: int = 2000
    spacing: str = "uniform"
    stretch: float = 6.0

    def __post_init__(self):
        if self.n < 16:
            raise ValueError("grid needs at least 16 points")
        if self.spacing not in ("uniform", "log"):
            raise ValueError("spacing must be 'uniform' or 'log'")
        # expm1(stretch) in the node map overflows from log(float max) on
        if self.spacing == "log" and not 0.0 < self.stretch < math.log(sys.float_info.max):
            raise ValueError(f"log stretch must lie in (0, log(float max)), got {self.stretch!r}")


@dataclass(frozen=True)
class RadialProblem:
    """One separated 1-D eigenproblem.

    ``weight_exponent`` is the power k of the x^k weight (7, 8 or 4 here);
    ``weight_kind = 'sin7'`` selects the sin^7 weight of the polar
    equation on (0, pi) instead.  ``centrifugal_coeff`` multiplies 1/x^2;
    ``effective_term`` is the remaining vectorized source, and
    ``mass_term`` an optional eigenvalue weight (the parabolic equations).
    The raw eigenvalue mu is reported as ``eigenvalue_scale * mu`` (0.5
    turns 2Z into Z and 2E into E).  The basis of :func:`fd_eigensolve`
    decays as exp(-(x / ``basis_scale``)^``basis_power`` / 2) on a power
    weight, and on the sin^7 weight its pole exponents come from
    ``pole_strengths`` (alpha_u, alpha_v), the coefficients of
    1/cos^2(theta/2) and 1/sin^2(theta/2) in ``effective_term``.  The
    joint search reads the domain, which the fixed solves leave aside.
    """

    weight_exponent: int
    centrifugal_coeff: float
    effective_term: Callable
    domain: tuple
    weight_kind: str = "power"
    mass_term: Callable | None = None
    eigenvalue_scale: float = 1.0
    basis_scale: float = 1.0
    basis_power: int = 2
    pole_strengths: tuple = (0.0, 0.0)

    def __post_init__(self):
        lo, hi = self.domain
        if not (hi > lo >= 0.0):
            raise ValueError("domain must satisfy hi > lo >= 0")
        if self.weight_kind not in ("power", "sin7"):
            raise ValueError("weight_kind must be 'power' or 'sin7'")
        if not (0.0 < self.basis_scale < math.inf and self.basis_power in (1, 2)):
            raise ValueError("basis_scale must be positive and finite and basis_power 1 or 2")

    def weight(self, x):
        """The power weight x^k; the sin^7 weight is never assembled on a grid."""
        return x ** float(self.weight_exponent)


@dataclass(frozen=True)
class Spectrum:
    """Lowest eigenpairs of a radial problem, ascending.

    ``eigenvalues`` are the Ritz values of the last basis size of
    :func:`fd_eigensolve`, scaled by the problem's ``eigenvalue_scale``;
    ``convergence`` holds each one's error bar in the same units: its
    change from the basis size before plus the rounding of the
    eigensolve.  ``node_counts`` are the sign changes of the Ritz
    functions.
    """

    eigenvalues: np.ndarray
    convergence: np.ndarray
    node_counts: tuple


def _mapped_nodes(grid: Grid, lo: float, hi: float, n: int):
    ht = 1.0 / (n + 1)
    t_nodes = ht * np.arange(1, n + 1)
    t_half = ht * (np.arange(0, n + 1) + 0.5)
    if grid.spacing == "uniform":
        span = hi - lo
        return (
            lo + span * t_nodes,
            np.full(n, span),
            lo + span * t_half,
            np.full(n + 1, span),
            ht,
        )
    gam = grid.stretch
    den = math.expm1(gam)
    span = hi - lo
    x_nodes = lo + span * np.expm1(gam * t_nodes) / den
    g_nodes = span * gam * np.exp(gam * t_nodes) / den
    x_half = lo + span * np.expm1(gam * t_half) / den
    g_half = span * gam * np.exp(gam * t_half) / den
    return x_nodes, g_nodes, x_half, g_half, ht


def _assemble(problem: RadialProblem, grid: Grid, lo: float, hi: float, n: int):
    """Symmetric tridiagonal (d, e) of ``problem`` on ``n`` nodes in (lo, hi), and the nodes x."""
    x, g, xh, gh, ht = _mapped_nodes(grid, lo, hi, n)
    s_half = problem.weight(xh) / gh
    wm = problem.weight(x) * g
    q = problem.effective_term(x)
    if problem.centrifugal_coeff != 0.0:
        q = q + problem.centrifugal_coeff / x**2
    mass = wm if problem.mass_term is None else wm * problem.mass_term(x)
    pair = mass[:-1] * mass[1:]
    if not (np.all((mass > 0.0) & (mass < np.inf)) and pair.min() > 0.0):
        # a steep log stretch underflows the weights of the first nodes
        hint = f"; log stretch {grid.stretch!r} is too steep" if grid.spacing == "log" else ""
        raise ValueError(f"node weights on {n} nodes in ({lo:g}, {hi:g}) are not positive and finite{hint}")
    a_diag = (s_half[:-1] + s_half[1:]) / ht**2 + q * wm
    a_off = -s_half[1:-1] / ht**2
    d = a_diag / mass
    e = a_off / np.sqrt(pair)
    return d, e, x


def _shifted(pencil, energy: float, first: int, last: int, estimates=None, vectors=None):
    """Eigenpairs first..last of T(E) = T0 - (E/2) diag(x), and dmu/dE.

    ``pencil`` is ``(d0, e, x)`` assembled at E = 0.  Each eigenvalue
    is the Rayleigh quotient of its unit eigenvector chi, which is
    accurate to rounding on the nodes the state occupies; with
    ``estimates`` of the eigenvalues and start ``vectors`` the solve skips
    bisection (see :func:`eigh_tridiagonal`).  The slope is the
    Hellmann-Feynman derivative -1/2 sum_k chi_k^2 x_k.
    """
    d0, e, x = pencil
    mu, chi = eigh_tridiagonal(d0 - 0.5 * energy * x, e, first, last, estimates, vectors)
    return mu, chi, -0.5 * np.einsum("k,kj,kj->j", x, chi, chi)


def _prolong(chi):
    """Vectors on the 2m+1 nodes of the next rung from those on the m nodes of ``chi``.

    The m nodes of a rung are the odd nodes of the next (in t, so on log
    grids too): they keep their values, and each even node takes the mean
    of its two neighbours, the Dirichlet ends counting as zero.
    """
    fine = np.zeros((2 * len(chi) + 1, chi.shape[1]), order="F")
    fine[1::2] = chi
    fine[:-1:2] += 0.5 * chi
    fine[2::2] += 0.5 * chi
    return fine


def _tail_fraction(chi: np.ndarray) -> float:
    """Largest share of its peak that any state keeps at the last node."""
    return float(np.max(np.abs(chi[-1]) / np.max(np.abs(chi), axis=0)))


def _count_nodes(vec: np.ndarray, floor: float = 1e-8) -> int:
    """Sign changes of ``vec`` among its entries above ``floor`` times its largest."""
    mag = np.abs(vec)
    negative = np.signbit(vec[mag > floor * mag.max()])
    return int(np.count_nonzero(negative[1:] != negative[:-1]))


def _contain(problems, grid: Grid, n: int, k: int, energy: float = 0.0):
    """Settle a domain that holds the lowest ``k`` states at ``energy`` on one bisected small grid.

    The small grid has m = max(n / ``_PILOT_RATIO``, 16 k, 64) nodes of the
    problems' domain, rounded up to an odd count.  Each problem is assembled
    on it at E = 0 and its lowest ``k`` eigenpairs of T0 - (energy/2)
    diag(x) are solved through :func:`_shifted`, by bisection on the first
    domain.  While some state keeps more than e^-20 of its peak at the last
    node, the domain is extended times 1.5 at fixed node spacing, m (kept
    odd) and the caller's n growing in step, at most ``_MAX_EXTENSIONS``
    times; each wider domain starts inverse iteration from the previous
    domain's quotients and from its vectors interpolated onto the new
    nodes, zero past the old end.  n
    grows to at most 16 (m + 1) - 1, so the fifth rung above m (rungs of
    2m+1 nodes after m) still has 2n+1 nodes or more: rounding m down would
    otherwise leave that rung a few nodes short of a ladder's 2n+1 cap, and
    the ladder would climb a whole rung more.  Returns the ``(mu, chi,
    dmu/dE)`` of each problem on the final small grid, its node count m, the
    grown n, the upper end of the domain and the number of eigensolves made.
    """
    lo, hi = problems[0].domain
    m = max(n // _PILOT_RATIO, 16 * k, 64) | 1
    starts, solves = [(None, None)] * len(problems), 0
    for attempt in range(_MAX_EXTENSIONS + 1):
        pencils = [_assemble(p, grid, lo, hi, m) for p in problems]
        solved = [
            _shifted(pencil, energy, 0, k - 1, *start) for pencil, start in zip(pencils, starts)
        ]
        solves += len(problems)
        if max(_tail_fraction(chi) for _, chi, _ in solved) <= _TAIL_LIMIT:
            return solved, m, n, hi, solves
        if attempt == _MAX_EXTENSIONS:
            raise AccuracyError(f"domain extension failed to contain the states (hi = {hi:.6g})")
        hi = lo + (hi - lo) * 1.5
        m = int(m * 1.5) | 1
        n = min(int(n * 1.5), _PILOT_RATIO * (m + 1) - 1)
        # the wider domain starts from these quotients and from these vectors
        # interpolated onto its nodes, zero past the old end
        x, wide = pencils[0][2], _mapped_nodes(grid, lo, hi, m)[0]
        starts = [
            (mu, np.column_stack([np.interp(wide, x, c, 0.0, 0.0) for c in chi.T]))
            for mu, chi, _ in solved
        ]


def _gate_error(state, nodes: int, bar: float, basis: bool = False) -> AccuracyError:
    """The error a grid ladder, or with ``basis`` a basis, raises when a bar exceeds ``_CONV_TOL``."""
    growth, size = ("grid doubling", f"on a top rung of {nodes} nodes")
    if basis:
        growth, size = "basis growth", f"with {nodes} basis functions"
    return AccuracyError(
        f"{growth} did not converge: state {state} has error bar {bar:.3g} {size} "
        f"(tol = {_CONV_TOL:.1g} relative)",
        state=state,
        nodes=nodes,
        bar=float(bar),
        tol=_CONV_TOL,
    )


def _richardson(exponents, values, floors, divisor: float):
    """Richardson value of a ladder's top rungs, and its grid and rounding parts.

    ``values`` holds one row per rung, bottom up: the top len(exponents) + 1
    rungs and the rung below them; ``floors`` holds the rounding floors of
    the top rungs.  Each exponent p in turn combines neighbouring values v
    into (2^p v_k - v_{k-1}) / (2^p - 1), which removes an error term in h^p
    when h halves from rung to rung; applied to unit vectors this gives the
    weights w of the top rungs' values in R.  Returns R, the grid part |R -
    R'| / ``divisor``, R' being the same value one rung down, and the
    rounding part |w| @ floors.
    """
    weights = np.eye(len(exponents) + 1)
    for p in exponents:
        weights = (2.0**p * weights[1:] - weights[:-1]) / (2.0**p - 1.0)
    value = weights[0] @ values[1:]
    grid_part = np.abs(value - weights[0] @ values[:-1]) / divisor
    return value, grid_part, np.abs(weights[0]) @ floors


def _recurrence(a: float, b, m: int):
    """Three-term recurrence of the orthonormal polynomials of a Laguerre or Jacobi weight.

    The weight is t^a e^-t on (0, inf) when ``b`` is None and (1 - x)^a
    (1 + x)^b on (-1, 1) otherwise.  With x p_n = beta_{n+1} p_{n+1} +
    alpha_n p_n + beta_n p_{n-1}, returns alpha_0 .. alpha_{m-1}, beta_1 ..
    beta_m and the log of the weight's integral.
    """
    n = np.arange(m + 1, dtype=float)
    if b is None:
        return 2.0 * n[:m] + a + 1.0, np.sqrt(n[1:] * (n[1:] + a)), math.lgamma(a + 1.0)
    s = 2.0 * n + a + b
    alpha = (b * b - a * a) / (s * (s + 2.0))
    n, s = n[1:], s[1:]
    beta = np.sqrt(4.0 * n * (n + a) * (n + b) * (n + a + b) / (s * s * (s + 1.0) * (s - 1.0)))
    log_mass = (a + b + 1.0) * math.log(2.0) + math.lgamma(a + 1.0) + math.lgamma(b + 1.0)
    return alpha[:m], beta, log_mass - math.lgamma(a + b + 2.0)


@functools.lru_cache(maxsize=64)
def _basis(a: float, b, size: int):
    """Quadrature, stiffness and fine sample of the first ``size`` orthonormal polynomials.

    The weight is that of :func:`_recurrence`.  The Gauss rule of
    ``size + _EXTRA`` nodes comes from Golub-Welsch: its nodes x_i are the
    eigenvalues of the Jacobi matrix, and its eigenvectors, signed so that
    p_0 > 0, hold values[n, i] = p_n(x_i) sqrt(w_i), so that sum_i f(x_i)
    values[m, i] values[n, i] integrates f p_m p_n against the weight,
    exactly for a polynomial f of degree up to 2 ``_EXTRA`` + 1.  The
    stiffness is exact, from the recurrence and the matrix of d/dx in the
    basis: for a Laguerre weight the Gram matrix of t (p_n' - p_n / 2),
    the derivative of e^(-t/2) p_n over e^(-t/2) / t; for a Jacobi weight
    with a = 2 tau + 2 and b = 2 sigma + 2 that of sigma (1 - z) p_n - tau
    z p_n + z (1 - z) dp_n/dz, z = (1 + x) / 2, the derivative of z^sigma
    (1 - z)^tau p_n over z^(sigma - 1) (1 - z)^(tau - 1).  ``fine`` holds
    p_n sqrt(weight) at three points inside each gap between neighbouring
    nodes and at the nodes, for sign counts.  The tables are read-only.
    """
    alpha, beta, log_mass = _recurrence(a, b, size + _EXTRA)

    def jacobi(m):
        return np.diag(alpha[:m]) + np.diag(beta[: m - 1], 1) + np.diag(beta[: m - 1], -1)

    x, vectors = np.linalg.eigh(jacobi(size + _EXTRA))
    values = vectors[:size] * np.copysign(1.0, vectors[0])
    # x and d/dx on p_0 .. p_(size+1): b_(n+1) p'_(n+1) = p_n + (x - a_n) p'_n - b_n p'_(n-1)
    order = size + 2
    jac, eye, deriv = jacobi(order), np.eye(order), np.zeros((order, order))
    for n in range(order - 1):  # column -1 is still zero at n = 0
        step = eye[:, n] + (jac - alpha[n] * eye) @ deriv[:, n] - beta[n - 1] * deriv[:, n - 1]
        deriv[:, n + 1] = step / beta[n]
    if b is None:
        form = jac @ (deriv - 0.5 * eye)
        edges = np.concatenate(([0.0], x, [2.0 * x[-1] - x[-2]]))
        log_weight = lambda t: a * np.log(t) - t  # noqa: E731
    else:
        sigma, tau = 0.5 * b - 1.0, 0.5 * a - 1.0
        form = 0.5 * ((sigma - tau) * eye - (sigma + tau) * jac + (eye - jac @ jac) @ deriv)
        edges = np.concatenate(([-1.0], x, [1.0]))
        log_weight = lambda t: a * np.log1p(-t) + b * np.log1p(t)  # noqa: E731
    form = form[: size + 1, :size]
    inner = edges[:-1, None] + np.diff(edges)[:, None] * [0.25, 0.5, 0.75]
    points = np.sort(np.concatenate([x, inner.ravel()]))
    fine = np.zeros((size, len(points)))
    fine[0] = np.exp(0.5 * (log_weight(points) - log_mass))
    for n in range(size - 1):  # row -1 is still zero at n = 0
        fine[n + 1] = ((points - alpha[n]) * fine[n] - beta[n - 1] * fine[n - 1]) / beta[n]
    tables = (x, values, form.T @ form, fine)
    for table in tables:
        table.setflags(write=False)
    return tables


def _pole_exponent(d: float, c: float) -> float:
    """Regular root s of s (s + d) = c, the power of x at a pole with weight x^(d+1) and c / x^2."""
    disc = d * d + 4.0 * c
    if not disc > 0.0:
        raise ValueError(f"pole coefficient {c!r} is at most -{d * d / 4:g}: no regular exponent")
    return 0.5 * (math.sqrt(disc) - d)


def _whitened(problem: RadialProblem, size: int):
    """Galerkin pencil of ``problem`` on its first ``size`` basis functions, whitened.

    Returns L^-1 A L^-T, L^-1 (L the Cholesky factor of B), the rounding
    of the whitened matrix, eps times its Frobenius norm, which bounds the
    error of the assembly and of a symmetric eigensolve of any leading
    block, and the fine sample of :func:`_basis`.

    A power weight x^k with centrifugal coefficient C takes R_n = x^s
    e^(-t/2) p_n(t), t = (x / beta)^p, s (s + k - 1) = C and p_n orthonormal
    for t^a e^-t, a = (2 s + k - 1) / p - 1: after dividing out beta^(k +
    2 s - 1) / p, A = p^2 (stiffness of :func:`_basis`) + sum_i x_i^2
    q(x_i) values values^T and B = sum_i beta^2 t_i^(2/p) values values^T,
    on the nodes x_i = beta t_i^(1/p).  The centrifugal term is inside the
    stiffness, because s is exact.  The sin^7 weight takes Theta_n =
    z^sigma (1 - z)^tau p_n(2 z - 1), z = sin^2(theta/2), sigma (sigma +
    3) = alpha_v and tau (tau + 3) = alpha_u, with p_n orthonormal for
    (1 - x)^(2 tau + 2) (1 + x)^(2 sigma + 2): A = stiffness + sum_i z_i (1
    - z_i) q(theta_i) values values^T and B = sum_i z_i (1 - z_i) values
    values^T, theta_i = arccos(-x_i).  Each entry is exact whenever x^2 q,
    or z (1 - z) q, is a polynomial of degree up to 2 ``_EXTRA`` + 1.
    """
    if problem.weight_kind == "sin7":
        alpha_u, alpha_v = problem.pole_strengths
        tau, sigma = _pole_exponent(3.0, alpha_u), _pole_exponent(3.0, alpha_v)
        x, values, stiffness, fine = _basis(2.0 * tau + 2.0, 2.0 * sigma + 2.0, size)
        mass = 0.25 * (1.0 - x * x)
        source = mass * problem.effective_term(np.arccos(-x))
    else:
        k, p, beta = problem.weight_exponent, problem.basis_power, problem.basis_scale
        s = _pole_exponent(k - 1.0, problem.centrifugal_coeff)
        t, values, stiffness, fine = _basis((2.0 * s + k - 1.0) / p - 1.0, None, size)
        stiffness = p * p * stiffness
        r = beta * t ** (1.0 / p)
        mass, source = r * r, r * r * problem.effective_term(r)
    a, b = stiffness + (values * source) @ values.T, (values * mass) @ values.T
    inverse = np.tril(np.linalg.inv(np.linalg.cholesky(b)))
    whitened = inverse @ a @ inverse.T
    return whitened, inverse, _EPS * np.linalg.norm(whitened), fine


def fd_eigensolve(problem: RadialProblem, grid: Grid, k: int) -> Spectrum:
    """Lowest ``k`` eigenpairs of ``problem`` in a Galerkin basis of at most ``grid.n`` functions.

    The basis carries the problem's pole exponents and decay (see
    :func:`_whitened`), so its Ritz values fall geometrically with the
    basis size N, and every closed-form eigenfunction of the sin^7
    equation lies in its span.  The pencil is assembled and whitened once
    on a block of ``_BLOCK`` functions, and its rounding measured; the
    basis is nested, so each N takes the leading N x N block.  N grows from
    k by ``_STEP`` until the change of every wanted Ritz value from the
    last N is at most that rounding, or N reaches its cap, the smaller of
    ``grid.n`` and max(``_MAX_BASIS``, 4 k); a block that runs out is
    assembled again at twice the size.  The values are the
    Ritz values at the last N, each with the bar |change| + rounding, and
    a bar above ``_CONV_TOL * max(1, |value|)`` raises
    :class:`AccuracyError`.  The node counts are the sign changes of each
    Ritz function on the fine sample of :func:`_basis`, where it keeps
    more than ``_NODE_FLOOR`` of its peak.  The grid's spacing and stretch
    and the problem's domain play no part.
    """
    if k < 1:
        raise ValueError("need at least one eigenvalue")
    if k > grid.n // 4:
        raise ValueError(f"k = {k} exceeds n/4 = {grid.n // 4}")
    size, values, cap = 0, None, min(grid.n, max(_MAX_BASIS, 4 * k))
    n = -(-k // _STEP) * _STEP
    while True:
        n = min(n, cap)
        if n > size:
            size = min(max(2 * size, _BLOCK, n), cap)
            whitened, inverse, rounding, fine = _whitened(problem, size)
        ritz, vectors = np.linalg.eigh(whitened[:n, :n])
        if values is not None:
            change = np.abs(ritz[:k] - values)
            if np.all(change <= rounding) or n == cap:
                break
        values = ritz[:k]
        n += _STEP
    values, conv, scale = ritz[:k], change + rounding, problem.eigenvalue_scale
    rel = conv / np.maximum(1.0, np.abs(values))
    if np.any(rel > _CONV_TOL):
        worst = int(np.argmax(rel))
        raise _gate_error(worst, n, conv[worst] * scale, basis=True)
    functions = fine[:n].T @ (inverse[:n, :n].T @ vectors[:, :k])
    return Spectrum(
        eigenvalues=values * scale,
        convergence=conv * scale,
        node_counts=tuple(_count_nodes(f, _NODE_FLOOR) for f in functions.T),
    )


# ---------------------------------------------------------------------------
# Problem builders


def build_radial_problem(kind: str, **params) -> RadialProblem:
    """Assemble a :class:`RadialProblem` for one separated equation.

    kind = 'osc8'   : 8-D radial oscillator; needs potential, optional L,
                      rmax.  Eigenvalue Z (weight r^7, raw eigenvalue 2Z).
    kind = 'coul9'  : spherical-chart radial equation; needs Z, lam (the
                      angular eigenvalue) and rmax.  Eigenvalue E (weight
                      r^8, raw 2E).
    kind = 'theta'  : polar equation; needs micz.  Eigenvalue Lambda.
    kind = 'para_u' : parabolic u-equation; needs model, micz, energy,
                      wmax.  Eigenvalue -P.
    kind = 'para_v' : parabolic v-equation, eigenvalue +P.
    """
    kind = kind.lower()
    if kind == "osc8":
        potential: Potential8D = params["potential"]
        L = int(params.get("L", 0))
        rmax = params.get("rmax")
        rmax = 14.0 / math.sqrt(potential.omega) if rmax is None else rmax
        E = -0.5 * potential.omega**2
        return RadialProblem(
            weight_exponent=7,
            centrifugal_coeff=L * (L + 6) + 2.0 * potential.c,
            effective_term=lambda r: 2.0 * factor_potential(potential, E, r**2),
            domain=(0.0, rmax),
            eigenvalue_scale=0.5,
            **_oscillator_basis(potential),
        )
    if kind == "coul9":
        Z = float(params["Z"])
        lam = float(params["lam"])
        rmax = float(params["rmax"])
        if not 0.0 < Z < math.inf:
            raise ValueError(f"coul9 needs a positive finite charge, got Z = {Z!r}")
        return RadialProblem(
            weight_exponent=8,
            centrifugal_coeff=lam,
            effective_term=lambda r: -2.0 * Z / r,
            domain=(0.0, rmax),
            eigenvalue_scale=0.5,
            basis_scale=_COULOMB_SCALE / Z,
            basis_power=1,
        )
    if kind == "theta":
        micz: MiczParams = params["micz"]
        alpha_u, alpha_v = micz_centrifugal_strengths(micz)

        return RadialProblem(
            weight_exponent=7,
            weight_kind="sin7",
            centrifugal_coeff=0.0,
            effective_term=lambda th: alpha_u / np.cos(th / 2.0) ** 2 + alpha_v / np.sin(th / 2.0) ** 2,
            domain=(0.0, math.pi),
            pole_strengths=(alpha_u, alpha_v),
        )
    if kind in ("para_u", "para_v"):
        model: OscillatorModel = params["model"]
        micz: MiczParams = params["micz"]
        energy = float(params["energy"])
        wmax = float(params["wmax"])
        alpha_u, alpha_v = micz_centrifugal_strengths(micz)
        if kind == "para_u":
            alpha, p, Za = alpha_u, model.p1, model.Z1
        else:
            alpha, p, Za = alpha_v, model.p2, model.Z2
        return RadialProblem(
            weight_exponent=4,
            centrifugal_coeff=alpha,
            effective_term=lambda w: (factor_potential(p, energy, 0.5 * w) - Za) / w,
            domain=(0.0, wmax),
            mass_term=lambda w: 1.0 / w,
        )
    raise ValueError(f"unknown problem kind {kind!r}")


def qes_verification_problem(potential: Potential8D, dim: int, rmax: float) -> RadialProblem:
    """Radial problem matching the QES reduced operator -f'' - (dim/r)f' + V f.

    The c/r^2 part of V is the centrifugal term, so that the basis carries
    the exact pole exponent.
    """
    return RadialProblem(
        weight_exponent=int(dim),
        centrifugal_coeff=potential.c,
        effective_term=lambda r: factor_potential(potential, -0.5 * potential.omega**2, r * r),
        domain=(0.0, rmax),
        **_oscillator_basis(potential),
    )


def _oscillator_basis(potential: Potential8D) -> dict:
    """Basis scale and power of an oscillator-family radial problem, from its length 1/sqrt(omega).

    sho and super2 take t = omega r^2, in which r^2 V is a polynomial.
    sub2 has odd powers of r, so it takes t = r / beta; its states still
    decay as Gaussians, within about ten lengths, and the Laguerre nodes of
    a few dozen functions reach t of about 100, so beta is a tenth of the
    length (on the QES sub2 blocks of the tests 20-28 functions reach
    3e-13 at a tenth, 60-68 at half).
    """
    length = 1.0 / math.sqrt(potential.omega)
    if potential.variant == "sub2":
        return {"basis_scale": 0.1 * length, "basis_power": 1}
    return {"basis_scale": length, "basis_power": 2}


# ---------------------------------------------------------------------------
# Parabolic joint eigenvalue search


# Newton steps allowed per root; bisection alone would need about 60.
_MAX_NEWTON = 100
# Branches (node counts 0, 1, 2) searched per equation.
_BRANCHES = 3


@dataclass(frozen=True)
class JointState:
    """A matched parabolic eigenstate: energy, separation constant, nodes.

    ``E`` and ``P`` are Richardson-extrapolated from the roots on the top
    five rungs of the joint search's grid ladder, and ``E_error`` bounds the
    error of E: the change of that value from one rung down, over 15, plus
    the rounding of the roots (see :func:`parabolic_joint_solve`).
    ``node_u`` and ``node_v`` are the pair's branch indices (i, j): the node
    counts of its two states, which the sign count of each branch's last
    solve certifies (see :func:`eigh_tridiagonal`).  ``solves`` counts the
    tridiagonal eigensolves of the whole search that returned this state,
    the pilot's solves included.
    """

    E: float
    P: float
    node_u: int
    node_v: int
    E_error: float
    solves: int


def _match_root(pencils, i: int, j: int, energy: float, lo: float, hi: float, known):
    """Root of F(E) = mu_u[i](E) + mu_v[j](E) by Newton steps from ``energy``.

    F is strictly decreasing, so every evaluation moves one end of the known
    bracket (lo, hi), which may start unbounded; a step that would leave it
    is replaced by bisection.  Newton converges quadratically, so once a
    step is at most sqrt(``_TARGET``) / 10 of |E| what remains after it is
    about ``_TARGET`` / 100 of |E|, and that step is applied without a
    further solve; so is a step below the rounding floor of the root, eps
    (sum_k |d_k| chi_k^2 of T_u and of T_v) / |F'| (the rounding of the two
    Rayleigh quotients over the slope), below which Newton would cycle.
    ``known`` is ``(E0, ((mu_u, slope_u, chi_u), (mu_v, slope_v,
    chi_v)))``, the two branches' eigenvalue estimates, slopes and
    eigenvectors (one column each, on these pencils' nodes) at an energy
    E0; each evaluation starts inverse iteration from the previous one's
    vectors and from the linear extrapolation of its eigenvalues, so an
    evaluation bisects only if that fails the checks of
    :func:`eigh_tridiagonal`.  Returns the root, P = mu_v[j] there (carried
    along the slope), the rounding floor at the last evaluation, the number
    of evaluations and the last evaluation in the form of ``known``.
    """
    at, known = known
    for evals in range(1, _MAX_NEWTON + 1):
        (mu_u, chi_u, s_u), (mu_v, chi_v, s_v) = (
            _shifted(p, energy, b, b, mu + s * (energy - at), chi)
            for p, b, (mu, s, chi) in zip(pencils, (i, j), known)
        )
        at, known = energy, ((mu_u, s_u, chi_u), (mu_v, s_v, chi_v))
        f = mu_u[0] + mu_v[0]
        slope = s_u[0] + s_v[0]
        if f > 0.0:
            lo = energy
        else:
            hi = energy
        step = -f / slope
        # the rounding of the two quotients, eps sum_k |d_k| chi_k^2 each
        rounding = sum(
            np.einsum("k,kj,kj->", np.abs(d0 - 0.5 * energy * x), chi, chi)
            for (d0, _, x), chi in zip(pencils, (chi_u, chi_v))
        )
        floor = _EPS * rounding / abs(slope)
        if abs(step) <= max(floor, 0.1 * math.sqrt(_TARGET) * abs(energy)) or hi - lo <= floor:
            return energy + step, mu_v[0] + s_v[0] * step, floor, evals, (at, known)
        energy += step
        if not lo < energy < hi:
            energy = 0.5 * (lo + hi)
    raise AccuracyError(
        f"Newton search for branch pair ({i}, {j}) did not converge near E = {energy:.10g}"
    )


def parabolic_joint_solve(
    model: OscillatorModel,
    micz: MiczParams,
    grid: Grid,
    bracket: tuple,
) -> JointState:
    """Find E in ``bracket`` where the u- and v-equations share a P.

    For fixed E, the u-equation eigenvalues are -P-candidates and the
    v-equation eigenvalues are +P-candidates; a physical state needs a
    branch pair (i, j) with F(E) = mu_u[i](E) + mu_v[j](E) = 0, the branch
    index being the node count, which each solve certifies by its sign
    changes.  E enters both equations only as -E w/2, so on a grid each is
    the linear pencil T(E) = T0 - (E/2) diag(w) of a right-definite
    two-parameter problem: every mu decreases strictly with E, F has at
    most one root per pair, and dF/dE comes exactly from the eigenvectors
    (Hellmann-Feynman).

    The search climbs a ladder of grids on one domain.  Each rung's two
    equations are assembled once, at E = 0, so an energy costs one diagonal
    shift and one tridiagonal eigensolve per equation.  The branches are
    node counts 0, 1 and 2 of each equation.  The domain starts at w = 50 /
    sqrt(-2 E_hi), with n nodes at a spacing of 0.1 or finer, and the pilot
    of :func:`_contain` (about n/16 nodes, the only grid that bisects)
    extends it (times 1.5 at fixed spacing, n growing in step) until all
    three states have decayed to e^-20 at the least-bound end of the
    bracket.  The pilot is the bottom rung, and it does the whole search:
    its E_hi eigenpairs and slopes come from :func:`_contain`, and its E_lo
    solve starts from those vectors and from those eigenvalues, scaled as
    the Sturmian charge below for sho factors and extrapolated along their
    slopes otherwise.

    Each pair whose endpoint mismatch changes sign on the pilot is solved
    there by bracket-safeguarded Newton (:func:`_match_root`).  The charge
    enters as the constant shift -Z_a of each pencil, so F(E_hi) + Z, with
    Z = Z1 + Z2, is the charge the pair binds at E_hi.  Newton starts at
    the Sturmian seed E* = E_hi (Z / (F(E_hi) + Z))^2, which is the root up
    to discretization error when that charge grows as sqrt(-E) (sho
    factors) and only a first guess otherwise; it starts at the secant
    point of the bracket when Z <= 0, F(E_hi) + Z <= 0 or E* lies outside
    the bracket, and its first evaluation starts from the E_hi eigenpairs,
    the eigenvalues carried to the start as for E_lo.  The pair then
    climbs rungs of 2m+1 nodes after m, so h halves, with one unbounded
    Newton root per rung: started from the pilot root on the first climb
    and from the Richardson prediction r + (r - r') / 4 of the two rungs
    below on every later one, with the eigenvalue estimates of the rung
    below carried along their slopes and its vectors prolonged, and most
    often stopped after one evaluation (see :func:`_match_root`).

    A root's error on a rung of spacing h runs in the even powers h^2, h^4,
    h^6 of a regular problem and, from the w = 0 pole of each equation, in
    h^(q + j), j = 0, 1, 2, with q = 3 + 2 s = sqrt(9 + 4 alpha), s = (-3 +
    sqrt(9 + 4 alpha)) / 2 being the regular exponent of the states there
    (alpha from :func:`micz_centrifugal_strengths`).  From the sixth root on
    (the pilot's counted), E is the Richardson value of the top five roots
    that removes the four lowest of these powers (see
    :func:`_richardson`; h^2, h^3, h^4 and h^5 for c1 = c2 = 0),
    likewise P, and E_error = |E - E'| / 15 plus the rounding floors of the
    five roots weighted as in E, E' being the same value one rung down. The
    climb stops when E_error is at most ``_TARGET`` |E|, when its grid part
    is below its rounding part, or on the first rung of at least 2n+1 nodes.
    Of the roots found, the lowest E wins and degenerate pairs (within 1e-8
    relative) are broken by the smallest |P|.  Every state of that
    degenerate group must satisfy ``E_error <= _CONV_TOL * |E|`` or
    :class:`AccuracyError` is raised; a bracket without a sign change raises
    :class:`BracketError` carrying the endpoint mismatches.
    """
    e_lo, e_hi = bracket
    if not (e_lo < e_hi < 0.0):
        raise ValueError("bracket must satisfy E_lo < E_hi < 0")
    hi = 50.0 / math.sqrt(-2.0 * e_hi)
    problems = [
        build_radial_problem(kind, model=model, micz=micz, energy=0.0, wmax=hi)
        for kind in ("para_u", "para_v")
    ]
    at_hi, m, n, hi, solves = _contain(problems, grid, max(grid.n, int(hi / 0.1)), _BRANCHES, e_hi)
    (mu_u_hi, chi_u_hi, s_u_hi), (mu_v_hi, chi_v_hi, s_v_hi) = at_hi

    @functools.cache
    def pencils(nodes):
        # the (u, v) pencils of a rung of the settled domain, shared by the pairs
        return [_assemble(p, grid, 0.0, hi, nodes) for p in problems]

    sho = model.p1.variant == model.p2.variant == "sho"

    def carried(energy):
        # the E_hi eigenvalues carried to ``energy``: with sho factors the
        # charge mu + Z_a of each equation grows as sqrt(-E), as for the
        # seed below; otherwise follow the slopes
        if sho:
            return [
                (mu + za) * math.sqrt(energy / e_hi) - za
                for (mu, _, _), za in zip(at_hi, (model.Z1, model.Z2))
            ]
        return [mu + s * (energy - e_hi) for mu, _, s in at_hi]

    (mu_u_lo, _, _), (mu_v_lo, _, _) = (
        _shifted(pencil, e_lo, 0, _BRANCHES - 1, mu, chi)
        for pencil, mu, (_, chi, _) in zip(pencils(m), carried(e_lo), at_hi)
    )
    solves += 2  # E_lo on the pilot
    mismatch = {
        (i, j): (float(mu_u_lo[i] + mu_v_lo[j]), float(mu_u_hi[i] + mu_v_hi[j]))
        for i in range(_BRANCHES)
        for j in range(_BRANCHES - i)
    }
    # a root's error runs in h^2, h^4, h^6 and, from the w = 0 pole of each
    # equation, in h^(q + j), j = 0, 1, 2, with q = 3 + 2 s = sqrt(9 + 4 alpha)
    poles = [math.sqrt(9.0 + 4.0 * a) for a in micz_centrifugal_strengths(micz)]
    series = {2.0, 4.0, 6.0} | {q + j for q in poles for j in range(3)}
    exponents = sorted(series)[:4]

    states, tops = [], {}
    z = model.Z
    for (i, j), (f_lo, f_hi) in mismatch.items():
        if not f_lo >= 0.0 >= f_hi:
            continue
        # Sturmian seed: the pair binds charge F + Z at e_hi, and with sho
        # factors that charge grows as sqrt(-E); otherwise it is a guess.
        seed = e_hi * (z / (f_hi + z)) ** 2 if z > 0.0 and f_hi + z > 0.0 else math.nan
        if e_lo < seed < e_hi:
            start = seed
        else:
            start = e_lo + (e_hi - e_lo) * f_lo / (f_lo - f_hi) if f_lo else e_lo
        u, v = slice(i, i + 1), slice(j, j + 1)
        mu_u, mu_v = carried(start)
        branches = (mu_u[u], s_u_hi[u], chi_u_hi[:, u]), (mu_v[v], s_v_hi[v], chi_v_hi[:, v])
        known = (start, branches)
        nodes = m
        *root, evals, known = _match_root(pencils(nodes), i, j, start, e_lo, e_hi, known)
        roots = [root]  # (E, P, rounding floor) on each rung, bottom up
        while True:
            below = roots[-1][0]
            start = below if len(roots) == 1 else below + (below - roots[-2][0]) / 4.0
            nodes = 2 * nodes + 1
            at, branches = known
            known = (at, tuple((mu, s, _prolong(chi)) for mu, s, chi in branches))
            *root, more, known = _match_root(
                pencils(nodes), i, j, start, -math.inf, math.inf, known
            )
            evals += more
            roots.append(root)
            if len(roots) < 6:
                continue
            top = np.array(roots[-6:])
            (energy, p), (grid_part, _), rounding = _richardson(
                exponents, top[:, :2], top[1:, 2], 15.0
            )
            bar = grid_part + rounding
            if bar <= _TARGET * abs(energy) or grid_part <= rounding or nodes >= 2 * n + 1:
                break
        solves += 2 * evals
        tops[i, j] = nodes
        states.append(
            JointState(
                E=float(energy),
                P=float(p),
                node_u=i,
                node_v=j,
                E_error=float(bar),
                solves=0,
            )
        )
    if not states:
        raise BracketError(
            f"no eigenvalue match changes sign in the bracket ({e_lo:.6g}, {e_hi:.6g})",
            bracket=(e_lo, e_hi),
            endpoint_mismatch=mismatch,
        )
    best_e = min(s.E for s in states)
    group = [s for s in states if abs(s.E - best_e) <= 1e-8 * abs(best_e)]
    for s in group:
        if s.E_error > _CONV_TOL * abs(s.E):
            raise _gate_error((s.node_u, s.node_v), tops[s.node_u, s.node_v], s.E_error)
    return replace(min(group, key=lambda s: abs(s.P)), solves=solves)


def spherical_micz_energies(
    micz: MiczParams,
    n_theta: int,
    n_radial: int,
    grid_theta: Grid,
    grid_radial: Grid,
    rmax: float,
) -> list:
    """Spherical-chart energies: polar eigenvalues then radial solves.

    Returns tuples (E, n_theta_index, N, Lambda) sorted by energy.
    """
    theta_spec = fd_eigensolve(build_radial_problem("theta", micz=micz), grid_theta, n_theta)
    out = []
    for it, lam in enumerate(theta_spec.eigenvalues):
        prob = build_radial_problem("coul9", Z=micz.Z, lam=lam, rmax=rmax)
        spec = fd_eigensolve(prob, grid_radial, n_radial)
        for N in range(n_radial):
            out.append((float(spec.eigenvalues[N]), it, N, float(lam)))
    out.sort(key=lambda t: t[0])
    return out
