"""Finite-difference Sturm-Liouville eigensolvers for the separated ODEs.

Every separated equation in this package has the self-adjoint form

    -(1/w(x)) d/dx ( w(x) dR/dx ) + q(x) R = mu m(x) R

on an interval (lo, hi) with a power-law or sin^7 weight w, an optional
positive eigenvalue weight m (the parabolic equations carry m = 1/w with
w the parabolic coordinate), and Dirichlet values at both ends.  The
conservative three-point scheme

    A_ii  = (w_{i-1/2} + w_{i+1/2}) / h^2 + q_i w_i
    A_i,i+1 = -w_{i+1/2} / h^2

is symmetrized exactly by the diagonal similarity diag(sqrt(w_i)) (the
discrete version of substituting R = w^{-1/2} chi), so the assembled
matrix is symmetric tridiagonal to machine precision and a direct
selected-eigenvalue solve is cheap.  Vanishing endpoint weights make the
Dirichlet ghost values the natural regular boundary condition at
coordinate singularities (r = 0, theta in {0, pi}).

Accuracy strategy: the scheme is second order, and on these regular
problems its eigenvalue error runs in even powers of h (Paine, de Hoog &
Anderssen 1981).  A fixed-grid solve climbs a ladder of grids on one
domain, each rung of 2m+1 nodes after one of m, so h halves exactly
(nested iteration, Brandt 1977).  From the third rung above the bottom
one it reports R3, the Richardson value of the top three rungs that
removes h^2 and h^4 and is good to h^6, with the error bar |R3 - R3'|/63,
R3' being the same value one rung down.  Each bar adds the rounding of
the quotients; the climb stops at a target accuracy, at rounding level,
or at 2n+1 nodes, so the grid's n caps the resolution instead of fixing
it.  The joint search climbs the same kind of ladder, one root per rung,
and both ladders extrapolate with :func:`_richardson`.
On every grid each eigenvalue is the Rayleigh quotient of its
eigenvector, accurate to rounding where the state lives;
a bisection value is only good to eps |T| over the whole domain, which
sets a floor under the extrapolation on the optional log-stretched grid,
which clusters nodes near the origin for Coulomb-like tails.  Every
domain except the polar (0, pi) is widened until the requested states
have decayed.  Both solvers settle it the same way, on one bisected
small grid of about a sixteenth of their nodes (:func:`_contain`): the
ladder's bottom rung, or the joint search's pilot.

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

Every eigensolve goes through :func:`_shifted`, the one caller of
:func:`eigh_tridiagonal`, the one call into LAPACK, which imports scipy on
its first call: importing this module (and the package, and its CLI)
loads numpy only, so work that solves nothing never pays scipy's
start-up.  Only that small grid of each problem bisects, and only on
the first domain, to a loose tolerance.  Every other solve already has
an eigenvector and an eigenvalue estimate in hand for each state: a
widened domain the previous domain's vectors, interpolated, and
quotients; every rung above the bottom one the rung below prolonged
(its nodes are the odd nodes of the next rung) and, on the first climb,
the bottom rung's quotients, on every later one the Richardson
prediction from the two rungs below it; the joint search's lower
bracket end and the first Newton evaluation of each pair the E_hi
vectors and their Sturmian scaling (sho factors) or their linear
extrapolation along the Hellmann-Feynman slopes; and each later Newton
evaluation, on its rung or on the next one up, the previous one's
vectors and the linear extrapolation from it.  From a start that good
one tridiagonal solve with the estimate as shift converges (Ipsen
1997), and inverse iteration alone gives the eigenpairs, certified by
the discrete Sturm oscillation theorem (the j-th vector changes sign
exactly j times) and a residual at rounding level.  A vector that fails
is solved again from itself and its Rayleigh quotient, at most three
solves in all; a call with a vector that still fails bisects after all.

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
    eval_potential,
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
# Grid nodes per node of the one grid of each problem that bisects: the
# bottom rung of fd_eigensolve and the pilot of the joint search.
_PILOT_RATIO = 16
# Error bar, relative to |value|, at which fd_eigensolve stops climbing: the
# tightest accuracy asked of a fixed-grid value (coul9 on a log grid).
_TARGET = 1e-10
_MAX_EXTENSIONS = 6
_EPS = float(np.finfo(float).eps)
# Largest grid-doubling change accepted, relative to max(1, |mu|) in
# fd_eigensolve and to |E| in the joint search.
_CONV_TOL = 1e-5
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

    :func:`fd_eigensolve` and the joint search climb from about n/16 nodes
    and stop at their target accuracy or on the first rung of at least
    2n+1 nodes (n widened with the domain), so n caps the resolution.
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
    equation instead, whose domain (0, pi) is the only one never
    extended.  ``centrifugal_coeff`` multiplies 1/x^2; ``effective_term``
    is the remaining vectorized source.  The raw eigenvalue mu is
    reported as ``eigenvalue_scale * mu`` (0.5 turns 2Z into Z and 2E
    into E).
    """

    weight_exponent: int
    centrifugal_coeff: float
    effective_term: Callable
    domain: tuple
    weight_kind: str = "power"
    mass_term: Callable | None = None
    eigenvalue_scale: float = 1.0

    def __post_init__(self):
        lo, hi = self.domain
        if not (hi > lo >= 0.0):
            raise ValueError("domain must satisfy hi > lo >= 0")
        if self.weight_kind not in ("power", "sin7"):
            raise ValueError("weight_kind must be 'power' or 'sin7'")

    def weight(self, x):
        if self.weight_kind == "sin7":
            return np.sin(x) ** 7
        return x ** float(self.weight_exponent)


@dataclass(frozen=True)
class Spectrum:
    """Lowest eigenpairs of a radial problem, ascending.

    ``eigenvalues`` are Richardson-extrapolated from the Rayleigh quotients
    of the ladder's top three rungs (R3, see :func:`fd_eigensolve`), scaled
    by the problem's ``eigenvalue_scale``; ``convergence`` holds the
    estimated remaining error per state (|R3 - R3'| / 63, R3' the same
    value one rung down, plus the rounding of the quotients) in the same
    units.
    ``node_counts`` are the sign changes of the top rung's eigenvectors,
    and ``grid`` holds that rung's nodes, which give the domain after
    widening.
    """

    eigenvalues: np.ndarray
    grid: np.ndarray
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


def _count_nodes(vec: np.ndarray) -> int:
    mag = np.abs(vec)
    negative = np.signbit(vec[mag > 1e-8 * mag.max()])
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
    times (the sin^7 polar domain is never extended); each wider domain
    starts inverse iteration from the previous domain's quotients and from
    its vectors interpolated onto the new nodes, zero past the old end.  n
    grows to at most 16 (m + 1) - 1, so the fifth rung above m (rungs of
    2m+1 nodes after m) still has 2n+1 nodes or more: rounding m down would
    otherwise leave that rung a few nodes short of a ladder's 2n+1 cap, and
    the ladder would climb a whole rung more.  Returns the ``(mu, chi,
    dmu/dE)`` of each problem on the final small grid, its node count m, the
    grown n, the upper end of the domain and the number of eigensolves made.
    """
    lo, hi = problems[0].domain
    fixed = any(p.weight_kind == "sin7" for p in problems)
    m = max(n // _PILOT_RATIO, 16 * k, 64) | 1
    starts, solves = [(None, None)] * len(problems), 0
    for attempt in range(_MAX_EXTENSIONS + 1):
        pencils = [_assemble(p, grid, lo, hi, m) for p in problems]
        solved = [
            _shifted(pencil, energy, 0, k - 1, *start) for pencil, start in zip(pencils, starts)
        ]
        solves += len(problems)
        if fixed or max(_tail_fraction(chi) for _, chi, _ in solved) <= _TAIL_LIMIT:
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


def _ladder_error(state, nodes: int, bar: float) -> AccuracyError:
    """The error a grid ladder raises when a bar exceeds ``_CONV_TOL`` relative."""
    return AccuracyError(
        f"grid doubling did not converge: state {state} has error bar {bar:.3g} "
        f"on a top rung of {nodes} nodes (tol = {_CONV_TOL:.1g} relative)",
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


def fd_eigensolve(problem: RadialProblem, grid: Grid, k: int) -> Spectrum:
    """Lowest ``k`` eigenpairs of ``problem``, on a ladder of grids capped by ``grid``.

    The bottom rung is the small grid of :func:`_contain` for n =
    ``grid.n``, the only grid that bisects: it settles the domain, where
    the requested states have decayed to e^-20 at the upper end, and n
    grows with it.  Each rung after m nodes has 2m+1 on the same domain,
    so h halves, and is solved by inverse iteration from the vectors of
    the rung below, prolonged (see :func:`_prolong`), and from eigenvalue
    estimates: the bottom rung's quotients on the first climb, and the
    Richardson prediction v_m + (v_m - v_prev) / 4 of the two rungs below
    on every later one.  With v_1 .. v_4 the quotients of the top four
    rungs, bottom up, each test from the third rung above the bottom one
    on reports R3 = (64 v_4 - 20 v_3 + v_2) / 45, which removes the h^2
    and h^4 terms of the error, with the bar |R3 - R3'| / 63, R3' being
    the same value one rung down (see :func:`_richardson`).  The bar adds
    the rounding of the quotients, r = eps sum_k |d_k| chi_k^2 per rung,
    weighted as in R3: (64 r_4 + 20 r_3 + r_2) / 45.  The error runs in
    even powers of h on these problems (Paine, de Hoog & Anderssen 1981),
    so R3 is good to h^6.  The climb stops when every bar is at most
    ``_TARGET`` times its value, when every bar that is not is at rounding
    level (the grid part below the rounding part), or on the first rung of
    at least 2n+1 nodes.  A bar above ``_CONV_TOL * max(1, |value|)``
    raises :class:`AccuracyError`.
    """
    if k < 1:
        raise ValueError("need at least one eigenvalue")
    if k > grid.n // 4:
        raise ValueError(f"k = {k} exceeds n/4 = {grid.n // 4}")
    ((mu, chi, _),), m, n, hi, _ = _contain([problem], grid, grid.n, k)
    lo = problem.domain[0]
    # quotients of each rung and eps sum_k |d_k| chi_k^2 of each rung above
    # the bottom one, bottom up
    quotients, floors = [mu], []
    while True:
        estimates = mu if len(quotients) == 1 else mu + (mu - quotients[-2]) / 4.0
        m = 2 * m + 1
        pencil = _assemble(problem, grid, lo, hi, m)
        mu, chi, _ = _shifted(pencil, 0.0, 0, k - 1, estimates, _prolong(chi))
        quotients.append(mu)
        floors.append(_EPS * np.einsum("k,kj,kj->j", np.abs(pencil[0]), chi, chi))
        if len(quotients) < 4:
            continue
        values, grid_part, rounding = _richardson((2.0, 4.0), quotients[-4:], floors[-3:], 63.0)
        conv = grid_part + rounding
        done = (conv <= _TARGET * np.abs(values)) | (grid_part <= rounding)
        if m >= 2 * n + 1 or np.all(done):
            break
    scale = problem.eigenvalue_scale
    rel = conv / np.maximum(1.0, np.abs(values))
    if np.any(rel > _CONV_TOL):
        worst = int(np.argmax(rel))
        raise _ladder_error(worst, m, conv[worst] * scale)
    return Spectrum(
        eigenvalues=values * scale,
        grid=pencil[2],
        convergence=conv * scale,
        node_counts=tuple(_count_nodes(chi[:, j]) for j in range(k)),
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
        )
    if kind == "coul9":
        Z = float(params["Z"])
        lam = float(params["lam"])
        rmax = float(params["rmax"])
        return RadialProblem(
            weight_exponent=8,
            centrifugal_coeff=lam,
            effective_term=lambda r: -2.0 * Z / r,
            domain=(0.0, rmax),
            eigenvalue_scale=0.5,
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
    """Radial problem matching the QES reduced operator -f'' - (dim/r)f' + V f."""
    return RadialProblem(
        weight_exponent=int(dim),
        centrifugal_coeff=0.0,
        effective_term=lambda r: eval_potential(potential, r),
        domain=(0.0, rmax),
    )


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
            raise _ladder_error((s.node_u, s.node_v), tops[s.node_u, s.node_v], s.E_error)
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
