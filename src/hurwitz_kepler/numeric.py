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

Accuracy strategy: the scheme is second order.  A fixed-grid solve climbs
a ladder of grids on one domain, each rung of 2m+1 nodes after one of m,
so h halves exactly (nested iteration, Brandt 1977).  From the third rung
on, two Richardson steps give the value R2 = (4 v_top - v_below)/3 and
its error bar |R2 - R2'|/15, R2' being the same value one rung down
(Paine, de Hoog & Anderssen 1981), plus the rounding of the quotients;
the climb stops at a target accuracy, at rounding level, or at 2n+1
nodes, so the grid's n caps the resolution instead of fixing it.  The
joint search keeps two grids: n nodes do the root search and 2n+1 nodes
are solved once more, started from the answer on n, and
Richardson-extrapolated.  On every
grid each eigenvalue is the Rayleigh quotient of its eigenvector, accurate to rounding where the state lives; a bisection
value is only good to eps |T| over the whole domain, which sets a floor
under the extrapolation on the optional log-stretched grid, which
clusters nodes near the origin for Coulomb-like tails.  Every domain
except the polar (0, pi) is widened until the requested states have
decayed.  Both solvers settle it the same way, on one bisected small
grid of about a sixteenth of their nodes (:func:`_contain`): the
ladder's bottom rung, or the joint search's pilot.

The two parabolic equations depend on the energy only through -E w/2, so
on a fixed grid each is the linear pencil T(E) = T0 - (E/2) diag(w) of a
right-definite two-parameter Sturm-Liouville problem.  The joint search
assembles T0 once per grid and evaluates an energy with one diagonal
shift and one eigensolve per equation; its eigenvalues fall strictly
with E and their slopes follow from the eigenvectors (Hellmann-Feynman),
so each matching root is found by safeguarded Newton iteration on the
coarse grid, polished by Newton on the fine one, and the root itself is
Richardson-extrapolated, with an error bar.
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
the first domain.  Every other solve already has eigenvalue estimates
in hand: a widened domain the previous domain's quotients, the joint
search's coarse grid those of the pilot on the settled domain, the
first rung above the bottom one its quotients and every later rung the
Richardson prediction from the two rungs below it, the joint search's
lower bracket end and the first Newton evaluation of each pair their
Sturmian scaling (sho factors) or their linear extrapolation along the
Hellmann-Feynman slopes, each later Newton evaluation the linear
extrapolation from the previous one, and the fine grid's Newton the
last coarse evaluation.  From those, inverse iteration alone gives the
eigenpairs, certified by the discrete Sturm oscillation theorem (the
j-th vector changes sign exactly j times) and a residual at rounding
level.  One pass of inverse iteration is kept when it certifies; one
that does not is repeated once from its own quotients, and a solve that
fails twice bisects after all.

Solves share no mutable state; concurrent sector sweeps are safe.
"""

from __future__ import annotations

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
# Largest residual |T chi - mu chi| accepted from an eigensolve that skipped
# bisection, relative to sum_k |d_k| chi_k^2, the scale of T where the state
# lives (|T| itself is set by the smallest cells of a log-stretched grid).
# Converged vectors stay below 2e-15 on every solve of the tests and the
# benchmark; one with 1e-5 of a neighbour mixed in sits near 1e-11.
_WARM_TOL = 1e-13


def _quotients(d, e, chi):
    """Rayleigh quotients of the unit columns of ``chi`` for T = tridiag(e, d, e), and (T chi)^T.

    The work runs along the rows of chi^T, which are contiguous for the
    column-major vectors LAPACK returns.
    """
    c = chi.T
    t_c = d * c
    t_c[:, :-1] += e * c[:, 1:]
    t_c[:, 1:] += e * c[:, :-1]
    return np.einsum("jk,jk->j", c, t_c), t_c


def eigh_tridiagonal(d, e, first: int, last: int, estimates=None):
    """Eigenpairs ``first..last`` of T = tridiag(e, d, e): Rayleigh quotients, unit vectors.

    This is the one call into LAPACK, and scipy is imported on its first
    call.  Without ``estimates`` it is ``scipy.linalg.eigh_tridiagonal``
    with ``select="i"``: bisection (stebz) to full precision, then inverse
    iteration (stein).  With ``estimates`` (one per wanted eigenvalue)
    bisection is skipped: stein runs from the estimates, and its result is
    kept if stein converged, every column j has exactly ``first + j`` sign
    changes (the discrete Sturm oscillation theorem, valid because every
    assembled ``e`` is strictly negative, certifies the index) and its
    residual ``|T chi - mu chi|`` is at most ``_WARM_TOL sum_k |d_k|
    chi_k^2`` (2-norms).  A pass that converged but fails the checks is
    repeated once, from the quotients of its vectors; if that one fails
    too (or stein did not converge), the same call falls back to
    bisection.  A LAPACK failure on either path is an
    :class:`AccuracyError`.
    """
    from scipy.linalg import LinAlgError, get_lapack_funcs
    from scipy.linalg import eigh_tridiagonal as bisect

    try:
        if estimates is not None:
            (stein,) = get_lapack_funcs(("stein",), (d, e))
            n = len(d)
            blocks = np.ones(n, np.int32), np.full(n, n, np.int32)
            mu = estimates
            for _ in range(2):
                # stein rejects shifts that are not ascending
                chi, info = stein(d, e, np.sort(mu), *blocks)
                if info != 0:
                    break
                mu, t_c = _quotients(d, e, chi)
                t_c -= mu[:, None] * chi.T
                residual = np.sqrt(np.einsum("jk,jk->j", t_c, t_c))
                if np.all(residual <= _WARM_TOL * (chi.T**2 @ np.abs(d))) and all(
                    _count_nodes(vec) == first + j for j, vec in enumerate(chi.T)
                ):
                    return mu, chi
        _, chi = bisect(d, e, select="i", select_range=(first, last))
        return _quotients(d, e, chi)[0], chi
    except LinAlgError as exc:
        raise AccuracyError(f"tridiagonal eigensolve failed: {exc}") from exc


@dataclass(frozen=True)
class Grid:
    """Node count and placement (uniform or log-stretched).

    :func:`fd_eigensolve` climbs to at most 2n+1 nodes (n widened with the
    domain); the joint search solves on n and 2n+1 nodes.
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

    ``eigenvalues`` are R2, Richardson-extrapolated from the Rayleigh
    quotients on the top two rungs of the ladder, and scaled by the
    problem's ``eigenvalue_scale``; ``convergence`` holds the estimated
    remaining error per state (|R2 - R2'| / 15 with R2' from one rung
    down, plus the rounding of both quotients) in the same units.
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


def _shifted(pencil, energy: float, first: int, last: int, estimates=None):
    """Eigenpairs first..last of T(E) = T0 - (E/2) diag(x), and dmu/dE.

    ``pencil`` is ``(d0, e, x)`` assembled at E = 0.  Each eigenvalue
    is the Rayleigh quotient of its orthonormal eigenvector chi, which is
    accurate to rounding on the nodes the state occupies; with
    ``estimates`` of the eigenvalues the solve skips bisection (see
    :func:`eigh_tridiagonal`).  The slope is the Hellmann-Feynman
    derivative -1/2 sum_k chi_k^2 x_k.
    """
    d0, e, x = pencil
    mu, chi = eigh_tridiagonal(d0 - 0.5 * energy * x, e, first, last, estimates)
    return mu, chi, -0.5 * (x @ chi**2)


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
    problems' domain.  Each problem is assembled on it at E = 0 and its
    lowest ``k`` eigenpairs of T0 - (energy/2) diag(x) are solved through
    :func:`_shifted`, by bisection on the first domain.  While some state
    keeps more than e^-20 of its peak at the last node, the domain is
    extended times 1.5 at fixed node spacing, m and the caller's n growing
    in step, at most ``_MAX_EXTENSIONS`` times (the sin^7 polar domain is
    never extended); each wider domain starts inverse iteration from the
    previous domain's quotients.  Returns the quotients of each problem on
    the final small grid, its node count m, the grown n, the upper end of
    the domain and the number of eigensolves made.
    """
    lo, hi = problems[0].domain
    fixed = any(p.weight_kind == "sin7" for p in problems)
    m = max(n // _PILOT_RATIO, 16 * k, 64)
    estimates, solves = [None] * len(problems), 0
    for attempt in range(_MAX_EXTENSIONS + 1):
        solved = [
            _shifted(_assemble(p, grid, lo, hi, m), energy, 0, k - 1, mu)
            for p, mu in zip(problems, estimates)
        ]
        solves += len(problems)
        estimates = [mu for mu, _, _ in solved]
        if fixed or max(_tail_fraction(chi) for _, chi, _ in solved) <= _TAIL_LIMIT:
            return estimates, m, n, hi, solves
        if attempt == _MAX_EXTENSIONS:
            raise AccuracyError(f"domain extension failed to contain the states (hi = {hi:.6g})")
        hi = lo + (hi - lo) * 1.5
        m, n = int(m * 1.5), int(n * 1.5)


def fd_eigensolve(problem: RadialProblem, grid: Grid, k: int) -> Spectrum:
    """Lowest ``k`` eigenpairs of ``problem``, on a ladder of grids capped by ``grid``.

    The bottom rung is the small grid of :func:`_contain` for n =
    ``grid.n``, the only grid that bisects: it settles the domain, where
    the requested states have decayed to e^-20 at the upper end, and n
    grows with it.  Each rung after m nodes has 2m+1 on the same domain,
    so h halves, and is solved by inverse iteration: the first from the
    bottom rung's quotients, every later one from the Richardson
    prediction v_m + (v_m - v_prev) / 4 of the two rungs below it.  From the third
    rung on the eigenvalues are R2 = (4 v_top - v_below) / 3, and their
    error bar is |R2 - R2'| / 15, with R2' the same formula one rung down,
    plus the rounding of the two quotients, eps sum_k |d_k| chi_k^2 each,
    weighted as in R2.  The climb stops when every bar is at most
    ``_TARGET |R2|``, when every bar that is not is at rounding level
    (the grid part below the rounding part), or on the first rung of at
    least 2n+1 nodes.  A bar above ``_CONV_TOL * max(1, |R2|)`` raises
    :class:`AccuracyError`.
    """
    if k < 1:
        raise ValueError("need at least one eigenvalue")
    if k > grid.n // 4:
        raise ValueError(f"k = {k} exceeds n/4 = {grid.n // 4}")
    (mu,), m, n, hi, _ = _contain([problem], grid, grid.n, k)
    lo = problem.domain[0]
    # quotients and eps sum_k |d_k| chi_k^2 of each rung, bottom up; the bar
    # reads the rounding of the top two rungs only, never the bottom one's
    rungs = [(mu, None)]
    estimates = mu
    while True:
        m = 2 * m + 1
        pencil = _assemble(problem, grid, lo, hi, m)
        mu, chi, _ = _shifted(pencil, 0.0, 0, k - 1, estimates)
        rungs.append((mu, _EPS * (np.abs(pencil[0]) @ chi**2)))
        if len(rungs) >= 3:
            (v1, _), (v2, r2), (v3, r3) = rungs[-3:]
            values = (4.0 * v3 - v2) / 3.0
            grid_part = np.abs(values - (4.0 * v2 - v1) / 3.0) / 15.0
            rounding = (4.0 * r3 + r2) / 3.0
            conv = grid_part + rounding
            done = (conv <= _TARGET * np.abs(values)) | (grid_part <= rounding)
            if m >= 2 * n + 1 or np.all(done):
                break
        estimates = mu + (mu - rungs[-2][0]) / 4.0
    rel = conv / np.maximum(1.0, np.abs(values))
    if np.any(rel > _CONV_TOL):
        worst = int(np.argmax(rel))
        raise AccuracyError(
            "grid doubling did not converge: state "
            f"{worst} has error bar {conv[worst]:.3g} "
            f"(rungs of {(m - 1) // 2} and {m} nodes, tol = {_CONV_TOL:.1g})"
        )
    scale = problem.eigenvalue_scale
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

    ``E`` and ``P`` are Richardson-extrapolated from the roots on the two
    grids and ``E_error = |E_fine - E_coarse| / 3`` bounds the error of E.
    ``node_u`` and ``node_v`` are the pair's branch indices (i, j): the
    node counts of its two states, which the sign count of each branch's
    last solve certifies (see :func:`eigh_tridiagonal`).  ``solves``
    counts the tridiagonal eigensolves of the whole search that returned
    this state, the pilot's solves included.
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
    is replaced by bisection.  Newton stops once its step falls below the
    rounding floor eps (|T_u| + |T_v|) / |F'|, below which it would cycle;
    that last step is applied without a further solve.  ``known`` is
    ``(E0, ((mu_u, slope_u), (mu_v, slope_v)))``, the two branches'
    eigenvalue estimates and slopes at an energy E0; each evaluation passes
    the linear extrapolation from the previous one as its eigenvalue
    estimates, so an evaluation bisects only if its inverse iteration
    fails the checks of :func:`eigh_tridiagonal`.  Returns the root, P = mu_v[j]
    there (carried along the slope), the number of evaluations and the last
    evaluation in the form of ``known``.
    """
    norm = sum(
        np.max(np.abs(d0 - 0.5 * energy * x)) + 2.0 * np.max(np.abs(e))
        for d0, e, x in pencils
    )
    at, known = known
    for evals in range(1, _MAX_NEWTON + 1):
        (mu_u, _, s_u), (mu_v, _, s_v) = (
            _shifted(p, energy, b, b, mu + s * (energy - at))
            for p, b, (mu, s) in zip(pencils, (i, j), known)
        )
        at, known = energy, ((mu_u, s_u), (mu_v, s_v))
        f = mu_u[0] + mu_v[0]
        slope = s_u[0] + s_v[0]
        if f > 0.0:
            lo = energy
        else:
            hi = energy
        step = -f / slope
        floor = _EPS * norm / abs(slope)
        if abs(step) <= floor or hi - lo <= floor:
            return energy + step, mu_v[0] + s_v[0] * step, evals, (at, known)
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

    Both equations are assembled once, at E = 0, on a coarse grid (n
    nodes) and a fine one (2n+1 nodes); an energy then costs one diagonal
    shift and one tridiagonal eigensolve per equation.  The coarse grid
    does the search and the fine grid only polishes its roots.  The
    branches are node counts 0, 1 and 2 of each equation.  The domain
    starts at w = 50 / sqrt(-2 E_hi) with node spacing 0.1 or finer, and
    the pilot of :func:`_contain`, the only grid that bisects, extends it
    (times 1.5 at fixed spacing) until all three states have decayed to
    e^-20 at the least-bound end of the bracket; the coarse and fine grids
    are assembled on that domain and keep it for every energy.  The coarse
    grid is solved once per equation at E_hi, by inverse iteration from
    the pilot's eigenvalues, and every later solve starts from eigenvalues
    already in hand: at E_lo and at the start of each pair's coarse
    Newton from those at E_hi, scaled as the Sturmian charge below for sho
    factors and extrapolated along their slopes otherwise, and at every
    later Newton evaluation from the previous one, extrapolated along the
    slopes (the fine Newton from the last coarse evaluation).

    Each pair whose endpoint mismatch changes sign is solved by
    bracket-safeguarded Newton on the coarse grid, polished by Newton on
    the fine grid from the coarse root, and Richardson-extrapolated:
    E = (4 E_fine - E_coarse) / 3, likewise P.  The charge enters as the
    constant shift -Z_a of each pencil, so F(E_hi) + Z, with Z = Z1 + Z2,
    is the charge the pair binds at E_hi.  The coarse Newton starts at the
    Sturmian seed E* = E_hi (Z / (F(E_hi) + Z))^2, which is the root up to
    discretization error when that charge grows as sqrt(-E) (sho factors)
    and only a first guess otherwise; it starts at the secant point of
    the bracket when Z <= 0, F(E_hi) + Z <= 0 or E* lies outside the
    bracket.  Of the roots found, the lowest E wins and degenerate pairs
    (within 1e-8 relative) are broken by the smallest |P|.  Every state of
    that degenerate group must satisfy ``E_error <= _CONV_TOL * |E|`` or
    :class:`AccuracyError` is raised; a bracket without a sign change
    raises :class:`BracketError` carrying the endpoint mismatches.
    """
    e_lo, e_hi = bracket
    if not (e_lo < e_hi < 0.0):
        raise ValueError("bracket must satisfy E_lo < E_hi < 0")
    hi = 50.0 / math.sqrt(-2.0 * e_hi)
    problems = [
        build_radial_problem(kind, model=model, micz=micz, energy=0.0, wmax=hi)
        for kind in ("para_u", "para_v")
    ]
    mu_hi, _, n, hi, solves = _contain(problems, grid, max(grid.n, int(hi / 0.1)), _BRANCHES, e_hi)
    coarse, fine = ([_assemble(p, grid, 0.0, hi, m) for p in problems] for m in (n, 2 * n + 1))
    at_hi = [_shifted(pencil, e_hi, 0, _BRANCHES - 1, mu) for pencil, mu in zip(coarse, mu_hi)]
    (mu_u_hi, _, s_u_hi), (mu_v_hi, _, s_v_hi) = at_hi
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
        _shifted(pencil, e_lo, 0, _BRANCHES - 1, mu) for pencil, mu in zip(coarse, carried(e_lo))
    )
    solves += 4  # E_hi and E_lo on the coarse grid
    mismatch = {
        (i, j): (float(mu_u_lo[i] + mu_v_lo[j]), float(mu_u_hi[i] + mu_v_hi[j]))
        for i in range(_BRANCHES)
        for j in range(_BRANCHES - i)
    }

    states = []
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
        known = (start, ((mu_u[u], s_u_hi[u]), (mu_v[v], s_v_hi[v])))
        e_c, p_c, evals_c, known = _match_root(coarse, i, j, start, e_lo, e_hi, known)
        e_f, p_f, evals_f, _ = _match_root(fine, i, j, e_c, -math.inf, math.inf, known)
        solves += 2 * (evals_f + evals_c)
        states.append(
            JointState(
                E=float(4.0 * e_f - e_c) / 3.0,
                P=float(4.0 * p_f - p_c) / 3.0,
                node_u=i,
                node_v=j,
                E_error=float(abs(e_f - e_c)) / 3.0,
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
            raise AccuracyError(
                f"grid doubling did not converge: state ({s.node_u}, {s.node_v}) "
                f"E changed by {3.0 * s.E_error:.3g} (n = {n} vs {2 * n + 1}, "
                f"tol = {_CONV_TOL:.1g})"
            )
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
