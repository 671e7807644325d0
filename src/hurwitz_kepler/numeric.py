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

Accuracy strategy: the scheme is second order; each solve is repeated on
a doubled grid and Richardson-extrapolated, the difference between the
two grids serving as the convergence check demanded of every reported
eigenvalue.  On both grids every eigenvalue is the Rayleigh quotient of
its eigenvector, accurate to rounding where the state lives; a bisection
value is only good to eps |T| over the whole domain, which sets a floor
under the extrapolation on the optional log-stretched grid, which
clusters nodes near the origin for Coulomb-like tails.  Every domain except the
polar (0, pi) is widened until the requested states have decayed; the
fixed-grid solve and the joint search share that loop.

The two parabolic equations depend on the energy only through -E w/2, so
on a fixed grid each is the linear pencil T(E) = T0 - (E/2) diag(w) of a
right-definite two-parameter Sturm-Liouville problem.  The joint search
assembles T0 once per grid and evaluates an energy with one diagonal
shift and one eigensolve per equation; its eigenvalues fall strictly
with E and their slopes follow from the eigenvectors (Hellmann-Feynman),
so each matching root is found by safeguarded Newton iteration on both
grids and the root itself is Richardson-extrapolated, with an error bar.
The charge enters only as a constant shift of each pencil, so the
eigenvalues at the bracket's upper end already give the charge each
branch pair binds there; with sho factors that charge grows as sqrt(-E)
(the Coulomb Sturmian scaling), which seeds Newton within the
discretization error of the root.  Any other factor only makes the seed
a first guess, and a pair without a seed starts from the secant point.
With sho factors the states also have one shape in sqrt(-2E) w, so the
search starts on the domain that holds them.

Every eigensolve goes through :func:`_shifted`, the one caller of
:func:`eigh_tridiagonal`, which imports scipy's solver on its first call:
importing this module (and the package, and its CLI) loads numpy only, so
work that solves nothing never pays scipy's start-up.

Solves share no mutable state; concurrent sector sweeps are safe.
"""

from __future__ import annotations

import math
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
_MAX_EXTENSIONS = 6
_EPS = float(np.finfo(float).eps)
# Largest grid-doubling change accepted, relative to max(1, |mu|) in
# fd_eigensolve and to |E| in the joint search.
_CONV_TOL = 1e-5


def eigh_tridiagonal(d, e, **kwargs):
    """``scipy.linalg.eigh_tridiagonal(d, e, **kwargs)``, imported on the first call."""
    from scipy.linalg import eigh_tridiagonal as solve

    return solve(d, e, **kwargs)


@dataclass(frozen=True)
class Grid:
    """Interior point count and node placement (uniform or log-stretched)."""

    n: int = 2000
    spacing: str = "uniform"
    stretch: float = 6.0

    def __post_init__(self):
        if self.n < 16:
            raise ValueError("grid needs at least 16 points")
        if self.spacing not in ("uniform", "log"):
            raise ValueError("spacing must be 'uniform' or 'log'")
        if self.spacing == "log" and self.stretch <= 0.0:
            raise ValueError("log stretch must be positive")


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
    on the two grids and scaled by the problem's ``eigenvalue_scale``;
    ``convergence`` holds the estimated remaining error per state (from
    grid doubling) in the same units.  ``eigenvectors`` and their node
    counts belong to the fine grid, whose nodes ``grid`` holds.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
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
    """Symmetric tridiagonal (d, e) of ``problem`` on ``n`` nodes in (lo, hi).

    Also returns the nodes x and the mass, for R = chi / sqrt(mass).
    """
    x, g, xh, gh, ht = _mapped_nodes(grid, lo, hi, n)
    s_half = problem.weight(xh) / gh
    wm = problem.weight(x) * g
    q = problem.effective_term(x)
    if problem.centrifugal_coeff != 0.0:
        q = q + problem.centrifugal_coeff / x**2
    mass = wm if problem.mass_term is None else wm * problem.mass_term(x)
    a_diag = (s_half[:-1] + s_half[1:]) / ht**2 + q * wm
    a_off = -s_half[1:-1] / ht**2
    d = a_diag / mass
    e = a_off / np.sqrt(mass[:-1] * mass[1:])
    return d, e, x, mass


def _shifted(pencil, energy: float, first: int, last: int):
    """Eigenpairs first..last of T(E) = T0 - (E/2) diag(x), and dmu/dE.

    ``pencil`` is ``(d0, e, x, mass)`` assembled at E = 0.  Each eigenvalue
    is the Rayleigh quotient of its orthonormal eigenvector chi, which is
    accurate to rounding on the nodes the state occupies; the bisection
    value is only accurate to eps |T| over the whole domain.  The slope is
    the Hellmann-Feynman derivative -1/2 sum_k chi_k^2 x_k.
    """
    d0, e, x, _ = pencil
    d = d0 - 0.5 * energy * x
    _, chi = eigh_tridiagonal(d, e, select="i", select_range=(first, last))
    t_chi = d[:, None] * chi
    t_chi[:-1] += e[:, None] * chi[1:]
    t_chi[1:] += e[:, None] * chi[:-1]
    return np.einsum("kj,kj->j", chi, t_chi), chi, -0.5 * (x @ chi**2)


def _physical_vectors(chi: np.ndarray, mass: np.ndarray) -> np.ndarray:
    """R = chi / sqrt(mass), peak-normalized, first significant entry positive."""
    vecs = chi / np.sqrt(mass)[:, None]
    for j in range(vecs.shape[1]):
        peak = np.max(np.abs(vecs[:, j]))
        vecs[:, j] /= peak
        lead = np.argmax(np.abs(vecs[:, j]) > 1e-3)
        if vecs[lead, j] < 0.0:
            vecs[:, j] = -vecs[:, j]
    return vecs


def _tail_fraction(chi: np.ndarray) -> float:
    """Largest share of its peak that any state keeps at the upper end."""
    return float(np.max(np.max(np.abs(chi[-2:]), axis=0) / np.max(np.abs(chi), axis=0)))


def _count_nodes(vec: np.ndarray) -> int:
    scale = np.max(np.abs(vec))
    sig = vec[np.abs(vec) > 1e-8 * scale]
    return int(np.count_nonzero(np.sign(sig[1:]) != np.sign(sig[:-1])))


def _contain(problems, grid: Grid, n: int, k: int, energy: float = 0.0):
    """Fine and coarse pencils of a domain that holds the lowest ``k`` states at ``energy``.

    Each problem is assembled at E = 0 on 2n+1 nodes of its domain and its
    lowest ``k`` eigenpairs of T0 - (energy/2) diag(x) are solved through
    :func:`_shifted`.  While some state keeps more than e^-20 of its peak
    at the upper end, the domain is extended times 1.5 at fixed node
    spacing, at most ``_MAX_EXTENSIONS`` times (the sin^7 polar domain is
    never extended).  Returns the fine pencils (d0, e, x, mass), the
    coarse pencils on n nodes of the final domain, the fine
    ``(mu, chi, slope)`` of each problem, the final n and the number of
    eigensolves made.
    """
    lo, hi = problems[0].domain
    fixed = any(p.weight_kind == "sin7" for p in problems)
    for attempt in range(_MAX_EXTENSIONS + 1):
        fine = [_assemble(p, grid, lo, hi, 2 * n + 1) for p in problems]
        solved = [_shifted(pencil, energy, 0, k - 1) for pencil in fine]
        if fixed or max(_tail_fraction(chi) for _, chi, _ in solved) <= _TAIL_LIMIT:
            coarse = [_assemble(p, grid, lo, hi, n) for p in problems]
            return fine, coarse, solved, n, len(problems) * (attempt + 1)
        if attempt == _MAX_EXTENSIONS:
            raise AccuracyError(f"domain extension failed to contain the states (hi = {hi:.6g})")
        hi = lo + (hi - lo) * 1.5
        n = int(n * 1.5)


def fd_eigensolve(problem: RadialProblem, grid: Grid, k: int) -> Spectrum:
    """Lowest ``k`` eigenpairs of ``problem`` on ``grid``.

    The solve runs on the grid and on its doubling; on each the eigenvalues
    are the Rayleigh quotients from :func:`_shifted`, Richardson-extrapolated
    across the two, and the residual grid change must stay below
    ``_CONV_TOL * max(1, |mu|)`` or :class:`AccuracyError` is raised.  The
    eigenvectors are those of the doubled grid.  The domain is first
    extended until the requested states have decayed to e^-20 at the upper
    end (see :func:`_contain`).
    """
    if k < 1:
        raise ValueError("need at least one eigenvalue")
    if k > grid.n // 4:
        raise ValueError(f"k = {k} exceeds n/4 = {grid.n // 4}")
    ((_, _, x_f, mass),), (coarse,), ((vals_f, chi_f, _),), n, _ = _contain(
        [problem], grid, grid.n, k
    )
    vals_c, _, _ = _shifted(coarse, 0.0, 0, k - 1)
    values = (4.0 * vals_f - vals_c) / 3.0
    conv = np.abs(vals_f - vals_c) / 3.0
    rel = conv / np.maximum(1.0, np.abs(values))
    if np.any(rel > _CONV_TOL):
        worst = int(np.argmax(rel))
        raise AccuracyError(
            "grid doubling did not converge: state "
            f"{worst} changed by {conv[worst]:.3g} "
            f"(n = {n} vs {2 * n + 1}, tol = {_CONV_TOL:.1g})"
        )
    vecs_f = _physical_vectors(chi_f, mass)
    scale = problem.eigenvalue_scale
    return Spectrum(
        eigenvalues=values * scale,
        eigenvectors=vecs_f,
        grid=x_f,
        convergence=conv * scale,
        node_counts=tuple(_count_nodes(vecs_f[:, j]) for j in range(k)),
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

        def eff(th):
            q = np.zeros_like(th)
            if alpha_u != 0.0:
                q = q + alpha_u / np.cos(th / 2.0) ** 2
            if alpha_v != 0.0:
                q = q + alpha_v / np.sin(th / 2.0) ** 2
            return q

        return RadialProblem(
            weight_exponent=7,
            weight_kind="sin7",
            centrifugal_coeff=0.0,
            effective_term=eff,
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
    The node counts belong to the fine-grid root.  ``solves`` counts the
    tridiagonal eigensolves of the whole search that returned this state.
    """

    E: float
    P: float
    node_u: int
    node_v: int
    E_error: float
    solves: int


def _match_root(pencils, i: int, j: int, energy: float, lo: float, hi: float):
    """Root of F(E) = mu_u[i](E) + mu_v[j](E) by Newton steps from ``energy``.

    F is strictly decreasing, so every evaluation moves one end of the known
    bracket (lo, hi), which may start unbounded; a step that would leave it
    is replaced by bisection.  Newton stops once its step falls below the
    rounding floor eps (|T_u| + |T_v|) / |F'|, below which it would cycle;
    that last step is applied without a further solve.  Returns the root,
    P = mu_v[j] there (carried along the slope), the eigenvectors
    (chi_u, chi_v) of the last evaluation and the number of evaluations.
    """
    norm = sum(
        np.max(np.abs(d0 - 0.5 * energy * x)) + 2.0 * np.max(np.abs(e))
        for d0, e, x, _ in pencils
    )
    for evals in range(1, _MAX_NEWTON + 1):
        (mu_u, chi_u, s_u), (mu_v, chi_v, s_v) = (
            _shifted(p, energy, b, b) for p, b in zip(pencils, (i, j))
        )
        f = mu_u[0] + mu_v[0]
        slope = s_u[0] + s_v[0]
        if f > 0.0:
            lo = energy
        else:
            hi = energy
        step = -f / slope
        floor = _EPS * norm / abs(slope)
        if abs(step) <= floor or hi - lo <= floor:
            return energy + step, mu_v[0] + s_v[0] * step, (chi_u, chi_v), evals
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
    index being the node count.  E enters both equations only as -E w/2,
    so on a grid each is the linear pencil T(E) = T0 - (E/2) diag(w) of a
    right-definite two-parameter problem: every mu decreases strictly with
    E, F has at most one root per pair, and dF/dE comes exactly from the
    eigenvectors (Hellmann-Feynman).

    Both equations are assembled once, at E = 0, on a fine grid (2n+1
    nodes) and a coarse one (n nodes); an energy then costs one diagonal
    shift and one tridiagonal eigensolve per equation.  The branches are
    node counts 0, 1 and 2 of each equation.  The domain starts at
    w = 50 / sqrt(-2 E_hi) with node spacing 0.1 or finer, one x1.5 rung
    higher for sho factors (their two-node state has not decayed to e^-20
    on the lower rung), and is extended (times 1.5 at fixed spacing) until
    all three states have decayed to e^-20 at the least-bound end of the
    bracket; it is kept for every energy and both grids.

    Each pair whose endpoint mismatch changes sign is solved by
    bracket-safeguarded Newton on the fine grid, polished by Newton on the
    coarse grid from the fine root, and Richardson-extrapolated:
    E = (4 E_fine - E_coarse) / 3, likewise P.  The charge enters as the
    constant shift -Z_a of each pencil, so F(E_hi) + Z, with Z = Z1 + Z2,
    is the charge the pair binds at E_hi.  The fine Newton starts at the
    Sturmian seed E* = E_hi (Z / (F(E_hi) + Z))^2, which is the root up to
    discretization error when that charge grows as sqrt(-E) (sho factors)
    and only a first guess otherwise; it starts at the secant point of
    the bracket when Z <= 0, F(E_hi) + Z <= 0 or E* lies outside the
    bracket.  Of the roots found, the lowest E wins and degenerate pairs (within
    1e-8 relative) are broken by the smallest |P|.  Every state of that
    degenerate group must satisfy ``E_error <= _CONV_TOL * |E|`` or
    :class:`AccuracyError` is raised; a bracket without a sign change
    raises :class:`BracketError` carrying the endpoint mismatches.
    """
    e_lo, e_hi = bracket
    if not (e_lo < e_hi < 0.0):
        raise ValueError("bracket must satisfy E_lo < E_hi < 0")
    hi = 50.0 / math.sqrt(-2.0 * e_hi)
    # With sho factors the states at fixed E have one shape in kappa w
    # (kappa = sqrt(-2E)), and the two-node state still keeps more than
    # e^-20 of its peak at kappa w = 50 for every centrifugal strength, so
    # the search starts one rung up the x1.5 ladder of _contain, at the
    # node spacing that rung has there.
    rung = 1.5 if model.p1.variant == model.p2.variant == "sho" else 1.0
    n = int(max(grid.n, int(hi / 0.1)) * rung)
    hi *= rung
    problems = [
        build_radial_problem(kind, model=model, micz=micz, energy=0.0, wmax=hi)
        for kind in ("para_u", "para_v")
    ]
    fine, coarse, ((mu_u_hi, _, _), (mu_v_hi, _, _)), n, solves = _contain(
        problems, grid, n, _BRANCHES, energy=e_hi
    )
    (mu_u_lo, _, _), (mu_v_lo, _, _) = (_shifted(pencil, e_lo, 0, _BRANCHES - 1) for pencil in fine)
    solves += 2
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
        e_f, p_f, chis, evals_f = _match_root(fine, i, j, start, e_lo, e_hi)
        e_c, p_c, _, evals_c = _match_root(coarse, i, j, e_f, -math.inf, math.inf)
        solves += 2 * (evals_f + evals_c)
        node_u, node_v = (
            _count_nodes(chi[:, 0] / np.sqrt(mass)) for (_, _, _, mass), chi in zip(fine, chis)
        )
        states.append(
            JointState(
                E=float(4.0 * e_f - e_c) / 3.0,
                P=float(4.0 * p_f - p_c) / 3.0,
                node_u=node_u,
                node_v=node_v,
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
