"""Sturm-Liouville eigensolvers for the separated ODEs.

Every separated equation in this package has the self-adjoint form

    -(1/w(x)) d/dx ( w(x) dR/dx ) + q(x) R = mu m(x) R

with a power-law or sin^7 weight w and an optional positive eigenvalue
weight m (the parabolic equations carry m = 1/w with w the parabolic
coordinate).

Every equation is solved in a Galerkin basis that carries its regular
pole exponent and decay: x^s e^(-t/2) times Laguerre polynomials in t =
(x/beta)^p on a power weight, and z^sigma (1 - z)^tau times Jacobi
polynomials in z = sin^2(theta/2) on the sin^7 weight (Baye, Phys. Rep.
565 (2015) 1).  The Gauss rule of each basis comes from one symmetric
eigensolve of its Jacobi matrix (Golub & Welsch, Math. Comp. 23 (1969)
221), so the solvers need numpy alone.  Its nodes, the exact stiffness,
the inverse Cholesky factor of the mass and the whitened energy matrix
depend on the basis alone, up to a power of the basis scale, and are
cached per weight, basis size and mass power (64 entries at most), so a
solve assembles and whitens only its potential term.  The Ritz values fall
geometrically with the basis size, and a solve stops where they change by
no more than their rounding.  :func:`fd_eigensolve` solves the fixed
problems: the 8-D singular oscillator, the spherical-chart radial and
polar equations and the QES cross-checks.

The two parabolic equations are Coulomb Sturmian problems in w: the
energy enters each only as -E w/2 and the charge only as -Z_a/w, a shift
of the 1/w mass (Rotenberg, Ann. Phys. 19 (1962) 262).  Whitened by the
Cholesky factor of that mass, each is the linear pencil T(E) = W0 - (E/2)
WB of a right-definite two-parameter problem, W0 holding -Z_a times the
identity, so an energy costs one small symmetric eigensolve per equation;
the eigenvalues fall strictly with E and their slopes follow from the
eigenvectors (Hellmann-Feynman).  :func:`parabolic_joint_solve` reads
every joint level of a small basis from one eigensolve of the
Kronecker-sum pencil of the two equations (Atkinson, Multiparameter
Eigenvalue Problems, 1972; Hochstenbach & Plestenjak, SIAM J. Matrix
Anal. Appl. 24 (2002) 392), takes the lowest level in its energy window,
and refines only that level's degenerate group by safeguarded Newton
iteration, growing the basis, one Newton root per size, until the root
changes by no more than its rounding.

Solves share no mutable state; concurrent sector sweeps are safe.
"""

from __future__ import annotations

import contextlib
import functools
import math
import sys
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import AccuracyError, BracketError, check_keys
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

_EPS = float(np.finfo(float).eps)
# Largest error bar accepted, relative to max(1, |mu|) in fd_eigensolve and
# to |E| in the joint search.
_CONV_TOL = 1e-5
# Basis functions of the first Galerkin block of a solve, functions added
# between two of its Ritz tests, and Gauss nodes beyond the basis size.
_BLOCK = 32
_STEP = 4
_EXTRA = 4
# Largest basis of a solve for up to 128 states (4 k functions for more):
# the tables of 512 functions take about 15 MB and a second to build, and a
# Ritz value that has not settled by then meets a rounding floor that grows
# with the basis, while the bench's solves settle on 8 to 28 functions.
_MAX_BASIS = 512
# Share of its peak below which a Ritz function's sign is not counted: its
# tail, where the basis cannot follow the decay, keeps wiggles up to about
# 1e-7 of the peak.
_NODE_FLOOR = 1e-6
# Basis scale of a Coulomb radial problem times Z: its functions decay as
# exp(-Z r / 6), as a level of principal number 6 does, between the ground
# level (4) and the micz radial levels of the tests (up to about 10).
_COULOMB_SCALE = 3.0


def eigh_tridiagonal(d, e, first: int, last: int):
    """Eigenpairs ``first..last`` of T = tridiag(e, d, e), ascending, by ``scipy.linalg.eigh_tridiagonal``.

    No solver of this package calls it: it stays only because the
    benchmark's tracer (``bench/tracing.py``) binds it by name, until the
    bench refresh of ROADMAP item 1.  scipy is imported on the call, and a
    LAPACK failure is an :class:`AccuracyError`.
    """
    from scipy.linalg import LinAlgError
    from scipy.linalg import eigh_tridiagonal as solve

    try:
        return solve(d, e, select="i", select_range=(first, last))
    except LinAlgError as exc:
        raise AccuracyError(f"tridiagonal eigensolve failed: {exc}") from exc


@dataclass(frozen=True)
class Grid:
    """Largest basis size n of a solve, and a node placement that no solver reads.

    :func:`fd_eigensolve` and :func:`parabolic_joint_solve` read only n,
    which caps their basis; ``spacing`` and ``stretch`` are checked but
    play no part.
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
    ``effective_term`` is the remaining vectorized source, and the
    eigenvalue weight is x^``mass_power`` on a power weight (0, or -1 for
    the 1/w mass of the parabolic equations).  The raw
    eigenvalue mu is reported as ``eigenvalue_scale * mu`` (0.5 turns 2Z
    into Z and 2E into E).  The basis of :func:`_whitened` decays as
    exp(-(x / ``basis_scale``)^``basis_power`` / 2) on a power weight, and
    on the sin^7 weight its pole exponents come from ``pole_strengths``
    (alpha_u, alpha_v), the coefficients of 1/cos^2(theta/2) and
    1/sin^2(theta/2) in ``effective_term``.  A solve assembles only the
    potential term of its pencil: the whitening factor and the energy
    matrix are cached with the basis, per weight, basis size and mass
    power, and scaled by the power of ``basis_scale``.  The solvers leave
    the domain aside.
    """

    weight_exponent: int
    centrifugal_coeff: float
    effective_term: Callable
    domain: tuple
    weight_kind: str = "power"
    mass_power: int = 0
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
        if self.weight_kind == "sin7" and self.mass_power:
            raise ValueError("the sin7 weight takes no mass power")
        if not (0.0 < self.basis_scale < math.inf and self.basis_power in (1, 2)):
            raise ValueError("basis_scale must be positive and finite and basis_power 1 or 2")


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


def _count_nodes(vec: np.ndarray) -> int:
    """Sign changes of ``vec`` among its entries above ``_NODE_FLOOR`` times its largest."""
    mag = np.abs(vec)
    negative = np.signbit(vec[mag > _NODE_FLOOR * mag.max()])
    return int(np.count_nonzero(negative[1:] != negative[:-1]))


def _gate_error(state, nodes: int, bar: float) -> AccuracyError:
    """The error a solve raises when the bar of ``state`` on ``nodes`` basis functions exceeds ``_CONV_TOL``."""
    return AccuracyError(
        f"basis growth did not converge: state {state} has error bar {bar:.3g} "
        f"with {nodes} basis functions (tol = {_CONV_TOL:.1g} relative)",
        state=state,
        nodes=nodes,
        bar=float(bar),
        tol=_CONV_TOL,
    )


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
    return x, values, form.T @ form, fine


@functools.lru_cache(maxsize=64)
def _whitening(a: float, b, size: int, p: int, j: int):
    """The potential-free part of every pencil on the basis of :func:`_basis`, whitened.

    On the Laguerre weight (``b`` None) a problem with basis scale beta,
    power p and mass x^j has its nodes at x = beta t^(1/p), its mass sum_i
    x_i^(2 + j) values values^T = beta^(2 + j) B0 and its energy matrix
    sum_i x_i^2 values values^T = beta^2 C0, with B0 and C0 the same sums
    at beta = 1; on the Jacobi weight both are sum_i z_i (1 - z_i) values
    values^T, and the sin^7 problems pass p = 1 and j = 0.  With L0 the
    Cholesky factor of B0, returns the nodes at beta = 1 (t^(1/p), or theta
    = arccos(-x)), the moment that weights each potential value there
    (t^(2/p), or z (1 - z)), the whitened values L0^-1 values, the whitened
    stiffness p^2 L0^-1 S L0^-T, L0^-1, the whitened energy matrix L0^-1 C0
    L0^-T and the fine sample.  L0^-1 is lower triangular, so the leading
    blocks of every table are the tables of a smaller basis.  The tables
    are read-only.
    """
    x, values, stiffness, fine = _basis(a, b, size)
    if b is None:
        nodes, moment, mass = x ** (1.0 / p), x ** (2.0 / p), x ** ((2.0 + j) / p)
        stiffness = p * p * stiffness
    else:
        nodes, moment = np.arccos(-x), 0.25 * (1.0 - x * x)
        mass = moment
    inverse = np.tril(np.linalg.inv(np.linalg.cholesky((values * mass) @ values.T)))
    values = inverse @ values
    tables = (
        nodes,
        moment,
        values,
        inverse @ stiffness @ inverse.T,
        inverse,
        (values * moment) @ values.T,
        fine,
    )
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

    Returns L^-1 A L^-T, L^-1 (L the Cholesky factor of the mass B), the
    rounding of the whitened matrix, eps times its Frobenius norm, which
    bounds the error of the assembly and of a symmetric eigensolve of any
    leading block, the fine sample of :func:`_basis` and the whitened
    energy matrix L^-1 C L^-T.

    A power weight x^k with centrifugal coefficient C takes R_n = x^s
    e^(-t/2) p_n(t), t = (x / beta)^p, s (s + k - 1) = C and p_n orthonormal
    for t^a e^-t, a = (2 s + k - 1) / p - 1: after dividing out beta^(k +
    2 s - 1) / p, A = p^2 (stiffness of :func:`_basis`) + sum_i x_i^2
    q(x_i) values values^T and C = sum_i x_i^2 values values^T, the
    integral of x^k R_m R_n, on the nodes x_i = beta t_i^(1/p); B is
    sum_i x_i^(2 + j) values values^T for the mass x^j of ``mass_power``
    j (0, or -1 for the 1/w mass of the parabolic equations).  The
    centrifugal term is inside the stiffness, because s is exact.  The
    sin^7 weight takes Theta_n = z^sigma (1 - z)^tau p_n(2 z - 1), z =
    sin^2(theta/2), sigma (sigma + 3) = alpha_v and tau (tau + 3) =
    alpha_u, with p_n orthonormal for (1 - x)^(2 tau + 2) (1 + x)^(2 sigma
    + 2): A = stiffness + sum_i z_i (1 - z_i) q(theta_i) values values^T and
    B = C = sum_i z_i (1 - z_i) values values^T, theta_i = arccos(-x_i).
    Each entry is exact whenever x^2 q, or z (1 - z) q, and x^(2 + j) are
    polynomials of degree up to 2 ``_EXTRA`` + 1.

    Everything but the potential is cached with the basis
    (:func:`_whitening`): L^-1 is beta^(-1 - j/2) L0^-1, the whitened
    stiffness and energy matrix scale as beta^(-2 - j) and beta^-j, and a
    solve assembles only its potential term, sum_i beta^-j x_i^2 q(x_i)
    (L0^-1 values) (L0^-1 values)^T, with no Cholesky factor or inverse of
    its own.
    """
    j = problem.mass_power
    if problem.weight_kind == "sin7":
        alpha_u, alpha_v = problem.pole_strengths
        tau, sigma = _pole_exponent(3.0, alpha_u), _pole_exponent(3.0, alpha_v)
        key, beta = (2.0 * tau + 2.0, 2.0 * sigma + 2.0, size, 1, j), 1.0
    else:
        k, p, beta = problem.weight_exponent, problem.basis_power, problem.basis_scale
        s = _pole_exponent(k - 1.0, problem.centrifugal_coeff)
        key = ((2.0 * s + k - 1.0) / p - 1.0, None, size, p, j)
    nodes, moment, values, stiffness, inverse, energy, fine = _whitening(*key)
    scale = beta**-j
    source = scale * moment * problem.effective_term(beta * nodes)
    whitened = scale / (beta * beta) * stiffness + (values * source) @ values.T
    rounding = _EPS * np.linalg.norm(whitened)
    return whitened, math.sqrt(scale) / beta * inverse, rounding, fine, scale * energy


def _block(problems, n: int, cap: int, block=None):
    """Whitened pencils of ``problems`` on at least ``n`` basis functions.

    ``block`` (the pencils returned last) is kept while it holds n
    functions; otherwise the pencils are assembled on the smaller of
    ``cap`` and max(twice its size, ``_BLOCK``, n) functions.  The basis is
    nested, so every basis size up to the block's takes a leading block.
    """
    size = 0 if block is None else len(block[0][0])
    if n <= size:
        return block
    return [_whitened(p, min(max(2 * size, _BLOCK, n), cap)) for p in problems]


def _node_counts(pencil, n: int, vectors) -> list:
    """Sign changes of the Ritz functions of ``vectors`` (columns on n functions) on the fine sample."""
    _, inverse, _, fine, _ = pencil
    return [_count_nodes(f) for f in (fine[:n].T @ (inverse[:n, :n].T @ vectors)).T]


@contextlib.contextmanager
def _lapack_failure():
    """Raise numpy's ``LinAlgError`` (a ``ValueError``) of a solve as an :class:`AccuracyError`."""
    try:
        yield
    except np.linalg.LinAlgError as exc:
        raise AccuracyError(f"eigensolve failed: {exc}") from exc


def fd_eigensolve(problem: RadialProblem, grid: Grid, k: int) -> Spectrum:
    """Lowest ``k`` eigenpairs of ``problem`` in a Galerkin basis of at most ``grid.n`` functions.

    The basis carries the problem's pole exponents and decay (see
    :func:`_whitened`), so its Ritz values fall geometrically with the
    basis size N, and every closed-form eigenfunction of the sin^7
    equation lies in its span.  The pencil is assembled and whitened once
    on a block of ``_BLOCK`` functions, and its rounding measured; each N
    takes the leading N x N block (see :func:`_block`).  N grows from k by
    ``_STEP`` until the change of every wanted Ritz value from the last N
    is at most that rounding, or N reaches its cap, the smaller of
    ``grid.n`` and max(``_MAX_BASIS``, 4 k).  The values are the Ritz
    values at the last N, each with the bar |change| + rounding, and a bar
    above ``_CONV_TOL * max(1, |value|)`` raises :class:`AccuracyError`, as
    does a LAPACK failure.  The node counts are the sign changes of each
    Ritz function on the fine sample of :func:`_basis`, where it keeps
    more than ``_NODE_FLOOR`` of its peak.  The grid's spacing and stretch
    and the problem's domain play no part.
    """
    if k < 1:
        raise ValueError("need at least one eigenvalue")
    if k > grid.n // 4:
        raise ValueError(f"k = {k} exceeds n/4 = {grid.n // 4}")
    block, values, cap = None, None, min(grid.n, max(_MAX_BASIS, 4 * k))
    n = -(-k // _STEP) * _STEP
    with _lapack_failure():
        while True:
            n = min(n, cap)
            block = _block([problem], n, cap, block)
            ((whitened, _, rounding, _, _),) = block
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
        raise _gate_error(worst, n, conv[worst] * scale)
    return Spectrum(
        eigenvalues=values * scale,
        convergence=conv * scale,
        node_counts=tuple(_node_counts(block[0], n, vectors[:, :k])),
    )


# ---------------------------------------------------------------------------
# Problem builders


def build_radial_problem(kind: str, **params) -> RadialProblem:
    """Assemble a :class:`RadialProblem` for one separated equation.

    kind = 'osc8'   : 8-D radial oscillator; needs potential, optional L
                      (a nonnegative integer, default 0) and rmax.
                      Eigenvalue Z (weight r^7, raw eigenvalue 2Z).
    kind = 'coul9'  : spherical-chart radial equation; needs Z and lam (the
                      angular eigenvalue), optional rmax.  Eigenvalue E
                      (weight r^8, raw 2E).
    kind = 'theta'  : polar equation; needs micz.  Eigenvalue Lambda.
    kind = 'para_u' : parabolic u-equation; needs model, micz, energy.
                      Eigenvalue -P, with the 1/w mass; its basis scale
                      is 1 until the joint search sets it.
    kind = 'para_v' : parabolic v-equation, eigenvalue +P.

    ``rmax`` only sets the problem's domain (0, rmax), which no solver
    reads; it defaults to the half-line the basis spans.  Any other
    keyword is a :class:`ConfigError`.
    """
    kind = kind.lower()
    if kind == "osc8":
        check_keys(params, {"potential", "L", "rmax"}, what="osc8 problem")
        potential: Potential8D = params["potential"]
        L = params.get("L", 0)
        if not (L >= 0 and float(L).is_integer()):
            raise ValueError(f"osc8 needs a nonnegative integer L, got {L!r}")
        rmax = params.get("rmax", math.inf)
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
        check_keys(params, {"Z", "lam", "rmax"}, what="coul9 problem")
        Z = float(params["Z"])
        lam = float(params["lam"])
        rmax = float(params.get("rmax", math.inf))
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
        check_keys(params, {"micz"}, what="theta problem")
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
        check_keys(params, {"model", "micz", "energy"}, what=f"{kind} problem")
        model: OscillatorModel = params["model"]
        micz: MiczParams = params["micz"]
        energy = float(params["energy"])
        alpha_u, alpha_v = micz_centrifugal_strengths(micz)
        if kind == "para_u":
            alpha, p, Za = alpha_u, model.p1, model.Z1
        else:
            alpha, p, Za = alpha_v, model.p2, model.Z2
        return RadialProblem(
            weight_exponent=4,
            centrifugal_coeff=alpha,
            effective_term=lambda w: (factor_potential(p, energy, 0.5 * w) - Za) / w,
            domain=(0.0, math.inf),
            mass_power=-1,
            basis_power=1,
        )
    raise ValueError(f"unknown problem kind {kind!r}")


def qes_verification_problem(potential: Potential8D, dim: int, rmax: float = math.inf) -> RadialProblem:
    """Radial problem matching the QES reduced operator -f'' - (dim/r)f' + V f.

    The c/r^2 part of V is the centrifugal term, so that the basis carries
    the exact pole exponent; ``rmax`` only sets the domain, as in
    :func:`build_radial_problem`.  ``dim`` must be a nonnegative integer,
    as ``L`` there.
    """
    if not (dim >= 0 and float(dim).is_integer()):
        raise ValueError(f"the QES problem needs a nonnegative integer dim, got {dim!r}")
    return RadialProblem(
        weight_exponent=int(dim),
        centrifugal_coeff=potential.c,
        effective_term=lambda r: factor_potential(potential, -0.5 * potential.omega**2, r * r),
        domain=(0.0, rmax),
        **_oscillator_basis(potential),
    )


def _oscillator_basis(potential: Potential8D) -> dict:
    """Basis scale and power of an oscillator-family radial problem, from its length 1/sqrt(omega).

    sho and super2 take t = (r / beta)^2, in which r^2 V is a polynomial:
    beta is the length for sho, whose states it holds exactly, and 0.7 of
    it for super2, whose r^4 and r^6 terms confine the states (the QES
    super2 blocks of the tests and the bench settle on 24-36 functions
    within 1.7e-15 of their closed forms at 0.7, on 20-40 within 2.3e-13 at
    the length).  sub2 has odd powers of r, so it takes t = r / beta; its
    states still decay as Gaussians, within about ten lengths, and the
    Laguerre nodes of a few dozen functions reach t of about 100, so beta
    is a tenth of the length (on the QES sub2 blocks of the tests 20-28
    functions reach 3e-13 at a tenth, 60-68 at half).
    """
    length = 1.0 / math.sqrt(potential.omega)
    if potential.variant == "sub2":
        return {"basis_scale": 0.1 * length, "basis_power": 1}
    if potential.variant == "super2":
        return {"basis_scale": 0.7 * length, "basis_power": 2}
    return {"basis_scale": length, "basis_power": 2}


# ---------------------------------------------------------------------------
# Parabolic joint eigenvalue search


# Newton steps allowed per root; bisection alone would need about 60.
_MAX_NEWTON = 100
# Basis functions per equation of the first level enumeration, and the most
# it grows to: a window whose lowest level has not settled by then holds no
# resolved level.
_LEVEL_BASIS = 6
_MAX_LEVEL_BASIS = 18
# Largest move of a resolved level one rung up, relative to the level, and
# the width of the degenerate group refined with it.
_LEVEL_TOL = 1e-5
# Smallest basis size of the first Newton root of the refinement ladder.
_FIRST_BASIS = 12


@dataclass(frozen=True)
class JointState:
    """A matched parabolic eigenstate: energy, separation constant, nodes.

    ``E`` and ``P`` are the matching root and the shared separation
    constant on the last basis size of the joint search, and ``E_error``
    bounds the error of E: the root's change from the basis size before
    plus its rounding (see :func:`parabolic_joint_solve`).  ``node_u`` and
    ``node_v`` are the pair's branch indices (i, j): the node counts of its
    two states, which the sign changes of the last Ritz functions certify.
    ``solves`` counts the eigensolves of the whole search that returned
    this state, the level enumeration's Kronecker-sum solves included.
    """

    E: float
    P: float
    node_u: int
    node_v: int
    E_error: float
    solves: int


def _shifted(pencil, n: int, energy: float, branches):
    """Eigenpairs ``branches`` of T(E) = W0 - (E/2) WB on the leading n x n block, dmu/dE and the rounding.

    ``pencil`` is a whitened pencil of :func:`_whitened`, W0 its matrix and
    WB its energy matrix; ``branches`` is an index or a slice.  The slope
    is the Hellmann-Feynman derivative -1/2 v^T WB v of each unit
    eigenvector v, and the rounding of the eigenvalues is eps |T(E)|
    (Frobenius norm).
    """
    w0, wb = pencil[0][:n, :n], pencil[4][:n, :n]
    matrix = w0 - 0.5 * energy * wb
    mu, vectors = np.linalg.eigh(matrix)
    vectors = vectors[:, branches]
    slope = -0.5 * np.einsum("k...,kl,l...->...", vectors, wb, vectors)
    return mu[branches], vectors, slope, _EPS * np.linalg.norm(matrix)


def _joint_levels(pencils, n: int) -> np.ndarray:
    """Every joint level E of the two pencils on their leading n x n blocks, ascending.

    (W0_u x I + I x W0_v) z = E (WB_u x I + I x WB_v) z / 2, Atkinson's
    Kronecker-sum form of a right-definite two-parameter problem, holds
    exactly when mu_u[i](E) + mu_v[j](E) = 0 for some branch pair (i, j),
    z being the product of the two eigenvectors.  In the eigenbases of WB_u
    and WB_v its right-hand matrix is diagonal and positive, so one
    symmetric eigensolve of order n^2 gives every level.
    """
    (d_u, q_u), (d_v, q_v) = (np.linalg.eigh(p[4][:n, :n]) for p in pencils)
    a_u, a_v = (q.T @ p[0][:n, :n] @ q for p, q in zip(pencils, (q_u, q_v)))
    eye = np.eye(n)
    scale = (0.5 * (d_u[:, None] + d_v)).ravel() ** -0.5
    return np.linalg.eigvalsh((np.kron(a_u, eye) + np.kron(eye, a_v)) * np.outer(scale, scale))


def _match_root(pencils, n: int, i: int, j: int, energy: float):
    """Root of F(E) = mu_u[i](E) + mu_v[j](E) on n basis functions, by Newton steps from ``energy``.

    F is strictly decreasing, so every evaluation moves one end of the
    bracket it has found, which starts unbounded; a step that would leave
    it is replaced by bisection.  The root is defined to its rounding floor,
    the rounding of the two eigenvalues over |F'|, below which Newton would
    cycle.  A step below that floor, or below a tenth of sqrt(floor |E|),
    after which Newton's quadratic convergence leaves about a hundredth of
    the floor, is applied without a further evaluation.  Returns the root,
    P = mu_v[j] there (carried along its slope), the floor, the number of
    evaluations and the unit eigenvectors of the two branches at the last
    one.
    """
    lo, hi = -math.inf, math.inf
    for evals in range(1, _MAX_NEWTON + 1):
        (mu_u, v_u, s_u, r_u), (mu_v, v_v, s_v, r_v) = (
            _shifted(p, n, energy, b) for p, b in zip(pencils, (i, j))
        )
        f, slope = mu_u + mu_v, s_u + s_v
        if f > 0.0:
            lo = energy
        else:
            hi = energy
        step = -f / slope
        floor = (r_u + r_v) / abs(slope)
        if abs(step) <= max(floor, 0.1 * math.sqrt(floor * abs(energy))) or hi - lo <= floor:
            return energy + step, mu_v + s_v * step, floor, evals, (v_u, v_v)
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
    """The lowest level in the energy window ``bracket`` where the u- and v-equations share a P.

    For fixed E, the u-equation eigenvalues are -P-candidates and the
    v-equation eigenvalues are +P-candidates; a physical state needs a
    branch pair (i, j) with F(E) = mu_u[i](E) + mu_v[j](E) = 0, the branch
    index being the node count.  E enters both equations only as -E w/2
    and the charge only as -Z_a / w, a shift of the 1/w mass, so in the
    Laguerre basis of :func:`_whitened` (t = w / beta, the pole exponent
    s (s + 3) = alpha of :func:`micz_centrifugal_strengths`, beta =
    1 / sqrt(-2 E_hi), the decay length of a Coulomb state at E_hi),
    whitened by that mass, each equation is the linear pencil T(E) = W0 -
    (E/2) WB of a right-definite two-parameter problem, W0 holding -Z_a
    times the identity: every mu decreases strictly with E, F has at most
    one root per pair, and dF/dE comes exactly from the eigenvectors
    (Hellmann-Feynman).  An energy costs one symmetric eigensolve of the
    leading N x N block per equation (:func:`_shifted`).

    One eigensolve of the Kronecker-sum pencil on n = ``_LEVEL_BASIS``
    functions per equation (:func:`_joint_levels`) gives every level the
    basis holds.  The lowest above E_lo is E*, and its degenerate group is
    the pairs whose Newton step -F/F' from E* on that basis is within
    ``_LEVEL_TOL`` of E*; only they are refined.  Each pair's ladder starts
    from E*: one Newton root per basis size (:func:`_match_root`), the
    first on max(``_FIRST_BASIS``, n + ``_STEP``) functions.  If a first
    root moves by more than ``_LEVEL_TOL`` from E*, the level is not
    resolved and n grows by ``_STEP``; a window with no resolved level by
    n = ``_MAX_LEVEL_BASIS``, or whose lowest resolved level above E_lo
    lies at or above E_hi, raises :class:`BracketError`.  Each ladder then
    grows by ``_STEP`` until the root changes by no more than its rounding
    floor or N reaches the smaller of ``grid.n`` and ``_MAX_BASIS``.  E is
    the last root, E_error its change plus its floor, P the shared
    eigenvalue there, and the node counts of both Ritz functions on the
    fine sample of :func:`_basis` must be the pair's branch indices, or
    :class:`AccuracyError` is raised.  Of the group, the lowest E wins and
    degenerate pairs (within 1e-8 relative) are broken by the smallest
    |P|, then by the first pair.  Every state of that degenerate group must
    satisfy ``E_error <= _CONV_TOL * |E|`` or :class:`AccuracyError` is
    raised, as it is for a LAPACK failure.
    """
    e_lo, e_hi = bracket
    if not (e_lo < e_hi < 0.0):
        raise ValueError("bracket must satisfy E_lo < E_hi < 0")
    beta = 1.0 / math.sqrt(-2.0 * e_hi)
    problems = [
        replace(build_radial_problem(kind, model=model, micz=micz, energy=0.0), basis_scale=beta)
        for kind in ("para_u", "para_v")
    ]
    cap = min(grid.n, _MAX_BASIS)
    with _lapack_failure():
        block = _block(problems, _FIRST_BASIS, cap)
        solves, resolved = 0, False
        for n in range(_LEVEL_BASIS, min(_MAX_LEVEL_BASIS, cap - _STEP) + 1, _STEP):
            levels = _joint_levels(block, n)
            first = max(_FIRST_BASIS, n + _STEP)
            k = int(np.searchsorted(levels, e_lo, side="right"))
            solves += 1
            if k == len(levels):
                continue
            e_star, tol = levels[k], _LEVEL_TOL * abs(levels[k])
            (mu_u, _, s_u, _), (mu_v, _, s_v, _) = (
                _shifted(pencil, n, e_star, slice(None)) for pencil in block
            )
            steps = np.abs((mu_u[:, None] + mu_v) / (s_u[:, None] + s_v))
            pairs = [divmod(int(f), n) for f in np.flatnonzero(steps <= tol)]  # in (i, j) order
            roots = [_match_root(block, first, i, j, e_star) for i, j in pairs]
            solves += 2 + 2 * sum(root[3] for root in roots)
            resolved = all(abs(root[0] - e_star) <= tol for root in roots)
            if resolved:
                break
        if not resolved or min(root[0] for root in roots) >= e_hi:
            raise BracketError(f"the window ({e_lo:.10g}, {e_hi:.10g}) holds no resolved level")
        states, sizes = [], {}
        for (i, j), (energy, *_) in zip(pairs, roots):
            n = first
            while True:
                below, n = energy, min(n + _STEP, cap)
                block = _block(problems, n, cap, block)
                energy, p, floor, evals, vectors = _match_root(block, n, i, j, below)
                solves += 2 * evals
                if abs(energy - below) <= floor or n == cap:
                    break
            counts = [_node_counts(pencil, n, v[:, None])[0] for pencil, v in zip(block, vectors)]
            if counts != [i, j]:
                raise AccuracyError(
                    f"the Ritz functions of branch pair ({i}, {j}) on {n} basis functions "
                    f"have {counts[0]} and {counts[1]} sign changes"
                )
            sizes[i, j] = n
            states.append(
                JointState(
                    E=float(energy),
                    P=float(p),
                    node_u=i,
                    node_v=j,
                    E_error=float(abs(energy - below) + floor),
                    solves=0,
                )
            )
    best_e = min(s.E for s in states)
    group = [s for s in states if abs(s.E - best_e) <= 1e-8 * abs(best_e)]
    for s in group:
        if s.E_error > _CONV_TOL * abs(s.E):
            raise _gate_error((s.node_u, s.node_v), sizes[s.node_u, s.node_v], s.E_error)
    return replace(min(group, key=lambda s: abs(s.P)), solves=solves)


def spherical_micz_energies(
    micz: MiczParams,
    n_theta: int,
    n_radial: int,
    grid_theta: Grid,
    grid_radial: Grid,
    rmax: float = math.inf,
) -> list:
    """Spherical-chart energies: polar eigenvalues then radial solves.

    ``rmax`` is the radial problems' domain, which no solver reads.
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
