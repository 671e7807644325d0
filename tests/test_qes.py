import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import Polynomial

from hurwitz_kepler import analytic
from hurwitz_kepler.analytic import (
    QesPrimedParams,
    qes_map_sub2,
    qes_map_super2,
    qes_solve,
    qes_wavefunction,
)
from hurwitz_kepler.errors import QesClosureError, QesPreconditionError
from hurwitz_kepler.numeric import Grid, fd_eigensolve, qes_verification_problem
from hurwitz_kepler.potentials import Potential8D


class TestSub2Map:
    def test_pure_harmonic_limit(self):
        pot, _ = qes_map_sub2(QesPrimedParams(a_p=0.0, b_p=1.0, c_p=0.0, N=1, dim=8))
        assert pot.omega == pytest.approx(math.sqrt(2.0))
        assert pot.a == pot.b == pot.c == 0.0

    def test_direct_substitution(self):
        pot, _ = qes_map_sub2(QesPrimedParams(a_p=1.0, b_p=1.0, c_p=0.0, N=1, dim=8))
        assert (pot.a, pot.b, pot.c) == (2.0, -8.0, 0.0)
        assert pot.omega == pytest.approx(math.sqrt(2.0))

    def test_direct_substitution_with_cprime(self):
        pot, _ = qes_map_sub2(QesPrimedParams(a_p=1.0, b_p=2.0, c_p=1.0, N=1, dim=8))
        assert pot.omega**2 == pytest.approx(8.0)
        assert (pot.a, pot.b, pot.c) == (4.0, -6.0, -6.0)

    def test_precondition(self):
        with pytest.raises(QesPreconditionError):
            qes_map_sub2(QesPrimedParams(a_p=1.0, b_p=0.0, N=1))

    def test_energy_offset(self):
        _, d = qes_map_sub2(QesPrimedParams(a_p=1.0, b_p=1.0, c_p=0.0, N=2, dim=8))
        assert d == pytest.approx(1.0 - (4 + 8 - 1))


class TestSuper2Map:
    def test_near_harmonic(self):
        pot = qes_map_super2(QesPrimedParams(a_p=0.01, b_p=1.0, c_p=0.0, N=1, dim=8))
        assert pot.omega**2 == pytest.approx(2.0 * (1.0 - 0.11))
        assert pot.a == pytest.approx(1e-4)
        assert pot.b == pytest.approx(0.02)

    def test_nonpositive_frequency_rejected(self):
        with pytest.raises(QesPreconditionError):
            qes_map_super2(QesPrimedParams(a_p=0.1, b_p=1.0, c_p=0.0, N=2, dim=8))

    def test_a_prime_positive_required(self):
        with pytest.raises(QesPreconditionError):
            qes_map_super2(QesPrimedParams(a_p=0.0, b_p=1.0, N=1))


def _fd_levels(potential, dim, k, rmax, n=3000):
    prob = qes_verification_problem(potential, dim, rmax)
    return fd_eigensolve(prob, Grid(n=n), k).eigenvalues


def _stencil_residual(sol, i, dim, potential, energy, rs):
    """Independent residual oracle: 5-point stencils for f'' and f'."""
    h = 1e-3
    f = lambda r: qes_wavefunction(sol, i, r)
    worst = 0.0
    for r in rs:
        fm2, fm1, f0, fp1, fp2 = (f(r + j * h) for j in (-2, -1, 0, 1, 2))
        d2 = (-fp2 + 16 * fp1 - 30 * f0 + 16 * fm1 - fm2) / (12 * h * h)
        d1 = (-fp2 + 8 * fp1 - 8 * fm1 + fm2) / (12 * h)
        rho = float(r)
        v = (
            0.5 * potential.omega**2 * rho**2
            + (potential.c / rho**2 if potential.c else 0.0)
            + (potential.a * rho + potential.b / rho if potential.variant == "sub2" else 0.0)
            + (potential.b * rho**4 + potential.a * rho**6 if potential.variant == "super2" else 0.0)
        )
        lhs = -d2 - dim / rho * d1 + v * f0
        worst = max(worst, abs(lhs - energy * f0) / (abs(energy * f0) + 1e-30))
    return worst


class TestSuper2Solve:
    def test_n1_single_state(self):
        p = QesPrimedParams(a_p=0.05, b_p=1.0, c_p=0.0, N=1, dim=8)
        sol = qes_solve(p, "super2")
        assert len(sol.energies) == 1
        # closed form: b'(Dim + 1 - 2c')
        assert sol.energies[0] == pytest.approx(9.0, rel=1e-12)
        pot = qes_map_super2(p)
        levels = _fd_levels(pot, 8, 3, rmax=9.0)
        assert abs(levels[0] - sol.energies[0]) / sol.energies[0] <= 1e-8
        # node-free: constant polynomial
        assert len(sol.polynomials[0]) == 1

    def test_n2_both_states_in_fd_spectrum(self):
        p = QesPrimedParams(a_p=0.05, b_p=1.0, c_p=0.0, N=2, dim=8)
        sol = qes_solve(p, "super2")
        pot = qes_map_super2(p)
        levels = _fd_levels(pot, 8, 5, rmax=9.0)
        for e in sol.energies:
            assert np.min(np.abs(levels - e)) / abs(e) <= 1e-5

    def test_residual_property(self):
        p = QesPrimedParams(a_p=0.05, b_p=1.0, c_p=0.0, N=3, dim=8)
        sol = qes_solve(p, "super2")
        pot = qes_map_super2(p)
        rs = np.linspace(0.3, 4.0, 100)
        for i, e in enumerate(sol.energies):
            assert _stencil_residual(sol, i, 8, pot, e, rs) <= 1e-8

    def test_closure_error_on_inconsistent_potential(self, monkeypatch):
        p = QesPrimedParams(a_p=0.05, b_p=1.0, c_p=0.0, N=2, dim=8)
        pot = qes_map_super2(p)
        bad = Potential8D("super2", omega=2.0 * pot.omega, a=pot.a, b=pot.b, c=pot.c)
        monkeypatch.setattr(analytic, "qes_map_super2", lambda _: bad)
        with pytest.raises(QesClosureError):
            qes_solve(p, "super2")

    def test_polynomial_invariants(self):
        p = QesPrimedParams(a_p=0.03, b_p=1.0, c_p=0.0, N=3, dim=8)
        sol = qes_solve(p, "super2")
        for coeffs in sol.polynomials:
            assert len(coeffs) <= 3
            assert coeffs[-1] != 0.0


class TestSub2Solve:
    def test_n1_reproduces_table_charge(self):
        p = QesPrimedParams(a_p=1.0, b_p=1.0, c_p=0.0, N=1, dim=8)
        pot, d = qes_map_sub2(p)
        sol = qes_solve(p, "sub2")
        assert sol.charges[0] == pytest.approx(pot.b, rel=1e-12)  # = -a'(D - 2c')
        assert sol.energies[0] == pytest.approx(-d, rel=1e-12)
        levels = _fd_levels(pot, 8, 3, rmax=12.0)
        assert abs(levels[0] - sol.energies[0]) / sol.energies[0] <= 1e-8

    def test_n2_charges_and_common_energy(self):
        p = QesPrimedParams(a_p=1.0, b_p=1.0, c_p=0.0, N=2, dim=8)
        _, d = qes_map_sub2(p)
        sol = qes_solve(p, "sub2")
        expect = sorted([-(9.0 + math.sqrt(17.0)), -(9.0 - math.sqrt(17.0))])
        assert np.allclose(sorted(sol.charges), expect, rtol=1e-12)
        assert all(e == pytest.approx(-d, rel=1e-12) for e in sol.energies)

    def test_n2_states_in_fd_spectra(self):
        p = QesPrimedParams(a_p=1.0, b_p=1.0, c_p=0.0, N=2, dim=8)
        pot, d = qes_map_sub2(p)
        sol = qes_solve(p, "sub2")
        for b_i in sol.charges:
            pot_i = Potential8D("sub2", omega=pot.omega, a=pot.a, b=float(b_i), c=pot.c)
            levels = _fd_levels(pot_i, 8, 4, rmax=12.0)
            assert np.min(np.abs(levels - (-d))) / abs(d) <= 1e-5

    def test_reduces_to_singular_oscillator_when_aprime_zero(self):
        # a' = 0 kills the linear and Coulomb terms; admissible charge 0
        # appears for odd N and the state is the frame-matched singular
        # oscillator level b'(4M + Dim + 1 - 2c') with M = (N-1)/2.
        for N, M in ((1, 0), (3, 1)):
            p = QesPrimedParams(a_p=0.0, b_p=1.0, c_p=0.0, N=N, dim=8)
            sol = qes_solve(p, "sub2")
            idx = int(np.argmin(np.abs(np.asarray(sol.charges))))
            assert sol.charges[idx] == pytest.approx(0.0, abs=1e-12)
            assert sol.energies[idx] == pytest.approx(1.0 * (4 * M + 9), rel=1e-12)
            pot, _ = qes_map_sub2(p)
            levels = _fd_levels(pot, 8, 2 * M + 2, rmax=10.0)
            assert np.min(np.abs(levels - sol.energies[idx])) <= 1e-6 * sol.energies[idx]

    def test_residual_property(self):
        p = QesPrimedParams(a_p=1.0, b_p=1.0, c_p=0.0, N=2, dim=8)
        pot, d = qes_map_sub2(p)
        sol = qes_solve(p, "sub2")
        rs = np.linspace(0.3, 4.0, 100)
        for i, b_i in enumerate(sol.charges):
            pot_i = Potential8D("sub2", omega=pot.omega, a=pot.a, b=float(b_i), c=pot.c)
            assert _stencil_residual(sol, i, 8, pot_i, sol.energies[i], rs) <= 1e-8

    def test_nonzero_cprime_state_is_certified(self):
        # no FD cross-check here (the reduced function diverges at the
        # origin for c' > 0); the stencil residual is the oracle
        p = QesPrimedParams(a_p=1.0, b_p=2.0, c_p=1.0, N=1, dim=8)
        pot, d = qes_map_sub2(p)
        sol = qes_solve(p, "sub2")
        assert sol.power == pytest.approx(-1.0, rel=1e-12)
        rs = np.linspace(0.5, 3.0, 50)
        pot_i = Potential8D("sub2", omega=pot.omega, a=pot.a, b=float(sol.charges[0]), c=pot.c)
        assert _stencil_residual(sol, 0, 8, pot_i, sol.energies[0], rs) <= 1e-8


def test_unknown_family():
    with pytest.raises(ValueError):
        qes_solve(QesPrimedParams(a_p=1.0, b_p=1.0, N=1), "cubic")


@pytest.mark.parametrize(
    "family, p",
    [
        ("super2", QesPrimedParams(a_p=0.05, b_p=1.0, c_p=4.0, N=2, dim=8)),
        ("sub2", QesPrimedParams(a_p=1.0, b_p=1.0, c_p=4.0, N=2, dim=8)),
    ],
)
def test_cprime_above_half_dim_does_not_close(family, p):
    # the upper root of m(m + Dim - 1) = c'(c' - Dim + 1) is c' - Dim + 1,
    # not -c', so the tables' E = -d (sub2) and omega^2 (super2) miss it
    with pytest.raises(QesClosureError):
        qes_solve(p, family)


@pytest.mark.parametrize("family, a_p", [("super2", 0.05), ("sub2", 1.0)])
def test_integer_valued_float_sizes_solve_as_ints(family, a_p):
    as_float = qes_solve(QesPrimedParams(a_p=a_p, b_p=1.0, N=2.0, dim=8.0), family)
    assert as_float == qes_solve(QesPrimedParams(a_p=a_p, b_p=1.0, N=2, dim=8), family)


@pytest.mark.parametrize("key", ["N", "dim"])
@pytest.mark.parametrize("value", [math.inf, math.nan, 2.5, 0])
def test_non_integral_or_nonpositive_size_rejected(key, value):
    with pytest.raises(ValueError):
        QesPrimedParams(a_p=1.0, b_p=1.0, **{key: value})


# ---------------------------------------------------------------------------
# Independent oracle: the full reduced operator on each returned state


def _operator_terms(y, r, m, dim, phi, potential_terms, energy):
    """The terms of H(y G)/G - E y, G = r^m exp(-phi), one array each.

    H f = -f'' - (dim/r) f' + V f with G'/G = m/r - phi' and
    G''/G = (G'/G)^2 - m/r^2 - phi'' expanded term by term.
    """
    d1, d2 = phi.deriv(1)(r), phi.deriv(2)(r)
    y0, y1, y2 = y(r), y.deriv(1)(r), y.deriv(2)(r)
    return [
        -y2,
        -2.0 * m / r * y1,
        2.0 * d1 * y1,
        -(m * m - m) / r**2 * y0,
        2.0 * m * d1 / r * y0,
        -(d1**2) * y0,
        d2 * y0,
        -dim / r * y1,
        -dim * m / r**2 * y0,
        dim * d1 / r * y0,
        *(v * y0 for v in potential_terms),
        -energy * y0,
    ]


def _reduced_residual(family, p, sol):
    """Worst |H f - E f| over its size, f = P(r) r^power exp(-phi), all states.

    The size is the same sum with every coefficient and factor replaced by
    its absolute value, so a state whose polynomial lost a coefficient
    shows up at that coefficient's share of the function.
    """
    r = np.linspace(0.2, 3.0, 57) / math.sqrt(p.b_p)
    if family == "super2":
        pot = qes_map_super2(p)
        phi = Polynomial([0.0, 0.0, 0.5 * p.b_p, 0.0, 0.25 * p.a_p])
    else:
        pot, _ = qes_map_sub2(p)
        phi = Polynomial([0.0, p.a_p, 0.5 * p.b_p])
    worst = 0.0
    for i, coeffs in enumerate(sol.polynomials):
        if family == "super2":
            full = np.zeros(2 * len(coeffs) - 1)
            full[::2] = coeffs
            V = [0.5 * pot.omega**2 * r**2, pot.c / r**2, pot.b * r**4, pot.a * r**6]
        else:
            full = np.array(coeffs)
            V = [0.5 * pot.omega**2 * r**2, pot.c / r**2, pot.a * r, sol.charges[i] / r]
        e = sol.energies[i]
        res = sum(_operator_terms(Polynomial(full), r, sol.power, p.dim, phi, V, e))
        size = sum(
            np.abs(t)
            for t in _operator_terms(
                Polynomial(np.abs(full)), r, abs(sol.power), p.dim,
                Polynomial(np.abs(phi.coef)), np.abs(V), abs(e),
            )
        )
        worst = max(worst, float(np.max(np.abs(res) / size)))
    return worst


@st.composite
def _qes_cases(draw):
    family = draw(st.sampled_from(["super2", "sub2"]))
    dim = draw(st.integers(1, 12))
    N = draw(st.integers(1, 6))
    c_p = draw(st.floats(-2.0, (dim - 1) / 2))
    b_p = draw(st.floats(0.2, 3.0))
    if family == "super2":
        # a' below b'^2 / (4N + Dim - 2c' - 1), where omega^2 > 0
        bound = b_p**2 / (4 * N + dim - 2 * c_p - 1)
        a_p = 10.0 ** draw(st.floats(-6.0, -0.01)) * bound
    else:
        a_p = draw(st.floats(-2.0, 2.0))
    return family, QesPrimedParams(a_p=a_p, b_p=b_p, c_p=c_p, N=N, dim=dim)


@settings(max_examples=150, deadline=None)
@given(case=_qes_cases())
# small a': top coefficients far below the largest, which must stay
@example(case=("super2", QesPrimedParams(a_p=1e-3, b_p=1.0, N=6, dim=8)))
@example(case=("super2", QesPrimedParams(a_p=1e-5, b_p=1.0, N=6, dim=8)))
# c' next to the double root (Dim - 1)/2 of m(m + Dim - 1) = c, where a
# root taken through c = c'(c' - Dim + 1) is off by sqrt(eps)
@example(case=("sub2", QesPrimedParams(a_p=1.0, b_p=1.0, c_p=3.4999999, N=2, dim=8)))
def test_every_state_solves_the_reduced_operator(case):
    family, p = case
    sol = qes_solve(p, family)
    assert sol.power == pytest.approx(-p.c_p, abs=1e-14)
    assert all(len(c) == p.N for c in sol.polynomials)
    assert _reduced_residual(family, p, sol) <= 1e-12
    if family == "super2":
        assert np.all(np.diff(sol.energies) > 0)
        if p.N == 1:
            assert sol.energies[0] == pytest.approx(p.b_p * (p.dim + 1 - 2 * p.c_p), rel=1e-13)
    else:
        pot, d = qes_map_sub2(p)
        assert sol.energies == pytest.approx([-d] * p.N, rel=1e-13, abs=1e-13)
        if p.N == 1:
            assert sol.charges[0] == pytest.approx(pot.b, rel=1e-13, abs=1e-13)
