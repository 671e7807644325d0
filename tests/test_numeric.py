import functools
import math
import sys
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st_

from hurwitz_kepler import numeric
from hurwitz_kepler.analytic import (
    QesPrimedParams,
    QuantumNumbers,
    qes_map_sub2,
    qes_map_super2,
    qes_solve,
    singular_oscillator_energy,
)
from hurwitz_kepler.errors import AccuracyError, SeparabilityError
from hurwitz_kepler.numeric import (
    Grid,
    RadialProblem,
    _assemble,
    _count_nodes,
    _prolong,
    build_radial_problem,
    eigh_tridiagonal,
    fd_eigensolve,
    parabolic_joint_solve,
    qes_verification_problem,
    spherical_micz_energies,
)
from hurwitz_kepler.potentials import (
    MiczParams,
    OscillatorModel,
    Potential8D,
    require_spherically_separable,
)


def _sho_model(w1=1.0, w2=1.0, Z1=0.5, Z2=0.5):
    return OscillatorModel(
        p1=Potential8D("sho", omega=w1), p2=Potential8D("sho", omega=w2), Z1=Z1, Z2=Z2
    )


# basis scales of the closed-form sweeps, relative to the problem's own
_SCALES = (1.0, 0.7, 1.3)


def _qes_problem(family, N, a_p):
    """The QES cross-check problem of ``family`` for primed constants (a', 1, 0), N."""
    params = QesPrimedParams(a_p=a_p, b_p=1.0, c_p=0.0, N=N, dim=8)
    if family == "super2":
        return qes_verification_problem(qes_map_super2(params), 8, 9.0)
    return qes_verification_problem(qes_map_sub2(params)[0], 8, 12.0)


class TestOscillatorOracle:
    def test_spec_reference_case(self):
        # this solver is the oracle; cross-checked against the closed form
        prob = build_radial_problem("osc8", potential=Potential8D("sho", omega=1.0), L=0, rmax=12.0)
        spec = fd_eigensolve(prob, Grid(n=4000), 2)
        assert spec.eigenvalues[0] == pytest.approx(4.0, abs=1e-6)
        assert spec.eigenvalues[1] == pytest.approx(6.0, abs=1e-6)

    def test_problem_assembly(self):
        prob = build_radial_problem("osc8", potential=Potential8D("sho", omega=1.0), L=0)
        assert prob.weight_exponent == 7
        assert prob.centrifugal_coeff == 0.0
        prob = build_radial_problem("osc8", potential=Potential8D("sho", omega=1.0, c=3.0), L=2)
        assert prob.centrifugal_coeff == pytest.approx(2 * 8 + 6.0)

    def test_zero_rmax_reaches_domain_check(self):
        with pytest.raises(ValueError, match="domain"):
            build_radial_problem("osc8", potential=Potential8D("sho", omega=1.0), rmax=0.0)

    def test_closed_form_sweep(self):
        for omega in (0.5, 2.0):
            for L in (0, 2):
                for c in (0.0, 8.0):
                    pot = Potential8D("sho", omega=omega, c=c)
                    prob = build_radial_problem("osc8", potential=pot, L=L)
                    spec = fd_eigensolve(prob, Grid(n=3000), 3)
                    for N in range(3):
                        exact = singular_oscillator_energy(QuantumNumbers(N, L), omega, c)
                        assert spec.eigenvalues[N] == pytest.approx(exact, rel=1e-7)
                    assert spec.node_counts == (0, 1, 2)


class TestCoulombOracle:
    def test_ground_energy_uniform(self):
        prob = build_radial_problem("coul9", Z=1.0, lam=0.0, rmax=260.0)
        spec = fd_eigensolve(prob, Grid(n=6000), 2)
        assert spec.eigenvalues[0] == pytest.approx(-1.0 / 32.0, abs=1e-6)
        assert spec.eigenvalues[1] == pytest.approx(-1.0 / 50.0, abs=1e-6)

    def test_ground_energy_log_grid(self):
        prob = build_radial_problem("coul9", Z=1.0, lam=0.0, rmax=260.0)
        spec = fd_eigensolve(prob, Grid(n=4000, spacing="log", stretch=5.0), 1)
        assert spec.eigenvalues[0] == pytest.approx(-1.0 / 32.0, abs=1e-6)

    def test_log_grid_has_no_bisection_floor(self):
        # Rayleigh quotients on both grids: a bisection value carries an
        # eps |T| error over the whole domain, 5.5e-9 and 1.2e-8 relative here
        prob = build_radial_problem("coul9", Z=1.0, lam=0.0, rmax=260.0)
        spec = fd_eigensolve(prob, Grid(n=4000, spacing="log", stretch=4.0), 2)
        assert spec.eigenvalues[0] == pytest.approx(-1.0 / 32.0, rel=1e-10)
        assert spec.eigenvalues[1] == pytest.approx(-1.0 / 50.0, rel=1e-10)

    def test_separability_gate(self):
        bad = OscillatorModel(
            p1=Potential8D("sub2", omega=1.0, b=0.1),
            p2=Potential8D("sub2", omega=1.0),
            Z1=0.5,
            Z2=0.5,
        )
        with pytest.raises(SeparabilityError):
            require_spherically_separable(bad)
        require_spherically_separable(_sho_model())


class TestThetaOracle:
    def test_zonal_spectrum(self):
        prob = build_radial_problem("theta", micz=MiczParams(Z=1.0))
        spec = fd_eigensolve(prob, Grid(n=3000), 3)
        for lam, expect in zip(spec.eigenvalues, (0.0, 8.0, 18.0)):
            assert lam == pytest.approx(expect, abs=1e-6)

    def test_zero_eigenvalue_within_its_bar(self, monkeypatch):
        # the c1 = c2 = 0 ground eigenvalue is exactly 0; the basis holds its
        # eigenfunction, so the Ritz values agree at rounding level from the
        # first test on, the bar is that rounding, and the solve stops on 8
        # functions of the 4000 the grid allows
        prob = build_radial_problem("theta", micz=MiczParams(Z=1.0))
        spec = fd_eigensolve(prob, Grid(n=4000), 1)
        assert abs(spec.eigenvalues[0]) <= spec.convergence[0] <= 1e-11
        assert _basis_size(monkeypatch, prob, Grid(n=4000), 1) == 8

    def test_builder_strengths(self):
        prob = build_radial_problem("theta", micz=MiczParams(Z=1.0, c1=1.0))
        # alpha_u / cos^2(theta/2) + alpha_v / sin^2(theta/2) with (alpha_u, alpha_v) = (2, 0)
        q = prob.effective_term(np.array([2.0 * math.pi / 3.0, math.pi / 2.0]))
        np.testing.assert_allclose(q, [8.0, 4.0], rtol=1e-14)

    def test_dressed_spectrum_matches_exponent_formula(self):
        # derived oracle: Lambda_n = (n + alpha + gamma)(n + alpha + gamma + 7)
        # with alpha, gamma the regular exponents at the two poles
        for (J, L, c1, c2) in [(0, 0, 1.0, 2.0), (1, 2, 0.5, 0.25), (2, 0, 0.0, 3.0)]:
            micz = MiczParams(Z=1.0, J=J, L=L, c1=c1, c2=c2)
            alpha = 0.5 * (-3.0 + math.sqrt((L + 3.0) ** 2 + 8.0 * c2))
            gamma = 0.5 * (-3.0 + math.sqrt((J + 3.0) ** 2 + 8.0 * c1))
            prob = build_radial_problem("theta", micz=micz)
            spec = fd_eigensolve(prob, Grid(n=3000), 3)
            for n, lam in enumerate(spec.eigenvalues):
                lam_eff = n + alpha + gamma
                assert lam == pytest.approx(lam_eff * (lam_eff + 7.0), abs=2e-6)


class TestSolverMechanics:
    def test_scheme_consistency_order(self):
        # apply the assembled operator to exp(-r^2/2), the exact ground
        # state of -(1/r^7)(r^7 f')' + r^2 f with eigenvalue 8; the
        # pointwise defect must shrink like h^2
        from hurwitz_kepler.numeric import _mapped_nodes

        prob = RadialProblem(
            weight_exponent=7,
            centrifugal_coeff=0.0,
            effective_term=lambda r: r**2,
            domain=(0.0, 10.0),
        )
        errs = []
        for n in (500, 1000, 2000):
            g = Grid(n=n)
            x, gn, xh, gh, ht = _mapped_nodes(g, 0.0, 10.0, n)
            f = np.exp(-(x**2) / 2.0)
            s_half = prob.weight(xh) / gh
            wm = prob.weight(x) * gn
            ff = np.concatenate([[1.0], f, [math.exp(-50.0)]])
            lap = (s_half[:-1] * (ff[:-2] - f) + s_half[1:] * (ff[2:] - f)) / (ht**2 * wm)
            op = -lap + x**2 * f
            interior = slice(n // 10, -n // 2 + n // 10)
            errs.append(np.max(np.abs(op - 8.0 * f)[interior]))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.2)

    def test_grid_convergence_invariant(self):
        pot = Potential8D("sho", omega=1.0)
        prob = build_radial_problem("osc8", potential=pot, L=0, rmax=12.0)
        a = fd_eigensolve(prob, Grid(n=2000), 2).eigenvalues
        b = fd_eigensolve(prob, Grid(n=4000), 2).eigenvalues
        assert np.max(np.abs(a - b)) < 1e-8
        prob2 = build_radial_problem("osc8", potential=pot, L=0, rmax=15.0)
        c = fd_eigensolve(prob2, Grid(n=4000), 2).eigenvalues
        assert np.max(np.abs(c - b)) < 1e-8

    def test_auto_extend(self):
        # deliberately truncated domain, which the basis on (0, inf) leaves aside
        pot = Potential8D("sho", omega=1.0)
        prob = build_radial_problem("osc8", potential=pot, L=0, rmax=4.0)
        spec = fd_eigensolve(prob, Grid(n=2000), 1)
        assert spec.eigenvalues[0] == pytest.approx(4.0, rel=1e-8)

    def test_extension_limit(self):
        # a negative quartic coupling turns the u-equation's potential over,
        # so no domain holds its states: six extensions of the joint search's
        # first domain, w up to 50 / sqrt(-2 E_hi), leave them at its end
        p1 = Potential8D("super2", omega=1.0, b=-1e-2)
        model = OscillatorModel(p1=p1, p2=Potential8D("sho", omega=1.0), Z1=0.5, Z2=0.5)
        with pytest.raises(AccuracyError, match="domain extension failed"):
            parabolic_joint_solve(model, MiczParams(Z=1.0), Grid(n=200), (-0.045, -0.024))

    def test_nonconvergence_error(self):
        # a 1/r well this deep binds a state far narrower than the basis
        # scale, and 64 functions do not resolve it
        prob = build_radial_problem(
            "osc8", potential=Potential8D("sub2", omega=1.0, b=-400.0), L=0, rmax=12.0
        )
        with pytest.raises(AccuracyError, match="basis growth did not converge"):
            fd_eigensolve(prob, Grid(n=64), 1)

    def test_basis_cap(self, monkeypatch):
        # a step in the potential leaves the Ritz values converging
        # algebraically, never at rounding level: the basis stops at 512
        # functions, not at the grid's 4000
        prob = RadialProblem(
            weight_exponent=7,
            centrifugal_coeff=0.0,
            effective_term=lambda r: r**2 + 10.0 * (r > 1.0),
            domain=(0.0, 10.0),
        )
        assert _basis_size(monkeypatch, prob, Grid(n=4000), 1) == 512

    def test_gate_error_carries_its_fields(self, monkeypatch):
        # a gate no bar can pass names the state, the basis size the solve
        # stopped at, the state's bar in the reported units and the tolerance
        prob = build_radial_problem("osc8", potential=Potential8D("sho", omega=1.0))
        spec = fd_eigensolve(prob, Grid(n=1000), 1)
        monkeypatch.setattr(numeric, "_CONV_TOL", 1e-20)
        with pytest.raises(AccuracyError, match="basis growth did not converge") as info:
            fd_eigensolve(prob, Grid(n=1000), 1)
        err = info.value
        fields = (err.state, err.nodes, err.bar, err.tol)
        assert fields == (0, 8, spec.convergence[0], 1e-20)

    def test_k_validation(self):
        prob = build_radial_problem("osc8", potential=Potential8D("sho", omega=1.0), L=0)
        with pytest.raises(ValueError):
            fd_eigensolve(prob, Grid(n=100), 26)
        with pytest.raises(ValueError):
            fd_eigensolve(prob, Grid(n=100), 0)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            Grid(n=8)
        with pytest.raises(ValueError):
            Grid(n=100, spacing="cubic")
        # a stretch from log(float max) on overflows expm1 in the node map
        for stretch in (0.0, math.nan, math.inf, math.log(sys.float_info.max)):
            with pytest.raises(ValueError, match="stretch"):
                Grid(n=100, spacing="log", stretch=stretch)

    def test_residuals_and_ordering(self):
        prob = build_radial_problem("osc8", potential=Potential8D("sho", omega=1.0), L=1)
        spec = fd_eigensolve(prob, Grid(n=2000), 4)
        assert np.all(np.diff(spec.eigenvalues) > 0)
        assert spec.node_counts == (0, 1, 2, 3)


class TestParaBuilders:
    def test_para_u_effective_term_matches_w(self):
        model = OscillatorModel(
            p1=Potential8D("sub2", omega=1.0, a=0.3, b=0.2),
            p2=Potential8D("sho", omega=1.0),
            Z1=0.4,
            Z2=0.6,
        )
        micz = MiczParams(Z=1.0, c1=0.5)
        prob = build_radial_problem("para_u", model=model, micz=micz, energy=-0.5, wmax=50.0)
        u = np.array([0.5, 1.0, 2.0, 8.0])
        w_direct = -0.5 * u * (-0.5) + 0.2 * np.sqrt(2.0 / u) + 0.3 * np.sqrt(u / 2.0) - 0.4
        assert np.allclose(prob.effective_term(u) * u, w_direct, rtol=1e-13)
        assert prob.centrifugal_coeff == pytest.approx((0 + 8 * 0.5) / 4.0)
        assert prob.mass_term(2.0) == pytest.approx(0.5)

    def test_para_v_slot(self):
        model = _sho_model()
        prob = build_radial_problem(
            "para_v", model=model, micz=MiczParams(Z=1.0, c2=2.0), energy=-0.5, wmax=50.0
        )
        assert prob.centrifugal_coeff == pytest.approx(4.0)


def test_spherical_micz_energy_composition():
    micz = MiczParams(Z=1.0, c1=1.0, c2=2.0)
    states = spherical_micz_energies(
        micz, n_theta=2, n_radial=2, grid_theta=Grid(n=3000), grid_radial=Grid(n=4000), rmax=300.0
    )
    # independent closed form: E = -Z^2 / (2 (N + lambda_eff + 4)^2)
    alpha = 0.5 * (-3.0 + math.sqrt(9.0 + 16.0))
    gamma = 0.5 * (-3.0 + math.sqrt(9.0 + 8.0))
    s0 = alpha + gamma + 4.0
    assert states[0][0] == pytest.approx(-1.0 / (2.0 * s0**2), rel=1e-7)
    assert states[1][0] == pytest.approx(-1.0 / (2.0 * (s0 + 1.0) ** 2), rel=1e-7)


def test_spherical_micz_energies_keeps_polar_eigenvalue(monkeypatch):
    # the c1 = c2 = 0 polar ground eigenvalue is 0, which rounding may leave
    # slightly negative; the radial solve must use it as computed, not
    # clamped to 0, so here the polar solve returns it 1e-13 below 0
    micz = MiczParams(Z=1.0)
    solve = numeric.fd_eigensolve

    def below_zero(problem, grid, k):
        spec = solve(problem, grid, k)
        if problem.weight_kind == "sin7":
            spec = replace(spec, eigenvalues=spec.eigenvalues - 1e-13)
        return spec

    monkeypatch.setattr(numeric, "fd_eigensolve", below_zero)
    ((E, it, N, lam),) = spherical_micz_energies(micz, 1, 1, Grid(n=1280), Grid(n=1000), rmax=260.0)
    assert lam < 0.0 and (it, N) == (0, 0)
    radial = build_radial_problem("coul9", Z=1.0, lam=lam, rmax=260.0)
    assert E == solve(radial, Grid(n=1000), 1).eigenvalues[0]


def _basis_size(monkeypatch, problem, grid, k):
    """The basis size ``fd_eigensolve`` stops at, from the gate error of a tolerance no bar meets."""
    with monkeypatch.context() as m:
        m.setattr(numeric, "_CONV_TOL", 0.0)
        with pytest.raises(AccuracyError) as info:
            fd_eigensolve(problem, grid, k)
    return info.value.nodes


def _solve_with_rounding(problem, grid, k):
    """``fd_eigensolve``'s spectrum and the rounding of its last whitened block, scaled."""
    roundings, whitened = [], numeric._whitened

    def recorded(problem, size):
        out = whitened(problem, size)
        roundings.append(out[2])
        return out

    with pytest.MonkeyPatch.context() as m:
        m.setattr(numeric, "_whitened", recorded)
        spec = fd_eigensolve(problem, grid, k)
    return spec, roundings[-1] * problem.eigenvalue_scale


class TestCoarseGridSearch:
    # where a closed form exists the bar must bound the deviation without
    # overstating it more than threefold above the rounding level, for the
    # problem's own basis scale and for one 30% off either way; every Ritz
    # function has as many sign changes as its index

    def _check(self, problem, grid, k, exact=None, scales=(1.0,)):
        # ``exact`` may hold NaN for the states without a closed form
        for scale in scales:
            scaled = replace(problem, basis_scale=scale * problem.basis_scale)
            spec, rounding = _solve_with_rounding(scaled, grid, k)
            assert spec.node_counts == tuple(range(k))
            if exact is not None:
                known = ~np.isnan(exact)
                dev = np.abs(spec.eigenvalues - exact)[known]
                bar = spec.convergence[known]
                assert np.all(dev <= 2.0 * bar)
                above = bar > 10.0 * rounding
                assert np.all(bar[above] <= 3.0 * dev[above])
        return spec

    @settings(max_examples=15, deadline=None)
    @given(
        omega=st_.floats(0.5, 2.0),
        c=st_.floats(0.0, 8.0),
        L=st_.integers(0, 3),
    )
    # the R3 ladder put state 2 of this draw 3.15 bars off
    @example(omega=1.0, c=1.5625, L=0)
    def test_osc8(self, omega, c, L):
        pot = Potential8D("sho", omega=omega, c=c)
        exact = [singular_oscillator_energy(QuantumNumbers(N, L), omega, c) for N in range(3)]
        problem = build_radial_problem("osc8", potential=pot, L=L)
        self._check(problem, Grid(n=800), 3, exact, _SCALES)

    @settings(max_examples=15, deadline=None)
    @given(
        Z=st_.floats(0.5, 2.0),
        lam=st_.floats(0.0, 30.0),
        spacing=st_.sampled_from(["uniform", "log"]),
    )
    def test_coul9(self, Z, lam, spacing):
        # lam = l (l + 7) and E_N = -Z^2 / (2 (N + l + 4)^2)
        ell = 0.5 * (-7.0 + math.sqrt(49.0 + 4.0 * lam))
        exact = [-(Z**2) / (2.0 * (N + ell + 4.0) ** 2) for N in range(2)]
        prob = build_radial_problem("coul9", Z=Z, lam=lam, rmax=260.0 / Z)
        self._check(prob, Grid(n=2000, spacing=spacing, stretch=4.0), 2, exact, _SCALES)

    @settings(max_examples=15, deadline=None)
    @given(c1=st_.floats(0.0, 4.0), c2=st_.floats(0.0, 4.0))
    def test_theta(self, c1, c2):
        # Lambda_n = (n + alpha + gamma)(n + alpha + gamma + 7), as in
        # TestThetaOracle with J = L = 0
        shift = 0.5 * (math.sqrt(9.0 + 8.0 * c1) + math.sqrt(9.0 + 8.0 * c2)) - 3.0
        exact = [(n + shift) * (n + shift + 7.0) for n in range(3)]
        prob = build_radial_problem("theta", micz=MiczParams(Z=1.0, c1=c1, c2=c2))
        self._check(prob, Grid(n=3000), 3, exact)

    def _check_qes(self, problem, k, energies):
        # each QES energy against the nearest of the lowest k eigenvalues
        mu = fd_eigensolve(problem, Grid(n=3000), k).eigenvalues
        exact = np.full(k, np.nan)
        for e in energies:
            exact[np.argmin(np.abs(mu - e))] = e
        assert np.count_nonzero(~np.isnan(exact)) == len(energies)
        self._check(problem, Grid(n=3000), k, exact, _SCALES)

    @settings(max_examples=15, deadline=None)
    @given(N=st_.integers(1, 3), a_p=st_.floats(0.01, 0.04))
    def test_qes_super2(self, N, a_p):
        params = QesPrimedParams(a_p=a_p, b_p=1.0, c_p=0.0, N=N, dim=8)
        energies = qes_solve(params, "super2").energies
        self._check_qes(_qes_problem("super2", N, a_p), N + 2, energies)

    @settings(max_examples=15, deadline=None)
    @given(N=st_.integers(1, 2), a_p=st_.floats(0.5, 1.5), state=st_.integers(0, 2))
    def test_qes_sub2(self, N, a_p, state):
        # each sub2 state closes at its own 1/r charge
        params = QesPrimedParams(a_p=a_p, b_p=1.0, c_p=0.0, N=N, dim=8)
        sol = qes_solve(params, "sub2")
        state = min(state, len(sol.charges) - 1)
        pot = replace(qes_map_sub2(params)[0], b=float(sol.charges[state]))
        problem = qes_verification_problem(pot, 8, 12.0)
        self._check_qes(problem, N + 2, [sol.energies[state]])

    @settings(max_examples=10, deadline=None)
    @given(Z=st_.floats(0.5, 2.0), c1=st_.floats(0.0, 4.0), c2=st_.floats(0.0, 4.0))
    def test_spherical_micz(self, Z, c1, c2):
        # E = -Z^2 / (2 (s0 + n)^2), s0 = 4 + alpha + gamma and n the polar
        # plus the radial index; each stage is checked against its own closed
        # form, and the polar bar reaches E through dE/dLambda
        micz = MiczParams(Z=Z, c1=c1, c2=c2)
        grid_theta, grid_radial, rmax = Grid(n=3000), Grid(n=4000), 320.0 / Z
        states = spherical_micz_energies(micz, 2, 2, grid_theta, grid_radial, rmax)
        shift = 0.5 * (math.sqrt(9.0 + 8.0 * c1) + math.sqrt(9.0 + 8.0 * c2)) - 3.0
        exact = [(n + shift) * (n + shift + 7.0) for n in range(2)]
        polar = self._check(build_radial_problem("theta", micz=micz), grid_theta, 2, exact)
        for E, it, N, lam in states:
            ell = 0.5 * (-7.0 + math.sqrt(49.0 + 4.0 * lam))
            exact = [-(Z**2) / (2.0 * (n + ell + 4.0) ** 2) for n in range(2)]
            prob = build_radial_problem("coul9", Z=Z, lam=lam, rmax=rmax)
            radial = self._check(prob, grid_radial, 2, exact)
            assert E == radial.eigenvalues[N]
            s = N + it + shift + 4.0
            slope = Z**2 / (s**3 * (2.0 * (it + shift) + 7.0))
            bar = radial.convergence[N] + slope * polar.convergence[it]
            assert abs(E + Z**2 / (2.0 * s**2)) <= 2.0 * bar


def test_bench_osc8_solve_basis_size(monkeypatch):
    # the bench's osc8 solves (k = 4 on Grid(n=4000)) stop on 8 functions:
    # the sho basis holds their eigenfunctions, so the first test already
    # finds the Ritz values at rounding level, where the R3 ladder climbed
    # to 2015 nodes
    pot = Potential8D("sho", omega=1.0)
    prob = build_radial_problem("osc8", potential=pot)
    spec = fd_eigensolve(prob, Grid(n=4000), 4)
    assert _basis_size(monkeypatch, prob, Grid(n=4000), 4) == 8
    exact = [singular_oscillator_energy(QuantumNumbers(N, 0), 1.0, 0.0) for N in range(4)]
    assert np.all(spec.convergence <= 1e-13 * np.abs(spec.eigenvalues))
    np.testing.assert_allclose(spec.eigenvalues, exact, rtol=1e-14)


_COUL9 = build_radial_problem("coul9", Z=1.0, lam=0.0, rmax=260.0)
_FD_CASES = {  # (problem, grid, states, basis size the solve stops at)
    # the sho and polar bases hold the eigenfunctions, so their Ritz values
    # sit at rounding level from the first test on; the others settle
    # geometrically, the super2 case in a second block of 64 functions.
    # A log grid changes nothing.
    "osc8": (
        build_radial_problem("osc8", potential=Potential8D("sho", omega=1.0, c=1.0), L=1),
        Grid(n=2000),
        3,
        8,
    ),
    "coul9-uniform": (_COUL9, Grid(n=4000), 2, 20),
    "coul9-log": (_COUL9, Grid(n=4000, spacing="log", stretch=4.0), 2, 20),
    "theta": (
        build_radial_problem("theta", micz=MiczParams(Z=1.0, c1=1.0, c2=2.0)), Grid(n=3000), 3, 8
    ),
    "qes-super2": (_qes_problem("super2", 2, 0.05), Grid(n=3000), 4, 40),
    "qes-sub2": (_qes_problem("sub2", 2, 1.0), Grid(n=3000), 4, 36),
}


def test_solver_inputs_and_result_fields():
    # every parameter has a caller outside the tests and every field a reader
    import dataclasses
    import inspect

    from hurwitz_kepler.analytic import QesSolution, qes_solve
    from hurwitz_kepler.numeric import JointState, Spectrum, parabolic_joint_solve

    def params(fn):
        return list(inspect.signature(fn).parameters)

    def fields(cls):
        return [f.name for f in dataclasses.fields(cls)]

    assert params(fd_eigensolve) == ["problem", "grid", "k"]
    assert params(parabolic_joint_solve) == ["model", "micz", "grid", "bracket"]
    assert params(qes_solve) == ["p", "family"]
    assert fields(JointState) == ["E", "P", "node_u", "node_v", "E_error", "solves"]
    assert fields(Spectrum) == ["eigenvalues", "convergence", "node_counts"]
    assert fields(QesSolution) == [
        "family", "energies", "polynomials", "gauge", "power", "charges", "closure_residual"
    ]


# ---------------------------------------------------------------------------
# The eigensolver kernel: bisection without estimates, inverse iteration with


def _matrix(problem, grid, n, energy=0.0):
    """(d, e) of ``problem`` on ``n`` nodes of its domain, shifted to ``energy``."""
    d0, e, x = _assemble(problem, grid, *problem.domain, n)
    return d0 - 0.5 * energy * x, e


_PARA_MICZ = MiczParams(Z=1.0, c1=1.0, c2=2.0)


def _para_case(kind, micz=_PARA_MICZ, grid=Grid(n=1500), model=None, energy=-0.02):
    problem = build_radial_problem(
        kind, model=model or _sho_model(), micz=micz, energy=0.0, wmax=250.0
    )
    return problem, grid, 3, energy


_LOG = Grid(n=1500, spacing="log", stretch=4.0)
_KERNEL_CASES = {  # (problem, grid, states, energy of the pencil shift)
    "para_u": _para_case("para_u"),
    "para_v": _para_case("para_v"),
    "para_u-log": _para_case("para_u", grid=_LOG),
    "para_v-log": _para_case("para_v", grid=_LOG),
    "para_v-sub2": _para_case(
        "para_v",
        model=OscillatorModel(
            Potential8D("sho", omega=1.0), Potential8D("sub2", omega=1.0, a=-0.2), 0.5, 0.5
        ),
    ),
}


@pytest.fixture
def rows():
    """Row counts of the matrices bisected and of those solved from estimates."""
    return {"bisected": [], "warm": []}


@pytest.fixture
def solves(monkeypatch, rows):
    """Counts of kernel calls, of those without estimates and of bisections run."""
    counts = {"calls": 0, "cold": 0, "bisections": 0}
    kernel, bisect = numeric.eigh_tridiagonal, scipy.linalg.eigh_tridiagonal

    def counted_kernel(d, e, first, last, estimates=None, vectors=None):
        counts["calls"] += 1
        counts["cold"] += estimates is None
        if estimates is not None:
            rows["warm"].append(len(d))
        return kernel(d, e, first, last, estimates, vectors)

    def counted_bisect(d, *args, **kwargs):
        counts["bisections"] += 1
        rows["bisected"].append(len(d))
        return bisect(d, *args, **kwargs)

    monkeypatch.setattr(numeric, "eigh_tridiagonal", counted_kernel)
    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", counted_bisect)
    return counts


@pytest.fixture
def passes(monkeypatch, solves):
    """The gtsv solves of each kernel call, in call order.

    A warm call solves each of its columns once per pass, so a call whose
    columns all certify on their first pass makes one solve per column; a
    cold call makes none unless its loose bisection fails the certificates.
    """
    record = []
    lookup, kernel = scipy.linalg.get_lapack_funcs, numeric.eigh_tridiagonal

    def counted_lookup(names, arrays=()):
        (gtsv,) = lookup(names, arrays)

        def counted_gtsv(*args):
            record[-1] += 1
            return gtsv(*args)

        return (counted_gtsv,)

    def recorded_kernel(d, e, first, last, estimates=None, vectors=None):
        record.append(0)
        return kernel(d, e, first, last, estimates, vectors)

    monkeypatch.setattr(scipy.linalg, "get_lapack_funcs", counted_lookup)
    monkeypatch.setattr(numeric, "eigh_tridiagonal", recorded_kernel)
    return record


def _assert_same_eigenpairs(warm, cold, d):
    # a quotient chi . T chi sums n products whose rounding errors of
    # eps |d_k| chi_k^2 add up like a random walk: that floor, not 1e-12
    # relative, bounds the agreement where |mu| is small against d
    (mu_w, chi_w), (mu, chi) = warm, cold
    floor = np.finfo(float).eps * np.linalg.norm(d[:, None] * chi**2, axis=0)
    np.testing.assert_allclose(mu_w, mu, rtol=1e-12, atol=4.0 * np.max(floor))
    signs = np.sign(np.sum(chi_w * chi, axis=0))
    np.testing.assert_allclose(chi_w * signs, chi, rtol=0.0, atol=1e-8)


@functools.lru_cache(maxsize=None)
def _fine(case):
    problem, grid, _, energy = _KERNEL_CASES[case]
    return _matrix(problem, grid, 2 * grid.n + 1, energy)


@functools.lru_cache(maxsize=None)
def _cold(case, first, last):
    return eigh_tridiagonal(*_fine(case), first, last)


class TestWarmStart:
    @pytest.mark.parametrize("case", list(_KERNEL_CASES))
    def test_warm_matches_cold(self, solves, passes, case):
        # the coarse grid's quotients, and its vectors prolonged onto the
        # fine grid's 2n + 1 nodes, start inverse iteration as on the joint
        # search's ladder, and no bisection follows
        problem, grid, k, energy = _KERNEL_CASES[case]
        fine = _fine(case)
        mu, chi = numeric.eigh_tridiagonal(*_matrix(problem, grid, grid.n, energy), 0, k - 1)
        cold = numeric.eigh_tridiagonal(*fine, 0, k - 1)
        warm = numeric.eigh_tridiagonal(*fine, 0, k - 1, mu, _prolong(chi))
        assert solves == {"calls": 3, "cold": 2, "bisections": 2}
        assert passes[-1] == k  # every column certifies on its first solve
        _assert_same_eigenpairs(warm, cold, fine[0])

    @pytest.mark.parametrize("case", list(_FD_CASES))
    def test_fd_eigensolve_keeps_the_first_certified_pass(self, monkeypatch, solves, case):
        # a fixed problem makes no tridiagonal eigensolve.  Its basis grows
        # by _STEP from the first multiple of _STEP at or above k; every pass
        # before the last changes some wanted Ritz value by more than the
        # rounding of the block it reads, and the solve keeps the Ritz
        # values of the first pass whose changes all stay within it
        problem, grid, k, size = _FD_CASES[case]
        blocks, whitened = [], numeric._whitened

        def recorded(problem, n):
            out = whitened(problem, n)
            blocks.append(out)
            return out

        monkeypatch.setattr(numeric, "_whitened", recorded)
        spec = fd_eigensolve(problem, grid, k)
        assert solves == {"calls": 0, "cold": 0, "bisections": 0}
        sizes = list(range(-(-k // numeric._STEP) * numeric._STEP, size + 1, numeric._STEP))
        certified = []
        for n in sizes:
            matrix, _, rounding, _ = next(b for b in blocks if len(b[0]) >= n)
            ritz = np.linalg.eigh(matrix[:n, :n])[0][:k]
            if n > sizes[0]:
                certified.append(bool(np.all(np.abs(ritz - previous) <= rounding)))
            previous = ritz
        assert certified == [False] * (len(sizes) - 2) + [True]
        np.testing.assert_array_equal(spec.eigenvalues, ritz * problem.eigenvalue_scale)
        assert _basis_size(monkeypatch, problem, grid, k) == size

    @settings(max_examples=30, deadline=None)
    @given(
        case=st_.sampled_from(["para_u", "para_u-log", "para_v"]),
        first=st_.integers(0, 2),
        shifts=st_.lists(st_.floats(-0.5, 0.5), min_size=1, max_size=3),
        noise=st_.floats(0.0, 1.0),
        seed=st_.integers(0, 2**32 - 1),
    )
    # midway between two log-grid eigenvalues and with noise of half the
    # vector's norm
    @example(case="para_u-log", first=1, shifts=[0.5], noise=0.5, seed=0)
    def test_estimates_within_half_a_gap(self, case, first, shifts, noise, seed):
        # from estimates up to half a gap off and the eigenvectors with noise
        # of norm up to about ``noise`` added, the kernel returns the
        # requested eigenpairs, whether they certify or it bisects
        last = first + len(shifts) - 1
        mu, chi = _cold(case, 0, last + 1)
        gaps = np.diff(mu)[first : last + 1]
        estimates = mu[first : last + 1] + np.array(shifts) * gaps
        start = chi[:, first : last + 1]
        rng = np.random.default_rng(seed)
        start = start + noise * rng.standard_normal(start.shape) / math.sqrt(len(start))
        warm = eigh_tridiagonal(*_fine(case), first, last, estimates, start)
        _assert_same_eigenpairs(warm, _cold(case, first, last), _fine(case)[0])

    @pytest.mark.parametrize("index, neighbour", [(0, 1), (1, 0), (1, 2)])
    def test_neighbour_estimate_falls_back(self, solves, passes, index, neighbour):
        # inverse iteration from another state's eigenvalue and vector stays
        # on that state; its sign changes give it away on each of the three
        # passes, and the call bisects instead
        mu, chi = _cold("para_u", 0, 2)
        solves.update(dict.fromkeys(solves, 0))  # count the call under test only
        other = slice(neighbour, neighbour + 1)
        fine = _fine("para_u")
        mu_w, chi_w = numeric.eigh_tridiagonal(*fine, index, index, mu[other], chi[:, other])
        assert solves == {"calls": 1, "cold": 0, "bisections": 1}
        assert passes == [3]
        assert _count_nodes(chi_w[:, 0]) == index
        assert mu_w[0] == pytest.approx(mu[index], rel=1e-12)

    def test_zero_pivot_falls_back(self, solves, passes):
        # T - 0 = [[1, -1], [-1, 1]] is singular and its elimination meets an
        # exact zero pivot (gtsv's info = 2); the call bisects instead of
        # raising and returns the null vector
        d, e = np.array([1.0, 1.0]), np.array([-1.0])
        mu, chi = numeric.eigh_tridiagonal(d, e, 0, 0, [0.0], np.array([[1.0], [0.0]]))
        assert solves == {"calls": 1, "cold": 0, "bisections": 1}
        assert passes == [1]
        assert mu[0] == pytest.approx(0.0, abs=1e-15)
        np.testing.assert_allclose(np.abs(chi[:, 0]), [math.sqrt(0.5)] * 2, rtol=1e-15)

    @pytest.mark.parametrize(
        "bracket, calls, e_hi, e_lo, solved",
        [((-0.045, -0.024), 28, 3, 9, 60), ((-0.024, -0.017), 50, 6, 8, 100)],
        ids=["level0", "level1"],
    )
    def test_joint_search_bisects_at_e_hi_only(
        self, solves, rows, passes, bracket, calls, e_hi, e_lo, solved
    ):
        # one bisection per equation, on the pilot of the first domain (143
        # or 169 rows), which widens once to hold the two-node state, and no
        # warm solve of the Coulomb levels falls back.  The search runs on the
        # widened pilot and every later solve is on a rung of 2m + 1 nodes
        # after m.  The widened pilot starts from the first domain's vectors,
        # interpolated, and takes one or two solves per branch; the E_lo
        # solve, started from the E_hi vectors, takes up to three, and each
        # Newton evaluation at most two
        parabolic_joint_solve(_sho_model(), MiczParams(Z=1.0), Grid(n=1500), bracket)
        assert solves == {"calls": calls, "cold": 2, "bisections": 2}
        pilot = {-0.024: 143, -0.017: 169}[bracket[1]]
        widened = int(1.5 * pilot) | 1
        assert rows["bisected"] == [pilot, pilot]
        assert rows["warm"][:2] == [widened] * 2
        assert {n for n in rows["warm"]} == {(widened + 1) * 2**k - 1 for k in range(6)}
        assert len(passes) == len(rows["warm"]) + 2 == calls
        assert passes[:6] == [0, 0, e_hi, e_hi, e_lo, e_lo] and sum(passes) == solved
        assert all(p <= 2 for p in passes[6:])

    def test_joint_search_lower_end_estimates_hold(self, solves, rows):
        # with sho factors the charge each equation binds grows as sqrt(-E),
        # which places the E_lo eigenvalues of (c1, c2) = (1, 2) well enough
        # for inverse iteration; the slopes alone miss them by up to 70%
        micz = MiczParams(Z=1.0, c1=1.0, c2=2.0)
        parabolic_joint_solve(_sho_model(), micz, Grid(n=1500), (-0.05, -0.015))
        assert solves == {"calls": 22, "cold": 2, "bisections": 2}
        assert rows["bisected"] == [181, 181]  # pilots of the first domain of 2886 nodes
