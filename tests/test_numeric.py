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

    def test_zero_eigenvalue_within_its_bar(self):
        # the c1 = c2 = 0 ground eigenvalue is exactly 0; the rungs agree on
        # it more closely than the quotients' rounding, which the bar must
        # therefore include, and at that rounding level the climb stops
        # below the grid's 2n + 1 nodes
        prob = build_radial_problem("theta", micz=MiczParams(Z=1.0))
        spec = fd_eigensolve(prob, Grid(n=4000), 1)
        assert abs(spec.eigenvalues[0]) <= spec.convergence[0] <= 1e-8
        assert len(spec.grid) < 2 * 4000 + 1

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
        # deliberately truncated domain; the solver widens it
        pot = Potential8D("sho", omega=1.0)
        prob = build_radial_problem("osc8", potential=pot, L=0, rmax=4.0)
        spec = fd_eigensolve(prob, Grid(n=2000), 1)
        assert spec.eigenvalues[0] == pytest.approx(4.0, rel=1e-8)

    def test_extension_limit(self):
        # a Z = 0.01 Coulomb state decays to e^-20 only near r ~ 1e4; six
        # extensions of rmax = 10 reach ~114
        prob = build_radial_problem("coul9", Z=0.01, lam=0.0, rmax=10.0)
        with pytest.raises(AccuracyError, match="domain extension failed"):
            fd_eigensolve(prob, Grid(n=64), 1)

    def test_nonconvergence_error(self):
        prob = build_radial_problem(
            "osc8", potential=Potential8D("sub2", omega=1.0, b=-40.0), L=0, rmax=12.0
        )
        with pytest.raises(AccuracyError, match="grid doubling did not converge"):
            fd_eigensolve(prob, Grid(n=64), 1)

    def test_gate_error_carries_its_fields(self, monkeypatch):
        # a gate no bar can pass names the state, the ladder's top rung, the
        # state's bar in the reported units and the tolerance
        prob = build_radial_problem("osc8", potential=Potential8D("sho", omega=1.0))
        spec = fd_eigensolve(prob, Grid(n=1000), 1)
        monkeypatch.setattr(numeric, "_CONV_TOL", 1e-20)
        with pytest.raises(AccuracyError, match="grid doubling did not converge") as info:
            fd_eigensolve(prob, Grid(n=1000), 1)
        err = info.value
        fields = (err.state, err.nodes, err.bar, err.tol)
        assert fields == (0, len(spec.grid), spec.convergence[0], 1e-20)

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


def test_spherical_micz_energies_keeps_polar_eigenvalue():
    # on Grid(n=1280) the c1 = c2 = 0 polar ground eigenvalue comes out
    # slightly negative; the radial solve must use it as computed, not clamped to 0
    micz = MiczParams(Z=1.0)
    lam = fd_eigensolve(build_radial_problem("theta", micz=micz), Grid(n=1280), 1).eigenvalues[0]
    assert lam < 0.0
    ((E, it, N, lam_out),) = spherical_micz_energies(
        micz, 1, 1, Grid(n=1280), Grid(n=1000), rmax=260.0
    )
    assert (it, N, lam_out) == (0, 0, lam)
    radial = build_radial_problem("coul9", Z=1.0, lam=lam, rmax=260.0)
    assert E == fd_eigensolve(radial, Grid(n=1000), 1).eigenvalues[0]


def _bisected_ladder(problem, grid, spec, k):
    """R3 of ``spec``'s top four rungs, bisected: value, bar, rounding term and node counts."""
    from hurwitz_kepler.numeric import _mapped_nodes

    top = len(spec.grid)
    hi = spec.grid[-1] / _mapped_nodes(grid, 0.0, 1.0, top)[0][-1]
    sizes = [top]
    while len(sizes) < 4:
        sizes.insert(0, (sizes[0] - 1) // 2)
    rungs = []
    for m in sizes:
        d, e, _ = _assemble(problem, grid, 0.0, hi, m)
        mu, chi = eigh_tridiagonal(d, e, 0, k - 1)
        rungs.append((mu, np.finfo(float).eps * (np.abs(d) @ chi**2)))
    (v1, _), (v2, r2), (v3, r3), (v4, r4) = rungs
    values = (64.0 * v4 - 20.0 * v3 + v2) / 45.0
    rounding = (64.0 * r4 + 20.0 * r3 + r2) / 45.0
    conv = np.abs(values - (64.0 * v3 - 20.0 * v2 + v1) / 45.0) / 63.0 + rounding
    nodes = tuple(_count_nodes(chi[:, j]) for j in range(k))
    scale = problem.eigenvalue_scale
    return values * scale, conv * scale, rounding * scale, nodes


class TestCoarseGridSearch:
    # fd_eigensolve bisects only the bottom rung and climbs by inverse
    # iteration; the result must be what bisecting the same top rungs gives,
    # and where a closed form exists the bar must bound its deviation
    # without overstating it more than threefold above the rounding level

    def _check(self, problem, grid, k, exact=None):
        # ``exact`` may hold NaN for the states without a closed form
        spec = fd_eigensolve(problem, grid, k)
        values, conv, rounding, nodes = _bisected_ladder(problem, grid, spec, k)
        tol = 1e-10 * max(1.0, np.max(np.abs(values)))
        np.testing.assert_allclose(spec.eigenvalues, values, rtol=0.0, atol=tol)
        np.testing.assert_allclose(spec.convergence, conv, rtol=0.0, atol=tol)
        assert spec.node_counts == nodes
        if exact is not None:
            known = ~np.isnan(exact)
            dev = np.abs(spec.eigenvalues - exact)[known]
            bar, rounding = spec.convergence[known], rounding[known]
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
    def test_osc8(self, omega, c, L):
        pot = Potential8D("sho", omega=omega, c=c)
        exact = [singular_oscillator_energy(QuantumNumbers(N, L), omega, c) for N in range(3)]
        self._check(build_radial_problem("osc8", potential=pot, L=L), Grid(n=800), 3, exact)

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
        self._check(prob, Grid(n=2000, spacing=spacing, stretch=4.0), 2, exact)

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
        self._check(problem, Grid(n=3000), k, exact)

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


def test_bench_osc8_solve_stops_below_4015_nodes():
    # the bench's osc8 solves (k = 4 on Grid(n=4000)) meet the target with
    # R3 on their fifth rung, 2015 nodes, where R2 needed 4015 or 8031
    pot = Potential8D("sho", omega=1.0)
    spec = fd_eigensolve(build_radial_problem("osc8", potential=pot), Grid(n=4000), 4)
    assert len(spec.grid) == 2015
    exact = [singular_oscillator_energy(QuantumNumbers(N, 0), 1.0, 0.0) for N in range(4)]
    assert np.all(spec.convergence <= 1e-10 * np.abs(spec.eigenvalues))
    np.testing.assert_allclose(spec.eigenvalues, exact, rtol=1e-11)


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
    assert fields(Spectrum) == ["eigenvalues", "grid", "convergence", "node_counts"]
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
_COUL9 = build_radial_problem("coul9", Z=1.0, lam=0.0, rmax=260.0)
_KERNEL_CASES = {  # (problem, grid, states, energy of the pencil shift)
    "osc8": (
        build_radial_problem("osc8", potential=Potential8D("sho", omega=1.0, c=1.0), L=1),
        Grid(n=2000),
        3,
        0.0,
    ),
    "coul9-uniform": (_COUL9, Grid(n=4000), 2, 0.0),
    "coul9-log": (_COUL9, Grid(n=4000, spacing="log", stretch=4.0), 2, 0.0),
    "theta": (build_radial_problem("theta", micz=_PARA_MICZ), Grid(n=3000), 3, 0.0),
    **{
        kind: (
            build_radial_problem(kind, model=_sho_model(), micz=_PARA_MICZ, energy=0.0, wmax=250.0),
            Grid(n=1500),
            3,
            -0.02,
        )
        for kind in ("para_u", "para_v")
    },
}


# fd_eigensolve cases of the first-pass guard: (problem, grid, states)
_FD_CASES = {
    **{case: _KERNEL_CASES[case][:3] for case in ("osc8", "coul9-uniform", "coul9-log", "theta")},
    "qes-super2": (_qes_problem("super2", 2, 0.05), Grid(n=3000), 4),
    "qes-sub2": (_qes_problem("sub2", 2, 1.0), Grid(n=3000), 4),
}
# gtsv solves per kernel call, the bottom rung's bisection first: every case
# meets the target below the cap, the uniform-grid Coulomb states at the
# second R3 test, four rungs above the bottom one, and the others at the
# first, three rungs up
_FD_SOLVES = {
    "osc8": [0, 6, 6, 3],
    "coul9-uniform": [0, 4, 4, 4, 2],
    "coul9-log": [2, 4, 2, 2],
    "theta": [0, 5, 3, 3],
    "qes-super2": [0, 8, 6, 4],
    "qes-sub2": [0, 8, 8, 4],
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
        # fine grid's 2n + 1 nodes, start inverse iteration as in
        # fd_eigensolve, and no bisection follows
        problem, grid, k, energy = _KERNEL_CASES[case]
        fine = _fine(case)
        mu, chi = numeric.eigh_tridiagonal(*_matrix(problem, grid, grid.n, energy), 0, k - 1)
        cold = numeric.eigh_tridiagonal(*fine, 0, k - 1)
        warm = numeric.eigh_tridiagonal(*fine, 0, k - 1, mu, _prolong(chi))
        assert solves == {"calls": 3, "cold": 2, "bisections": 2}
        assert passes[-1] == k  # every column certifies on its first solve
        _assert_same_eigenpairs(warm, cold, fine[0])

    @settings(max_examples=30, deadline=None)
    @given(
        case=st_.sampled_from(["osc8", "coul9-log", "para_v"]),
        first=st_.integers(0, 2),
        shifts=st_.lists(st_.floats(-0.5, 0.5), min_size=1, max_size=3),
        noise=st_.floats(0.0, 1.0),
        seed=st_.integers(0, 2**32 - 1),
    )
    # midway between two log-grid eigenvalues and with noise of half the
    # vector's norm, the column certifies on its third and last solve
    @example(case="coul9-log", first=1, shifts=[0.5], noise=0.5, seed=0)
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
        mu, chi = _cold("osc8", 0, 2)
        solves.update(dict.fromkeys(solves, 0))  # count the call under test only
        other = slice(neighbour, neighbour + 1)
        fine = _fine("osc8")
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
        "n, bisected, warm",
        [(1000, [65], [131, 263, 527, 1055]), (16384, [1025], [2051, 4103, 8207])],
        ids=["n=1000", "n=16384"],
    )
    def test_fd_eigensolve_bisects_the_bottom_rung_only(self, solves, rows, n, bisected, warm):
        # the bottom rung of max(n / 16, 16 k, 64) nodes, made odd, bisects,
        # however many nodes it has, and every rung after m nodes has 2m + 1
        # and starts from the rungs below it.  On n = 1000 this state's bar
        # stays above the target, so the climb runs to the first rung of at
        # least 2n + 1 nodes; on n = 16384 it meets the target at the first
        # R3 test, three rungs up
        prob = build_radial_problem("osc8", potential=Potential8D("sho", omega=1.0))
        fd_eigensolve(prob, Grid(n=n), 1)
        assert solves == {"calls": 1 + len(warm), "cold": 1, "bisections": 1}
        assert rows == {"bisected": bisected, "warm": warm}

    @pytest.mark.parametrize("case", list(_FD_CASES))
    def test_fd_eigensolve_keeps_the_first_certified_pass(self, solves, rows, passes, case):
        # the first rung above the bottom one starts from the bottom rung's
        # quotients and every later one from the Richardson prediction of
        # the two below it, each from the rung below prolonged; a column
        # takes at most two solves, and from the third rung above the bottom
        # on one (two up to the fourth on the uniform Coulomb grid).  Only
        # the bottom rung bisects; on the log grid its loose bisection
        # misses the certificates and each vector takes one more solve
        problem, grid, k = _FD_CASES[case]
        fd_eigensolve(problem, grid, k)
        rungs = [max(grid.n // 16, 16 * k, 64) | 1]
        for _ in passes[1:]:
            rungs.append(2 * rungs[-1] + 1)
        assert rows == {"bisected": rungs[:1], "warm": rungs[1:]}
        assert passes == _FD_SOLVES[case]

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
