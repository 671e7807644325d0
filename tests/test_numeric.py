import math

import numpy as np
import pytest

from hurwitz_kepler.analytic import QuantumNumbers, singular_oscillator_energy
from hurwitz_kepler.errors import AccuracyError, SeparabilityError
from hurwitz_kepler.numeric import (
    Grid,
    RadialProblem,
    build_radial_problem,
    fd_eigensolve,
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
            "osc8", potential=Potential8D("sub2", omega=1.0, b=-4.0), L=0, rmax=12.0
        )
        with pytest.raises(AccuracyError, match="grid doubling did not converge"):
            fd_eigensolve(prob, Grid(n=64), 1)

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

    def test_residuals_and_ordering(self):
        prob = build_radial_problem("osc8", potential=Potential8D("sho", omega=1.0), L=1)
        spec = fd_eigensolve(prob, Grid(n=2000), 4)
        assert np.all(np.diff(spec.eigenvalues) > 0)
        assert spec.node_counts == (0, 1, 2, 3)

    def test_symmetrization_gives_weighted_orthogonality(self):
        # the discrete operator is exactly symmetric under diag(sqrt(mass)),
        # so distinct eigenvectors must be orthogonal in the mass-weighted
        # inner product (here the parabolic problem with its 1/u factor)
        from hurwitz_kepler.numeric import _mapped_nodes

        model = _sho_model()
        prob = build_radial_problem(
            "para_u", model=model, micz=MiczParams(Z=1.0, c1=0.5), energy=-0.03, wmax=200.0
        )
        grid = Grid(n=1600)
        spec = fd_eigensolve(prob, grid, 3)
        n = len(spec.grid)
        x, g, _, _, _ = _mapped_nodes(grid, 0.0, prob.domain[1], n)
        mass = prob.weight(x) * g * prob.mass_term(x)
        R = spec.eigenvectors
        gram = R.T @ (mass[:, None] * R)
        offdiag = gram / np.sqrt(np.outer(np.diag(gram), np.diag(gram)))
        assert np.max(np.abs(offdiag - np.eye(3))) < 1e-10


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
    # on Grid(n=64) the c1 = c2 = 0 polar ground eigenvalue comes out slightly
    # negative; the radial solve must use it as computed, not clamped to 0
    micz = MiczParams(Z=1.0)
    lam = fd_eigensolve(build_radial_problem("theta", micz=micz), Grid(n=64), 1).eigenvalues[0]
    assert lam < 0.0
    ((E, it, N, lam_out),) = spherical_micz_energies(micz, 1, 1, Grid(n=64), Grid(n=1000), rmax=260.0)
    assert (it, N, lam_out) == (0, 0, lam)
    radial = build_radial_problem("coul9", Z=1.0, lam=lam, rmax=260.0)
    assert E == fd_eigensolve(radial, Grid(n=1000), 1).eigenvalues[0]


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
    assert params(qes_solve) == ["p", "family", "potential"]
    assert fields(JointState) == ["E", "P", "node_u", "node_v", "E_error", "solves"]
    assert fields(Spectrum) == ["eigenvalues", "eigenvectors", "grid", "convergence", "node_counts"]
    assert fields(QesSolution) == [
        "family", "energies", "polynomials", "gauge", "power", "charges", "closure_residual"
    ]
