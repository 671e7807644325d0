import functools
import math
import sys
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st_
from scipy.optimize import brentq

from hurwitz_kepler import numeric
from hurwitz_kepler.analytic import (
    QesPrimedParams,
    QuantumNumbers,
    qes_map_sub2,
    qes_map_super2,
    qes_solve,
    singular_oscillator_energy,
)
from hurwitz_kepler.errors import AccuracyError, BracketError, ConfigError, SeparabilityError
from hurwitz_kepler.numeric import (
    Grid,
    RadialProblem,
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

    @pytest.mark.parametrize("L", [2.7, -1, math.inf, math.nan])
    def test_non_integral_or_negative_L_rejected(self, L):
        # never truncated: L = 2.7 would solve L = 2, and L = -1 the same
        # centrifugal term as L = -5; inf and nan are not integers either
        with pytest.raises(ValueError, match=f"nonnegative integer L, got {L!r}"):
            build_radial_problem("osc8", potential=Potential8D("sho", omega=1.0), L=L)

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


@pytest.mark.parametrize(
    "kind, params, key",
    [
        ("osc8", {"potential": Potential8D("sho", omega=1.0), "l": 2}, "l"),
        ("coul9", {"Z": 1.0, "lam": 0.0, "L": 1}, "L"),
        ("theta", {"micz": MiczParams(Z=1.0), "rmax": math.pi}, "rmax"),
    ],
    ids=["osc8", "coul9", "theta"],
)
def test_builder_rejects_unread_keyword(kind, params, key):
    # a keyword the kind does not read is an error, not a default: the typo
    # l=2 would otherwise solve L = 0
    with pytest.raises(ConfigError, match=rf"unknown key\(s\) in {kind} problem: \['{key}'\]"):
        build_radial_problem(kind, **params)


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
        # so no basis holds its states: the levels of the Kronecker-sum
        # pencil keep falling as the basis grows, and none above E_lo
        # settles by the enumeration's largest basis
        p1 = Potential8D("super2", omega=1.0, b=-1e-2)
        model = OscillatorModel(p1=p1, p2=Potential8D("sho", omega=1.0), Z1=0.5, Z2=0.5)
        with pytest.raises(BracketError, match=r"the window \(-0.045, -0.024\) holds no resolved level"):
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


_PARA_MODEL = OscillatorModel(
    p1=Potential8D("sub2", omega=1.0, a=0.3, b=0.2),
    p2=Potential8D("super2", omega=1.0, a=0.01, b=0.1),
    Z1=0.4,
    Z2=0.6,
)


class TestParaBuilders:
    # numeric.parabolic_pair builds the two parabolic equations at one energy
    # on one basis scale; the joint search builds them at E = 0 and carries
    # the energy on the pencil's WB
    def test_para_u_effective_term_matches_w(self):
        # the u-equation takes p1, Z1 and alpha_u = (J (J + 6) + 8 c1) / 4,
        # and its source times w is the factor potential at rho^2 = w/2
        # without its harmonic term, minus Z1
        u, _ = numeric.parabolic_pair(_PARA_MODEL, MiczParams(Z=1.0, c1=0.5, J=1), 2.5, 0.0)
        w = np.array([0.5, 1.0, 2.0, 8.0])
        w_direct = 0.2 * np.sqrt(2.0 / w) + 0.3 * np.sqrt(w / 2.0) - 0.4
        np.testing.assert_allclose(u.effective_term(w) * w, w_direct, rtol=1e-13)
        assert u.centrifugal_coeff == (1 * 7 + 8 * 0.5) / 4.0
        assert (u.weight_exponent, u.mass_power, u.basis_scale, u.basis_power) == (4, -1, 2.5, 1)

    def test_para_v_slot(self):
        # the v-equation takes p2, Z2 and alpha_v = (L (L + 6) + 8 c2) / 4
        _, v = numeric.parabolic_pair(_PARA_MODEL, MiczParams(Z=1.0, c2=2.0, L=2), 2.5, 0.0)
        w = np.array([0.5, 1.0, 2.0, 8.0])
        w_direct = 0.1 * (w / 2.0) ** 2 + 0.01 * (w / 2.0) ** 3 - 0.6
        np.testing.assert_allclose(v.effective_term(w) * w, w_direct, rtol=1e-13)
        assert v.centrifugal_coeff == (2 * 8 + 8 * 2.0) / 4.0
        assert (v.weight_exponent, v.mass_power, v.basis_scale, v.basis_power) == (4, -1, 2.5, 1)

    @pytest.mark.parametrize("energy", [-0.5, -0.02])
    def test_energy_matrix_carries_the_energy(self, energy):
        # W0 - (E/2) WB of the pair at E = 0 is, to a few roundings, the pencil
        # of the pair built at E, whose sources hold the harmonic term -E w/2
        micz = MiczParams(Z=1.0, c1=0.5, c2=1.0)
        pairs = (numeric.parabolic_pair(_PARA_MODEL, micz, 3.0, e) for e in (0.0, energy))
        for problem, at_energy in zip(*pairs):
            w0, _, _, wb = numeric._whitened(problem, 16)
            reference, rounding, _, _ = numeric._whitened(at_energy, 16)
            np.testing.assert_allclose(w0 - 0.5 * energy * wb, reference, rtol=0.0, atol=4.0 * rounding)


def _cold_pencil(problem, size):
    """Whitened pencil, inverse factor, energy matrix and sign sample L^-1 fine of ``problem``, all cold.

    The assembly of ``numeric._whitened``'s docstring on the uncached basis
    tables, at the problem's basis scale, with L^-1 from a Cholesky factor
    of the problem's own mass and a triangular solve.
    """
    if problem.weight_kind == "sin7":
        tau, sigma = (numeric._pole_exponent(3.0, alpha) for alpha in problem.pole_strengths)
        x, values, stiffness, fine = numeric._basis(2.0 * tau + 2.0, 2.0 * sigma + 2.0, size)
        moment = mass = 0.25 * (1.0 - x * x)
        source = mass * problem.effective_term(np.arccos(-x))
    else:
        k, p, beta = problem.weight_exponent, problem.basis_power, problem.basis_scale
        s = numeric._pole_exponent(k - 1.0, problem.centrifugal_coeff)
        t, values, stiffness, fine = numeric._basis((2.0 * s + k - 1.0) / p - 1.0, None, size)
        stiffness = p * p * stiffness
        r = beta * t ** (1.0 / p)
        moment, source, mass = r * r, r * r * problem.effective_term(r), r ** (2 + problem.mass_power)
    factor = np.linalg.cholesky((values * mass) @ values.T)
    inverse = scipy.linalg.solve_triangular(factor, np.eye(size), lower=True)
    pencil = inverse @ (stiffness + (values * source) @ values.T) @ inverse.T
    return pencil, inverse, inverse @ ((values * moment) @ values.T) @ inverse.T, inverse @ fine


_CACHED_CASES = {
    "osc8": build_radial_problem("osc8", potential=Potential8D("sho", omega=1.3, c=1.0), L=1),
    "coul9": build_radial_problem("coul9", Z=1.2, lam=2.5),
    "para_u": numeric.parabolic_pair(_sho_model(), MiczParams(Z=1.0, c1=0.5), 4.0, 0.0)[0],
    "theta": build_radial_problem("theta", micz=MiczParams(Z=1.0, c1=1.0, c2=2.0)),
}


class TestCachedPencil:
    # the whitened stiffness, energy matrix and sign sample are cached with
    # the basis and scaled by a power of beta: p = 2 (osc8), p = 1 (coul9),
    # the 1/w mass (para_u) and the sin^7 weight (theta) match a cold
    # Cholesky assembly.  The cached sample leaves out the positive factor
    # beta^-(1 + j/2) of L^-1, which moves no sign.  Whitening by L^-1
    # magnifies the rounding of every entry by up to cond(L), so a few
    # roundings are eps cond(L) times the norm
    @pytest.mark.parametrize("case", list(_CACHED_CASES))
    @pytest.mark.parametrize("scale", [1.0, 0.37, 2.9])
    def test_matches_cold_assembly(self, case, scale):
        problem = _CACHED_CASES[case]
        factor = 1.0
        if problem.weight_kind == "power":
            problem = replace(problem, basis_scale=scale * problem.basis_scale)
            factor = problem.basis_scale ** (1.0 + 0.5 * problem.mass_power)
        for size in (16, 32):
            pencil, rounding, sample, energy = numeric._whitened(problem, size)
            cold_pencil, inverse, cold_energy, cold_sample = _cold_pencil(problem, size)
            cond = np.linalg.cond(inverse)
            for table, reference in zip((pencil, energy, sample), (cold_pencil, cold_energy, factor * cold_sample)):
                bound = 4.0 * cond * _EPS * np.linalg.norm(reference)
                assert np.max(np.abs(table - reference)) <= bound
            assert rounding == _EPS * np.linalg.norm(pencil)
            assert sample.shape[0] == size and not sample.flags.writeable

    @pytest.mark.parametrize("case", ["osc8", "coul9"])
    def test_second_scale_hits_the_cache(self, case):
        # a solve at a second beta reads the tables of the first: hits, no miss
        problem = _CACHED_CASES[case]
        fd_eigensolve(problem, Grid(n=1000), 2)
        before = numeric._whitening.cache_info()
        fd_eigensolve(replace(problem, basis_scale=1.2 * problem.basis_scale), Grid(n=1000), 2)
        after = numeric._whitening.cache_info()
        assert after.misses == before.misses and after.hits > before.hits

    def test_second_bracket_hits_the_cache(self):
        # the joint search scales both bases by 1 / sqrt(-2 E_hi), so a
        # bracket with another upper end reads the tables of the first
        model, micz = _sho_model(), MiczParams(Z=1.0)
        parabolic_joint_solve(model, micz, Grid(n=1500), (-0.045, -0.024))
        before = numeric._whitening.cache_info()
        parabolic_joint_solve(model, micz, Grid(n=1500), (-0.04, -0.028))
        after = numeric._whitening.cache_info()
        assert after.misses == before.misses and after.hits >= before.hits + 2

    def test_warm_solve_factors_nothing(self, monkeypatch):
        # a warm osc8 solve makes no Cholesky factor and no inverse
        problem, calls = _CACHED_CASES["osc8"], []

        def counted(name, wrapped):
            def call(*args):
                calls.append(name)
                return wrapped(*args)

            return call

        first = fd_eigensolve(problem, Grid(n=4000), 4)
        for name in ("cholesky", "inv"):
            monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
        warm = fd_eigensolve(problem, Grid(n=4000), 4)
        assert calls == []
        np.testing.assert_array_equal(warm.eigenvalues, first.eigenvalues)
        # a basis the cache has not seen factors its mass once per table
        misses = numeric._whitening.cache_info().misses
        fd_eigensolve(replace(problem, centrifugal_coeff=problem.centrifugal_coeff + 0.123), Grid(n=4000), 4)
        misses = numeric._whitening.cache_info().misses - misses
        assert misses > 0 and calls == ["cholesky", "inv"] * misses

    def test_sin7_takes_no_mass_power(self):
        with pytest.raises(ValueError, match="sin7 weight takes no mass power"):
            replace(_CACHED_CASES["theta"], mass_power=-1)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("c, state, count", [(1e29, 0, 1), (1e30, 0, 2), (1e150, 1, 0)])
def test_fd_eigensolve_checks_its_node_counts(c, state, count):
    # at such a c the basis no longer resolves the states: their sign
    # changes were (1, 1, 3, 3), (2, 1, 2, 3) and (0, 0, 0, 0), unchecked
    prob = build_radial_problem("osc8", potential=Potential8D("sho", omega=1.0, c=c), L=0)
    with pytest.raises(AccuracyError, match=rf"Ritz function of state {state} on \d+ basis functions has {count} sign"):
        fd_eigensolve(prob, Grid(n=2000), 4)


@pytest.mark.parametrize("dim", [8.7, -3, math.inf, math.nan])
def test_qes_problem_rejects_non_integral_or_negative_dim(dim):
    # never truncated: dim = 8.7 solved dim = 8, and dim = -3 returned 4.24
    with pytest.raises(ValueError, match=f"nonnegative integer dim, got {dim!r}"):
        qes_verification_problem(Potential8D("sho", omega=1.0), dim)


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
    (charge,) = solve(_sturmian(lam), Grid(n=1000), 1).eigenvalues
    assert charge == pytest.approx(4.0 + 0.5 * (-7.0 + math.sqrt(49.0 + 4.0 * lam)), rel=1e-14)
    assert E == -0.5 * (1.0 / charge) ** 2


def _sturmian(lam, rmax=math.inf):
    """The radial equation of ``spherical_micz_energies`` at E = -1/2: its eigenvalues are the charges Z_N."""
    return RadialProblem(
        8, lam, lambda r: 1.0, (0.0, rmax), mass_power=-1, eigenvalue_scale=0.5, basis_scale=0.5, basis_power=1
    )


@pytest.mark.parametrize("c1, c2", [(0.0, 0.0), (1.0, 2.0), (2e3, 0.0), (1e12, 3.0)])
def test_spherical_radial_solves_stop_on_8_functions(monkeypatch, c1, c2):
    # on the scale 1/2 at E = -1/2 the basis holds every radial state, so the
    # first test after 4 functions finds the charges at rounding level (the
    # fixed-charge scale 3/Z took 16 to 20, and 512 failed from c1 = 2e3)
    calls, solve = [], numeric.fd_eigensolve

    def record(problem, grid, k):
        calls.append((problem, grid, k))
        return solve(problem, grid, k)

    monkeypatch.setattr(numeric, "fd_eigensolve", record)
    spherical_micz_energies(MiczParams(Z=1.0, c1=c1, c2=c2), 2, 2, Grid(n=3000), Grid(n=4000))
    radial = [call for call in calls if call[0].weight_kind == "power"]
    assert [(problem.mass_power, problem.basis_scale, k) for problem, _, k in radial] == [(-1, 0.5, 2)] * 2
    assert [_basis_size(monkeypatch, *call) for call in radial] == [8, 8]


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
        roundings.append(out[1])
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
        # form (the Sturmian charges Z_N = N + l + 4 at E = -1/2), the
        # charge's bar reaches E = -(Z / Z_N)^2 / 2 through 2 |E| / Z_N and
        # the polar bar through dE/dLambda
        micz = MiczParams(Z=Z, c1=c1, c2=c2)
        grid_theta, grid_radial, rmax = Grid(n=3000), Grid(n=4000), 320.0 / Z
        states = spherical_micz_energies(micz, 2, 2, grid_theta, grid_radial, rmax)
        shift = 0.5 * (math.sqrt(9.0 + 8.0 * c1) + math.sqrt(9.0 + 8.0 * c2)) - 3.0
        exact = [(n + shift) * (n + shift + 7.0) for n in range(2)]
        polar = self._check(build_radial_problem("theta", micz=micz), grid_theta, 2, exact)
        for E, it, N, lam in states:
            ell = 0.5 * (-7.0 + math.sqrt(49.0 + 4.0 * lam))
            radial = self._check(_sturmian(lam, rmax), grid_radial, 2, [n + ell + 4.0 for n in range(2)])
            charge = radial.eigenvalues[N]
            assert E == -0.5 * (Z / charge) ** 2
            s = N + it + shift + 4.0
            slope = Z**2 / (s**3 * (2.0 * (it + shift) + 7.0))
            bar = 2.0 * abs(E) * radial.convergence[N] / charge + slope * polar.convergence[it]
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
    # geometrically, all within the first block of 32 functions.  A log grid
    # changes nothing.
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
    "qes-super2": (_qes_problem("super2", 2, 0.05), Grid(n=3000), 4, 28),
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
    assert params(numeric.parabolic_pair) == ["model", "micz", "beta", "energy"]
    assert params(qes_solve) == ["p", "family"]
    assert fields(JointState) == ["E", "P", "node_u", "node_v", "E_error", "solves"]
    assert fields(Spectrum) == ["eigenvalues", "convergence", "node_counts"]
    assert fields(QesSolution) == [
        "family", "energies", "polynomials", "gauge", "power", "charges", "closure_residual"
    ]


# ---------------------------------------------------------------------------
# Basis growth: each size starts from the results of the size before


@pytest.fixture
def solves(monkeypatch):
    """Counts of calls of the tridiagonal kernel and of scipy's bisection, which no solver makes."""
    counts = {"calls": 0, "bisections": 0}
    kernel, bisect = numeric.eigh_tridiagonal, scipy.linalg.eigh_tridiagonal

    def counted_kernel(*args):
        counts["calls"] += 1
        return kernel(*args)

    def counted_bisect(*args, **kwargs):
        counts["bisections"] += 1
        return bisect(*args, **kwargs)

    monkeypatch.setattr(numeric, "eigh_tridiagonal", counted_kernel)
    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", counted_bisect)
    return counts


_EPS = np.finfo(float).eps
_PARA_MICZ = MiczParams(Z=1.0, c1=1.0, c2=2.0)


def _para_problems(model=None, micz=_PARA_MICZ, e_hi=-0.02):
    """The joint search's problems (u, v) for a bracket ending at ``e_hi``: basis scale 1 / sqrt(-2 E_hi)."""
    return numeric.parabolic_pair(model or _sho_model(), micz, 1.0 / math.sqrt(-2.0 * e_hi), 0.0)


def _para_level(level, micz=_PARA_MICZ, Z=1.0):
    """Closed-form energy -Z^2 / (2 (delta_u + delta_v + 4 + level)^2) of the sho model."""
    du, dv = (0.5 * (-3.0 + math.sqrt(9.0 + 8.0 * c)) for c in (micz.c1, micz.c2))
    return -(Z**2) / (2.0 * (du + dv + 4.0 + level) ** 2)


_SUB2_MODEL = OscillatorModel(
    Potential8D("sho", omega=1.0), Potential8D("sub2", omega=1.0, a=-0.2), 0.5, 0.5
)
_LOG = Grid(n=24, spacing="log", stretch=4.0)
_KERNEL_CASES = {  # (equation, model, grid that caps the block, quadrature share of the bound)
    "para_u": (0, _sho_model(), Grid(n=1500), 0.0),
    "para_v": (1, _sho_model(), Grid(n=1500), 0.0),
    "para_u-log": (0, _sho_model(), _LOG, 0.0),
    "para_v-log": (1, _sho_model(), _LOG, 0.0),
    "para_v-sub2": (1, _SUB2_MODEL, Grid(n=1500), 1e-9),
}


class TestWarmStart:
    @pytest.mark.parametrize("case", list(_KERNEL_CASES))
    def test_warm_matches_cold(self, solves, case):
        # the joint search assembles each equation once, on _BLOCK functions
        # or on the grid's cap if that is smaller (24 for the log grids,
        # whose spacing plays no part), and every basis size up to it reads
        # a leading block of that pencil (warm).  The basis is nested, so
        # that is the pencil assembled on n functions (cold): at a shifted
        # energy the three branches' eigenvalues agree to their rounding,
        # as do their Hellmann-Feynman slopes, and their Ritz functions have
        # 0, 1 and 2 sign changes.  The sho factors make w^2 q a polynomial
        # that both Gauss rules integrate exactly; the sub2 factors' linear
        # term does not, and the cold rule of n + _EXTRA nodes moves the
        # eigenvalues by up to 2e-10
        equation, model, grid, quadrature = _KERNEL_CASES[case]
        problem = _para_problems(model)[equation]
        cap = min(grid.n, numeric._MAX_BASIS)
        block = numeric._block([problem], numeric._FIRST_BASIS, cap)
        size = len(block[0][0])
        assert size == min(numeric._BLOCK, grid.n)
        for n in range(numeric._FIRST_BASIS, size + 1, numeric._STEP):
            assert numeric._block([problem], n, cap, block) is block
            cold = numeric._whitened(problem, n)
            (mu_w, chi_w, slope_w, r_w), (mu_c, chi_c, slope_c, r_c) = (
                numeric._shifted(pencil, n, -0.02, slice(3)) for pencil in (block[0], cold)
            )
            np.testing.assert_allclose(mu_w, mu_c, rtol=0.0, atol=4.0 * (r_w + r_c) + quadrature)
            np.testing.assert_allclose(slope_w, slope_c, rtol=1e-13 + quadrature)
            assert numeric._node_counts(block[0], n, chi_w) == [0, 1, 2]
            assert numeric._node_counts(cold, n, chi_c) == [0, 1, 2]
        assert solves == {"calls": 0, "bisections": 0}

    @settings(max_examples=30, deadline=None)
    @given(
        pair=st_.sampled_from([(0, 0), (1, 0), (0, 1)]),
        n=st_.sampled_from([12, 16]),
        shift=st_.floats(-0.5, 0.5),
    )
    # midway between the first excited level and the ground level
    @example(pair=(1, 0), n=12, shift=-0.5)
    def test_estimates_within_half_a_gap(self, pair, n, shift):
        # Newton from an estimate up to half a gap to the next level off
        # returns the pair's root on the pencils to within twice its
        # rounding floor, in at most five evaluations, and its Ritz
        # functions have the pair's node counts: the branch index, not the
        # start, picks the eigenvalues.  The sizes after the first search
        # without a bracket, as here
        level = sum(pair)
        energy = _para_level(level)
        gap = min(abs(energy - _para_level(other)) for other in (level - 1, level + 1) if other >= 0)
        pencils = numeric._block(_para_problems(e_hi=0.8 * energy), n, numeric._MAX_BASIS)

        def mismatch(e):
            return sum(numeric._shifted(p, n, e, b)[0] for p, b in zip(pencils, pair))

        ref = brentq(mismatch, energy - gap, energy + gap, xtol=1e-300, rtol=4.0 * _EPS)
        root, _, floor, evals, vectors = numeric._match_root(pencils, n, *pair, energy + shift * gap)
        assert abs(root - ref) <= 2.0 * floor
        assert evals <= 5
        counts = [numeric._node_counts(p, n, v[:, None])[0] for p, v in zip(pencils, vectors)]
        assert counts == list(pair)

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
        assert solves == {"calls": 0, "bisections": 0}
        sizes = list(range(-(-k // numeric._STEP) * numeric._STEP, size + 1, numeric._STEP))
        certified = []
        for n in sizes:
            matrix, rounding, _, _ = next(b for b in blocks if len(b[0]) >= n)
            ritz = np.linalg.eigh(matrix[:n, :n])[0][:k]
            if n > sizes[0]:
                certified.append(bool(np.all(np.abs(ritz - previous) <= rounding)))
            previous = ritz
        assert certified == [False] * (len(sizes) - 2) + [True]
        np.testing.assert_array_equal(spec.eigenvalues, ritz * problem.eigenvalue_scale)
        assert _basis_size(monkeypatch, problem, grid, k) == size

    @pytest.mark.parametrize(
        "bracket, pairs",
        [((-0.045, -0.024), [(0, 0)]), ((-0.024, -0.017), [(0, 1), (1, 0)])],
        ids=["level0", "level1"],
    )
    def test_joint_search_basis_growth(self, monkeypatch, solves, bracket, pairs):
        # the bench's Coulomb levels: one 32-function block per equation, no
        # tridiagonal solve, one Kronecker-sum solve on 6 functions and one
        # solve per equation at its lowest level above E_lo to find the
        # level's pairs, and each pair settles on 16 functions.  Every pair starts
        # on 12 from the lowest level above E_lo, and the root on 12 is the
        # start on 16; the level on 6 functions is the root on 12 to within
        # the Newton floor, so each size takes one Newton evaluation
        calls, match = [], numeric._match_root
        blocks, whitened = [], numeric._whitened
        enumerations, joint_levels = [], numeric._joint_levels

        def recorded_match(pencils, n, i, j, energy):
            out = match(pencils, n, i, j, energy)
            calls.append(((i, j), n, energy, out[0], out[3]))
            return out

        def recorded_whitened(problem, size):
            blocks.append(size)
            return whitened(problem, size)

        def recorded_levels(pencils, n):
            out = joint_levels(pencils, n)
            enumerations.append((n, out))
            return out

        monkeypatch.setattr(numeric, "_match_root", recorded_match)
        monkeypatch.setattr(numeric, "_whitened", recorded_whitened)
        monkeypatch.setattr(numeric, "_joint_levels", recorded_levels)
        st = parabolic_joint_solve(_sho_model(), MiczParams(Z=1.0), Grid(n=1500), bracket)
        assert solves == {"calls": 0, "bisections": 0}
        assert blocks == [32, 32]
        ((n, levels),) = enumerations
        assert n == 6
        level = levels[np.searchsorted(levels, bracket[0], side="right")]
        assert sorted({pair for pair, *_ in calls}) == pairs
        for pair in pairs:
            (_, n0, start0, root0, evals0), (_, n1, start1, _, evals1) = (
                c for c in calls if c[0] == pair
            )
            assert (n0, n1) == (12, 16)
            assert start0 == level and start1 == root0
            assert (evals0, evals1) == (1, 1)
        assert st.solves == 3 + 2 * sum(e for *_, e in calls)


def test_eigh_tridiagonal_wraps_scipy(monkeypatch):
    # the tracer of the bench binds the kernel by name; it is scipy's
    # bisection with select="i", and a LAPACK failure is an AccuracyError
    d, e = np.array([2.0, 2.0, 2.0]), np.array([-1.0, -1.0])
    mu, chi = eigh_tridiagonal(d, e, 0, 1)
    np.testing.assert_allclose(mu, [2.0 - math.sqrt(2.0), 2.0], rtol=1e-14)
    np.testing.assert_allclose(np.abs(chi[:, 0]), [0.5, math.sqrt(0.5), 0.5], rtol=1e-12)

    def fail(*args, **kwargs):
        raise scipy.linalg.LinAlgError("stebz did not converge")

    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", fail)
    with pytest.raises(AccuracyError, match="tridiagonal eigensolve failed: stebz"):
        eigh_tridiagonal(d, e, 0, 0)
