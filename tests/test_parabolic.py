import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from hurwitz_kepler.errors import BracketError
from hurwitz_kepler.numeric import (
    Grid,
    _assemble,
    _shifted,
    build_radial_problem,
    fd_eigensolve,
    parabolic_joint_solve,
    spherical_micz_energies,
)
from hurwitz_kepler.potentials import MiczParams, OscillatorModel, Potential8D


def _coulomb_model(omega=1.0, Z=1.0):
    p = Potential8D("sho", omega=omega)
    return OscillatorModel(p1=p, p2=p, Z1=0.5 * Z, Z2=0.5 * Z)


class TestPureCoulomb:
    def test_ground_state(self):
        st = parabolic_joint_solve(
            _coulomb_model(), MiczParams(Z=1.0), Grid(n=1500), bracket=(-0.045, -0.024)
        )
        assert st.E == pytest.approx(-1.0 / 32.0, abs=1e-5 / 32.0)
        assert (st.node_u, st.node_v) == (0, 0)
        assert abs(st.P) < 1e-6
        assert st.residual_u < 1e-8 and st.residual_v < 1e-8

    def test_first_excited(self):
        st = parabolic_joint_solve(
            _coulomb_model(), MiczParams(Z=1.0), Grid(n=1500), bracket=(-0.024, -0.017)
        )
        assert st.E == pytest.approx(-0.02, rel=1e-6)
        # parabolic quantization: P = Z1 - kappa (n_u + 2) = 0.5 - 0.6 = -0.1
        assert abs(st.P) == pytest.approx(0.1, rel=1e-5)
        assert st.node_u + st.node_v == 1

    def test_empty_bracket(self):
        with pytest.raises(BracketError) as info:
            parabolic_joint_solve(
                _coulomb_model(), MiczParams(Z=1.0), Grid(n=800), bracket=(-0.028, -0.024)
            )
        assert info.value.bracket == (-0.028, -0.024)
        mism = info.value.endpoint_mismatch
        assert set(mism) == {(i, j) for i in range(3) for j in range(3 - i)}
        # no pair changes sign; the mismatch falls with E
        for f_lo, f_hi in mism.values():
            assert f_lo * f_hi > 0.0
            assert f_lo > f_hi

    @pytest.mark.parametrize(
        "bracket, exact", [((-0.045, -0.024), -1.0 / 32.0), ((-0.024, -0.017), -0.02)]
    )
    def test_error_bar_bounds_error(self, bracket, exact):
        st = parabolic_joint_solve(_coulomb_model(), MiczParams(Z=1.0), Grid(n=1500), bracket=bracket)
        assert abs(st.E - exact) <= st.E_error
        assert st.E_error <= 1e-5 * abs(st.E)
        assert 0 < st.solves <= 40


class TestGeneralizedMicz:
    def test_cross_chart_ground(self):
        micz = MiczParams(Z=1.0, c1=1.0, c2=2.0)
        du = 0.5 * (-3.0 + math.sqrt(17.0))
        s0 = du + 1.0 + 4.0
        e_est = -1.0 / (2.0 * s0**2)
        st = parabolic_joint_solve(
            _coulomb_model(), micz, Grid(n=1500), bracket=(1.3 * e_est, 0.8 * e_est)
        )
        states = spherical_micz_energies(
            micz, n_theta=1, n_radial=1, grid_theta=Grid(n=3000),
            grid_radial=Grid(n=4000), rmax=300.0,
        )
        assert abs(st.E - states[0][0]) / abs(states[0][0]) <= 1e-5
        # independent closed form for the separation constant:
        # P = Z1 - kappa (n_u + delta_u + 2) with delta_u the regular
        # exponent of the u-equation and kappa = sqrt(-2E)
        kappa = math.sqrt(-2.0 * st.E)
        p_exact = 0.5 - kappa * (st.node_u + du + 2.0)
        assert st.P == pytest.approx(p_exact, rel=1e-6)
        assert (st.node_u, st.node_v) == (0, 0)


    def test_degenerate_pick_uses_extrapolated_energies(self):
        # the first excited level of (c1, c2) = (1, 2) has node pairs (1, 0)
        # and (0, 1); with the 1e-8 group formed from extrapolated energies
        # both are in it and the smaller |P| belongs to (1, 0)
        micz = MiczParams(Z=1.0, c1=1.0, c2=2.0)
        du = 0.5 * (-3.0 + math.sqrt(17.0))
        dv = 1.0
        e_est = -1.0 / (2.0 * (du + dv + 5.0) ** 2)
        st = parabolic_joint_solve(
            _coulomb_model(), micz, Grid(n=1500), bracket=(1.3 * e_est, 0.8 * e_est)
        )
        assert (st.node_u, st.node_v) == (1, 0)
        kappa = math.sqrt(-2.0 * st.E)
        assert st.P == pytest.approx(0.5 - kappa * (st.node_u + du + 2.0), rel=1e-6)
        assert st.P == pytest.approx(-0.042791, abs=1e-6)


def _pencils(c1, c2, wmax=250.0, n=400):
    """Fine-grid pencils (u, v) of the pure Coulomb model, assembled at E = 0."""
    micz = MiczParams(Z=1.0, c1=c1, c2=c2)
    return [
        _assemble(
            build_radial_problem(kind, model=_coulomb_model(), micz=micz, energy=0.0, wmax=wmax),
            Grid(n=n),
            0.0,
            wmax,
            n,
        )
        for kind in ("para_u", "para_v")
    ]


strength = st_.floats(min_value=0.0, max_value=3.0)


class TestPencilProperties:
    @settings(max_examples=20, deadline=None)
    @given(c1=strength, c2=strength, energy=st_.floats(min_value=-0.05, max_value=-0.01))
    def test_hellmann_feynman_slope(self, c1, c2, energy):
        h = 1e-4 * abs(energy)
        for pencil in _pencils(c1, c2):
            _, _, slope = _shifted(pencil, energy, 0, 2)
            up = _shifted(pencil, energy + h, 0, 2)[0]
            down = _shifted(pencil, energy - h, 0, 2)[0]
            np.testing.assert_allclose(slope, (up - down) / (2.0 * h), rtol=1e-6)

    @settings(max_examples=20, deadline=None)
    @given(c1=strength, c2=strength)
    def test_mismatch_strictly_decreasing(self, c1, c2):
        pu, pv = _pencils(c1, c2)
        sweep = np.linspace(-0.06, -0.005, 12)
        mu_u = np.array([_shifted(pu, e, 0, 2)[0] for e in sweep])
        mu_v = np.array([_shifted(pv, e, 0, 2)[0] for e in sweep])
        for i in range(3):
            for j in range(3 - i):
                assert np.all(np.diff(mu_u[:, i] + mu_v[:, j]) < 0.0)


class TestPerturbativeOracle:
    def test_small_quartic_shift(self):
        # model 4 factors with tiny equal quartic couplings; first-order
        # perturbation theory on the unperturbed (pure Coulomb) parabolic
        # eigenpairs predicts the energy shift
        b = 1e-3
        base = _coulomb_model()
        pert_p = Potential8D("super2", omega=1.0, b=b)
        pert = OscillatorModel(p1=pert_p, p2=pert_p, Z1=0.5, Z2=0.5)
        micz = MiczParams(Z=1.0)
        grid = Grid(n=1500)

        e0 = parabolic_joint_solve(base, micz, grid, bracket=(-0.045, -0.024), branch_max=1).E
        e1 = parabolic_joint_solve(pert, micz, grid, bracket=(-0.045, -0.005), branch_max=1).E
        shift = e1 - e0

        # first-order estimate: delta q = (b w^2 / 4) / w on each equation;
        # dF/dE from d(q)/dE = -1/2, all in the 1/w-mass inner product
        wmax = 50.0 / math.sqrt(2.0 * 0.024)
        n = max(grid.n, int(wmax / 0.12))
        work = Grid(n=n)
        num = 0.0
        den = 0.0
        for kind in ("para_u", "para_v"):
            prob = build_radial_problem(kind, model=base, micz=micz, energy=e0, wmax=wmax)
            spec = fd_eigensolve(prob, work, 1)
            w = spec.grid
            R = spec.eigenvectors[:, 0]
            meas = prob.weight(w)  # uniform grid: constant Jacobian cancels
            norm_mass = np.sum(R * R * meas / w)
            num += np.sum(R * R * meas * (b * w / 4.0)) / norm_mass
            den += -0.5 * np.sum(R * R * meas) / norm_mass
        estimate = -num / den
        assert shift == pytest.approx(estimate, rel=0.2)
        assert shift > 0.0  # repulsive quartic raises the energy
