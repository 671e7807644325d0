import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from hurwitz_kepler import numeric
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
        assert st.solves == {(-0.045, -0.024): 12, (-0.024, -0.017): 20}[bracket]

    def test_first_domain_holds_for_three_branches(self, monkeypatch):
        # the search over three branches starts one rung up the x1.5
        # ladder and keeps that domain: one solve per equation
        calls = _record_contain(monkeypatch)
        parabolic_joint_solve(_coulomb_model(), MiczParams(Z=1.0), Grid(n=1500), bracket=(-0.045, -0.024))
        assert [solves for *_, solves in calls] == [2]


def _record_contain(monkeypatch):
    """The results (fine, coarse, eigenpairs, n, solves) of every later _contain call."""
    calls = []
    contain = numeric._contain

    def record(*args, **kwargs):
        calls.append(contain(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(numeric, "_contain", record)
    return calls


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


def _level(c1, c2, level, Z=1.0):
    """Closed-form energy -Z^2 / (2 (s0 + level)^2) of the sho model and delta_u."""
    du = 0.5 * (-3.0 + math.sqrt(9.0 + 8.0 * c1))
    dv = 0.5 * (-3.0 + math.sqrt(9.0 + 8.0 * c2))
    return -(Z**2) / (2.0 * (du + dv + 4.0 + level) ** 2), du


def _mismatch(pencils, i, j, energy):
    """F(E) = mu_u[i] + mu_v[j] on fixed pencils, and its slope."""
    (mu_u, _, s_u), (mu_v, _, s_v) = (_shifted(p, energy, b, b) for p, b in zip(pencils, (i, j)))
    return mu_u[0] + mu_v[0], s_u[0] + s_v[0]


def _bisection_root(pencils, i, j, lo, hi):
    """Root of F by bisection on (lo, hi) to a width far below the rounding floor."""
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if _mismatch(pencils, i, j, mid)[0] > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _rounding_floor(pencils, i, j, energy):
    """eps (|T_u| + |T_v|) / |F'| at ``energy``: how well F's root is defined."""
    norm = sum(
        np.max(np.abs(d0 - 0.5 * energy * x)) + 2.0 * np.max(np.abs(e)) for d0, e, x, _ in pencils
    )
    return np.finfo(float).eps * norm / abs(_mismatch(pencils, i, j, energy)[1])


def _recorded_search(monkeypatch, model, grid, bracket):
    """The search and, for the returned pair, (pencils, start, root) on each grid."""
    roots = {}
    match = numeric._match_root

    def record(pencils, i, j, energy, lo, hi):
        out = match(pencils, i, j, energy, lo, hi)
        roots.setdefault((i, j), []).append((pencils, energy, out[0]))
        return out

    monkeypatch.setattr(numeric, "_match_root", record)
    st = parabolic_joint_solve(model, MiczParams(Z=model.Z), grid, bracket=bracket)
    return st, roots[st.node_u, st.node_v]


def _assert_roots_of_the_pencils(st, fine, coarse, bracket):
    # each grid's root is F's root on those pencils to within its rounding
    # floor, whatever the Newton start
    refs, floors = [], []
    for pencils, _, root in (fine, coarse):
        refs.append(_bisection_root(pencils, st.node_u, st.node_v, *bracket))
        floors.append(_rounding_floor(pencils, st.node_u, st.node_v, refs[-1]))
        assert abs(root - refs[-1]) <= 2.0 * floors[-1]
    assert abs(st.E - (4.0 * refs[0] - refs[1]) / 3.0) <= (8.0 * floors[0] + 2.0 * floors[1]) / 3.0


class TestSturmianSeed:
    @settings(max_examples=12, deadline=None)
    @given(c1=strength, c2=strength, level=st_.sampled_from([0, 1]))
    def test_sho_levels(self, c1, c2, level):
        Z = 4.0
        exact, du = _level(c1, c2, level, Z)
        bracket = (_level(c1, c2, level - 0.5, Z)[0], _level(c1, c2, level + 0.5, Z)[0])
        st = parabolic_joint_solve(
            _coulomb_model(Z=Z), MiczParams(Z=Z, c1=c1, c2=c2), Grid(n=3000), bracket=bracket
        )
        assert abs(st.E - exact) <= max(st.E_error, 1e-9 * abs(exact))
        assert st.node_u + st.node_v == level
        if level == 0:
            assert (st.node_u, st.node_v) == (0, 0)
        # the pair's separation constant P = Z1 - kappa (n_u + delta_u + 2)
        kappa = math.sqrt(-2.0 * exact)
        assert st.P == pytest.approx(0.5 * Z - kappa * (st.node_u + du + 2.0), rel=1e-6, abs=1e-6)

    @pytest.mark.parametrize(
        "a, b, Z, n, bracket",
        [(0.0, 1e-2, 1.8, 6000, (-0.07, -0.03)), (1e-3, -1e-2, 1.0, 1500, (-0.06, -0.03))],
        ids=["quartic+", "quartic-sextic+"],
    )
    def test_anharmonic_seed_is_only_a_start(self, monkeypatch, a, b, Z, n, bracket):
        # the confining quartic needs the finer grid to pass the E_error gate
        p = Potential8D("super2", omega=1.0, a=a, b=b)
        model = OscillatorModel(p1=p, p2=p, Z1=0.5 * Z, Z2=0.5 * Z)
        st, (fine, coarse) = _recorded_search(monkeypatch, model, Grid(n=n), bracket)
        e_hi = bracket[1]
        f_hi = _mismatch(fine[0], st.node_u, st.node_v, e_hi)[0]
        seed = e_hi * (Z / (f_hi + Z)) ** 2
        # Newton started from the Sturmian seed, which is well off the root
        assert fine[1] == pytest.approx(seed, rel=1e-10)
        assert abs(seed - fine[2]) > 1e-3 * abs(fine[2])
        _assert_roots_of_the_pencils(st, fine, coarse, bracket)

    @pytest.mark.parametrize(
        "Z, bracket",
        [(0.0, (-0.05, -0.03)), (0.08, (-0.1, -0.04)), (0.1, (-0.06, -0.045))],
        ids=["Z=0", "charge<=0", "seed-outside"],
    )
    def test_secant_start_without_a_seed(self, monkeypatch, Z, bracket):
        # an attractive linear term binds the sub2 factors without the charge.
        # Newton starts at the bracket's secant point when Z <= 0, when the
        # pair binds a nonpositive charge at E_hi (Z = 0.08: the seed formula
        # would give -0.084, inside the bracket) or when the seed falls
        # outside the bracket (Z = 0.1: -0.109)
        p = Potential8D("sub2", omega=1.0, a=-0.2)
        model = OscillatorModel(p1=p, p2=p, Z1=0.5 * Z, Z2=0.5 * Z)
        st, (fine, coarse) = _recorded_search(monkeypatch, model, Grid(n=1500), bracket)
        f_lo, f_hi = (_mismatch(fine[0], st.node_u, st.node_v, e)[0] for e in bracket)
        e_lo, e_hi = bracket
        assert fine[1] == pytest.approx(e_lo + (e_hi - e_lo) * f_lo / (f_lo - f_hi), rel=1e-10)
        _assert_roots_of_the_pencils(st, fine, coarse, bracket)


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

        e0 = parabolic_joint_solve(base, micz, grid, bracket=(-0.045, -0.024)).E
        e1 = parabolic_joint_solve(pert, micz, grid, bracket=(-0.045, -0.005)).E
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
