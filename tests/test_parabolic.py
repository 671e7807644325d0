import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_
from scipy.optimize import brentq

from hurwitz_kepler import numeric
from hurwitz_kepler.errors import AccuracyError, BracketError
from hurwitz_kepler.numeric import (
    Grid,
    _assemble,
    _shifted,
    build_radial_problem,
    parabolic_joint_solve,
    spherical_micz_energies,
)
from hurwitz_kepler.potentials import MiczParams, OscillatorModel, Potential8D

_EPS = np.finfo(float).eps


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
        assert st.solves == {(-0.045, -0.024): 28, (-0.024, -0.017): 50}[bracket]

    @pytest.mark.parametrize("n", [200, 680])
    def test_charge_four_ground_on_small_grids(self, n):
        # lengths scale as 1/Z, so at Z = 4 the 0.1 spacing floor leaves n at
        # 838 or 1020 nodes; the ladder still brings the bar under the gate
        Z = 4.0
        exact = -(Z**2) / 32.0
        st = parabolic_joint_solve(
            _coulomb_model(Z=Z), MiczParams(Z=Z), Grid(n=n), bracket=(1.3 * exact, 0.8 * exact)
        )
        assert abs(st.E - exact) <= st.E_error <= 1e-5 * abs(exact)

    def test_gate_error_carries_its_fields(self, monkeypatch):
        # a gate no bar can pass names the pair, the ladder's top rung, the
        # pair's bar and the tolerance
        bracket = (-0.045, -0.024)
        st = parabolic_joint_solve(_coulomb_model(), MiczParams(Z=1.0), Grid(n=1500), bracket=bracket)
        monkeypatch.setattr(numeric, "_CONV_TOL", 1e-20)
        with pytest.raises(AccuracyError, match="grid doubling did not converge") as info:
            parabolic_joint_solve(_coulomb_model(), MiczParams(Z=1.0), Grid(n=1500), bracket=bracket)
        err = info.value
        assert (err.state, err.nodes, err.bar, err.tol) == ((0, 0), 6911, st.E_error, 1e-20)

    def test_first_domain_holds_for_three_branches(self, monkeypatch):
        # the two-node state of a sho search keeps more than e^-20 at
        # kappa w = 50; the pilot widens once, in two solves per equation,
        # and n (3423, whose 2n+1 caps the ladder) grows with it
        calls = _record_contain(monkeypatch)
        parabolic_joint_solve(_coulomb_model(), MiczParams(Z=1.0), Grid(n=1500), bracket=(-0.045, -0.024))
        ((_, pilot, n, hi, solves),) = calls
        assert (pilot, n, solves) == (215, 3423, 4)
        assert hi == pytest.approx(1.5 * 50.0 / math.sqrt(2.0 * 0.024), rel=1e-15)


def _record_contain(monkeypatch):
    """The results (quotients, pilot nodes, n, hi, solves) of every later _contain call."""
    calls = []
    contain = numeric._contain

    def record(*args, **kwargs):
        calls.append(contain(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(numeric, "_contain", record)
    return calls


def test_domain_settles_on_the_pilot(monkeypatch):
    # the sub2 states of Z = 0.08 outgrow the first domain (n = 1767); the
    # pilot widens it twice (n = 3975), only the first pilot bisects, and
    # only the pilots are solved at E_hi: the search runs on the last pilot
    # and every later rung has 2m+1 nodes after m
    calls = []
    shifted = numeric._shifted

    def record(pencil, energy, first, last, estimates=None, vectors=None):
        calls.append((len(pencil[0]), energy, estimates is None))
        return shifted(pencil, energy, first, last, estimates, vectors)

    monkeypatch.setattr(numeric, "_shifted", record)
    p = Potential8D("sub2", omega=1.0, a=-0.2)
    model = OscillatorModel(p1=p, p2=p, Z1=0.04, Z2=0.04)
    e_hi = -0.04
    parabolic_joint_solve(model, MiczParams(Z=0.08), Grid(n=1500), bracket=(-0.1, e_hi))
    assert [rows for rows, _, cold in calls if cold] == [111, 111]
    assert [rows for rows, e, _ in calls if e == e_hi] == [111, 111, 167, 167, 251, 251]
    # five rungs above the pilot give the ladder its first bar; the fifth
    # is also the first of at least 2n + 1 = 7951 nodes
    assert sorted({rows for rows, *_ in calls if rows > 251}) == [503, 1007, 2015, 4031, 8063]


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


def _reference_root(pencils, i, j, lo, hi):
    """Root of F on fixed pencils by Brent's method on (lo, hi), far below the rounding floor."""
    return brentq(lambda e: _mismatch(pencils, i, j, e)[0], lo, hi, xtol=1e-300, rtol=4.0 * _EPS)


def _rounding_floor(pencils, i, j, energy):
    """eps (sum_k |d_k| chi_k^2 of T_u and of T_v) / |F'| at ``energy``: how well F's root is defined."""
    rounding, slope = 0.0, 0.0
    for (d0, e, x), b in zip(pencils, (i, j)):
        _, chi, s = _shifted((d0, e, x), energy, b, b)
        rounding += np.sum(np.abs(d0 - 0.5 * energy * x) * chi[:, 0] ** 2)
        slope += s[0]
    return _EPS * rounding / abs(slope)


def _exponents(micz):
    """The four lowest powers of h in a root's error: h^2, h^4, h^6 and h^(3 + 2 delta + j) per pole."""
    series = {2.0, 4.0, 6.0}
    for c in (micz.c1, micz.c2):
        delta = 0.5 * (-3.0 + math.sqrt(9.0 + 8.0 * c))
        series.update(3.0 + 2.0 * delta + j for j in range(3))
    return sorted(series)[:4]


def _richardson(values, exponents):
    """The value of five rungs whose h halves, bottom up, with the h^p terms removed in turn."""
    for p in exponents:
        values = [(2.0**p * b - a) / (2.0**p - 1.0) for a, b in zip(values, values[1:])]
    (value,) = values
    return value


def _recorded_search(model, micz, grid, bracket):
    """The search and, for the returned pair, (pencils, start, root, floor) of each rung, bottom up."""
    rungs = {}
    match = numeric._match_root

    def record(pencils, i, j, energy, *args):
        out = match(pencils, i, j, energy, *args)
        rungs.setdefault((i, j), []).append((pencils, energy, out[0], out[2]))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numeric, "_match_root", record)
        st = parabolic_joint_solve(model, micz, grid, bracket=bracket)
    return st, rungs[st.node_u, st.node_v]


def _assert_roots_of_the_pencils(st, rungs, bracket, micz):
    # each rung's root is F's root on that rung's pencils to within its
    # rounding floor, whatever the Newton start, and E is the Richardson
    # value of the top five of those roots
    refs, floors = [], []
    for pencils, _, root, _ in rungs:
        refs.append(_reference_root(pencils, st.node_u, st.node_v, *bracket))
        floors.append(_rounding_floor(pencils, st.node_u, st.node_v, refs[-1]))
        assert abs(root - refs[-1]) <= 2.0 * floors[-1]
    weights = _richardson(list(np.eye(5)), _exponents(micz))
    assert abs(st.E - _richardson(refs[-5:], _exponents(micz))) <= 2.0 * np.abs(weights) @ floors[-5:]


class TestSturmianSeed:
    @settings(max_examples=16, deadline=None)
    @given(
        c1=strength, c2=strength, level=st_.sampled_from([0, 1]), Z=st_.sampled_from([1.0, 4.0])
    )
    def test_sho_levels(self, c1, c2, level, Z):
        exact, du = _level(c1, c2, level, Z)
        bracket = (_level(c1, c2, level - 0.5, Z)[0], _level(c1, c2, level + 0.5, Z)[0])
        micz = MiczParams(Z=Z, c1=c1, c2=c2)
        st, rungs = _recorded_search(_coulomb_model(Z=Z), micz, Grid(n=3000), bracket)
        error = abs(st.E - exact)
        assert error <= st.E_error
        # where the grid, not rounding, sets the bar, it tracks the error
        weights = _richardson(list(np.eye(5)), _exponents(micz))
        rounding = np.abs(weights) @ [floor for *_, floor in rungs[-5:]]
        if st.E_error - rounding > 10.0 * rounding:
            assert st.E_error <= 3.0 * error
        assert st.node_u + st.node_v == level
        if level == 0:
            assert (st.node_u, st.node_v) == (0, 0)
        # the pair's separation constant P = Z1 - kappa (n_u + delta_u + 2)
        kappa = math.sqrt(-2.0 * exact)
        assert st.P == pytest.approx(0.5 * Z - kappa * (st.node_u + du + 2.0), rel=1e-6, abs=1e-6)

    @pytest.mark.parametrize(
        "a, b, Z, bracket",
        [(0.0, 1e-2, 1.8, (-0.07, -0.03)), (1e-3, -1e-2, 1.0, (-0.06, -0.03))],
        ids=["quartic+", "quartic-sextic+"],
    )
    def test_anharmonic_seed_is_only_a_start(self, a, b, Z, bracket):
        # the confining quartic passes the E_error gate on the grid the
        # other searches use
        p = Potential8D("super2", omega=1.0, a=a, b=b)
        model = OscillatorModel(p1=p, p2=p, Z1=0.5 * Z, Z2=0.5 * Z)
        micz = MiczParams(Z=Z)
        st, rungs = _recorded_search(model, micz, Grid(n=1500), bracket)
        pilot, start, root, _ = rungs[0]
        e_hi = bracket[1]
        f_hi = _mismatch(pilot, st.node_u, st.node_v, e_hi)[0]
        seed = e_hi * (Z / (f_hi + Z)) ** 2
        # the pilot's Newton started from the Sturmian seed, well off the root
        assert start == pytest.approx(seed, rel=1e-10)
        assert abs(seed - root) > 1e-3 * abs(root)
        _assert_roots_of_the_pencils(st, rungs, bracket, micz)

    @pytest.mark.parametrize(
        "Z, bracket",
        [(0.0, (-0.05, -0.03)), (0.08, (-0.1, -0.04)), (0.1, (-0.06, -0.045))],
        ids=["Z=0", "charge<=0", "seed-outside"],
    )
    def test_secant_start_without_a_seed(self, Z, bracket):
        # an attractive linear term binds the sub2 factors without the charge.
        # The pilot's Newton starts at the bracket's secant point when Z <= 0,
        # when the pair binds a nonpositive charge at E_hi (Z = 0.08: the seed
        # formula would give -0.084, inside the bracket) or when the seed
        # falls outside the bracket (Z = 0.1: -0.109)
        p = Potential8D("sub2", omega=1.0, a=-0.2)
        model = OscillatorModel(p1=p, p2=p, Z1=0.5 * Z, Z2=0.5 * Z)
        micz = MiczParams(Z=Z)
        st, rungs = _recorded_search(model, micz, Grid(n=1500), bracket)
        pilot, start, _, _ = rungs[0]
        f_lo, f_hi = (_mismatch(pilot, st.node_u, st.node_v, e)[0] for e in bracket)
        e_lo, e_hi = bracket
        assert start == pytest.approx(e_lo + (e_hi - e_lo) * f_lo / (f_lo - f_hi), rel=1e-10)
        _assert_roots_of_the_pencils(st, rungs, bracket, micz)


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
        num = 0.0
        den = 0.0
        for kind in ("para_u", "para_v"):
            prob = build_radial_problem(kind, model=base, micz=micz, energy=e0, wmax=wmax)
            pencil = _assemble(prob, Grid(n=n), *prob.domain, n)
            w = pencil[2]
            meas = prob.weight(w)  # uniform grid: constant Jacobian cancels
            # R = chi / sqrt(mass) for the symmetrized ground vector chi
            R = _shifted(pencil, 0.0, 0, 0)[1][:, 0] / np.sqrt(meas * prob.mass_term(w))
            norm_mass = np.sum(R * R * meas / w)
            num += np.sum(R * R * meas * (b * w / 4.0)) / norm_mass
            den += -0.5 * np.sum(R * R * meas) / norm_mass
        estimate = -num / den
        assert shift == pytest.approx(estimate, rel=0.2)
        assert shift > 0.0  # repulsive quartic raises the energy
