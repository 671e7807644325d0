import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_
from scipy.optimize import brentq

from hurwitz_kepler import numeric
from hurwitz_kepler.errors import AccuracyError, BracketError
from hurwitz_kepler.numeric import (
    Grid,
    _shifted,
    _whitened,
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
        # two endpoint solves per equation, then one Newton evaluation (two
        # solves) at each basis size: the sho seed is the root, and the
        # ground pair settles on 16 functions; the excited level has two
        # pairs, (0, 1) and (1, 0)
        assert st.solves == {(-0.045, -0.024): 8, (-0.024, -0.017): 12}[bracket]

    @pytest.mark.parametrize("n", [200, 680])
    def test_charge_four_ground_on_small_grids(self, n):
        # lengths scale as 1/Z, and so does the basis scale 1 / sqrt(-2 E_hi):
        # a small cap on the basis still holds the bar under the gate
        Z = 4.0
        exact = -(Z**2) / 32.0
        st = parabolic_joint_solve(
            _coulomb_model(Z=Z), MiczParams(Z=Z), Grid(n=n), bracket=(1.3 * exact, 0.8 * exact)
        )
        assert abs(st.E - exact) <= st.E_error <= 1e-5 * abs(exact)

    def test_gate_error_carries_its_fields(self, monkeypatch):
        # a gate no bar can pass names the pair, the basis size the search
        # stopped at, the pair's bar and the tolerance
        bracket = (-0.045, -0.024)
        st = parabolic_joint_solve(_coulomb_model(), MiczParams(Z=1.0), Grid(n=1500), bracket=bracket)
        monkeypatch.setattr(numeric, "_CONV_TOL", 1e-20)
        with pytest.raises(AccuracyError, match="basis growth did not converge") as info:
            parabolic_joint_solve(_coulomb_model(), MiczParams(Z=1.0), Grid(n=1500), bracket=bracket)
        err = info.value
        assert (err.state, err.nodes, err.bar, err.tol) == ((0, 0), 16, st.E_error, 1e-20)

    def test_node_counts_certify_the_pair(self, monkeypatch):
        # the pair's branch indices must be the sign changes of its two last
        # Ritz functions; a count that differs is an accuracy error
        monkeypatch.setattr(numeric, "_count_nodes", lambda vec: 1)
        with pytest.raises(AccuracyError, match=r"branch pair \(0, 0\) on 16 basis functions have 1 and 1"):
            parabolic_joint_solve(
                _coulomb_model(), MiczParams(Z=1.0), Grid(n=1500), bracket=(-0.045, -0.024)
            )

    def test_lapack_failure_is_an_accuracy_error(self, monkeypatch):
        # numpy's LinAlgError is a ValueError, which the CLI would report as
        # a config error
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(AccuracyError, match="eigensolve failed: Eigenvalues did not converge"):
            parabolic_joint_solve(
                _coulomb_model(), MiczParams(Z=1.0), Grid(n=1500), bracket=(-0.045, -0.024)
            )

    def test_first_domain_holds_for_three_branches(self, monkeypatch):
        # the endpoint mismatches are read on the first basis, 12 functions
        # on (0, inf) with scale 1 / sqrt(-2 E_hi): at E_hi that is the
        # Sturmian basis, whose functions are the pure Coulomb states, so the
        # three branches of each equation are the closed forms kappa (i + 2)
        # - Z_a to rounding; at E_lo, a scale 37% off, to 1e-10.  Their
        # Ritz functions have 0, 1 and 2 sign changes at both ends
        calls, shifted = [], numeric._shifted

        def record(pencil, n, energy, branches):
            out = shifted(pencil, n, energy, branches)
            calls.append((pencil, n, energy, branches, out))
            return out

        monkeypatch.setattr(numeric, "_shifted", record)
        e_lo, e_hi = -0.045, -0.024
        parabolic_joint_solve(_coulomb_model(), MiczParams(Z=1.0), Grid(n=1500), bracket=(e_lo, e_hi))
        ends = calls[:4]
        assert [(n, e, b) for _, n, e, b, _ in ends] == [
            (12, e, slice(3)) for e in (e_lo, e_lo, e_hi, e_hi)
        ]
        for pencil, n, energy, _, (mu, vectors, _, rounding) in ends:
            exact = math.sqrt(-2.0 * energy) * (np.arange(3) + 2.0) - 0.5
            tol = 2.0 * rounding if energy == e_hi else 1e-10
            np.testing.assert_allclose(mu, exact, rtol=0.0, atol=tol)
            assert numeric._node_counts(pencil, n, vectors) == [0, 1, 2]


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
        # and (0, 1); with the 1e-8 group formed from the pairs' final roots
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


_N = 16  # basis size of the pencil properties, on which the bench searches settle


def _pencils(c1, c2, e_hi=-0.024):
    """Whitened basis pencils (u, v) of the pure Coulomb model with the joint search's scale at ``e_hi``."""
    micz = MiczParams(Z=1.0, c1=c1, c2=c2)
    beta = 1.0 / math.sqrt(-2.0 * e_hi)
    return [
        _whitened(
            replace(
                build_radial_problem(kind, model=_coulomb_model(), micz=micz, energy=0.0),
                basis_scale=beta,
            ),
            32,
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
            _, _, slope, _ = _shifted(pencil, _N, energy, slice(3))
            up = _shifted(pencil, _N, energy + h, slice(3))[0]
            down = _shifted(pencil, _N, energy - h, slice(3))[0]
            np.testing.assert_allclose(slope, (up - down) / (2.0 * h), rtol=1e-6)

    @settings(max_examples=20, deadline=None)
    @given(c1=strength, c2=strength)
    def test_mismatch_strictly_decreasing(self, c1, c2):
        pu, pv = _pencils(c1, c2)
        sweep = np.linspace(-0.06, -0.005, 12)
        mu_u = np.array([_shifted(pu, _N, e, slice(3))[0] for e in sweep])
        mu_v = np.array([_shifted(pv, _N, e, slice(3))[0] for e in sweep])
        for i in range(3):
            for j in range(3 - i):
                assert np.all(np.diff(mu_u[:, i] + mu_v[:, j]) < 0.0)

    def test_charge_is_a_shift_of_the_mass(self):
        # the charge enters W0 as -Z_a times the identity, whatever the basis
        micz = MiczParams(Z=1.0, c1=0.5)
        charged, neutral = (
            _whitened(
                replace(
                    build_radial_problem("para_u", model=_coulomb_model(Z=z), micz=micz, energy=0.0),
                    basis_scale=4.0,
                ),
                32,
            )[0]
            for z in (1.0, 0.0)
        )
        np.testing.assert_allclose(charged - neutral, -0.5 * np.eye(32), atol=1e-12)


def _level(c1, c2, level, Z=1.0):
    """Closed-form energy -Z^2 / (2 (s0 + level)^2) of the sho model and delta_u."""
    du = 0.5 * (-3.0 + math.sqrt(9.0 + 8.0 * c1))
    dv = 0.5 * (-3.0 + math.sqrt(9.0 + 8.0 * c2))
    return -(Z**2) / (2.0 * (du + dv + 4.0 + level) ** 2), du


def _mismatch(pencils, n, i, j, energy):
    """F(E) = mu_u[i] + mu_v[j] on the leading n x n blocks of fixed pencils, and its slope."""
    (mu_u, _, s_u, _), (mu_v, _, s_v, _) = (
        _shifted(p, n, energy, b) for p, b in zip(pencils, (i, j))
    )
    return mu_u + mu_v, s_u + s_v


def _reference_root(pencils, n, i, j, lo, hi):
    """Root of F on fixed pencils by Brent's method on (lo, hi), far below the rounding floor."""
    return brentq(lambda e: _mismatch(pencils, n, i, j, e)[0], lo, hi, xtol=1e-300, rtol=4.0 * _EPS)


def _rounding_floor(pencils, n, i, j, energy):
    """eps (|T_u| + |T_v|) / |F'| at ``energy``: how well F's root is defined."""
    rounding, slope = 0.0, 0.0
    for pencil, b in zip(pencils, (i, j)):
        _, _, s, r = _shifted(pencil, n, energy, b)
        rounding += r
        slope += s
    return rounding / abs(slope)


def _recorded_search(model, micz, grid, bracket):
    """The search and, for the returned pair, (pencils, n, start, root, floor) of each basis size."""
    sizes = {}
    match = numeric._match_root

    def record(pencils, n, i, j, energy, *args):
        out = match(pencils, n, i, j, energy, *args)
        sizes.setdefault((i, j), []).append((pencils, n, energy, out[0], out[2]))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numeric, "_match_root", record)
        st = parabolic_joint_solve(model, micz, grid, bracket=bracket)
    return st, sizes[st.node_u, st.node_v]


def _assert_roots_of_the_pencils(st, sizes, bracket):
    # the basis grows by 4 functions from 12, each size's Newton starts from
    # the root of the size before, and each root is F's root on that size's
    # pencils to within its rounding floor, whatever the start; E is the
    # last root, and E_error its change from the size before plus its floor
    assert [n for _, n, *_ in sizes] == list(range(12, 12 + 4 * len(sizes), 4))
    for (_, _, _, root, _), (_, _, start, _, _) in zip(sizes, sizes[1:]):
        assert start == root
    for pencils, n, _, root, floor in sizes:
        ref = _reference_root(pencils, n, st.node_u, st.node_v, *bracket)
        assert abs(root - ref) <= 2.0 * _rounding_floor(pencils, n, st.node_u, st.node_v, ref)
        assert floor == pytest.approx(_rounding_floor(pencils, n, st.node_u, st.node_v, root), rel=1e-3)
    (*_, below, _), (*_, root, floor) = sizes[-2:]
    assert st.E == root
    assert st.E_error == abs(root - below) + floor


class TestSturmianSeed:
    @settings(max_examples=16, deadline=None)
    @given(
        c1=strength, c2=strength, level=st_.sampled_from([0, 1]), Z=st_.sampled_from([1.0, 4.0])
    )
    def test_sho_levels(self, c1, c2, level, Z):
        exact, du = _level(c1, c2, level, Z)
        bracket = (_level(c1, c2, level - 0.5, Z)[0], _level(c1, c2, level + 0.5, Z)[0])
        micz = MiczParams(Z=Z, c1=c1, c2=c2)
        st, sizes = _recorded_search(_coulomb_model(Z=Z), micz, Grid(n=3000), bracket)
        error = abs(st.E - exact)
        assert error <= st.E_error
        # where the basis, not rounding, sets the bar, it tracks the error
        rounding = sizes[-1][-1]
        if st.E_error - rounding > 10.0 * rounding:
            assert st.E_error <= 3.0 * error
        assert st.node_u + st.node_v == level
        if level == 0:
            assert (st.node_u, st.node_v) == (0, 0)
        # the pair's separation constant P = Z1 - kappa (n_u + delta_u + 2)
        kappa = math.sqrt(-2.0 * exact)
        assert st.P == pytest.approx(0.5 * Z - kappa * (st.node_u + du + 2.0), rel=1e-6, abs=1e-6)

    @settings(max_examples=30, deadline=None)
    @given(
        c1=strength,
        c2=strength,
        level=st_.sampled_from([0, 1]),
        Z=st_.floats(min_value=0.5, max_value=4.0),
    )
    def test_sho_sweep(self, c1, c2, level, Z):
        # the bench's brackets (1.3 E, 0.8 E) around each closed form: the bar
        # bounds the error and passes the gate, and the branch indices are
        # the level's node pairs, (0, 0) for the ground level
        exact, _ = _level(c1, c2, level, Z)
        micz = MiczParams(Z=Z, c1=c1, c2=c2)
        st = parabolic_joint_solve(_coulomb_model(Z=Z), micz, Grid(n=1500), (1.3 * exact, 0.8 * exact))
        assert abs(st.E - exact) <= st.E_error <= 1e-5 * abs(st.E)
        assert st.node_u + st.node_v == level
        if level == 0:
            assert (st.node_u, st.node_v) == (0, 0)

    @pytest.mark.parametrize(
        "a, b, Z, bracket",
        [(0.0, 1e-2, 1.8, (-0.07, -0.03)), (1e-3, -1e-2, 1.0, (-0.06, -0.03))],
        ids=["quartic+", "quartic-sextic+"],
    )
    def test_anharmonic_seed_is_only_a_start(self, a, b, Z, bracket):
        # the confining quartic passes the E_error gate on the basis cap the
        # other searches use
        p = Potential8D("super2", omega=1.0, a=a, b=b)
        model = OscillatorModel(p1=p, p2=p, Z1=0.5 * Z, Z2=0.5 * Z)
        micz = MiczParams(Z=Z)
        st, sizes = _recorded_search(model, micz, Grid(n=1500), bracket)
        first, n, start, root, _ = sizes[0]
        e_hi = bracket[1]
        f_hi = _mismatch(first, n, st.node_u, st.node_v, e_hi)[0]
        seed = e_hi * (Z / (f_hi + Z)) ** 2
        # the first Newton search started from the Sturmian seed, well off the root
        assert start == pytest.approx(seed, rel=1e-10)
        assert abs(seed - root) > 1e-3 * abs(root)
        _assert_roots_of_the_pencils(st, sizes, bracket)

    @pytest.mark.parametrize(
        "Z, bracket",
        [(0.0, (-0.05, -0.03)), (0.08, (-0.1, -0.04)), (0.1, (-0.06, -0.045))],
        ids=["Z=0", "charge<=0", "seed-outside"],
    )
    def test_secant_start_without_a_seed(self, Z, bracket):
        # an attractive linear term binds the sub2 factors without the charge.
        # The first Newton search starts at the bracket's secant point when
        # Z <= 0, when the pair binds a nonpositive charge at E_hi (Z = 0.08)
        # or when the seed falls outside the bracket (Z = 0.1)
        p = Potential8D("sub2", omega=1.0, a=-0.2)
        model = OscillatorModel(p1=p, p2=p, Z1=0.5 * Z, Z2=0.5 * Z)
        micz = MiczParams(Z=Z)
        st, sizes = _recorded_search(model, micz, Grid(n=1500), bracket)
        first, n, start, _, _ = sizes[0]
        f_lo, f_hi = (_mismatch(first, n, st.node_u, st.node_v, e)[0] for e in bracket)
        e_lo, e_hi = bracket
        assert start == pytest.approx(e_lo + (e_hi - e_lo) * f_lo / (f_lo - f_hi), rel=1e-10)
        if Z > 0.0:
            seed = e_hi * (Z / (f_hi + Z)) ** 2
            assert f_hi + Z <= 0.0 or not e_lo < seed < e_hi
        _assert_roots_of_the_pencils(st, sizes, bracket)


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

        # first-order estimate: the unperturbed ground state of each equation
        # is R = exp(-kappa w / 2), kappa = sqrt(-2 E0), with measure w^4 dw
        # and the 1/w mass; delta q = (b w^2 / 4) / w and dq/dE = -1/2, so
        # with <w^m> = int w^m e^(-kappa w) dw = m! / kappa^(m+1) each
        # equation adds (b / 4) <w^5> / <w^3> to dF and -(1/2) <w^4> / <w^3>
        # to dF/dE
        kappa = math.sqrt(-2.0 * e0)
        moment = lambda m: math.factorial(m) / kappa ** (m + 1)  # noqa: E731
        num = 2.0 * (b / 4.0) * moment(5) / moment(3)
        den = 2.0 * -0.5 * moment(4) / moment(3)
        estimate = -num / den
        assert shift == pytest.approx(estimate, rel=0.2)
        assert shift > 0.0  # repulsive quartic raises the energy
