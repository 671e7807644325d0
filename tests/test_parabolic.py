import math
import time
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
        # the window between the two lowest levels holds none: the lowest
        # level above E_lo, resolved, is the first excited level at -0.02
        with pytest.raises(BracketError, match=r"the window \(-0.028, -0.024\) holds no resolved level"):
            parabolic_joint_solve(
                _coulomb_model(), MiczParams(Z=1.0), Grid(n=800), bracket=(-0.028, -0.024)
            )

    def test_far_window_is_empty_at_once(self, monkeypatch):
        # with E_hi = -1e-6 the basis scale is about 700 Coulomb lengths, and
        # no level above E_lo = -0.001 settles on the largest enumeration
        # basis: an empty window, found in milliseconds, not a search that
        # grows a pair's basis to its cap
        sizes, enumerate_levels = [], numeric._joint_levels
        monkeypatch.setattr(numeric, "_joint_levels", lambda p, n: sizes.append(n) or enumerate_levels(p, n))
        start = time.perf_counter()
        with pytest.raises(BracketError, match=r"the window \(-0.001, -1e-06\) holds no resolved level"):
            parabolic_joint_solve(
                _coulomb_model(), MiczParams(Z=1.0), Grid(n=1500), bracket=(-0.001, -1e-6)
            )
        assert time.perf_counter() - start < 0.5
        assert sizes == [6, 10, 14, 18]

    def test_step_with_an_empty_group_is_unresolved(self, monkeypatch):
        # with no pair's step within the level tolerance of E*, no step
        # resolves a level, which is an empty window and not min() of nothing
        monkeypatch.setattr(numeric, "_LEVEL_TOL", 0.0)
        with pytest.raises(BracketError, match=r"the window \(-0.045, -0.024\) holds no resolved level"):
            parabolic_joint_solve(
                _coulomb_model(), MiczParams(Z=1.0), Grid(n=1500), bracket=(-0.045, -0.024)
            )

    @pytest.mark.parametrize(
        "bracket, exact", [((-0.045, -0.024), -1.0 / 32.0), ((-0.024, -0.017), -0.02)]
    )
    def test_error_bar_bounds_error(self, bracket, exact):
        st = parabolic_joint_solve(_coulomb_model(), MiczParams(Z=1.0), Grid(n=1500), bracket=bracket)
        assert abs(st.E - exact) <= st.E_error
        assert st.E_error <= 1e-5 * abs(st.E)
        # one Kronecker-sum solve and one solve per equation to find the
        # pairs of the level, then one Newton evaluation (two solves) per pair
        # at each basis size: the level on 6 functions is the root on 12 to
        # within the Newton floor, and the ground pair settles on 16
        # functions; the excited level has two pairs, (0, 1) and (1, 0)
        assert st.solves == {(-0.045, -0.024): 7, (-0.024, -0.017): 11}[bracket]

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

    def test_first_domain_holds_for_three_branches(self):
        # the first rung of the ladder is 12 functions on (0, inf) with scale
        # 1 / sqrt(-2 E_hi): at E_hi that is the Sturmian basis, whose
        # functions are the pure Coulomb states, so the three lowest branches
        # of each equation are the closed forms kappa (i + 2) - Z_a to
        # rounding; at E_lo, a scale 37% off, to 1e-10.  Their Ritz
        # functions have 0, 1 and 2 sign changes at both ends
        e_lo, e_hi = -0.045, -0.024
        problems = [
            replace(
                build_radial_problem(kind, model=_coulomb_model(), micz=MiczParams(Z=1.0), energy=0.0),
                basis_scale=1.0 / math.sqrt(-2.0 * e_hi),
            )
            for kind in ("para_u", "para_v")
        ]
        n = numeric._FIRST_BASIS
        for pencil in numeric._block(problems, n, 1500):
            for energy in (e_lo, e_hi):
                mu, vectors, _, rounding = _shifted(pencil, n, energy, slice(3))
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

    @pytest.mark.parametrize("c1, c2", [(0.0, 0.0), (1.0, 2.0), (0.5, 1.5)])
    def test_kronecker_levels_are_the_closed_forms(self, c1, c2):
        # on the search's first 6 functions per equation, scaled for the
        # ground level's window, the lowest six levels of the Kronecker-sum
        # pencil are the closed-form levels 0, 1 and 2 with multiplicities
        # 1, 2 and 3, each from above as Ritz values are: levels 0 and 1
        # within 1e-9 relative, level 2, with two nodes in one equation,
        # within 1e-3
        exact = np.array([_level(c1, c2, level)[0] for level in (0, 1, 1, 2, 2, 2)])
        levels = numeric._joint_levels(_pencils(c1, c2, e_hi=0.8 * exact[0]), numeric._LEVEL_BASIS)
        error = (levels[:6] - exact) / np.abs(exact)
        assert np.all(error > -1e-14)
        assert np.all(error[:3] < 1e-9) and np.all(error[3:] < 1e-3)

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
    """The search, (n, levels) of each level enumeration, the pairs refined after the last one, and the returned pair's rungs.

    A rung is (pencils, n, start, root, floor) of one Newton root.
    """
    events = []
    match, enumerate_levels = numeric._match_root, numeric._joint_levels

    def record_match(pencils, n, i, j, energy):
        out = match(pencils, n, i, j, energy)
        events.append(((i, j), (pencils, n, energy, out[0], out[2])))
        return out

    def record_levels(pencils, n):
        out = enumerate_levels(pencils, n)
        events.append(("levels", (n, out)))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numeric, "_match_root", record_match)
        mp.setattr(numeric, "_joint_levels", record_levels)
        st = parabolic_joint_solve(model, micz, grid, bracket=bracket)
    last = max(k for k, (kind, _) in enumerate(events) if kind == "levels")
    enumerations = [rec for kind, rec in events if kind == "levels"]
    refined = {kind for kind, _ in events[last + 1 :]}
    rungs = [rec for kind, rec in events[last + 1 :] if kind == (st.node_u, st.node_v)]
    return st, enumerations, refined, rungs


def _assert_roots_of_the_pencils(st, enumerations, rungs, bracket):
    # the ladder starts from E*, the lowest level above E_lo of the last
    # enumeration, on max(12, n + 4) functions and grows by 4; each size's
    # Newton starts from the root of the size before, and each root is F's
    # root on that size's pencils to within its rounding floor, whatever
    # the start; E is the last root, and E_error its change from the size
    # before plus its floor
    n, levels = enumerations[-1]
    first = max(numeric._FIRST_BASIS, n + numeric._STEP)
    assert rungs[0][2] == levels[np.searchsorted(levels, bracket[0], side="right")]
    assert [size for _, size, *_ in rungs] == list(range(first, first + 4 * len(rungs), 4))
    for (_, _, _, root, _), (_, _, start, _, _) in zip(rungs, rungs[1:]):
        assert start == root
    for pencils, size, _, root, floor in rungs:
        ref = _reference_root(pencils, size, st.node_u, st.node_v, *bracket)
        assert abs(root - ref) <= 2.0 * _rounding_floor(pencils, size, st.node_u, st.node_v, ref)
        assert floor == pytest.approx(_rounding_floor(pencils, size, st.node_u, st.node_v, root), rel=1e-3)
    (*_, below, _), (*_, root, floor) = rungs[-2:]
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
        st, _, _, rungs = _recorded_search(_coulomb_model(Z=Z), micz, Grid(n=3000), bracket)
        error = abs(st.E - exact)
        assert error <= st.E_error
        # where the basis, not rounding, sets the bar, it tracks the error
        rounding = rungs[-1][-1]
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
        # other searches use.  Its level on the first 6 functions is only a
        # start: one rung up, on 12, the pair's root moves by more than
        # _LEVEL_TOL, so the enumeration grows by 4 until it holds, and the
        # ladder starts from the resolved level
        p = Potential8D("super2", omega=1.0, a=a, b=b)
        model = OscillatorModel(p1=p, p2=p, Z1=0.5 * Z, Z2=0.5 * Z)
        st, enumerations, refined, rungs = _recorded_search(model, MiczParams(Z=Z), Grid(n=1500), bracket)
        sizes = [n for n, _ in enumerations]
        assert len(sizes) > 1 and sizes == list(range(6, 6 + 4 * len(sizes), 4))
        n, levels = enumerations[0]
        seed = levels[np.searchsorted(levels, bracket[0], side="right")]
        assert abs(seed - st.E) > numeric._LEVEL_TOL * abs(st.E)
        assert refined == {(0, 0)} == {(st.node_u, st.node_v)}
        _assert_roots_of_the_pencils(st, enumerations, rungs, bracket)

    @pytest.mark.parametrize(
        "Z, bracket",
        [(0.0, (-0.05, -0.03)), (0.08, (-0.1, -0.04)), (0.1, (-0.06, -0.045))],
        ids=["Z=0", "Z=0.08", "Z=0.1"],
    )
    def test_sub2_search_refines_only_its_level(self, Z, bracket):
        # an attractive linear term binds the sub2 factors without the
        # charge.  One enumeration on 6 functions resolves the ground level,
        # and only its pair (0, 0) climbs the ladder, about 20 Newton
        # evaluations in all: a search that refined every pair whose root
        # lies in the window took 123 at Z = 0
        p = Potential8D("sub2", omega=1.0, a=-0.2)
        model = OscillatorModel(p1=p, p2=p, Z1=0.5 * Z, Z2=0.5 * Z)
        evals, match = [], numeric._match_root

        def counted(*args):
            out = match(*args)
            evals.append(out[3])
            return out

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(numeric, "_match_root", counted)
            st, enumerations, refined, rungs = _recorded_search(model, MiczParams(Z=Z), Grid(n=1500), bracket)
        assert [n for n, _ in enumerations] == [6]
        assert refined == {(0, 0)} == {(st.node_u, st.node_v)}
        assert sum(evals) <= 20
        _assert_roots_of_the_pencils(st, enumerations, rungs, bracket)


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
