"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import math
import time

import numpy as np
import pytest

from hurwitz_kepler.algebra import hurwitz_forward_batch
from hurwitz_kepler.analytic import (
    QesPrimedParams,
    QuantumNumbers,
    dual_map,
    qes_map_sub2,
    qes_map_super2,
    qes_solve,
    qes_wavefunction,
    singular_oscillator_energy,
)
from hurwitz_kepler.numeric import (
    Grid,
    build_radial_problem,
    fd_eigensolve,
    parabolic_joint_solve,
    qes_verification_problem,
    spherical_micz_energies,
)
from hurwitz_kepler.potentials import (
    MiczParams,
    OscillatorModel,
    Potential8D,
    is_spherically_separable,
    spherical_W,
)


def _report(num, text):
    print(f"\nPASS criterion {num}: {text}")


def test_criterion_1_hurwitz_composition_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240817)
    U = rng.normal(size=(10_000, 8))
    V = rng.normal(size=(10_000, 8))
    X = hurwitz_forward_batch(U, V)
    lhs = np.einsum("nk,nk->n", X, X)
    rhs = (np.einsum("ns,ns->n", U, U) + np.einsum("ns,ns->n", V, V)) ** 2
    dev = float(np.max(np.abs(lhs - rhs) / rhs))
    elapsed = time.perf_counter() - t0
    assert dev <= 1e-12
    assert elapsed < 1.0
    _report(1, f"composition identity, 10^4 pairs, max rel dev {dev:.2e}, {elapsed:.2f}s")


def test_criterion_2_singular_oscillator_spectrum():
    t0 = time.perf_counter()
    worst = 0.0
    for omega in (0.5, 1.0, 2.0):
        for c in (0.0, 1.0, 8.0):
            pot = Potential8D("sho", omega=omega, c=c)
            for L in (0, 1, 2):
                prob = build_radial_problem("osc8", potential=pot, L=L)
                spec = fd_eigensolve(prob, Grid(n=4000), 4)
                for N in range(4):
                    exact = singular_oscillator_energy(QuantumNumbers(N, L), omega, c)
                    rel = abs(spec.eigenvalues[N] - exact) / exact
                    worst = max(worst, rel)
                    assert rel <= 1e-6, (omega, c, L, N, rel)
                    assert spec.node_counts[N] == N
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(2, f"108 singular-oscillator levels, max rel dev {worst:.2e}, {elapsed:.1f}s")


def _stencil_residual(sol, i, dim, potential, energy, rs, h=1e-3):
    worst = 0.0
    for r in rs:
        f = [qes_wavefunction(sol, i, r + j * h) for j in (-2, -1, 0, 1, 2)]
        d2 = (-f[4] + 16 * f[3] - 30 * f[2] + 16 * f[1] - f[0]) / (12 * h * h)
        d1 = (-f[4] + 8 * f[3] - 8 * f[1] + f[0]) / (12 * h)
        rho = float(r)
        v = 0.5 * potential.omega**2 * rho**2 + potential.c / rho**2
        if potential.variant == "sub2":
            v += potential.a * rho + potential.b / rho
        else:
            v += potential.b * rho**4 + potential.a * rho**6
        lhs = -d2 - dim / rho * d1 + v * f[2]
        worst = max(worst, abs(lhs - energy * f[2]) / abs(energy * f[2]))
    return worst


def test_criterion_3_qes_cross_check():
    t0 = time.perf_counter()
    rs = np.linspace(0.4, 3.5, 100)
    worst_fd, worst_res = 0.0, 0.0

    for N, a_p in ((1, 0.05), (2, 0.05), (3, 0.03)):
        p = QesPrimedParams(a_p=a_p, b_p=1.0, c_p=0.0, N=N, dim=8)
        pot = qes_map_super2(p)
        assert pot.omega**2 > 0.0
        sol = qes_solve(p, "super2")
        levels = fd_eigensolve(
            qes_verification_problem(pot, 8, 9.0), Grid(n=3000), N + 2
        ).eigenvalues
        for i, e in enumerate(sol.energies):
            fd_dev = float(np.min(np.abs(levels - e)) / abs(e))
            res = _stencil_residual(sol, i, 8, pot, e, rs)
            worst_fd, worst_res = max(worst_fd, fd_dev), max(worst_res, res)
            assert fd_dev <= 1e-5, ("super2", N, i, fd_dev)
            assert res <= 1e-8, ("super2", N, i, res)

    for N in (1, 2):
        p = QesPrimedParams(a_p=1.0, b_p=1.0, c_p=0.0, N=N, dim=8)
        pot, d = qes_map_sub2(p)
        sol = qes_solve(p, "sub2")
        for i, (e, b_i) in enumerate(zip(sol.energies, sol.charges)):
            pot_i = Potential8D("sub2", omega=pot.omega, a=pot.a, b=float(b_i), c=pot.c)
            levels = fd_eigensolve(
                qes_verification_problem(pot_i, 8, 12.0), Grid(n=3000), N + 2
            ).eigenvalues
            fd_dev = float(np.min(np.abs(levels - e)) / abs(e))
            res = _stencil_residual(sol, i, 8, pot_i, e, rs)
            worst_fd, worst_res = max(worst_fd, fd_dev), max(worst_res, res)
            assert fd_dev <= 1e-5, ("sub2", N, i, fd_dev)
            assert res <= 1e-8, ("sub2", N, i, res)

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(
        3,
        f"QES super2 N=1..3 and sub2 N=1..2: max FD dev {worst_fd:.2e}, "
        f"max residual {worst_res:.2e}, {elapsed:.1f}s",
    )


def test_criterion_4_duality():
    t0 = time.perf_counter()
    prob = build_radial_problem("coul9", Z=1.0, lam=0.0, rmax=260.0)
    spec = fd_eigensolve(prob, Grid(n=6000), 1)
    e_fd = float(spec.eigenvalues[0])
    assert abs(e_fd - (-1.0 / 32.0)) <= 1e-5 / 32.0

    omega = 0.25
    z16 = 2.0 * singular_oscillator_energy(QuantumNumbers(0, 0), omega, 0.0)
    assert z16 == pytest.approx(8.0 * omega)  # 16-D ground eigenvalue
    pair = dual_map(omega, z16 / 2.0)  # Coulomb charge is half the eigenvalue
    assert pair.Z == pytest.approx(1.0)
    assert abs(pair.E - e_fd) / abs(e_fd) <= 1e-5
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(
        4,
        f"Coulomb ground {e_fd:.8f} vs -1/32, dual_map(omega=0.25) E = {pair.E}, "
        f"Z_osc = {z16:g}, {elapsed:.1f}s",
    )


def test_criterion_5_chart_independence():
    t0 = time.perf_counter()
    p = Potential8D("sho", omega=1.0)
    model = OscillatorModel(p1=p, p2=p, Z1=0.5, Z2=0.5)
    worst = 0.0
    for c1, c2 in ((0.0, 0.0), (1.0, 2.0)):
        micz = MiczParams(Z=1.0, c1=c1, c2=c2)
        sph = spherical_micz_energies(
            micz,
            n_theta=2,
            n_radial=2,
            grid_theta=Grid(n=3000),
            grid_radial=Grid(n=4000),
            rmax=320.0,
        )
        e_sph = [sph[0][0], sph[1][0]]
        # independent bracket centers from the pole-exponent closed form
        alpha = 0.5 * (-3.0 + math.sqrt(9.0 + 8.0 * c2))
        gamma = 0.5 * (-3.0 + math.sqrt(9.0 + 8.0 * c1))
        s0 = alpha + gamma + 4.0
        est = [-1.0 / (2.0 * s0**2), -1.0 / (2.0 * (s0 + 1.0) ** 2)]
        e_par = [
            parabolic_joint_solve(
                model, micz, Grid(n=1500), bracket=(1.3 * e, 0.8 * e)
            ).E
            for e in est
        ]
        for es, ep in zip(e_sph, sorted(e_par)):
            rel = abs(es - ep) / abs(es)
            worst = max(worst, rel)
            assert rel <= 1e-5, (c1, c2, es, ep)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(5, f"spherical vs parabolic, two lowest states, max rel dev {worst:.2e}, {elapsed:.1f}s")


def test_criterion_6_theta_equation():
    prob = build_radial_problem("theta", micz=MiczParams(Z=1.0))
    spec = fd_eigensolve(prob, Grid(n=4000), 3)
    devs = [abs(spec.eigenvalues[lam] - lam * (lam + 7.0)) for lam in (0, 1, 2)]
    assert max(devs) <= 1e-6
    _report(6, f"polar eigenvalues 0, 8, 18 within {max(devs):.2e} absolute")


def test_criterion_7_separability_gate():
    def model(**kw):
        defaults = dict(v1="sub2", v2="sub2", w1=1.0, w2=1.0)
        defaults.update(kw)
        p1 = Potential8D(defaults["v1"], omega=defaults["w1"], a=defaults.get("a1", 0.0),
                         b=defaults.get("b1", 0.0), c=defaults.get("c1", 0.0))
        p2 = Potential8D(defaults["v2"], omega=defaults["w2"], a=defaults.get("a2", 0.0),
                         b=defaults.get("b2", 0.0), c=defaults.get("c2", 0.0))
        return OscillatorModel(p1=p1, p2=p2, Z1=0.4, Z2=0.6)

    on_set = [model(), model(c1=1.0, c2=2.0), model(v1="super2", v2="super2", c1=3.0)]
    off_set = [
        model(b1=1.0),
        model(a1=1.0),
        model(v2="super2", b2=1.0),
        model(v2="super2", a2=1.0),
        model(w2=2.0),
    ]
    for m in on_set:
        assert is_spherically_separable(m)
    for m in off_set:
        assert not is_spherically_separable(m)

    rs = np.linspace(0.3, 4.0, 10)
    ths = np.linspace(0.15, math.pi - 0.15, 12)
    for m in on_set:
        vals = np.array([[spherical_W(m, r, th) for th in ths] for r in rs])
        spread = np.max(np.ptp(vals, axis=1) / np.maximum(np.abs(vals).max(axis=1), 1e-30))
        assert spread <= 1e-12, spread
    for m in off_set:
        vals = np.array([[spherical_W(m, r, th) for th in ths] for r in rs])
        spread = np.max(np.ptp(vals, axis=1))
        assert spread >= 1e-3, spread
    _report(7, "separability gate exact on E1=E2 & a=b=0; W' flat on-set, varying off-set")


def test_criterion_8_anisotropy_identities():
    p1 = Potential8D("sho", omega=1.0)
    p2 = Potential8D("sho", omega=2.0)
    m = OscillatorModel(p1=p1, p2=p2, Z1=0.3, Z2=0.7)
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(100):
        r = rng.uniform(0.2, 5.0)
        th = rng.uniform(0.0, math.pi)
        lhs = spherical_W(m, r, th) + m.Z
        rhs = -(m.E1 + m.E2) / 2.0 - (m.E1 - m.E2) / 2.0 * math.cos(th)
        worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-30))
    assert worst <= 5e-15

    b = 0.8
    quartic = OscillatorModel(
        p1=Potential8D("super2", omega=1.0, b=b),
        p2=Potential8D("super2", omega=1.0, b=-b),
        Z1=0.5,
        Z2=0.5,
    )
    base = OscillatorModel(
        p1=Potential8D("super2", omega=1.0),
        p2=Potential8D("super2", omega=1.0),
        Z1=0.5,
        Z2=0.5,
    )
    worst_q = 0.0
    for _ in range(100):
        r = rng.uniform(0.2, 5.0)
        th = rng.uniform(0.0, math.pi)
        diff = spherical_W(quartic, r, th) - spherical_W(base, r, th)
        expect = b * r * math.cos(th)
        worst_q = max(worst_q, abs(diff - expect) / max(abs(expect), 1e-15))
    assert worst_q <= 1e-12
    _report(
        8,
        f"harmonic dipole identity to {worst:.1e}, quartic b*r*cos(theta) to {worst_q:.1e}",
    )
