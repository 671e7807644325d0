"""The two benchmark workloads and the closed forms that check them.

A workload hands the harness one *round* of operations at a time.  Every
round holds the same kinds of operation in the same numbers, so the cost of
a round does not depend on the seed; the seed draws the order of the round
and the inputs of each operation.  Drawn inputs are chosen where the cost
and the accuracy of the solve do not depend on them: a frequency or charge
that only rescales a problem whose domain scales with it, or the
orientation of a (c1, c2) pair, which swaps the two parabolic equations.

Every operation is checked against a closed form computed here, not by the
package, at the tolerance the acceptance tests pin for it.  ``check``
returns the worst relative deviation; a deviation above ``tol``, an
exception, or a nonzero CLI exit is a failed operation.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.special import eval_genlaguerre, gammaln

from hurwitz_kepler import algebra, analytic, cli, coords, numeric, potentials
from hurwitz_kepler.analytic import QesPrimedParams, QuantumNumbers
from hurwitz_kepler.numeric import Grid
from hurwitz_kepler.potentials import MiczParams, OscillatorModel, Potential8D


class Miss(Exception):
    """An operation's output is structurally wrong (missing rows, bad nodes)."""


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], float]
    tol: float


# ---------------------------------------------------------------------------
# closed forms


def lprime(L: int, c: float) -> float:
    """Regular root of L'(L'+6) = L(L+6) + 2c."""
    return -3.0 + math.sqrt((L + 3.0) ** 2 + 2.0 * c)


def osc_energy(N: int, L: int, omega: float, c: float) -> float:
    """Z = omega (2N + L' + 4)."""
    return omega * (2 * N + lprime(L, c) + 4.0)


def pole_exponent(c: float) -> float:
    """Regular exponent a(a+3) = 2c of one non-central strength: L'(0, 4c) / 2."""
    return 0.5 * lprime(0, 4.0 * c)


def micz_energy(Z: float, c1: float, c2: float, n: int) -> float:
    """E = -Z^2 / (2 (s0 + n)^2), s0 = 4 + a(c1) + a(c2), n = polar + radial index."""
    s0 = 4.0 + pole_exponent(c1) + pole_exponent(c2)
    return -(Z**2) / (2.0 * (s0 + n) ** 2)


def polar_eigenvalue(c1: float, c2: float, n: int) -> float:
    """Lambda = lam (lam + 7) with lam = n + a(c1) + a(c2)."""
    lam = n + pole_exponent(c1) + pole_exponent(c2)
    return lam * (lam + 7.0)


def radial_wavefunction_ref(N: int, L: int, omega: float, c: float, r) -> np.ndarray:
    """r^L' exp(-w r^2/2) 1F1(-N; L'+4; w r^2) through the Laguerre polynomial."""
    lp = lprime(L, c)
    beta = lp + 4.0
    z = omega * r**2
    norm = math.exp(math.lgamma(N + 1) + gammaln(beta) - gammaln(beta + N))
    return r**lp * np.exp(-0.5 * z) * norm * eval_genlaguerre(N, beta - 1.0, z)


def qes_residual(family: str, polys, energies, a_p, b_p, dim, pot, charges=None) -> float:
    """Worst |H f - E f| over the sum of the term sizes, f = P(r) exp(-phi).

    H f = -f'' - (dim/r) f' + V f in the reduced frame, with the gauge of
    the primed tables and c' = 0 (so no r^m factor).  Exact up to rounding
    for a closed block; a state that does not solve the equation shows up
    at order one.
    """
    P = np.polynomial.Polynomial
    r = np.linspace(0.3, 3.5, 64)
    if family == "super2":
        phi = P([0.0, 0.0, 0.5 * b_p, 0.0, 0.25 * a_p])
    else:
        phi = P([0.0, a_p, 0.5 * b_p])
    d1, d2 = phi.deriv(1)(r), phi.deriv(2)(r)
    worst = 0.0
    for i, coeffs in enumerate(polys):
        if family == "super2":
            full = np.zeros(2 * len(coeffs) - 1)
            full[::2] = coeffs
            poly = P(full)
            v = 0.5 * pot.omega**2 * r**2 + pot.b * r**4 + pot.a * r**6
        else:
            poly = P(list(coeffs))
            v = 0.5 * pot.omega**2 * r**2 + pot.a * r + charges[i] / r
        p0, p1, p2 = poly(r), poly.deriv(1)(r), poly.deriv(2)(r)
        e = energies[i]
        terms = [-p2, 2.0 * d1 * p1, d2 * p0, -(d1**2) * p0, -dim / r * p1, dim / r * d1 * p0, v * p0, -e * p0]
        scale = np.max(sum(np.abs(t) for t in terms))
        worst = max(worst, float(np.max(np.abs(sum(terms))) / scale))
    return worst


def rel(x, ref) -> float:
    x, ref = np.asarray(x, dtype=float), np.asarray(ref, dtype=float)
    return float(np.max(np.abs(x - ref) / np.abs(ref)))


# ---------------------------------------------------------------------------
# shared draws

# (c1, c2) pairs.  (0, 0), (1, 2) and (0.5, 1.5) run in every round; (1, 0)
# runs in the orientation the seed draws, which swaps the u- and
# v-equations and leaves the cost unchanged.  The two orientations of
# (0.5, 1.5) differ in cost by a fifth, so that pair is not swapped.
FIXED_PAIRS = ((0.0, 0.0), (1.0, 2.0), (0.5, 1.5))
SWAPPED_PAIRS = ((1.0, 0.0),)


def draw_pairs(rng) -> list:
    return list(FIXED_PAIRS) + [p if rng.random() < 0.5 else p[::-1] for p in SWAPPED_PAIRS]


def sho_model() -> OscillatorModel:
    """Two sho factors with omega = 1 and total charge Z = 1."""
    p = Potential8D("sho", omega=1.0)
    return OscillatorModel(p1=p, p2=p, Z1=0.5, Z2=0.5)


def qes_super2_params(N: int, scale: float, a_p: float) -> QesPrimedParams:
    # r -> r/scale maps the family onto itself with a' ~ scale^4, b' ~ scale^2
    return QesPrimedParams(a_p=a_p * scale**4, b_p=scale**2, N=N, dim=8)


def qes_sub2_params(N: int, scale: float) -> QesPrimedParams:
    return QesPrimedParams(a_p=scale, b_p=scale**2, N=N, dim=8)


# ---------------------------------------------------------------------------
# workloads


class Parabolic:
    """parabolic_joint_solve on the two lowest states of each drawn pair."""

    def warmup(self):
        numeric.parabolic_joint_solve(
            sho_model(), MiczParams(Z=1.0), Grid(n=200), bracket=(-0.045, -0.024)
        )

    def round(self, rng) -> list:
        ops = []
        for c1, c2 in draw_pairs(rng):
            micz = MiczParams(Z=1.0, c1=c1, c2=c2)
            for n in (0, 1):
                e = micz_energy(1.0, c1, c2, n)
                ops.append(
                    Op(
                        f"joint[{c1:g},{c2:g}]n{n}",
                        lambda micz=micz, e=e: numeric.parabolic_joint_solve(
                            sho_model(), micz, Grid(n=1500), bracket=(1.3 * e, 0.8 * e)
                        ),
                        lambda st, e=e: rel(st.E, e),
                        1e-5,
                    )
                )
        return ops


class Spherical:
    """Fixed-grid fd_eigensolve work with no root search."""

    def warmup(self):
        prob = numeric.build_radial_problem("osc8", potential=Potential8D("sho", omega=1.0))
        numeric.fd_eigensolve(prob, Grid(n=1000), 1)

    def round(self, rng) -> list:
        ops = []
        for c in (0.0, 1.0, 8.0):
            for L in (0, 1, 2):
                for _ in range(3):
                    ops.append(self._osc8(rng.uniform(0.5, 2.0), c, L))
        for c1, c2 in draw_pairs(rng):
            ops.append(self._micz(rng.uniform(0.5, 2.0), c1, c2))
            ops.append(self._polar(c1, c2))
        for grid in (Grid(n=6000), Grid(n=500, spacing="log", stretch=4.0)):
            ops.append(self._coulomb(rng.uniform(0.5, 2.0), grid))
        for N, a_p in ((1, 0.05), (2, 0.05), (3, 0.03)):
            ops.append(self._qes_super2(N, a_p))
        for N in (1, 2):
            params = QesPrimedParams(a_p=1.0, b_p=1.0, N=N, dim=8)
            sol = analytic.qes_solve(params, "sub2")
            pot, _ = analytic.qes_map_sub2(params)
            for i, (e, b) in enumerate(zip(sol.energies, sol.charges)):
                pot_i = Potential8D("sub2", omega=pot.omega, a=pot.a, b=float(b), c=pot.c)
                ops.append(self._qes_fd(f"qes_sub2 N{N}.{i}", pot_i, 12.0, N + 2, [e]))
        return ops

    @staticmethod
    def _osc8(omega, c, L):
        pot = Potential8D("sho", omega=omega, c=c)
        exact = [osc_energy(N, L, omega, c) for N in range(4)]

        def run():
            return numeric.fd_eigensolve(
                numeric.build_radial_problem("osc8", potential=pot, L=L), Grid(n=4000), 4
            )

        def check(spec):
            if tuple(spec.node_counts) != (0, 1, 2, 3):
                raise Miss(f"node counts {spec.node_counts}")
            return rel(spec.eigenvalues, exact)

        return Op(f"osc8 c{c:g} L{L}", run, check, 1e-6)

    @staticmethod
    def _micz(Z, c1, c2):
        micz = MiczParams(Z=Z, c1=c1, c2=c2)

        def run():
            return numeric.spherical_micz_energies(
                micz, 2, 2, Grid(n=3000), Grid(n=4000), rmax=320.0 / Z
            )

        def check(states):
            if len(states) != 4:
                raise Miss(f"{len(states)} states")
            err = 0.0
            for E, it, N, lam in states:
                err = max(err, rel(E, micz_energy(Z, c1, c2, it + N)))
                err = max(err, abs(lam - polar_eigenvalue(c1, c2, it)) / max(1.0, lam))
            return err

        return Op(f"micz[{c1:g},{c2:g}]", run, check, 1e-5)

    @staticmethod
    def _polar(c1, c2):
        exact = np.array([polar_eigenvalue(c1, c2, n) for n in range(3)])

        def run():
            prob = numeric.build_radial_problem("theta", micz=MiczParams(Z=1.0, c1=c1, c2=c2))
            return numeric.fd_eigensolve(prob, Grid(n=4000), 3)

        def check(spec):
            return float(np.max(np.abs(spec.eigenvalues - exact) / np.maximum(1.0, exact)))

        return Op(f"polar[{c1:g},{c2:g}]", run, check, 1e-6)

    @staticmethod
    def _coulomb(Z, grid):
        def run():
            prob = numeric.build_radial_problem("coul9", Z=Z, lam=0.0, rmax=260.0 / Z)
            return numeric.fd_eigensolve(prob, grid, 1)

        return Op(f"coul9 {grid.spacing}", run, lambda s: rel(s.eigenvalues[0], -Z * Z / 32.0), 1e-5)

    def _qes_super2(self, N, a_p):
        params = QesPrimedParams(a_p=a_p, b_p=1.0, N=N, dim=8)
        sol = analytic.qes_solve(params, "super2")
        pot = analytic.qes_map_super2(params)
        return self._qes_fd(f"qes_super2 N{N}", pot, 9.0, N + 2, sol.energies)

    @staticmethod
    def _qes_fd(name, pot, rmax, k, energies):
        def run():
            prob = numeric.qes_verification_problem(pot, 8, rmax)
            return numeric.fd_eigensolve(prob, Grid(n=3000), k)

        def check(spec):
            return max(float(np.min(np.abs(spec.eigenvalues - e)) / abs(e)) for e in energies)

        return Op(name, run, check, 1e-5)


class ClosedForms:
    """In-process work with no finite differences."""

    def warmup(self):
        for op in self.round(np.random.default_rng(0)):
            op.run()

    def round(self, rng) -> list:
        return [
            self._batch(rng.normal(size=(200_000, 8)), rng.normal(size=(200_000, 8))),
            self._forward(rng.normal(size=(2000, 8)), rng.normal(size=(2000, 8))),
            self._coords(rng, 300),
            self._potentials(rng),
            self._oscillator(rng),
            self._qes("super2"),
            self._qes("sub2"),
        ]

    @staticmethod
    def _composition(U, V, X) -> float:
        uu, vv = np.einsum("ns,ns->n", U, U), np.einsum("ns,ns->n", V, V)
        lhs = np.einsum("nk,nk->n", X, X)
        return max(rel(lhs, (uu + vv) ** 2), float(np.max(np.abs(X[:, 8] - (uu - vv)) / (uu + vv))))

    def _batch(self, U, V):
        return Op(
            "batch",
            lambda: algebra.hurwitz_forward_batch(U, V),
            lambda X: self._composition(U, V, X),
            1e-12,
        )

    def _forward(self, U, V):
        return Op(
            "forward",
            lambda: np.array([algebra.hurwitz_forward(u, v) for u, v in zip(U, V)]),
            lambda X: self._composition(U, V, X),
            1e-12,
        )

    @staticmethod
    def _coords(rng, count):
        r = rng.uniform(0.5, 3.0, size=(count, 2))
        theta = rng.uniform(0.1, math.pi - 0.1, size=count)
        phi = np.column_stack(
            [rng.uniform(0.1, 2.0 * math.pi - 0.1, size=count)]
            + [rng.uniform(0.1, math.pi - 0.1, size=count) for _ in range(6)]
        )

        def run():
            out = []
            for i in range(count):
                h = coords.hyperspherical_to_cartesian8(coords.Hyperspherical8(r[i, 0], phi[i]))
                x = coords.spherical9_to_cartesian(coords.Spherical9(r[i, 0], theta[i], phi[i]))
                p = coords.cartesian9_to_parabolic(x)
                x2 = coords.parabolic_to_cartesian9(p)
                q = coords.Parabolic9(r[i, 0], r[i, 1], phi[i])
                q2 = coords.cartesian9_to_parabolic(coords.parabolic_to_cartesian9(q))
                out.append((h, x, p, x2, q2))
            return out

        def check(out):
            err = 0.0
            for i, (h, x, p, x2, q2) in enumerate(out):
                ri, th = r[i, 0], theta[i]
                err = max(
                    err,
                    abs(np.linalg.norm(h) - ri) / ri,
                    abs(p.u - 2.0 * ri * math.cos(th / 2.0) ** 2) / ri,
                    abs(p.v - 2.0 * ri * math.sin(th / 2.0) ** 2) / ri,
                    float(np.max(np.abs(np.array(p.phi) - phi[i]))),
                    float(np.max(np.abs(x2 - x))) / ri,
                    abs(q2.u - r[i, 0]) / r[i, 0],
                    abs(q2.v - r[i, 1]) / r[i, 1],
                    float(np.max(np.abs(np.array(q2.phi) - phi[i]))),
                )
            return err

        return Op("coords", run, check, 1e-12)

    @staticmethod
    def _potentials(rng):
        w1, w2 = rng.uniform(0.5, 2.0, size=2)
        z1, z2 = rng.uniform(0.2, 1.0, size=2)
        b = rng.uniform(0.2, 1.0)
        harmonic = OscillatorModel(Potential8D("sho", omega=w1), Potential8D("sho", omega=w2), Z1=z1, Z2=z2)
        quartic = OscillatorModel(
            Potential8D("super2", omega=w1, b=b), Potential8D("super2", omega=w1, b=-b), Z1=z1, Z2=z2
        )
        base = OscillatorModel(Potential8D("super2", omega=w1), Potential8D("super2", omega=w1), Z1=z1, Z2=z2)
        a3, b3, a4, b4 = rng.uniform(0.1, 1.0, size=4)
        mixed = OscillatorModel(
            Potential8D("super2", omega=w1, a=a3, b=b3), Potential8D("sub2", omega=w2, a=a4, b=b4), Z1=z1, Z2=z2
        )
        R, TH = np.meshgrid(np.linspace(0.2, 5.0, 200), np.linspace(0.05, math.pi - 0.05, 200))
        w = np.linspace(0.05, 20.0, 20_000)

        def run():
            wu, wv = potentials.parabolic_W(mixed)
            return (
                potentials.spherical_W(harmonic, R, TH),
                potentials.spherical_W(quartic, R, TH) - potentials.spherical_W(base, R, TH),
                wu(w),
                wv(w),
            )

        def check(out):
            sph, diff, wu, wv = out
            e1, e2 = harmonic.E1, harmonic.E2
            dipole = -(e1 + e2) / 2.0 - (e1 - e2) / 2.0 * np.cos(TH)
            E1, E2 = mixed.E1, mixed.E2
            u_terms = [-0.5 * w * E1, 0.25 * b3 * w**2, 0.125 * a3 * w**3, np.full_like(w, -z1)]
            v_terms = [-0.5 * w * E2, b4 * np.sqrt(2.0 / w), a4 * np.sqrt(w / 2.0), np.full_like(w, -z2)]
            return max(
                rel(sph + z1 + z2, dipole),
                float(np.max(np.abs(diff - b * R * np.cos(TH)) / (b * R))),
                float(np.max(np.abs(wu - sum(u_terms)) / sum(np.abs(t) for t in u_terms))),
                float(np.max(np.abs(wv - sum(v_terms)) / sum(np.abs(t) for t in v_terms))),
            )

        return Op("potentials", run, check, 1e-12)

    @staticmethod
    def _oscillator(rng):
        omega = rng.uniform(0.5, 2.0)
        c = rng.uniform(0.0, 8.0)
        levels = [(N, L) for N in range(6) for L in range(5)]
        r = np.linspace(0.05, 4.0 / math.sqrt(omega), 200)
        states = [(0, 0), (1, 1), (2, 0), (3, 2), (4, 1), (5, 3)]

        def run():
            z = [analytic.singular_oscillator_energy(QuantumNumbers(N, L), omega, c) for N, L in levels]
            wf = [analytic.radial_wavefunction(QuantumNumbers(N, L), omega, c, r) for N, L in states]
            return z, wf

        def check(out):
            z, wf = out
            err = rel(z, [osc_energy(N, L, omega, c) for N, L in levels])
            for (N, L), f in zip(states, wf):
                ref = radial_wavefunction_ref(N, L, omega, c, r)
                err = max(err, float(np.max(np.abs(f - ref)) / np.max(np.abs(ref))))
            return err

        return Op("oscillator", run, check, 1e-10)

    @staticmethod
    def _qes(family):
        # fixed parameters: this operation's rounding sets max_rel_err, which
        # must not depend on the seed
        if family == "super2":
            params = [qes_super2_params(N, 1.0, 0.02) for N in range(1, 7)]
        else:
            params = [qes_sub2_params(N, 1.0) for N in range(1, 7)]

        def run():
            return [analytic.qes_solve(p, family) for p in params]

        def check(sols):
            err = 0.0
            for p, sol in zip(params, sols):
                if sol.closure_residual > 1e-9:
                    raise Miss(f"closure residual {sol.closure_residual:.3g}")
                if family == "super2":
                    pot, charges = analytic.qes_map_super2(p), None
                else:
                    pot, _ = analytic.qes_map_sub2(p)
                    charges = sol.charges
                    # E = -d = b'(2N + D - 1 - 2c') - a'^2
                    err = max(err, rel(sol.energies, p.b_p * (2 * p.N + p.dim - 1) - p.a_p**2))
                err = max(err, qes_residual(family, sol.polynomials, sol.energies, p.a_p, p.b_p, p.dim, pot, charges))
            return err

        return Op(f"qes_{family}", run, check, 1e-9)


class Cli:
    """Fresh-interpreter runs of the CLI on README-style configs.

    ``in_process`` runs ``cli.main(argv)`` instead of a new interpreter; the
    traced pass uses it so that the wrappers see the calls.
    """

    name = "cli"
    trace_rounds = 1

    def __init__(self, work: Path, env: dict):
        self.work = work
        self.env = env

    def warmup(self):
        pass

    def round(self, rng, in_process=False) -> list:
        ops = [
            self._transform(int(rng.integers(2**31)), in_process),
            self._spectrum_osc(rng.uniform(0.5, 2.0), rng.uniform(0.0, 4.0), in_process),
            self._spectrum_micz(rng.uniform(0.5, 2.0), (1.0, 2.0) if rng.random() < 0.5 else (2.0, 1.0), in_process),
            self._qes("super2", qes_super2_params(2, rng.uniform(0.8, 1.25), 0.05), in_process),
            self._qes("sub2", qes_sub2_params(2, rng.uniform(0.8, 1.25)), in_process),
            self._duality([(0.0, 0.0)], True, in_process, "d00"),
            self._duality([(1.0, 2.0) if rng.random() < 0.5 else (2.0, 1.0)], True, in_process, "d12"),
            self._duality([tuple(rng.uniform(0.0, 3.0, size=2)) for _ in range(3)], False, in_process, "dnv"),
        ]
        return [ops[i] for i in rng.permutation(len(ops))]

    def _invoke(self, sub: str, cfg: dict, tag: str, extra: list, in_process: bool, product: str):
        d = self.work / tag
        d.mkdir(parents=True, exist_ok=True)
        cfg_path = d / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        argv = [sub, str(cfg_path), "--out", str(d)] + extra

        def run():
            (d / product).unlink(missing_ok=True)
            if in_process:
                rc = cli.main(argv)
            else:
                rc = subprocess.run(
                    [sys.executable, "-m", "hurwitz_kepler.cli"] + argv,
                    env=self.env,
                    stdout=subprocess.DEVNULL,
                    stderr=subprocess.DEVNULL,
                ).returncode
            if rc != 0:
                return rc, None
            return rc, d / product

        return run

    @staticmethod
    def _output(result):
        rc, path = result
        if rc != 0:
            raise Miss(f"exit code {rc}")
        return path

    def _transform(self, seed, in_process):
        count = 20_000
        run = self._invoke("transform", {"count": count, "seed": seed}, "transform", [], in_process, "transform.csv")

        def check(result):
            table = np.loadtxt(self._output(result), delimiter=",", skiprows=1)
            if table.shape != (count, 28):
                raise Miss(f"transform.csv has shape {table.shape}")
            gen = np.random.default_rng(seed)
            U, V = gen.normal(size=(count, 8)), gen.normal(size=(count, 8))
            if not (np.array_equal(table[:, :8], U) and np.array_equal(table[:, 8:16], V)):
                raise Miss("transform.csv inputs differ from the seeded draw")
            return ClosedForms._composition(U, V, table[:, 16:25])

        return Op("cli.transform", run, check, 1e-12)

    def _spectrum_osc(self, omega, c, in_process):
        cfg = {
            "problem": "oscillator",
            "potential": {"variant": "sho", "omega": omega, "c": c},
            "n_max": 2,
            "l_max": 1,
            "grid": {"n": 4000},
        }
        run = self._invoke("spectrum", cfg, "spectrum_osc", [], in_process, "spectrum.json")

        def check(result):
            rows = json.loads(self._output(result).read_text())["rows"]
            if len(rows) != 6:
                raise Miss(f"{len(rows)} spectrum rows")
            return max(max(rel(z, osc_energy(N, L, omega, c)), rel(fd, osc_energy(N, L, omega, c))) for N, L, z, fd, _ in rows)

        return Op("cli.spectrum:oscillator", run, check, 1e-6)

    def _spectrum_micz(self, Z, pair, in_process):
        c1, c2 = pair
        cfg = {"problem": "micz", "micz": {"Z": Z, "c1": c1, "c2": c2}, "n_states": 2}
        run = self._invoke("spectrum", cfg, "spectrum_micz", [], in_process, "spectrum.json")

        def check(result):
            rows = json.loads(self._output(result).read_text())["rows"]
            if len(rows) != 4:
                raise Miss(f"{len(rows)} spectrum rows")
            return max(
                max(rel(fd, micz_energy(Z, c1, c2, it + N)), abs(lam - polar_eigenvalue(c1, c2, it)) / max(1.0, lam))
                for it, N, lam, _, fd, _ in rows
            )

        return Op("cli.spectrum:micz", run, check, 1e-5)

    def _qes(self, family, p, in_process):
        cfg = {"family": family, "a_prime": p.a_p, "b_prime": p.b_p, "N": p.N}
        run = self._invoke("qes", cfg, f"qes_{family}", ["--verify"], in_process, "qes.json")

        def check(result):
            doc = json.loads(self._output(result).read_text())
            if doc["closure_residual"] > 1e-9:
                raise Miss(f"closure residual {doc['closure_residual']:.3g}")
            if family == "super2":
                pot, err = analytic.qes_map_super2(p), 0.0
            else:
                pot, _ = analytic.qes_map_sub2(p)
                err = rel(doc["energies"], p.b_p * (2 * p.N + p.dim - 1) - p.a_p**2)
            res = qes_residual(family, doc["polynomials"], doc["energies"], p.a_p, p.b_p, p.dim, pot, doc["charges"])
            if res > 1e-9:
                raise Miss(f"H f - E f residual {res:.3g}")
            return max(err, doc["fd_max_rel_dev"], res)

        return Op(f"cli.qes:{family}", run, check, 1e-5)

    def _duality(self, cases, verify, in_process, tag):
        omega = 0.25
        cfg = {"omega": omega, "cases": [{"c1": c1, "c2": c2} for c1, c2 in cases]}
        extra = [] if verify else ["--no-verify"]
        run = self._invoke("duality", cfg, tag, extra, in_process, "duality_report.json")

        def check(result):
            doc = json.loads(self._output(result).read_text())
            if len(doc["cases"]) != len(cases):
                raise Miss(f"{len(doc['cases'])} duality cases for {len(cases)} configured")
            e_dual = -0.5 * omega**2
            err = 0.0
            for case, (c1, c2) in zip(doc["cases"], cases):
                z_osc = omega * (lprime(0, 4.0 * c1) + 4.0) + omega * (lprime(0, 4.0 * c2) + 4.0)
                err = max(err, rel(case["E_dual"], e_dual), rel(case["Z_oscillator"], z_osc))
                if verify:
                    err = max(err, rel(case["E_spherical"], e_dual), rel(case["E_parabolic"], e_dual))
                elif case["E_spherical"] is not None:
                    raise Miss("--no-verify report carries finite-difference energies")
            return err

        return Op(f"cli.duality:{tag}", run, check, 1e-5)


class Library:
    """In-process library calls: one round of each of the three parts above.

    The joint searches take most of a round's time and are its slowest
    operations, so they set ``ops_per_s`` and ``op_tail_s``; the fixed-grid
    solves and closed forms are most of its operations, so they set
    ``op_p50_s``.
    """

    name = "library"
    trace_rounds = 1

    def __init__(self):
        self.parts = (Parabolic(), Spherical(), ClosedForms())

    def warmup(self):
        for part in self.parts:
            part.warmup()

    def round(self, rng, in_process=False) -> list:
        ops = [op for part in self.parts for op in part.round(rng)]
        return [ops[i] for i in rng.permutation(len(ops))]


def make(name: str, work: Path, env: dict):
    if name == "cli":
        return Cli(work, env)
    return Library()
