import math

import numpy as np
import pytest

from hurwitz_kepler.potentials import (
    MiczParams,
    OscillatorModel,
    Potential8D,
    eval_potential,
    is_spherically_separable,
    micz_centrifugal_strengths,
    micz_from_dict,
    model_from_dict,
    model_number,
    parabolic_W,
    potential_from_dict,
    spherical_W,
)


def _model(v1="sub2", v2="sub2", w1=1.0, w2=1.0, **kw):
    fields1 = {k[:-1]: kw[k] for k in ("a1", "b1", "c1") if k in kw}
    fields2 = {k[:-1]: kw[k] for k in ("a2", "b2", "c2") if k in kw}
    return OscillatorModel(
        p1=Potential8D(v1, omega=w1, **fields1),
        p2=Potential8D(v2, omega=w2, **fields2),
        Z1=kw.get("Z1", 0.0),
        Z2=kw.get("Z2", 0.0),
    )


class TestEvalPotential:
    def test_sho(self):
        assert eval_potential(Potential8D("sho", omega=1.0), 2.0) == pytest.approx(2.0)

    def test_sub2(self):
        p = Potential8D("sub2", omega=1.0, c=1.0)
        assert eval_potential(p, 1.0) == pytest.approx(1.5)

    def test_super2(self):
        p = Potential8D("super2", omega=2.0, a=1.0, b=1.0)
        assert eval_potential(p, 1.0) == pytest.approx(4.0)

    def test_domain(self):
        with pytest.raises(ValueError):
            eval_potential(Potential8D("sho", omega=1.0), 0.0)
        with pytest.raises(ValueError):
            eval_potential(Potential8D("sho", omega=1.0), -1.0)

    def test_invariants(self):
        with pytest.raises(ValueError):
            Potential8D("sho", omega=-1.0)
        with pytest.raises(ValueError):
            Potential8D("sho", omega=1.0, a=0.5)
        with pytest.raises(ValueError):
            Potential8D("weird", omega=1.0)


class TestSphericalW:
    def test_separable_value(self):
        m = _model(Z1=0.3, Z2=0.7)
        E = m.E1
        for th in (0.2, 1.0, 2.5):
            assert spherical_W(m, 1.7, th) == pytest.approx(-E - 1.0, rel=1e-14)

    def test_anisotropy_identity(self):
        m = _model(v1="sho", v2="sho", w1=1.0, w2=2.0, Z1=0.5, Z2=0.5)
        rng = np.random.default_rng(3)
        for _ in range(100):
            r = rng.uniform(0.2, 5.0)
            th = rng.uniform(0.0, math.pi)
            expect = -(m.E1 + m.E2) / 2.0 - (m.E1 - m.E2) / 2.0 * math.cos(th) - m.Z
            assert spherical_W(m, r, th) == pytest.approx(expect, rel=1e-14, abs=1e-14)

    def test_opposite_quartic_gives_linear_cosine(self):
        b = 0.37
        m = _model(v1="super2", v2="super2", b1=b, b2=-b)
        rng = np.random.default_rng(4)
        for _ in range(100):
            r = rng.uniform(0.2, 5.0)
            th = rng.uniform(0.0, math.pi)
            base = _model(v1="super2", v2="super2")
            quartic = spherical_W(m, r, th) - spherical_W(base, r, th)
            assert quartic == pytest.approx(b * r * math.cos(th), rel=1e-12, abs=1e-12)

    def test_singular_at_poles_with_inverse_rho(self):
        m = _model(b1=1.0)
        with pytest.raises(ValueError):
            spherical_W(m, 1.0, math.pi)  # cos(theta/2) = 0 meets b1/sqrt(x)
        # the other pole is fine for factor 1
        spherical_W(m, 1.0, 0.0)

    def test_r_positive(self):
        with pytest.raises(ValueError):
            spherical_W(_model(), 0.0, 1.0)


class TestSeparabilityGate:
    def test_true_on_condition_set(self):
        assert is_spherically_separable(_model(c1=2.0, c2=5.0))

    def test_false_with_anharmonic(self):
        assert not is_spherically_separable(_model(b1=0.1))
        assert not is_spherically_separable(_model(a2=0.1))

    def test_false_with_unequal_frequencies(self):
        m = _model(w1=1.0, w2=2.0)
        assert not is_spherically_separable(m)
        # and spherical_W indeed varies with theta
        w0 = spherical_W(m, 1.0, 0.3)
        w1 = spherical_W(m, 1.0, 2.5)
        assert abs(w0 - w1) > 1e-3


class TestParabolicW:
    def test_sub2_formula(self):
        m = _model(a1=0.7, b1=0.3, Z1=0.25)
        wu, _ = parabolic_W(m)
        for u in (0.5, 1.0, 4.0):
            expect = -0.5 * u * m.E1 + 0.3 * math.sqrt(2.0 / u) + 0.7 * math.sqrt(u / 2.0) - 0.25
            assert wu(u) == pytest.approx(expect, rel=1e-14)

    def test_super2_formula(self):
        m = _model(v2="super2", a2=0.2, b2=0.4, Z2=1.5)
        _, wv = parabolic_W(m)
        for v in (0.5, 2.0):
            expect = -0.5 * v * m.E2 + 0.4 * v**2 / 4.0 + 0.2 * v**3 / 8.0 - 1.5
            assert wv(v) == pytest.approx(expect, rel=1e-14)

    def test_constant_when_only_charge(self):
        m = _model(Z1=2.0)
        m = OscillatorModel(p1=m.p1, p2=m.p2, Z1=2.0, Z2=0.0, E1=0.0, E2=0.0)
        wu, _ = parabolic_W(m)
        assert wu(0.3) == wu(5.0) == -2.0

    def test_domain_error(self):
        m = _model(b1=1.0)
        wu, _ = parabolic_W(m)
        with pytest.raises(ValueError):
            wu(0.0)
        with pytest.raises(ValueError):
            wu(-1.0)

    def test_cross_chart_identity(self):
        # W'_u(2 u.u) + W'_v(2 v.v) equals V1 + V2 - Z (c-terms excluded)
        # at the same 16-D point, and matches the spherical expression.
        rng = np.random.default_rng(21)
        m = _model(v1="sub2", v2="super2", a1=0.3, b1=0.2, c1=1.0, a2=0.1, b2=0.4,
                   c2=2.0, Z1=0.6, Z2=0.4)
        wu, wv = parabolic_W(m)
        for _ in range(150):
            u8 = rng.normal(size=8)
            v8 = rng.normal(size=8)
            xu, xv = u8 @ u8, v8 @ v8
            # sub2 and super2 written out, independent of the shared evaluator
            rho1 = math.sqrt(xu)
            v1 = 0.5 * m.p1.omega**2 * xu + m.p1.a * rho1 + m.p1.b / rho1
            v2 = 0.5 * m.p2.omega**2 * xv + m.p2.b * xv**2 + m.p2.a * xv**3
            direct = v1 + v2 - m.Z
            viaw = wu(2.0 * xu) + wv(2.0 * xv)
            assert viaw == pytest.approx(direct, rel=1e-12, abs=1e-12)
            # spherical route: r = xu + xv, cos^2(theta/2) = xu / r
            r = xu + xv
            th = 2.0 * math.atan2(math.sqrt(xv), math.sqrt(xu))
            sph = r * (spherical_W(m, r, th) + m.Z) - m.Z
            assert sph == pytest.approx(direct, rel=1e-12, abs=1e-12)


class TestMiczStrengths:
    def test_zero(self):
        assert micz_centrifugal_strengths(MiczParams(Z=1.0)) == (0.0, 0.0)

    def test_examples(self):
        assert micz_centrifugal_strengths(MiczParams(Z=1.0, J=1))[0] == pytest.approx(7.0 / 4.0)
        assert micz_centrifugal_strengths(MiczParams(Z=1.0, c2=2.0))[1] == pytest.approx(4.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            MiczParams(Z=1.0, c1=-1.0)
        with pytest.raises(ValueError):
            MiczParams(Z=1.0, J=-2)


class TestModelPlumbing:
    def test_default_energies_follow_duality(self):
        m = _model(w1=2.0, w2=0.5)
        assert m.E1 == -2.0 and m.E2 == -0.125

    def test_model_number(self):
        assert model_number(_model("sub2", "sub2")) == 1
        assert model_number(_model("sub2", "super2")) == 2
        assert model_number(_model("super2", "sub2")) == 3
        assert model_number(_model("super2", "super2")) == 4
        assert model_number(_model("sho", "sub2")) is None

    def test_dict_round_trip(self):
        d = {
            "p1": {"variant": "sub2", "omega": 1.0, "a": 0.1, "b": 0.2, "c": 0.3},
            "p2": {"variant": "super2", "omega": 2.0},
            "Z1": 0.5,
            "Z2": 0.5,
        }
        m = model_from_dict(d)
        assert m.p1.a == 0.1 and m.p2.variant == "super2" and m.Z == 1.0

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError):
            potential_from_dict({"variant": "sho", "omega": 1.0, "zeta": 2})
        with pytest.raises(ValueError):
            model_from_dict({"p1": {"variant": "sho", "omega": 1.0},
                             "p2": {"variant": "sho", "omega": 1.0}, "extra": 1})

    def test_qsq_rejected(self):
        # no solver takes Q^2, so the key is refused rather than ignored
        with pytest.raises(ValueError, match=r"unknown key\(s\) in micz block: \['Qsq'\]"):
            micz_from_dict({"Z": 1, "Qsq": 0.5})
