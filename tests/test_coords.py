import math

import numpy as np
import pytest

from hurwitz_kepler.algebra import hurwitz_forward
from hurwitz_kepler.coords import (
    Hyperspherical8,
    Parabolic9,
    Spherical9,
    cartesian9_to_parabolic,
    hyperspherical_to_cartesian8,
    parabolic_to_cartesian9,
    spherical9_to_cartesian,
)


def _rand_angles(rng):
    phi = rng.uniform(0.05, math.pi - 0.05, size=7)
    phi[0] = rng.uniform(0.0, 2.0 * math.pi - 1e-9)
    return tuple(phi)


def test_hyperspherical_axis_cases():
    x = hyperspherical_to_cartesian8(Hyperspherical8(r=1.0, phi=(0.0,) * 7))
    assert x[7] == pytest.approx(1.0) and np.allclose(x[:7], 0.0)
    c = Hyperspherical8(r=2.0, phi=(0.0,) * 6 + (math.pi / 2.0,))
    x = hyperspherical_to_cartesian8(c)
    assert x[6] == pytest.approx(2.0, abs=1e-15)
    assert np.max(np.abs(np.delete(x, 6))) <= 1e-15


def test_hyperspherical_norm_sweep():
    rng = np.random.default_rng(31)
    for _ in range(500):
        r = rng.uniform(0.1, 5.0)
        c = Hyperspherical8(r=r, phi=_rand_angles(rng))
        assert np.linalg.norm(hyperspherical_to_cartesian8(c)) == pytest.approx(r, rel=1e-14)


def test_spherical_poles():
    x = spherical9_to_cartesian(Spherical9(r=1.0, theta=0.0, phi=(0.0,) * 7))
    assert x[8] == pytest.approx(1.0)
    x = spherical9_to_cartesian(Spherical9(r=1.0, theta=math.pi, phi=(0.0,) * 7))
    assert x[8] == pytest.approx(-1.0)


def test_spherical_half_angle_relation():
    rng = np.random.default_rng(8)
    for _ in range(200):
        r = rng.uniform(0.2, 4.0)
        th = rng.uniform(0.0, math.pi)
        c = Spherical9(r=r, theta=th, phi=_rand_angles(rng))
        x = spherical9_to_cartesian(c)
        assert r + x[8] == pytest.approx(2.0 * r * math.cos(th / 2.0) ** 2, rel=1e-12, abs=1e-13)
        assert np.linalg.norm(x) == pytest.approx(r, rel=1e-14)


def test_parabolic_axis_cases():
    x = parabolic_to_cartesian9(Parabolic9(u=2.0, v=0.0, phi=(0.0,) * 7))
    assert x[8] == pytest.approx(1.0)
    assert np.allclose(x[:8], 0.0)
    assert np.linalg.norm(x) == pytest.approx(1.0)
    x = parabolic_to_cartesian9(Parabolic9(u=1.0, v=1.0, phi=(0.0,) * 7))
    assert x[8] == pytest.approx(0.0)
    assert np.linalg.norm(x) == pytest.approx(1.0)


def test_parabolic_half_sum_relation():
    rng = np.random.default_rng(9)
    for _ in range(200):
        u, v = rng.uniform(0.1, 3.0, size=2)
        x = parabolic_to_cartesian9(Parabolic9(u=u, v=v, phi=_rand_angles(rng)))
        r = np.linalg.norm(x)
        assert r + x[8] == pytest.approx(u, rel=1e-12)
        assert r - x[8] == pytest.approx(v, rel=1e-12)


def test_parabolic_inverse_axis():
    p = cartesian9_to_parabolic(np.eye(9)[8])
    assert (p.u, p.v) == (2.0, 0.0)
    p = cartesian9_to_parabolic(-np.eye(9)[8])
    assert (p.u, p.v) == (0.0, 2.0)


def test_parabolic_inverse_zero_rejected():
    with pytest.raises(ValueError):
        cartesian9_to_parabolic(np.zeros(9))


def test_parabolic_inverse_non_finite_rejected():
    for bad in (np.nan, np.inf):
        for i in (0, 8):
            x = np.ones(9)
            x[i] = bad
            with pytest.raises(ValueError, match="non-finite"):
                cartesian9_to_parabolic(x)


def test_parabolic_inverse_tiny_negative_azimuth():
    # atan2 gives -1e-20, and -1e-20 + 2 pi rounds to 2 pi: the azimuth is 0
    x = np.zeros(9)
    x[0], x[1] = -1e-20, 1.0
    p = cartesian9_to_parabolic(x)
    assert p.phi[0] == 0.0
    assert np.allclose(parabolic_to_cartesian9(p), x, rtol=0.0, atol=1e-15)


def test_parabolic_round_trip():
    rng = np.random.default_rng(10)
    for _ in range(500):
        x = rng.normal(size=9)
        x2 = parabolic_to_cartesian9(cartesian9_to_parabolic(x))
        assert np.allclose(x, x2, rtol=1e-12, atol=1e-12)


def test_chart_consistency_spherical_vs_parabolic():
    rng = np.random.default_rng(12)
    for _ in range(200):
        r = rng.uniform(0.2, 4.0)
        th = rng.uniform(0.01, math.pi - 0.01)
        phi = _rand_angles(rng)
        xs = spherical9_to_cartesian(Spherical9(r=r, theta=th, phi=phi))
        xp = parabolic_to_cartesian9(
            Parabolic9(u=r * (1.0 + math.cos(th)), v=r * (1.0 - math.cos(th)), phi=phi)
        )
        assert np.allclose(xs, xp, rtol=1e-12, atol=1e-12)


def test_composition_with_hurwitz_map():
    rng = np.random.default_rng(13)
    for _ in range(200):
        u8 = rng.normal(size=8)
        v8 = rng.normal(size=8)
        p = cartesian9_to_parabolic(hurwitz_forward(u8, v8))
        assert p.u == pytest.approx(2.0 * (u8 @ u8), rel=1e-12)
        assert p.v == pytest.approx(2.0 * (v8 @ v8), rel=1e-12)


def test_validation():
    with pytest.raises(ValueError):
        Hyperspherical8(r=-1.0, phi=(0.0,) * 7)
    with pytest.raises(ValueError):
        Spherical9(r=1.0, theta=4.0, phi=(0.0,) * 7)
    with pytest.raises(ValueError):
        Parabolic9(u=-0.1, v=1.0, phi=(0.0,) * 7)
    with pytest.raises(ValueError):
        Spherical9(r=1.0, theta=1.0, phi=(7.0,) + (0.0,) * 6)
