import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hurwitz_kepler.algebra import build_gamma_set, hurwitz_forward, hurwitz_forward_batch

E8 = np.eye(8)


def test_gamma_zero_is_identity():
    g = build_gamma_set()
    assert np.array_equal(g[0], np.eye(8))


def test_gamma_matrices_orthogonal():
    g = build_gamma_set()
    for k in range(8):
        assert np.max(np.abs(g[k] @ g[k].T - np.eye(8))) == 0.0


def test_gamma_signed_permutations():
    # every row/column holds a single +-1 entry
    g = build_gamma_set()
    for k in range(8):
        assert np.all(np.sum(np.abs(g[k]), axis=0) == 1.0)
        assert np.all(np.sum(np.abs(g[k]), axis=1) == 1.0)


def test_gamma_deterministic():
    assert np.array_equal(build_gamma_set(), build_gamma_set())


def test_composition_unit_vectors():
    g = build_gamma_set()
    u = v = E8[0]
    total = sum(float(u @ g[k] @ v) ** 2 for k in range(8))
    assert total == pytest.approx(1.0, abs=1e-15)


def test_composition_identity_sweep():
    # oracle: direct numeric evaluation of both sides on random pairs
    g = build_gamma_set()
    rng = np.random.default_rng(2024)
    U = rng.normal(size=(10_000, 8))
    V = rng.normal(size=(10_000, 8))
    bilinear = np.einsum("kst,ns,nt->nk", g, U, V)
    lhs = np.einsum("nk,nk->n", bilinear, bilinear)
    rhs = np.einsum("ns,ns->n", U, U) * np.einsum("ns,ns->n", V, V)
    assert np.max(np.abs(lhs - rhs) / rhs) <= 1e-12


def test_forward_basis_cases():
    x = hurwitz_forward(E8[0], np.zeros(8))
    assert np.allclose(x[:8], 0.0) and x[8] == 1.0
    assert np.linalg.norm(x) == pytest.approx(1.0)
    y = hurwitz_forward(np.zeros(8), E8[0])
    assert y[8] == -1.0
    assert np.linalg.norm(y) == pytest.approx(1.0)


def test_forward_half_sum_relations():
    rng = np.random.default_rng(7)
    for _ in range(300):
        u = rng.normal(size=8)
        v = rng.normal(size=8)
        x = hurwitz_forward(u, v)
        r = np.linalg.norm(x)
        assert r + x[8] == pytest.approx(2.0 * (u @ u), rel=1e-13)
        assert r - x[8] == pytest.approx(2.0 * (v @ v), rel=1e-13)


def test_forward_scaling():
    rng = np.random.default_rng(11)
    u = rng.normal(size=8)
    v = rng.normal(size=8)
    x = hurwitz_forward(u, v)
    for s in (0.5, 2.0, -3.0):
        assert np.allclose(hurwitz_forward(s * u, s * v), s**2 * x, rtol=1e-13)


def test_forward_batch_matches_scalar():
    # the scalar path runs the same kernel on Python complex numbers: a few
    # ulps of the |x| = u.u + v.v scale apart
    rng = np.random.default_rng(5)
    U = rng.normal(size=(500, 8))
    V = rng.normal(size=(500, 8))
    X = hurwitz_forward_batch(U, V)
    for i in range(500):
        scale = U[i] @ U[i] + V[i] @ V[i]
        assert np.max(np.abs(hurwitz_forward(U[i], V[i]) - X[i])) <= 4 * np.finfo(float).eps * scale


def _gamma_reference(U, V):
    """x_k = 2 u^T Gamma_k v one Gamma matrix at a time, and x_8 = u.u - v.v."""
    g = build_gamma_set()
    cols = [2.0 * np.sum((U @ g[k]) * V, axis=1) for k in range(8)]
    return np.column_stack(cols + [np.sum(U * U, axis=1) - np.sum(V * V, axis=1)])


def test_forward_batch_matches_gamma_loop():
    # the batch map evaluates 2 u conj(v) on complex pairs and sums in another
    # order, so compare to a few ulps of the |x| = u.u + v.v scale; the sizes
    # straddle the block boundaries
    rng = np.random.default_rng(11)
    for n in (1, 4095, 4096, 4097, 8193):
        U = rng.normal(size=(n, 8))
        V = rng.normal(size=(n, 8))
        X = hurwitz_forward_batch(U, V)
        scale = np.sum(U * U, axis=1) + np.sum(V * V, axis=1)
        assert X.shape == (n, 9)
        assert np.max(np.abs(X - _gamma_reference(U, V)) / scale[:, None]) <= 8 * np.finfo(float).eps


def test_forward_batch_memory_layouts():
    # column-sliced (non-contiguous rows) and Fortran-order inputs give the C-order rows
    rng = np.random.default_rng(19)
    W = rng.normal(size=(5000, 16))
    U, V = np.ascontiguousarray(W[:, :8]), np.ascontiguousarray(W[:, 8:])
    X = hurwitz_forward_batch(U, V)
    assert np.array_equal(hurwitz_forward_batch(W[:, :8], W[:, 8:]), X)
    assert np.array_equal(hurwitz_forward_batch(np.asfortranarray(U), np.asfortranarray(V)), X)
    Us, Vs = W[:, ::2], W[:, 1::2]
    assert np.array_equal(hurwitz_forward_batch(Us, Vs), hurwitz_forward_batch(Us.copy(), Vs.copy()))
    assert np.array_equal(hurwitz_forward(Us[7], Vs[7]), hurwitz_forward(Us[7].copy(), Vs[7].copy()))


def test_forward_batch_rejects_non_finite():
    U = np.zeros((3, 8))
    U[1, 4] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        hurwitz_forward_batch(U, np.zeros((3, 8)))
    with pytest.raises(ValueError, match="non-finite"):
        hurwitz_forward_batch(np.zeros((3, 8)), np.full((3, 8), np.inf))
    # a NaN in the last block only
    U = np.ones((8193, 8))
    U[-1, 3] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        hurwitz_forward_batch(U, np.ones((8193, 8)))


def test_overflowing_norm_rejected_without_warning():
    # every entry is finite, but u.u = 8e400 is not
    big = np.full(8, 1e200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="overflows"):
            hurwitz_forward(big, np.zeros(8))
        with pytest.raises(ValueError, match="overflows"):
            hurwitz_forward_batch(np.zeros((2, 8)), np.vstack([np.zeros(8), big]))
        with pytest.raises(ValueError, match="non-finite"):
            hurwitz_forward_batch(np.full((2, 8), np.inf), np.zeros((2, 8)))


def test_forward_rejects_bad_input():
    with pytest.raises(ValueError):
        hurwitz_forward(np.zeros(7), np.zeros(8))
    with pytest.raises(ValueError):
        hurwitz_forward(np.full(8, np.nan), np.zeros(8))


unit8 = st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=8, max_size=8).filter(
    lambda c: max(abs(t) for t in c) > 1e-3
)


@settings(max_examples=200, deadline=None)
@given(
    u=unit8,
    v=unit8,
    s=st.floats(min_value=-2.0, max_value=2.0),
    pair=st.sampled_from(["generic", "v=0", "v=su"]),
    exponent=st.integers(min_value=-50, max_value=50),
)
def test_forward_norm_and_x9_properties(u, v, s, pair, exponent):
    # |x|^2 = (u.u + v.v)^2 and x9 = u.u - v.v on both entry points, over
    # 100 decades of scale and at the degenerate pairs v = 0 and v = s u
    scale = 10.0**exponent
    u = scale * np.array(u)
    v = {"generic": scale * np.array(v), "v=0": np.zeros(8), "v=su": s * u}[pair]
    uu, vv = u @ u, v @ v
    for x in (hurwitz_forward(u, v), hurwitz_forward_batch(u[None], v[None])[0]):
        assert x @ x == pytest.approx((uu + vv) ** 2, rel=1e-12)
        assert abs(x[8] - (uu - vv)) <= 1e-12 * (uu + vv)
