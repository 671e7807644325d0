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
    rng = np.random.default_rng(5)
    U = rng.normal(size=(20, 8))
    V = rng.normal(size=(20, 8))
    X = hurwitz_forward_batch(U, V)
    for i in range(20):
        assert np.allclose(X[i], hurwitz_forward(U[i], V[i]))


def test_forward_batch_matches_gamma_loop():
    # reference: x_k = 2 u^T Gamma_k v one matrix at a time; the batch map sums
    # in another order, so compare to a few ulps of the |x| = u.u + v.v scale
    rng = np.random.default_rng(11)
    U = rng.normal(size=(50, 8))
    V = rng.normal(size=(50, 8))
    g = build_gamma_set()
    ref = np.array([[2.0 * u @ g[k] @ v for k in range(8)] + [u @ u - v @ v] for u, v in zip(U, V)])
    X = hurwitz_forward_batch(U, V)
    scale = np.sum(U * U, axis=1) + np.sum(V * V, axis=1)
    assert np.max(np.abs(X - ref) / scale[:, None]) <= 8 * np.finfo(float).eps


def test_forward_batch_rejects_non_finite():
    U = np.zeros((3, 8))
    U[1, 4] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        hurwitz_forward_batch(U, np.zeros((3, 8)))
    with pytest.raises(ValueError, match="non-finite"):
        hurwitz_forward_batch(np.zeros((3, 8)), np.full((3, 8), np.inf))


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
