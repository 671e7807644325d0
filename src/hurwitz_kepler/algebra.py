"""Composition-algebra machinery behind the bilinear R^16 -> R^9 map.

The eight Gamma matrices are the left-multiplication matrices of an
orthonormal octonion basis e0..e7.  Octonions are built by Cayley-Dickson
doubling of the quaternions,

    (a, b) (c, d) = (a c - conj(d) b,  d a + b conj(c)),

with e0 the real unit, (e1, e2, e3) = (i, j, k) quaternionic and
e_{4+s} = (0, e_s).  The resulting product table e_row * e_col is fixed
once and for all:

    e0: +e0  +e1  +e2  +e3  +e4  +e5  +e6  +e7
    e1: +e1  -e0  +e3  -e2  +e5  -e4  -e7  +e6
    e2: +e2  -e3  -e0  +e1  +e6  +e7  -e4  -e5
    e3: +e3  +e2  -e1  -e0  +e7  -e6  +e5  -e4
    e4: +e4  -e5  -e6  -e7  -e0  +e1  +e2  +e3
    e5: +e5  +e4  -e7  +e6  -e1  -e0  -e3  +e2
    e6: +e6  +e7  +e4  -e5  -e2  +e3  -e0  -e1
    e7: +e7  -e6  +e5  +e4  -e3  -e2  +e1  -e0

Every basis product is +-1 times a basis element, so each Gamma_k is a
signed permutation matrix (hence orthogonal), and the composition
identity sum_k (u^T Gamma_k v)^2 = (u.u)(v.v) holds for all u, v.

All functions here are pure and operate on immutable inputs; they are
safe to call concurrently.
"""

from __future__ import annotations

import numpy as np

__all__ = ["build_gamma_set", "hurwitz_forward", "hurwitz_forward_batch"]


def _quat_mul(p, q):
    w1, x1, y1, z1 = p
    w2, x2, y2, z2 = q
    return np.array(
        [
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        ]
    )


def _quat_conj(p):
    return np.array([p[0], -p[1], -p[2], -p[3]])


def _oct_mul(p, q):
    a, b = p[:4], p[4:]
    c, d = q[:4], q[4:]
    return np.concatenate(
        [
            _quat_mul(a, c) - _quat_mul(_quat_conj(d), b),
            _quat_mul(d, a) + _quat_mul(b, _quat_conj(c)),
        ]
    )


_GAMMAS: np.ndarray | None = None


def build_gamma_set() -> np.ndarray:
    """Return the eight 8x8 Gamma matrices as an array of shape (8, 8, 8).

    ``gammas[k][s, t]`` is the s-component of ``e_k * e_t``, i.e. Gamma_k
    is left multiplication by the basis octonion e_k.  Gamma_0 is the
    identity.  The result is cached and returned read-only; the
    construction is deterministic.
    """
    global _GAMMAS
    if _GAMMAS is None:
        basis = np.eye(8)
        g = np.zeros((8, 8, 8))
        for k in range(8):
            for t in range(8):
                g[k][:, t] = _oct_mul(basis[k], basis[t])
        g.setflags(write=False)
        _GAMMAS = g
    return _GAMMAS


def _as_vec(x, dim: int, name: str) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.shape != (dim,):
        raise ValueError(f"{name} must have exactly {dim} components, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} has non-finite entries")
    return v


def hurwitz_forward(u, v, gammas: np.ndarray | None = None) -> np.ndarray:
    """Map a pair of 8-vectors (u, v) to the 9-vector x.

    x_k = 2 (Gamma_k)_{st} u_s v_t for k = 0..7 and x_8 = u.u - v.v,
    so that |x| = u.u + v.v.
    """
    return hurwitz_forward_batch(_as_vec(u, 8, "u"), _as_vec(v, 8, "v"), gammas)[0]


def hurwitz_forward_batch(U, V, gammas: np.ndarray | None = None) -> np.ndarray:
    """Vectorized :func:`hurwitz_forward` for stacked rows of u and v."""
    U = np.atleast_2d(np.asarray(U, dtype=float))
    V = np.atleast_2d(np.asarray(V, dtype=float))
    if U.shape[1] != 8 or V.shape[1] != 8 or U.shape[0] != V.shape[0]:
        raise ValueError("U and V must both have shape (n, 8)")
    if gammas is None:
        gammas = build_gamma_set()
    x = np.empty((U.shape[0], 9))
    x[:, :8] = 2.0 * np.einsum("kst,ns,nt->nk", gammas, U, V)
    x[:, 8] = np.einsum("ns,ns->n", U, U) - np.einsum("ns,ns->n", V, V)
    return x
