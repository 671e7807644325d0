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

The map itself does not use the Gamma matrices.  In a composition algebra
<e_k v, u> = <e_k, u conj(v)>, so x_k = 2 u^T Gamma_k v is twice component
k of the octonion u conj(v), x_{0..7} = 2 (u conj(v)).  That product is
evaluated by the doubling rule on complex pairs (each quaternion is a pair
of complex numbers), by one kernel that runs on Python complex scalars in
:func:`hurwitz_forward` and on numpy complex columns in
:func:`hurwitz_forward_batch`.  :func:`build_gamma_set` and the real
quaternion and octonion products stay as the independent reference the
tests compare the map against.

All functions here are pure and operate on immutable inputs; they are
safe to call concurrently.
"""

from __future__ import annotations

import math

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
    v = np.asarray(x, dtype=float, order="C")  # contiguous, so it can be viewed as complex
    if v.shape != (dim,):
        raise ValueError(f"{name} must have exactly {dim} components, got shape {v.shape}")
    return v


def _times_conj(a0, a1, b0, b1, c0, c1, d0, d1):
    """The octonion u conj(v) on complex pairs, for u = (a0, a1, b0, b1), v = (c0, c1, d0, d1).

    Octonion components (o0 .. o7) pair up as o0 + i o1, o2 + i o3, ...;
    (a0, a1) is the quaternion a = a0 + a1 j of u = (a, b), and so on.  With
    conj(v) = (conj(c), -d) the doubling rule gives u conj(v) =
    (a conj(c) + conj(d) b, b c - d a), and a quaternion product of complex
    pairs is (p0, p1)(q0, q1) = (p0 q0 - p1 conj(q1), p0 q1 + p1 conj(q0)).
    The same code runs on Python complex scalars and on numpy complex arrays.
    """
    ca0, ca1, cb0, cb1 = a0.conjugate(), a1.conjugate(), b0.conjugate(), b1.conjugate()
    cc0, cc1, cd0 = c0.conjugate(), c1.conjugate(), d0.conjugate()
    # in-place sums: on arrays they reuse the first product's buffer
    r0 = a0 * cc0
    r0 += a1 * cc1
    r0 += cd0 * b0
    r0 += d1 * cb1
    r1 = a1 * c0
    r1 -= a0 * c1
    r1 += cd0 * b1
    r1 -= d1 * cb0
    r2 = b0 * c0
    r2 -= b1 * cc1
    r2 -= d0 * a0
    r2 += d1 * ca1
    r3 = b0 * c1
    r3 += b1 * cc0
    r3 -= d0 * a1
    r3 -= d1 * ca0
    return r0, r1, r2, r3


_BLOCK = 4096  # rows per block of the batch map


def hurwitz_forward(u, v) -> np.ndarray:
    """Map a pair of 8-vectors (u, v) to the 9-vector x.

    x_k = 2 (Gamma_k)_{st} u_s v_t = 2 (u conj(v))_k for k = 0..7 and
    x_8 = u.u - v.v, so that |x| = u.u + v.v.
    """
    a0, a1, b0, b1 = _as_vec(u, 8, "u").view(complex).tolist()
    c0, c1, d0, d1 = _as_vec(v, 8, "v").view(complex).tolist()
    uu = (a0 * a0.conjugate() + a1 * a1.conjugate() + b0 * b0.conjugate() + b1 * b1.conjugate()).real
    vv = (c0 * c0.conjugate() + c1 * c1.conjugate() + d0 * d0.conjugate() + d1 * d1.conjugate()).real
    if not math.isfinite(uu + vv):
        raise ValueError("u or v has non-finite entries, or u.u + v.v overflows")
    r0, r1, r2, r3 = _times_conj(a0, a1, b0, b1, c0, c1, d0, d1)
    return np.array(
        [2.0 * r0.real, 2.0 * r0.imag, 2.0 * r1.real, 2.0 * r1.imag,
         2.0 * r2.real, 2.0 * r2.imag, 2.0 * r3.real, 2.0 * r3.imag, uu - vv]
    )


def hurwitz_forward_batch(U, V) -> np.ndarray:
    """Vectorized :func:`hurwitz_forward` for stacked rows of u and v.

    Rows are taken in blocks, so every intermediate is block-sized.
    """
    U = np.atleast_2d(np.asarray(U, dtype=float))
    V = np.atleast_2d(np.asarray(V, dtype=float))
    if U.shape[1] != 8 or V.shape[1] != 8 or U.shape[0] != V.shape[0]:
        raise ValueError("U and V must both have shape (n, 8)")
    x = np.empty((U.shape[0], 9))
    ones = np.ones(8)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(0, U.shape[0], _BLOCK):
            u = np.ascontiguousarray(U[i : i + _BLOCK])
            v = np.ascontiguousarray(V[i : i + _BLOCK])
            uu, vv = np.square(u) @ ones, np.square(v) @ ones
            if not np.isfinite(uu + vv).all():
                raise ValueError("u or v has non-finite entries, or u.u + v.v overflows")
            xc = x[i : i + _BLOCK, :8].view(complex)
            for k, r in enumerate(_times_conj(*u.view(complex).T, *v.view(complex).T)):
                np.multiply(r, 2.0, out=xc[:, k])
            x[i : i + _BLOCK, 8] = uu - vv
    return x
