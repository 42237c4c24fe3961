"""Quaternion, quaternion-matrix, and complexified-matrix arithmetic.

Quaternions are stored as length-4 real (or complex, for the complexified
algebra) coefficient arrays against the basis e0..e3, with the products

    e1 e2 = e3,  e2 e3 = e1,  e3 e1 = e2,  ei^2 = -e0 (i > 0).

Quaternion matrices are ndarrays of shape (m, m, 4).  The single bridge to
the complex world is :func:`complexify`, the blockwise 2x2 embedding
``rho``; on the complex side the trace form and the theta-transpose are
implemented directly so that conventions cannot drift.
"""

from __future__ import annotations

from functools import cache

import numpy as np

__all__ = [
    "cbilinear",
    "complexify",
    "complexify_inv",
    "fro_norm",
    "hinner",
    "inner_r",
    "jmat",
    "jordan",
    "qconj",
    "qmat_mul",
    "qmul",
    "qnorm",
    "quat_conj_c",
    "rho",
    "rho_inv",
    "sharp",
    "theta_transpose",
    "qtrace",
]

# structure tensor: e_a e_b = sum_c QTABLE[a, b, c] e_c
QTABLE = np.zeros((4, 4, 4))
QTABLE[0, 0, 0] = QTABLE[0, 1, 1] = QTABLE[0, 2, 2] = QTABLE[0, 3, 3] = 1.0
QTABLE[1, 0, 1] = QTABLE[2, 0, 2] = QTABLE[3, 0, 3] = 1.0
QTABLE[1, 1, 0] = QTABLE[2, 2, 0] = QTABLE[3, 3, 0] = -1.0
QTABLE[1, 2, 3] = 1.0
QTABLE[1, 3, 2] = -1.0
QTABLE[2, 1, 3] = -1.0
QTABLE[2, 3, 1] = 1.0
QTABLE[3, 1, 2] = 1.0
QTABLE[3, 2, 1] = -1.0
QTABLE.flags.writeable = False
# the table with (a, b) flattened: the flattened outer product of a and b times it is ab
_QTABLE16 = QTABLE.reshape(16, 4)

# rho(e_a) as 2x2 complex matrices
RHO_BASIS = np.zeros((4, 2, 2), dtype=complex)
RHO_BASIS[0] = np.eye(2)
RHO_BASIS[1] = np.diag([1j, -1j])
RHO_BASIS[2] = np.array([[0.0, 1.0], [-1.0, 0.0]])
RHO_BASIS[3] = np.array([[0.0, 1j], [1j, 0.0]])
RHO_BASIS.flags.writeable = False


def qmul(a, b):
    """Quaternion product on trailing length-4 axes; broadcasts.  The outer
    product of the coefficients times the flattened structure table."""
    outer = np.asarray(a)[..., :, None] * np.asarray(b)[..., None, :]
    return outer.reshape(outer.shape[:-2] + (16,)) @ _QTABLE16


def qconj(a):
    """theta(x): negate the e1, e2, e3 coefficients."""
    a = np.asarray(a)
    out = a.copy()
    out[..., 1:] = -out[..., 1:]
    return out


def qnorm(a):
    """|x| = sqrt(x theta(x)), entrywise over the trailing axis."""
    a = np.asarray(a)
    return np.sqrt((np.abs(a) ** 2).sum(axis=-1))


def hinner(h, k):
    """Quaternionic inner product <h, k> = sum_i theta(h_i) k_i on (m, 4) arrays."""
    return qmul(qconj(h), k).sum(axis=-2)


def rho(h):
    """2x2 complex matrix of a (complexified) quaternion; trailing axis 4."""
    return np.einsum("...a,aij->...ij", np.asarray(h, dtype=complex), RHO_BASIS)


def rho_inv(mat):
    """Exact inverse of rho on M(2, C)."""
    m = np.asarray(mat, dtype=complex)
    c0 = (m[..., 0, 0] + m[..., 1, 1]) / 2.0
    c1 = (m[..., 0, 0] - m[..., 1, 1]) / 2j
    c2 = (m[..., 0, 1] - m[..., 1, 0]) / 2.0
    c3 = (m[..., 0, 1] + m[..., 1, 0]) / 2j
    return np.stack([c0, c1, c2, c3], axis=-1)


def qmat_mul(x, y):
    """Product of quaternion matrices, shapes (..., m, k, 4) x (..., k, m, 4): the
    coefficient products summed over k, times the flattened structure table."""
    outer = np.einsum("...ika,...kjb->...ijab", x, y)
    return outer.reshape(outer.shape[:-2] + (16,)) @ _QTABLE16


def theta_transpose(x):
    """theta-transpose X -> theta(X^t); fixed points are the Jordan algebra."""
    return qconj(np.swapaxes(np.asarray(x), -3, -2))


def jordan(x, y):
    """Jordan product (XY + YX)/2."""
    return 0.5 * (qmat_mul(x, y) + qmat_mul(y, x))


def qtrace(x):
    """Quaternion trace, a length-4 coefficient array."""
    return np.trace(np.asarray(x), axis1=-3, axis2=-2)


def inner_r(x, y):
    """<X, Y>_R = tr(X o Y); reduces to the flat pairing for hermitian pairs."""
    return float(qtrace(jordan(x, y))[..., 0])


@cache
def _complexify_map(m):
    """complexify of (m, m, 4) coefficients as one (4m^2, 4m^2) complex matrix
    acting on the flattened coefficients, built once per size and read-only."""
    blocks = rho(np.eye(4 * m * m).reshape(-1, m, m, 4))
    out = blocks.transpose(0, 1, 3, 2, 4).reshape(4 * m * m, 4 * m * m)
    out.flags.writeable = False
    return out


def complexify(x):
    """Blockwise rho embedding M(m, H (x) C) -> M(2m, C): the flattened
    coefficients times the cached complexify map of their size."""
    x = np.asarray(x)
    m = x.shape[-3]
    flat = x.reshape(x.shape[:-3] + (4 * m * m,))
    return (flat @ _complexify_map(m)).reshape(x.shape[:-3] + (2 * m, 2 * m))


def complexify_inv(a):
    """Inverse of :func:`complexify`: (2m, 2m) -> (m, m, 4) complex."""
    a = np.asarray(a, dtype=complex)
    m = a.shape[-1] // 2
    blocks = a.reshape(a.shape[:-2] + (m, 2, m, 2)).transpose(
        tuple(range(a.ndim - 2)) + (-4, -2, -3, -1))
    return rho_inv(blocks)


@cache
def jmat(m):
    """Block-diagonal matrix of m copies of J = [[0, 1], [-1, 0]], built once
    per size and read-only."""
    j = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
    out = np.kron(np.eye(m), j)
    out.flags.writeable = False
    return out


def sharp(a):
    """theta-transpose on the complex side: A -> J A^t J^(-1)."""
    a = np.asarray(a, dtype=complex)
    jj = jmat(a.shape[-1] // 2)
    return jj @ np.swapaxes(a, -1, -2) @ (-jj)


def quat_conj_c(a):
    """Quaternionic conjugation of a complexified matrix: J conj(A) J^(-1)."""
    a = np.asarray(a, dtype=complex)
    jj = jmat(a.shape[-1] // 2)
    return jj @ np.conj(a) @ (-jj)


def cbilinear(a, b):
    """Complex bilinear trace form <A, B>_C = tr(A B^sharp)/2.

    Restricts to the Euclidean pairing on real quaternion matrices and
    satisfies <A, quat_conj_c(A)>_C = tr(A A*)/2 = ||A||^2 / 2.  Either
    argument may be a batch; the trace of the product is contracted
    directly, O(m^2) per pair.
    """
    return 0.5 * np.einsum("...ab,...ba->...", np.asarray(a, dtype=complex), sharp(b))


def fro_norm(a):
    """Frobenius norm ||A|| = sqrt(tr(A A*))."""
    return float(np.sqrt(np.sum(np.abs(a) ** 2)))
