"""Laplacian eigenspace data on the quaternion projective space.

Closed-form dimensions and eigenvalues, the invariant harmonic quadratic
forms attached to points of the complex cotangent model, and their
numerical certificates (trace and null-gradient residuals, right-action
invariance, sphere eigenvalue descent).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .algebra import cbilinear, complexify, qconj, qmul
from .numerics import sphere_uniform
from .spaces import AMatrix, _orbit_frames, in_amatrix_space, random_eh, tau_h

__all__ = [
    "HlFunction",
    "dim_eigenspace",
    "eigenvalue",
    "eigenvalue_sqrt_shift",
    "harmonicity_certificate",
    "laplacian_fd",
    "pair_projector_amatrix",
    "quad_form_matrix",
    "random_hl_function",
    "sp1_invariance_residual",
    "sphere_descent_residual",
]


def dim_eigenspace(n, l):
    """Dimension of the l-th Laplacian eigenspace, an exact integer.

    2n (2l+2n+1) C(l+2n, 2n)^2 / ((2n+1)(l+1)(l+2n)); the division is exact.
    """
    if n < 1 or l < 0:
        raise ValueError("need n >= 1 and l >= 0")
    return (2 * n * (2 * l + 2 * n + 1) * math.comb(l + 2 * n, 2 * n) ** 2
            // ((2 * n + 1) * (l + 1) * (l + 2 * n)))


def eigenvalue(n, l):
    """Laplacian eigenvalue 4 l (2n + 1 + l)."""
    if n < 1 or l < 0:
        raise ValueError("need n >= 1 and l >= 0")
    return 4.0 * l * (2 * n + 1 + l)


def eigenvalue_sqrt_shift(n, l):
    """sqrt(lambda_l + (2n+1)^2), equal to 2l + 2n + 1 exactly.

    Returned as the exact right-hand side; squaring reproduces
    lambda_l + (2n+1)^2 in floating point for all desk-scale inputs.
    """
    return float(2 * l + 2 * n + 1)


def sphere_descent_residual(n, l):
    """lambda_l minus the degree-2l sphere eigenvalue k(k + dim - 1), k = 2l."""
    k = 2 * l
    return eigenvalue(n, l) - k * (k + 4 * n + 2)


@cache
def _pairing_tensor(m):
    """The pairing tensor G, (4m^2, 16m^2) complex: row cd holds
    cbilinear(complexify(e_a theta(e_b)), E_cd) over the basis products, E_cd
    the matrix units, so <(p_i theta(q_j)), A>_C = p^t (G.A) q with G.A the
    (4m, 4m) reshape of A.ravel() @ G.  Built once per size and read-only."""
    basis = np.eye(4 * m).reshape(4 * m, m, 4)
    prods = complexify(qmul(basis[:, None, :, None], qconj(basis)[:, None]))
    units = np.eye(4 * m * m).reshape(-1, 1, 1, 2 * m, 2 * m)
    out = cbilinear(prods, units).reshape(4 * m * m, -1)
    out.flags.writeable = False
    return out


def _pairing_forms(a):
    """G.A, (4m, 4m), for one matrix A (2m, 2m), or (N, 4m, 4m) for a batch.
    Each is one (1, 4m^2) row times G, so a batch row is bitwise the form of
    its matrix alone."""
    a = np.asarray(a)
    m = a.shape[-1] // 2
    forms = np.reshape(a, a.shape[:-2] + (1, -1)) @ _pairing_tensor(m)
    return forms.reshape(a.shape[:-2] + (4 * m, 4 * m))


def pair_projector_amatrix(p, a, q=None):
    """<(p_i theta(q_j)), A>_C for points p and q (q = p by default), one or a
    batch (N, m, 4) of the same shape.

    A is either one fixed matrix or a batch (N, 2m, 2m) paired row by row
    with the batch of p.  The pairing is p^t (G.A) q with G the cached
    pairing tensor; with q = p it is <P(p), A>, P(p) the projector of p.
    Complex points give the complex-bilinear extension, p^t M p with
    M = quad_form_matrix(A).
    """
    p = np.asarray(p)
    rows = np.reshape(p, (-1, 1, p.shape[-2] * 4))
    cols = rows if q is None else np.reshape(q, rows.shape)
    out = (rows @ _pairing_forms(a) @ np.swapaxes(cols, -1, -2))[:, 0, 0]
    return out if p.ndim == 3 else out[0]


def _pair_projector_fiber(p, x, y):
    """<P(p), beta(rho(z))>_C for sphere points p, (N, m, 4) or flat (N, 4m),
    at fiber points z = x + i y, without forming either matrix or z.

    x and y are real, flat (N, 4m); x may also be one point (4m,) shared by
    every row.  beta(rho(z)) has the blocks rho(z_i theta(z_j)), so the
    pairing is sum_a w_a^2 with w = <p, z>_H = sum_i theta(p_i) z_i in
    H (x) C, whose components are w_k = (p e_k).z up to sign.  With F(p) the
    orbit frame of p, u = F(p) x and v = F(p) y give
    sum_a w_a^2 = |u|^2 - |v|^2 + 2i u.v.
    """
    frames = _orbit_frames(p)
    u = np.einsum("nkj,nj->nk", frames, np.broadcast_to(x, y.shape))
    v = np.einsum("nkj,nj->nk", frames, y)
    return (np.einsum("nk,nk->n", u, u) - np.einsum("nk,nk->n", v, v)
            + 2j * np.einsum("nk,nk->n", u, v))


def quad_form_matrix(a):
    """Complex symmetric M with <(p_i theta(p_j)), A>_C = p^t M p, p in R^(4m):
    the tensor contraction G.A, symmetrised."""
    forms = _pairing_forms(np.asarray(a, dtype=complex))
    return 0.5 * (forms + forms.T)


def harmonicity_certificate(a):
    """Trace and null-gradient residuals of the invariant quadratic form.

    Both vanish iff every power of the form is annihilated by the flat
    Laplacian: Delta(q^l) = l(l-1) q^(l-2) <grad q, grad q> + l q^(l-1) tr.
    """
    pt = a if isinstance(a, AMatrix) else AMatrix(a)
    if not in_amatrix_space(pt):
        raise ValueError("matrix fails the cotangent-model membership")
    m = quad_form_matrix(pt.A)
    scale = max(1.0, float(np.abs(m).max()))
    trace_residual = abs(np.trace(m)) / scale
    grad_residual = float(np.sqrt(np.sum(np.abs(m @ m) ** 2))) / scale ** 2
    return {"trace_residual": float(trace_residual),
            "null_gradient_residual": 4.0 * grad_residual}


def laplacian_fd(a, l, p):
    """Finite-difference flat Laplacian of <P(p), A>^l at the point p, step 1e-4."""
    h = 1e-4
    a = np.asarray(a, dtype=complex)
    p = np.asarray(p, dtype=float).ravel()
    m = a.shape[0] // 2

    def f(x):
        return complex(pair_projector_amatrix(x.reshape(m, 4), a) ** l)

    total = 0.0 + 0.0j
    f0 = f(p)
    for i in range(p.size):
        e = np.zeros_like(p)
        e[i] = h
        total += f(p + e) + f(p - e) - 2.0 * f0
    return total / h ** 2


def sp1_invariance_residual(a, nsamples, rng):
    """max |q_A(p r) - q_A(p)| over random p and unit quaternions r."""
    a = np.asarray(a, dtype=complex)
    m = a.shape[0] // 2
    pts = sphere_uniform(4 * m - 1, rng, size=nsamples).reshape(nsamples, m, 4)
    rots = sphere_uniform(3, rng, size=nsamples)
    moved = qmul(pts, rots[:, None, :])
    base = pair_projector_amatrix(pts, a)
    turned = pair_projector_amatrix(moved, a)
    return float(np.abs(turned - base).max())


def mixed_term_noninvariance(p, q, a, r):
    """Comparator: <(p_i theta(q_j)), A> with only p rotated is not invariant."""
    pr = qmul(p, np.broadcast_to(r, p.shape))
    return abs(pair_projector_amatrix(pr, a, q) - pair_projector_amatrix(p, a, q))


@dataclass(frozen=True)
class HlFunction:
    """Eigenspace function represented as sum_k c_k <P, A_k>^l, the one
    evaluator of it and of its holomorphic extension sum_k c_k <A, A_k>_C^l."""

    n: int
    l: int
    amats: tuple
    coeffs: tuple

    @cached_property
    def _forms(self):
        # the stacked quad_form_matrix(A_k), built on first use; not a field,
        # so equality and repr see only the generators
        return np.stack([quad_form_matrix(a) for a in self.amats])

    def eval_sphere(self, p):
        """sum_k c_k (p^t M_k p)^l at one point p (n+1, 4), a scalar, or a batch
        (N, n+1, 4).

        Real p are sphere points.  Complex p are fiber points z, where
        z^t M_k z = <beta(rho(z)), A_k>_C gives the extension at beta(rho(z)).
        """
        flat = np.reshape(p, np.shape(p)[:-2] + (-1,))
        pairs = np.einsum("k...j,...j->...k", flat @ self._forms, flat)
        return pairs ** self.l @ np.asarray(self.coeffs)

    def eval_amatrix(self, a):
        """sum_k c_k <A, A_k>_C^l at one matrix A (2n+2, 2n+2) of the cotangent model."""
        return sum(c * cbilinear(a, ak) ** self.l for c, ak in zip(self.coeffs, self.amats))


def random_hl_function(n, l, k, rng):
    """Random element of the l-th eigenspace as a k-term generator span."""
    amats = []
    for _ in range(k):
        amats.append(tau_h(random_eh(n, np.sqrt(2.0), rng)).A)
    coeffs = rng.standard_normal(k) if l > 0 else np.abs(rng.standard_normal(k))
    return HlFunction(n=n, l=l, amats=tuple(amats), coeffs=tuple(coeffs.tolist()))
