"""Laplacian eigenspace data on the quaternion projective space.

Closed-form dimensions and eigenvalues, the invariant harmonic quadratic
forms attached to points of the complex cotangent model, and their
numerical certificates (trace and null-gradient residuals, right-action
invariance, sphere eigenvalue descent).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import cbilinear, qconj, qmul, rho, sharp
from .numerics import sphere_uniform
from .spaces import AMatrix, _refuse, _tau_s_core, beta_blocks, random_es0

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


def _check_degree(n, l):
    """Refuse n and l that are not integers, n < 1 or l < 0, before any draw or Gamma factor."""
    try:
        n, l = operator.index(n), operator.index(l)
    except TypeError:
        raise ValueError(f"need integer n and l, got n = {n!r}, l = {l!r}") from None
    if n < 1 or l < 0:
        raise ValueError(f"need n >= 1 and l >= 0, got n = {n}, l = {l}")


def dim_eigenspace(n, l):
    """Dimension of the l-th Laplacian eigenspace, an exact integer.

    2n (2l+2n+1) C(l+2n, 2n)^2 / ((2n+1)(l+1)(l+2n)); the division is exact.
    """
    _check_degree(n, l)
    return (2 * n * (2 * l + 2 * n + 1) * math.comb(l + 2 * n, 2 * n) ** 2
            // ((2 * n + 1) * (l + 1) * (l + 2 * n)))


def eigenvalue(n, l):
    """Laplacian eigenvalue 4 l (2n + 1 + l)."""
    _check_degree(n, l)
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


def pair_projector_amatrix(p, a):
    """<P(p), A>_C = tr(complexify(P(p)) A^sharp)/2 for points p, one or a batch
    (N, m, 4), P(p) = (p_i theta(p_j)) the projector of p.

    complexify(P(p)) is the B-model matrix beta(rho(p)), since
    rho(theta(x)) = adj rho(x).  A is one fixed matrix or a batch
    (N, 2m, 2m), broadcast against the points.  Complex points give the
    complex-bilinear extension, z^t M z with M = quad_form_matrix(A).
    """
    return cbilinear(beta_blocks(rho(p)), a)


def _quad_forms(forms, z):
    """z^t M_k z, (..., K), for the complex symmetric forms M_k = forms[k],
    forms (K, d, d), at points z real or complex: a batch (..., d) or one
    point (d,)."""
    return np.einsum("k...j,...j->...k", z @ forms, z)


# rho(e_a theta(e_b)), (4, 4, 2, 2): the blocks of complexify(P(p)) per basis pair
_RHO_PRODS = rho(qmul(np.eye(4)[:, None], qconj(np.eye(4))))
_RHO_PRODS.flags.writeable = False


def quad_form_matrix(a):
    """Complex symmetric M with <P(p), A>_C = p^t M p, p in R^(4m), for one
    matrix A (2m, 2m) or a batch (..., 2m, 2m):
    M[(i,a),(j,b)] = tr(rho(e_a theta(e_b)) (A^sharp)_ji)/2, symmetrised."""
    sh = sharp(a)
    m = sh.shape[-1] // 2
    blocks = sh.reshape(sh.shape[:-2] + (m, 2, m, 2))
    forms = 0.5 * np.einsum("abpq,...jqip->...iajb", _RHO_PRODS, blocks)
    forms = forms.reshape(sh.shape[:-2] + (4 * m, 4 * m))
    return 0.5 * (forms + np.swapaxes(forms, -1, -2))


def harmonicity_certificate(a):
    """Trace and null-gradient residuals of the invariant quadratic form.

    Both vanish iff every power of the form is annihilated by the flat
    Laplacian: Delta(q^l) = l(l-1) q^(l-2) <grad q, grad q> + l q^(l-1) tr.
    """
    pt = a if isinstance(a, AMatrix) else AMatrix(a)
    _refuse(pt._failure, "matrix fails the cotangent-model membership")
    m = quad_form_matrix(pt.A)
    scale = max(1.0, float(np.abs(m).max()))
    trace_residual = abs(np.trace(m)) / scale
    grad_residual = float(np.sqrt(np.sum(np.abs(m @ m) ** 2))) / scale ** 2
    return {"trace_residual": float(trace_residual),
            "null_gradient_residual": 4.0 * grad_residual}


def laplacian_fd(a, l, p):
    """Finite-difference flat Laplacian of <P(p), A>^l at the point p, step 1e-4:
    the second differences along every axis, all points paired in one call."""
    h, p = 1e-4, np.asarray(p, dtype=float).ravel()
    steps = h * np.eye(p.size)
    pts = np.concatenate([p[None], p + steps, p - steps]).reshape(2 * p.size + 1, -1, 4)
    f = pair_projector_amatrix(pts, np.asarray(a, dtype=complex)) ** l
    return complex(np.sum(f[1:] - f[0]) / h ** 2)


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


@dataclass(frozen=True, eq=False)
class HlFunction:
    """Eigenspace function represented as sum_k c_k <P, A_k>^l, the one
    evaluator of it and of its holomorphic extension sum_k c_k <A, A_k>_C^l.

    Equality is identity (eq=False): the fields hold arrays, so a field-wise
    == would be ambiguous, and identity keeps instances hashable.
    """

    n: int
    l: int
    amats: tuple
    coeffs: tuple

    def __post_init__(self):
        _check_degree(self.n, self.l)
        if len(self.coeffs) != len(self.amats):
            raise ValueError(f"coeffs has {len(self.coeffs)} entries for {len(self.amats)} amats")
        if {np.shape(a) for a in self.amats} != {(2 * self.n + 2,) * 2}:
            raise ValueError(f"amats must be one or more {(2 * self.n + 2,) * 2} matrices at "
                             f"n = {self.n}, got shapes {[np.shape(a) for a in self.amats]}")

    @cached_property
    def _forms(self):
        # the forms quad_form_matrix(A_k) of the stacked generators, built on
        # first use; not a field, so repr sees only the generators
        return quad_form_matrix(np.stack(self.amats))

    def eval_sphere(self, p):
        """sum_k c_k (p^t M_k p)^l at one point p (n+1, 4), a scalar, or a batch
        (N, n+1, 4).

        Real p are sphere points.  Complex p are fiber points z, where
        z^t M_k z = <beta(rho(z)), A_k>_C gives the extension at beta(rho(z)).
        """
        return self._eval(np.reshape(p, np.shape(p)[:-2] + (-1,)))

    def _eval(self, z):
        """eval_sphere at the points z, real or complex, flat (..., 4n+4); at
        l = 0 the constant sum c_k on every row, with no form built."""
        if self.l == 0:
            return np.full(np.shape(z)[:-1], np.sum(self.coeffs), dtype=complex)[()]
        return _quad_forms(self._forms, z) ** self.l @ np.asarray(self.coeffs)

    def eval_amatrix(self, a):
        """sum_k c_k <A, A_k>_C^l at one matrix A (2n+2, 2n+2) of the cotangent model."""
        return sum(c * cbilinear(a, ak) ** self.l for c, ak in zip(self.coeffs, self.amats))


def random_hl_function(n, l, k, rng):
    """Random element of the l-th eigenspace, a k-term span of beta(tau_s(x)) = tau_h(alpha(x))."""
    pts = [random_es0(n, 1.0, rng) for _ in range(k)]
    coeffs = rng.standard_normal(k) if l > 0 else np.abs(rng.standard_normal(k))
    return HlFunction(n=n, l=l, amats=tuple(beta_blocks(_tau_s_core(pt.p, pt.q)) for pt in pts),
                      coeffs=tuple(coeffs.tolist()))
