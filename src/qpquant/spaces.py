"""Model spaces, the maps between them, memberships, and samplers.

Points of the four models:

* ``SphereCovector`` -- (p, q) with p on the unit sphere of H^(n+1) and q an
  ambient (co)tangent direction.
* ``CotangentPointH`` -- (P, Q): a rank-one projector P in the quaternionic
  Jordan algebra together with a tangent Q, P o Q = Q/2.
* ``BTuple`` -- (n+1)-tuple of 2x2 complex blocks with sum(det B_i) = 0.
* ``AMatrix`` -- (2n+2)x(2n+2) complex matrix, theta-transpose symmetric,
  rank 2, A^2 = 0.

The maps alpha, beta, tau_s, tau_h (and the inverses of the tau's) move
points between these models; ``beta(tau_s(x)) == tau_h(alpha(x))`` exactly
on the horizontal locus and provably not elsewhere.

The models are cones in the covector part (q, Q, B, A), and every membership
has one gate rule: a condition homogeneous of degree k in that part is tested at
``EQ_TOL`` * scale^k, scale its norm, so "q != 0" and "Q != 0" test exact zero.
The tolerance is scaled, never the arrays; rank tests are ratios (``RANK_TOL``).

A point's arrays are read-only views of a private copy, so a point cannot
change after it is made, and each point tests its membership once: the maps
and the predicates read the verdict it cached.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .algebra import (
    QTABLE,
    complexify,
    complexify_inv,
    fro_norm,
    hinner,
    jmat,
    qconj,
    qmat_mul,
    qmul,
    rho,
    rho_inv,
)
from .numerics import sphere_uniform

__all__ = [
    "AMatrix",
    "BTuple",
    "CotangentPointH",
    "SphereCovector",
    "alpha",
    "beta",
    "beta_blocks",
    "blocks_to_coords",
    "coords_to_blocks",
    "in_amatrix_space",
    "in_btuple_space",
    "in_btuple_space0",
    "in_cotangent_h",
    "in_sphere_covector",
    "in_sphere_covector0",
    "point_from_json",
    "point_to_json",
    "random_eh",
    "random_es0",
    "random_es_generic",
    "random_sl2",
    "sp1_orbit_frame",
    "tau_h",
    "tau_h_inv",
    "tau_s",
    "tau_s_inv",
]

EQ_TOL = 1e-10
RANK_TOL = 1e-8
# tau_s_inv rejects a recovered covector within this of the degenerate boundary,
# relative to the tuple's scale
BOUNDARY_TOL = 1e-8
# attempts of a rejection sampler before it gives up
MAX_TRIES = 64


def _freeze(a, dtype):
    """A read-only view of a private read-only copy of a as dtype: neither the
    caller's array nor the view's flags can change it."""
    a = np.array(a, dtype=dtype)
    a.flags.writeable = False
    return a.view()


def blocks_to_coords(blocks):
    """(..., m, 2, 2) blocks -> ambient coordinates (..., 4m), the vector
    (z_0..z_{2m-1}, w_0..w_{2m-1}) with B_i = [[z_2i, w_2i], [z_2i+1, w_2i+1]]."""
    b = np.moveaxis(np.asarray(blocks), -1, -3)
    return b.reshape(b.shape[:-3] + (-1,))


def coords_to_blocks(u):
    """Inverse of :func:`blocks_to_coords`, (..., 4m) -> (..., m, 2, 2)."""
    u = np.asarray(u, dtype=complex)
    return np.moveaxis(u.reshape(u.shape[:-1] + (2, -1, 2)), -3, -1)


@dataclass(frozen=True)
class SphereCovector:
    """(p, q) pair of (n+1, 4) real coefficient arrays."""

    p: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p", _freeze(self.p, float))
        object.__setattr__(self, "q", _freeze(self.q, float))

    @property
    def n(self):
        return self.p.shape[0] - 1

    @cached_property
    def _failure(self):
        """The first failed condition of E_S, or None, tested once."""
        return _sphere_covector_failure(self.p, self.q)[0]


@dataclass(frozen=True)
class CotangentPointH:
    """(P, Q) pair of (n+1, n+1, 4) quaternion-coefficient arrays."""

    P: np.ndarray
    Q: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "P", _freeze(self.P, float))
        object.__setattr__(self, "Q", _freeze(self.Q, float))

    @property
    def n(self):
        return self.P.shape[0] - 1

    @property
    def qnorm_j(self):
        """Jordan-algebra norm ||Q|| = sqrt(tr(Q o Q))."""
        return float(np.sqrt(np.sum(self.Q ** 2)))

    @cached_property
    def _checked(self):
        """The first failed condition of E_H, or None, and tau_h(P, Q), which
        the test builds: computed once."""
        return _cotangent_h_failure(self.P, self.Q)


@dataclass(frozen=True)
class BTuple:
    """Tuple (B_0 ... B_n) stored as an (n+1, 2, 2) complex array."""

    B: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "B", _freeze(self.B, complex))

    @property
    def n(self):
        return self.B.shape[0] - 1

    @property
    def coords(self):
        """Ambient coordinate vector (z_0..z_{2n+1}, w_0..w_{2n+1})."""
        return blocks_to_coords(self.B)

    @cached_property
    def _failure(self):
        """The first failed condition of the B-model, or None, tested once."""
        return _btuple_failure(self.B)

    @property
    def norm(self):
        return fro_norm(self.B)


@dataclass(frozen=True)
class AMatrix:
    """(2n+2)x(2n+2) complex matrix point."""

    A: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "A", _freeze(self.A, complex))

    @property
    def n(self):
        return self.A.shape[0] // 2 - 1

    @cached_property
    def _failure(self):
        """The first failed condition of the A-model, or None, tested once."""
        return _amatrix_failure(self.A)

    @property
    def norm(self):
        return fro_norm(self.A)


# ---------------------------------------------------------------- memberships
# One helper per model names its first failed condition, or gives None.

def _first_failure(checks):
    """'condition fails (residual r)' for the first failed (condition, residual, ok), or None."""
    return next((f"{c} fails (residual {r:.3e})" for c, r, ok in checks if not ok), None)


def _refuse(reason, what):
    if reason:
        raise ValueError(f"{what}: {reason}")


def _sphere_covector_failure(p, q, horizontal=False):
    """First failed condition of E_S (of its horizontal locus if ``horizontal``), and
    the largest row of q + p <q,p>_H = q - F^t F q + 2 (p,q)_E p, F the orbit frame of p."""
    pf, qf = p.reshape(-1), q.reshape(-1)
    pp, pq, nq = abs(pf @ pf - 1.0), pf @ qf, math.sqrt(qf @ qf)
    frame, tol = _orbit_frames(pf[None])[0], EQ_TOL * nq  # each test of q is of degree one
    coeffs = frame @ qf  # (p e_k, q)_E: the components of <p, q>_H
    hor = math.sqrt(((qf - coeffs @ frame + 2.0 * pq * pf).reshape(-1, 4) ** 2).sum(-1).max())
    checks = [("(p,p)_E = 1", pp, pp <= EQ_TOL), ("(p,q)_E = 0", abs(pq), abs(pq) <= tol)]
    if horizontal:
        vert = abs(coeffs).max()
        checks += [("q != 0", nq, nq > 0.0), ("<q,p>_H = 0", vert, vert <= tol)]
    else:
        checks.append(("q + p <q,p>_H != 0", hor, hor > tol))
    return _first_failure(checks), hor


def in_sphere_covector(pt):
    """(p,p)_E = 1, (p,q)_E = 0, and q + p (q,p)_H != 0."""
    return pt._failure is None


def in_sphere_covector0(pt):
    """(p,p)_E = 1, (p,q)_E = 0, q != 0, and (q,p)_H = 0 componentwise."""
    return _sphere_covector_failure(pt.p, pt.q, horizontal=True)[0] is None


def _cotangent_h_failure(P, Q):
    """First failed condition of E_H, or None, and tau_h(P, Q).  complexify is an
    injective *-homomorphism, so for cp = rho(P) and cq = rho(Q) the conditions
    read Re tr cp / 2 = 1, cp^2 = cp, cp cq + cq cp = cq and cq^3 = ||Q||^2 cq / 2.
    One complexify of (P, Q) stacked, and one product gives cp^2, cp cq, cq cp, cq^2."""
    nq, c = math.sqrt(np.vdot(Q, Q)), complexify(np.array([P, Q]))
    cp, cq = c
    (cp2, cpq), (cqp, cq2) = c[:, None] @ c[None, :]
    tr, pp = abs(0.5 * cp.trace().real - 1.0), abs(cp2 - cp).max()
    pq, q3 = abs(cpq + cqp - cq).max(), abs(cq2 @ cq - 0.5 * nq ** 2 * cq).max()
    reason = _first_failure([("tr P = 1", tr, tr <= EQ_TOL), ("P o P = P", pp, pp <= EQ_TOL),
                             ("P o Q = Q/2", pq, pq <= 2.0 * EQ_TOL * nq),
                             ("Q != 0", nq, nq > 0.0),
                             ("Q^3 = ||Q||^2 Q/2", q3, q3 <= EQ_TOL * nq ** 3)])
    return reason, _tau_h_from(cp, cq, cq2, nq)


def in_cotangent_h(pt):
    """tr P = 1, P o P = P, P o Q = Q/2, Q != 0, Q^3 = ||Q||^2 Q / 2."""
    return pt._checked[0] is None


def _btuple_failure(b, horizontal=False):
    """First failed condition of the B-model (of its horizontal locus if ``horizontal``),
    or None.  The rank of [z w] comes without an SVD or a cancellation: for z the
    longer column, w' = w - z (z* w) / |z|^2 and t = |z|^2 + |w|^2, s_min / s_max is
    |z| |w'| / s_max^2 with s_max^2 = (t + sqrt((|z|^2 - |w|^2)^2 + 4 |z* w|^2)) / 2."""
    z, w = b[..., 0].ravel(), b[..., 1].ravel()
    zz, ww = np.vdot(z, z).real, np.vdot(w, w).real
    if zz < ww:
        z, w, zz, ww = w, z, ww, zz
    zw = np.vdot(z, w)
    wp = w - z * (zw / max(zz, 1e-300))
    smax2 = 0.5 * (zz + ww + math.sqrt((zz - ww) ** 2 + 4.0 * abs(zw) ** 2))
    ratio = math.sqrt(zz * np.vdot(wp, wp).real) / max(smax2, 1e-300)
    dsum = abs((b[:, 0, 0] * b[:, 1, 1] - b[:, 0, 1] * b[:, 1, 0]).sum())
    tol = EQ_TOL * (zz + ww)
    checks = [("sum det B_i = 0", dsum, dsum <= tol), ("z, w independent", ratio, ratio > RANK_TOL)]
    if horizontal:
        checks += [("z* w = 0", abs(zw), abs(zw) <= tol), ("|z| = |w|", zz - ww, zz - ww <= tol)]
    return _first_failure(checks)


def in_btuple_space(pt):
    """sum(det B_i) = 0 and z, w linearly independent."""
    return pt._failure is None


def in_btuple_space0(pt):
    """Horizontal locus: sum B_i^* B_i is a multiple of the identity.

    Equivalently conj(z).w = 0 and ||z|| = ||w||, three real conditions;
    this is the image of the horizontal covectors under the B-model map and
    it is invariant under the right SU(2) action.
    """
    return _btuple_failure(pt.B, horizontal=True) is None


def _amatrix_failure(a):
    """First failed condition of the A-model (J A = A^t J, A^2 = 0, numerical rank 2),
    or None.  For the singular values s_0 >= s_1 >= s_2 (s_2 = 0 for 2 x 2 input)
    the rank residual is s_1 / s_0 if that is too small, else s_2 / s_0."""
    jj, s = jmat(a.shape[0] // 2), np.linalg.svd(a, compute_uv=False)
    scale = math.sqrt(s @ s)  # the Frobenius norm of a
    sym, sq = np.abs(jj @ a - a.T @ jj).max(), np.abs(a @ a).max()
    s2 = s[2] if len(s) > 2 else 0.0
    two, below_three = s[1] > RANK_TOL * s[0], s2 <= RANK_TOL * s[0]
    return _first_failure([("J A = A^t J", sym, sym <= EQ_TOL * scale),
                           ("A^2 = 0", sq, sq <= EQ_TOL * scale ** 2),
                           ("rank A = 2", (s2 if two else s[1]) / max(s[0], 1e-300),
                            two and below_three)])


def in_amatrix_space(pt):
    """J A = A^t J, A^2 = 0, numerical rank 2."""
    return pt._failure is None


# --------------------------------------------------------------------- maps

def _alpha_core(p, q):
    """(P, Q) of alpha on (..., m, 4) arrays, with no membership test.  x = (p, p, q, p)
    stacked: one qmul of x[:3] by theta(x[1:]) gives p theta(p), p theta(q), q theta(p)."""
    x = np.array([p, p, q, p])
    prods = qmul(x[:3, ..., :, None, :], qconj(x[1:, ..., None, :, :]))
    return prods[0], prods[1] + prods[2]


def alpha(pt):
    """(p, q) -> (P, Q) with P = (p_i theta(p_j)), Q = (p_i theta(q_j) + q_i theta(p_j))."""
    _refuse(pt._failure, "point is not in the sphere covector space")
    return CotangentPointH(*_alpha_core(pt.p, pt.q))


def _tau_s_core(p, q):
    """Blocks B of tau_s on (..., m, 4) arrays, with no membership test."""
    nq = np.sqrt((q ** 2).sum(axis=(-2, -1)))
    nq = nq[..., None, None] if nq.ndim else nq  # one point: a scalar, cheaper to broadcast
    return rho(nq * p.astype(complex) + 1j * q)


def tau_s(pt):
    """(p, q) -> B_i = rho(|q| p_i + q_i i); ||B||^2 = 4 |q|^2."""
    _refuse(pt._failure, "point is not in the sphere covector space")
    return BTuple(_tau_s_core(pt.p, pt.q))


def _tau_h_from(cp, cq, cq2, nq):
    """A = ||Q||^2 cp - cq^2 + i ||Q|| cq / sqrt(2) of tau_h, the one assembly of
    it, from cp = complexify(P), cq = complexify(Q), cq^2 and ||Q||."""
    return nq ** 2 * cp - cq2 + (1j / np.sqrt(2.0)) * nq * cq


def _tau_h_alpha_core(p, q):
    """A of tau_h(alpha(p, q)) on (..., m, 4) arrays, with no membership test,
    through rho blocks: rho(theta(x)) = adj rho(x), so complexify(P) = beta(rho(p))
    and complexify(Q) = beta(rho(p), rho(q)) + beta(rho(q), rho(p)).  One beta of
    the blocks of p and q side by side, (..., 2m, 2, 2), holds all three
    products.  cq = complexify(Q) is hermitian, so ||Q||^2 = |cq|^2 / 2 = tr(cq^2) / 2."""
    k = 2 * p.shape[-2]
    blocks = beta_blocks(rho(np.concatenate([p, q], axis=-2)))
    cp, cq = blocks[..., :k, :k], blocks[..., :k, k:] + blocks[..., k:, :k]
    cq2 = cq @ cq
    nq = np.sqrt(0.5 * np.trace(cq2, axis1=-2, axis2=-1).real)[..., None, None]
    return _tau_h_from(cp, cq, cq2, nq)


def tau_h(pt):
    """(P, Q) -> A = ||Q||^2 rho(P) - rho(Q)^2 + i ||Q|| rho(Q) / sqrt(2)."""
    reason, a = pt._checked
    _refuse(reason, "point is not in the cotangent-bundle model")
    return AMatrix(a)


# the signs that turn the reversed transpose [[d, b], [c, a]] into the adjugate
_ADJ_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])
_ADJ_SIGNS.flags.writeable = False


def _adj2(b):
    """Adjugate of 2x2 blocks: [[d, -b], [-c, a]]; equals -J B^t J."""
    return np.swapaxes(b[..., ::-1, ::-1], -1, -2) * _ADJ_SIGNS


def beta_blocks(b, c=None):
    """Blocks A_ij = B_i adj(C_j) of (..., m, 2, 2) tuples, one point or a batch.

    With C = B (the default) this is beta; the differential of beta is the
    sum of the two mixed products.  The blocks of B stacked, (..., 2m, 2),
    times the adjugates of C side by side, (..., 2, 2m).
    """
    c = b if c is None else c
    m = b.shape[-3]
    rows = b.reshape(b.shape[:-3] + (2 * m, 2))
    cols = np.swapaxes(_adj2(c), -3, -2).reshape(c.shape[:-3] + (2, 2 * m))
    return rows @ cols


def beta(pt):
    """B -> A with blocks A_ij = -B_i J B_j^t J = B_i adj(B_j)."""
    _refuse(pt._failure, "tuple is not in the B-model space")
    return AMatrix(beta_blocks(pt.B))


def _tau_s_inv_core(b):
    """(p, q) from blocks B by the real/imaginary quaternion split, with no
    membership test: q = Im rho^-1(B) and p = Re rho^-1(B) / |q|."""
    c = rho_inv(b)
    return c.real / float(np.linalg.norm(c.imag)), c.imag


def tau_s_inv(pt):
    """Recover (p, q) from B via the real/imaginary quaternion split.

    Both gates are relative to the tuple's own scale, ||B|| = 2 |q|: a
    covector part below ``BOUNDARY_TOL`` ||B|| is refused as vanishing, and a
    point whose horizontal part is below ``BOUNDARY_TOL`` |q|, near the
    degenerate boundary q + p <q,p>_H = 0, is refused.  The recovered point
    then passes the E_S gates as any other point does.
    """
    _refuse(pt._failure, "tuple is not in the B-model space")
    # p is undefined where q vanishes; that tuple is rejected next
    with np.errstate(divide="ignore", invalid="ignore"):
        p, q = _tau_s_inv_core(pt.B)
    nq = float(np.linalg.norm(q))
    if nq <= BOUNDARY_TOL * pt.norm:
        raise ValueError("tuple has vanishing covector part")
    reason, hor = _sphere_covector_failure(p, q)
    if hor <= BOUNDARY_TOL * nq:
        raise ValueError("recovered point is too close to the degenerate boundary")
    _refuse(reason, "recovered point fails sphere-covector membership")
    return SphereCovector(p, q)


def _tau_h_inv_core(a):
    """(P, Q) from A by the quaternionic split A = complexify(X) + i complexify(Y),
    with no membership test: complexify is C-linear, so complexify_inv(A) = X + iY.
    ||Q||^2 = |A| / sqrt(2), Q = sqrt(2) Y / ||Q|| and P = (X + Q^2) / ||Q||^2."""
    c = complexify_inv(a)
    nq = (fro_norm(a) / np.sqrt(2.0)) ** 0.5
    Q = np.sqrt(2.0) * c.imag / nq
    return (c.real + qmat_mul(Q, Q)) / nq ** 2, Q


def tau_h_inv(pt):
    """Recover (P, Q) from A using the quaternionic real/imaginary parts."""
    _refuse(pt._failure, "matrix is not in the A-model space")
    return CotangentPointH(*_tau_h_inv_core(pt.A))


# ------------------------------------------------------------------ samplers

def sp1_orbit_frame(p):
    """p, p e1, p e2, p e3 stacked on a new leading axis, for p of shape (..., 4).

    For a unit p these are orthonormal and span the quaternionic line of p.
    p e_k = sum_a p_a e_a e_k, one contraction with the product table, laid
    out (k, c, ...) in memory: the sums over a frame that the fixed-seed
    reports record are taken in that order.
    """
    return np.moveaxis(np.einsum("...a,akc->kc...", p, QTABLE, order="C"), 1, -1)


@cache
def _orbit_frame_matrix(m):
    """The orbit frame as one real (4m, 16m) matrix, the product that
    :func:`_orbit_frames` takes.  Built once per size and read-only."""
    frame = sp1_orbit_frame(np.eye(4 * m).reshape(4 * m, m, 4))
    return _freeze(np.ascontiguousarray(np.moveaxis(frame, 0, 1).reshape(4 * m, 16 * m)), float)


def _orbit_frames(p):
    """The orbit frames p e_0 .. p e_3 of points p, (N, m, 4) or flat
    (N, 4m), as the rows of an (N, 4, 4m) array: one product with the
    cached orbit-frame matrix."""
    flat = p.reshape(p.shape[0], -1)
    size, dim = flat.shape
    return (flat @ _orbit_frame_matrix(dim // 4)).reshape(size, 4, dim)


def _project_out(frames, q):
    """q (N, 4m) minus its components along the orthonormal rows of frames
    (N, k, 4m), row by row and all k at once, two products.  The orbit frames
    of p leave the horizontal part of q at p; p alone, p.reshape(N, 1, 4m),
    leaves its part tangent to the sphere."""
    coeffs = np.einsum("nkj,nj->nk", frames, q)
    return q - np.einsum("nk,nkj->nj", coeffs, frames)


def random_es0(n, qnorm_val, rng):
    """Horizontal covector sample: (q, p)_H = 0 exactly, |q| = qnorm_val."""
    m = n + 1
    for _ in range(MAX_TRIES):
        p = sphere_uniform(4 * m - 1, rng).reshape(m, 4)
        q = _project_out(_orbit_frames(p[None]), rng.standard_normal((1, 4 * m))).reshape(m, 4)
        nq = math.sqrt((q ** 2).sum())
        if nq > 1e-8:
            return SphereCovector(p, q * (qnorm_val / nq))
    raise RuntimeError("degenerate draws while sampling the horizontal space")


def random_es_generic(n, rng):
    """Sample of the full covector space with (q, p)_H genuinely nonzero:
    a horizontal draw plus 0.7 times a random vertical direction."""
    m = n + 1
    for _ in range(MAX_TRIES):
        base = random_es0(n, 1.0, rng)
        p = base.p
        vert = np.zeros((m, 4))
        coeffs = rng.standard_normal(3)
        for c, d in zip(coeffs, sp1_orbit_frame(p)[1:]):
            vert += c * d
        q = base.q + 0.7 * vert
        q -= np.sum(q * p) * p  # keep (p, q)_E = 0
        pt = SphereCovector(p, q)
        if in_sphere_covector(pt) and np.max(np.abs(hinner(q, p))) > 1e-3:
            return pt
    raise RuntimeError("failed to draw a generic non-horizontal covector")


def random_eh(n, qnorm_j, rng):
    """Random cotangent point with Jordan norm ||Q|| = qnorm_j."""
    pt = random_es0(n, qnorm_j / np.sqrt(2.0), rng)
    return CotangentPointH(*_alpha_core(pt.p, pt.q))


def random_sl2(rng):
    """Haar-ish sample of SL(2, C) via a normalized complexified quaternion."""
    for _ in range(MAX_TRIES):
        r = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        g = rho(r)
        d = np.linalg.det(g)
        if abs(d) > 1e-6:
            return g / np.sqrt(d)
    raise RuntimeError("degenerate draws while sampling SL(2, C)")


# -------------------------------------------------------------- serialization

def _c2pair(arr):
    flat = np.asarray(arr, dtype=complex).ravel()
    return [[float(v.real), float(v.imag)] for v in flat]


def _pair2c(data):
    return np.array([complex(re, im) for re, im in data])


def point_to_json(pt):
    """Serialize a model point to the portable JSON record."""
    if isinstance(pt, SphereCovector):
        return json.dumps({"space": "E_S", "n": pt.n,
                           "data": _c2pair(np.concatenate([pt.p.ravel(), pt.q.ravel()]))})
    if isinstance(pt, CotangentPointH):
        return json.dumps({"space": "E_H", "n": pt.n,
                           "data": _c2pair(np.concatenate([pt.P.ravel(), pt.Q.ravel()]))})
    if isinstance(pt, BTuple):
        return json.dumps({"space": "Et_S", "n": pt.n, "data": _c2pair(pt.B)})
    if isinstance(pt, AMatrix):
        return json.dumps({"space": "Et_H", "n": pt.n, "data": _c2pair(pt.A)})
    raise TypeError(f"unknown point type {type(pt)!r}")


def point_from_json(text):
    """The point of a :func:`point_to_json` record; a ValueError names the space and
    the field of a record with n < 1, or with imaginary data for E_S or E_H."""
    rec = json.loads(text)
    space, n = rec["space"], int(rec["n"])
    if space not in ("E_S", "E_H", "Et_S", "Et_H"):
        raise ValueError(f"unknown space tag {space!r}")
    if n < 1:
        raise ValueError(f"{space} record: n must be >= 1, got {n}")
    m, flat = n + 1, _pair2c(rec["data"])
    if space in ("E_S", "E_H") and flat.imag.any():
        raise ValueError(f"{space} record: data must be real, got an imaginary part")
    if space == "E_S":
        return SphereCovector(*flat.real.reshape(2, m, 4))
    if space == "E_H":
        return CotangentPointH(*flat.real.reshape(2, m, m, 4))
    if space == "Et_S":
        return BTuple(flat.reshape(m, 2, 2))
    return AMatrix(flat.reshape(2 * m, 2 * m))
