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
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache

import numpy as np

from .algebra import (
    complexify,
    einner,
    fro_norm,
    hinner,
    jmat,
    jordan,
    qconj,
    qmat_mul,
    qmul,
    qnorm,
    qtrace,
    quat_split,
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
    "metric_g_h",
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
# tau_s_inv rejects a recovered covector within this of the degenerate boundary
BOUNDARY_TOL = 1e-8
# attempts of a rejection sampler before it gives up
MAX_TRIES = 64


def _freeze(a):
    a = np.array(a, copy=True)
    a.flags.writeable = False
    return a


def blocks_to_coords(blocks):
    """(m, 2, 2) blocks -> ambient coordinates (z_0..z_{2m-1}, w_0..w_{2m-1}),
    where B_i = [[z_2i, w_2i], [z_2i+1, w_2i+1]]."""
    return np.asarray(blocks).transpose(2, 0, 1).ravel()


def coords_to_blocks(u):
    """Inverse of :func:`blocks_to_coords`."""
    return np.stack(np.asarray(u, dtype=complex).reshape(2, -1, 2), axis=-1)


@dataclass(frozen=True)
class SphereCovector:
    """(p, q) pair of (n+1, 4) real coefficient arrays."""

    p: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p", _freeze(np.asarray(self.p, dtype=float)))
        object.__setattr__(self, "q", _freeze(np.asarray(self.q, dtype=float)))

    @property
    def n(self):
        return self.p.shape[0] - 1


@dataclass(frozen=True)
class CotangentPointH:
    """(P, Q) pair of (n+1, n+1, 4) quaternion-coefficient arrays."""

    P: np.ndarray
    Q: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "P", _freeze(np.asarray(self.P, dtype=float)))
        object.__setattr__(self, "Q", _freeze(np.asarray(self.Q, dtype=float)))

    @property
    def n(self):
        return self.P.shape[0] - 1

    @property
    def qnorm_j(self):
        """Jordan-algebra norm ||Q|| = sqrt(tr(Q o Q))."""
        return float(np.sqrt(np.sum(self.Q ** 2)))


@dataclass(frozen=True)
class BTuple:
    """Tuple (B_0 ... B_n) stored as an (n+1, 2, 2) complex array."""

    B: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "B", _freeze(np.asarray(self.B, dtype=complex)))

    @property
    def n(self):
        return self.B.shape[0] - 1

    @property
    def zw(self):
        """Column vectors z, w of length 2n+2: B_i = [[z_2i, w_2i], [z_2i+1, w_2i+1]]."""
        z, w = self.coords.reshape(2, -1)
        return z, w

    @property
    def coords(self):
        """Ambient coordinate vector (z_0..z_{2n+1}, w_0..w_{2n+1})."""
        return blocks_to_coords(self.B)

    @property
    def norm(self):
        return fro_norm(self.B)


@dataclass(frozen=True)
class AMatrix:
    """(2n+2)x(2n+2) complex matrix point."""

    A: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "A", _freeze(np.asarray(self.A, dtype=complex)))

    @property
    def n(self):
        return self.A.shape[0] // 2 - 1

    @property
    def norm(self):
        return fro_norm(self.A)


# ---------------------------------------------------------------- memberships

def in_sphere_covector(pt, tol=EQ_TOL):
    """(p,p)_E = 1, (p,q)_E = 0, and q + p (q,p)_H != 0."""
    p, q = pt.p, pt.q
    if abs(einner(p, p) - 1.0) > tol or abs(einner(p, q)) > tol:
        return False
    qp = hinner(q, p)
    shifted = q + qmul(p, qp[None, :])
    return qnorm(shifted).max() > tol


def in_sphere_covector0(pt):
    """(p,p)_E = 1, q != 0, (q,p)_H = 0 componentwise."""
    p, q = pt.p, pt.q
    if abs(einner(p, p) - 1.0) > EQ_TOL:
        return False
    if np.sqrt(np.sum(q ** 2)) <= EQ_TOL:
        return False
    return np.max(np.abs(hinner(q, p))) <= EQ_TOL


def in_cotangent_h(pt):
    """tr P = 1, P o P = P, P o Q = Q/2, Q != 0, Q^3 = ||Q||^2 Q / 2."""
    P, Q = pt.P, pt.Q
    scale = max(1.0, float(np.max(np.abs(Q))) ** 3)
    if abs(qtrace(P)[0] - 1.0) > EQ_TOL:
        return False
    if np.max(np.abs(jordan(P, P) - P)) > EQ_TOL:
        return False
    if np.max(np.abs(jordan(P, Q) - 0.5 * Q)) > EQ_TOL * max(1.0, np.max(np.abs(Q))):
        return False
    nq2 = np.sum(Q ** 2)
    if nq2 <= EQ_TOL:
        return False
    q3 = qmat_mul(qmat_mul(Q, Q), Q)
    return bool(np.max(np.abs(q3 - 0.5 * nq2 * Q)) <= EQ_TOL * scale)


def in_btuple_space(pt):
    """sum(det B_i) = 0 and z, w linearly independent."""
    z, w = pt.zw
    d = np.sum(np.linalg.det(pt.B))
    if abs(d) > EQ_TOL * max(1.0, pt.norm ** 2):
        return False
    s = np.linalg.svd(np.stack([z, w], axis=1), compute_uv=False)
    return s[-1] > RANK_TOL * max(s[0], 1e-300)


def in_btuple_space0(pt):
    """Horizontal locus: sum B_i^* B_i is a multiple of the identity.

    Equivalently conj(z).w = 0 and ||z|| = ||w||, three real conditions;
    this is the image of the horizontal covectors under the B-model map and
    it is invariant under the right SU(2) action.
    """
    if not in_btuple_space(pt):
        return False
    z, w = pt.zw
    cross = np.sum(np.conj(z) * w)
    balance = np.sum(np.abs(z) ** 2) - np.sum(np.abs(w) ** 2)
    scale = max(1.0, pt.norm ** 2)
    return abs(cross) <= EQ_TOL * scale and abs(balance) <= EQ_TOL * scale


def in_amatrix_space(pt):
    """J A = A^t J, numerical rank 2, A^2 = 0."""
    a = pt.A
    m = a.shape[0] // 2
    jj = jmat(m)
    scale = max(1.0, fro_norm(a))
    if np.max(np.abs(jj @ a - a.T @ jj)) > EQ_TOL * scale:
        return False
    if np.max(np.abs(a @ a)) > EQ_TOL * scale ** 2:
        return False
    s = np.linalg.svd(a, compute_uv=False)
    return (s[1] > RANK_TOL * s[0]) and (s[2] <= RANK_TOL * s[0] if len(s) > 2 else True)


# --------------------------------------------------------------------- maps

def metric_g_h(q1, q2):
    """Riemannian pairing of two tangents at a common projector: tr(Q1 o Q2)/2."""
    return 0.5 * float(np.sum(np.asarray(q1) * np.asarray(q2)))


def alpha(pt):
    """(p, q) -> (P, Q) with P = (p_i theta(p_j)), Q = (p_i theta(q_j) + q_i theta(p_j))."""
    if not in_sphere_covector(pt):
        raise ValueError("point is not in the sphere covector space")
    p, q = pt.p, pt.q
    tp, tq = qconj(p), qconj(q)
    P = qmul(p[:, None, :], tp[None, :, :])
    Q = qmul(p[:, None, :], tq[None, :, :]) + qmul(q[:, None, :], tp[None, :, :])
    return CotangentPointH(P, Q)


def tau_s(pt):
    """(p, q) -> B_i = rho(|q| p_i + q_i i); ||B||^2 = 4 |q|^2."""
    if not in_sphere_covector(pt):
        raise ValueError("point is not in the sphere covector space")
    nq = float(np.sqrt(np.sum(pt.q ** 2)))
    h = nq * pt.p.astype(complex) + 1j * pt.q
    return BTuple(rho(h))


def tau_h(pt):
    """(P, Q) -> A = ||Q||^2 rho(P) - rho(Q)^2 + i ||Q|| rho(Q) / sqrt(2)."""
    if not in_cotangent_h(pt):
        raise ValueError("point is not in the cotangent-bundle model")
    nq = pt.qnorm_j
    rp = complexify(pt.P)
    rq = complexify(pt.Q)
    return AMatrix(nq ** 2 * rp - rq @ rq + (1j / np.sqrt(2.0)) * nq * rq)


def _adj2(b):
    """Adjugate of 2x2 blocks: [[d, -b], [-c, a]]; equals -J B^t J."""
    out = np.empty_like(b)
    out[..., 0, 0] = b[..., 1, 1]
    out[..., 1, 1] = b[..., 0, 0]
    out[..., 0, 1] = -b[..., 0, 1]
    out[..., 1, 0] = -b[..., 1, 0]
    return out


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
    if not in_btuple_space(pt):
        raise ValueError("tuple is not in the B-model space")
    return AMatrix(beta_blocks(pt.B))


def _tau_s_inv_core(b):
    """(p, q) from blocks B by the real/imaginary quaternion split, with no
    membership test: q = Im rho^-1(B) and p = Re rho^-1(B) / |q|."""
    c = rho_inv(b)
    return c.real / float(np.linalg.norm(c.imag)), c.imag


def tau_s_inv(pt):
    """Recover (p, q) from B via the real/imaginary quaternion split.

    Rejects tuples whose recovered point sits within ``BOUNDARY_TOL`` of the
    boundary where the sphere-covector membership degenerates.
    """
    if not in_btuple_space(pt):
        raise ValueError("tuple is not in the B-model space")
    # p is undefined where q vanishes; that tuple is rejected next
    with np.errstate(divide="ignore", invalid="ignore"):
        p, q = _tau_s_inv_core(pt.B)
    nq = float(np.linalg.norm(q))
    if nq <= BOUNDARY_TOL:
        raise ValueError("tuple has vanishing covector part")
    out = SphereCovector(p, q)
    qp = hinner(q, p)
    shifted = q + qmul(p, qp[None, :])
    if qnorm(shifted).max() <= BOUNDARY_TOL * nq:
        raise ValueError("recovered point is too close to the degenerate boundary")
    # the split carries round-off of the tuple's scale, so test at 1e-9
    if not in_sphere_covector(out, 1e-9):
        raise ValueError("recovered point fails sphere-covector membership")
    return out


def _tau_h_inv_core(a):
    """(P, Q) from A by the quaternionic split A = complexify(X) + i complexify(Y),
    with no membership test: ||Q||^2 = |A| / sqrt(2), Q = sqrt(2) Y / ||Q|| and
    P = (X + Q^2) / ||Q||^2.  Also returns the largest imaginary coefficient
    of X and Y, which is round-off for every complex matrix."""
    x, y = quat_split(a)
    nq = (fro_norm(a) / np.sqrt(2.0)) ** 0.5
    Q = np.sqrt(2.0) * y.real / nq
    P = (x.real + qmat_mul(Q, Q)) / nq ** 2
    return P, Q, max(np.max(np.abs(x.imag)), np.max(np.abs(y.imag)))


def tau_h_inv(pt):
    """Recover (P, Q) from A using the quaternionic real/imaginary parts."""
    if not in_amatrix_space(pt):
        raise ValueError("matrix is not in the A-model space")
    P, Q, imag = _tau_h_inv_core(pt.A)
    if imag > 1e-9 * max(1.0, fro_norm(pt.A)):
        raise ValueError("matrix has no quaternionic hermitian split")
    return CotangentPointH(P, Q)


# ------------------------------------------------------------------ samplers

# p e_k is a signed permutation of the coefficients of p: entry c of p e_k
# is _FRAME_SIGN[k, c] * p[_FRAME_INDEX[k, c]]
_FRAME_INDEX = np.array([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])
_FRAME_SIGN = np.array([[1.0, 1.0, 1.0, 1.0], [-1.0, 1.0, 1.0, -1.0],
                        [-1.0, -1.0, 1.0, 1.0], [-1.0, 1.0, -1.0, 1.0]])


def sp1_orbit_frame(p):
    """p, p e1, p e2, p e3 stacked on a new leading axis, for p of shape (..., 4).

    For a unit p these are orthonormal and span the quaternionic line of p.
    """
    p = np.asarray(p)
    return np.moveaxis(p[..., _FRAME_INDEX] * _FRAME_SIGN, -2, 0)


@cache
def _orbit_frame_matrix(m):
    """The orbit frame as one real (4m, 16m) matrix, the product that
    :func:`_orbit_frames` takes.  Built once per size and read-only."""
    frame = sp1_orbit_frame(np.eye(4 * m).reshape(4 * m, m, 4))
    out = np.ascontiguousarray(np.moveaxis(frame, 0, 1).reshape(4 * m, 16 * m))
    out.flags.writeable = False
    return out


def _orbit_frames(p):
    """The orbit frames p e_0 .. p e_3 of points p, (N, m, 4) or flat
    (N, 4m), as the rows of an (N, 4, 4m) array: one product with the
    cached orbit-frame matrix."""
    flat = p.reshape(p.shape[0], -1)
    size, dim = flat.shape
    return (flat @ _orbit_frame_matrix(dim // 4)).reshape(size, 4, dim)


def _project_out(frames, q):
    """q (N, 4m) minus its components along the orthonormal rows of frames,
    all k at once: (N, k, 4m) row by row, or (k, 4m) the same for every row,
    two matrix products.  The orbit frames of p leave the horizontal part of
    q at p; p alone, p.reshape(N, 1, 4m), leaves its part tangent to the
    sphere."""
    if frames.ndim == 2:
        return q - (q @ frames.T) @ frames
    coeffs = np.einsum("nkj,nj->nk", frames, q)
    return q - np.einsum("nk,nkj->nj", coeffs, frames)


def random_es0(n, qnorm_val, rng):
    """Horizontal covector sample: (q, p)_H = 0 exactly, |q| = qnorm_val."""
    m = n + 1
    for _ in range(MAX_TRIES):
        p = sphere_uniform(4 * m - 1, rng).reshape(m, 4)
        q = _project_out(_orbit_frames(p[None]), rng.standard_normal((1, 4 * m))).reshape(m, 4)
        nq = np.sqrt(np.sum(q ** 2))
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
    return alpha(pt)


def random_sl2(rng):
    """Haar-ish sample of SL(2, C) via a normalized complexified quaternion."""
    while True:
        r = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        g = rho(r)
        d = np.linalg.det(g)
        if abs(d) > 1e-6:
            return g / np.sqrt(d)


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
    rec = json.loads(text)
    n = int(rec["n"])
    m = n + 1
    flat = _pair2c(rec["data"])
    space = rec["space"]
    if space == "E_S":
        half = flat.shape[0] // 2
        return SphereCovector(flat[:half].real.reshape(m, 4), flat[half:].real.reshape(m, 4))
    if space == "E_H":
        half = flat.shape[0] // 2
        return CotangentPointH(flat[:half].real.reshape(m, m, 4), flat[half:].real.reshape(m, m, 4))
    if space == "Et_S":
        return BTuple(flat.reshape(m, 2, 2))
    if space == "Et_H":
        return AMatrix(flat.reshape(2 * m, 2 * m))
    raise ValueError(f"unknown space tag {space!r}")
