"""Differential-geometric layer.

Tangent bases of the model manifolds are computed as numerical kernels of
constraint differentials (or pushforwards along the model maps); forms are
evaluated on those bases, never through coordinate charts.  The module
provides

* exact complex Hessians of the radial potentials and the symplectic forms
  they generate, with finite-difference cross checks,
* the canonical one-forms through the inverse model maps and the one-form
  potential identities,
* the holomorphic volume forms (via interior products and determinants),
  and the numerical recovery of the five volume-ratio constants,
* the geodesic flow / matrix-scaling equivalence and the fibration checks.
"""

from __future__ import annotations

import math

import numpy as np

from .algebra import (
    complexify,
    fro_norm,
    hinner,
    jordan,
    qconj,
    qmat_mul,
    qmul,
    quat_split,
    rho_inv,
)
from .spaces import (
    AMatrix,
    BTuple,
    SphereCovector,
    _tau_h_inv_core,
    _tau_s_inv_core,
    alpha,
    beta_blocks,
    blocks_to_coords,
    coords_to_blocks,
    random_es0,
    sp1_orbit_frame,
    tau_h,
    tau_h_inv,
    tau_s,
)
from .numerics import sphere_uniform, vol_sphere

__all__ = [
    "beta_preimage",
    "canonical_oneform_check",
    "complex_hessian_radial",
    "d_beta_blocks",
    "det_theta_prime",
    "dtheta_fd",
    "fd_complex_hessian",
    "geodesic_flow_pair",
    "hamilton_check",
    "hopf_pushforward_check",
    "omega_closed_fd",
    "omega_eval",
    "oneform_potential",
    "pfaffian",
    "recover_a_h",
    "recover_a_s",
    "recover_b_s",
    "recover_constants",
    "sigma_eval",
    "sigma_h_eval",
    "sigma_s_eval",
    "tangent_basis_es0",
    "tangent_basis_et_h",
    "tangent_basis_et_s",
    "theta_h",
    "theta_s",
    "y_fields",
    "z_field",
]


# ------------------------------------------------------------ tangent bases

def tangent_basis_es0(pt):
    """Orthonormal real basis of the tangent space of the horizontal locus.

    Vectors are (pdot, qdot) pairs flattened to length 8(n+1); there are
    8n + 3 of them.
    """
    p, q = pt.p, pt.q
    m = p.shape[0]
    dim = 8 * m
    # constraint differentials on the unit vectors: d|p|^2 (the row p) and d<q, p>_H
    pdots, qdots = split_pq(np.eye(dim), m)
    grad = (hinner(q, pdots) + hinner(qdots, p)).T
    cmat = np.vstack([np.concatenate([p.ravel(), np.zeros(4 * m)]), grad])
    _, s, vt = np.linalg.svd(cmat)
    rank = int(np.sum(s > 1e-12 * s[0]))
    basis = vt[rank:]
    if basis.shape[0] != dim - 5:
        raise ArithmeticError("unexpected corank of the horizontal-locus constraints")
    return basis  # (8n+3, 8m)


def split_pq(vec, m):
    vec = np.asarray(vec)
    return vec[..., :4 * m].reshape(vec.shape[:-1] + (m, 4)), \
        vec[..., 4 * m:].reshape(vec.shape[:-1] + (m, 4))


def d_alpha(p, q, pdot, qdot):
    tp, tq = qconj(p), qconj(q)
    tpd, tqd = qconj(pdot), qconj(qdot)
    pdot_ = pdot[:, None, :]
    p_ = p[:, None, :]
    qdot_ = qdot[:, None, :]
    q_ = q[:, None, :]
    P_dot = qmul(pdot_, tp[None]) + qmul(p_, tpd[None])
    Q_dot = (qmul(pdot_, tq[None]) + qmul(p_, tqd[None])
             + qmul(qdot_, tp[None]) + qmul(q_, tpd[None]))
    return P_dot, Q_dot


def d_tau_h(P, Q, P_dot, Q_dot):
    nq2 = float(np.sum(Q * Q))
    nq = math.sqrt(nq2)
    dq = float(np.sum(Q * Q_dot))
    rp, rq = complexify(P), complexify(Q)
    rpd, rqd = complexify(P_dot), complexify(Q_dot)
    return (2.0 * dq * rp + nq2 * rpd - (rqd @ rq + rq @ rqd)
            + (1j / math.sqrt(2.0)) * ((dq / nq) * rq + nq * rqd))


def d_tau_s_inv(p, q, w_coords):
    """(pdot, qdot), both (m, 4), from a coordinate tangent W at the B-model
    point over (p, q) = tau_s^-1(B)."""
    nq = float(np.linalg.norm(q))
    cd = rho_inv(coords_to_blocks(w_coords))
    dnq = float(np.sum(q * cd.imag)) / nq
    return (cd.real - dnq * p) / nq, cd.imag


def d_tau_h_inv(P, Q, w_mat):
    """(P_dot, Q_dot) from a matrix tangent W at the A-model point over
    (P, Q) = tau_h^-1(A)."""
    nq = math.sqrt(float(np.sum(Q * Q)))
    x, y = quat_split(w_mat)
    x_re, x_im = x.real, y.real
    dq = float(np.sum(Q * x_im)) / (math.sqrt(2.0) * nq)
    Q_dot = (math.sqrt(2.0) * x_im - (dq / nq) * Q) / nq
    P_dot = (x_re - 2.0 * dq * P + 2.0 * jordan(Q_dot, Q)) / nq ** 2
    return P_dot, Q_dot


def _dd_gradient(bt):
    """Gradient of D = sum det B_i in the ambient coordinates (z, w) of bt."""
    u = bt.coords
    m2 = u.shape[0] // 2
    z, w = u[:m2], u[m2:]
    grad = np.empty_like(u)
    grad[0:m2:2] = w[1::2]
    grad[1:m2:2] = -w[0::2]
    grad[m2::2] = -z[1::2]
    grad[m2 + 1::2] = z[0::2]
    return grad


def tangent_basis_et_s(bt):
    """Complex orthonormal tangent basis of the B-model at bt (4n+3 vectors)."""
    _, s, vt = np.linalg.svd(_dd_gradient(bt)[None, :])
    basis = np.conj(vt[1:])
    return basis  # rows orthonormal, dD(row) = 0


def tangent_basis_et_h(seed_pt):
    """Complex orthonormal tangent basis (4n matrices) of the A-model.

    ``seed_pt`` is a horizontal covector point whose image provides the base
    point; the basis spans the pushforward of the horizontal-locus tangents.
    """
    p, q = seed_pt.p, seed_pt.q
    m = p.shape[0]
    cp = alpha(seed_pt)
    es_basis = tangent_basis_es0(seed_pt)
    pushed = []
    for vec in es_basis:
        pdot, qdot = split_pq(vec, m)
        P_dot, Q_dot = d_alpha(p, q, pdot, qdot)
        pushed.append(d_tau_h(cp.P, cp.Q, P_dot, Q_dot).ravel())
    mat = np.array(pushed)
    _, s, vt = np.linalg.svd(mat)
    rank = int(np.sum(s > 1e-10 * s[0]))
    if rank != 4 * (m - 1):
        raise ArithmeticError(f"tangent rank {rank}, expected {4 * (m - 1)}")
    # rows of vt span the row space of `mat`; they are an orthonormal basis
    return vt[:rank].reshape(rank, 2 * m, 2 * m)


def real_basis_from_complex(ubasis):
    """Real basis (u_1, i u_1, u_2, i u_2, ...) of the underlying real space."""
    out = []
    for u in ubasis:
        out.append(u)
        out.append(1j * u)
    return np.array(out)


# ------------------------------------------------- potentials and 2-forms

# f = |z|^(2a): "norm" (a = 1/2) on the sphere side, "sqrt_norm" (a = 1/4) on
# the projective side
_EXPONENT = {"norm": 0.5, "sqrt_norm": 0.25}


def _radial(u, mode):
    """(z, a, |z|^2) for the potential |z|^(2a) named by mode."""
    if mode not in _EXPONENT:
        raise ValueError(f"unknown mode {mode!r}")
    z = np.asarray(u, dtype=complex).ravel()
    r2 = float(np.vdot(z, z).real)
    if r2 == 0:
        raise ZeroDivisionError("radial potential is singular at the origin")
    return z, _EXPONENT[mode], r2


def complex_hessian_radial(u, mode):
    """Full matrix of d^2 f / d conj(z_k) d z_j for radial potentials.

    mode 'norm':       f = (sum |z|^2)^(1/2)
    mode 'sqrt_norm':  f = (sum |z|^2)^(1/4)

    For f = |z|^(2a) this is a |z|^(2a-2) (delta_jk + (a-1) conj(z_j) z_k / |z|^2).
    """
    z, a, r2 = _radial(u, mode)
    outer = np.conj(z)[:, None] * z[None, :]
    return a * r2 ** (a - 1) * (np.eye(z.size) + (a - 1) / r2 * outer)


def _del_f(mode, u, w):
    """del f on a complex tangent w: sum_j w_j df/dz_j = a |z|^(2a-2) sum_j w_j conj(z_j)."""
    z, a, r2 = _radial(u, mode)
    return a * r2 ** (a - 1) * np.sum(np.asarray(w, dtype=complex).ravel() * np.conj(z))


def fd_complex_hessian(u, mode):
    """Finite-difference oracle for :func:`complex_hessian_radial`, step FD_STEP."""
    h = FD_STEP
    z = np.asarray(u, dtype=complex).ravel()

    def f(x):
        r = np.linalg.norm(x)
        return r if mode == "norm" else math.sqrt(r)

    def dz_j(x, j):
        e = np.zeros_like(z)
        e[j] = 1.0
        re = (f(x + h * e) - f(x - h * e)) / (2 * h)
        im = (f(x + 1j * h * e) - f(x - 1j * h * e)) / (2 * h)
        return 0.5 * (re - 1j * im)

    n = z.size
    out = np.empty((n, n), dtype=complex)
    for k in range(n):
        e = np.zeros_like(z)
        e[k] = 1.0
        for j in range(n):
            dre = (dz_j(z + h * e, j) - dz_j(z - h * e, j)) / (2 * h)
            dim_ = (dz_j(z + 1j * h * e, j) - dz_j(z - 1j * h * e, j)) / (2 * h)
            out[j, k] = 0.5 * (dre + 1j * dim_)
    return out


_MODEL = {"S": ("norm", 1.0), "H": ("sqrt_norm", 2.0 ** 0.25)}

# step of the central differences in fd_complex_hessian, dtheta_fd, omega_closed_fd
FD_STEP = 1e-5


def _model_coords(model, point):
    """Ambient coordinates of a BTuple ("S") or an AMatrix ("H")."""
    return point.coords if model == "S" else point.A.ravel()


def omega_eval(model, point, v, w):
    """Symplectic form -2 pref Im(w^t H conj(v)) on real ambient tangents at a
    model point, H the complex Hessian of the model potential.

    Tangents are given in ambient coordinates (tuple coordinates for the
    sphere model, matrix entries for the cotangent model).  v and w are one
    tangent each, which gives a float, or stacks of a and b tangents, which
    give the (a, b) matrix of values.
    """
    mode, pref = _MODEL[model]
    z = _model_coords(model, point)
    hess = complex_hessian_radial(z, mode)
    vs = np.asarray(v, dtype=complex).reshape(-1, z.size)
    ws = np.asarray(w, dtype=complex).reshape(-1, z.size)
    om = -2.0 * pref * np.imag(np.conj(vs) @ hess.T @ ws.T)
    return float(om[0, 0]) if np.size(v) == np.size(w) == z.size else om


def oneform_potential(model, point, w):
    """i (del - delbar) of the model potential, evaluated on a real tangent."""
    mode, _ = _MODEL[model]
    return -2.0 * float(np.imag(_del_f(mode, _model_coords(model, point), w)))


def theta_s(bt, w_coords):
    """Canonical one-form of the sphere cotangent bundle, via the inverse map.

    ``bt`` is a BTuple or its coordinate vector; neither is tested for
    membership, so points off the B-model (finite differences) are accepted.
    """
    b = bt.B if isinstance(bt, BTuple) else coords_to_blocks(np.ravel(bt))
    p, q = _tau_s_inv_core(b)
    pdot, _ = d_tau_s_inv(p, q, w_coords)
    return float(np.sum(q * pdot))


def _theta_h(P, Q, w_mat):
    """theta_H on the matrix tangent W at the point over (P, Q)."""
    P_dot, _ = d_tau_h_inv(P, Q, w_mat)
    return 0.5 * float(np.sum(Q * P_dot))


def theta_h(am, w_mat):
    """Canonical one-form of the projective-space cotangent bundle at an AMatrix."""
    cp = tau_h_inv(am)
    return _theta_h(cp.P, cp.Q, w_mat)


def canonical_oneform_check(model, point, w):
    """Absolute residual of the one-form potential identity."""
    if model == "S":
        lhs = oneform_potential("S", point, w)
        rhs = 2.0 * theta_s(point, np.asarray(w).ravel())
    else:
        lhs = oneform_potential("H", point, w)
        rhs = 2.0 ** 0.75 * theta_h(point, np.asarray(w, dtype=complex))
    return abs(lhs - rhs)


def hamilton_check(am, y_mat):
    """Residual of omega(Y, X) = Y(h) for the flow generator X = -2iA at an AMatrix."""
    x_flow = -2j * am.A
    lhs = omega_eval("H", am, y_mat, x_flow)
    dh = 2.0 ** -0.75 * 2.0 * float(np.real(_del_f("sqrt_norm", am.A, y_mat)))
    return abs(lhs - dh)


def dtheta_fd(model, point, v, w):
    """Finite-difference exterior derivative of the canonical one-form at a
    BTuple ("S") or an AMatrix ("H")."""
    h = FD_STEP
    if model == "S":
        x0 = point.coords
        theta = theta_s
    else:
        x0 = point.A
        # the displaced points leave the A-model: no membership test
        theta = lambda a, t: _theta_h(*_tau_h_inv_core(a)[:2], t)
    v = np.asarray(v, dtype=complex).reshape(x0.shape)
    w = np.asarray(w, dtype=complex).reshape(x0.shape)
    tv = (theta(x0 + h * v, w) - theta(x0 - h * v, w)) / (2 * h)
    tw = (theta(x0 + h * w, v) - theta(x0 - h * w, v)) / (2 * h)
    return tv - tw


def omega_closed_fd(model, point, v, w, x):
    """Finite-difference exterior derivative of omega on a tangent triple at a
    BTuple ("S") or an AMatrix ("H")."""
    h = FD_STEP
    if model == "S":
        x0 = point.coords
        mk = lambda c: BTuple(coords_to_blocks(c))
    else:
        x0 = point.A
        mk = AMatrix
    vecs = [np.asarray(t, dtype=complex).reshape(x0.shape) for t in (v, w, x)]
    total = 0.0
    for sign, (a, b, c) in zip((1.0, -1.0, 1.0), ((0, 1, 2), (1, 0, 2), (2, 0, 1))):
        d = (omega_eval(model, mk(x0 + h * vecs[a]), vecs[b], vecs[c])
             - omega_eval(model, mk(x0 - h * vecs[a]), vecs[b], vecs[c])) / (2 * h)
        total += sign * d
    return abs(total)


# ----------------------------------------------- holomorphic volume forms

def z_field(bt):
    """The dual gradient field trivializing dD, in ambient coordinates."""
    return np.conj(_dd_gradient(bt)) / (bt.norm ** 2)


def y_fields(bt):
    """Right-action generator fields for the su(2) basis, as coordinates."""
    gens = (np.array([[1j, 0.0], [0.0, -1j]]),
            np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex),
            np.array([[0.0, 1j], [1j, 0.0]]))
    return [blocks_to_coords(bt.B @ g) for g in gens]


def sigma_s_eval(bt, cols):
    """Holomorphic (4n+3)-form: interior product of Z with the coordinate
    volume, normalized by (2i)^(-(2n+2)); columns are coordinate tangents."""
    u = bt.coords
    mdim = u.shape[0]
    n = mdim // 4 - 1
    mat = np.column_stack([z_field(bt)] + [np.asarray(c, dtype=complex).ravel() for c in cols])
    if mat.shape != (mdim, mdim):
        raise ValueError("need exactly 4n+3 tangent columns")
    return np.linalg.det(mat) / (2j) ** (2 * n + 2)


def sigma_eval(bt, cols):
    """The SL(2,C)-basic 4n-form: sigma_S with the three Y fields inserted."""
    return sigma_s_eval(bt, y_fields(bt) + [np.asarray(c, dtype=complex).ravel() for c in cols])


def beta_preimage(am):
    """A B-model point over a given AMatrix (an SL(2,C) gauge choice)."""
    cp = tau_h_inv(am)
    P, Q = cp.P, cp.Q
    j = int(np.argmax(P[np.arange(P.shape[0]), np.arange(P.shape[0]), 0]))
    pj = math.sqrt(max(P[j, j, 0], 0.0))
    if pj < 1e-8:
        raise ArithmeticError("projector has no dominant diagonal entry")
    p = P[:, j] / pj
    q = qmat_mul(Q, p[:, None, :])[:, 0]
    pt = SphereCovector(p, q)
    bt = tau_s(pt)
    resid = fro_norm(beta_blocks(bt.B) - am.A)
    if resid > 1e-8 * max(1.0, am.norm):
        raise ArithmeticError("preimage reconstruction failed")
    return bt


def d_beta_blocks(b, v):
    """Differential of beta at B applied to a block tangent V."""
    return beta_blocks(v, b) + beta_blocks(b, v)


def sigma_h_eval(am, cols, bt=None):
    """The descended holomorphic 4n-form on matrix tangents at an AMatrix.

    Solves d(beta) v = w on the B-model tangent space for each column and
    evaluates the basic form there; the result is gauge independent.
    """
    if bt is None:
        bt = beta_preimage(am)
    ubasis = tangent_basis_et_s(bt)
    dmat = np.column_stack([d_beta_blocks(bt.B, coords_to_blocks(u)).ravel() for u in ubasis])
    vcols = []
    for w in cols:
        wflat = np.asarray(w, dtype=complex).ravel()
        coef, res, *_ = np.linalg.lstsq(dmat, wflat, rcond=None)
        resid = np.linalg.norm(dmat @ coef - wflat)
        if resid > 1e-8 * max(1.0, np.linalg.norm(wflat)):
            raise ArithmeticError("column is not tangent to the A-model image")
        vcols.append(ubasis.T @ coef)
    return sigma_eval(bt, vcols)


def det_theta_prime(bt):
    """det of the holomorphic parts of the pulled-back dual one-forms on the
    right-action generators; constant = 1/8 exactly on the horizontal locus."""
    p, q = _tau_s_inv_core(bt.B)
    vertical = sp1_orbit_frame(p)[1:]

    def theta_i(w_coords):
        pdot, _ = d_tau_s_inv(p, q, w_coords)
        return np.sum(vertical * pdot, axis=(-2, -1))

    ys = y_fields(bt)
    mat = np.empty((3, 3), dtype=complex)
    for jcol, y in enumerate(ys):
        th = theta_i(y)
        th_i = theta_i(1j * np.asarray(y))
        mat[:, jcol] = 0.5 * (th - 1j * th_i)
    return np.linalg.det(mat)


# -------------------------------------------------------------- pfaffian

def pfaffian(mat):
    """Pfaffian of an even skew-symmetric matrix by elimination with pivoting."""
    a = np.array(mat, dtype=complex)
    n = a.shape[0]
    if n % 2:
        return 0.0
    val = 1.0 + 0.0j
    for k in range(0, n - 1, 2):
        col = np.abs(a[k + 1:, k])
        piv = int(np.argmax(col)) + k + 1
        if col.max() == 0.0:
            return 0.0
        if piv != k + 1:
            a[[k + 1, piv]] = a[[piv, k + 1]]
            a[:, [k + 1, piv]] = a[:, [piv, k + 1]]
            val = -val
        val *= a[k, k + 1]
        if k + 2 < n:
            r = a[k, k + 2:] / a[k, k + 1]
            s = a[k + 1, k + 2:]
            a[k + 2:, k + 2:] += np.outer(s, r) - np.outer(r, s)
    if abs(val.imag) < 1e-12 * max(1.0, abs(val.real)):
        return float(val.real)
    return val


# ----------------------------------------------------- constants recovery

# Relates the implemented sphere orientation (outward normal first in the
# ambient determinant) to the volume-form conventions under which the
# five-constant corollary identity holds with b_S = +i.  The ratio
# recovering a_S carries no orientation freedom and pins every other sign;
# this one global flip is determined once from the n = 1 evaluation and
# applies to b_S and (through the corollary) b_H together.
VS_ORIENTATION_SIGN = -1.0


def _pair_matrix_det(ubasis, rbasis):
    """det [[<u_j, b_k>], [conj <u_j, b_k>]] for a complex frame and the
    induced real basis; evaluates u*^top wedge conj(u*)^top on the basis."""
    gam = np.array([[np.sum(np.conj(u) * np.asarray(b, dtype=complex).ravel())
                     for b in rbasis] for u in (x.ravel() for x in ubasis)])
    return np.linalg.det(np.vstack([gam, np.conj(gam)]))


def recover_a_s(bt):
    """sigma_S wedge conj(sigma_S) / Liouville, divided by |B|^(4n+1)."""
    ubasis = tangent_basis_et_s(bt)
    rbasis = real_basis_from_complex(ubasis)
    c_sigma = sigma_s_eval(bt, list(ubasis))
    lhs = c_sigma * np.conj(c_sigma) * _pair_matrix_det(ubasis, rbasis)
    w = omega_eval("S", bt, rbasis, rbasis)
    omega_top = -pfaffian(0.5 * (w - w.T))  # Liouville sign convention of the sphere side
    return complex(lhs / omega_top / bt.norm ** (4 * bt.n + 1))


def recover_b_s(bt):
    """pullback(v_S) wedge conj(sigma_S) / Liouville, times |B|.

    On the real basis of 2k = 8n + 6 tangents the wedge is one 8m x 8m
    determinant, (-1)^k det [[p, 0, Pdot], [0, conj(Z), conj(C)]] /
    conj((2i)^(2n+2)): Pdot holds the p-parts of d tau_S^-1 on the basis, C
    the basis as ambient coordinates and Z is :func:`z_field`.  Its Laplace
    expansion along the first 4m rows is the sum over complementary index
    subsets of v_S times conj(sigma_S).
    """
    ubasis = tangent_basis_et_s(bt)
    rbasis = real_basis_from_complex(ubasis)
    k, dim = ubasis.shape
    p, q = _tau_s_inv_core(bt.B)
    pdots = np.array([d_tau_s_inv(p, q, v)[0].ravel() for v in rbasis])
    zero = np.zeros((dim, 1))
    mat = np.block([[p.reshape(dim, 1), zero, pdots.T],
                    [zero, np.conj(z_field(bt))[:, None], np.conj(rbasis).T]])
    lhs = (-1) ** k * np.linalg.det(mat) / np.conj((2j) ** (2 * bt.n + 2))
    w = omega_eval("S", bt, rbasis, rbasis)
    omega_top = -pfaffian(0.5 * (w - w.T))
    return complex(lhs / omega_top * bt.norm)


def recover_a_h(seed_pt):
    """sigma_H wedge conj(sigma_H) / Liouville, divided by |A|^(2n+2)."""
    am = tau_h(alpha(seed_pt))
    bt = tau_s(seed_pt)
    ubasis = tangent_basis_et_h(seed_pt)
    rbasis = real_basis_from_complex(ubasis)
    c_sigma = sigma_h_eval(am, list(ubasis), bt=bt)
    lhs = c_sigma * np.conj(c_sigma) * _pair_matrix_det(ubasis, rbasis)
    w = omega_eval("H", am, rbasis, rbasis)
    omega_top = pfaffian(0.5 * (w - w.T))
    return complex(lhs / omega_top / am.norm ** (2 * am.n + 2))


def recover_constants(n, rng, npoints=6, det_points=100):
    """Numerically recover the five pairing constants.

    det(theta'(Y)) and a_H at the requested n; a_S, b_S and, by the
    corollary substitution, b_H at n = 1 only: their points are drawn from
    the caller's generator, so recovering them at other n too would move
    every later draw of a fixed-seed caller.  Returns a dict with values and
    observed spreads.
    """
    out = {}
    if n == 1:
        vals_as, vals_bs = [], []
        for _ in range(npoints):
            pt = random_es0(1, float(rng.uniform(0.5, 1.8)), rng)
            bt = tau_s(pt)
            vals_as.append(recover_a_s(bt))
            vals_bs.append(VS_ORIENTATION_SIGN * recover_b_s(bt))
        out["a_S"] = complex(np.mean(vals_as))
        out["a_S_spread"] = float(np.max(np.abs(np.array(vals_as) - out["a_S"])))
        out["b_S"] = complex(np.mean(vals_bs))
        out["b_S_spread"] = float(np.max(np.abs(np.array(vals_bs) - out["b_S"])))
        out["orientation_sign"] = VS_ORIENTATION_SIGN
    dets = []
    for _ in range(det_points):
        pt = random_es0(n, float(rng.uniform(0.4, 2.2)), rng)
        dets.append(det_theta_prime(tau_s(pt)))
    dets = np.array(dets)
    out["det_theta"] = complex(np.mean(dets))
    out["det_theta_spread"] = float(np.max(np.abs(dets - out["det_theta"])))
    vals_ah = []
    for _ in range(npoints):
        pt = random_es0(n, float(rng.uniform(0.5, 1.8)), rng)
        vals_ah.append(recover_a_h(pt))
    out["a_H"] = complex(np.mean(vals_ah))
    out["a_H_spread"] = float(np.max(np.abs(np.array(vals_ah) - out["a_H"])))
    if n == 1:
        out["b_H"] = complex((1.0 / math.sqrt(2.0)) ** (2 * n + 1) * out["a_H"] * out["b_S"]
                             / (2.0 * math.pi ** 2 * out["a_S"] * out["det_theta"]))
    return out


# -------------------------------------------------- flow and fibration

def geodesic_flow_pair(pt, t):
    """(A along the sphere geodesic at time t, e^(-2it) A at time 0)."""
    p, q = pt.p, pt.q
    nq = float(np.sqrt(np.sum(q * q)))
    if abs(nq - 1.0) > 1e-10:
        raise ValueError("flow comparison needs a unit-speed covector")
    pt_t = SphereCovector(p * math.cos(t) + q * math.sin(t),
                          q * math.cos(t) - p * math.sin(t))
    a_t = tau_h(alpha(pt_t)).A
    a_0 = tau_h(alpha(pt)).A
    return a_t, np.exp(-2j * t) * a_0


def hopf_pushforward_check(n, nsamples, rng):
    """Pointwise eta/V duality and the volume ratio of the fibration."""
    from .quantization import vol_pnh  # local: geometry sits below quantization
    m = n + 1
    worst = 0.0
    for _ in range(nsamples):
        p = sphere_uniform(4 * m - 1, rng)
        # rows V_j(p) = p e_j, the unit tangents along the fiber
        frame = sp1_orbit_frame(p.reshape(m, 4))[1:].reshape(3, -1)
        worst = max(worst, float(np.abs(frame @ p).max()),
                    float(np.abs(frame @ frame.T - np.eye(3)).max()))
    vol_resid = abs(vol_sphere(4 * n + 3) - 2.0 * math.pi ** 2 * vol_pnh(n))
    return {"duality_residual": worst, "volume_residual": vol_resid}
