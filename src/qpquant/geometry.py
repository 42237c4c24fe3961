"""Differential-geometric layer.

The B-model tangent basis is the numerical kernel of the constraint
differential; the A-model tangents are d(beta) of the B-model tangents, by
the commuting square beta tau_S = tau_H alpha on the horizontal locus.
Forms are evaluated on those bases, never through coordinate charts.  The
module provides

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

from .algebra import complexify_inv, fro_norm, jordan, qmat_mul, rho_inv
from .spaces import (
    AMatrix,
    BTuple,
    SphereCovector,
    _adj2,
    _orbit_frames,
    _tau_h_alpha_core,
    _tau_h_inv_core,
    _tau_s_core,
    _tau_s_inv_core,
    beta,
    beta_blocks,
    blocks_to_coords,
    coords_to_blocks,
    in_sphere_covector,
    random_es0,
    sp1_orbit_frame,
    tau_h_inv,
    tau_s,
)
from .numerics import sphere_uniform, vol_pnh, vol_sphere

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
    "tangent_basis_et_h",
    "tangent_basis_et_s",
    "theta_h",
    "theta_s",
    "y_fields",
    "z_field",
]


# ------------------------------------------------------------ tangent bases

def d_tau_s_inv(p, q, w_coords):
    """(pdot, qdot), both (..., m, 4), from coordinate tangents W (..., 4m)
    at the B-model point over (p, q) = tau_s^-1(B)."""
    nq = float(np.linalg.norm(q))
    cd = rho_inv(coords_to_blocks(w_coords))
    dnq = np.sum(q * cd.imag, axis=(-2, -1))[..., None, None] / nq
    return (cd.real - dnq * p) / nq, cd.imag


def d_tau_h_inv(P, Q, w_mat):
    """(P_dot, Q_dot) from a matrix tangent W at the A-model point over
    (P, Q) = tau_h^-1(A)."""
    nq = math.sqrt(float(np.sum(Q * Q)))
    c = complexify_inv(w_mat)
    x_re, x_im = c.real, c.imag
    dq = float(np.sum(Q * x_im)) / (math.sqrt(2.0) * nq)
    Q_dot = (math.sqrt(2.0) * x_im - (dq / nq) * Q) / nq
    P_dot = (x_re - 2.0 * dq * P + 2.0 * jordan(Q_dot, Q)) / nq ** 2
    return P_dot, Q_dot


def _dd_gradient(bt):
    """Gradient of D = sum det B_i in the ambient coordinates (z, w) of bt:
    the gradient of det is the transposed adjugate."""
    return blocks_to_coords(np.swapaxes(_adj2(bt.B), -1, -2))


def tangent_basis_et_s(bt):
    """Complex orthonormal tangent basis of the B-model at bt (4n+3 vectors)."""
    _, s, vt = np.linalg.svd(_dd_gradient(bt)[None, :])
    basis = np.conj(vt[1:])
    return basis  # rows orthonormal, dD(row) = 0


def _a_model_frame(bt):
    """The A-model tangent basis at beta(bt), (4n, 2m, 2m), and B-model
    tangents at bt, (4n, 4m), that d(beta) maps onto its rows.

    With d(beta) of the B-model basis U equal to X s Vh (thin SVD), d(beta)
    is complex linear and maps (conj(X[:, :r]) / s[:r])^t U onto Vh[:r].
    """
    m = bt.B.shape[0]
    ubasis = tangent_basis_et_s(bt)
    dmat = d_beta_blocks(bt.B, coords_to_blocks(ubasis)).reshape(len(ubasis), -1)
    x, s, vt = np.linalg.svd(dmat, full_matrices=False)
    rank = int(np.sum(s > 1e-10 * s[0]))
    if rank != 4 * (m - 1):
        raise ArithmeticError(f"tangent rank {rank}, expected {4 * (m - 1)}")
    pre = (np.conj(x[:, :rank]) / s[:rank]).T @ ubasis
    return vt[:rank].reshape(rank, 2 * m, 2 * m), pre


def tangent_basis_et_h(seed_pt):
    """Complex orthonormal tangent basis (4n matrices) of the A-model.

    ``seed_pt`` is a horizontal covector point.  By the commuting square
    beta tau_S = tau_H alpha its A-model image is beta(B), B = tau_S(seed_pt),
    and the basis spans d(beta)_B of the B-model tangents at B.
    """
    return _a_model_frame(tau_s(seed_pt))[0]


def real_basis_from_complex(ubasis):
    """Real basis (u_1, i u_1, u_2, i u_2, ...) of the underlying real space."""
    u = np.asarray(ubasis)
    return np.stack([u, 1j * u], axis=1).reshape((-1,) + u.shape[1:])


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
        theta = lambda a, t: _theta_h(*_tau_h_inv_core(a), t)
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


# the su(2) basis whose right-action fields y_fields gives
_SU2_BASIS = np.array([[[1j, 0.0], [0.0, -1j]],
                       [[0.0, 1.0], [-1.0, 0.0]],
                       [[0.0, 1j], [1j, 0.0]]])


def y_fields(bt):
    """Right-action generator fields for the su(2) basis, as coordinates (3, 4m)."""
    return blocks_to_coords(bt.B @ _SU2_BASIS[:, None])


def sigma_s_eval(bt, cols):
    """Holomorphic (4n+3)-form: interior product of Z with the coordinate
    volume, normalized by (2i)^(-(2n+2)); columns are coordinate tangents."""
    u = bt.coords
    mdim = u.shape[0]
    n = mdim // 4 - 1
    mat = np.column_stack([z_field(bt), *np.reshape(cols, (len(cols), -1))])
    if mat.shape != (mdim, mdim):
        raise ValueError("need exactly 4n+3 tangent columns")
    return np.linalg.det(mat) / (2j) ** (2 * n + 2)


def sigma_eval(bt, cols):
    """The SL(2,C)-basic 4n-form: sigma_S with the three Y fields inserted."""
    return sigma_s_eval(bt, [*y_fields(bt), *cols])


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
    if resid > 1e-8 * am.norm:
        raise ArithmeticError("preimage reconstruction failed")
    return bt


def d_beta_blocks(b, v):
    """Differential of beta at B applied to a block tangent V, (m, 2, 2), or
    to a stack of them."""
    return beta_blocks(v, b) + beta_blocks(b, v)


def sigma_h_eval(am, cols, bt=None):
    """The descended holomorphic 4n-form on matrix tangents at an AMatrix.

    Solves for all columns at once, by least squares in the A-model basis,
    and evaluates the basic form on their B-model preimages; the result is
    gauge independent.
    """
    if bt is None:
        bt = beta_preimage(am)
    wbasis, pre = _a_model_frame(bt)
    w = np.reshape(cols, (len(cols), -1)).T
    flat = wbasis.reshape(len(wbasis), -1).T
    coef = np.linalg.lstsq(flat, w, rcond=None)[0]
    resid = np.linalg.norm(flat @ coef - w, axis=0)
    if np.any(resid > 1e-8 * np.linalg.norm(w, axis=0)):
        raise ArithmeticError("column is not tangent to the A-model image")
    return sigma_eval(bt, coef.T @ pre)


def det_theta_prime(bt):
    """det of the holomorphic parts of the pulled-back dual one-forms on the
    right-action generators; constant = 1/8 exactly on the horizontal locus."""
    p, q = _tau_s_inv_core(bt.B)
    ys = y_fields(bt)
    pdots, _ = d_tau_s_inv(p, q, np.concatenate([ys, 1j * ys]))
    # theta_i(w) = <p e_i, pdot(w)>: row i over the tangents Y_1..Y_3, iY_1..iY_3
    th = np.sum(sp1_orbit_frame(p)[1:, None] * pdots, axis=(-2, -1))
    return np.linalg.det(0.5 * (th[:, :3] - 1j * th[:, 3:]))


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


def _liouville(model, point, ubasis):
    """omega^k / k! on the real basis (u_1, i u_1, ..., u_k, i u_k) of a
    complex frame U: (2 pref)^k det(conj(U) H^t U^t), H the model's Hessian."""
    mode, pref = _MODEL[model]
    hess = complex_hessian_radial(_model_coords(model, point), mode)
    u = np.reshape(ubasis, (len(ubasis), -1))
    return (2.0 * pref) ** len(u) * np.linalg.det(np.conj(u) @ hess.T @ u.T).real


def _volume_ratio(model, point, ubasis, form, sigma):
    """(form wedge conj(sigma)) / Liouville for (k, 0)-forms with the values
    form and sigma on an orthonormal complex frame U of k vectors; on its
    real basis the wedge is (-1)^(k(k-1)/2) (-2i)^k form conj(sigma)."""
    k = len(ubasis)
    wedge = (-1) ** (k * (k - 1) // 2) * (-2j) ** k * form * np.conj(sigma)
    return complex(wedge / _liouville(model, point, ubasis))


def recover_a_s(bt):
    """sigma_S wedge conj(sigma_S) / Liouville, divided by |B|^(4n+1)."""
    ubasis = tangent_basis_et_s(bt)
    c_sigma = sigma_s_eval(bt, ubasis)
    return _volume_ratio("S", bt, ubasis, c_sigma, c_sigma) / bt.norm ** (4 * bt.n + 1)


def recover_b_s(bt):
    """pullback(v_S) wedge conj(sigma_S) / Liouville, times |B|.

    The (k, 0) part of v_S on the frame U is det [p, pdot(U)], with
    pdot(u) = (pdot_R(u) - i pdot_R(i u)) / 2 from the real d tau_S^-1.
    """
    ubasis = tangent_basis_et_s(bt)
    k, dim = ubasis.shape
    p, q = _tau_s_inv_core(bt.B)
    pdots = d_tau_s_inv(p, q, np.concatenate([ubasis, 1j * ubasis]))[0].reshape(2, k, dim)
    v_s = np.linalg.det(np.vstack([p.reshape(1, dim), 0.5 * (pdots[0] - 1j * pdots[1])]))
    return _volume_ratio("S", bt, ubasis, v_s, sigma_s_eval(bt, ubasis)) * bt.norm


def recover_a_h(seed_pt):
    """sigma_H wedge conj(sigma_H) / Liouville, divided by |A|^(2n+2), at
    A = beta(B), B = tau_S(seed_pt), with sigma_H on B-model preimages."""
    bt = tau_s(seed_pt)
    am = beta(bt)
    wbasis, pre = _a_model_frame(bt)
    c_sigma = sigma_eval(bt, pre)
    return _volume_ratio("H", am, wbasis, c_sigma, c_sigma) / am.norm ** (2 * am.n + 2)


def recover_constants(n, rng, npoints=6, det_points=100):
    """Numerically recover the five pairing constants at n.

    a_S, b_S, det(theta'(Y)) and a_H from points drawn from the caller's
    generator, and b_H from them by the corollary substitution.  Returns a
    dict with values and observed spreads.  tau_S of the draws, in E_S by
    construction, skips membership.
    """
    out = {}

    def record(key, vals):
        """The mean of vals as out[key], its largest deviation as out[key_spread]."""
        vals = np.array(vals)
        out[key] = complex(np.mean(vals))
        out[key + "_spread"] = float(np.max(np.abs(vals - out[key])))

    def draw(lo, hi, count):
        return [random_es0(n, float(rng.uniform(lo, hi)), rng) for _ in range(count)]

    bts = [BTuple(_tau_s_core(pt.p, pt.q)) for pt in draw(0.5, 1.8, npoints)]
    record("a_S", [recover_a_s(bt) for bt in bts])
    record("b_S", [VS_ORIENTATION_SIGN * recover_b_s(bt) for bt in bts])
    out["orientation_sign"] = VS_ORIENTATION_SIGN
    record("det_theta", [det_theta_prime(BTuple(_tau_s_core(pt.p, pt.q)))
                         for pt in draw(0.4, 2.2, det_points)])
    record("a_H", [recover_a_h(pt) for pt in draw(0.5, 1.8, npoints)])
    out["b_H"] = complex((1.0 / math.sqrt(2.0)) ** (2 * n + 1) * out["a_H"] * out["b_S"]
                         / (2.0 * math.pi ** 2 * out["a_S"] * out["det_theta"]))
    return out


# -------------------------------------------------- flow and fibration

def geodesic_flow_pair(pt, t):
    """(A along the sphere geodesic at time t, e^(-2it) A at time 0); t may be a 1-D array."""
    p, q = pt.p, pt.q
    if abs(float(np.sqrt(np.sum(q * q))) - 1.0) > 1e-10:
        raise ValueError("flow comparison needs a unit-speed covector")
    if not in_sphere_covector(pt):
        raise ValueError(f"point is not in the sphere covector space: {pt._failure}")
    # times t, then 0 for the start point: the rotation of the (p, q) plane keeps
    # |p| = 1, (p, q)_E = 0 and a non-vertical q, so each point is in E_S by construction
    ts = np.append(t, 0.0).reshape(-1, 1, 1)
    c, s = np.cos(ts), np.sin(ts)
    a = _tau_h_alpha_core(p * c + q * s, q * c - p * s)
    a_t = a[:-1].reshape(np.shape(t) + a.shape[1:]).copy()  # a view would hold the stack
    return a_t, np.exp(-2j * np.reshape(t, np.shape(t) + (1, 1))) * a[-1]


def hopf_pushforward_check(n, nsamples, rng):
    """Pointwise eta/V duality and the volume ratio of the fibration."""
    p = sphere_uniform(4 * n + 3, rng, size=nsamples)
    # rows V_j(p) = p e_j, the unit tangents along the fiber
    frames = _orbit_frames(p)[:, 1:]
    worst = max(float(np.abs(frames @ p[:, :, None]).max()),
                float(np.abs(frames @ np.swapaxes(frames, -1, -2) - np.eye(3)).max()))
    vol_resid = abs(vol_sphere(4 * n + 3) - 2.0 * math.pi ** 2 * vol_pnh(n))
    return {"duality_residual": worst, "volume_residual": vol_resid}
