"""Quantization constants, the pairing operators, and the reproducing kernel.

Every closed-form constant is a Gamma product assembled in log space, and
every one of them is paired with an independent oracle: a 1-D or a
separable 2-D quadrature, or an angular Monte Carlo estimate with the radial direction
integrated exactly (all radial factors are Gamma integrals).  The operators
and the kernel check also integrate the sphere point exactly given the
fiber point (:func:`numerics.sphere_moment`), so they draw fiber points alone.

The volume-form constants recovered in :mod:`qpquant.geometry` enter the
weights only through fixed scalars; they are pinned here as module
constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import fro_norm, quat_conj_c
from .numerics import (
    _de_quad,
    _mc_blocks,
    gamma_radial,
    log_gamma,
    log_gamma_radial,
    radial_quad,
    sphere_moment,
    vol_pnh,
    vol_sphere,
)
from .spaces import (EQ_TOL, _first_failure, _orbit_frames, _project_out, _refuse, _tau_s_core,
                     beta_blocks, random_es0, sp1_orbit_frame)
from .spectral import HlFunction, _check_degree, _quad_forms, dim_eigenspace, eigenvalue

__all__ = [
    "A_H_CONST",
    "A_S_CONST",
    "B_H_CONST",
    "B_S_CONST",
    "DET_THETA_CONST",
    "ConstantsRow",
    "a_coeff",
    "a_coeff_quadrature",
    "a_coeff_semianalytic",
    "b_coeff",
    "b_coeff_mc",
    "b_coeff_semianalytic",
    "c_coeff",
    "c_coeff_quadrature",
    "c_over_a_expr",
    "c_over_a_limit",
    "constants_table",
    "flow_commutation_operator_check",
    "flow_commutation_scalar",
    "kernel_diag",
    "kernel_norm_bound_check",
    "kernel_reproduce_check",
    "log_kernel_term",
    "moment_s7",
    "moment_s7_mc",
    "orthogonality_check",
    "pairing_gg_mc",
    "t_apply_eigenfunction",
    "t_norm",
    "t_norm_gamma_part",
    "t_norm_limit",
    "t_norm_prefactor",
    "t_tilde_apply_eigenfunction",
    "vol_pnh",
    "weight_pair_fg",
    "weight_pair_gg",
]

LOG2 = math.log(2.0)
LOGPI = math.log(math.pi)
LOG_FLOAT_MAX = float(np.log(np.finfo(float).max))

# volume-form ratio constants (see geometry.recover_constants for the
# numerical recovery): sigma wedge conj(sigma) and pullback-volume ratios
A_S_CONST = -1j
B_S_CONST = 1j
DET_THETA_CONST = 0.125
B_H_CONST = -1.0 / (math.sqrt(2.0) * math.pi ** 2)


def A_H_CONST(n):
    """Holomorphic-volume ratio constant on the cotangent model, 2^(n-2)."""
    return 2.0 ** (n - 2)


# ------------------------------------------------------------------ weights

def weight_pair_gg(norm_a, n):
    """Holomorphic-side pairing weight e^(-2 2^(1/4) pi sqrt|A|) sqrt|a_H| |A|^(n+1)."""
    norm_a = np.asarray(norm_a, dtype=float)
    return (np.exp(-2.0 * 2.0 ** 0.25 * math.pi * np.sqrt(norm_a))
            * math.sqrt(A_H_CONST(n)) * norm_a ** (n + 1))


def weight_pair_fg(norm_a):
    """Mixed pairing weight e^(-2^(1/4) pi sqrt|A|) sqrt|b_H| |A|^(1/2)."""
    norm_a = np.asarray(norm_a, dtype=float)
    return (np.exp(-(2.0 ** 0.25) * math.pi * np.sqrt(norm_a))
            * math.sqrt(abs(B_H_CONST)) * np.sqrt(norm_a))


# ------------------------------------------------------- closed-form pieces

def log_moment_s7(l):
    """log of the degree-2l moment integral over the seven-sphere (n = 1)."""
    _check_degree(1, l)
    return 4 * LOGPI + log_gamma(l + 1) + log_gamma(1.5) - LOG2 - log_gamma(l + 2.5)


def moment_s7(l):
    """Moment of ((|y0|^2-|y1|^2)^2 + 4 (y0.y1)^2)^l over S^7; pi^4/3 at l = 0."""
    return math.exp(log_moment_s7(l))


def log_i_coeff(n, l):
    """log I_l: normalized projective-space moment of |<P, A>|^(2l)."""
    _check_degree(n, l)
    return (-3 * l * LOG2 - LOG2 - 2 * LOGPI + (2 * n - 2) * LOGPI
            + log_gamma(2 * l + 4) - log_gamma(2 * l + 2 * n + 2) + log_moment_s7(l))


def i_coeff(n, l):
    return math.exp(log_i_coeff(n, l))


def _sphere_moment_mc(n, l, config):
    """MC mean over S^(4n+3) of ((|p0|^2 - |p1|^2)^2 + 4 (p0, p1)_E^2)^l, p = x/|x|.

    For x ~ N(0, I) the integrand reads |x0|^2 = c1, x0.x1 = sqrt(c1) z,
    |x1|^2 = z^2 + c2 and |x_rest|^2 = c3, independent z ~ N(0, 1), c1 ~ chi2_4,
    c2 ~ chi2_3, c3 ~ chi2_(4n-4) (Bartlett): the same variable in law.  Each
    chi-square is drawn as its exact sum of unit exponentials E and a normal z',
    c1 = 2 (E_1 + E_2), c2 = z'^2 + 2 E_3 and c3 = 2 (E_4 + ... + E_(2n+1)):
    a row is two normals (z, z') and 2n + 1 exponentials.
    """
    _check_degree(n, l)

    def integrand(z, e):
        c1 = 2.0 * (e[:, 0] + e[:, 1])
        s1 = z[:, 0] ** 2 + z[:, 1] ** 2 + 2.0 * e[:, 2]
        r2 = c1 + s1 + 2.0 * (e[:, 3:] @ np.ones(2 * n - 2))
        a, b = (c1 - s1) / r2, np.sqrt(c1) * z[:, 0] / r2
        return (a * a + 4.0 * b * b) ** l

    return _mc_blocks(integrand, config, (), 2, 2 * n + 1)


def i_coeff_mc(n, l, config):
    """MC oracle for I_l: the moment over the sphere S^(4n+3)."""
    return _sphere_moment_mc(n, l, config).scaled(vol_pnh(n) * (2.0 * math.sqrt(2.0)) ** (-2 * l))


def moment_s7_mc(l, config):
    """MC oracle for the S^7 moment itself."""
    return _sphere_moment_mc(1, l, config).scaled(vol_sphere(7))


def log_b_coeff(n, l):
    """log b_l, the squared-norm ratio of the eigenspace embedding.

    Gamma-product form of the assembled fiber integral (the defining
    integral fixes the normalization; see b_coeff_mc).
    """
    _check_degree(n, l)
    return (0.5 * math.log(A_H_CONST(n)) - 0.5 * n * LOG2 + (-4 * l - 3) * LOGPI
            - 2.0 * math.log(2 * l + 2 * n + 1)
            + 2 * log_gamma(l + 1) + 2 * log_gamma(l + 2)
            - log_gamma(l + n + 0.5) - log_gamma(l + n + 1)
            - log_gamma(l + 2 * n) - log_gamma(l + 2 * n + 1)
            + log_gamma(l + (6 * n + 2) / 4.0) + log_gamma(l + (6 * n + 3) / 4.0)
            + log_gamma(l + (6 * n + 4) / 4.0) + log_gamma(l + (6 * n + 5) / 4.0))


def b_coeff(n, l):
    return math.exp(log_b_coeff(n, l))


def log_radial_gg(n, k):
    """log of the radial fiber integral against the holomorphic-side weight
    for integrands of fiber homogeneity 2k (in the flat fiber coordinate)."""
    return (0.5 * math.log(A_H_CONST(n)) + 1.5 * (n + 1) * LOG2
            + log_gamma_radial(6 * n + 2 * k + 1, 4 * math.pi))


def b_coeff_semianalytic(n, l):
    """b_l assembled from I_l, the radial Gamma factor, volumes, and dim H_l."""
    logv = (log_i_coeff(n, l) + 3.0 * l * LOG2 + log_radial_gg(n, 2 * l)
            + math.log(vol_sphere(4 * n - 1)) + math.log(vol_pnh(n))
            - math.log(dim_eigenspace(n, l)))
    return math.exp(logv)


def _unit_covectors(frames, g):
    """Uniform unit vectors (N, 4m) orthogonal, row by row, to the orthonormal
    rows of frames (N, k, 4m), made from the normal draws g (N, 4m).

    The orbit frames of p give the horizontal covectors q at p, and the unit
    fiber point z = p + i q with beta(rho(z)) = tau_h(alpha(p, q)).  Only
    :func:`pairing_gg_mc` projects, as its base point moves every row (a
    basis per row would cost more); T and T~ draw in :func:`_fiber_basis`.
    """
    q = _project_out(frames, g)
    q /= np.sqrt(np.einsum("nj,nj->n", q, q))[:, None]
    return q


def _fiber_basis(x, tangent=False):
    """Orthonormal rows spanning the horizontal space at the unit base point
    x (4m,), 4m - 4 of them, or with ``tangent`` the tangent space of the
    sphere at x: x e_1, x e_2, x e_3 first, 4m - 1 rows.

    Quaternionic Gram-Schmidt with no LAPACK: the coordinate vector of each
    slot but x's largest, j, less its part along the orbit frames so far, is
    normalised and enters with its own orbit frame.  The squared pivots
    multiply to |x_j|^2 >= 1/m, so none is below 1/m.
    """
    pts = x.reshape(-1, 4)
    m, frames = len(pts), sp1_orbit_frame(pts).reshape(4, -1)
    for i in np.delete(np.arange(m), np.argmax((pts ** 2).sum(1))):
        v = -(frames[:, 4 * i] @ frames)
        v[4 * i] += 1.0
        frames = np.concatenate([frames, sp1_orbit_frame(v.reshape(m, 4) / math.sqrt(v @ v))
                                 .reshape(4, -1)])
    return frames[1 if tangent else 4:]


def _b_coeff_mc_scale(n, l):
    """The factor that turns b_coeff_mc's sphere mean into b_l."""
    return (math.exp(log_radial_gg(n, 2 * l)) * vol_pnh(n) ** 2 * vol_sphere(4 * n - 1)
            / dim_eigenspace(n, l))


def b_coeff_mc(n, l, config):
    """MC of the defining integral of b_l; radial direction exact.

    The integrand |<P(p), beta(rho(x + i q))>|^(2l) and the law of the
    sphere point p, the base point x and the unit horizontal covector q at x
    are Sp(n+1)-invariant.  Sp(n+1) moves every x to e_0, and Sp(n), the
    stabiliser of e_0, every unit horizontal q there to e_1 (e_0, e_1 the
    first two unit vectors of H^(n+1)); either motion
    keeps p uniform.  So the value at any (x, q) has the law it has at
    z_0 = e_0 + i e_1, that of |p^t M_0 p|^(2l) with p uniform and M_0 the
    form of beta(rho(z_0)) = tau_h(alpha(e_0, e_1)).  M_0 is
    [[I_4, i I_4], [i I_4, -I_4]] on the first two quaternions and 0 elsewhere,
    so |p^t M_0 p|^2 = (|p_0|^2 - |p_1|^2)^2 + 4 (p_0.p_1)^2: the integrand of
    the I_l sphere moment, drawn by :func:`_sphere_moment_mc`.  This fixes a
    point, it does not condition on one: the per-sample law is unchanged.
    """
    return _sphere_moment_mc(n, l, config).scaled(_b_coeff_mc_scale(n, l))


def log_a_coeff(n, l):
    """log a_l: the eigenvalue of the mixed-pairing operator composition."""
    _check_degree(n, l)
    return (0.5 * math.log(abs(B_H_CONST)) + 0.75 * LOG2 - (2 * l + 1.5) * LOGPI
            + log_gamma(l + 1) + log_gamma(l + 2) + log_gamma(l + 2 * n + 0.5)
            - math.log(2 * l + 2 * n + 1) - log_gamma(l + 2 * n))


def a_coeff(n, l):
    return math.exp(log_a_coeff(n, l))


def _fg_fiber_weight(n, radial):
    """The mixed-pairing weight integrated over a cotangent fiber against an
    integrand of sphere mean 1 and radial factor ``radial``:
    vol(S^(4n-1)) 2^(3/4) sqrt|b_H| radial, 2^(3/4) = |A|^(1/2) at |q| = 1."""
    return vol_sphere(4 * n - 1) * 2.0 ** 0.75 * math.sqrt(abs(B_H_CONST)) * radial


def a_coeff_semianalytic(n, l):
    """a_l from the diagonal fiber integral: Gamma factor x volumes / dim."""
    return _t_apply_scale(n, l) * vol_pnh(n) / dim_eigenspace(n, l)


def a_coeff_quadrature(n, l):
    """a_l with the radial factor by :func:`numerics.radial_quad`, as an oracle."""
    val, _ = radial_quad(2 * math.pi, 2 * l + 4 * n, 1e-12)
    return _fg_fiber_weight(n, val) * vol_pnh(n) / dim_eigenspace(n, l)


def log_c_coeff(n, l):
    """log c_l: the eigenvalue of the sphere-descended operator composition."""
    _check_degree(n, l)
    return (0.5 * math.log(abs(B_S_CONST)) + math.log(vol_pnh(n))
            - math.log(dim_eigenspace(n, l))
            + 0.5 * LOGPI - math.log(4.0) + math.log(vol_sphere(2)) + math.log(vol_sphere(4 * n - 1))
            - math.log(l + 2 * n + 0.5) + log_gamma(l + 2 * n) - log_gamma(l + 2 * n + 0.5)
            - 0.5 * LOG2 + log_gamma_radial(2 * l + 4 * n + 1.5, 2 * math.pi))


def c_coeff(n, l):
    return math.exp(log_c_coeff(n, l))


def c_coeff_quadrature(n, l):
    """c_l via quadrature of the cotangent-fiber integral.

    Radius x polar-angle reduction of the R^(4n+3) integral of
    (|x|^2 - r3^2)^l e^(-2 pi |x|) (2|x|)^(-1/2).  The integrand separates,
    r^(2l+4n+2) e^(-2 pi r) (2r)^(-1/2) times sin(phi)^(2l+4n-1) cos(phi)^2,
    so each factor is one 1-D double-exponential quadrature
    (:func:`numerics._de_quad`, exp-sinh and tanh-sinh): the step halves until
    two successive levels agree to 1e-11 relative.  The rule uses no Gamma
    function, so the oracle stays independent of the closed form.
    """
    tol = 1e-11
    radial, _ = radial_quad(2 * math.pi, 2 * l + 4 * n + 1.5, tol)
    radial /= math.sqrt(2.0)
    k = 2 * l + 4 * n - 1
    angular, _ = _de_quad(lambda phi: np.sin(phi) ** k * np.cos(phi) ** 2, 0.0, math.pi / 2.0, tol)
    lfactor = radial * angular * vol_sphere(2) * vol_sphere(4 * n - 1) * math.sqrt(abs(B_S_CONST))
    return lfactor * vol_pnh(n) / dim_eigenspace(n, l)


def log_c_over_a_expr(n, l):
    """The displayed closed form of c_l/a_l; tends to pi/2."""
    x = l + 2 * n
    return (0.5 * (math.log(abs(B_S_CONST)) - math.log(abs(B_H_CONST))) - 1.25 * LOG2
            + math.log(x + 0.25) + math.log(x + 0.75) - math.log(x) - math.log(x + 0.5)
            + log_gamma(x + 0.25) + log_gamma(x + 0.75) - 2.0 * log_gamma(x + 0.5))


def c_over_a_expr(n, l):
    return math.exp(log_c_over_a_expr(n, l))


def c_over_a(n, l):
    """Ratio c_l/a_l evaluated in log space (safe for very large l)."""
    return math.exp(log_c_coeff(n, l) - log_a_coeff(n, l))


def c_over_a_limit():
    """Prefactor limit sqrt(|b_S|/|b_H|) 2^(-5/4) = pi/2 exactly."""
    return math.sqrt(abs(B_S_CONST) / abs(B_H_CONST)) * 2.0 ** (-1.25)


# ------------------------------------------------------------ operator norm

def t_norm(n, l):
    """Norm of the quantization operator on the degree-l subspace, a_l/sqrt(b_l)."""
    return math.exp(log_a_coeff(n, l) - 0.5 * log_b_coeff(n, l))


def t_norm_gamma_part(n, l):
    """The Gamma-ratio factor of the closed operator-norm expression; -> 1."""
    s = (log_gamma(l + n + 0.5) + log_gamma(l + n + 1)
         + log_gamma(l + 2 * n) + log_gamma(l + 2 * n + 1)
         - log_gamma(l + (6 * n + 2) / 4.0) - log_gamma(l + (6 * n + 3) / 4.0)
         - log_gamma(l + (6 * n + 4) / 4.0) - log_gamma(l + (6 * n + 5) / 4.0))
    return math.exp(log_gamma(l + 2 * n + 0.5) - log_gamma(l + 2 * n) + 0.5 * s)


def t_norm_prefactor(n, quarter_power_shift=3):
    """sqrt|b_H| / |a_H|^(1/4) x 2^((n + shift)/4).

    With shift 3 this equals a_l/sqrt(b_l) / gamma_part identically (the
    defining-integral normalization) and evaluates to 2/pi for every n;
    with shift 1 it is the printed variant sqrt(2)/pi.
    """
    return (math.sqrt(abs(B_H_CONST)) / A_H_CONST(n) ** 0.25
            * 2.0 ** ((n + quarter_power_shift) / 4.0))


def t_norm_limit(n):
    """Numerical l -> infinity limit of the operator norm: t_norm at l = 10^6
    (log-gamma route)."""
    return t_norm(n, 10 ** 6)


# ------------------------------------------------------- operators T, T~

def _t_apply_scale(n, degree):
    """Angular-MC scale for the mixed-weight fiber integral at homogeneity 2*degree."""
    return _fg_fiber_weight(n, gamma_radial(2 * degree + 4 * n, 2 * math.pi))


def _base_point(phi, p_prime):
    """p_prime as a flat unit vector (4n+4,), n = phi.n; a ValueError names a
    shape other than (n+1, 4) or (4n+4,), or the residual of (p,p)_E = 1."""
    x = np.asarray(p_prime, dtype=float)
    if x.shape not in ((phi.n + 1, 4), (4 * phi.n + 4,)):
        raise ValueError(f"base point must have shape ({phi.n + 1}, 4) or ({4 * phi.n + 4},) "
                         f"at n = {phi.n}, got {x.shape}")
    resid = abs(np.vdot(x, x) - 1.0)
    _refuse(_first_failure([("(p,p)_E = 1", resid, resid <= EQ_TOL)]), "base point")
    return x.ravel()


def _kappa1(d):
    """kappa_1 = 8 / (d (d + 2)), the factor the sphere mean over S^(d-1)
    puts on a degree-one pairing at a fiber point (see _fiber_apply)."""
    return 8.0 / (d * (d + 2))


def _fiber_apply(phi, x, basis, config):
    """Unscaled MC of phi(p) <P(p), A-hat>^l over sphere points p and unit
    fiber points z = x + i y at the fixed base point x (4m,), conditioned on
    z: y = g C, g uniform on S^(k-1) (k variates a row) and C = ``basis``
    (k, 4m) orthonormal rows, so y is uniform on their span's unit sphere.
    At l = 0 every row is the constant sum c_j and nothing is drawn.

    Given z the mean over p is exact, sum_j c_j sphere_moment(M_j, M-hat(z),
    l, l), M_j the forms of phi and p^t M-hat(z) p the pairing.  At l <= 1 it
    is kappa_l phi(z), kappa_l = (8/(d(d+2)))^l, d = 4m: by Wick's fourth
    moment it is (tr M_j tr M-hat + 2 tr(M_j M-hat)) / (d(d+2)) at l = 1,
    where tr M-hat(z) = 4 z^t z = 0 and, every form being invariant under
    p -> p e_k, tr(M_j M-hat(z)) = 4 z^t M_j z.  At l = 1 the form M =
    sum_j c_j M_j (times kappa_1) is restricted to the fiber once per call,
    z^t M z = x^t M x - g^t (C M C^t) g + 2i g.(C M x).  Above, M-hat(z) =
    W W^t with column k of W the orbit frame z e_k.
    """
    if phi.l == 0:  # a (rows, 0) normal draw consumes no variates and carries the row count
        return _mc_blocks(phi._eval, config, (), 0)
    l, coeffs, xframe = phi.l, np.asarray(phi.coeffs), _orbit_frames(x[None])
    if l == 1:  # kappa_1 M restricted to the fiber
        form = _kappa1(x.size) * np.tensordot(coeffs, phi._forms, 1)
        cm = basis @ form
        restricted, cmx = cm @ basis.T, 2.0 * (cm @ x)
        xmx, stack = x @ form @ x, np.stack([restricted.real, restricted.imag])
        cross = np.stack([-cmx.imag, cmx.real], axis=1)  # g @ cross: 2i g.(C M x) as (re, im)

    def integrand(g):
        if l == 1:  # the einsum is not contiguous, so the difference makes the complex view
            return xmx + (g @ cross - _quad_forms(stack, g)).view(complex)[:, 0]
        w = np.swapaxes(xframe + 1j * _orbit_frames(g @ basis), -1, -2)
        return coeffs @ sphere_moment(phi._forms[:, None], w, l, l, factor=True)

    return _mc_blocks(integrand, config, (len(basis) - 1,))


def t_apply_eigenfunction(phi, p_prime, config, flow_t=None):
    """T applied to the eigenspace embedding of phi, at the base point of p_prime.

    Evaluates the double integral (base x fiber) as MC over the unit fiber
    points, with the sphere integral (:func:`_fiber_apply`) and the radial
    direction exact.  With ``flow_t`` the integrand is composed with the
    classical flow A -> e^(-2it) A, which multiplies the pairing's l-th power
    by the constant e^(-2itl), and the half-density phase e^(-it(2n+1)) is
    attached.  p_prime is a unit vector, (n+1, 4) or flat.
    """
    n, l = phi.n, phi.l
    x = _base_point(phi, p_prime)
    phase = (1.0 if flow_t is None
             else np.exp(-2j * flow_t) ** l * np.exp(-1j * flow_t * (2 * n + 1)))
    est = _fiber_apply(phi, x, _fiber_basis(x), config)
    return est.scaled(_t_apply_scale(n, l) * vol_pnh(n) * phase)


def t_tilde_apply_eigenfunction(phi, p_prime, config):
    """The sphere-descended operator applied to the eigenspace embedding: the
    fiber covectors q range over the whole unit sphere orthogonal to p_prime,
    a unit vector (n+1, 4) or flat, drawn in its tangent basis."""
    n, l = phi.n, phi.l
    x = _base_point(phi, p_prime)
    scale = (vol_pnh(n) * vol_sphere(4 * n + 2) * math.sqrt(abs(B_S_CONST))
             * 2.0 ** -0.5 * gamma_radial(2 * l + 4 * n + 1.5, 2 * math.pi))
    return _fiber_apply(phi, x, _fiber_basis(x, tangent=True), config).scaled(scale)


# ----------------------------------------------------------- flow identity

def flow_commutation_scalar(n, l, t):
    """|e^(-it(2l+2n+1)) - e^(-it sqrt(lambda_l + (2n+1)^2))|, exactly zero."""
    lhs = np.exp(-1j * t * (2 * l + 2 * n + 1))
    rhs = np.exp(-1j * t * math.sqrt(eigenvalue(n, l) + (2 * n + 1) ** 2))
    return abs(lhs - rhs)


def flow_commutation_operator_check(phi, p_prime, t, config):
    """Residual of T(sigma_t^* f) = e^(-it(2l+2n+1)) T(f) at one base point."""
    n, l = phi.n, phi.l
    flowed = t_apply_eigenfunction(phi, p_prime, config, flow_t=t)
    plain = t_apply_eigenfunction(phi, p_prime, config)
    target = np.exp(-1j * t * (2 * l + 2 * n + 1)) * plain.value
    denom = max(abs(target), 1e-12)
    resid = abs(flowed.value - target) / denom
    stderr = (flowed.stderr + plain.stderr) / denom
    return resid, stderr


# ------------------------------------------------------------------ kernel

def log_kernel_term(n, l, norm_a):
    """log of the diagonal kernel term I_l |A|^(2l) / b_l."""
    return log_i_coeff(n, l) + 2 * l * math.log(norm_a) - log_b_coeff(n, l)


def kernel_diag(n, norm_a):
    """Diagonal R(A, A) = sum_l t_l, t_l = I_l |A|^(2l) / b_l, with its proven tail
    bound: returns (value, tail_bound), the value exact to rounding.

    With y = pi^4 |A|^2 / 8 the term ratio is
        r(l) = y (l+2n)(l+2n+1)(l+n+3/2)
               / [(l+1)(l+2)(l+n+1/2) prod_{j=2..5} (l+(6n+j)/4)].
    Each (l+a)/(l+b) with a > b falls, and so does the reciprocal product, so r
    strictly decreases: once t_L < t_(L-1), sum_{l>=L} t_l <= t_L / (1 - r(L-1)).
    The sum stops at the first such L where that bound is at most half an ulp of
    sum_{l<L} t_l.  Raises ValueError for a norm that is not positive and finite,
    and as soon as the terms could sum past the largest float.
    """
    if not 0.0 < norm_a < math.inf:
        raise ValueError(f"need a positive finite matrix norm, got {norm_a}")
    logs, terms = [], []
    while True:
        logs.append(log_kernel_term(n, len(logs), norm_a))
        if (top := max(logs)) + math.log(len(logs)) > LOG_FLOAT_MAX:  # sum <= e^top * count
            raise ValueError(f"kernel term l = {logs.index(top)} has log {top:.1f}; the sum of "
                             f"{len(logs)} terms could pass the largest float, e^{LOG_FLOAT_MAX:.1f}")
        if len(logs) > 1 and (step := logs[-1] - logs[-2]) < 0.0:
            value, tail = math.fsum(terms), math.exp(logs[-1]) / -math.expm1(step)
            if tail <= 0.5 * math.ulp(value):
                return value, tail
        terms.append(math.exp(logs[-1]))


def pairing_gg_mc(fa, fb, config):
    """MC of the weighted holomorphic pairing <fa, fb> of two eigenspace
    functions (HlFunction) on PnH with n = fa.n, or of two sums over degrees,
    tuples of HlFunctions.

    The (l, l') term fa_l(A) conj(fb_l'(A)) has flat-coordinate homogeneity
    2 (l + l') and takes the radial integral log_radial_gg(n, l + l').  Each row
    block of a chunk forms its unit fiber points z = x + i q once, standing for
    A-hat = beta(rho(z)), and evaluates each function there once; so a
    self-pairing evaluates fa once.
    """
    fa, fb = (f if isinstance(f, tuple) else (f,) for f in (fa, fb))
    n = fa[0].n
    if any(f.n != n for f in fa + fb):
        raise ValueError(f"need functions of one n, got n = {sorted({f.n for f in fa + fb})}")
    # the first term's radial factor scales the mean, so one pair rounds as one term did
    ref = log_radial_gg(n, fa[0].l + fb[0].l)
    terms = [(a, b, math.exp(log_radial_gg(n, a.l + b.l) - ref)) for a in fa for b in fb]

    def integrand(base, g):
        z = np.empty(base.shape, complex)  # one allocation: z.real, z.imag set in place
        z.real, z.imag = base, _unit_covectors(_orbit_frames(base), g)
        vals = {id(f): f._eval(z) for f in fa + fb}
        return sum(w * vals[id(a)] * np.conj(vals[id(b)]) for a, b, w in terms)

    scale = math.exp(ref) * vol_pnh(n) * vol_sphere(4 * n - 1)
    return _mc_blocks(integrand, config, (4 * n + 3,), 4 * n + 4).scaled(scale)


def orthogonality_check(n, l, lp, config, rng):
    """Pairing between degree-l and degree-l' generators beta(tau_s(x)); -> 0 for l != l'."""
    pts = [random_es0(n, 1.0, rng) for _ in range(2)]
    a1, a2 = (beta_blocks(_tau_s_core(pt.p, pt.q)) for pt in pts)
    return pairing_gg_mc(HlFunction(n=n, l=l, amats=(a1,), coeffs=(1.0,)),
                         HlFunction(n=n, l=lp, amats=(a2,), coeffs=(1.0,)), config)


def _kernel_test_function(c0, phi1_amats, phi1_coeffs, a_prime, n):
    """A' as a complex array, the linear part f1 of f = c0 + f1, and f(A')."""
    a_prime = np.asarray(a_prime, dtype=complex)
    f1 = HlFunction(n=n, l=1, amats=tuple(phi1_amats), coeffs=tuple(phi1_coeffs))
    return a_prime, f1, complex(c0) + f1.eval_amatrix(a_prime)


def kernel_reproduce_check(c0, phi1_amats, phi1_coeffs, a_prime, n, config):
    """Verify f(A') = <f, R(., A')> for f = c0 + sum c_k <., A_k>: one weighted
    pairing (:func:`pairing_gg_mc`) of f with the degree <= 1 kernel terms.

    Given the fiber point z, the l-th term is the sphere mean of
    <P(p), A-hat(z)>^l conj<P(p), A'>^l / b_l, which at l <= 1 is
    kappa_l <z, quat_conj_c(A')>^l / b_l (:func:`_fiber_apply`; the form
    of quat_conj_c(A') is conj(M'), M' that of A').  Returns (f_value,
    reconstruction MCEstimate).
    """
    a_prime, f1, f_at_aprime = _kernel_test_function(c0, phi1_amats, phi1_coeffs, a_prime, n)
    kappa = _kappa1(4 * n + 4)
    f = (HlFunction(n=n, l=0, amats=(a_prime,), coeffs=(complex(c0),)), f1)
    r = tuple(HlFunction(n=n, l=l, amats=(quat_conj_c(a_prime),),
                         coeffs=(kappa ** l / b_coeff(n, l),)) for l in (0, 1))
    return f_at_aprime, pairing_gg_mc(f, r, config).scaled(vol_pnh(n))


def kernel_norm_bound_check(c0, phi1_amats, phi1_coeffs, a_prime, n, config):
    """Check |f(A')| <= sqrt(R(A', A')) ||f|| for f = c0 + linear part."""
    a_prime, f1, f_at_aprime = _kernel_test_function(c0, phi1_amats, phi1_coeffs, a_prime, n)
    diag, _ = kernel_diag(n, fro_norm(a_prime))

    norm1_sq = pairing_gg_mc(f1, f1, config)
    norm0_sq = abs(c0) ** 2 * b_coeff(n, 0) / vol_pnh(n)
    fnorm_sq = norm0_sq + norm1_sq.value.real
    bound = math.sqrt(diag) * math.sqrt(max(fnorm_sq, 0.0))
    return abs(f_at_aprime), bound, 3.0 * math.sqrt(diag) * norm1_sq.stderr


# ------------------------------------------------------------------- table

@dataclass(frozen=True)
class ConstantsRow:
    """One row of the quantization-constants table."""

    n: int
    l: int
    i_coeff: float
    b_coeff: float
    a_coeff: float
    c_coeff: float
    t_norm: float
    ratio_c_over_a: float

    def as_dict(self):
        return {"n": self.n, "l": self.l, "I_l": self.i_coeff, "b_l": self.b_coeff,
                "a_l": self.a_coeff, "c_l": self.c_coeff, "T_norm": self.t_norm,
                "c_over_a": self.ratio_c_over_a}


def constants_table(n, l_values):
    """One row per l; raises ValueError at the first l whose constants leave
    the double range."""
    rows = []
    for l in l_values:
        try:
            a_l, c_l = a_coeff(n, l), c_coeff(n, l)
            rows.append(ConstantsRow(
                n=n, l=l,
                i_coeff=i_coeff(n, l),
                b_coeff=b_coeff(n, l),
                a_coeff=a_l,
                c_coeff=c_l,
                t_norm=t_norm(n, l),
                ratio_c_over_a=c_l / a_l,
            ))
        except OverflowError:
            raise ValueError(f"the constants at n={n}, l={l} overflow the double range") from None
    return rows
