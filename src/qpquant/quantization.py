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

from .algebra import fro_norm
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
from .spaces import _orbit_frame_matrix, _orbit_frames, _project_out, _tau_h_core, random_eh
from .spectral import (HlFunction, _pair_projector_fiber, dim_eigenspace, eigenvalue,
                       quad_form_matrix)

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
    """log of the degree-2l moment integral over the seven-sphere."""
    return 4 * LOGPI + log_gamma(l + 1) + log_gamma(1.5) - LOG2 - log_gamma(l + 2.5)


def moment_s7(l):
    """Moment of ((|y0|^2-|y1|^2)^2 + 4 (y0.y1)^2)^l over S^7; pi^4/3 at l = 0."""
    return math.exp(log_moment_s7(l))


def log_i_coeff(n, l):
    """log I_l: normalized projective-space moment of |<P, A>|^(2l)."""
    if n < 1 or l < 0:
        raise ValueError("need n >= 1 and l >= 0")
    return (-3 * l * LOG2 - LOG2 - 2 * LOGPI + (2 * n - 2) * LOGPI
            + log_gamma(2 * l + 4) - log_gamma(2 * l + 2 * n + 2) + log_moment_s7(l))


def i_coeff(n, l):
    return math.exp(log_i_coeff(n, l))


def _sphere_moment_mc(n, l, config):
    """MC mean over S^(4n+3) of ((|p0|^2 - |p1|^2)^2 + 4 (p0, p1)_E^2)^l, p = x/|x|.

    For x ~ N(0, I) the integrand reads |x0|^2 = c1, x0.x1 = sqrt(c1) z,
    |x1|^2 = z^2 + c2 and |x_rest|^2 = c3, independent z ~ N(0, 1), c1 ~ chi2_4,
    c2 ~ chi2_3, c3 ~ chi2_(4n-4) (Bartlett): the same variable in law.
    """
    def integrand(z, c1, c2, c3=0.0):
        s1 = z[:, 0] ** 2 + c2
        r2 = c1 + s1 + c3
        a, b = (c1 - s1) / r2, np.sqrt(c1) * z[:, 0] / r2
        return (a * a + 4.0 * b * b) ** l

    return _mc_blocks(integrand, config, (), 1, (4, 3) + ((4 * n - 4,) if n > 1 else ()))


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
    if n < 1 or l < 0:
        raise ValueError("need n >= 1 and l >= 0")
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
    """Uniform unit vectors (N, 4m) orthogonal to the orthonormal rows of
    frames, (N, k, 4m) row by row or (k, 4m) for every row, made from the
    normal draws g (N, 4m).

    The orbit frames of p give the horizontal covectors q at p, and the unit
    fiber point z = p + i q with beta(rho(z)) = tau_h(alpha(p, q)); p alone
    gives the whole cotangent sphere.
    """
    q = _project_out(frames, g)
    q /= np.sqrt(np.einsum("nj,nj->n", q, q))[:, None]
    return q


def _b_coeff_mc_scale(n, l):
    """The factor that turns b_coeff_mc's sphere mean into b_l."""
    return (math.exp(log_radial_gg(n, 2 * l)) * vol_pnh(n) ** 2 * vol_sphere(4 * n - 1)
            / dim_eigenspace(n, l))


def b_coeff_mc(n, l, config):
    """MC of the defining integral of b_l; radial direction exact.

    The integrand |<P(p), beta(rho(x + i q))>|^(2l) and the law of the
    sphere point p, the base point x and the unit horizontal covector q at x
    are Sp(n+1)-invariant, and Sp(n+1) moves every x to x0 = e_0.  So x is
    fixed at x0, where the horizontal covectors are q = (0, g/|g|),
    g ~ N(0, I_4n): the same per-sample law, from a sphere point and 4n
    normals a row.
    """
    m = n + 1
    x0 = np.eye(4 * m)[0]

    def integrand(pts, g):
        q = np.zeros((len(g), 4 * m))
        q[:, 4:] = g / np.sqrt(np.einsum("nj,nj->n", g, g))[:, None]
        return np.abs(_pair_projector_fiber(pts, x0, q)) ** (2 * l)

    return _mc_blocks(integrand, config, (4 * m - 1,), 4 * n).scaled(_b_coeff_mc_scale(n, l))


def log_a_coeff(n, l):
    """log a_l: the eigenvalue of the mixed-pairing operator composition."""
    if n < 1 or l < 0:
        raise ValueError("need n >= 1 and l >= 0")
    return (0.5 * math.log(abs(B_H_CONST)) + 0.75 * LOG2 - (2 * l + 1.5) * LOGPI
            + log_gamma(l + 1) + log_gamma(l + 2) + log_gamma(l + 2 * n + 0.5)
            - math.log(2 * l + 2 * n + 1) - log_gamma(l + 2 * n))


def a_coeff(n, l):
    return math.exp(log_a_coeff(n, l))


def a_coeff_semianalytic(n, l):
    """a_l from the diagonal fiber integral: Gamma factor x volumes / dim."""
    logv = (0.75 * LOG2 + log_gamma_radial(2 * l + 4 * n, 2 * math.pi)
            + math.log(vol_sphere(4 * n - 1)) + math.log(vol_pnh(n))
            + 0.5 * math.log(abs(B_H_CONST)) - math.log(dim_eigenspace(n, l)))
    return math.exp(logv)


def a_coeff_quadrature(n, l):
    """a_l with the radial factor by :func:`numerics.radial_quad`, as an oracle."""
    val, _ = radial_quad(2 * math.pi, 2 * l + 4 * n, 1e-12)
    return (2.0 * math.sqrt(2.0)) ** 0.5 * val * vol_sphere(4 * n - 1) * vol_pnh(n) \
        * math.sqrt(abs(B_H_CONST)) / dim_eigenspace(n, l)


def log_c_coeff(n, l):
    """log c_l: the eigenvalue of the sphere-descended operator composition."""
    if n < 1 or l < 0:
        raise ValueError("need n >= 1 and l >= 0")
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
    return (vol_sphere(4 * n - 1) * 2.0 ** 0.75 * math.sqrt(abs(B_H_CONST))
            * gamma_radial(2 * degree + 4 * n, 2 * math.pi))


def _fiber_factor(x, y):
    """W (N, 4m, 4) with W W^t = M-hat(z) at fiber points z = x + i y, x one
    real point (4m,) or (N, 4m), y real (N, 4m): column k is E_k z, E_k the
    k-th block of the orbit-frame matrix, so p^t M-hat(z) p =
    sum_k ((p e_k).z)^2 = <P(p), beta(rho(z))>_C."""
    d = y.shape[-1]
    frame = _orbit_frame_matrix(d // 4).reshape(4 * d, d).T
    return (x @ frame + 1j * (y @ frame)).reshape(len(y), d, 4)


def _moment_form(forms, coeffs):
    """K (4m, 4m) with z^t K z = sum_j c_j sphere_moment(M_j, M-hat(z), 1, 1)
    for every z: the moment is linear in its second form, and M-hat(z) =
    sum_ab z_a z_b S_ab with S_ab = sum_k (E_k e_a)(E_k e_b)^t, so K_ab is the
    moment taken at S_ab, symmetrised."""
    d = forms.shape[-1]
    e = _orbit_frame_matrix(d // 4).reshape(d, 4, d)
    s = np.einsum("ika,jkb->abij", e, e)
    s = 0.5 * (s + np.swapaxes(s, 0, 1))
    return (np.asarray(coeffs) @ sphere_moment(forms[:, None], s.reshape(d * d, d, d), 1, 1)
            ).reshape(d, d)


def _fiber_quad(x, y, k):
    """z^t K z at fiber points z = x + i y for one complex symmetric K
    (4m, 4m), x one real point (4m,) or (N, 4m), y real (N, 4m), from real
    products alone."""
    d = k.shape[-1]
    parts = np.concatenate([k.real, k.imag], axis=1)
    kx, ky = x @ parts, y @ parts

    def dot(u, v):
        return (np.einsum("...j,...j->...", u[..., :d], v)
                + 1j * np.einsum("...j,...j->...", u[..., d:], v))

    return dot(kx, x) - dot(ky, y) + 2j * dot(ky, x)


def _fiber_apply(phi, x, frame, config, rotation=1.0):
    """Unscaled MC of phi(p) (rotation <P(p), A-hat>)^l over sphere points p
    and unit fiber points z = x + i q at the fixed base point x (4m,), q
    orthogonal to the rows of ``frame``, conditioned on z.

    Given z the mean over p is exact, sum_j c_j sphere_moment(M_j, M-hat(z),
    l, l), M_j the forms of phi and p^t M-hat(z) p the pairing, so a row
    draws q alone.  At l = 1 it is z^t K z, K built once per call.
    """
    m, l = phi.n + 1, phi.l
    if l == 1:
        kform = _moment_form(phi._forms, phi.coeffs)

        def sphere_mean(y):
            return _fiber_quad(x, y, kform)
    else:
        coeffs = np.asarray(phi.coeffs)

        def sphere_mean(y):
            return coeffs @ sphere_moment(phi._forms[:, None], _fiber_factor(x, y), l, l,
                                          factor=True)

    def integrand(g):
        return rotation ** l * sphere_mean(_unit_covectors(frame, g))

    return _mc_blocks(integrand, config, (), 4 * m)


def t_apply_eigenfunction(phi, p_prime, config, flow_t=None):
    """T applied to the eigenspace embedding of phi, at the base point of p_prime.

    Evaluates the double integral (base x fiber) as MC over the unit fiber
    points, with the sphere integral (:func:`_fiber_apply`) and the radial
    direction exact.  With ``flow_t`` the integrand is composed
    with the classical flow A -> e^(-2it) A, which multiplies the pairing
    by e^(-2it), and the half-density phase e^(-it(2n+1)) is attached.
    """
    n = phi.n
    x = np.asarray(p_prime, dtype=float).ravel()
    rotation, phase = 1.0, 1.0 + 0.0j
    if flow_t is not None:
        rotation = np.exp(-2j * flow_t)
        phase = np.exp(-1j * flow_t * (2 * n + 1))
    est = _fiber_apply(phi, x, _orbit_frames(x[None])[0], config, rotation)
    return est.scaled(_t_apply_scale(n, phi.l) * vol_pnh(n) * phase)


def t_tilde_apply_eigenfunction(phi, p_prime, config):
    """The sphere-descended operator applied to the eigenspace embedding: the
    fiber covectors q range over the whole sphere orthogonal to p_prime."""
    n, l = phi.n, phi.l
    x = np.asarray(p_prime, dtype=float).ravel()
    scale = (vol_pnh(n) * vol_sphere(4 * n + 2) * math.sqrt(abs(B_S_CONST))
             * 2.0 ** -0.5 * gamma_radial(2 * l + 4 * n + 1.5, 2 * math.pi))
    return _fiber_apply(phi, x, x[None], config).scaled(scale)


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
    functions (HlFunction) on PnH with n = fa.n.

    The integrand fa(A) conj(fb(A)) has flat-coordinate homogeneity
    2 (fa.l + fb.l); both are evaluated at unit fiber points z, standing
    for A-hat = beta(rho(z)), one row block of a chunk at a time.
    """
    n = fa.n
    m = n + 1

    def integrand(base, g):
        z = (base + 1j * _unit_covectors(_orbit_frames(base), g)).reshape(-1, m, 4)
        return fa.eval_sphere(z) * np.conj(fb.eval_sphere(z))

    scale = math.exp(log_radial_gg(n, fa.l + fb.l)) * vol_pnh(n) * vol_sphere(4 * n - 1)
    return _mc_blocks(integrand, config, (4 * m - 1,), 4 * m).scaled(scale)


def orthogonality_check(n, l, lp, config, rng):
    """Pairing between degree-l and degree-l' generators; -> 0 for l != l'."""
    cps = [random_eh(n, math.sqrt(2.0), rng) for _ in range(2)]
    a1, a2 = (_tau_h_core(cp.P, cp.Q) for cp in cps)
    return pairing_gg_mc(HlFunction(n=n, l=l, amats=(a1,), coeffs=(1.0,)),
                         HlFunction(n=n, l=lp, amats=(a2,), coeffs=(1.0,)), config)


def _kernel_test_function(c0, phi1_amats, phi1_coeffs, a_prime, n):
    """A' as a complex array, the linear part f1 of f = c0 + f1, and f(A')."""
    a_prime = np.asarray(a_prime, dtype=complex)
    f1 = HlFunction(n=n, l=1, amats=tuple(phi1_amats), coeffs=tuple(phi1_coeffs))
    return a_prime, f1, complex(c0) + f1.eval_amatrix(a_prime)


def kernel_reproduce_check(c0, phi1_amats, phi1_coeffs, a_prime, n, config):
    """Verify f(A') = <f, R(., A')> for f = c0 + sum c_k <., A_k> by MC over
    unit fiber points z = x + i q, x the base point and q horizontal at x.

    The sphere integral of the l = 1 core conj<P(p), A-hat> <P(p), A'> is
    exact given z: sphere_moment(M', M-hat(conj z), 1, 1) = conj(z)^t K' conj(z),
    M' = quad_form_matrix(A').  Returns (f_value, reconstruction MCEstimate).
    """
    a_prime, f1, f_at_aprime = _kernel_test_function(c0, phi1_amats, phi1_coeffs, a_prime, n)
    m = n + 1
    kform = _moment_form(quad_form_matrix(a_prime)[None], (1.0,))
    fconst = complex(c0)
    inv_b = [math.exp(-log_b_coeff(n, 0)), math.exp(-log_b_coeff(n, 1))]
    radial = [math.exp(log_radial_gg(n, k)) for k in range(3)]

    def integrand(base, g):
        y = _unit_covectors(_orbit_frames(base), g)
        fquad = f1.eval_sphere((base + 1j * y).reshape(-1, m, 4))    # homogeneity-2 part of f
        # l = 0 term: (1/b_0) [ const part at homog 0 + linear part at homog 2 ]
        out = inv_b[0] * (fconst * radial[0] + fquad * radial[1])
        # l = 1 term: E_p conj<P, A-hat> <P, A'> against both parts of f
        core = _fiber_quad(base, -y, kform)
        return out + inv_b[1] * (fconst * core * radial[1] + fquad * core * radial[2])

    est = _mc_blocks(integrand, config, (4 * m - 1,), 4 * m)
    return f_at_aprime, est.scaled(vol_pnh(n) ** 2 * vol_sphere(4 * n - 1))


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
