"""Quantization constants, the pairing operators, and the reproducing kernel.

Every closed-form constant is a Gamma product assembled in log space, and
every one of them is paired with an independent oracle: a 1-D or a
separable 2-D quadrature, or an angular Monte Carlo estimate with the radial direction
integrated exactly (all radial factors are Gamma integrals).

The volume-form constants recovered in :mod:`qpquant.geometry` enter the
weights only through fixed scalars; they are pinned here as module
constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .algebra import fro_norm
from .numerics import (
    _blockwise,
    gamma_radial,
    log_gamma,
    log_gamma_radial,
    mc_mean,
    radial_quad,
    sphere_uniform,
    vol_sphere,
)
from .spaces import _orbit_frames, _project_out, random_eh, tau_h
from .spectral import HlFunction, _pair_projector_fiber, dim_eigenspace, eigenvalue

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
    "sphere_moment_integrand",
    "t_apply_eigenfunction",
    "t_norm",
    "t_norm_gamma_part",
    "t_norm_limit",
    "t_norm_prefactor",
    "t_tilde_apply_eigenfunction",
    "vol_pnh",
    "weight_pair_fg",
    "weight_pair_gg",
    "weight_sphere",
]

LOG2 = math.log(2.0)
LOGPI = math.log(math.pi)

# volume-form ratio constants (see geometry.recover_constants for the
# numerical recovery): sigma wedge conj(sigma) and pullback-volume ratios
A_S_CONST = -1j
B_S_CONST = 1j
DET_THETA_CONST = 0.125
B_H_CONST = -1.0 / (math.sqrt(2.0) * math.pi ** 2)


def A_H_CONST(n):
    """Holomorphic-volume ratio constant on the cotangent model, 2^(n-2)."""
    return 2.0 ** (n - 2)


def vol_pnh(n):
    """Riemannian volume of the quaternion projective space, pi^2n/(2n+1)!."""
    return math.exp(2 * n * LOGPI - log_gamma(2 * n + 2))


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


def weight_sphere(norm_b):
    """Sphere-side pairing weight e^(-pi |B|) sqrt|b_S| |B|^(-1/2)."""
    norm_b = np.asarray(norm_b, dtype=float)
    return np.exp(-math.pi * norm_b) * math.sqrt(abs(B_S_CONST)) / np.sqrt(norm_b)


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


def sphere_moment_integrand(pts):
    """((|p0|^2 - |p1|^2)^2 + 4 (p0, p1)_E^2) for flat sphere samples."""
    p0 = pts[:, 0:4]
    p1 = pts[:, 4:8]
    a = np.einsum("ni,ni->n", p0, p0) - np.einsum("ni,ni->n", p1, p1)
    b = np.einsum("ni,ni->n", p0, p1)
    return a * a + 4.0 * b * b


def i_coeff_mc(n, l, config):
    """MC oracle for I_l via uniform sphere samples."""
    m = n + 1

    def batch(rng, size):
        return _blockwise(lambda pts: sphere_moment_integrand(pts) ** l,
                          sphere_uniform(4 * m - 1, rng, size=size))

    return mc_mean(batch, config).scaled(vol_pnh(n) * (2.0 * math.sqrt(2.0)) ** (-2 * l))


def moment_s7_mc(l, config):
    """MC oracle for the S^7 moment itself."""
    def batch(rng, size):
        return _blockwise(lambda pts: sphere_moment_integrand(pts) ** l,
                          sphere_uniform(7, rng, size=size))

    return mc_mean(batch, config).scaled(vol_sphere(7))


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


def b_coeff_mc(n, l, config):
    """MC of the defining integral of b_l; radial direction exact."""
    m = n + 1
    dim = dim_eigenspace(n, l)

    def integrand(pts, base, g):
        pair = _pair_projector_fiber(pts, base, _unit_covectors(_orbit_frames(base), g))
        return np.abs(pair) ** (2 * l)

    def batch(rng, size):
        pts = sphere_uniform(4 * m - 1, rng, size=size)
        base = sphere_uniform(4 * m - 1, rng, size=size)
        return _blockwise(integrand, pts, base, rng.standard_normal((size, 4 * m)))

    scale = math.exp(log_radial_gg(n, 2 * l)) * vol_pnh(n) ** 2 * vol_sphere(4 * n - 1) / dim
    return mc_mean(batch, config).scaled(scale)


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
    """a_l with the radial factor done by adaptive quadrature, as an oracle."""
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
    """c_l via adaptive quadrature of the cotangent-fiber integral.

    Radius x polar-angle reduction of the R^(4n+3) integral of
    (|x|^2 - r3^2)^l e^(-2 pi |x|) (2|x|)^(-1/2).  The integrand separates,
    r^(2l+4n+2) e^(-2 pi r) (2r)^(-1/2) times sin(phi)^(2l+4n-1) cos(phi)^2,
    so each factor is one 1-D adaptive quadrature.
    """
    tol = 1e-11
    radial, _ = radial_quad(2 * math.pi, 2 * l + 4 * n + 1.5, tol)
    radial /= math.sqrt(2.0)
    angular, _ = integrate.quad(
        lambda phi: math.sin(phi) ** (2 * l + 4 * n - 1) * math.cos(phi) ** 2,
        0.0, math.pi / 2.0, epsabs=0.0, epsrel=tol, limit=200)
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


def _fiber_apply(phi, x, frame, config, rotation=None):
    """Unscaled joint MC of phi(p) <P(p), A-hat>^l over sphere points p and
    unit fiber points z = x + i q at the fixed base point x (4m,), q
    orthogonal to the rows of ``frame``; ``rotation`` multiplies the pairing."""
    m = phi.n + 1

    def integrand(pts, g):
        pair = _pair_projector_fiber(pts, x, _unit_covectors(frame, g))
        if rotation is not None:
            pair = rotation * pair
        return phi.eval_sphere(pts.reshape(-1, m, 4)) * pair ** phi.l

    def batch(rng, size):
        pts = sphere_uniform(4 * m - 1, rng, size=size)
        return _blockwise(integrand, pts, rng.standard_normal((size, 4 * m)))

    return mc_mean(batch, config)


def t_apply_eigenfunction(phi, p_prime, config, flow_t=None):
    """T applied to the eigenspace embedding of phi, at the base point of p_prime.

    Evaluates the double integral (base x fiber) as a single joint MC with
    the radial direction exact.  With ``flow_t`` the integrand is composed
    with the classical flow A -> e^(-2it) A, which multiplies the pairing
    by e^(-2it), and the half-density phase e^(-it(2n+1)) is attached.
    """
    n = phi.n
    x = np.asarray(p_prime, dtype=float).ravel()
    rotation, phase = None, 1.0 + 0.0j
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


def kernel_diag(n, norm_a, lmax):
    """Diagonal of the reproducing kernel with a certified tail bound.

    Returns (value, tail_bound); raises if the truncation leaves a tail
    above 1e-12 of the value.
    """
    if norm_a <= 0:
        raise ValueError("need a positive matrix norm")
    terms = [math.exp(log_kernel_term(n, l, norm_a)) for l in range(lmax + 1)]
    nxt = math.exp(log_kernel_term(n, lmax + 1, norm_a))
    ratio = nxt / terms[-1]
    ratio2 = math.exp(log_kernel_term(n, lmax + 2, norm_a)) / nxt
    if ratio >= 0.5 or ratio2 >= ratio:
        raise ValueError("truncation too small: term ratios not yet contracting")
    tail = nxt / (1.0 - ratio)
    value = math.fsum(terms)
    if tail > 1e-12 * value:
        raise ValueError(f"truncation {lmax} leaves tail {tail:.3e} above tolerance")
    return value, tail


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

    def batch(rng, size):
        base = sphere_uniform(4 * m - 1, rng, size=size)
        return _blockwise(integrand, base, rng.standard_normal((size, 4 * m)))

    scale = math.exp(log_radial_gg(n, fa.l + fb.l)) * vol_pnh(n) * vol_sphere(4 * n - 1)
    return mc_mean(batch, config).scaled(scale)


def orthogonality_check(n, l, lp, config, rng):
    """Pairing between degree-l and degree-l' generators; -> 0 for l != l'."""
    a1 = tau_h(random_eh(n, math.sqrt(2.0), rng)).A
    a2 = tau_h(random_eh(n, math.sqrt(2.0), rng)).A
    return pairing_gg_mc(HlFunction(n=n, l=l, amats=(a1,), coeffs=(1.0,)),
                         HlFunction(n=n, l=lp, amats=(a2,), coeffs=(1.0,)), config)


def kernel_reproduce_check(c0, phi1_amats, phi1_coeffs, a_prime, n, config):
    """Verify f(A') = <f, R(., A')> for f = c0 + sum c_k <., A_k> by joint MC.

    Returns (f_value, reconstruction MCEstimate).
    """
    a_prime = np.asarray(a_prime, dtype=complex)
    m = n + 1
    f1 = HlFunction(n=n, l=1, amats=tuple(phi1_amats), coeffs=tuple(phi1_coeffs))
    pair_pr = HlFunction(n=n, l=1, amats=(a_prime,), coeffs=(1.0,))     # <P, A'>
    fconst = complex(c0)
    f_at_aprime = fconst + f1.eval_amatrix(a_prime)

    inv_b = [math.exp(-log_b_coeff(n, 0)), math.exp(-log_b_coeff(n, 1))]
    radial = [math.exp(log_radial_gg(n, k)) for k in range(3)]

    def integrand(pts, base, g):
        y = _unit_covectors(_orbit_frames(base), g)
        pair_hat = _pair_projector_fiber(pts, base, y)                # <P, Ahat>
        fquad = f1.eval_sphere((base + 1j * y).reshape(-1, m, 4))    # homogeneity-2 part of f
        # l = 0 term: (1/b_0) [ const part at homog 0 + linear part at homog 2 ]
        out = inv_b[0] * (fconst * radial[0] + fquad * radial[1])
        # l = 1 term: conj<P, A> <P, A'> against both parts of f
        core = np.conj(pair_hat) * pair_pr.eval_sphere(pts.reshape(-1, m, 4))
        return out + inv_b[1] * (fconst * core * radial[1] + fquad * core * radial[2])

    def batch(rng, size):
        pts = sphere_uniform(4 * m - 1, rng, size=size)
        base = sphere_uniform(4 * m - 1, rng, size=size)
        return _blockwise(integrand, pts, base, rng.standard_normal((size, 4 * m)))

    return f_at_aprime, mc_mean(batch, config).scaled(vol_pnh(n) ** 2 * vol_sphere(4 * n - 1))


def kernel_norm_bound_check(c0, phi1_amats, phi1_coeffs, a_prime, n, config):
    """Check |f(A')| <= sqrt(R(A', A')) ||f|| for f = c0 + linear part."""
    a_prime = np.asarray(a_prime, dtype=complex)
    f1 = HlFunction(n=n, l=1, amats=tuple(phi1_amats), coeffs=tuple(phi1_coeffs))
    f_at_aprime = complex(c0) + f1.eval_amatrix(a_prime)
    diag, _ = kernel_diag(n, fro_norm(a_prime), lmax=30)

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
            rows.append(ConstantsRow(
                n=n, l=l,
                i_coeff=i_coeff(n, l),
                b_coeff=b_coeff(n, l),
                a_coeff=a_coeff(n, l),
                c_coeff=c_coeff(n, l),
                t_norm=t_norm(n, l),
                ratio_c_over_a=c_coeff(n, l) / a_coeff(n, l),
            ))
        except OverflowError:
            raise ValueError(f"the constants at n={n}, l={l} overflow the double range") from None
    return rows
