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

from .algebra import cbilinear, fro_norm, rho
from .numerics import (
    gamma_radial,
    log_gamma,
    log_gamma_radial,
    mc_mean,
    radial_quad,
    sphere_uniform,
    vol_sphere,
)
from .spaces import beta_blocks, sp1_orbit_frame
from .spectral import _pair_projector_fiber, _quad_values, dim_eigenspace, quad_form_matrix

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
    "t_apply",
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
    a = (p0 ** 2).sum(1) - (p1 ** 2).sum(1)
    b = (p0 * p1).sum(1)
    return a * a + 4.0 * b * b


def i_coeff_mc(n, l, config):
    """MC oracle for I_l via uniform sphere samples."""
    m = n + 1

    def batch(rng, size):
        pts = sphere_uniform(4 * m - 1, rng, size=size)
        return sphere_moment_integrand(pts) ** l

    return mc_mean(batch, config).scaled(vol_pnh(n) * (2.0 * math.sqrt(2.0)) ** (-2 * l))


def moment_s7_mc(l, config):
    """MC oracle for the S^7 moment itself."""
    def batch(rng, size):
        pts = sphere_uniform(7, rng, size=size)
        return sphere_moment_integrand(pts) ** l

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


def _unit_covectors(dirs, rng):
    """Uniform unit vectors orthogonal to the orthonormal rows of dirs, (k, N, m, 4).

    The orbit frame of p gives the horizontal covectors at p; p alone gives
    the whole cotangent sphere.
    """
    q = rng.standard_normal(dirs.shape[1:])
    for d in dirs:
        q = q - np.sum(q * d, axis=(-2, -1), keepdims=True) * d
    nrm = np.sqrt((q ** 2).sum(axis=(-2, -1), keepdims=True))
    return q / nrm


def _beta_tau_s_unit(p, q):
    """beta(tau_s(p, q)) = beta(rho(z)), z = p + i q, for batched unit
    covectors q at base points p.

    On horizontal covectors this is tau_h(alpha(p, q)), the commuting
    square.  It is the one place that forms the fiber matrix A-hat, for
    integrands given as functions of a matrix (t_apply's g); every other
    oracle pairs the fiber point z directly, through
    <P(p), beta(rho(z))>_C = sum_a <p, z>_H,a^2 and
    <beta(rho(z)), A_k>_C = z^t M_k z.
    """
    return beta_blocks(rho(p + 1j * q))  # |q| = 1


def _unit_fiber_points(p, rng, size):
    """z = p + i q for uniform unit horizontal covectors q at p, so that
    beta(rho(z)) = tau_h(alpha(p, q))."""
    p = np.broadcast_to(p, (size,) + p.shape[-2:])
    return p + 1j * _unit_covectors(sp1_orbit_frame(p), rng)


def b_coeff_mc(n, l, config):
    """MC of the defining integral of b_l; radial direction exact."""
    m = n + 1
    dim = dim_eigenspace(n, l)

    def batch(rng, size):
        pts = sphere_uniform(4 * m - 1, rng, size=size).reshape(size, m, 4)
        base = sphere_uniform(4 * m - 1, rng, size=size).reshape(size, m, 4)
        z = _unit_fiber_points(base, rng, size)
        return np.abs(_pair_projector_fiber(pts, z)) ** (2 * l)

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


def t_apply(g, p_prime, n, config, homogeneous_degree):
    """Quantization operator T applied to a function g of the matrix model,
    evaluated over the cotangent fiber of the base point with lift p_prime.

    ``g`` takes a batch (N, 2n+2, 2n+2) of matrices and returns (N,) values;
    it is homogeneous of ``homogeneous_degree`` in A, so the radial integral
    is a Gamma integral and only the unit fiber is sampled.
    """
    p_prime = np.asarray(p_prime, dtype=float)

    def batch(rng, size):
        z = _unit_fiber_points(p_prime, rng, size)
        return g(_beta_tau_s_unit(z.real, z.imag))

    return mc_mean(batch, config).scaled(_t_apply_scale(n, homogeneous_degree))


def t_apply_eigenfunction(phi, p_prime, config, flow_t=None):
    """T applied to the eigenspace embedding of phi, at the base point of p_prime.

    Evaluates the double integral (base x fiber) as a single joint MC with
    the radial direction exact.  With ``flow_t`` the integrand is composed
    with the classical flow A -> e^(-2it) A, which multiplies the pairing
    by e^(-2it), and the half-density phase e^(-it(2n+1)) is attached.
    """
    n, l = phi.n, phi.l
    m = n + 1
    p_prime = np.asarray(p_prime, dtype=float)
    phase = 1.0 + 0.0j
    if flow_t is not None:
        phase = np.exp(-1j * flow_t * (2 * n + 1))

    def batch(rng, size):
        pts = sphere_uniform(4 * m - 1, rng, size=size).reshape(size, m, 4)
        pair = _pair_projector_fiber(pts, _unit_fiber_points(p_prime, rng, size))
        if flow_t is not None:
            pair = np.exp(-2j * flow_t) * pair
        return phi.eval_sphere(pts) * pair ** l

    return mc_mean(batch, config).scaled(_t_apply_scale(n, l) * vol_pnh(n) * phase)


def t_tilde_apply_eigenfunction(phi, p_prime, config):
    """The sphere-descended operator applied to the eigenspace embedding."""
    n, l = phi.n, phi.l
    m = n + 1
    p_prime = np.asarray(p_prime, dtype=float)

    def batch(rng, size):
        pts = sphere_uniform(4 * m - 1, rng, size=size).reshape(size, m, 4)
        base = np.broadcast_to(p_prime, (size, m, 4))
        z = base + 1j * _unit_covectors(base[None], rng)
        return phi.eval_sphere(pts) * _pair_projector_fiber(pts, z) ** l

    scale = (vol_pnh(n) * vol_sphere(4 * n + 2) * math.sqrt(abs(B_S_CONST))
             * 2.0 ** -0.5 * gamma_radial(2 * l + 4 * n + 1.5, 2 * math.pi))
    return mc_mean(batch, config).scaled(scale)


# ----------------------------------------------------------- flow identity

def flow_commutation_scalar(n, l, t):
    """|e^(-it(2l+2n+1)) - e^(-it sqrt(lambda_l + (2n+1)^2))|, exactly zero."""
    from .spectral import eigenvalue
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


def pairing_gg_mc(fa_z, fb_z, homogeneity, n, config):
    """MC of the weighted holomorphic pairing <f, g> for fiber-homogeneous
    integrand fa(A) conj(fb(A)) of total flat-coordinate homogeneity 2k.

    ``fa_z``/``fb_z`` take batched unit-fiber points z, (N, n+1, 4) complex,
    standing for A-hat = beta(rho(z)); <A-hat, A_k>_C = z^t M_k z.
    """
    m = n + 1

    def batch(rng, size):
        base = sphere_uniform(4 * m - 1, rng, size=size).reshape(size, m, 4)
        z = _unit_fiber_points(base, rng, size)
        return fa_z(z) * np.conj(fb_z(z))

    scale = math.exp(log_radial_gg(n, homogeneity)) * vol_pnh(n) * vol_sphere(4 * n - 1)
    return mc_mean(batch, config).scaled(scale)


def orthogonality_check(n, l, lp, config, rng):
    """Pairing between degree-l and degree-l' generators; -> 0 for l != l'."""
    from .spaces import random_eh, tau_h
    a1 = tau_h(random_eh(n, math.sqrt(2.0), rng)).A
    a2 = tau_h(random_eh(n, math.sqrt(2.0), rng)).A
    form1, form2 = quad_form_matrix(a1)[None], quad_form_matrix(a2)[None]
    return pairing_gg_mc(lambda z: _quad_values(z, form1)[:, 0] ** l,
                         lambda z: _quad_values(z, form2)[:, 0] ** lp,
                         l + lp, n, config)


def _test_function(c0, amats, coeffs):
    """f = c0 + sum_k c_k <., A_k>_C, the one evaluator of the kernel test function.

    f takes one matrix of the cotangent model, or a batch of fiber points z
    (N, n+1, 4) standing for beta(rho(z)), where it is c0 + sum_k c_k
    z^t M_k z with M_k = quad_form_matrix(A_k).
    """
    terms = list(zip(coeffs, amats))
    forms = np.stack([quad_form_matrix(a) for a in amats])
    c = np.asarray(coeffs)

    def f(x):
        if np.shape(x)[-2:] == np.shape(amats[0]):
            return c0 + sum(ck * cbilinear(x, amat) for ck, amat in terms)
        return c0 + _quad_values(x, forms) @ c

    return f


def kernel_reproduce_check(c0, phi1_amats, phi1_coeffs, a_prime, n, config):
    """Verify f(A') = <f, R(., A')> for f = c0 + sum c_k <., A_k> by joint MC.

    Returns (f_value, reconstruction MCEstimate).
    """
    a_prime = np.asarray(a_prime, dtype=complex)
    m = n + 1
    f = _test_function(complex(c0), phi1_amats, phi1_coeffs)
    f_at_aprime = f(a_prime)
    form_pr = quad_form_matrix(a_prime)[None]

    logb = [log_b_coeff(n, 0), log_b_coeff(n, 1)]

    def batch(rng, size):
        pts = sphere_uniform(4 * m - 1, rng, size=size).reshape(size, m, 4)
        base = sphere_uniform(4 * m - 1, rng, size=size).reshape(size, m, 4)
        z = _unit_fiber_points(base, rng, size)
        pair_hat = _pair_projector_fiber(pts, z)        # <P, Ahat>
        pair_pr = _quad_values(pts, form_pr)[:, 0]      # <P, A'>
        f_hat = f(z)                                # f on the unit fiber
        fconst = complex(c0)
        fquad = f_hat - fconst                      # the homogeneity-2 part
        out = 0.0
        # l = 0 term: (1/b_0) [ const part at homog 0 + linear part at homog 2 ]
        out = out + math.exp(-logb[0]) * (fconst * math.exp(log_radial_gg(n, 0))
                                          + fquad * math.exp(log_radial_gg(n, 1)))
        # l = 1 term: conj<P, A> <P, A'> against both parts of f
        core = np.conj(pair_hat) * pair_pr
        out = out + math.exp(-logb[1]) * (fconst * core * math.exp(log_radial_gg(n, 1))
                                          + fquad * core * math.exp(log_radial_gg(n, 2)))
        return out

    return f_at_aprime, mc_mean(batch, config).scaled(vol_pnh(n) ** 2 * vol_sphere(4 * n - 1))


def kernel_norm_bound_check(c0, phi1_amats, phi1_coeffs, a_prime, n, config):
    """Check |f(A')| <= sqrt(R(A', A')) ||f|| for f = c0 + linear part."""
    a_prime = np.asarray(a_prime, dtype=complex)
    f1 = _test_function(0.0, phi1_amats, phi1_coeffs)   # the linear part of f
    f_at_aprime = complex(c0) + f1(a_prime)
    diag, _ = kernel_diag(n, fro_norm(a_prime), lmax=30)

    norm1_sq = pairing_gg_mc(f1, f1, 2, n, config)
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
