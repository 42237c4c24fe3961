"""Closed-form constants vs oracles, operators, flow identity, kernel."""

import copy
import math

import mpmath as mp
import numpy as np
import pytest

from qpquant import algebra as alg
from qpquant import numerics as nm
from qpquant import quantization as qz
from qpquant import spaces as sp
from qpquant import spectral as spl
from qpquant.numerics import (MCConfig, gamma_radial, mc_mean, sphere_moment, sphere_uniform,
                              vol_sphere)


def test_weights_reduce_on_the_fiber():
    # |q| = 1 gives |A| = 2 sqrt(2): mixed-weight exponent is exactly -2 pi
    norm_a = 2.0 * math.sqrt(2.0)
    w = qz.weight_pair_fg(norm_a)
    expect = math.exp(-2 * math.pi) * math.sqrt(abs(qz.B_H_CONST)) * math.sqrt(norm_a)
    assert abs(w - expect) < 1e-15
    assert abs(2.0 ** 0.25 * math.pi * math.sqrt(norm_a) - 2.0 * math.pi) < 1e-12
    # wholesale weights vanish at the zero section
    assert qz.weight_pair_gg(1e-30, 1) < 1e-30


def test_i_coeff_closed_values():
    assert abs(qz.i_coeff(1, 0) - math.pi ** 2 / 6.0) < 1e-14
    assert abs(qz.moment_s7(0) - math.pi ** 4 / 3.0) < 1e-13
    assert abs(qz.moment_s7(1) - 2.0 * math.pi ** 4 / 15.0) < 1e-13
    # I_0 equals the total volume for every n
    for n in (1, 2, 3):
        assert abs(qz.i_coeff(n, 0) - qz.vol_pnh(n)) < 1e-14


def test_i_coeff_mc_agreement():
    for n in (1, 2):
        for l in (1, 3):
            est = qz.i_coeff_mc(n, l, MCConfig(samples=200_000, seed=13 + l))
            assert est.within(qz.i_coeff(n, l), nsigma=3.5)
    est = qz.moment_s7_mc(1, MCConfig(samples=200_000, seed=5))
    assert est.within(qz.moment_s7(1), nsigma=3.5)


def _point_moment_mc(n, l, config):
    """The I_l oracle on uniform points of S^(4n+3): the independent route."""
    def batch(rng, size):
        pts = sphere_uniform(4 * n + 3, rng, size=size)
        p0, p1 = pts[:, 0:4], pts[:, 4:8]
        a = (p0 ** 2).sum(1) - (p1 ** 2).sum(1)
        b = (p0 * p1).sum(1)
        return (a * a + 4.0 * b * b) ** l
    return mc_mean(batch, config).scaled(qz.vol_pnh(n) * 8.0 ** -l)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_i_coeff_gram_draw_matches_sphere_points(n):
    # the Gram-entry draw and the sphere-point draw estimate the same integral
    for l in (1, 2, 3):
        gram = qz.i_coeff_mc(n, l, MCConfig(samples=200_000, seed=40 + n))
        points = _point_moment_mc(n, l, MCConfig(samples=200_000, seed=50 + n))
        assert abs(gram.value - points.value) <= 3.0 * math.hypot(gram.stderr, points.stderr)
    # the constant l = 0 integrand gives the volume exactly
    est = qz.i_coeff_mc(n, 0, MCConfig(samples=10_000, seed=40 + n))
    assert (est.value, est.stderr) == (qz.vol_pnh(n), 0.0)


def test_b_coeff_two_assemblies_and_mc():
    for n in (1, 2):
        for l in range(4):
            c = qz.b_coeff(n, l)
            s = qz.b_coeff_semianalytic(n, l)
            assert abs(c - s) <= 1e-8 * c
            assert c > 0
    # criterion 11's sqrt(2) erratum is asserted up to n = 4
    for n in (1, 2, 3, 4):
        for l in (0, 1):
            est = qz.b_coeff_mc(n, l, MCConfig(samples=150_000, seed=7))
            assert est.stderr <= 0.01 * est.value + 1e-30
            assert est.within(qz.b_coeff(n, l), nsigma=3.0, floor=1e-12 * est.value)


def test_b_coeff_growth_rate():
    l = 10_000
    ratio = math.exp(qz.log_b_coeff(1, l) - qz.log_b_coeff(1, l + 1))
    assert abs(ratio * l ** 4 / math.pi ** 4 - 1.0) <= 1e-2


def test_a_coeff_quadrature_and_fiber_value():
    for n in (1, 2):
        for l in range(6):
            c = qz.a_coeff(n, l)
            q = qz.a_coeff_quadrature(n, l)
            s = qz.a_coeff_semianalytic(n, l)
            assert abs(c - q) <= 1e-8 * c
            assert abs(c - s) <= 1e-12 * c
            assert c > 0
    # the diagonal pairing value <P0, A> = |Q|^2/2 -> 1 at |Q|^2 = 2
    pt = sp.SphereCovector(np.eye(1, 8).reshape(2, 4) * 0 + np.array(
        [[1, 0, 0, 0], [0, 0, 0, 0.]]), np.array([[0, 0, 0, 0], [1.0, 0, 0, 0]]))
    cp = sp.alpha(pt)
    am = sp.tau_h(cp)
    val = spl.pair_projector_amatrix(pt.p, am.A)
    assert abs(val - 0.5 * cp.qnorm_j ** 2) < 1e-12
    assert abs(val - 1.0) < 1e-12


def test_c_coeff_quadrature():
    for n in (1, 2):
        for l in range(4):
            c = qz.c_coeff(n, l)
            q = qz.c_coeff_quadrature(n, l)
            assert abs(c - q) <= 1e-8 * c
            assert c > 0


def test_c_over_a_closed_expression_and_limit():
    for n in (1, 2):
        for l in range(0, 51, 5):
            r = math.exp(qz.log_c_coeff(n, l) - qz.log_a_coeff(n, l))
            assert abs(r - qz.c_over_a_expr(n, l)) <= 1e-10 * r
    assert abs(qz.c_over_a(1, 10 ** 6) - math.pi / 2.0) <= 1e-3
    assert abs(qz.c_over_a_limit() - math.pi / 2.0) <= 1e-15


def test_t_norm_identity_and_limits():
    # the defining-integral normalization: prefactor 2^((n+3)/4) variant
    for n in (1, 2, 3, 4):
        for l in range(0, 51, 10):
            lhs = qz.t_norm(n, l)
            rhs = qz.t_norm_prefactor(n) * qz.t_norm_gamma_part(n, l)
            assert abs(lhs - rhs) <= 1e-10 * lhs
        assert abs(qz.t_norm_prefactor(n) - 2.0 / math.pi) <= 1e-15
        # the printed variant evaluates to sqrt(2)/pi for every n
        assert abs(qz.t_norm_prefactor(n, 1) - math.sqrt(2.0) / math.pi) <= 1e-15
    assert abs(qz.t_norm_limit(1) - 2.0 / math.pi) <= 1e-3


def test_t_norm_monotone_convergence():
    vals = [qz.t_norm(1, l) for l in range(51)]
    diffs = np.diff(vals)
    assert np.all(diffs < 0) or np.all(diffs > 0)
    assert abs(vals[-1] - 2.0 / math.pi) < abs(vals[0] - 2.0 / math.pi)


def test_constants_positive_and_monotone_ratios():
    for n in (1, 2):
        for l in range(4):
            row = qz.constants_table(n, [l])[0]
            assert row.b_coeff > 0 and row.a_coeff > 0 and row.c_coeff > 0
            assert row.i_coeff > 0
    ratios = [qz.c_over_a(1, l) for l in range(0, 30)]
    assert np.all(np.diff(ratios) < 0)  # decreases toward pi/2


def test_fiber_sampler_is_the_commuting_square(rng):
    # the oracles' fiber points, the real pairs (p, q), stand for
    # beta(tau_s(p, q)), which is tau_h(alpha(p, q)) row by row
    for n in (1, 2, 3):
        m = n + 1
        base = np.stack([sphere_uniform(4 * m - 1, rng).reshape(m, 4) for _ in range(64)])
        normals = rng.standard_normal((64, 4 * m))
        q = qz._unit_covectors(sp._orbit_frames(base), normals).reshape(64, m, 4)
        amats = sp.beta_blocks(alg.rho(base + 1j * q))
        for p_k, q_k, a_k in zip(base, q, amats):
            pt = sp.SphereCovector(p_k, q_k)
            assert sp.in_sphere_covector0(pt) and abs(np.sum(q_k ** 2) - 1.0) < 1e-14
            ref = sp.tau_h(sp.alpha(pt)).A
            assert np.abs(a_k - ref).max() <= 1e-12 * np.abs(ref).max()


def _loop_unit_covectors(dirs, rng):
    """Uniform unit vectors orthogonal to the orthonormal rows of dirs,
    (k, N, m, 4), projected out one direction at a time: the reference for
    the samplers' batched projection."""
    q = rng.standard_normal(dirs.shape[1:])
    for d in dirs:
        q = q - np.sum(q * d, axis=(-2, -1), keepdims=True) * d
    nrm = np.sqrt((q ** 2).sum(axis=(-2, -1), keepdims=True))
    return q / nrm


def _loop_random_es0(n, qnorm_val, rng):
    """random_es0 with the horizontal projection taken one orbit-frame
    direction at a time: the reference for the batched projector."""
    m = n + 1
    while True:
        p = sphere_uniform(4 * m - 1, rng).reshape(m, 4)
        q = rng.standard_normal((m, 4))
        for d in sp.sp1_orbit_frame(p):
            q = q - np.sum(q * d) * d
        nq = np.sqrt(np.sum(q ** 2))
        if nq > 1e-8:
            return p, q * (qnorm_val / nq)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_batched_projector_is_the_per_direction_loop(n, rng):
    m, size = n + 1, 500
    base = sphere_uniform(4 * m - 1, rng, size=size).reshape(size, m, 4)
    # the orbit frame leaves the horizontal part, p alone the part tangent to
    # the sphere
    for frames, dirs in ((sp._orbit_frames(base), sp.sp1_orbit_frame(base)),
                         (base.reshape(size, 1, 4 * m), base[None])):
        ref_rng = copy.deepcopy(rng)
        q = qz._unit_covectors(frames, rng.standard_normal((size, 4 * m))).reshape(size, m, 4)
        ref = _loop_unit_covectors(dirs, ref_rng)
        assert np.abs(q - ref).max() <= 1e-14
        assert rng.random() == ref_rng.random()
        assert np.abs(np.sqrt((q ** 2).sum(axis=(-2, -1))) - 1.0).max() <= 1e-14
        assert np.abs(np.einsum("nkj,nj->nk", frames, q.reshape(size, -1))).max() <= 1e-14
        if len(dirs) == 4:
            assert np.abs(alg.hinner(q, base)).max() <= 1e-14
    # random_es0 draws what the loop drew, and leaves the generator where the
    # loop left it
    for qn in (0.3, 1.0, 2.5):
        ref_rng = copy.deepcopy(rng)
        pt = sp.random_es0(n, qn, rng)
        p_ref, q_ref = _loop_random_es0(n, qn, ref_rng)
        assert np.array_equal(pt.p, p_ref)
        assert np.abs(pt.q - q_ref).max() <= 1e-14 * qn
        assert np.abs(alg.hinner(pt.q, pt.p)).max() <= 1e-14 * qn
        assert rng.standard_normal() == ref_rng.standard_normal()


def _matrix_route_fiber(p, rng, size):
    """A-hat = beta(rho(p + i q)) at uniform unit horizontal q, as a matrix."""
    p = np.broadcast_to(p, (size,) + p.shape[-2:])
    q = _loop_unit_covectors(sp.sp1_orbit_frame(p), rng)
    return sp.beta_blocks(alg.rho(p + 1j * q))


def _basis_fiber_points(p, tangent, rng, size):
    """The fiber points z = p + i y, (N, m, 4), of a whole chunk at the fixed
    base point p (m, 4): y = g C, g uniform on S^(k-1) and C the library's
    fiber basis at p, k = 4n rows or, with ``tangent``, 4n + 3."""
    basis = qz._fiber_basis(p.ravel(), tangent)
    g = sphere_uniform(len(basis) - 1, rng, size=size)
    return p + 1j * (g @ basis).reshape((size,) + p.shape)


def _matrix_route_phi(phi, pts):
    return sum(c * spl.pair_projector_amatrix(pts, a) ** phi.l
               for c, a in zip(phi.coeffs, phi.amats))


def _sphere_mean_of_phi(phi, mhat):
    """sum_j c_j E_p (p^t M_j p)^l (p^t M-hat p)^l row by row, M_j the forms of
    phi's generators: the mean over sphere points p of phi(p) <P(p), A-hat>^l."""
    forms = np.stack([spl.quad_form_matrix(a) for a in phi.amats])
    return np.asarray(phi.coeffs) @ sphere_moment(forms[:, None], mhat, phi.l, phi.l)


def _kernel_row(n, c0, fquad, core):
    """The kernel check's row from the constant c0, the linear part fquad of f
    at the fiber point, and the l = 1 core: the l = 0 and l = 1 kernel terms
    with their radial integrals and 1/b_l."""
    radial = [math.exp(qz.log_radial_gg(n, k)) for k in range(3)]
    return (math.exp(-qz.log_b_coeff(n, 0)) * (c0 * radial[0] + fquad * radial[1])
            + math.exp(-qz.log_b_coeff(n, 1)) * (c0 * core * radial[1] + fquad * core * radial[2]))


def _z0(n):
    """The fixed fiber point z_0 = e_0 + i e_1, (n+1, 4), of b_coeff_mc."""
    z0 = np.zeros((n + 1, 4), dtype=complex)
    z0[0, 0], z0[1, 0] = 1.0, 1j
    return z0


def _moment_batch(n, l):
    """The I_l sphere moment's batch, unscaled: the Gram entries of the first
    8 of 4n + 4 normal coordinates and the squared norm of the rest, in
    Bartlett's form, each chi-square written out as its sum: normals (z, z'),
    then 2n + 1 exponentials."""
    def batch(rng, size):
        z, zp = rng.standard_normal((size, 2)).T
        e = rng.standard_exponential((size, 2 * n + 1))
        c1, c2 = 2.0 * (e[:, 0] + e[:, 1]), zp * zp + 2.0 * e[:, 2]
        rest = 2.0 * e[:, 3:].sum(axis=1)
        s0, s1, dot = c1, z * z + c2, np.sqrt(c1) * z
        r2 = s0 + s1 + rest
        a, b = (s0 - s1) / r2, dot / r2
        return (a * a + 4.0 * b * b) ** l
    return batch


def test_matrix_free_oracles_keep_the_matrix_route_draws(rng):
    # The oracles pair fiber points z directly and take the mean over the
    # sphere point exactly; the matrix route, written out here, forms
    # A-hat = beta(rho(z)) and its quadratic form and gives the same estimate
    # from the same draws.  T, T~ and the kernel check draw z alone: T and T~
    # as g on S^(k-1) through the fiber basis at p', the kernel check as a
    # projected covector at its own base point.  b_l draws the I_l moment's
    # variates, the law of its integrand at the fixed fiber point
    # z_0 = e_0 + i e_1 (test_b_coeff_mc_form_is_the_moment_form).
    n, m, l = 1, 2, 1
    cfg = MCConfig(samples=8192, seed=4242)
    phi = spl.random_hl_function(n, l, 2, rng)
    phi2 = spl.random_hl_function(n, 2, 2, rng)
    pprime = sp.random_es0(n, 1.0, rng).p
    a1 = sp.tau_h(sp.random_eh(n, math.sqrt(2.0), rng)).A
    aprime = sp.tau_h(sp.random_eh(n, math.sqrt(2.0), rng)).A
    c0, c1 = 0.7, 0.4 - 0.3j

    def t_batch(f, flow_t, tangent=False):
        def batch(rng, size):
            ahat = sp.beta_blocks(alg.rho(_basis_fiber_points(pprime, tangent, rng, size)))
            if flow_t is not None:
                ahat = np.exp(-2j * flow_t) * ahat
            return _sphere_mean_of_phi(f, spl.quad_form_matrix(ahat))
        return batch

    def kernel_batch(rng, size):
        base = sphere_uniform(4 * m - 1, rng, size=size).reshape(size, m, 4)
        ahat = _matrix_route_fiber(base, rng, size)
        core = sphere_moment(spl.quad_form_matrix(aprime), np.conj(spl.quad_form_matrix(ahat)),
                             1, 1)
        fquad = c1 * alg.cbilinear(ahat, a1)
        return _kernel_row(n, c0, fquad, core)

    t_scale = qz._t_apply_scale(n, l) * qz.vol_pnh(n)
    flow_phase = np.exp(-1j * 0.7 * (2 * n + 1))
    tilde_scale = _tilde_scale(n, l)
    cases = [
        (qz.b_coeff_mc(n, l, cfg), _moment_batch(n, l), qz._b_coeff_mc_scale(n, l)),
        (qz.t_apply_eigenfunction(phi, pprime, cfg), t_batch(phi, None), t_scale),
        (qz.t_apply_eigenfunction(phi, pprime, cfg, flow_t=0.7), t_batch(phi, 0.7),
         t_scale * flow_phase),
        (qz.t_apply_eigenfunction(phi2, pprime, cfg, flow_t=0.7), t_batch(phi2, 0.7),
         qz._t_apply_scale(n, 2) * qz.vol_pnh(n) * flow_phase),
        (qz.t_tilde_apply_eigenfunction(phi, pprime, cfg), t_batch(phi, None, True),
         tilde_scale),
        (qz.kernel_reproduce_check(c0, [a1], [c1], aprime, n, cfg)[1], kernel_batch,
         qz.vol_pnh(n) ** 2 * vol_sphere(4 * n - 1)),
    ]
    for got, batch, scale in cases:
        ref = mc_mean(batch, cfg).scaled(scale)
        assert got.samples == ref.samples
        assert abs(got.value - ref.value) <= 1e-12 * abs(ref.value)
        assert abs(got.stderr - ref.stderr) <= 1e-12 * ref.stderr


def _complex_fiber_points(p, dirs_of, rng, size):
    """The complex fiber points z = p + i q, (N, m, 4), of a whole chunk:
    q uniform and unit, orthogonal to dirs_of(p), projected one direction
    at a time."""
    p = np.broadcast_to(p, (size,) + p.shape[-2:])
    return p + 1j * _loop_unit_covectors(dirs_of(p), rng)


def _complex_pairing(pts, z):
    """<P(p), beta(rho(z))>_C = sum_k ((p e_k).z)^2 on the complex points."""
    w = np.einsum("knij,nij->nk", sp.sp1_orbit_frame(pts), z)
    return np.einsum("nk,nk->n", w, w)


def _complex_hat_forms(z):
    """M-hat(z) (N, 4m, 4m) with p^t M-hat(z) p = sum_k ((p e_k).z)^2 for the
    complex points z (N, m, 4): entry (i, j) sums ((e_i e_k).z) ((e_j e_k).z)."""
    m = z.shape[-2]
    frames = sp.sp1_orbit_frame(np.eye(4 * m).reshape(4 * m, m, 4))
    w = np.einsum("kiab,nab->nik", frames, z)
    return np.einsum("nik,njk->nij", w, w)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_degree_one_fiber_mean_is_phi(n, rng):
    # At a unit fiber point z = x + i y with x orthogonal to y, the sphere
    # mean of phi(p) <P(p), A-hat(z)> is 8/(d(d+2)) phi(z), d = 4n + 4: Wick's
    # fourth moment with tr M-hat(z) = 4 z^t z = 0.  For A-model and for
    # arbitrary complex generators, at horizontal and at whole-sphere y; with
    # no Monte Carlo, the oracle of T, T~ and the kernel check at l = 1.
    m, d, size = n + 1, 4 * n + 4, 32
    gens = rng.standard_normal((2, 2 * m, 2 * m)) + 1j * rng.standard_normal((2, 2 * m, 2 * m))
    phis = [spl.random_hl_function(n, 1, 3, rng),
            spl.HlFunction(n=n, l=1, amats=tuple(gens), coeffs=(0.6 - 1.1j, 1.3))]
    base = sphere_uniform(4 * m - 1, rng, size=size).reshape(size, m, 4)
    for dirs_of in (sp.sp1_orbit_frame, lambda p: p[None]):
        z = _complex_fiber_points(base, dirs_of, rng, size)
        for phi in phis:
            want = 8.0 / (d * (d + 2)) * _matrix_route_phi(phi, z)
            got = _sphere_mean_of_phi(phi, _complex_hat_forms(z))
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    # the degree-1 kernel term's generator: the form of quat_conj_c(A') is conj(M')
    aprime = sp.tau_h(sp.random_eh(n, math.sqrt(2.0), rng)).A
    assert np.abs(spl.quad_form_matrix(alg.quat_conj_c(aprime))
                  - np.conj(spl.quad_form_matrix(aprime))).max() == 0.0


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_fiber_basis_spans_the_fiber(n, rng):
    # T's basis spans the horizontal space at x and T~'s the tangent space of
    # the sphere: orthonormal rows, 4n or 4n + 3 of them, off the orbit frame
    # of x or off x, and a function of x alone.  At random x, on a coordinate
    # axis, and with two slots of equal norm, a tie for the dropped slot.
    m = n + 1
    tie = np.zeros(4 * m)
    tie[:8] = sphere_uniform(3, rng, size=2).ravel() / math.sqrt(2.0)
    for x in [sphere_uniform(4 * m - 1, rng) for _ in range(3)] + [np.eye(4 * m)[0], tie]:
        for tangent, off in ((False, sp._orbit_frames(x[None])[0]), (True, x[None])):
            basis = qz._fiber_basis(x, tangent)
            assert basis.shape == (4 * n + 3 * tangent, 4 * m)
            assert np.abs(basis @ basis.T - np.eye(len(basis))).max() <= 1e-14
            assert np.abs(basis @ off.T).max() <= 1e-14
            assert np.array_equal(basis, qz._fiber_basis(x.copy(), tangent))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_restricted_degree_one_row_is_phi_at_the_fiber_point(n, rng, monkeypatch):
    # The l = 1 row of T and T~ restricts the combined form to the fiber once
    # per call.  On the same draws g it is kappa_1 phi(x + i g C), phi evaluated
    # at the complex points by HlFunction: no Monte Carlo, both bases.
    m, d = n + 1, 4 * n + 4
    monkeypatch.setattr(qz, "_mc_blocks", lambda integrand, config, dims: integrand)
    gens = rng.standard_normal((3, 2 * m, 2 * m)) + 1j * rng.standard_normal((3, 2 * m, 2 * m))
    phis = [spl.random_hl_function(n, 1, 3, rng),
            spl.HlFunction(n=n, l=1, amats=tuple(gens), coeffs=(0.6 - 1.1j, 1.3, -0.4j))]
    x = sphere_uniform(4 * m - 1, rng)
    for tangent in (False, True):
        basis = qz._fiber_basis(x, tangent)
        g = sphere_uniform(len(basis) - 1, rng, size=64)
        for phi in phis:
            row = qz._fiber_apply(phi, x, basis, None)(g)
            want = 8.0 / (d * (d + 2)) * phi.eval_sphere((x + 1j * (g @ basis)).reshape(64, m, 4))
            assert np.abs(row - want).max() <= 1e-13 * np.abs(want).max()


def test_fiber_oracles_draw_k_variates_a_row(rng, monkeypatch):
    # Each chunk of T consumes exactly sphere_uniform(4n - 1) rows of its
    # generator, and each chunk of T~ sphere_uniform(4n + 2) rows, at l >= 1:
    # 4n + 4 normals and a projection would leave it elsewhere.  At l = 0 the
    # row is the constant sum c_j, and a chunk consumes nothing.
    real_mc_mean, checked = nm.mc_mean, []

    def spy(batch, config):
        for size in (4096, 5000):
            got, ref = np.random.default_rng(size), np.random.default_rng(size)
            assert len(batch(got, size)) == size
            if l > 0:
                sphere_uniform(k - 1, ref, size=size)
            assert got.bit_generator.state == ref.bit_generator.state
        checked.append(k)
        return real_mc_mean(batch, config)

    monkeypatch.setattr(nm, "mc_mean", spy)
    for n in (1, 2):
        x = sp.random_es0(n, 1.0, rng).p
        for l in (0, 1, 2):
            phi = spl.random_hl_function(n, l, 2, rng)
            for apply, k in ((qz.t_apply_eigenfunction, 4 * n),
                             (qz.t_tilde_apply_eigenfunction, 4 * n + 3)):
                apply(phi, x, MCConfig(samples=100, seed=1))
    assert checked == [4, 7] * 3 + [8, 11] * 3


def test_blocked_oracles_keep_the_complex_route_draws(rng):
    # 65,536 + 5,000 samples: the second chunk ends in a partial row block.
    # Each oracle agrees with its whole-chunk complex-point batch, written
    # out here, on the same draws: for T, T~ and the kernel check the fiber
    # points alone (T and T~ in the fiber basis at p'), with the mean over
    # sphere points taken by sphere_moment on the whole matrix M-hat(z).
    cfg = MCConfig(samples=65_536 + 5_000, seed=9090)
    c0, c1 = 0.7, 0.4 - 0.3j

    def horizontal(p):
        return sp.sp1_orbit_frame(p)

    def t_batch(phi, pprime, tangent, flow_t=None):
        def batch(rng, size):
            mhat = _complex_hat_forms(_basis_fiber_points(pprime, tangent, rng, size))
            if flow_t is not None:
                mhat = np.exp(-2j * flow_t) * mhat
            return _sphere_mean_of_phi(phi, mhat)
        return batch

    def kernel_batch(n, a1, aprime):
        m = n + 1
        def batch(rng, size):
            base = sphere_uniform(4 * m - 1, rng, size=size).reshape(size, m, 4)
            z = _complex_fiber_points(base, horizontal, rng, size)
            core = sphere_moment(spl.quad_form_matrix(aprime), _complex_hat_forms(np.conj(z)),
                                 1, 1)
            fquad = c1 * spl.pair_projector_amatrix(z, a1)
            return _kernel_row(n, c0, fquad, core)
        return batch

    def orthogonality_batch(n, l, lp, a1, a2):
        m = n + 1

        def batch(rng, size):
            base = sphere_uniform(4 * m - 1, rng, size=size).reshape(size, m, 4)
            z = _complex_fiber_points(base, horizontal, rng, size)
            return (spl.pair_projector_amatrix(z, a1) ** l
                    * np.conj(spl.pair_projector_amatrix(z, a2) ** lp))
        return batch

    def pairing_batch(n, f):
        m = n + 1

        def batch(rng, size):
            base = sphere_uniform(4 * m - 1, rng, size=size).reshape(size, m, 4)
            fz = _matrix_route_phi(f, _complex_fiber_points(base, horizontal, rng, size))
            return fz * np.conj(fz)
        return batch

    n, l = 1, 1
    phi = spl.random_hl_function(n, l, 2, rng)
    pprime = sp.random_es0(n, 1.0, rng).p
    a1 = sp.tau_h(sp.random_eh(n, math.sqrt(2.0), rng)).A
    aprime = sp.tau_h(sp.random_eh(n, math.sqrt(2.0), rng)).A
    t_scale = qz._t_apply_scale(n, l) * qz.vol_pnh(n)
    tilde_scale = _tilde_scale(n, l)
    orth_rng = copy.deepcopy(rng)
    orth_a = [sp.tau_h(sp.random_eh(n, math.sqrt(2.0), orth_rng)).A for _ in range(2)]
    # the linear part of the kernel-bound test function: two terms, complex coefficients
    phi1 = spl.HlFunction(n=n, l=1, amats=tuple(sp.tau_h(sp.random_eh(
        n, math.sqrt(2.0), orth_rng)).A for _ in range(2)), coeffs=(0.8j, c1))
    cases = [
        (qz.b_coeff_mc(1, 1, cfg), _moment_batch(1, 1), qz._b_coeff_mc_scale(1, 1)),
        (qz.b_coeff_mc(2, 1, cfg), _moment_batch(2, 1), qz._b_coeff_mc_scale(2, 1)),
        (qz.t_apply_eigenfunction(phi, pprime, cfg), t_batch(phi, pprime, False), t_scale),
        (qz.t_apply_eigenfunction(phi, pprime, cfg, flow_t=0.7),
         t_batch(phi, pprime, False, 0.7), t_scale * np.exp(-1j * 0.7 * (2 * n + 1))),
        (qz.t_tilde_apply_eigenfunction(phi, pprime, cfg), t_batch(phi, pprime, True),
         tilde_scale),
        (qz.kernel_reproduce_check(c0, [a1], [c1], aprime, n, cfg)[1],
         kernel_batch(n, a1, aprime), qz.vol_pnh(n) ** 2 * vol_sphere(4 * n - 1)),
        (qz.orthogonality_check(n, 1, 2, cfg, rng), orthogonality_batch(n, 1, 2, *orth_a),
         math.exp(qz.log_radial_gg(n, 3)) * qz.vol_pnh(n) * vol_sphere(4 * n - 1)),
        (qz.pairing_gg_mc(phi1, phi1, cfg), pairing_batch(n, phi1),
         math.exp(qz.log_radial_gg(n, 2)) * qz.vol_pnh(n) * vol_sphere(4 * n - 1)),
        (qz.i_coeff_mc(2, 2, cfg), _moment_batch(2, 2), qz.vol_pnh(2) / 64.0),
        (qz.moment_s7_mc(1, cfg), _moment_batch(1, 1), vol_sphere(7)),
    ]
    for got, batch, scale in cases:
        ref = mc_mean(batch, cfg).scaled(scale)
        assert got.samples == ref.samples == 70_536
        assert abs(got.value - ref.value) <= 1e-12 * abs(ref.value)
        assert abs(got.stderr - ref.stderr) <= 1e-12 * ref.stderr


def _tilde_scale(n, l):
    return (qz.vol_pnh(n) * vol_sphere(4 * n + 2) * math.sqrt(abs(qz.B_S_CONST))
            * 2.0 ** -0.5 * gamma_radial(2 * l + 4 * n + 1.5, 2.0 * math.pi))


def _joint_operator_mc(phi, pprime, dirs_of, cfg, flow_t=None):
    """The joint (p, q) estimator of T or T~: a sphere point p and a unit
    fiber point z a row, phi(p) (e^(-2it) <P(p), beta(rho(z))>)^l, unscaled."""
    m = phi.n + 1

    def batch(rng, size):
        pts = sphere_uniform(4 * m - 1, rng, size=size).reshape(size, m, 4)
        pair = _complex_pairing(pts, _complex_fiber_points(pprime, dirs_of, rng, size))
        if flow_t is not None:
            pair = np.exp(-2j * flow_t) * pair
        return _matrix_route_phi(phi, pts) * pair ** phi.l

    return mc_mean(batch, cfg)


def _joint_kernel_mc(c0, a1, c1, aprime, n, cfg):
    """The joint estimator of kernel_reproduce_check: a sphere point p, a base
    point and its horizontal covector a row, with conj<P(p), A-hat> <P(p), A'>
    evaluated at p."""
    m = n + 1

    def batch(rng, size):
        pts = sphere_uniform(4 * m - 1, rng, size=size).reshape(size, m, 4)
        base = sphere_uniform(4 * m - 1, rng, size=size).reshape(size, m, 4)
        z = _complex_fiber_points(base, sp.sp1_orbit_frame, rng, size)
        core = np.conj(_complex_pairing(pts, z)) * spl.pair_projector_amatrix(pts, aprime)
        fquad = c1 * spl.pair_projector_amatrix(z, a1)
        return _kernel_row(n, c0, fquad, core)

    return mc_mean(batch, cfg).scaled(qz.vol_pnh(n) ** 2 * vol_sphere(4 * n - 1))


def _spread(est):
    """The per-sample standard deviation behind an estimate."""
    return est.stderr * math.sqrt(est.samples)


@pytest.mark.parametrize("n", [1, 2])
def test_conditioned_oracles_agree_with_the_joint_estimator(n):
    # Integrating the sphere point exactly given the fiber point changes the
    # estimator, not its mean: T, T with the flow, T~ and the kernel check
    # agree within 3 sigma with the joint (p, q) estimator written out above,
    # and at n = l = 1 the conditioned per-sample spread is at most half the
    # joint one.
    rng = np.random.default_rng(2200 + n)
    cfg = MCConfig(samples=32_768, seed=2210 + n)
    joint_cfg = MCConfig(samples=32_768, seed=2220 + n)
    pprime = sp.random_es0(n, 1.0, rng).p
    for l in (0, 1, 2):
        phi = spl.random_hl_function(n, l, 2, rng)
        t_scale = qz._t_apply_scale(n, l) * qz.vol_pnh(n)
        flow_phase = np.exp(-1j * 0.7 * (2 * n + 1))
        cases = [
            (qz.t_apply_eigenfunction(phi, pprime, cfg),
             _joint_operator_mc(phi, pprime, sp.sp1_orbit_frame, joint_cfg).scaled(t_scale)),
            (qz.t_apply_eigenfunction(phi, pprime, cfg, flow_t=0.7),
             _joint_operator_mc(phi, pprime, sp.sp1_orbit_frame, joint_cfg, 0.7)
             .scaled(t_scale * flow_phase)),
            (qz.t_tilde_apply_eigenfunction(phi, pprime, cfg),
             _joint_operator_mc(phi, pprime, lambda p: p[None], joint_cfg)
             .scaled(_tilde_scale(n, l))),
        ]
        for got, joint in cases:
            assert abs(got.value - joint.value) <= (3.0 * math.hypot(got.stderr, joint.stderr)
                                                   + 1e-12 * abs(joint.value))
            if n == l == 1:
                assert _spread(got) <= 0.5 * _spread(joint)
    a1 = sp.tau_h(sp.random_eh(n, math.sqrt(2.0), rng)).A
    aprime = sp.tau_h(sp.random_eh(n, math.sqrt(2.0), rng)).A
    _, got = qz.kernel_reproduce_check(0.7, [a1], [0.4 - 0.3j], aprime, n, cfg)
    joint = _joint_kernel_mc(0.7, a1, 0.4 - 0.3j, aprime, n, joint_cfg)
    assert abs(got.value - joint.value) <= 3.0 * math.hypot(got.stderr, joint.stderr)
    if n == 1:
        assert _spread(got) <= 0.5 * _spread(joint)


def test_conditioned_oracles_stop_at_their_budget():
    # The inputs of the fiber benchmark at n = l = 1: phi = c <., A_1> with
    # A_1 = tau_h(alpha(p', q)), the kernel test function built on (p', -q).
    # Each conditioned oracle meets its target at its budget; the joint
    # estimators, with 2-4x the per-sample variance, would extend.
    rng = np.random.default_rng([11, 1])
    pt = sp.random_es0(1, 1.0, rng)
    pprime = np.array(pt.p)
    a_fwd = sp.tau_h(sp.alpha(pt)).A
    a_bwd = sp.tau_h(sp.alpha(sp.SphereCovector(pt.p, -pt.q))).A
    phase = complex(np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))
    phi = spl.HlFunction(n=1, l=1, amats=(a_fwd,), coeffs=(phase,))
    cases = [
        (lambda cfg: qz.t_apply_eigenfunction(phi, pprime, cfg), 65_536, 0.0063),
        (lambda cfg: qz.t_tilde_apply_eigenfunction(phi, pprime, cfg), 131_072, 0.0059),
        (lambda cfg: qz.kernel_reproduce_check(0.7, [a_bwd], [0.4 - 0.3j], a_fwd, 1, cfg)[1],
         65_536, 0.0082),
    ]
    for k, (call, budget, target) in enumerate(cases):
        est = call(MCConfig(samples=budget, seed=2300 + k, target_rel_stderr=target))
        assert est.samples == budget
        assert est.stderr <= target * abs(est.value)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_b_coeff_mc_mean_at_one_fiber_point_is_the_closed_form(n, rng):
    # The sphere mean of |<P(p), A-hat>|^(2l) is the same at every unit
    # horizontal fiber point, so at one of them b_coeff_mc's scale times
    # sphere_moment(conj M-hat, M-hat, l, l) is b_l, with no Monte Carlo:
    # at a random one and at b_coeff_mc's z_0 = e_0 + i e_1.
    pt = sp.random_es0(n, 1.0, rng)
    for z in (pt.p + 1j * pt.q, _z0(n)):
        mhat = _complex_hat_forms(z[None])[0]
        for l in range(9):
            got = qz._b_coeff_mc_scale(n, l) * sphere_moment(np.conj(mhat), mhat, l, l)
            assert abs(got - qz.b_coeff(n, l)) <= 1e-12 * qz.b_coeff(n, l)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_b_coeff_mc_form_is_the_moment_form(n, rng):
    # b_coeff_mc draws the I_l moment's variable: the form of
    # beta(rho(z_0)) is [[I_4, i I_4], [i I_4, -I_4]] on the first two
    # quaternions and 0 elsewhere, so the reference pairing at z_0 gives
    # |<P(p), A-hat_0>|^2 = (|p_0|^2 - |p_1|^2)^2 + 4 (p_0.p_1)^2
    m = n + 1
    ahat0 = sp.beta_blocks(alg.rho(_z0(n)))
    form = np.zeros((4 * m, 4 * m), dtype=complex)
    form[:8, :8] = np.kron([[1.0, 1j], [1j, -1.0]], np.eye(4))
    assert np.abs(spl.quad_form_matrix(ahat0) - form).max() == 0.0
    pts = sphere_uniform(4 * m - 1, rng, size=256).reshape(256, m, 4)
    p0, p1 = pts[:, 0], pts[:, 1]
    moment = ((p0 ** 2).sum(1) - (p1 ** 2).sum(1)) ** 2 + 4.0 * (p0 * p1).sum(1) ** 2
    pairing = np.abs(spl.pair_projector_amatrix(pts, ahat0)) ** 2
    for l in (1, 2):
        assert (np.abs(pairing ** l - moment ** l) <= 1e-12 * moment ** l).all()


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("l", [1, 2])
def test_mc_oracles_keep_the_per_sample_law(n, l):
    # i_coeff_mc draws its chi-squares as sums of exponentials, and may not
    # change the per-sample law: the relative standard deviation a sample,
    # stderr sqrt(N) / |value|, is that of the defining integrand, exactly,
    # from I_(2l) / I_l^2.  b_coeff_mc draws the same variable
    # (test_b_coeff_mc_form_is_the_moment_form): the ratio of its integrand's
    # degree-4l and squared degree-2l sphere moments at M_0 is the same number.
    m0 = spl.quad_form_matrix(sp.beta_blocks(alg.rho(_z0(n))))
    b_ratio = np.real(sphere_moment(np.conj(m0), m0, 2 * l, 2 * l)
                      / sphere_moment(np.conj(m0), m0, l, l) ** 2)

    def s(k):
        return qz.i_coeff(n, k) * 8.0 ** k / qz.vol_pnh(n)

    i_ratio = s(2 * l) / s(l) ** 2
    assert abs(b_ratio - i_ratio) <= 1e-12 * i_ratio
    exact = math.sqrt(i_ratio - 1.0)
    est = qz.i_coeff_mc(n, l, MCConfig(samples=1 << 18, seed=2525))
    got = est.stderr * math.sqrt(est.samples) / abs(est.value)
    assert abs(got - exact) <= 0.03 * exact


@pytest.mark.parametrize("call", [
    lambda cfg: qz.i_coeff_mc(0, 1, cfg),
    lambda cfg: qz.i_coeff_mc(1, -1, cfg),
    lambda cfg: qz.moment_s7_mc(-1, cfg),
    lambda cfg: qz.b_coeff_mc(0, 1, cfg),
    lambda cfg: qz.b_coeff_mc(1, -1, cfg),
    lambda cfg: qz.moment_s7(-1),
], ids=["i_coeff_mc-n0", "i_coeff_mc-l-1", "moment_s7_mc-l-1", "b_coeff_mc-n0",
        "b_coeff_mc-l-1", "moment_s7-l-1"])
def test_oracles_refuse_bad_n_and_l(call):
    # the Monte Carlo oracles refuse what their closed forms refuse, before
    # any draw: a 1-sample run of a draw-first oracle would not raise
    with pytest.raises(ValueError, match=r"need n >= 1 and l >= 0"):
        call(MCConfig(samples=1, seed=0))


def _random_sp(m, rng):
    """A random element of Sp(m): quaternionic Gram-Schmidt of the columns of
    a normal (m, m) quaternion matrix, so that g* g = 1."""
    g = rng.standard_normal((m, m, 4))
    for j in range(m):
        for i in range(j):
            coef = alg.qmul(alg.qconj(g[:, i]), g[:, j]).sum(axis=0)
            g[:, j] -= alg.qmul(g[:, i], coef)
        g[:, j] /= np.sqrt((g[:, j] ** 2).sum())
    return g


def _left_act(g, p):
    """(g p)_i = sum_j g_ij p_j for quaternion vectors p (..., m, 4)."""
    return alg.qmul(g, p[..., None, :, :]).sum(axis=-2)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_b_integrand_is_sp_invariant(n, rng):
    # the premise of b_coeff_mc's fixed base point: g in Sp(n+1) acting on
    # the sphere point p, the base x and its horizontal covector q leaves
    # |<P(p), beta(rho(x + i q))>|^(2l) unchanged and q horizontal at x
    m, size = n + 1, 64
    g = _random_sp(m, rng)
    gram = alg.qmul(alg.qconj(g[:, :, None]), g[:, None, :]).sum(axis=0)
    assert np.abs(gram - np.eye(m)[:, :, None] * np.array([1.0, 0, 0, 0])).max() <= 1e-14
    pts = sphere_uniform(4 * m - 1, rng, size=size).reshape(size, m, 4)
    fiber = [sp.random_es0(n, 1.0, rng) for _ in range(size)]
    x = np.stack([pt.p for pt in fiber])
    q = np.stack([pt.q for pt in fiber])
    gx, gq = _left_act(g, x), _left_act(g, q)
    assert np.abs(alg.hinner(gq, gx)).max() <= 1e-14
    before = np.abs(_complex_pairing(pts, x + 1j * q))
    after = np.abs(_complex_pairing(_left_act(g, pts), gx + 1j * gq))
    for l in (1, 2, 3):
        assert np.abs(after ** (2 * l) - before ** (2 * l)).max() <= 1e-12 * before.max() ** (2 * l)


def test_operator_identity_t(rng):
    for l in (0, 1):
        phi = spl.random_hl_function(1, l, 2, rng)
        pprime = sp.random_es0(1, 1.0, rng).p
        target = qz.a_coeff(1, l) * complex(phi.eval_sphere(pprime[None])[0])
        est = qz.t_apply_eigenfunction(phi, pprime, MCConfig(samples=300_000, seed=60 + l))
        assert abs(est.value - target) <= 0.02 * abs(target)


def test_operator_identity_t_tilde(rng):
    for l in (0, 1):
        phi = spl.random_hl_function(1, l, 2, rng)
        pprime = sp.random_es0(1, 1.0, rng).p
        target = qz.c_coeff(1, l) * complex(phi.eval_sphere(pprime[None])[0])
        est = qz.t_tilde_apply_eigenfunction(phi, pprime, MCConfig(samples=300_000, seed=70 + l))
        assert abs(est.value - target) <= 0.02 * abs(target)


@pytest.mark.parametrize("apply", [qz.t_apply_eigenfunction, qz.t_tilde_apply_eigenfunction])
def test_operators_refuse_a_bad_base_point(apply, rng):
    # the base point is a unit vector of shape (n+1, 4) or (4n+4,) at phi.n;
    # anything else is refused by name, before any sample is drawn
    phi = spl.random_hl_function(1, 1, 2, rng)
    pprime = sp.random_es0(1, 1.0, rng).p
    cfg = MCConfig(samples=1000, seed=5)
    for bad, reason in ((2.0 * pprime, "(p,p)_E = 1 fails (residual 3.000e+00)"),
                        (np.full((2, 4), np.nan), "(p,p)_E = 1 fails (residual nan)"),
                        (np.ones(12) / math.sqrt(12.0), "got (12,)"),
                        (sp.random_es0(2, 1.0, rng).p, "at n = 1, got (3, 4)"),
                        (pprime[None], "got (1, 2, 4)")):
        with pytest.raises(ValueError, match="base point") as err:
            apply(phi, bad, cfg)
        assert reason in str(err.value)
    # the flat and the (n+1, 4) forms of one point give one estimate
    assert apply(phi, pprime.ravel(), cfg) == apply(phi, pprime, cfg)


def test_t_apply_generic_constant(rng, monkeypatch):
    # T applied to the l = 0 eigenfunction phi = 1 is independent of the base
    # point and equals a_0; no quadratic form is built, since phi reads only
    # the row count of the draws
    def no_forms(*args):
        raise AssertionError("l = 0 built a quadratic form")

    monkeypatch.setattr(spl, "quad_form_matrix", no_forms)
    one = spl.HlFunction(n=1, l=0, amats=(sp.tau_h(sp.random_eh(1, 1.0, rng)).A,),
                         coeffs=(1.0,))
    cfg = MCConfig(samples=2000, seed=3)
    vals = []
    for _ in range(2):
        p = sp.random_es0(1, 1.0, rng).p
        vals.append(qz.t_apply_eigenfunction(one, p, cfg).value)
    assert abs(vals[0] - vals[1]) < 1e-12
    assert abs(vals[0] - qz.a_coeff(1, 0)) < 1e-12


def test_flow_commutation(rng):
    assert qz.flow_commutation_scalar(1, 1, 0.7) == 0.0
    assert qz.flow_commutation_scalar(2, 3, 2.1) == 0.0
    # quantum period 2 pi, classical period pi gives phase -1
    ph_2pi = np.exp(-1j * 2 * math.pi * (2 * 1 + 2 * 1 + 1))
    ph_pi = np.exp(-1j * math.pi * (2 * 1 + 2 * 1 + 1))
    assert abs(ph_2pi - 1.0) < 1e-12
    assert abs(ph_pi + 1.0) < 1e-12
    for l in (0, 1):
        phi = spl.random_hl_function(1, l, 2, rng)
        p = sp.random_es0(1, 1.0, rng).p
        resid, stderr = qz.flow_commutation_operator_check(
            phi, p, 0.7, MCConfig(samples=50_000, seed=80 + l))
        assert resid <= max(3.0 * stderr, 1e-10)


def test_kernel_terms_and_diag(rng):
    # superexponential decay of the diagonal terms
    norm_a = 2.0 * math.sqrt(2.0)
    ratios = [math.exp(qz.log_kernel_term(1, l + 1, norm_a)
                       - qz.log_kernel_term(1, l, norm_a)) for l in range(8)]
    assert all(r2 < r1 for r1, r2 in zip(ratios, ratios[1:]))
    val, tail = qz.kernel_diag(1, norm_a)
    assert 0.0 < tail <= 0.5 * math.ulp(val)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_kernel_diag_with_underflowed_terms(n):
    # the sum of every term to l = 200, past l ~ 80 where they underflow to 0,
    # is the value the proven tail bound stops at
    for norm_a in (0.5, 2.0 * math.sqrt(2.0)):
        val, tail = qz.kernel_diag(n, norm_a)
        terms = [math.exp(qz.log_kernel_term(n, l, norm_a)) for l in range(201)]
        assert terms[-1] == 0.0
        assert abs(val - math.fsum(terms)) <= 1e-15 * val
        assert 0.0 <= tail <= 0.5 * math.ulp(val)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_kernel_diag_matches_the_3f6_closed_form(n):
    # R(A, A) = t_0 3F6(2n, 2n+1, n+3/2; 2, n+1/2, (6n+2..6n+5)/4; pi^4 |A|^2 / 8)
    for norm_a in (0.1, 0.5, 2.0 * math.sqrt(2.0), 10.0, 100.0, 1000.0):
        val, tail = qz.kernel_diag(n, norm_a)
        with mp.workdps(30):
            upper = [2 * n, 2 * n + 1, mp.mpf(2 * n + 3) / 2]
            lower = [2, mp.mpf(2 * n + 1) / 2] + [mp.mpf(6 * n + j) / 4 for j in range(2, 6)]
            want = mp.exp(qz.log_kernel_term(n, 0, norm_a)) * mp.hyper(
                upper, lower, mp.pi ** 4 * mp.mpf(norm_a) ** 2 / 8)
            assert abs(val - want) <= (1e-14 if norm_a <= 10.0 else 1e-12) * want
        assert tail <= 0.5 * math.ulp(val)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_kernel_term_ratios_strictly_decrease(n):
    # the premise of the tail bound: the log term ratios match log r(l) of the
    # kernel_diag docstring and fall strictly, here for l < 400 (at |A| = 1, y = pi^4 / 8)
    logs = [qz.log_kernel_term(n, l, 1.0) for l in range(401)]
    steps = np.diff(logs)
    assert np.all(np.diff(steps) < 0.0)
    l = np.arange(400.0)
    log_r = (np.log(math.pi ** 4 / 8 * (l + 2 * n) * (l + 2 * n + 1) * (l + n + 1.5))
             - np.log((l + 1) * (l + 2) * (l + n + 0.5))
             - sum(np.log(l + (6 * n + j) / 4) for j in range(2, 6)))
    assert np.abs(steps - log_r).max() <= 1e-10


@pytest.mark.parametrize("norm_a", [math.nan, math.inf, 0.0, -1.0])
def test_kernel_diag_refuses_a_norm_that_is_not_positive_and_finite(norm_a):
    with pytest.raises(ValueError, match="norm"):
        qz.kernel_diag(1, norm_a)


def test_kernel_diag_refuses_terms_past_the_float_range():
    # at |A| = 1e4 the terms grow past e^709 before they turn down
    with pytest.raises(ValueError, match=r"kernel term l = \d+ has log 7\d\d\.\d.*largest float"):
        qz.kernel_diag(1, 1e4)
    # at |A| = 1e300 the second term alone passes it
    with pytest.raises(ValueError, match=r"kernel term l = 1 has log .*sum of 2 terms"):
        qz.kernel_diag(1, 1e300)


def test_kernel_reproduction(rng):
    a1 = sp.tau_h(sp.random_eh(1, math.sqrt(2.0), rng)).A
    aprime = sp.tau_h(sp.random_eh(1, math.sqrt(2.0), rng)).A
    fval, rec = qz.kernel_reproduce_check(0.7, [a1], [0.4 - 0.3j], aprime, 1,
                                          MCConfig(samples=300_000, seed=91))
    assert abs(rec.value - fval) <= 3.0 * rec.stderr + 1e-12


def test_kernel_norm_bound(rng):
    for k in range(3):
        a1 = sp.tau_h(sp.random_eh(1, math.sqrt(2.0), rng)).A
        aprime = sp.tau_h(sp.random_eh(1, float(rng.uniform(1.0, 2.0)), rng)).A
        lhs, bound, slack = qz.kernel_norm_bound_check(
            0.5, [a1], [0.8j], aprime, 1, MCConfig(samples=100_000, seed=101 + k))
        assert lhs <= bound + slack


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_orthogonality_generators_are_tau_h_of_alpha_of_the_same_draws(n, monkeypatch):
    seen = []
    monkeypatch.setattr(qz, "pairing_gg_mc", lambda fa, fb, config: seen.append((fa, fb)))
    qz.orthogonality_check(n, 1, 2, MCConfig(samples=1, seed=0), np.random.default_rng(3))
    replay = np.random.default_rng(3)
    (fa, fb), = seen
    for f, l in ((fa, 1), (fb, 2)):
        want = sp.tau_h(sp.alpha(sp.random_es0(n, 1.0, replay))).A
        assert f.n == n and f.l == l and f.coeffs == (1.0,)
        assert np.abs(f.amats[0] - want).max() <= 1e-14 * alg.fro_norm(want)


def test_pairing_refuses_functions_of_different_n(rng, monkeypatch):
    def no_draws(*args):
        raise AssertionError("pairing_gg_mc drew samples")

    monkeypatch.setattr(qz, "_mc_blocks", no_draws)
    f1, f2 = spl.random_hl_function(1, 1, 1, rng), spl.random_hl_function(2, 1, 1, rng)
    for fa, fb in ((f1, f2), (f2, f1), ((f1, f1), (f1, f2))):
        with pytest.raises(ValueError, match="one n"):
            qz.pairing_gg_mc(fa, fb, MCConfig(samples=1, seed=0))


def test_orthogonality_of_degrees(rng):
    est = qz.orthogonality_check(1, 0, 1, MCConfig(samples=200_000, seed=111), rng)
    assert abs(est.value) <= 3.0 * est.stderr
    est2 = qz.orthogonality_check(1, 1, 2, MCConfig(samples=200_000, seed=112), rng)
    assert abs(est2.value) <= 3.0 * est2.stderr
