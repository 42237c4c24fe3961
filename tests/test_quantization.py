"""Closed-form constants vs oracles, operators, flow identity, kernel."""

import copy
import math

import numpy as np
import pytest

from qpquant import algebra as alg
from qpquant import quantization as qz
from qpquant import spaces as sp
from qpquant import spectral as spl
from qpquant.numerics import MCConfig, gamma_radial, mc_mean, sphere_uniform, vol_sphere


def test_weights_reduce_on_the_fiber():
    # |q| = 1 gives |A| = 2 sqrt(2): mixed-weight exponent is exactly -2 pi
    norm_a = 2.0 * math.sqrt(2.0)
    w = qz.weight_pair_fg(norm_a)
    expect = math.exp(-2 * math.pi) * math.sqrt(abs(qz.B_H_CONST)) * math.sqrt(norm_a)
    assert abs(w - expect) < 1e-15
    assert abs(2.0 ** 0.25 * math.pi * math.sqrt(norm_a) - 2.0 * math.pi) < 1e-12
    # wholesale weights vanish at the zero section
    assert qz.weight_pair_gg(1e-30, 1) < 1e-30
    assert qz.weight_sphere(4.0) == pytest.approx(
        math.exp(-4 * math.pi) / 2.0)


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


def test_b_coeff_two_assemblies_and_mc():
    for n in (1, 2):
        for l in range(4):
            c = qz.b_coeff(n, l)
            s = qz.b_coeff_semianalytic(n, l)
            assert abs(c - s) <= 1e-8 * c
            assert c > 0
    for l in (0, 1):
        est = qz.b_coeff_mc(1, l, MCConfig(samples=150_000, seed=7))
        assert est.stderr <= 0.01 * est.value + 1e-30
        assert est.within(qz.b_coeff(1, l), nsigma=3.0, floor=1e-12 * est.value)


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


def test_matrix_free_pairing_is_the_matrix_pairing(rng):
    # <P(p), beta(rho(z))>_C = sum_a <p, z>_H,a^2 without forming beta(rho(z)):
    # horizontal q (T), full-sphere q (T~) and arbitrary complex z
    size = 256
    for n in (1, 2, 3):
        m = n + 1
        pts = sphere_uniform(4 * m - 1, rng, size=size).reshape(size, m, 4)
        base = sphere_uniform(4 * m - 1, rng, size=size).reshape(size, m, 4)
        horizontal = _loop_unit_covectors(sp.sp1_orbit_frame(base), rng)
        full = _loop_unit_covectors(base[None], rng)
        generic = rng.standard_normal((2, size, m, 4))
        for z in (base + 1j * horizontal, base + 1j * full, generic[0] + 1j * generic[1]):
            ref = spl.pair_projector_amatrix(pts, sp.beta_blocks(alg.rho(z)))
            got = spl._pair_projector_fiber(pts, z.real.reshape(size, -1),
                                            z.imag.reshape(size, -1))
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


def _matrix_route_fiber(p, rng, size):
    """A-hat = beta(rho(p + i q)) at uniform unit horizontal q, as a matrix."""
    p = np.broadcast_to(p, (size,) + p.shape[-2:])
    q = _loop_unit_covectors(sp.sp1_orbit_frame(p), rng)
    return sp.beta_blocks(alg.rho(p + 1j * q))


def _matrix_route_phi(phi, pts):
    return sum(c * spl.pair_projector_amatrix(pts, a) ** phi.l
               for c, a in zip(phi.coeffs, phi.amats))


def test_matrix_free_oracles_keep_the_matrix_route_draws(rng):
    # the fiber oracles pair fiber points z directly; the matrix route they
    # replaced, written out here, gives the same estimate from the same draws
    n, m, l = 1, 2, 1
    cfg = MCConfig(samples=8192, seed=4242)
    phi = spl.random_hl_function(n, l, 2, rng)
    pprime = sp.random_es0(n, 1.0, rng).p
    a1 = sp.tau_h(sp.random_eh(n, math.sqrt(2.0), rng)).A
    aprime = sp.tau_h(sp.random_eh(n, math.sqrt(2.0), rng)).A
    c0, c1 = 0.7, 0.4 - 0.3j

    def b_batch(rng, size):
        pts = sphere_uniform(4 * m - 1, rng, size=size).reshape(size, m, 4)
        base = sphere_uniform(4 * m - 1, rng, size=size).reshape(size, m, 4)
        ahat = _matrix_route_fiber(base, rng, size)
        return np.abs(spl.pair_projector_amatrix(pts, ahat)) ** (2 * l)

    def t_batch(flow_t):
        def batch(rng, size):
            pts = sphere_uniform(4 * m - 1, rng, size=size).reshape(size, m, 4)
            ahat = _matrix_route_fiber(pprime, rng, size)
            if flow_t is not None:
                ahat = np.exp(-2j * flow_t) * ahat
            return _matrix_route_phi(phi, pts) * spl.pair_projector_amatrix(pts, ahat) ** l
        return batch

    def t_tilde_batch(rng, size):
        pts = sphere_uniform(4 * m - 1, rng, size=size).reshape(size, m, 4)
        base = np.broadcast_to(pprime, (size, m, 4))
        ahat = sp.beta_blocks(alg.rho(base + 1j * _loop_unit_covectors(base[None], rng)))
        return _matrix_route_phi(phi, pts) * spl.pair_projector_amatrix(pts, ahat) ** l

    def kernel_batch(rng, size):
        pts = sphere_uniform(4 * m - 1, rng, size=size).reshape(size, m, 4)
        base = sphere_uniform(4 * m - 1, rng, size=size).reshape(size, m, 4)
        ahat = _matrix_route_fiber(base, rng, size)
        core = np.conj(spl.pair_projector_amatrix(pts, ahat)) \
            * spl.pair_projector_amatrix(pts, aprime)
        fquad = c1 * alg.cbilinear(ahat, a1)
        radial = [math.exp(qz.log_radial_gg(n, k)) for k in range(3)]
        return (math.exp(-qz.log_b_coeff(n, 0)) * (c0 * radial[0] + fquad * radial[1])
                + math.exp(-qz.log_b_coeff(n, 1)) * (c0 * core * radial[1]
                                                    + fquad * core * radial[2]))

    t_scale = qz._t_apply_scale(n, l) * qz.vol_pnh(n)
    flow_phase = np.exp(-1j * 0.7 * (2 * n + 1))
    tilde_scale = (qz.vol_pnh(n) * vol_sphere(4 * n + 2) * math.sqrt(abs(qz.B_S_CONST))
                   * 2.0 ** -0.5 * gamma_radial(2 * l + 4 * n + 1.5, 2.0 * math.pi))
    cases = [
        (qz.b_coeff_mc(n, l, cfg), b_batch,
         math.exp(qz.log_radial_gg(n, 2 * l)) * qz.vol_pnh(n) ** 2 * vol_sphere(4 * n - 1)
         / spl.dim_eigenspace(n, l)),
        (qz.t_apply_eigenfunction(phi, pprime, cfg), t_batch(None), t_scale),
        (qz.t_apply_eigenfunction(phi, pprime, cfg, flow_t=0.7), t_batch(0.7),
         t_scale * flow_phase),
        (qz.t_tilde_apply_eigenfunction(phi, pprime, cfg), t_tilde_batch, tilde_scale),
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


def test_blocked_oracles_keep_the_complex_route_draws(rng):
    # 65,536 + 5,000 samples: the second chunk ends in a partial row block.
    # Each oracle agrees with its whole-chunk complex-point batch, written
    # out here, on the same draws.
    cfg = MCConfig(samples=65_536 + 5_000, seed=9090)
    c0, c1 = 0.7, 0.4 - 0.3j

    def horizontal(p):
        return sp.sp1_orbit_frame(p)

    def b_batch(n, l):
        m = n + 1

        def batch(rng, size):
            pts = sphere_uniform(4 * m - 1, rng, size=size).reshape(size, m, 4)
            base = sphere_uniform(4 * m - 1, rng, size=size).reshape(size, m, 4)
            z = _complex_fiber_points(base, horizontal, rng, size)
            return np.abs(_complex_pairing(pts, z)) ** (2 * l)
        return batch

    def b_scale(n, l):
        return (math.exp(qz.log_radial_gg(n, 2 * l)) * qz.vol_pnh(n) ** 2
                * vol_sphere(4 * n - 1) / spl.dim_eigenspace(n, l))

    def t_batch(phi, pprime, dirs_of, flow_t=None):
        m = phi.n + 1

        def batch(rng, size):
            pts = sphere_uniform(4 * m - 1, rng, size=size).reshape(size, m, 4)
            pair = _complex_pairing(pts, _complex_fiber_points(pprime, dirs_of, rng, size))
            if flow_t is not None:
                pair = np.exp(-2j * flow_t) * pair
            return _matrix_route_phi(phi, pts) * pair ** phi.l
        return batch

    def kernel_batch(n, a1, aprime):
        m = n + 1
        radial = [math.exp(qz.log_radial_gg(n, k)) for k in range(3)]

        def batch(rng, size):
            pts = sphere_uniform(4 * m - 1, rng, size=size).reshape(size, m, 4)
            base = sphere_uniform(4 * m - 1, rng, size=size).reshape(size, m, 4)
            z = _complex_fiber_points(base, horizontal, rng, size)
            core = np.conj(_complex_pairing(pts, z)) * spl.pair_projector_amatrix(pts, aprime)
            fquad = c1 * spl.pair_projector_amatrix(z, a1)
            return (math.exp(-qz.log_b_coeff(n, 0)) * (c0 * radial[0] + fquad * radial[1])
                    + math.exp(-qz.log_b_coeff(n, 1)) * (c0 * core * radial[1]
                                                        + fquad * core * radial[2]))
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

    def moment_batch(dim, l):
        def batch(rng, size):
            pts = sphere_uniform(dim, rng, size=size)
            p0, p1 = pts[:, 0:4], pts[:, 4:8]
            a = (p0 ** 2).sum(1) - (p1 ** 2).sum(1)
            b = (p0 * p1).sum(1)
            return (a * a + 4.0 * b * b) ** l
        return batch

    n, l = 1, 1
    phi = spl.random_hl_function(n, l, 2, rng)
    pprime = sp.random_es0(n, 1.0, rng).p
    a1 = sp.tau_h(sp.random_eh(n, math.sqrt(2.0), rng)).A
    aprime = sp.tau_h(sp.random_eh(n, math.sqrt(2.0), rng)).A
    t_scale = qz._t_apply_scale(n, l) * qz.vol_pnh(n)
    tilde_scale = (qz.vol_pnh(n) * vol_sphere(4 * n + 2) * math.sqrt(abs(qz.B_S_CONST))
                   * 2.0 ** -0.5 * gamma_radial(2 * l + 4 * n + 1.5, 2.0 * math.pi))
    orth_rng = copy.deepcopy(rng)
    orth_a = [sp.tau_h(sp.random_eh(n, math.sqrt(2.0), orth_rng)).A for _ in range(2)]
    # the linear part of the kernel-bound test function: two terms, complex coefficients
    phi1 = spl.HlFunction(n=n, l=1, amats=tuple(sp.tau_h(sp.random_eh(
        n, math.sqrt(2.0), orth_rng)).A for _ in range(2)), coeffs=(0.8j, c1))
    cases = [
        (qz.b_coeff_mc(1, 1, cfg), b_batch(1, 1), b_scale(1, 1)),
        (qz.b_coeff_mc(2, 1, cfg), b_batch(2, 1), b_scale(2, 1)),
        (qz.t_apply_eigenfunction(phi, pprime, cfg), t_batch(phi, pprime, horizontal),
         t_scale),
        (qz.t_apply_eigenfunction(phi, pprime, cfg, flow_t=0.7),
         t_batch(phi, pprime, horizontal, 0.7), t_scale * np.exp(-1j * 0.7 * (2 * n + 1))),
        (qz.t_tilde_apply_eigenfunction(phi, pprime, cfg),
         t_batch(phi, pprime, lambda p: p[None]), tilde_scale),
        (qz.kernel_reproduce_check(c0, [a1], [c1], aprime, n, cfg)[1],
         kernel_batch(n, a1, aprime), qz.vol_pnh(n) ** 2 * vol_sphere(4 * n - 1)),
        (qz.orthogonality_check(n, 1, 2, cfg, rng), orthogonality_batch(n, 1, 2, *orth_a),
         math.exp(qz.log_radial_gg(n, 3)) * qz.vol_pnh(n) * vol_sphere(4 * n - 1)),
        (qz.pairing_gg_mc(phi1, phi1, cfg), pairing_batch(n, phi1),
         math.exp(qz.log_radial_gg(n, 2)) * qz.vol_pnh(n) * vol_sphere(4 * n - 1)),
        (qz.i_coeff_mc(2, 2, cfg), moment_batch(11, 2), qz.vol_pnh(2) / 64.0),
        (qz.moment_s7_mc(1, cfg), moment_batch(7, 1), vol_sphere(7)),
    ]
    for got, batch, scale in cases:
        ref = mc_mean(batch, cfg).scaled(scale)
        assert got.samples == ref.samples == 70_536
        assert abs(got.value - ref.value) <= 1e-12 * abs(ref.value)
        assert abs(got.stderr - ref.stderr) <= 1e-12 * ref.stderr


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


def test_t_apply_generic_constant(rng):
    # T applied to the l = 0 eigenfunction phi = 1 is independent of the base
    # point and equals a_0
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
    val, tail = qz.kernel_diag(1, norm_a, lmax=25)
    val2, _ = qz.kernel_diag(1, norm_a, lmax=30)
    assert abs(val - val2) <= 1e-10 * val
    assert tail <= 1e-12 * val
    with pytest.raises(ValueError):
        qz.kernel_diag(1, 50.0, lmax=2)


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


def test_orthogonality_of_degrees(rng):
    est = qz.orthogonality_check(1, 0, 1, MCConfig(samples=200_000, seed=111), rng)
    assert abs(est.value) <= 3.0 * est.stderr
    est2 = qz.orthogonality_check(1, 1, 2, MCConfig(samples=200_000, seed=112), rng)
    assert abs(est2.value) <= 3.0 * est2.stderr
