"""Eigenspace dimensions, eigenvalues, harmonicity and invariance certificates."""

import warnings

import numpy as np
import pytest

from qpquant import spectral as spec
from qpquant import spaces as sp
from qpquant.algebra import rho
from qpquant.numerics import sphere_uniform


def test_dimensions_match_degree_2l_sphere_harmonics():
    # n = 1: dim H_l equals the S^4 spherical-harmonic dimension at degree l
    for l in range(11):
        expected = (l + 1) * (l + 2) * (2 * l + 3) // 6
        assert spec.dim_eigenspace(1, l) == expected
    assert spec.dim_eigenspace(1, 0) == 1
    assert spec.dim_eigenspace(1, 1) == 5
    assert spec.dim_eigenspace(1, 2) == 14
    assert spec.dim_eigenspace(2, 0) == 1


def _weyl_dim_sp(n, l):
    """Weyl dimension formula for Sp(n+1) at highest weight l(e1 + e2)."""
    rho = [n + 1 - i for i in range(n + 1)]
    v = [x + y for x, y in zip([l, l] + [0] * (n - 1), rho)]
    num = den = 1
    for i in range(n + 1):
        num, den = num * v[i], den * rho[i]
        for j in range(i + 1, n + 1):
            num *= (v[i] - v[j]) * (v[i] + v[j])
            den *= (rho[i] - rho[j]) * (rho[i] + rho[j])
    return num // den


def test_dimensions_exact_past_float_precision():
    # the log-gamma float evaluation first rounds wrong at (n, l) = (2, 128)
    assert spec.dim_eigenspace(2, 128) == _weyl_dim_sp(2, 128) == 1790197508385
    for n in (1, 2, 3):
        assert all(spec.dim_eigenspace(n, l) == _weyl_dim_sp(n, l) for l in range(200))
    l = 10 ** 6
    assert spec.dim_eigenspace(1, l) == (l + 1) * (l + 2) * (2 * l + 3) // 6


def test_eigenvalues():
    assert spec.eigenvalue(1, 1) == 16.0
    for n in (1, 2, 3):
        assert spec.eigenvalue(n, 0) == 0.0
    assert spec.eigenvalue_sqrt_shift(2, 3) == 11.0
    # identity holds exactly in floating point
    for n in (1, 4, 8):
        for l in (0, 7, 10 ** 6):
            s = spec.eigenvalue_sqrt_shift(n, l)
            assert s * s == spec.eigenvalue(n, l) + (2 * n + 1) ** 2


def test_sphere_descent():
    for n in (1, 2):
        for l in range(6):
            assert spec.sphere_descent_residual(n, l) == 0.0
    assert spec.sphere_descent_residual(1, 1) == 0.0  # 16 = 2*2*(2+6)


def canonical_amatrix():
    expected = np.zeros((4, 4), dtype=complex)
    expected[:2, :2] = np.eye(2)
    expected[:2, 2:] = 1j * np.eye(2)
    expected[2:, :2] = 1j * np.eye(2)
    expected[2:, 2:] = -np.eye(2)
    return expected


def test_quad_form_matches_pairing(rng):
    a = canonical_amatrix()
    m = spec.quad_form_matrix(a)
    pts = rng.standard_normal((1000, 2, 4))
    direct = spec.pair_projector_amatrix(pts, a)
    via_m = np.einsum("ni,ij,nj->n", pts.reshape(1000, 8), m, pts.reshape(1000, 8))
    assert np.abs(direct - via_m).max() < 1e-12 * max(1.0, np.abs(direct).max())
    assert np.array_equal(m, m.T)
    # the canonical pairing: <P, A0> = (|p0|^2 - |p1|^2) + 2i (p0, p1)_E
    p = rng.standard_normal((2, 4))
    val = spec.pair_projector_amatrix(p, a)
    expect = (p[0] @ p[0] - p[1] @ p[1]) + 2j * (p[0] @ p[1])
    assert abs(val - expect) < 1e-12


def test_pairing_batched_amatrix_matches_fixed(rng):
    amats = np.stack([sp.tau_h(sp.random_eh(2, 1.3, rng)).A for _ in range(20)])
    pts = rng.standard_normal((20, 3, 4))
    batched = spec.pair_projector_amatrix(pts, amats)
    fixed = [spec.pair_projector_amatrix(p, a) for p, a in zip(pts, amats)]
    assert np.abs(batched - fixed).max() <= 1e-14 * np.abs(batched).max()
    # a batch of one repeated matrix is the fixed-matrix call
    rep = spec.pair_projector_amatrix(pts, np.broadcast_to(amats[0], amats.shape))
    assert np.abs(rep - spec.pair_projector_amatrix(pts, amats[0])).max() \
        <= 1e-14 * np.abs(rep).max()


def test_polarized_pairing_matches_complexified_product(rng):
    from qpquant.algebra import cbilinear, complexify, qconj, qmul
    for n in (1, 2, 3):
        amats = np.stack([sp.tau_h(sp.random_eh(n, 1.3, rng)).A for _ in range(20)])
        pts, qts = rng.standard_normal((2, 20, n + 1, 4))
        # a matrix off the A-model (A^sharp != A) is paired by the same definition
        d = 2 * n + 2
        generic = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        batched = spec.pair_projector_amatrix(pts, amats, qts)
        for p, q, a, val in zip(pts, qts, amats, batched):
            # complexify(p_i theta(q_j)) has the blocks rho(p_i) adj(rho(q_j))
            mixed = complexify(qmul(p[:, None, :], qconj(q)[None, :, :]))
            direct = 0.5 * np.trace(mixed @ a)
            assert abs(val - direct) <= 1e-13 * max(1.0, abs(direct))
            assert spec.pair_projector_amatrix(p, a, q) == val
            off = cbilinear(mixed, generic)
            assert abs(spec.pair_projector_amatrix(p, generic, q) - off) <= 1e-13 * max(1.0, abs(off))
        # q = p is the projector pairing
        assert np.array_equal(spec.pair_projector_amatrix(pts, amats, pts),
                              spec.pair_projector_amatrix(pts, amats))
        # the pairing tensor is built once per size and read-only
        g = spec._pairing_tensor(n + 1)
        assert g is spec._pairing_tensor(n + 1) and not g.flags.writeable


def test_harmonicity_certificate_canonical_and_random(rng):
    cert = spec.harmonicity_certificate(canonical_amatrix())
    assert cert["trace_residual"] <= 1e-12
    assert cert["null_gradient_residual"] <= 1e-12
    for n in (1, 2):
        for _ in range(15):
            am = sp.tau_h(sp.random_eh(n, float(rng.uniform(0.5, 2.0)), rng))
            cert = spec.harmonicity_certificate(am)
            assert cert["trace_residual"] <= 1e-10
            assert cert["null_gradient_residual"] <= 1e-10


def test_laplacian_fd_spot_check(rng):
    a = canonical_amatrix()
    for l in (1, 2, 3):
        p = rng.standard_normal(8)
        lap = spec.laplacian_fd(a, l, p)
        scale = max(1.0, abs(spec.pair_projector_amatrix(p.reshape(2, 4), a)) ** l)
        assert abs(lap) < 5e-5 * scale * (1 + np.linalg.norm(p)) ** (2 * l)


def test_negative_control_violating_membership(rng):
    bad = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    bad = bad + bad.T  # symmetric but no quaternionic structure
    m = spec.quad_form_matrix(bad)
    assert np.array_equal(m, m.T)
    resid = float(np.sqrt(np.sum(np.abs(m @ m) ** 2))) / max(1.0, np.abs(m).max()) ** 2
    assert abs(np.trace(m)) > 1e-2 or resid > 1e-2
    with pytest.raises(ValueError):
        spec.harmonicity_certificate(bad)


def test_sp1_invariance(rng):
    am = sp.tau_h(sp.random_eh(1, 1.0, rng))
    assert spec.sp1_invariance_residual(am.A, 1000, rng) <= 1e-12
    # r = e0 acts trivially, exactly
    p = sp.random_es0(1, 1.0, rng).p
    e0 = np.array([1.0, 0.0, 0.0, 0.0])
    from qpquant.algebra import qmul
    assert np.all(qmul(p, np.broadcast_to(e0, p.shape)) == p)
    # the mixed (p_i theta(q_j)) comparator is genuinely not invariant
    pt = sp.random_es0(1, 1.0, rng)
    r = sphere_uniform(3, rng)
    assert spec.mixed_term_noninvariance(pt.p, pt.q, am.A, r) > 1e-3


def test_random_hl_functions_evaluate(rng):
    f = spec.random_hl_function(1, 2, 3, rng)
    pts = rng.standard_normal((50, 2, 4))
    pts /= np.linalg.norm(pts.reshape(50, 8), axis=1)[:, None, None]
    vals = f.eval_sphere(pts)
    assert vals.shape == (50,)
    assert np.all(np.isfinite(vals))


def test_pairing_of_complex_points_is_the_bilinear_extension(rng):
    from qpquant.algebra import cbilinear, rho
    for n in (1, 2):
        m = n + 1
        a = sp.tau_h(sp.random_eh(n, 1.3, rng)).A
        form = spec.quad_form_matrix(a)
        z = rng.standard_normal((20, m, 4)) + 1j * rng.standard_normal((20, m, 4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = spec.pair_projector_amatrix(z, a)
            single = spec.pair_projector_amatrix(z[0], a)
        flat = z.reshape(20, 4 * m)
        via_form = np.einsum("ni,ij,nj->n", flat, form, flat)
        via_matrix = cbilinear(sp.beta_blocks(rho(z)), a)
        scale = np.abs(via_form).max()
        assert np.abs(got - via_form).max() <= 1e-13 * scale
        assert np.abs(got - via_matrix).max() <= 1e-13 * scale
        assert single == got[0]


def test_eval_sphere_is_the_sum_of_powered_pairings(rng):
    # fiber points z = p + i q, q a horizontal unit covector, from their own
    # generator so that the sphere points and functions stay as they were
    zrng = np.random.default_rng(31)
    for n in (1, 2, 3):
        m = n + 1
        pts = sphere_uniform(4 * m - 1, rng, size=100).reshape(100, m, 4)
        z = np.array([pt.p + 1j * pt.q for pt in (sp.random_es0(n, 1.0, zrng)
                                                   for _ in range(20))])
        for l in range(4):
            f = spec.random_hl_function(n, l, 3, rng)
            text = repr(f)
            ref = sum(c * spec.pair_projector_amatrix(pts, a) ** l
                      for c, a in zip(f.coeffs, f.amats))
            vals = f.eval_sphere(pts)
            assert vals.shape == (100,)
            assert np.abs(vals - ref).max() <= 1e-13 * max(1.0, np.abs(ref).max())
            one = f.eval_sphere(pts[0])
            assert np.ndim(one) == 0 and abs(one - ref[0]) <= 1e-13 * max(1.0, abs(ref[0]))
            # the stored quadratic forms are not a field
            assert repr(f) == text
            assert f == spec.HlFunction(n=f.n, l=f.l, amats=f.amats, coeffs=f.coeffs)
            # at a fiber point z, eval_sphere is the extension at beta(rho(z))
            coeffs = zrng.standard_normal(3) + 1j * zrng.standard_normal(3)
            g = spec.HlFunction(n=n, l=l, amats=f.amats, coeffs=tuple(coeffs.tolist()))
            for zi, val in zip(z, g.eval_sphere(z)):
                at_a = g.eval_amatrix(sp.beta_blocks(rho(zi)))
                assert abs(val - at_a) <= 1e-12 * abs(at_a)
