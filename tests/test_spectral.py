"""Eigenspace dimensions, eigenvalues, harmonicity and invariance certificates."""

import warnings
from dataclasses import fields

import numpy as np
import pytest

from qpquant import quantization as qz
from qpquant import spectral as spec
from qpquant import spaces as sp
from qpquant.algebra import cbilinear, complexify, qconj, qmul, rho
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
    # one point against a batch of N matrices gives N values, one per matrix
    one = spec.pair_projector_amatrix(pts[0], amats)
    assert one.shape == (20,)
    assert np.array_equal(one, [spec.pair_projector_amatrix(pts[0], a) for a in amats])


def _pairing_tensor_oracle(m):
    """The pairing tensor G, (4m^2, 16m^2): row cd holds
    cbilinear(complexify(e_a theta(e_b)), E_cd) over the basis products
    (i, a), (j, b), E_cd the matrix units, so that the (4m, 4m) reshape of
    A.ravel() @ G is the pairing form of A before symmetrisation."""
    basis = np.eye(4 * m).reshape(4 * m, m, 4)
    prods = complexify(qmul(basis[:, None, :, None], qconj(basis)[:, None]))
    units = np.eye(4 * m * m).reshape(-1, 1, 1, 2 * m, 2 * m)
    return cbilinear(prods, units).reshape(4 * m * m, -1)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_projector_is_beta_of_rho_and_forms_are_the_tensor_contraction(n, rng):
    # what the pairing rests on: complexify((z_i theta(z_j))) = beta(rho(z)),
    # since rho(theta(x)) = adj rho(x), here for complex z
    m, d = n + 1, 2 * n + 2
    z = rng.standard_normal((16, m, 4)) + 1j * rng.standard_normal((16, m, 4))
    proj = complexify(qmul(z[:, :, None], qconj(z)[:, None]))
    via_beta = sp.beta_blocks(rho(z))
    assert np.abs(via_beta - proj).max() <= 1e-14 * np.abs(proj).max()
    # quad_form_matrix is the symmetrised contraction of A with the tensor,
    # exactly, for A-model and generic complex matrices, batched or one at a time
    g = _pairing_tensor_oracle(m)
    amodel = np.stack([sp.tau_h(sp.random_eh(n, 1.3, rng)).A for _ in range(6)])
    generic = rng.standard_normal((6, d, d)) + 1j * rng.standard_normal((6, d, d))
    for batch in (amodel, generic):
        forms = (batch.reshape(6, 1, -1) @ g).reshape(6, 4 * m, 4 * m)
        expect = 0.5 * (forms + np.swapaxes(forms, -1, -2))
        got = spec.quad_form_matrix(batch)
        assert got.shape == (6, 4 * m, 4 * m)
        assert np.abs(got - expect).max() == 0.0
        for a, row in zip(batch, got):
            assert np.array_equal(spec.quad_form_matrix(a), row)


def _polarized_pairing(p, a, q):
    """<(p_i theta(q_j)), A>_C for points p and q of the same shape, one or a
    batch (N, m, 4): complexify(p_i theta(q_j)) is beta_blocks(rho(p), rho(q))."""
    return cbilinear(sp.beta_blocks(rho(p), rho(q)), a)


def test_polarized_pairing_matches_complexified_product(rng):
    for n in (1, 2, 3):
        amats = np.stack([sp.tau_h(sp.random_eh(n, 1.3, rng)).A for _ in range(20)])
        pts, qts = rng.standard_normal((2, 20, n + 1, 4))
        # a matrix off the A-model (A^sharp != A) is paired by the same definition
        d = 2 * n + 2
        generic = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        batched = _polarized_pairing(pts, amats, qts)
        for p, q, a, val in zip(pts, qts, amats, batched):
            # complexify(p_i theta(q_j)) has the blocks rho(p_i) adj(rho(q_j))
            mixed = complexify(qmul(p[:, None, :], qconj(q)[None, :, :]))
            direct = 0.5 * np.trace(mixed @ a)
            assert abs(val - direct) <= 1e-13 * max(1.0, abs(direct))
            assert _polarized_pairing(p, a, q) == val
            off = cbilinear(mixed, generic)
            assert abs(_polarized_pairing(p, generic, q) - off) <= 1e-13 * max(1.0, abs(off))
        # q = p is the projector pairing
        assert np.array_equal(_polarized_pairing(pts, amats, pts),
                              spec.pair_projector_amatrix(pts, amats))


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
    assert np.all(qmul(p, np.broadcast_to(e0, p.shape)) == p)
    # the mixed (p_i theta(q_j)) comparator is genuinely not invariant
    pt = sp.random_es0(1, 1.0, rng)
    r = sphere_uniform(3, rng)
    pr = qmul(pt.p, np.broadcast_to(r, pt.p.shape))
    mixed = _polarized_pairing(pr, am.A, pt.q) - _polarized_pairing(pt.p, am.A, pt.q)
    assert abs(mixed) > 1e-3


def test_random_hl_functions_evaluate(rng):
    f = spec.random_hl_function(1, 2, 3, rng)
    pts = rng.standard_normal((50, 2, 4))
    pts /= np.linalg.norm(pts.reshape(50, 8), axis=1)[:, None, None]
    vals = f.eval_sphere(pts)
    assert vals.shape == (50,)
    assert np.all(np.isfinite(vals))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_real_points_take_the_real_forms_to_the_complex_route(n, rng):
    # eval_sphere's one route, the complex forms M_k at the point, gives at
    # real points the reference pairing by its definition through
    # beta(rho(p)).  A real point written as a complex one, z = p + 0i,
    # gives the same values.
    m = n + 1
    pts = sphere_uniform(4 * m - 1, rng, size=512).reshape(512, m, 4)
    for l in range(3):
        f = spec.random_hl_function(n, l, 3, rng)
        ref = sum(c * spec.pair_projector_amatrix(pts, a) ** l for c, a in zip(f.coeffs, f.amats))
        scale = max(1.0, np.abs(ref).max())
        got = f.eval_sphere(pts)
        assert np.abs(got - ref).max() <= 1e-13 * scale
        assert np.abs(f.eval_sphere(pts.astype(complex)) - got).max() <= 1e-15 * scale
        assert abs(f.eval_sphere(pts[0]) - ref[0]) <= 1e-13 * scale


def _points(x, y, x0):
    """The point sets the form kernel takes: real rows x, complex rows
    x + i y, one base point x0 shared by every row (x0 + i y), one complex
    point broadcast to every row (a stride-0 view), and one point alone."""
    return (x, x + 1j * y, x0 + 1j * y, np.broadcast_to(x0 + 1j * y[0], x.shape), x[0] + 1j * y[0])


@pytest.mark.parametrize("n", [1, 2])
def test_degree_zero_eval_is_the_coefficient_sum(n, rng):
    # at l = 0 every row is sum c_k, with the dtype and row shape of the
    # forms route, at real and at complex points; no form is built
    m, size = n + 1, 8
    amats = [sp.tau_h(sp.random_eh(n, 1.0, rng)).A for _ in range(3)]
    coeffs = (0.3, -1.2 + 0.5j, 2.0)
    f = spec.HlFunction(n=n, l=0, amats=tuple(amats), coeffs=coeffs)
    x = rng.standard_normal((size, 4 * m))
    y = rng.standard_normal((size, 4 * m))
    for z in _points(x, y, x[0]):
        ref = spec._quad_forms(_forms(amats), z) ** 0 @ np.asarray(coeffs)
        got = f._eval(z)
        assert got.dtype == ref.dtype == complex and np.shape(got) == np.shape(ref)
        assert np.abs(got - sum(coeffs)).max() <= 1e-15
    pts = x.reshape(size, m, 4)
    for p in (pts, pts + 1j * y.reshape(size, m, 4), pts[0]):
        assert np.shape(f.eval_sphere(p)) == p.shape[:-2]
    assert isinstance(f.eval_sphere(pts[0]), complex)
    assert "_forms" not in vars(f)


def _forms(amats):
    """The forms M_k = quad_form_matrix(A_k), (K, d, d), that _quad_forms takes."""
    return np.stack([spec.quad_form_matrix(a) for a in amats])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_quad_forms_are_the_reference_pairing(n, rng):
    # z^t M_k z equals the reference pairing <(z_i theta(z_j)), A_k>_C through
    # beta(rho(z)): at real points, at complex points z = x + i y, at one base
    # x shared by every row, at one point broadcast to every row, and at one
    # point alone
    m, size = n + 1, 256
    amats = [sp.tau_h(sp.random_eh(n, float(r), rng)).A for r in (0.7, 1.3, 2.0)]
    forms = _forms(amats)
    x = rng.standard_normal((size, 4 * m))
    y = rng.standard_normal((size, 4 * m))
    for z in _points(x, y, sphere_uniform(4 * m - 1, rng)):
        ref = np.stack([spec.pair_projector_amatrix(z.reshape(z.shape[:-1] + (m, 4)), a)
                        for a in amats], axis=-1)
        got = spec._quad_forms(forms, z)
        assert got.shape == z.shape[:-1] + (3,)
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
    # one point gives the row it gives in a batch
    one = spec._quad_forms(forms, x[0] + 1j * y[0])
    assert np.abs(one - spec._quad_forms(forms, x + 1j * y)[0]).max() <= 1e-14 * np.abs(one).max()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_fiber_factor_is_the_reference_form(n, rng):
    # the rank-4 factor of the l >= 2 sphere moment, column k the orbit frame
    # z e_k = x e_k + i y e_k: W W^t is M-hat(z), the symmetrised pairing
    # form quad_form_matrix(beta(rho(z)))
    m, size = n + 1, 64
    x = sphere_uniform(4 * m - 1, rng)
    y = rng.standard_normal((size, 4 * m))
    w = np.swapaxes(sp._orbit_frames(x[None]) + 1j * sp._orbit_frames(y), -1, -2)
    mhat = spec.quad_form_matrix(sp.beta_blocks(rho((x + 1j * y).reshape(size, m, 4))))
    assert np.abs(w @ np.swapaxes(w, -1, -2) - mhat).max() <= 1e-13 * np.abs(mhat).max()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_random_hl_generators_are_tau_h_of_alpha_of_the_same_draws(n):
    # each generator is beta(tau_s(x)), which is tau_h(alpha(x)) at the
    # horizontal draw x = random_es0(n, 1, rng); the coefficients come after
    f = spec.random_hl_function(n, 2, 3, np.random.default_rng(7 + n))
    replay = np.random.default_rng(7 + n)
    want = [sp.tau_h(sp.alpha(sp.random_es0(n, 1.0, replay))).A for _ in range(3)]
    assert f.coeffs == tuple(replay.standard_normal(3).tolist())
    for a, ref in zip(f.amats, want):
        assert np.abs(a - ref).max() <= 1e-14 * np.linalg.norm(ref)


def test_hl_function_refuses_bad_fields(rng):
    # each field is checked when the function is made, not at its first evaluation
    a = sp.tau_h(sp.random_eh(1, 1.0, rng)).A
    cases = [({"n": 1, "l": -1, "amats": (a,), "coeffs": (1.0,)}, "l = -1"),
             ({"n": 0, "l": 1, "amats": (a,), "coeffs": (1.0,)}, "n = 0"),
             ({"n": 1, "l": 1, "amats": (a, a), "coeffs": (1.0,)}, "coeffs"),
             ({"n": 1, "l": 1, "amats": (a,), "coeffs": (1.0, 2.0)}, "coeffs"),
             ({"n": 1, "l": 1, "amats": (), "coeffs": ()}, "amats"),
             ({"n": 2, "l": 1, "amats": (a,), "coeffs": (1.0,)}, "amats"),
             ({"n": 1, "l": 1, "amats": (a[:3, :3],), "coeffs": (1.0,)}, "amats")]
    for kwargs, field in cases:
        with pytest.raises(ValueError, match=field):
            spec.HlFunction(**kwargs)


def test_degrees_must_be_integers(rng):
    # a non-integer degree is refused by name, not rounded into a Gamma
    # factor or left to math.comb; numpy integers are integers
    a = sp.tau_h(sp.random_eh(1, 1.0, rng)).A
    calls = [lambda: spec.eigenvalue(1, 1.5), lambda: qz.i_coeff(1, 1.5),
             lambda: spec.dim_eigenspace(1, 1.5),
             lambda: spec.HlFunction(n=1, l=1.5, amats=(a,), coeffs=(1.0,))]
    for call in calls:
        with pytest.raises(ValueError, match=r"need integer n and l, got n = 1, l = 1\.5"):
            call()
    with pytest.raises(ValueError, match=r"got n = 2\.0, l = 1"):
        spec.dim_eigenspace(2.0, 1)
    assert spec.eigenvalue(np.int64(1), np.int32(2)) == 40.0


def test_hl_function_equality_is_identity(rng):
    f = spec.random_hl_function(1, 2, 3, rng)
    g = spec.HlFunction(n=f.n, l=f.l, amats=tuple(a.copy() for a in f.amats),
                        coeffs=f.coeffs)
    # equal but distinct arrays compare without raising
    assert f == f and f != g
    assert len({f, g, f}) == 2


def test_pairing_of_complex_points_is_the_bilinear_extension(rng):
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
            assert [fld.name for fld in fields(f)] == ["n", "l", "amats", "coeffs"]
            # at a fiber point z, eval_sphere is the extension at beta(rho(z))
            coeffs = zrng.standard_normal(3) + 1j * zrng.standard_normal(3)
            g = spec.HlFunction(n=n, l=l, amats=f.amats, coeffs=tuple(coeffs.tolist()))
            for zi, val in zip(z, g.eval_sphere(z)):
                at_a = g.eval_amatrix(sp.beta_blocks(rho(zi)))
                assert abs(val - at_a) <= 1e-12 * abs(at_a)
