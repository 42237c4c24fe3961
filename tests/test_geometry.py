"""Forms, potentials, flows, and the volume-ratio constants."""

import itertools
import math

import numpy as np
import pytest

from qpquant import geometry as geo
from qpquant import spaces as sp


def horizontal_point(rng, n=1, qnorm=None):
    qn = float(rng.uniform(0.4, 2.0)) if qnorm is None else qnorm
    return sp.random_es0(n, qn, rng)


def test_tangent_bases_shapes_and_kernels(rng):
    pt = horizontal_point(rng)
    bt = sp.tau_s(pt)
    es_basis = geo.tangent_basis_es0(pt)
    assert es_basis.shape == (11, 16)
    us = geo.tangent_basis_et_s(bt)
    assert us.shape == (7, 8)
    uh = geo.tangent_basis_et_h(pt)
    assert uh.shape == (4, 4, 4)
    pt2 = horizontal_point(rng, n=2)
    assert geo.tangent_basis_et_h(pt2).shape == (8, 6, 6)


def test_z_field_normalization(rng):
    for _ in range(20):
        bt = sp.tau_s(horizontal_point(rng))
        u = bt.coords
        m2 = len(u) // 2
        z, w = u[:m2], u[m2:]
        grad = np.empty_like(u)
        grad[0:m2:2] = w[1::2]
        grad[1:m2:2] = -w[0::2]
        grad[m2::2] = -z[1::2]
        grad[m2 + 1::2] = z[0::2]
        assert abs(np.sum(grad * geo.z_field(bt)) - 1.0) < 1e-12


def test_complex_hessian_exact_values_and_fd(rng):
    h = geo.complex_hessian_radial(np.array([1.0 + 0j]), "norm")
    assert abs(h[0, 0] - 0.25) < 1e-15
    u = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    for mode in ("norm", "sqrt_norm"):
        exact = geo.complex_hessian_radial(u, mode)
        fd = geo.fd_complex_hessian(u, mode)
        assert np.abs(exact - fd).max() < 1e-6
    # degree-1 homogeneity of the norm potential
    h1 = geo.complex_hessian_radial(u, "norm")
    h2 = geo.complex_hessian_radial(3.0 * u, "norm")
    assert np.abs(3.0 * h2 - h1).max() < 1e-13
    with pytest.raises(ZeroDivisionError):
        geo.complex_hessian_radial(np.zeros(3, dtype=complex), "norm")


def test_oneform_identities(rng):
    worst_s = worst_h = 0.0
    for _ in range(40):
        pt = horizontal_point(rng)
        bt, am = sp.tau_s(pt), sp.tau_h(sp.alpha(pt))
        for v in geo.real_basis_from_complex(geo.tangent_basis_et_s(bt)):
            worst_s = max(worst_s, geo.canonical_oneform_check("S", bt, v))
        for v in geo.real_basis_from_complex(geo.tangent_basis_et_h(pt)):
            worst_h = max(worst_h, geo.canonical_oneform_check("H", am, v))
    assert worst_s <= 1e-10
    assert worst_h <= 1e-10


def test_oneform_zero_and_fiber_tangent(rng):
    pt = horizontal_point(rng)
    am = sp.tau_h(sp.alpha(pt))
    zero = np.zeros_like(am.A)
    assert geo.canonical_oneform_check("H", am, zero) == 0.0
    # a pure fiber tangent (P fixed): push (0, qdot) with qdot horizontal
    qdot = sp.random_es0(1, 1.0,
                         np.random.default_rng(1)).q  # placeholder direction
    # build an actual vertical tangent: vary q only, keeping p
    cp = sp.alpha(pt)
    pdot = np.zeros_like(pt.p)
    import qpquant.geometry as g
    qd = qdot - sum(np.sum(qdot * d) * d for d in sp.sp1_orbit_frame(pt.p))
    P_dot, Q_dot = g.d_alpha(pt.p, pt.q, pdot, qd)
    w = g.d_tau_h(cp.P, cp.Q, P_dot, Q_dot)
    assert np.abs(P_dot).max() < 1e-15
    assert abs(geo.theta_h(am, w)) < 1e-12
    assert abs(geo.oneform_potential("H", am, w)) < 1e-12


def test_omega_antisymmetry_and_hamilton(rng):
    for _ in range(20):
        pt = horizontal_point(rng)
        am = sp.tau_h(sp.alpha(pt))
        basis = geo.real_basis_from_complex(geo.tangent_basis_et_h(pt))
        v, w = basis[0], basis[3]
        assert abs(geo.omega_eval("H", am, v, v)) <= 1e-12
        assert abs(geo.omega_eval("H", am, v, w) + geo.omega_eval("H", am, w, v)) <= 1e-12
        for y in basis:
            assert geo.hamilton_check(am, y) <= 1e-8
    # stacked tangents give the matrix of the pairwise values
    bt = sp.tau_s(pt)
    for model, point, basis in (
            ("H", am, basis),
            ("S", bt, geo.real_basis_from_complex(geo.tangent_basis_et_s(bt)))):
        gram = geo.omega_eval(model, point, basis, basis)
        pairwise = [[geo.omega_eval(model, point, v, w) for w in basis] for v in basis]
        assert gram.shape == (len(basis), len(basis))
        assert np.abs(gram - pairwise).max() <= 1e-14
        assert np.abs(gram + gram.T).max() <= 1e-14
        assert np.abs(geo.omega_eval(model, point, basis[:3], basis[2]).ravel()
                      - gram[:3, 2]).max() <= 1e-14


def test_dtheta_matches_omega_fd(rng):
    pt = horizontal_point(rng)
    bt, am = sp.tau_s(pt), sp.tau_h(sp.alpha(pt))
    bs = geo.real_basis_from_complex(geo.tangent_basis_et_s(bt))
    bh = geo.real_basis_from_complex(geo.tangent_basis_et_h(pt))
    for i in range(1, 5):
        fd = geo.dtheta_fd("S", bt, bs[0], bs[i])
        assert abs(fd - geo.omega_eval("S", bt, bs[0], bs[i])) <= 1e-5
        fdh = geo.dtheta_fd("H", am, bh[0], bh[i])
        assert abs(fdh - geo.omega_eval("H", am, bh[0], bh[i])) <= 1e-5
    assert geo.omega_closed_fd("H", am, bh[0], bh[1], bh[2]) <= 1e-5
    assert geo.omega_closed_fd("S", bt, bs[0], bs[1], bs[2]) <= 1e-5


def test_sigma_s_alternating_and_holomorphic(rng):
    pt = horizontal_point(rng)
    bt = sp.tau_s(pt)
    us = geo.tangent_basis_et_s(bt)
    base = list(us)
    v = geo.sigma_s_eval(bt, base)
    swapped = [base[1], base[0]] + base[2:]
    assert abs(geo.sigma_s_eval(bt, swapped) + v) <= 1e-12 * abs(v)
    # complex linearity in each slot (type (k, 0): kills conjugate insertions)
    rot = [1j * base[0]] + base[1:]
    assert abs(geo.sigma_s_eval(bt, rot) - 1j * v) <= 1e-12 * abs(v)
    # anti-holomorphic tangents have vanishing coordinate representation
    anti = np.zeros_like(base[0])
    assert geo.sigma_s_eval(bt, [anti] + base[1:]) == 0.0


def test_sigma_sl2_invariance(rng):
    pt = horizontal_point(rng)
    bt = sp.tau_s(pt)
    us = geo.tangent_basis_et_s(bt)
    cols = [us[k] for k in range(4)]
    val = geo.sigma_eval(bt, cols)
    for _ in range(10):
        g = sp.random_sl2(rng)
        moved = sp.BTuple(bt.B @ g)
        pushed = [geo.blocks_to_coords(geo.coords_to_blocks(c) @ g) for c in cols]
        val_g = geo.sigma_eval(moved, pushed)
        assert abs(val_g - val) <= 1e-9 * abs(val)


def test_sigma_h_gauge_independence(rng):
    pt = horizontal_point(rng)
    am = sp.tau_h(sp.alpha(pt))
    uh = geo.tangent_basis_et_h(pt)
    val = geo.sigma_h_eval(am, list(uh))
    # a different preimage gauge: translate the fiber point by g in SL(2, C)
    bt = geo.beta_preimage(am)
    g = sp.random_sl2(rng)
    moved = sp.BTuple(bt.B @ g)
    val2 = geo.sigma_h_eval(am, list(uh), bt=moved)
    assert abs(val - val2) <= 1e-8 * abs(val)


def test_det_theta_prime(rng):
    vals = []
    for _ in range(30):
        pt = horizontal_point(rng)
        vals.append(geo.det_theta_prime(sp.tau_s(pt)))
    vals = np.array(vals)
    assert np.abs(vals - 0.125).max() <= 1e-8
    off = geo.det_theta_prime(sp.tau_s(sp.random_es_generic(1, rng)))
    assert abs(off - 0.125) > 1e-3


def test_pfaffian_brute_force(rng):
    def brute(a):
        n = a.shape[0]
        if n == 0:
            return 1.0
        if n % 2:
            return 0.0
        tot = 0.0
        for j in range(1, n):
            idx = [k for k in range(n) if k not in (0, j)]
            tot += (-1) ** (j - 1) * a[0, j] * brute(a[np.ix_(idx, idx)])
        return tot

    for m in (2, 4, 6, 8):
        x = rng.standard_normal((m, m))
        w = x - x.T
        assert abs(geo.pfaffian(w) - brute(w)) <= 1e-10 * max(1.0, abs(brute(w)))
        assert abs(geo.pfaffian(w) ** 2 - np.linalg.det(w)) <= 1e-9 * max(1.0, abs(np.linalg.det(w)))
    # canonical form has pfaffian one
    j2 = np.kron(np.eye(3), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert geo.pfaffian(j2) == 1.0


def test_recovered_constants(rng):
    cons = geo.recover_constants(1, rng, npoints=4, det_points=20)
    assert abs(cons["a_S"] - (-1j)) <= 1e-6
    assert abs(cons["b_S"] - 1j) <= 1e-6
    assert abs(cons["a_H"] - 0.5) <= 1e-6
    assert abs(cons["det_theta"] - 0.125) <= 1e-6
    assert cons["det_theta_spread"] <= 1e-8
    assert abs(cons["b_H"] - (-1.0 / (math.sqrt(2.0) * math.pi ** 2))) <= 1e-6
    cons2 = geo.recover_constants(2, rng, npoints=3, det_points=8)
    assert abs(cons2["a_H"] - 1.0) <= 1e-6


def test_recover_b_s_is_the_subset_laplace_expansion(rng):
    # reference: v_S wedge conj(sigma_S) expanded over all C(14, 7) pairs of
    # complementary index subsets of the real basis, Liouville from pairwise omega
    bt = sp.tau_s(horizontal_point(rng))
    rbasis = geo.real_basis_from_complex(geo.tangent_basis_et_s(bt))
    mdim = len(rbasis)
    k = mdim // 2
    pq = sp.tau_s_inv(bt)
    p = pq.p
    pdots = [geo.d_tau_s_inv(pq.p, pq.q, v)[0].ravel() for v in rbasis]
    zvec = geo.z_field(bt)
    lhs = 0.0
    for s in itertools.combinations(range(mdim), k):
        comp = [i for i in range(mdim) if i not in s]
        perm = list(s) + comp
        inv = sum(1 for i in range(mdim) for j in range(i + 1, mdim) if perm[i] > perm[j])
        vol = np.linalg.det(np.column_stack([p.ravel()] + [pdots[i] for i in s]))
        sig = np.linalg.det(np.column_stack([zvec] + [rbasis[i] for i in comp])) / (2j) ** 4
        lhs += (-1) ** inv * vol * np.conj(sig)
    w = np.array([[geo.omega_eval("S", bt, v, u) for u in rbasis] for v in rbasis])
    ref = lhs / -geo.pfaffian(np.triu(w, 1) - np.triu(w, 1).T) * bt.norm
    assert abs(geo.recover_b_s(bt) - ref) <= 1e-12 * abs(ref)
    assert abs(abs(ref) - 1.0) <= 1e-10
    # at n = 2 the expansion would take C(22, 11) = 705,432 determinants
    bt2 = sp.tau_s(horizontal_point(rng, n=2))
    assert abs(abs(geo.recover_b_s(bt2)) - 1.0) <= 1e-10


def test_corollary_substitution_identity():
    a_s, b_s, det = -1j, 1j, 0.125
    for n in (1, 2):
        a_h = 2.0 ** (n - 2)
        b_h = -1.0 / (math.sqrt(2.0) * math.pi ** 2)
        lhs = 2 * math.pi ** 2 * (a_s / b_s) * det
        rhs = (1.0 / math.sqrt(2.0)) ** (2 * n + 1) * a_h / b_h
        assert abs(lhs - rhs) <= 1e-12
        assert abs(lhs - (-math.pi ** 2 / 4.0)) <= 1e-12


def test_geodesic_flow(rng):
    worst = 0.0
    for _ in range(20):
        pt = sp.random_es0(1, 1.0, rng)
        for t in np.arange(0.0, 3.15, 0.1):
            a_t, a_flow = geo.geodesic_flow_pair(pt, float(t))
            worst = max(worst, float(np.abs(a_t - a_flow).max()))
    assert worst <= 1e-10
    # classical period pi
    pt = sp.random_es0(1, 1.0, rng)
    a_pi, _ = geo.geodesic_flow_pair(pt, math.pi)
    assert np.abs(a_pi - sp.tau_h(sp.alpha(pt)).A).max() <= 1e-10
    with pytest.raises(ValueError):
        geo.geodesic_flow_pair(sp.random_es0(1, 2.0, rng), 0.3)


def test_hopf_pushforward(rng):
    out = geo.hopf_pushforward_check(1, 50, rng)
    assert out["duality_residual"] <= 1e-12
    assert out["volume_residual"] <= 1e-12
    # vol(S^7) = pi^4/3 feeds vol(P^1 H) = pi^2/6
    from qpquant.numerics import vol_sphere
    from qpquant.quantization import vol_pnh
    assert abs(vol_sphere(7) - math.pi ** 4 / 3.0) <= 1e-12
    assert abs(vol_pnh(1) - math.pi ** 2 / 6.0) <= 1e-14


def test_sigma_h_scaling_phase(rng):
    # flow scaling acts on the descended form with weight 1 - 2n in the
    # matrix scale, matching the declared quantum phase bookkeeping
    pt = horizontal_point(rng)
    am = sp.tau_h(sp.alpha(pt))
    uh = geo.tangent_basis_et_h(pt)
    lam = np.exp(-2j * 0.37)
    val = geo.sigma_h_eval(am, list(uh))
    val_scaled = geo.sigma_h_eval(sp.AMatrix(lam * am.A), list(lam * uh))
    # sigma_H(lam A; lam u) = lam^(2n+1) sigma_H(A; u) with n = 1
    assert abs(val_scaled - lam ** 3 * val) <= 1e-8 * abs(val)
