"""Model-space memberships against the quaternion-side formulas they replaced.

The oracles below are the membership tests as they were written on the
quaternion side, with einsum products, Jordan products, determinants and an
SVD, and with the one gate rule of ``qpquant.spaces``: a condition of degree k
in the covector part (q, Q, B, A) is tested at EQ_TOL times its norm to the k.
On valid points of every size and scale both accept; on points that break one
condition by 1e-6 of its scale both reject.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpquant import geometry as geo
from qpquant import spaces as sp
from qpquant import spectral as spl
from qpquant.algebra import hinner, jmat, jordan, qconj, qmat_mul, qmul, qnorm, qtrace

EQ_TOL, RANK_TOL = 1e-10, 1e-8


# ------------------------------------------------------------------ oracles

def es_oracle(pt):
    p, q = pt.p, pt.q
    tol = EQ_TOL * np.sqrt(np.sum(q ** 2))
    if abs(np.sum(p * p) - 1.0) > EQ_TOL or abs(np.sum(p * q)) > tol:
        return False
    return qnorm(q + qmul(p, hinner(q, p)[None, :])).max() > tol


def es0_oracle(pt):
    p, q = pt.p, pt.q
    nq = np.sqrt(np.sum(q ** 2))
    if abs(np.sum(p * p) - 1.0) > EQ_TOL or nq == 0.0:
        return False
    return np.max(np.abs(hinner(q, p))) <= EQ_TOL * nq


def eh_oracle(pt):
    P, Q = pt.P, pt.Q
    nq2 = np.sum(Q ** 2)
    nq = np.sqrt(nq2)
    if abs(qtrace(P)[0] - 1.0) > EQ_TOL:
        return False
    if np.max(np.abs(jordan(P, P) - P)) > EQ_TOL:
        return False
    if np.max(np.abs(jordan(P, Q) - 0.5 * Q)) > EQ_TOL * nq:
        return False
    if nq == 0.0:
        return False
    q3 = qmat_mul(qmat_mul(Q, Q), Q)
    return bool(np.max(np.abs(q3 - 0.5 * nq2 * Q)) <= EQ_TOL * nq ** 3)


def bt_oracle(pt):
    z, w = pt.coords.reshape(2, -1)
    d = np.sum(np.linalg.det(pt.B))
    if abs(d) > EQ_TOL * pt.norm ** 2:
        return False
    s = np.linalg.svd(np.stack([z, w], axis=1), compute_uv=False)
    return s[-1] > RANK_TOL * max(s[0], 1e-300)


def bt0_oracle(pt):
    if not bt_oracle(pt):
        return False
    z, w = pt.coords.reshape(2, -1)
    cross = np.sum(np.conj(z) * w)
    balance = np.sum(np.abs(z) ** 2) - np.sum(np.abs(w) ** 2)
    scale = pt.norm ** 2
    return abs(cross) <= EQ_TOL * scale and abs(balance) <= EQ_TOL * scale


def ah_oracle(pt):
    a = pt.A
    m = a.shape[0] // 2
    jj = jmat(m)
    scale = pt.norm
    if np.max(np.abs(jj @ a - a.T @ jj)) > EQ_TOL * scale:
        return False
    if np.max(np.abs(a @ a)) > EQ_TOL * scale ** 2:
        return False
    s = np.linalg.svd(a, compute_uv=False)
    return (s[1] > RANK_TOL * s[0]) and (s[2] <= RANK_TOL * s[0] if len(s) > 2 else True)


# each space: its predicate, the oracle, and the first failed condition it names
PAIRS = {
    "E_S": (sp.in_sphere_covector, es_oracle,
            lambda pt: sp._sphere_covector_failure(pt.p, pt.q)[0]),
    "E_S0": (sp.in_sphere_covector0, es0_oracle,
             lambda pt: sp._sphere_covector_failure(pt.p, pt.q, horizontal=True)[0]),
    "E_H": (sp.in_cotangent_h, eh_oracle, lambda pt: sp._cotangent_h_failure(pt.P, pt.Q)[0]),
    "Et_S": (sp.in_btuple_space, bt_oracle, lambda pt: sp._btuple_failure(pt.B)),
    "Et_S0": (sp.in_btuple_space0, bt0_oracle, lambda pt: sp._btuple_failure(pt.B, horizontal=True)),
    "Et_H": (sp.in_amatrix_space, ah_oracle, lambda pt: sp._amatrix_failure(pt.A)),
}


def verdict(space, pt):
    """The membership verdict, after checking that the oracle gives the same one."""
    new, old, _ = PAIRS[space]
    assert bool(new(pt)) == bool(old(pt)), space
    return bool(new(pt))


def rejects(space, pt, condition):
    """Both the predicate and the oracle reject pt, and the first failed
    condition is the one the perturbation broke."""
    reason = PAIRS[space][2](pt)
    return not verdict(space, pt) and reason.startswith(f"{condition} fails")


# ------------------------------------------------------------------- points

# n, log10 |q| and the seed of the point's own generator
points = given(st.integers(1, 4), st.floats(-12.0, 12.0), st.integers(0, 2 ** 32 - 1))
bounded = settings(derandomize=True, max_examples=60, deadline=None, database=None)


def draw(n, log_q, seed):
    rng = np.random.default_rng(seed)
    return sp.random_es0(n, 10.0 ** log_q, rng), rng


def blocks(z, w):
    """The tuple with columns z, w: B_i = [[z_2i, w_2i], [z_2i+1, w_2i+1]]."""
    return sp.BTuple(np.stack([z.reshape(-1, 2), w.reshape(-1, 2)], axis=-1))


@bounded
@points
def test_valid_points_pass_both(n, log_q, seed):
    pt, _ = draw(n, log_q, seed)
    assert verdict("E_S", pt) and verdict("E_S0", pt)
    assert verdict("E_H", sp.alpha(pt))
    bt = sp.tau_s(pt)
    assert verdict("Et_S", bt) and verdict("Et_S0", bt)


@bounded
@points
def test_sphere_covector_perturbations_fail_both(n, log_q, seed):
    pt, rng = draw(n, log_q, seed)
    p, q, size = pt.p, pt.q, 10.0 ** log_q
    k = int(rng.integers(1, 4))
    long_p = sp.SphereCovector(p * (1.0 + 1e-6), q)
    oblique = sp.SphereCovector(p, q + 1e-6 * size * p)  # (p, q)_E = 1e-6 |q|
    for bad, condition in ((long_p, "(p,p)_E = 1"), (oblique, "(p,q)_E = 0")):
        assert rejects("E_S", bad, condition) and rejects("E_S0", bad, condition)
    # q along the Hopf fiber: (p, q)_E = 0 but no horizontal part
    vertical = sp.SphereCovector(p, np.sqrt(np.sum(q ** 2)) * sp.sp1_orbit_frame(p)[k])
    assert rejects("E_S", vertical, "q + p <q,p>_H != 0")
    # a vertical part of 1e-6 leaves E_S but not the horizontal locus
    tilted = sp.SphereCovector(p, q + 1e-6 * size * sp.sp1_orbit_frame(p)[k])
    assert verdict("E_S", tilted) and rejects("E_S0", tilted, "<q,p>_H = 0")


@bounded
@points
def test_cotangent_perturbations_fail_both(n, log_q, seed):
    pt, _ = draw(n, log_q, seed)
    cp = sp.alpha(pt)
    P, Q = cp.P, cp.Q
    scale = cp.qnorm_j
    assert rejects("E_H", sp.CotangentPointH(2.0 * P, Q), "tr P = 1")
    # P o (Q + e P) = Q/2 + e P, off (Q + e P)/2 by e P/2
    assert rejects("E_H", sp.CotangentPointH(P, Q + 1e-6 * scale * P), "P o Q = Q/2")
    # X = p b* - b p* with b = q e1 keeps P o Q = Q/2 but bends Q^3 at first
    # order, by about 2 e |q|^3; e is chosen to make that 1e-6 of its scale
    p, q = pt.p, pt.q
    b = qmul(q, np.broadcast_to([0.0, 1.0, 0.0, 0.0], q.shape))
    x = qmul(p[:, None], qconj(b)[None, :]) - qmul(b[:, None], qconj(p)[None, :])
    eps = 1e-6 * scale ** 3 / np.sum(q ** 2) ** 1.5
    bent = sp.CotangentPointH(P, Q + eps * x)
    assert np.max(np.abs(jordan(P, bent.Q) - 0.5 * bent.Q)) <= 1e-12 * scale
    assert rejects("E_H", bent, "Q^3 = ||Q||^2 Q/2")


@bounded
@points
def test_btuple_perturbations_fail_both(n, log_q, seed):
    pt, _ = draw(n, log_q, seed)
    z, w = sp.tau_s(pt).coords.reshape(2, -1)
    t = float(np.sum(np.abs(z) ** 2) + np.sum(np.abs(w) ** 2))
    # sum det B_i = z^t J w, and J^t conj(z) moves it by |z|^2 per unit step
    step = 1e-6 * t / np.sum(np.abs(z) ** 2)
    bent = blocks(z, w + step * (jmat(n + 1).T @ np.conj(z)))
    assert rejects("Et_S", bent, "sum det B_i = 0")
    unbalanced = blocks(z, w * (1.0 + 1e-6))
    assert verdict("Et_S", unbalanced) and rejects("Et_S0", unbalanced, "|z| = |w|")


def a_model_breaks(a):
    """Matrices near the A-model point a that break one condition each, keyed by
    that condition; the first two by at least 1e-6 of its scale, the norm of a."""
    scale = float(np.sqrt(np.sum(np.abs(a) ** 2)))
    m2 = a.shape[0]
    return {
        # J X - X^t J = -2 I for X = J
        "J A = A^t J": a + 1e-6 * scale * jmat(m2 // 2),
        # A + e I stays theta-symmetric; tr A = tr A^2 = 0, so (A + e I)^2 has
        # trace 2m e^2 and a diagonal entry of size at least e^2
        "A^2 = 0": a + 1e-3 * scale * np.eye(m2),
        # two copies side by side: theta-symmetric and nilpotent, of rank 4
        "rank A = 2": np.kron(np.eye(2), a),
    }


@bounded
@points
def test_amatrix_perturbations_fail_both(n, log_q, seed):
    pt, _ = draw(n, log_q, seed)
    am = sp.tau_h(sp.alpha(pt))
    assert verdict("Et_H", am)
    for condition, bad in a_model_breaks(am.A).items():
        assert rejects("Et_H", sp.AMatrix(bad), condition)


@bounded
@given(st.integers(1, 4), st.floats(-3.0, 3.0), st.integers(0, 2 ** 32 - 1),
       st.floats(0.0, 3.0), st.sampled_from([1e-7, 1e-9]))
def test_rank_test_keeps_its_tolerance(n, log_z, seed, a_abs, ratio):
    # [z w] = [z/|z| u] [[|z|, a |z|], [0, e |z|]] with u a unit vector orthogonal
    # to z and to J^t conj(z), so sum det B_i = z^t J w stays 0; e is the root
    # that gives s_min / s_max = ratio
    rng = np.random.default_rng(seed)
    m2 = 2 * n + 2
    z = 10.0 ** log_z * (rng.standard_normal(m2) + 1j * rng.standard_normal(m2))
    u = rng.standard_normal(m2) + 1j * rng.standard_normal(m2)
    for v in (z, jmat(n + 1).T @ np.conj(z)):
        u -= v * (np.vdot(v, u) / np.vdot(v, v))
    u /= np.linalg.norm(u)
    a = a_abs * np.exp(2j * np.pi * rng.uniform())
    c, r2 = 1.0 + abs(a) ** 2, ratio ** 2
    e = 2.0 * ratio * c / ((1.0 + r2) + np.sqrt((1.0 + r2) ** 2 - 4.0 * r2 * c))
    nz = np.linalg.norm(z)
    bt = blocks(z, a * z + e * nz * u)
    s = np.linalg.svd(bt.coords.reshape(2, -1).T, compute_uv=False)
    assert abs(s[1] / s[0] / ratio - 1.0) < 1e-3
    if ratio > RANK_TOL:
        assert verdict("Et_S", bt)
    else:
        assert rejects("Et_S", bt, "z, w independent")


@pytest.mark.parametrize("scale", [float(f"1e{k}") for k in range(-12, 13)])
def test_model_gates_scale_with_the_point(scale, rng):
    # Every gate is relative to the norm of the point's covector part, so the
    # members and the non-members of unit norm below keep their verdicts at
    # every scale: on E_S and E_H, q and Q off by 1e-6 of their norm, q along
    # the Hopf fiber, and a random Q that is not tangent at P; a random
    # 2-block tuple, whose sum det B_i is a fixed share of ||B||^2, and a
    # random rank-2 matrix, neither J-symmetric nor nilpotent.
    pt = sp.random_es0(1, 1.0, rng)
    cp = sp.alpha(pt)
    bt, am = sp.tau_s(pt), sp.tau_h(cp)
    p, q, frame = pt.p, pt.q, sp.sp1_orbit_frame(pt.p)
    assert verdict("E_S", sp.SphereCovector(p, scale * q))
    assert verdict("E_S0", sp.SphereCovector(p, scale * q))
    oblique = sp.SphereCovector(p, scale * (q + 1e-6 * p))
    assert rejects("E_S", oblique, "(p,q)_E = 0") and rejects("E_S0", oblique, "(p,q)_E = 0")
    tilted = sp.SphereCovector(p, scale * (q + 1e-6 * frame[1]))
    assert verdict("E_S", tilted) and rejects("E_S0", tilted, "<q,p>_H = 0")
    assert rejects("E_S", sp.SphereCovector(p, scale * frame[2]), "q + p <q,p>_H != 0")
    r = rng.standard_normal(cp.Q.shape)
    askew = r + np.swapaxes(qconj(r), 0, 1)  # quaternion-hermitian, like every Q
    askew /= np.sqrt(np.sum(askew ** 2))
    assert verdict("E_H", sp.CotangentPointH(cp.P, scale * cp.Q))
    assert rejects("E_H", sp.CotangentPointH(cp.P, scale * (cp.Q + 1e-6 * cp.P)), "P o Q = Q/2")
    assert rejects("E_H", sp.CotangentPointH(cp.P, scale * askew), "P o Q = Q/2")
    b = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
    b /= np.linalg.norm(b)
    assert abs(np.sum(np.linalg.det(b))) > 0.01
    u, v = rng.standard_normal((2, 4, 2)) + 1j * rng.standard_normal((2, 4, 2))
    a = u @ v.T
    a /= np.linalg.norm(a)
    assert verdict("Et_S", sp.BTuple(scale * bt.B)) and verdict("Et_S0", sp.BTuple(scale * bt.B))
    assert verdict("Et_H", sp.AMatrix(scale * am.A))
    assert rejects("Et_S", sp.BTuple(scale * b), "sum det B_i = 0")
    assert rejects("Et_H", sp.AMatrix(scale * a), "J A = A^t J")
    with pytest.raises(ValueError, match="B-model space: sum det B_i = 0 fails"):
        sp.beta(sp.BTuple(scale * b))
    with pytest.raises(ValueError, match="A-model space: J A = A\\^t J fails"):
        sp.tau_h_inv(sp.AMatrix(scale * a))


# ------------------------------------------------------------ named reasons

def test_public_maps_name_the_failed_condition(rng):
    pt = sp.random_es0(1, 1.0, rng)
    cp, bt = sp.alpha(pt), sp.tau_s(pt)
    cases = [
        (sp.alpha, sp.SphereCovector(1.01 * pt.p, pt.q),
         r"sphere covector space: \(p,p\)_E = 1 fails \(residual 2\.01"),
        (sp.tau_s, sp.SphereCovector(pt.p, sp.sp1_orbit_frame(pt.p)[1]),
         r"sphere covector space: q \+ p <q,p>_H != 0 fails"),
        (sp.tau_h, sp.CotangentPointH(2.0 * cp.P, cp.Q),
         r"cotangent-bundle model: tr P = 1 fails \(residual 1\.000e\+00\)"),
        (sp.tau_h, sp.CotangentPointH(cp.P, cp.Q + 1e-3 * cp.P), r"cotangent-bundle model: P o Q"),
        (sp.beta, sp.BTuple(bt.B * np.array([1.0, 1.1])[:, None, None]),
         r"B-model space: sum det B_i = 0 fails"),
        (sp.tau_s_inv, sp.BTuple(np.stack([bt.B[0], bt.B[0]])), r"B-model space: sum det"),
        (lambda bad: geo.geodesic_flow_pair(bad, 0.3), sp.SphereCovector(1.01 * pt.p, pt.q),
         r"sphere covector space: \(p,p\)_E = 1 fails"),
    ]
    for public_map, bad, message in cases:
        with pytest.raises(ValueError, match=message):
            public_map(bad)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_small_covectors_pass_both_routes_to_the_a_model(n, rng):
    # E_S and E_H gate relative to |q| and ||Q|| = sqrt(2) |q|, so tau_h(alpha(x))
    # and beta(tau_s(x)) take every horizontal x, down to ||Q|| = 1e-12, and agree
    for size in (1e-12, 1e-9, 1e-6):
        pt = sp.random_es0(n, size / np.sqrt(2.0), rng)
        cp = sp.alpha(pt)
        assert abs(cp.qnorm_j - size) <= 1e-14 * size and verdict("E_H", cp)
        lhs, rhs = sp.tau_h(cp).A, sp.beta(sp.tau_s(pt)).A
        assert np.abs(lhs - rhs).max() <= 1e-10 * np.abs(rhs).max()
    # only q = 0 and Q = 0 are refused as vanishing
    assert rejects("E_S0", sp.SphereCovector(pt.p, np.zeros_like(pt.q)), "q != 0")
    zero = sp.CotangentPointH(cp.P, np.zeros_like(cp.Q))
    assert rejects("E_H", zero, "Q != 0")
    with pytest.raises(ValueError, match=r"cotangent-bundle model: Q != 0 fails \(residual 0\.000e\+00"):
        sp.tau_h(zero)


@pytest.mark.parametrize("condition", ["J A = A^t J", "A^2 = 0", "rank A = 2"])
def test_a_model_maps_name_the_failed_condition(condition, rng):
    bad = sp.AMatrix(a_model_breaks(sp.tau_h(sp.random_eh(1, 1.0, rng)).A)[condition])
    for public_map, prefix in ((sp.tau_h_inv, "matrix is not in the A-model space"),
                               (spl.harmonicity_certificate,
                                "matrix fails the cotangent-model membership")):
        with pytest.raises(ValueError, match=f"{prefix}: {re.escape(condition)} fails"):
            public_map(bad)
