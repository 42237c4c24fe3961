"""Model spaces: maps, memberships, norm chain, diagram, serialization."""

import json

import numpy as np
import pytest

from qpquant import spaces as sp
from qpquant.algebra import QTABLE, fro_norm, hinner, qconj, qmat_mul, rho
from qpquant.numerics import sphere_uniform


def canonical_point(n=1):
    m = n + 1
    p = np.zeros((m, 4))
    q = np.zeros((m, 4))
    p[0, 0] = 1.0
    q[1, 0] = 1.0
    return sp.SphereCovector(p, q)


def test_alpha_at_canonical_point():
    pt = canonical_point()
    cp = sp.alpha(pt)
    P, Q = cp.P, cp.Q
    assert np.isclose(P[0, 0, 0], 1.0) and np.abs(P).sum() == pytest.approx(1.0)
    assert np.isclose(Q[0, 1, 0], 1.0) and np.isclose(Q[1, 0, 0], 1.0)
    assert np.isclose(cp.qnorm_j ** 2, 2.0)  # tr(Q o Q) = 2 |q|^2
    assert sp.in_cotangent_h(cp)


def test_alpha_rejects_degenerate():
    pt = canonical_point()
    with pytest.raises(ValueError):
        sp.alpha(sp.SphereCovector(pt.p, np.zeros_like(pt.q)))


def test_tau_s_at_canonical_point():
    bt = sp.tau_s(canonical_point())
    assert np.allclose(bt.B[0], np.eye(2))
    assert np.allclose(bt.B[1], 1j * np.eye(2))
    assert np.isclose(bt.norm ** 2, 4.0)
    assert sp.in_btuple_space0(bt)


def test_tau_h_at_canonical_point():
    am = sp.tau_h(sp.alpha(canonical_point()))
    expected = np.zeros((4, 4), dtype=complex)
    expected[:2, :2] = np.eye(2)
    expected[:2, 2:] = 1j * np.eye(2)
    expected[2:, :2] = 1j * np.eye(2)
    expected[2:, 2:] = -np.eye(2)
    assert np.allclose(am.A, expected)
    assert np.isclose(am.norm ** 2, 8.0)
    assert np.abs(am.A @ am.A).max() < 1e-12
    assert sp.in_amatrix_space(am)


def test_beta_matches_tau_h_alpha_on_horizontal(rng):
    for n in (1, 2):
        for _ in range(60):
            pt = sp.random_es0(n, float(rng.uniform(0.3, 2.5)), rng)
            lhs = sp.beta(sp.tau_s(pt)).A
            rhs = sp.tau_h(sp.alpha(pt)).A
            assert np.abs(lhs - rhs).max() <= 1e-10 * fro_norm(rhs)


def test_beta_and_tau_h_alpha_differ_off_horizontal(rng):
    pt = sp.random_es_generic(1, rng)
    lhs = sp.beta(sp.tau_s(pt)).A
    rhs = sp.tau_h(sp.alpha(pt)).A
    assert np.abs(lhs - rhs).max() / fro_norm(rhs) > 1e-3


def test_tau_s_equivariance_under_sp1(rng):
    pt = sp.random_es0(1, 1.3, rng)
    r = sphere_uniform(3, rng)  # unit quaternion
    from qpquant.algebra import qmul
    pr = qmul(pt.p, np.broadcast_to(r, pt.p.shape))
    qr = qmul(pt.q, np.broadcast_to(r, pt.q.shape))
    lhs = sp.tau_s(sp.SphereCovector(pr, qr)).B
    g = sp.rho(np.asarray(r, dtype=complex)) if hasattr(sp, "rho") else None
    from qpquant.algebra import rho
    rhs = sp.tau_s(pt).B @ rho(np.asarray(r, dtype=complex))
    assert np.abs(lhs - rhs).max() < 1e-12 * np.abs(rhs).max()


def test_beta_is_sl2_invariant(rng):
    pt = sp.random_es0(1, 0.8, rng)
    bt = sp.tau_s(pt)
    for _ in range(20):
        g = sp.random_sl2(rng)
        moved = sp.BTuple(bt.B @ g)
        assert np.abs(sp.beta(moved).A - sp.beta(bt).A).max() < 1e-10 * fro_norm(sp.beta(bt).A)


def test_norm_chain(rng):
    for _ in range(200):
        n = int(rng.integers(1, 3))
        t = float(rng.uniform(0.2, 3.0))
        pt = sp.random_es0(n, t, rng)
        bt = sp.tau_s(pt)
        cp = sp.alpha(pt)
        am = sp.tau_h(cp)
        nq2 = float(np.sum(pt.q ** 2))
        assert np.isclose(bt.norm ** 2, 4 * nq2, rtol=1e-12)
        assert np.isclose(cp.qnorm_j ** 2, 2 * nq2, rtol=1e-12)
        assert np.isclose(am.norm ** 2, 2 * cp.qnorm_j ** 4, rtol=1e-12)
        assert np.isclose(am.norm, bt.norm ** 2 / np.sqrt(2.0), rtol=1e-12)
        # Q^3 = ||Q||^2 Q / 2
        q3 = qmat_mul(qmat_mul(cp.Q, cp.Q), cp.Q)
        assert np.abs(q3 - 0.5 * cp.qnorm_j ** 2 * cp.Q).max() < 1e-12 * cp.qnorm_j ** 3
        # metric through the fibration: g_H(Q, Q) = tr(Q o Q) / 2 = |q|^2
        assert np.isclose(0.5 * np.sum(cp.Q * cp.Q), nq2, rtol=1e-12)


def test_memberships_reject_perturbations(rng):
    pt = sp.random_es0(1, 1.0, rng)
    bt, cp = sp.tau_s(pt), sp.alpha(pt)
    am = sp.tau_h(cp)
    assert sp.in_sphere_covector0(pt) and sp.in_btuple_space0(bt)
    assert sp.in_cotangent_h(cp) and sp.in_amatrix_space(am)

    bad_p = pt.p.copy()
    bad_p[0, 0] += 1e-3
    assert not sp.in_sphere_covector0(sp.SphereCovector(bad_p, pt.q))
    bad_q = pt.q + 1e-3 * pt.p
    assert not sp.in_sphere_covector0(sp.SphereCovector(pt.p, bad_q))

    bad_b = bt.B.copy()
    bad_b[0, 0, 0] += 1e-3
    assert not sp.in_btuple_space(sp.BTuple(bad_b))

    bad_Q = cp.Q.copy()
    bad_Q[0, 0, 1] += 1e-3
    assert not sp.in_cotangent_h(sp.CotangentPointH(cp.P, bad_Q))

    bad_a = am.A.copy()
    bad_a[0, 1] += 1e-3
    assert not sp.in_amatrix_space(sp.AMatrix(bad_a))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_cores_on_stacks_equal_the_public_maps(rng, n):
    pts = [sp.random_es0(n, float(rng.uniform(0.3, 2.0)), rng) for _ in range(5)]
    p, q = np.stack([pt.p for pt in pts]), np.stack([pt.q for pt in pts])
    P, Q = sp._alpha_core(p, q)
    A, B = sp._tau_h_alpha_core(p, q), sp._tau_s_core(p, q)
    assert A.shape == (5, 2 * n + 2, 2 * n + 2) and B.shape == (5, n + 1, 2, 2)
    for k, pt in enumerate(pts):
        cp, want = sp.alpha(pt), sp.tau_h(sp.alpha(pt)).A
        assert (P[k] == cp.P).all() and (Q[k] == cp.Q).all() and (B[k] == sp.tau_s(pt).B).all()
        assert (A[k] == sp._tau_h_alpha_core(pt.p, pt.q)).all()
        assert np.abs(A[k] - want).max() <= 1e-14 * fro_norm(want)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_alpha_core_is_its_three_products(rng, n):
    # P = p_i theta(p_j) and Q = p_i theta(q_j) + q_i theta(p_j), three qmuls
    # by the einsum definition, on one point and on a batch, horizontal or not
    def qmul_ref(a, b):
        return np.einsum("...a,...b,abc->...c", a, b, QTABLE)

    pts = [sp.random_es0(n, float(rng.uniform(0.3, 2.0)), rng) for _ in range(3)]
    pts += [sp.random_es_generic(n, rng) for _ in range(3)]
    p, q = np.stack([pt.p for pt in pts]), np.stack([pt.q for pt in pts])
    for pp, qq in [(p, q), (p[0], q[0])]:
        tp, tq = qconj(pp)[..., None, :, :], qconj(qq)[..., None, :, :]
        want_P = qmul_ref(pp[..., None, :], tp)
        want_Q = qmul_ref(pp[..., None, :], tq) + qmul_ref(qq[..., None, :], tp)
        P, Q = sp._alpha_core(pp, qq)
        assert P.shape == want_P.shape and Q.shape == want_Q.shape
        scale = np.abs(qq).max()
        assert np.abs(P - want_P).max() <= 1e-15 and np.abs(Q - want_Q).max() <= 2e-15 * scale


def test_adj2_is_the_scattered_adjugate(rng):
    for b in (rng.standard_normal((3, 2, 2)), rng.standard_normal((4, 5, 2, 2))
              + 1j * rng.standard_normal((4, 5, 2, 2)), rng.standard_normal((2, 2))):
        want = np.empty_like(b)
        want[..., 0, 0], want[..., 1, 1] = b[..., 1, 1], b[..., 0, 0]
        want[..., 0, 1], want[..., 1, 0] = -b[..., 0, 1], -b[..., 1, 0]
        got = sp._adj2(b)
        assert got.dtype == b.dtype and np.array_equal(got, want)
    assert not sp._ADJ_SIGNS.flags.writeable


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_tau_h_alpha_core_is_tau_h_of_alpha(rng, n):
    # complexify(P) = beta(rho(p)), complexify(Q) = beta(rho(p), rho(q)) +
    # beta(rho(q), rho(p)) and ||Q||^2 = tr(complexify(Q)^2) / 2 hold for any
    # (p, q), horizontal or not; 2 |q|^2 is ||Q||^2 on the horizontal locus only
    for draw in (lambda: sp.random_es0(n, float(rng.uniform(0.3, 2.0)), rng),
                 lambda: sp.random_es_generic(n, rng)):
        pts = [draw() for _ in range(6)]
        p = np.stack([pt.p for pt in pts]).reshape(2, 3, n + 1, 4)
        q = np.stack([pt.q for pt in pts]).reshape(2, 3, n + 1, 4)
        a = sp._tau_h_alpha_core(p, q)
        assert a.shape == (2, 3, 2 * n + 2, 2 * n + 2)
        for k, pt in enumerate(pts):
            row, want = a[divmod(k, 3)], sp.tau_h(sp.alpha(pt)).A
            assert (row == sp._tau_h_alpha_core(pt.p, pt.q)).all()
            assert np.abs(row - want).max() <= 1e-14 * fro_norm(want)


def _counting(monkeypatch, name):
    calls = []
    real = getattr(sp, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(sp, name, counting)
    return calls


def test_each_point_tests_its_membership_once(rng, monkeypatch):
    from qpquant import geometry as geo
    calls = _counting(monkeypatch, "_sphere_covector_failure")
    pt = sp.random_es0(1, 1.0, rng)
    for t in np.arange(32) * 0.1:
        geo.geodesic_flow_pair(pt, float(t))
    assert len(calls) == 1
    pt = sp.random_es0(2, 1.3, rng)
    for _ in range(3):
        sp.tau_s(pt), sp.alpha(pt)
    assert sp.in_sphere_covector(pt) and len(calls) == 2
    calls = _counting(monkeypatch, "_cotangent_h_failure")
    cp = sp.alpha(pt)
    assert sp.tau_h(cp).A.tobytes() == sp.tau_h(cp).A.tobytes() and sp.in_cotangent_h(cp)
    assert len(calls) == 1


def test_points_off_the_model_raise_the_same_reason_every_call(rng):
    pt = sp.random_es0(1, 1.0, rng)
    cp, bt = sp.alpha(pt), sp.tau_s(pt)
    cases = [(sp.alpha, sp.SphereCovector(1.01 * pt.p, pt.q), "sphere covector space"),
             (sp.tau_s, sp.SphereCovector(1.01 * pt.p, pt.q), "sphere covector space"),
             (sp.tau_h, sp.CotangentPointH(2.0 * cp.P, cp.Q), "cotangent-bundle model"),
             (sp.beta, sp.BTuple(bt.B * np.array([1.0, 1.1])[:, None, None]), "B-model space"),
             (sp.tau_s_inv, sp.BTuple(np.stack([bt.B[0], bt.B[0]])), "B-model space"),
             (sp.tau_h_inv, sp.AMatrix(2.0 * np.eye(4)), "A-model space")]
    for public_map, bad, name in cases:
        messages = set()
        for _ in range(3):
            with pytest.raises(ValueError, match=name) as err:
                public_map(bad)
            messages.add(str(err.value))
        assert len(messages) == 1


def test_point_arrays_are_private_and_read_only(rng):
    pt = sp.random_es0(1, 1.0, rng)
    cp = sp.alpha(pt)
    for obj, field in ((pt, "p"), (pt, "q"), (cp, "P"), (cp, "Q"),
                       (sp.tau_s(pt), "B"), (sp.tau_h(cp), "A")):
        arr = getattr(obj, field)
        with pytest.raises(ValueError):
            arr.flags.writeable = True
        with pytest.raises(ValueError):
            arr[0] = 0.0
    # the caller's arrays stay the caller's: changing them after construction
    # moves neither the point nor the verdict it computes later
    p, q = pt.p.copy(), pt.q.copy()
    first, later = sp.SphereCovector(p, q), sp.SphereCovector(p, q)
    assert sp.in_sphere_covector(first)
    p *= 1.01
    assert (first.p == pt.p).all() and (later.p == pt.p).all()
    assert sp.in_sphere_covector(first) and sp.in_sphere_covector(later)
    b = sp.tau_s(pt).B.copy()
    bt = sp.BTuple(b)
    b[0] = 0.0
    assert sp.in_btuple_space(bt) and (bt.B == sp.tau_s(pt).B).all()


def test_random_sl2_gives_up_on_degenerate_draws():
    class Zeros:
        draws = 0

        def standard_normal(self, size):
            self.draws += 1
            return np.zeros(size)

    zeros = Zeros()
    with pytest.raises(RuntimeError, match="degenerate draws while sampling SL"):
        sp.random_sl2(zeros)
    assert zeros.draws == 2 * sp.MAX_TRIES
    g = sp.random_sl2(np.random.default_rng(7))
    r = np.random.default_rng(7).standard_normal(8)
    want = rho(r[:4] + 1j * r[4:])
    assert np.abs(g - want / np.sqrt(np.linalg.det(want))).max() == 0.0


def test_public_maps_keep_their_membership_tests(rng):
    pt = sp.random_es0(1, 1.0, rng)
    long_p = sp.SphereCovector(1.01 * pt.p, pt.q)
    # q = p e1 is tangent to the Hopf fiber: (p, q)_E = 0, but q is vertical
    vertical = sp.SphereCovector(pt.p, sp.sp1_orbit_frame(pt.p)[1])
    for bad in (long_p, vertical):
        for public_map in (sp.alpha, sp.tau_s):
            with pytest.raises(ValueError, match="sphere covector space"):
                public_map(bad)
    cp = sp.alpha(pt)
    with pytest.raises(ValueError, match="cotangent-bundle model"):
        sp.tau_h(sp.CotangentPointH(2.0 * cp.P, cp.Q))


def test_tau_s_inverse_round_trip(rng):
    pt = canonical_point()
    rec = sp.tau_s_inv(sp.BTuple(np.stack([np.eye(2), 1j * np.eye(2)]).astype(complex)))
    assert np.allclose(rec.p, pt.p) and np.allclose(rec.q, pt.q)
    for _ in range(300):
        n = int(rng.integers(1, 3))
        src = sp.random_es0(n, float(rng.uniform(0.2, 2.0)), rng)
        rec = sp.tau_s_inv(sp.tau_s(src))
        assert np.abs(rec.p - src.p).max() < 1e-12
        assert np.abs(rec.q - src.q).max() < 1e-12
    with pytest.raises(ValueError, match="B-model space: z, w independent"):
        sp.tau_s_inv(sp.BTuple(np.zeros((2, 2, 2), dtype=complex)))
    # the gates are relative to the tuple's scale: covector parts far below
    # 1e-8 or far above 1 invert as well as unit ones
    for n in range(1, 5):
        for qnorm in (1e-12, 2e-10, 1e-9, 5e-9, 1.0, 1e6, 1e12):
            src = sp.random_es0(n, qnorm, rng)
            assert sp.in_sphere_covector(src)
            rec = sp.tau_s_inv(sp.tau_s(src))
            assert np.abs(rec.p - src.p).max() < 1e-12
            assert np.abs(rec.q - src.q).max() < 1e-12 * qnorm
    # q nearly vertical, q = p e1 + 1e-10 h for a horizontal h: refused as rank one
    h = src.q / np.linalg.norm(src.q)
    near = sp.BTuple(sp._tau_s_core(src.p, sp.sp1_orbit_frame(src.p)[1] + 1e-10 * h))
    with pytest.raises(ValueError, match="B-model space: z, w independent"):
        sp.tau_s_inv(near)


def test_tau_h_inverse_round_trip(rng):
    for n in range(1, 5):
        for qnorm_j in (float(f"1e{k}") for k in range(-12, 13)):
            src = sp.random_eh(n, qnorm_j, rng)
            rec = sp.tau_h_inv(sp.tau_h(src))
            assert np.abs(rec.P - src.P).max() < 1e-12
            assert np.abs(rec.Q - src.Q).max() < 1e-12 * qnorm_j


def test_sampler_constraints(rng):
    pt = sp.random_es0(1, 1.0, rng)
    assert abs(float(np.sum(pt.p ** 2)) - 1.0) < 1e-14
    assert np.max(np.abs(hinner(pt.q, pt.p))) < 1e-14
    cp = sp.alpha(pt)
    assert sp.in_cotangent_h(cp)


def test_orbit_frame_is_right_multiplication(rng):
    from qpquant.algebra import qmul
    for shape in ((3, 4), (50, 2, 4)):
        p = rng.standard_normal(shape)
        frame = sp.sp1_orbit_frame(p)
        assert frame.shape == (4,) + shape
        for k, e in enumerate(np.eye(4)):
            assert np.array_equal(frame[k], qmul(p, np.broadcast_to(e, shape)))


def test_sphere_sampler_moments(rng):
    from qpquant.numerics import sphere_uniform
    pts = sphere_uniform(7, rng, size=200_000)
    mean = pts.mean(axis=0)
    se = pts.std(axis=0) / np.sqrt(len(pts))
    assert np.all(np.abs(mean) <= 3.5 * se + 1e-12)
    second = (pts[:, 0] ** 2).mean()
    se2 = (pts[:, 0] ** 2).std() / np.sqrt(len(pts))
    assert abs(second - 1.0 / 8.0) <= 3.5 * se2
    assert np.abs(np.linalg.norm(pts, axis=1) - 1.0).max() < 1e-12


def test_json_round_trip(rng):
    pt = sp.random_es0(2, 0.9, rng)
    for obj in (pt, sp.alpha(pt), sp.tau_s(pt), sp.tau_h(sp.alpha(pt))):
        rec = sp.point_from_json(sp.point_to_json(obj))
        for field in obj.__dataclass_fields__:
            assert np.allclose(getattr(obj, field), getattr(rec, field))
    # the arrays of E_S and E_H are real, and n counts from 1: a record that
    # breaks either is refused by space and field, not read as something else
    for obj in (pt, sp.alpha(pt)):
        rec = json.loads(sp.point_to_json(obj))
        rec["data"][0][1] = 5.0
        with pytest.raises(ValueError, match=f"{rec['space']} record: data must be real"):
            sp.point_from_json(json.dumps(rec))
    for obj in (sp.SphereCovector(np.eye(4)[:1], np.eye(4)[1:2]), sp.BTuple(np.eye(2)[None])):
        with pytest.raises(ValueError, match=r"E\w+ record: n must be >= 1, got 0"):
            sp.point_from_json(sp.point_to_json(obj))
