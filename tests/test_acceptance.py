"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints one ``ACCEPTANCE <id>: PASS/FAIL`` line (run pytest with
``-s`` to see them all).  Criterion 11 asserts the operator norm that the
defining integrals give (limit 2/pi, consistent with the b_l and a_l that
criteria 9, 12 and 14 pin down) and pins the source's printed closed
expression and limit sqrt(2)/pi as an erratum of exactly sqrt(2); see the
README.
"""

import math
import time

import numpy as np
import pytest
from scipy import integrate

from qpquant import geometry as geo
from qpquant import quantization as qz
from qpquant import spaces as sp
from qpquant import spectral as spl
from qpquant.algebra import fro_norm, qconj, qmat_mul, qmul, qnorm, rho
from qpquant.numerics import MCConfig, vol_sphere


def line(cid, ok, detail):
    print(f"ACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    return ok


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(77)


def test_criterion_01_algebra_identities(rng):
    t0 = time.time()
    x = rng.standard_normal((10_000, 4))
    y = rng.standard_normal((10_000, 4))
    z = rng.standard_normal((10_000, 4))
    scale = max(1.0, float(np.abs(qmul(x, qmul(y, z))).max()))
    worst = np.abs(qmul(qmul(x, y), z) - qmul(x, qmul(y, z))).max() / scale
    worst = max(worst, np.abs(qconj(qmul(x, y)) - qmul(qconj(y), qconj(x))).max() / scale)
    worst = max(worst, np.abs(qnorm(qmul(x, y)) - qnorm(x) * qnorm(y)).max() / scale)
    cx = x + 1j * rng.standard_normal((10_000, 4))
    cy = y + 1j * rng.standard_normal((10_000, 4))
    hom = np.abs(rho(qmul(cx, cy)) - rho(cx) @ rho(cy)).max()
    worst = max(worst, hom / max(1.0, float(np.abs(rho(cx) @ rho(cy)).max())))
    from qpquant.algebra import cbilinear, complexify, inner_r, jordan, quat_conj_c, theta_transpose
    for _ in range(100):
        m = int(rng.integers(2, 4))
        X = rng.standard_normal((m, m, 4))
        X = 0.5 * (X + theta_transpose(X))
        Y = rng.standard_normal((m, m, 4))
        Y = 0.5 * (Y + theta_transpose(Y))
        Z = rng.standard_normal((m, m, 4))
        Z = 0.5 * (Z + theta_transpose(Z))
        lhs, rhs = inner_r(jordan(X, Y), Z), inner_r(X, jordan(Y, Z))
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
        ca = complexify(X)
        worst = max(worst, abs(cbilinear(ca, quat_conj_c(ca)) - 0.5 * np.sum(np.abs(ca) ** 2))
                    / max(1.0, np.sum(np.abs(ca) ** 2)))
    dt = time.time() - t0
    ok = worst <= 1e-12 and dt < 5.0
    assert line("01-algebra", ok, f"max relative residual {worst:.2e}, runtime {dt:.1f}s")


def test_criterion_02_diagram_commutes(rng):
    worst = 0.0
    for n in (1, 2):
        for _ in range(1000):
            pt = sp.random_es0(n, float(rng.uniform(0.3, 2.0)), rng)
            lhs = sp.beta(sp.tau_s(pt)).A
            rhs = sp.tau_h(sp.alpha(pt)).A
            worst = max(worst, float(np.abs(lhs - rhs).max()) / fro_norm(rhs))
    pt = sp.random_es_generic(1, rng)
    dev = float(np.abs(sp.beta(sp.tau_s(pt)).A - sp.tau_h(sp.alpha(pt)).A).max()
                / fro_norm(sp.tau_h(sp.alpha(pt)).A))
    ok = worst <= 1e-10 and dev >= 1e-3
    assert line("02-diagram", ok,
                f"commutation residual {worst:.2e}, counterexample deviation {dev:.2e}")


def test_criterion_03_norm_chain(rng):
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 3))
        pt = sp.random_es0(n, float(rng.uniform(0.2, 2.5)), rng)
        bt, cp = sp.tau_s(pt), sp.alpha(pt)
        am = sp.tau_h(cp)
        nq2 = float(np.sum(pt.q ** 2))
        worst = max(worst,
                    abs(bt.norm ** 2 - 4 * nq2) / (4 * nq2),
                    abs(cp.qnorm_j ** 2 - 2 * nq2) / (2 * nq2),
                    abs(am.norm ** 2 - 2 * cp.qnorm_j ** 4) / (2 * cp.qnorm_j ** 4),
                    abs(am.norm - bt.norm ** 2 / math.sqrt(2.0)) / am.norm)
        q3 = qmat_mul(qmat_mul(cp.Q, cp.Q), cp.Q)
        worst = max(worst, float(np.abs(q3 - 0.5 * cp.qnorm_j ** 2 * cp.Q).max())
                    / cp.qnorm_j ** 3)
    ok = worst <= 1e-12
    assert line("03-norm-chain", ok, f"max relative residual {worst:.2e}")


def test_criterion_04_oneform_identities(rng):
    worst = 0.0
    for _ in range(250):
        pt = sp.random_es0(1, float(rng.uniform(0.3, 2.2)), rng)
        bt, am = sp.tau_s(pt), sp.tau_h(sp.alpha(pt))
        us = geo.real_basis_from_complex(geo.tangent_basis_et_s(bt))
        uh = geo.real_basis_from_complex(geo.tangent_basis_et_h(pt))
        for k in map(int, rng.integers(0, len(us), size=2)):
            worst = max(worst, geo.canonical_oneform_check("S", bt, us[k]))
        for k in map(int, rng.integers(0, len(uh), size=2)):
            worst = max(worst, geo.canonical_oneform_check("H", am, uh[k]))
    ok = worst <= 1e-10
    assert line("04-oneforms", ok, f"max residual over 1000 pairs {worst:.2e}")


def test_criterion_05_pairing_constants(rng):
    cons = geo.recover_constants(1, rng, npoints=6, det_points=100)
    cons2 = geo.recover_constants(2, rng, npoints=4, det_points=10)
    checks = {
        "|a_S|": abs(abs(cons["a_S"]) - 1.0),
        "a_S phase": abs(cons["a_S"] - (-1j)),
        "|b_S|": abs(abs(cons["b_S"]) - 1.0),
        "a_H n=1": abs(cons["a_H"] - 0.5),
        "a_H n=2": abs(cons2["a_H"] - 1.0),
        "det": abs(cons["det_theta"] - 0.125),
        "b_H": abs(cons["b_H"] - (-1.0 / (math.sqrt(2.0) * math.pi ** 2))),
    }
    spread_ok = cons["det_theta_spread"] <= 1e-8
    lhs = 2 * math.pi ** 2 * (cons["a_S"] / cons["b_S"]) * cons["det_theta"]
    rhs = (1.0 / math.sqrt(2.0)) ** 3 * cons["a_H"] / cons["b_H"]
    cor_ok = (abs(lhs - (-math.pi ** 2 / 4)) <= 1e-12
              and abs(rhs - (-math.pi ** 2 / 4)) <= 1e-12)
    worst = max(checks.values())
    ok = worst <= 1e-6 and spread_ok and cor_ok
    assert line("05-constants", ok,
                f"worst deviation {worst:.2e}, det spread {cons['det_theta_spread']:.2e}, "
                f"substitution identity both sides -pi^2/4: {cor_ok}")


def test_criterion_06_geodesic_flow(rng):
    worst = 0.0
    for _ in range(100):
        pt = sp.random_es0(1, 1.0, rng)
        a_t, a_flow = geo.geodesic_flow_pair(pt, np.arange(0.0, 3.15, 0.1))
        worst = max(worst, float(np.abs(a_t - a_flow).max()))
        a_pi, _ = geo.geodesic_flow_pair(pt, math.pi)
        worst = max(worst, float(np.abs(a_pi - sp.tau_h(sp.alpha(pt)).A).max()))
    ok = worst <= 1e-10
    assert line("06-geodesic-flow", ok, f"max deviation {worst:.2e} incl. period-pi return")


def test_criterion_07_spectral(rng):
    dims_ok = all(spl.dim_eigenspace(1, l) == (l + 1) * (l + 2) * (2 * l + 3) // 6
                  for l in range(11))
    lam_ok = all(spl.eigenvalue(n, l) == 4.0 * l * (2 * n + 1 + l)
                 and spl.eigenvalue_sqrt_shift(n, l) ** 2
                 == spl.eigenvalue(n, l) + (2 * n + 1) ** 2
                 for n in (1, 2) for l in (0, 1, 5, 17))
    worst = 0.0
    for n in (1, 2):
        for _ in range(100):
            am = sp.tau_h(sp.random_eh(n, float(rng.uniform(0.5, 2.0)), rng))
            cert = spl.harmonicity_certificate(am)
            worst = max(worst, cert["trace_residual"], cert["null_gradient_residual"])
    ok = dims_ok and lam_ok and worst <= 1e-10
    assert line("07-spectral", ok,
                f"dims exact: {dims_ok}, eigenvalue identities exact: {lam_ok}, "
                f"harmonicity residual {worst:.2e}")


def test_criterion_08_moment_integrals():
    t0 = time.time()
    worst_sig, l0_ok = 0.0, True
    for n in (1, 2):
        for l in range(4):
            cfg = MCConfig(samples=10_000_000, seed=800 + 10 * n + l, chunk=1 << 18)
            est = qz.i_coeff_mc(n, l, cfg)
            if l == 0:
                # the integrand is exactly constant: its mean meets the closed
                # form to a few ulps, the floor the CLI applies
                l0_ok = l0_ok and abs(est.value - qz.i_coeff(n, 0)) <= 1e-14 * qz.i_coeff(n, 0)
            else:
                sig = abs(est.value - qz.i_coeff(n, l)) / max(est.stderr, 1e-300)
                worst_sig = max(worst_sig, sig)
    i0_ok = abs(qz.i_coeff(1, 0) - math.pi ** 2 / 6.0) < 1e-14
    m_est = qz.moment_s7_mc(1, MCConfig(samples=10_000_000, seed=801, chunk=1 << 18))
    m_sig = abs(m_est.value - 2 * math.pi ** 4 / 15.0) / m_est.stderr
    dt = time.time() - t0
    ok = worst_sig <= 3.0 and l0_ok and i0_ok and m_sig <= 3.0 and dt < 120.0
    assert line("08-moments", ok,
                f"worst |z|-score {worst_sig:.2f}, l = 0 within 1e-14: {l0_ok}, "
                f"seven-sphere moment z {m_sig:.2f}, "
                f"runtime {dt:.0f}s")


def test_criterion_09_b_constant():
    worst = max(abs(qz.b_coeff(n, l) - qz.b_coeff_semianalytic(n, l)) / qz.b_coeff(n, l)
                for n in (1, 2) for l in range(4))
    closed_ok = worst <= 1e-8
    mc_ok, details = True, []
    for l in (0, 1):
        est = qz.b_coeff_mc(1, l, MCConfig(samples=1_200_000, seed=900 + l))
        rel_se = est.stderr / est.value
        good = (rel_se <= 0.01
                and est.within(qz.b_coeff(1, l), nsigma=3.0, floor=1e-12 * est.value))
        mc_ok = mc_ok and good
        details.append(f"l={l}: rel stderr {rel_se:.2%}")
    ok = closed_ok and mc_ok
    assert line("09-b-constant", ok,
                f"closed vs semianalytic {worst:.2e}; MC {'; '.join(details)}")


def test_criterion_10_a_and_c_quadrature():
    worst_a = max(abs(qz.a_coeff(n, l) - qz.a_coeff_quadrature(n, l)) / qz.a_coeff(n, l)
                  for n in (1, 2) for l in range(6))
    worst_c = max(abs(qz.c_coeff(n, l) - qz.c_coeff_quadrature(n, l)) / qz.c_coeff(n, l)
                  for n in (1, 2) for l in range(6))
    worst_ratio = max(abs(qz.c_over_a(n, l) - qz.c_over_a_expr(n, l)) / qz.c_over_a(n, l)
                      for n in (1, 2) for l in range(51))
    ok = worst_a <= 1e-8 and worst_c <= 1e-8 and worst_ratio <= 1e-10
    assert line("10-quadrature-oracles", ok,
                f"a: {worst_a:.2e}, c: {worst_c:.2e}, ratio expression: {worst_ratio:.2e}")


def _tnorm_closed(n, l, a_h, b_h, quarter_power_shift):
    """sqrt|b_H| / a_H^(1/4) 2^((n + shift)/4) x the Gamma-ratio factor."""
    return (math.sqrt(abs(b_h)) / abs(a_h) ** 0.25 * 2.0 ** ((n + quarter_power_shift) / 4.0)
            * qz.t_norm_gamma_part(n, l))


def _tnorm_l0_quadrature(n):
    """Operator norm on H_0 from its defining integrals over the fiber R^(4n):
    int w_fg / sqrt(int w_gg), radial quadrature at |A| = 2 sqrt(2) |q|^2."""
    def radial(weight):
        val, _ = integrate.quad(lambda r: weight(2.0 * math.sqrt(2.0) * r * r) * r ** (4 * n - 1),
                                0.0, np.inf, epsabs=0.0, epsrel=1e-13, limit=200)
        return vol_sphere(4 * n - 1) * val

    return radial(qz.weight_pair_fg) / math.sqrt(radial(lambda a: qz.weight_pair_gg(a, n)))


def test_criterion_11a_operator_norm_printed_expression():
    # The defining integrals fix the closed expression's prefactor at
    # 2^((n+3)/4); the printed one has 2^((n+1)/4), an erratum of exactly
    # sqrt(2) (see README).  The prefactor is pinned three ways: from the
    # paper's constants a_H = 2^(n-2), b_H = -1/(sqrt(2) pi^2), from the
    # constants recovered numerically (n = 1, 2), and at l = 0 from the two
    # radial quadratures of the pairing weights.
    b_h = -1.0 / (math.sqrt(2.0) * math.pi ** 2)
    grid = [(n, l) for n in (1, 2, 3, 4) for l in range(51)]
    worst = max(abs(qz.t_norm(n, l) - _tnorm_closed(n, l, 2.0 ** (n - 2), b_h, 3))
                / qz.t_norm(n, l) for n, l in grid)
    # own generator, as criteria 12-14 have
    rng = np.random.default_rng(1100)
    cons1 = geo.recover_constants(1, rng, npoints=6, det_points=100)
    cons2 = geo.recover_constants(2, rng, npoints=4, det_points=10)
    worst_rec = max(abs(qz.t_norm(n, l) - _tnorm_closed(n, l, cons["a_H"], cons1["b_H"], 3))
                    / qz.t_norm(n, l) for n, cons in ((1, cons1), (2, cons2)) for l in range(51))
    worst_l0 = 0.0
    for n in (1, 2, 3, 4):
        quad = _tnorm_l0_quadrature(n)
        worst_l0 = max(worst_l0, abs(qz.t_norm(n, 0) - quad) / quad,
                       abs(_tnorm_closed(n, 0, 2.0 ** (n - 2), b_h, 3) - quad) / quad)
    # the printed expression stays an exact, failable assertion
    worst_erratum = max(abs(qz.t_norm(n, l) / _tnorm_closed(n, l, 2.0 ** (n - 2), b_h, 1)
                            - math.sqrt(2.0)) for n, l in grid)
    ok = worst <= 1e-10 and worst_rec <= 1e-10 and worst_l0 <= 1e-10 and worst_erratum <= 1e-12
    assert line("11a-tnorm-identity", ok,
                f"vs defining-integral expression {worst:.2e}, with recovered constants "
                f"{worst_rec:.2e}, l=0 vs two-integral quadrature {worst_l0:.2e}; "
                f"ratio to printed expression minus sqrt(2): {worst_erratum:.2e}")


def test_criterion_11b_operator_norm_limit_printed():
    measured = [qz.t_norm_limit(n) for n in (1, 2, 3, 4)]
    printed = math.sqrt(2.0) / math.pi
    ok = all(abs(m - 2.0 / math.pi) <= 1e-3 for m in measured)
    # the printed prefactor arithmetic is true; the printed limit is the
    # defining-integral limit divided by exactly sqrt(2)
    ident_ok = all(abs(qz.t_norm_prefactor(n, 1) - printed) <= 1e-15 for n in (1, 2, 3, 4))
    erratum_ok = all(abs(m / printed - math.sqrt(2.0)) <= 1e-3 for m in measured)
    assert line("11b-tnorm-limit", ok and ident_ok and erratum_ok,
                f"measured n=1 {measured[0]:.7f} vs 2/pi {2.0 / math.pi:.7f}; printed "
                f"{printed:.7f}, ratio {measured[0] / printed:.7f} vs sqrt(2); "
                f"printed prefactor arithmetic holds: {ident_ok}")


def test_criterion_11c_ratio_limit():
    val = qz.c_over_a(1, 10 ** 6)
    ok = abs(val - math.pi / 2.0) <= 1e-3
    for n in (2, 3):
        ok = ok and abs(qz.c_over_a(n, 10 ** 6) - math.pi / 2.0) <= 1e-3
    assert line("11c-ratio-limit", ok, f"measured {val:.7f} vs pi/2 {math.pi / 2:.7f}")


def _run_to_target(apply_fn, seed, target_rel=0.007, start=400_000):
    """Stochastic gates use sample counts with stderr <= 0.7% of the value."""
    return apply_fn(MCConfig(samples=start, seed=seed, target_rel_stderr=target_rel))


def test_criterion_12_operator_identities():
    t0 = time.time()
    # own generator: the draws, and with them the adaptive sample counts, do
    # not depend on which tests ran before
    rng = np.random.default_rng(1200)
    ok = True
    details = []
    for l in (0, 1):
        for k in range(3):
            phi = spl.random_hl_function(1, l, 2, rng)
            pprime = sp.random_es0(1, 1.0, rng).p
            base = complex(phi.eval_sphere(pprime[None])[0])
            est = _run_to_target(
                lambda cfg: qz.t_apply_eigenfunction(phi, pprime, cfg),
                seed=1200 + 10 * l + k)
            rel = abs(est.value - qz.a_coeff(1, l) * base) / abs(qz.a_coeff(1, l) * base)
            est2 = _run_to_target(
                lambda cfg: qz.t_tilde_apply_eigenfunction(phi, pprime, cfg),
                seed=1260 + 10 * l + k)
            rel2 = abs(est2.value - qz.c_coeff(1, l) * base) / abs(qz.c_coeff(1, l) * base)
            ok = ok and rel <= 0.02 and rel2 <= 0.02
            details.append(f"l={l}#{k}: {rel:.3%}/{rel2:.3%}")
    dt = time.time() - t0
    ok = ok and dt < 300.0
    assert line("12-operator-identities", ok,
                f"relative errors (direct/descended) {', '.join(details)}; runtime {dt:.0f}s")


def test_criterion_13_flow_commutation():
    rng = np.random.default_rng(1300)
    scalar_ok = all(qz.flow_commutation_scalar(n, l, t) == 0.0
                    for n in (1, 2) for l in (0, 1, 4) for t in (0.3, 0.7, 2.0))
    op_ok = True
    for l in (0, 1):
        phi = spl.random_hl_function(1, l, 2, rng)
        p = sp.random_es0(1, 1.0, rng).p
        resid, stderr = qz.flow_commutation_operator_check(
            phi, p, 0.7, MCConfig(samples=100_000, seed=1300 + l))
        op_ok = op_ok and resid <= max(3.0 * stderr, 1e-10)
    # quantum period 2 pi vs classical period pi
    ph_pi = complex(np.exp(-1j * math.pi * (2 * 1 + 2 * 1 + 1)))
    ph_2pi = complex(np.exp(-1j * 2 * math.pi * (2 * 1 + 2 * 1 + 1)))
    period_ok = abs(ph_pi + 1.0) < 1e-12 and abs(ph_2pi - 1.0) < 1e-12
    ok = scalar_ok and op_ok and period_ok
    assert line("13-flow-commutation", ok,
                f"scalar exact: {scalar_ok}, operator within MC tolerance: {op_ok}, "
                f"phase -1 at t=pi: {period_ok}")


def test_criterion_14_kernel():
    rng = np.random.default_rng(1400)
    l0 = 10_000
    growth = math.exp(qz.log_b_coeff(1, l0) - qz.log_b_coeff(1, l0 + 1)) * l0 ** 4 / math.pi ** 4
    growth_ok = abs(growth - 1.0) <= 1e-2
    val, tail = qz.kernel_diag(1, 2.0 * math.sqrt(2.0))
    tail_ok = tail <= 1e-12 * val
    rep_ok = True
    bound_ok = True
    for k in range(3):
        a1 = sp.tau_h(sp.random_eh(1, math.sqrt(2.0), rng)).A
        aprime = sp.tau_h(sp.random_eh(1, float(rng.uniform(1.2, 2.0)), rng)).A
        c0 = float(rng.uniform(0.3, 1.0))
        cf = complex(rng.standard_normal() * 0.5, rng.standard_normal() * 0.5)
        fval, rec = qz.kernel_reproduce_check(c0, [a1], [cf], aprime, 1,
                                              MCConfig(samples=600_000, seed=1400 + k))
        rep_ok = rep_ok and abs(rec.value - fval) <= 3.0 * rec.stderr + 1e-12
        lhs, bound, slack = qz.kernel_norm_bound_check(c0, [a1], [cf], aprime, 1,
                                                       MCConfig(samples=200_000, seed=1450 + k))
        bound_ok = bound_ok and lhs <= bound + slack
    ok = growth_ok and tail_ok and rep_ok and bound_ok
    assert line("14-kernel", ok,
                f"growth ratio {growth:.4f}, certified tail {tail:.1e}, "
                f"reproduction 3-sigma: {rep_ok}, evaluation bound: {bound_ok}")
