"""RNG streams, Monte Carlo plumbing, quadrature, volumes."""

import math
import re
import warnings

import mpmath as mp
import numpy as np
import pytest

from qpquant import numerics as num
from qpquant import quantization as qz


def test_mc_determinism_across_workers():
    cfg1 = num.MCConfig(samples=300_000, seed=42, workers=1, chunk=32768)
    cfg4 = num.MCConfig(samples=300_000, seed=42, workers=4, chunk=32768)

    def batch(rng, m):
        x = rng.standard_normal(m)
        return x * x

    e1 = num.mc_mean(batch, cfg1)
    e4 = num.mc_mean(batch, cfg4)
    assert e1.value == e4.value  # bitwise
    assert e1.stderr == e4.stderr
    assert abs(e1.value - 1.0) <= 4 * e1.stderr


def test_mc_seed_changes_value():
    def batch(rng, m):
        return rng.standard_normal(m)

    a = num.mc_mean(batch, num.MCConfig(samples=10_000, seed=1))
    b = num.mc_mean(batch, num.MCConfig(samples=10_000, seed=2))
    assert a.value != b.value


def test_mc_stderr_is_sample_std_over_sqrt_n():
    cfg = num.MCConfig(samples=4096, seed=3, chunk=512)

    def batch(rng, m):
        return rng.uniform(size=m)

    est = num.mc_mean(batch, cfg)
    vals = np.concatenate([np.asarray(batch(num.substream(3, i), 512))
                           for i in range(8)])
    assert abs(est.value - vals.mean()) < 1e-15
    assert abs(est.stderr - vals.std(ddof=1) / math.sqrt(4096)) < 1e-12


def test_substream_is_a_function_of_seed_and_index():
    draws = num.substream(7, 3).standard_normal(16)
    assert np.array_equal(num.substream(7, 3).standard_normal(16), draws)
    for seed, index in ((7, 4), (8, 3), (3, 7)):
        assert not np.array_equal(num.substream(seed, index).standard_normal(16), draws)
    with pytest.raises(ValueError):
        num.substream(-1, 0)


def test_real_batches_take_the_real_path_to_the_same_estimate():
    def batch(rng, m):
        return 3.0 + rng.standard_normal(m)

    cfg = num.MCConfig(samples=10_000, seed=11, chunk=4096)
    real = num.mc_mean(batch, cfg)
    cast = num.mc_mean(lambda rng, m: batch(rng, m).astype(complex), cfg)
    assert real.samples == cast.samples
    assert abs(real.value - cast.value) <= 1e-15 * abs(cast.value)
    assert abs(real.stderr - cast.stderr) <= 1e-15 * cast.stderr


@pytest.mark.parametrize("field,value", [("chunk", 0), ("chunk", -4), ("seed", -1),
                                         ("target_rel_stderr", 0.0),
                                         ("target_rel_stderr", -0.1), ("samples", -5)])
def test_mc_mean_names_a_bad_config_field(field, value):
    cfg = num.MCConfig(**{"samples": 1000, field: value})
    with pytest.raises(ValueError, match=f"^{field} must be "):
        num.mc_mean(lambda rng, m: rng.standard_normal(m), cfg)


def test_sphere_uniform_moments(rng):
    pts = num.sphere_uniform(4, rng, size=100_000)
    assert np.abs(np.linalg.norm(pts, axis=1) - 1.0).max() < 1e-12
    m2 = (pts[:, 0] ** 2).mean()
    se = (pts[:, 0] ** 2).std() / math.sqrt(len(pts))
    assert abs(m2 - 0.2) < 3.5 * se


class _ZeroFirstDraw:
    """Generator stub: standard_normal comes from a seeded generator, except
    that row ``row`` of the first draw is zero."""

    def __init__(self, row):
        self.rng = np.random.default_rng(5)
        self.row = row
        self.shapes = []

    def standard_normal(self, shape):
        out = self.rng.standard_normal(shape)
        if not self.shapes:
            out[self.row] = 0.0
        self.shapes.append(shape)
        return out


@pytest.mark.parametrize("size", [None, 6])
def test_sphere_uniform_redraws_degenerate_rows(size):
    # the zero row is redrawn from the generator's next draw, and nothing
    # else is drawn
    stub = _ZeroFirstDraw(row=... if size is None else 3)
    pts = num.sphere_uniform(4, stub, size=size)
    ref = np.random.default_rng(5)
    expect = ref.standard_normal((5,) if size is None else (size, 5))
    expect[... if size is None else 3] = ref.standard_normal((1, 5))
    assert stub.shapes == [expect.shape, (1, 5)]
    assert np.abs(np.linalg.norm(pts, axis=-1) - 1.0).max() <= 1e-15
    expect /= np.linalg.norm(expect, axis=-1, keepdims=True)
    assert np.abs(pts - expect).max() <= 1e-15
    assert stub.standard_normal(3).tolist() == ref.standard_normal(3).tolist()


@pytest.mark.parametrize("sphere_dims,normal_dim", [((5, 3), 6), ((4,), None)])
def test_mc_blocks_draws_whole_chunks_then_evaluates_row_blocks(sphere_dims, normal_dim):
    # 65,536 + 5,000 samples: the second chunk ends in a 904-row block
    cfg = num.MCConfig(samples=65_536 + 5_000, seed=77)
    blocks = []

    def integrand(*draws):
        blocks.append([d.copy() for d in draws])
        x = draws[0]
        out = x[:, 0] * x[:, 1] + 0.5 * x[:, 2]
        if len(draws) > 1:
            out = out + 1j * draws[1][:, 3] * draws[-1][:, 2]
        return out

    def whole(rng, size):
        draws = [num.sphere_uniform(d, rng, size=size) for d in sphere_dims]
        if normal_dim is not None:
            draws.append(rng.standard_normal((size, normal_dim)))
        return draws

    got = num._mc_blocks(integrand, cfg, sphere_dims, normal_dim)
    ref = num.mc_mean(lambda rng, size: integrand(*whole(rng, size)), cfg)
    assert (got.value, got.stderr, got.samples) == (ref.value, ref.stderr, ref.samples)

    blocks = blocks[:-2]        # the reference's two whole-chunk calls
    assert [len(b[0]) for b in blocks] == [num._BLOCK_ROWS] * 17 + [904]
    assert all(len(d) == len(b[0]) for b in blocks for d in b)
    for index, (size, lo, hi) in enumerate([(65_536, 0, 16), (5_000, 16, 18)]):
        draws = whole(num.substream(cfg.seed, index), size)
        for k, d in enumerate(draws):
            assert np.array_equal(np.concatenate([b[k] for b in blocks[lo:hi]]), d)


def _complex_symmetric(d, rng):
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return 0.5 * (x + x.T)


@pytest.mark.parametrize("a,b", [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2)])
def test_sphere_moment_is_the_sphere_average(a, b, rng):
    # random complex symmetric forms with nonzero traces and squares: the
    # exact moment against a 200,000-point sphere average, within 4 sigma
    d = 8
    ma, mb = _complex_symmetric(d, rng), _complex_symmetric(d, rng)
    assert min(abs(np.trace(ma)), abs(np.trace(mb)), np.abs(ma @ ma).max()) > 0.1
    x = num.sphere_uniform(d - 1, rng, size=200_000)
    vals = (np.einsum("ni,ij,nj->n", x, ma, x) ** a * np.einsum("ni,ij,nj->n", x, mb, x) ** b)
    mean, stderr = vals.mean(), vals.std() / math.sqrt(len(vals))
    got = num.sphere_moment(ma, mb, a, b)
    assert abs(got - mean) <= 4.0 * stderr + 1e-14
    # a stack of B, one per row, and the rank-4 factor W with B = W W^t
    w = rng.standard_normal((3, d, 4)) + 1j * rng.standard_normal((3, d, 4))
    stack = w @ np.swapaxes(w, -1, -2)
    by_row = num.sphere_moment(ma, stack, a, b)
    assert by_row.shape == (3,)
    for k in range(3):
        one = num.sphere_moment(ma, stack[k], a, b)
        assert abs(by_row[k] - one) <= 1e-13 * abs(one)
    by_factor = num.sphere_moment(ma, w, a, b, factor=True)
    assert np.abs(by_factor - by_row).max() <= 1e-12 * np.abs(by_row).max()


def test_sphere_moment_low_orders_in_closed_form(rng):
    # E x^t A x = tr A / d and E (x^t A x)(x^t B x) = (tr A tr B + 2 tr AB) / (d (d+2))
    for d in (4, 8, 12):
        ma, mb = _complex_symmetric(d, rng), _complex_symmetric(d, rng)
        assert abs(num.sphere_moment(ma, mb, 1, 0) - np.trace(ma) / d) <= 1e-14 * d
        want = (np.trace(ma) * np.trace(mb) + 2.0 * np.trace(ma @ mb)) / (d * (d + 2))
        assert abs(num.sphere_moment(ma, mb, 1, 1) - want) <= 1e-13 * abs(want)
        assert abs(num.sphere_moment(mb, ma, 1, 1) - want) <= 1e-13 * abs(want)


def test_gamma_radial():
    assert abs(num.gamma_radial(0, 1.0) - 1.0) < 1e-15
    val = num.gamma_radial(4, 2 * math.pi)
    assert abs(val - 24.0 / (2 * math.pi) ** 5) < 5e-15 * val
    # log-space evaluation at large order, against the Stirling series
    k = 500.0
    stirling = (0.5 * math.log(2 * math.pi / (k + 1))
                + (k + 1) * (math.log(k + 1) - 1.0)
                + 1.0 / (12 * (k + 1)) - 1.0 / (360 * (k + 1) ** 3))
    assert abs(num.log_gamma_radial(k, 1.0) - stirling) <= 1e-10 * abs(stirling)
    with pytest.raises(ValueError):
        num.gamma_radial(-1.5, 1.0)


def test_vol_sphere_values():
    assert abs(num.vol_sphere(2) - 4 * math.pi) < 1e-13
    assert abs(num.vol_sphere(3) - 2 * math.pi ** 2) < 1e-13
    assert abs(num.vol_sphere(7) - math.pi ** 4 / 3) < 1e-13


def test_radial_quad_matches_gamma_integral():
    val, err = num.radial_quad(2 * math.pi, 4, 1e-11)
    exact = num.gamma_radial(4, 2 * math.pi)
    assert abs(val - exact) <= max(err, 1e-12 * exact)
    # r^150 alone leaves the double range; the weight is one exponential
    val, _ = num.radial_quad(2 * math.pi, 150, 1e-12)
    exact = num.gamma_radial(150, 2 * math.pi)
    assert abs(val - exact) <= 1e-12 * exact
    with pytest.raises(ValueError):
        num.radial_quad(0.0, 4, 1e-11)


def test_quadrature_convergence_under_tightening():
    v1, e1 = num.radial_quad(1.0, 3, 1e-8)
    v2, e2 = num.radial_quad(1.0, 3, 1e-12)
    assert abs(v1 - v2) <= max(e1, 1e-8 * abs(v1))


def test_mc_mean_warns_at_its_cap():
    def batch(rng, m):
        return rng.standard_normal(m)

    cfg = num.MCConfig(samples=1000, chunk=1000, target_rel_stderr=0.05)
    with pytest.warns(RuntimeWarning, match="64000 samples"):
        est = num.mc_mean(batch, cfg)
    assert est.samples == 64 * 1000 == num.MAX_EXTENSION * 1000
    # a run that meets its target stops early and does not warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = num.mc_mean(lambda rng, m: 1.0 + rng.standard_normal(m), cfg)
    assert est.samples < 64 * 1000 and est.stderr <= 0.05 * abs(est.value)


def test_budget_below_one_chunk_stops_within_the_cap_and_its_need():
    # a 1,000-sample budget with the default 65,536-row chunk: extensions are
    # sized in rows, so the run neither jumps past 64 x samples nor overshoots
    cfg = num.MCConfig(samples=1000, seed=1, target_rel_stderr=0.01)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = num.mc_mean(lambda rng, m: 1.0 + rng.standard_normal(m), cfg)
    need = (1.0 / 0.01) ** 2  # sigma^2 / (target mean)^2 rows
    assert est.stderr <= 0.01 * abs(est.value)
    assert est.samples <= num.MAX_EXTENSION * 1000 and est.samples <= 1.25 * need


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_extension_is_sized_from_the_variance_estimate(seed):
    # known sigma, a target that needs sqrt(2) x the budget: the run meets it
    # within 1.25 x the need, where doubling would draw 2 x the budget
    sigma, budget = 2.0, 65_536
    need = math.sqrt(2.0) * budget
    target = sigma / math.sqrt(need)
    cfg = num.MCConfig(samples=budget, seed=seed, target_rel_stderr=target)
    est = num.mc_mean(lambda rng, m: 1.0 + sigma * rng.standard_normal(m), cfg)
    assert est.stderr <= target * abs(est.value)
    assert budget < est.samples <= 1.25 * need < 2 * budget
    assert (est.samples - budget) % num._BLOCK_ROWS == 0


def test_adaptive_extensions_do_not_depend_on_workers():
    # extensions cut into partial chunks keep their keyed indices
    def batch(rng, m):
        return 1.0 + 3.0 * rng.standard_normal(m)

    runs = [num.mc_mean(batch, num.MCConfig(samples=3 * 8192, seed=5, chunk=8192, workers=w,
                                            target_rel_stderr=0.015))
            for w in (1, 3)]
    assert runs[0] == runs[1]  # bitwise value, stderr and sample count
    assert runs[0].samples > 3 * 8192 and runs[0].samples % 8192 != 0


def test_cap_warning_points_at_the_callers_line():
    # the warning names the first frame outside qpquant, not mc_mean's caller
    cfg = num.MCConfig(samples=512, chunk=512, target_rel_stderr=1e-6)
    with pytest.warns(RuntimeWarning, match="mc_mean stopped") as record:
        qz.i_coeff_mc(1, 3, cfg)
    assert [w.filename for w in record] == [__file__]


def test_log_gamma_domain():
    with pytest.raises(ValueError):
        num.log_gamma(0.0)
    assert abs(num.log_gamma(0.5) - 0.5 * math.log(math.pi)) < 1e-14


@pytest.mark.parametrize("x", [math.nan, math.inf, 0.0, -1.0, 1e306])
def test_log_gamma_refuses_its_edges(x):
    # nan compares false with everything, and log Gamma(1e306) is past the float range
    with pytest.raises(ValueError, match=re.escape(f"x={x!r}")):
        num.log_gamma(x)


# ---------------------------------------- log-Gamma error, bounded against mpmath
# The references are the closed forms written out from their Gamma products
# and evaluated at 50 significant digits: a_l, b_l and c_l with
# |b_H| = 1/(sqrt(2) pi^2), a_H = 2^(n-2), |b_S| = 1, vol(S^m) =
# 2 pi^((m+1)/2) / Gamma((m+1)/2), vol(P^n H) = pi^(2n) / (2n+1)! and the
# exact eigenspace dimension.

LARGE_L = (10 ** 3, 10 ** 4, 10 ** 6)


def _mp_log_a(n, l):
    pi = mp.pi
    return (-mp.log(mp.sqrt(2) * pi ** 2) / 2 + 3 * mp.log(2) / 4 - (2 * l + mp.mpf(3) / 2) * mp.log(pi)
            + mp.loggamma(l + 1) + mp.loggamma(l + 2) + mp.loggamma(l + 2 * n + mp.mpf(1) / 2)
            - mp.log(2 * l + 2 * n + 1) - mp.loggamma(l + 2 * n))


def _mp_log_b(n, l):
    q = [mp.mpf(6 * n + j) / 4 for j in (2, 3, 4, 5)]
    return ((n - 2) * mp.log(2) / 2 - n * mp.log(2) / 2 + (-4 * l - 3) * mp.log(mp.pi)
            - 2 * mp.log(2 * l + 2 * n + 1) + 2 * mp.loggamma(l + 1) + 2 * mp.loggamma(l + 2)
            - mp.loggamma(l + n + mp.mpf(1) / 2) - mp.loggamma(l + n + 1)
            - mp.loggamma(l + 2 * n) - mp.loggamma(l + 2 * n + 1)
            + sum(mp.loggamma(l + x) for x in q))


def _mp_log_c(n, l):
    pi = mp.pi

    def log_vol_sphere(m):
        return mp.log(2) + mp.mpf(m + 1) / 2 * mp.log(pi) - mp.loggamma(mp.mpf(m + 1) / 2)

    dim = (2 * n * (2 * l + 2 * n + 1) * math.comb(l + 2 * n, 2 * n) ** 2
           // ((2 * n + 1) * (l + 1) * (l + 2 * n)))
    k = 2 * l + 4 * n + mp.mpf(5) / 2  # Gamma(k) / (2 pi)^k, the radial factor
    return (2 * n * mp.log(pi) - mp.loggamma(2 * n + 2) - mp.log(dim)
            + mp.log(pi) / 2 - mp.log(4) + log_vol_sphere(2) + log_vol_sphere(4 * n - 1)
            - mp.log(l + 2 * n + mp.mpf(1) / 2) + mp.loggamma(l + 2 * n)
            - mp.loggamma(l + 2 * n + mp.mpf(1) / 2) - mp.log(2) / 2
            + mp.loggamma(k) - k * mp.log(2 * pi))


def _closed_form_arguments():
    """Every argument that the closed forms hand log_gamma at l in LARGE_L, n = 1..4."""
    seen = set()

    def record(x):
        seen.add(x)
        return math.lgamma(x)

    with pytest.MonkeyPatch.context() as mpatch:
        mpatch.setattr(num, "log_gamma", record)
        mpatch.setattr(qz, "log_gamma", record)
        for l in LARGE_L:
            for n in range(1, 5):
                for f in (qz.log_b_coeff, qz.log_a_coeff, qz.log_c_coeff, qz.log_i_coeff,
                          qz.t_norm_gamma_part):
                    f(n, l)
    return seen


def test_log_gamma_error_is_bounded():
    # measured worst: 4.7e-16 absolute (x = 2.5) up to 3 and 4.2 ulps (x = 3.25)
    # above; 1.3 ulps on the closed forms' arguments. Bounds: 2e-15 and 8 ulps.
    args = {k / 4 for k in range(1, 801)} | _closed_form_arguments()
    assert max(args) > 2e6  # the l = 10^6 arguments are in
    with mp.workdps(50):
        for x in sorted(args):
            ref = mp.loggamma(mp.mpf(x))
            err = float(abs(num.log_gamma(x) - ref))
            if x <= 3:
                assert err <= 2e-15, x
            else:
                assert err <= 8 * math.ulp(float(ref)), x


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_t_norm_and_c_over_a_error_is_bounded(n):
    # about 10^7 units of log Gamma cancel at l = 10^6. Measured worst relative
    # error: 2.9e-12 at l = 10^3 and 9.7e-9 at l = 10^6, at least 3x inside each bound.
    with mp.workdps(50):
        for l, bound in ((10 ** 3, 1e-11), (10 ** 6, 3e-8)):
            la, lb, lc = _mp_log_a(n, l), _mp_log_b(n, l), _mp_log_c(n, l)
            assert abs(qz.t_norm(n, l) / mp.exp(la - lb / 2) - 1) <= bound, l
            assert abs(qz.c_over_a(n, l) / mp.exp(lc - la) - 1) <= bound, l
