"""RNG streams, Monte Carlo plumbing, quadrature, volumes."""

import math
import warnings

import numpy as np
import pytest

from qpquant import numerics as num


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


def test_log_gamma_domain():
    with pytest.raises(ValueError):
        num.log_gamma(0.0)
    assert abs(num.log_gamma(0.5) - 0.5 * math.log(math.pi)) < 1e-14
