"""Shared numerical engines.

Deterministic counter-based RNG substreams, chunked Monte Carlo with error
estimates, radial Gamma integrals, sphere volumes and log-gamma.  Every
stochastic routine in the package goes through :func:`mc_mean` so that
results are bit-identical for a fixed seed, independent of how many workers
execute the chunks.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
from scipy import integrate
from scipy.special import gammaln

__all__ = [
    "MCConfig",
    "MCEstimate",
    "gamma_radial",
    "log_gamma",
    "log_gamma_radial",
    "mc_mean",
    "radial_quad",
    "sphere_uniform",
    "substream",
    "vol_sphere",
]

DEFAULT_CHUNK = 1 << 16
# rows of one integrand block (see _blockwise): at n = 1 a block's
# intermediates take about 1 MiB and stay in a 2 MiB L2 cache, where a whole
# chunk's do not.  2048 to 8192 rows time alike; whole chunks are slower
# (b_l at n = 2: 235 against 180 ms for 131,072 samples on 2 cores)
_BLOCK_ROWS = 1 << 12
# an adaptive run stops once its sample count reaches this multiple of the budget
MAX_EXTENSION = 64


@dataclass(frozen=True)
class MCConfig:
    """Configuration of one Monte Carlo run.

    Fixing ``seed`` fixes the output exactly; ``workers`` only changes how
    chunks are scheduled, never the result.
    """

    samples: int = 100_000
    seed: int = 0
    workers: int = 1
    target_rel_stderr: float | None = None
    chunk: int = DEFAULT_CHUNK


@dataclass(frozen=True)
class MCEstimate:
    """Monte Carlo value with standard error and provenance."""

    value: complex
    stderr: float
    samples: int
    seed: int = 0

    def within(self, expected, nsigma=3.0, floor=0.0):
        """True if ``expected`` lies within ``nsigma`` standard errors."""
        return abs(self.value - expected) <= nsigma * self.stderr + floor

    def scaled(self, c):
        """The estimate of ``c`` times the mean: value times c, stderr times |c|."""
        return replace(self, value=self.value * c, stderr=self.stderr * abs(c))


def substream(seed, index):
    """Independent reproducible generator for chunk ``index`` of ``seed``.

    Philox is counter-based, so (seed, index) keys a stream directly.
    """
    return np.random.Generator(np.random.Philox(key=np.uint64(seed), counter=[0, 0, 0, np.uint64(index)]))


def _chunk_stats(batch_fn, seed, index, m):
    rng = substream(seed, index)
    vals = np.asarray(batch_fn(rng, m))
    if vals.shape[0] != m:
        raise ValueError("batch function returned wrong sample count")
    s = vals.sum(dtype=complex)
    s2 = np.abs(vals - s / m) ** 2
    return s, s2.sum(dtype=float)


def _combine(jobs, stats):
    n = sum(m for _, m in jobs)
    total = complex(math.fsum(s.real for s, _ in stats), math.fsum(s.imag for s, _ in stats))
    mean = total / n
    # within-chunk spreads are around chunk means; recentre around the global mean
    var_sum = math.fsum(v for _, v in stats)
    for (_, m), (s, _) in zip(jobs, stats):
        var_sum += m * abs(s / m - mean) ** 2
    var = var_sum / max(n - 1, 1)
    return mean, math.sqrt(var / n), n


def mc_mean(batch_fn, config):
    """Mean of ``batch_fn(rng, m) -> (m,) array`` over ``config.samples`` draws.

    Chunks are keyed by index, partial sums are combined in index order with
    compensated summation, so the estimate does not depend on ``workers``.
    With ``target_rel_stderr`` set, whole rounds of further chunks are drawn
    (continuing the index sequence, hence still deterministic) until the
    relative standard error reaches the target or the sample budget has
    grown by ``MAX_EXTENSION``; stopping there above the target warns.
    """
    n = int(config.samples)
    chunk = int(config.chunk)
    sizes = [chunk] * (n // chunk)
    if n % chunk:
        sizes.append(n % chunk)
    if not sizes:
        raise ValueError("samples must be positive")
    jobs = list(enumerate(sizes))

    def run(new_jobs):
        if config.workers > 1:
            with ThreadPoolExecutor(max_workers=config.workers) as ex:
                return list(ex.map(lambda im: _chunk_stats(batch_fn, config.seed,
                                                           im[0], im[1]), new_jobs))
        return [_chunk_stats(batch_fn, config.seed, i, m) for i, m in new_jobs]

    stats = run(jobs)
    mean, stderr, total_n = _combine(jobs, stats)
    target = config.target_rel_stderr
    while (target is not None and stderr > target * abs(mean)
           and total_n < MAX_EXTENSION * n):
        start = jobs[-1][0] + 1
        extra = [(start + k, chunk) for k in range(max(total_n // chunk, 1))]
        jobs.extend(extra)
        stats.extend(run(extra))
        mean, stderr, total_n = _combine(jobs, stats)
    if target is not None and stderr > target * abs(mean):
        warnings.warn(f"mc_mean stopped at its {MAX_EXTENSION}x sample cap after {total_n} "
                      f"samples with stderr {stderr:.3e}, above the target "
                      f"{target:g} x |mean| = {target * abs(mean):.3e}",
                      RuntimeWarning, stacklevel=2)
    if np.iscomplexobj(np.asarray(mean)) and abs(mean.imag) == 0.0:
        mean = mean.real
    return MCEstimate(value=mean, stderr=stderr, samples=total_n, seed=config.seed)


def _blockwise(integrand, *rows):
    """``integrand(*rows)`` evaluated on consecutive blocks of ``_BLOCK_ROWS``
    rows of the arrays ``rows`` and concatenated.

    A Monte Carlo batch draws its whole chunk first and hands the draws
    here, so the integrand's intermediates stay cache-sized.  The integrand
    must treat rows independently and must not write to its arguments,
    which are views of the draws.
    """
    size = len(rows[0])
    return np.concatenate([integrand(*(r[i:i + _BLOCK_ROWS] for r in rows))
                           for i in range(0, size, _BLOCK_ROWS)])


def sphere_uniform(dim, rng, size=None):
    """Uniform samples on the unit sphere S^dim in R^(dim+1)."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    shape = (dim + 1,) if size is None else (size, dim + 1)
    v = rng.standard_normal(shape)
    nrm2 = np.einsum("...i,...i->...", v, v)
    # resample the (measure-zero) degenerate draws
    while np.any(nrm2 < 1e-24):
        bad = nrm2 < 1e-24
        v[bad] = rng.standard_normal((int(bad.sum()), dim + 1))
        nrm2 = np.einsum("...i,...i->...", v, v)
    v /= np.sqrt(nrm2)[..., None]
    return v


def log_gamma(x):
    """log Gamma(x) for x > 0, accurate to ~1e-14 relative."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise ValueError("log_gamma requires x > 0")
    out = gammaln(x)
    return float(out) if out.ndim == 0 else out


def log_gamma_radial(k, c):
    """log of integral_0^inf t^k e^(-c t) dt = Gamma(k+1)/c^(k+1)."""
    if k <= -1:
        raise ValueError("radial Gamma integral needs k > -1")
    if c <= 0:
        raise ValueError("radial Gamma integral needs c > 0")
    return log_gamma(k + 1.0) - (k + 1.0) * math.log(c)


def gamma_radial(k, c):
    """integral_0^inf t^k e^(-c t) dt, evaluated in log space."""
    return math.exp(log_gamma_radial(k, c))


def vol_sphere(m):
    """Riemannian volume of the unit sphere S^m; vol(S^3) = 2 pi^2."""
    if m < 0:
        raise ValueError("sphere dimension must be >= 0")
    return math.exp(math.log(2.0) + 0.5 * (m + 1) * math.log(math.pi) - log_gamma(0.5 * (m + 1)))


def radial_quad(c, power, tol):
    """Adaptive integral_0^inf r^power e^(-c r) dr to relative tolerance ``tol``,
    the quadrature oracle of :func:`gamma_radial`.

    The integrand is evaluated as one exponential: r^power alone overflows
    for large powers.
    """
    if c <= 0:
        raise ValueError("decay rate must be positive")
    val, err = integrate.quad(
        lambda r: math.exp(power * math.log(r) - c * r) if r > 0 else 0.0,
        0.0, np.inf, epsabs=0.0, epsrel=tol, limit=200)
    return val, err

