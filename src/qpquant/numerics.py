"""Shared numerical engines.

Deterministic RNG substreams keyed by (seed, chunk index), chunked Monte
Carlo with error estimates, radial Gamma integrals and their
double-exponential quadrature oracle, sphere volumes and log-gamma.  Every
stochastic routine in the package goes through :func:`mc_mean` so that
results are bit-identical for a fixed seed, independent of how many workers
execute the chunks.
"""

from __future__ import annotations

import math
import os
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import cache

import numpy as np

__all__ = [
    "MCConfig",
    "MCEstimate",
    "gamma_radial",
    "log_gamma",
    "log_gamma_radial",
    "mc_mean",
    "radial_quad",
    "sphere_moment",
    "sphere_uniform",
    "substream",
    "vol_pnh",
    "vol_sphere",
]

DEFAULT_CHUNK = 1 << 16
# rows of one integrand block of _mc_blocks: at n = 1 a block's
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
    chunks are scheduled, never the result.  ``target_rel_stderr`` extends a
    run by the rows the target needs (:func:`mc_mean`), up to ``MAX_EXTENSION``.
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

    SFC64 seeded by the SeedSequence of (seed, index): the stream is a
    function of the pair alone, whichever worker draws it.
    """
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence([seed, index])))


def _chunk_stats(batch_fn, seed, index, m):
    rng = substream(seed, index)
    vals = np.asarray(batch_fn(rng, m))
    if vals.shape[0] != m:
        raise ValueError("batch function returned wrong sample count")
    cplx = np.iscomplexobj(vals)
    s = vals.sum(dtype=complex if cplx else float)
    dev = vals - s / m
    return s, (np.abs(dev) ** 2 if cplx else dev * dev).sum(dtype=float)


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


def _pieces(rows, chunk):
    """Sizes of ``rows`` rows cut into ``chunk``-row chunks, a partial one last."""
    return [chunk] * (rows // chunk) + ([rows % chunk] if rows % chunk else [])


def mc_mean(batch_fn, config):
    """Mean of ``batch_fn(rng, m) -> (m,) array`` over ``config.samples`` draws.

    Chunks are keyed by index, partial sums are combined in index order with
    compensated summation, so the estimate does not depend on ``workers``.
    With ``target_rel_stderr`` set, a run of N samples that misses the target
    by r = stderr / (target |mean|) draws ceil((1.1 r^2 - 1) N) more rows,
    Stein's two-stage rule: whole ``_BLOCK_ROWS`` blocks, at least one and at
    most N rows (N for a zero mean), in chunks whose indices carry on from the
    last.  It repeats until the target is met or the samples reach
    ``MAX_EXTENSION`` times the budget; stopping there above the target warns.
    """
    n, chunk, target = int(config.samples), int(config.chunk), config.target_rel_stderr
    _require(samples=(n, n > 0, "positive"), chunk=(chunk, chunk > 0, "positive"),
             seed=(config.seed, config.seed >= 0, ">= 0"),
             target_rel_stderr=(target, target is None or target > 0, "positive or None"))
    jobs = list(enumerate(_pieces(n, chunk)))

    def run(new_jobs):
        if config.workers > 1:
            with ThreadPoolExecutor(max_workers=config.workers) as ex:
                return list(ex.map(lambda im: _chunk_stats(batch_fn, config.seed,
                                                           im[0], im[1]), new_jobs))
        return [_chunk_stats(batch_fn, config.seed, i, m) for i, m in new_jobs]

    stats = run(jobs)
    mean, stderr, total_n = _combine(jobs, stats)
    while (target is not None and stderr > target * abs(mean)
           and total_n < MAX_EXTENSION * n):
        scale = target * abs(mean)
        r = stderr / scale if scale > 0 else math.inf  # r > 1 here; a zero mean doubles
        rows = math.ceil(min(1.1 * r * r - 1.0, 1.0) * total_n / _BLOCK_ROWS) * _BLOCK_ROWS
        extra = list(enumerate(_pieces(min(rows, total_n, MAX_EXTENSION * n - total_n), chunk),
                               start=jobs[-1][0] + 1))
        jobs.extend(extra)
        stats.extend(run(extra))
        mean, stderr, total_n = _combine(jobs, stats)
    if target is not None and stderr > target * abs(mean):
        warnings.warn(f"mc_mean stopped at its {MAX_EXTENSION}x sample cap after {total_n} "
                      f"samples with stderr {stderr:.3e}, above the target "
                      f"{target:g} x |mean| = {target * abs(mean):.3e}",
                      RuntimeWarning, stacklevel=_outside_caller_level())
    if np.iscomplexobj(np.asarray(mean)) and abs(mean.imag) == 0.0:
        mean = mean.real
    return MCEstimate(value=mean, stderr=stderr, samples=total_n, seed=config.seed)


def _require(**fields):
    """Raise one ValueError naming each field name=(value, ok, rule) not ok."""
    bad = [f"{name} must be {rule}, got {value!r}"
           for name, (value, ok, rule) in fields.items() if not ok]
    if bad:
        raise ValueError("; ".join(bad))


def _outside_caller_level():
    """The ``stacklevel`` that makes a warning raised by our caller point at
    the first frame outside the qpquant package."""
    package = os.path.dirname(__file__) + os.sep
    frame, level = sys._getframe(1), 1
    while frame is not None and frame.f_code.co_filename.startswith(package):
        frame, level = frame.f_back, level + 1
    return level


def _mc_blocks(integrand, config, sphere_dims, normal_dim=None, chi2_dofs=()):
    """:func:`mc_mean` of ``integrand`` over draws made a whole chunk at a time.

    A chunk of ``size`` rows draws ``sphere_uniform(d, rng, size=size)`` for
    each d in ``sphere_dims`` in turn, then ``rng.standard_normal((size,
    normal_dim))`` if ``normal_dim`` is given, then ``rng.chisquare(k, size)``
    for each k in ``chi2_dofs``.  ``integrand(*draws)`` runs on
    consecutive ``_BLOCK_ROWS``-row blocks, so its intermediates stay
    cache-sized; it must treat rows independently and must not write to its
    arguments, which are views of the draws.
    """
    def batch(rng, size):
        rows = [sphere_uniform(d, rng, size=size) for d in sphere_dims]
        if normal_dim is not None:
            rows.append(rng.standard_normal((size, normal_dim)))
        rows += [rng.chisquare(k, size) for k in chi2_dofs]
        return np.concatenate([integrand(*(r[i:i + _BLOCK_ROWS] for r in rows))
                               for i in range(0, size, _BLOCK_ROWS)])

    return mc_mean(batch, config)


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


def sphere_moment(ma, mb, a, b, factor=False):
    """E over the unit sphere S^(d-1) of (x^t A x)^a (x^t B x)^b, exactly.

    A = ``ma`` (..., d, d) and B = ``mb`` (..., d, d) are complex symmetric,
    with no condition on their traces or squares; with ``factor``, ``mb`` is
    W (..., d, r) and B = W W^t.  Leading axes broadcast.

    For x ~ N(0, I_d) the moment is a! b! [t^a u^b] of
    exp(sum_{k <= a+b} 2^(k-1)/k tr((tA + uB)^k)), a polynomial identity, so
    it holds for complex forms; dividing by E|x|^(2(a+b)) =
    2^(a+b) Gamma(d/2+a+b) / Gamma(d/2) = d (d+2) ... (d+2(a+b)-2) leaves the
    sphere moment.  The words of i factors A and j >= 1 factors B = U V^t
    (U = B and V = I, or U = V = W) trace, summed over their cyclic turns, to
    (i+j)/j times those that end in B: the traces of products of j matrices
    G_s = V^t A^s U whose exponents s sum to i.
    """
    ma, mb = np.asarray(ma), np.asarray(mb)
    d = ma.shape[-1]
    batch = np.broadcast_shapes(ma.shape[:-2], mb.shape[:-2])
    if a == b == 0:
        return np.ones(batch)
    # kappa[i][j]: coefficient of t^i u^j in the exponent
    kappa = [[0.0] * (b + 1) for _ in range(a + 1)]
    power = np.eye(d)
    for i in range(1, a + 1):
        power = ma @ power
        kappa[i][0] = 2.0 ** (i - 1) / i * np.einsum("...jj->...", power)
    if b:
        aus = [mb]
        for _ in range(a):
            aus.append(ma @ aus[-1])
        gs = [np.swapaxes(mb, -1, -2) @ au for au in aus] if factor else aus
        # words[i]: sum of the products of j factors G whose exponents sum to i
        words = gs
        for j in range(1, b + 1):
            if j > 1:
                words = [sum(gs[s] @ words[i - s] for s in range(i + 1)) for i in range(a + 1)]
            for i in range(a + 1):
                kappa[i][j] = 2.0 ** (i + j - 1) / j * np.einsum("...kk->...", words[i])
    # f = exp(kappa) by i f_ij = sum p kappa_pq f_(i-p)(j-q), and j f_0j likewise
    f = [[None] * (b + 1) for _ in range(a + 1)]
    f[0][0] = 1.0
    for i in range(a + 1):
        for j in range(b + 1):
            if i:
                f[i][j] = sum(p * kappa[p][q] * f[i - p][j - q]
                              for p in range(1, i + 1) for q in range(j + 1)) / i
            elif j:
                f[0][j] = sum(q * kappa[0][q] * f[0][j - q] for q in range(1, j + 1)) / j
    norm = math.prod(d + 2 * k for k in range(a + b))
    return np.broadcast_to(math.factorial(a) * math.factorial(b) / norm * f[a][b], batch)


def log_gamma(x):
    """log Gamma(x) for one finite number x > 0: ``math.lgamma``, within
    2e-15 absolute for x <= 3 and 8 ulps of the result above 3 (asserted
    against mpmath in the tests).

    Refuses x that is not finite or not positive, and x whose log Gamma
    overflows a float (x above about 2.5e305), with a ValueError naming x.
    """
    if not (math.isfinite(x) and x > 0):
        raise ValueError(f"log_gamma requires finite x > 0, got x={x!r}")
    try:
        return math.lgamma(x)
    except OverflowError:
        raise ValueError(f"log_gamma(x) overflows a float at x={x!r}") from None


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


def vol_pnh(n):
    """Riemannian volume of the quaternion projective space, pi^2n/(2n+1)!."""
    return math.exp(2 * n * math.log(math.pi) - log_gamma(2 * n + 2))


# the double-exponential rule: level 0 puts nodes at t = -_DE_T, ..., _DE_T in
# steps of _DE_H0, and each further level the odd multiples of the halved step.
# At |t| = 5 the tanh-sinh weights are e^(-233) and the exp-sinh nodes e^(+-116)
_DE_T = 5.0
_DE_H0 = 0.25
_DE_LEVELS = 8


@cache
def _de_nodes(level, finite):
    """Nodes and weights of one level: on [0, 1] (tanh-sinh) if ``finite``, else
    on [0, inf) (exp-sinh).  The weights include the step."""
    h = _DE_H0 / 2 ** level
    t = np.arange(-_DE_T, _DE_T + h / 2, h) if level == 0 else np.arange(h - _DE_T, _DE_T, 2 * h)
    u = 0.5 * np.pi * np.sinh(t)
    if finite:
        # x = (1 + tanh u)/2 and its derivative from s = e^(-2|u|): nothing
        # overflows, and nodes near 0 keep their digits
        s = np.exp(-2.0 * np.abs(u))
        x = np.where(t < 0, s / (1.0 + s), 1.0 / (1.0 + s))
        w = np.pi * np.cosh(t) * s / (1.0 + s) ** 2
    else:
        x = np.exp(u)
        w = 0.5 * np.pi * np.cosh(t) * x
    w = h * w
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _de_quad(f, a, b, tol):
    """integral_a^b f(x) dx by double-exponential quadrature (Takahasi & Mori,
    Publ. RIMS 9 (1974)): the tanh-sinh trapezoid on [a, b], exp-sinh if b is inf.

    The step halves until two successive levels agree to ``tol`` relative;
    returns the finer level and the absolute value of their difference.  Each
    level is one vectorised call of ``f``.  Raises ValueError if no two levels
    within ``_DE_LEVELS`` agree.
    """
    finite = not math.isinf(b)
    length = b - a if finite else 1.0

    def level_sum(level):
        x, w = _de_nodes(level, finite)
        return length * float(w @ f(a + length * x))

    with np.errstate(under="ignore"):
        total = level_sum(0)
        for level in range(1, _DE_LEVELS):
            new = 0.5 * total + level_sum(level)
            diff = abs(new - total)
            if diff <= tol * abs(new):
                return new, diff
            total = new
    raise ValueError(f"quadrature did not converge to tol={tol!r} in {_DE_LEVELS} levels: "
                     f"the last two differ by {diff!r}")


_LOG_FLOAT_MIN = math.log(sys.float_info.min)
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def radial_quad(c, power, tol):
    """integral_0^inf r^power e^(-c r) dr and an error bound, the quadrature
    oracle of :func:`gamma_radial`.

    Exp-sinh quadrature (:func:`_de_quad`): the step halves until two levels
    agree to ``tol`` relative.  With m = max(power, 1) and r = (m/c) x the
    integrand is (m/c) e^peak exp(power log x - m (x - 1)), peak = power log(m/c)
    - m, so nothing overflows on the way (r^power alone would).  The error is
    the last difference plus 4 eps (1 + power + |log value|) relative, the
    rounding of the exponents.  Refuses a value outside the float range, whose
    size is set by e^peak.
    """
    _require(c=(c, c > 0, "positive"), power=(power, power >= 0, ">= 0"))
    m = max(power, 1.0)
    r0 = m / c
    peak = power * math.log(r0) - m
    val, diff = _de_quad(lambda x: np.exp(power * np.log(x) - m * (x - 1.0)), 0.0, math.inf, tol)
    log_val = peak + math.log(r0) + math.log(val)
    if not _LOG_FLOAT_MIN < log_val < _LOG_FLOAT_MAX:
        raise ValueError(f"r^power e^(-c r) peaks at e^{peak:.6g} and integrates to "
                         f"e^{log_val:.6g}, outside the float range: power={power!r}, c={c!r}")
    rel_err = diff / val + 4.0 * sys.float_info.epsilon * (1.0 + power + abs(log_val))
    val = math.exp(log_val)
    return val, rel_err * val

