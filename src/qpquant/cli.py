"""Command-line entry point: verification suites and constant tables.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 bad
configuration.  Reports are JSON (default) or CSV; with a fixed seed a
rerun is byte-identical (set SOURCE_DATE_EPOCH to pin the timestamp, as the
determinism contract requires).

Configuration precedence: command-line flags beat QPQUANT_* environment
variables (QPQUANT_SEED, QPQUANT_SAMPLES, QPQUANT_N, QPQUANT_TOL_SCALE,
QPQUANT_FORMAT, QPQUANT_OUT) beat built-in defaults.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, field, fields
from functools import cache

import numpy as np

from . import geometry as geo
from . import quantization as qz
from . import spaces as sp
from . import spectral as spl
from .algebra import fro_norm, inner_r, jordan, qconj, qmat_mul, qmul, qnorm, rho, theta_transpose
from .numerics import MCConfig, _require

SCHEMA_VERSION = "1"


@dataclass
class CheckRecord:
    id: str
    paper_ref: str
    status: str
    value: float
    expected: float
    tolerance: float
    stderr: float | None

    def as_dict(self):
        out = asdict(self)
        if self.stderr is None:
            del out["stderr"]
        return out


@dataclass
class Report:
    suite: str
    timestamp: str
    config: dict
    checks: list = field(default_factory=list)
    # wall seconds of each suite run, timed in the process that ran it; not
    # part of the report's bytes (as_dict, to_json, to_csv)
    seconds: dict = field(default_factory=dict)

    @property
    def passed(self):
        return all(c.status == "pass" for c in self.checks)

    def as_dict(self):
        return {"schema_version": SCHEMA_VERSION, "suite": self.suite,
                "timestamp": self.timestamp, "config": self.config,
                "checks": [c.as_dict() for c in self.checks]}

    def to_json(self):
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)

    def to_csv(self):
        return _csv(["suite", "id", "paper_ref", "status", "value", "expected",
                     "tolerance", "stderr"],
                    ([self.suite, c.id, c.paper_ref, c.status, repr(c.value),
                      repr(c.expected), repr(c.tolerance),
                      "" if c.stderr is None else repr(c.stderr)] for c in self.checks))


def _csv(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _timestamp():
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    t = float(epoch) if epoch is not None else time.time()
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(t))


class Checks:
    """The one recorder of a suite: its checks in run order, the entries it
    adds to the report's config echo, and the wall seconds the suite took."""

    def __init__(self):
        self.records = []
        self.config = {}
        self.seconds = 0.0

    def __call__(self, cid, ref, value, expected, tol, stderr=None, ok=None):
        """Record a check that passes when |value - expected| <= tol (+ 3 stderr);
        a one-sided bound passes in its own verdict ``ok`` instead."""
        value, expected, tol = float(value), float(expected), float(tol)
        stderr = None if stderr is None else float(stderr)
        if ok is None:
            ok = abs(value - expected) <= tol + (0.0 if stderr is None else 3.0 * stderr)
        self.records.append(CheckRecord(cid, ref, "pass" if ok else "fail",
                                        value, expected, tol, stderr))


@dataclass
class SuiteConfig:
    n: int = 1
    lmax: int = 5
    l_range: tuple = (0, 3)
    samples: int = 200_000
    seed: int = 0
    tol_scale: float = 1.0

    def __post_init__(self):
        _require(n=(self.n, self.n >= 1, ">= 1"),
                 lmax=(self.lmax, self.lmax >= 0, ">= 0"),
                 l_range=(self.l_range, 0 <= self.l_range[0] <= self.l_range[1],
                          "A..B with 0 <= A <= B"),
                 samples=(self.samples, self.samples > 0, "positive"),
                 seed=(self.seed, self.seed >= 0, ">= 0"),
                 tol_scale=(self.tol_scale, math.isfinite(self.tol_scale) and self.tol_scale > 0,
                            "finite and > 0"))

    def rng(self, salt):
        return np.random.default_rng(self.seed + salt)

    def mc(self, salt, factor=1.0, target_rel_stderr=None):
        return MCConfig(samples=max(int(self.samples * factor), 1000),
                        seed=self.seed + salt, target_rel_stderr=target_rel_stderr)


# ------------------------------------------------------------------ suites

def suite_algebra(cfg, rng, check):
    t = cfg.tol_scale
    x = rng.standard_normal((10_000, 4))
    y = rng.standard_normal((10_000, 4))
    z = rng.standard_normal((10_000, 4))
    scale = max(1.0, float(np.abs(qmul(x, qmul(y, z))).max()))
    assoc = np.abs(qmul(qmul(x, y), z) - qmul(x, qmul(y, z))).max() / scale
    check("assoc", "quaternion multiplication table", assoc, 0.0, 1e-12 * t)
    anti = np.abs(qconj(qmul(x, y)) - qmul(qconj(y), qconj(x))).max() / scale
    check("theta-antihom", "conjugation reverses products", anti, 0.0, 1e-12 * t)
    mult = np.abs(qnorm(qmul(x, y)) - qnorm(x) * qnorm(y)).max() / scale
    check("norm-mult", "norm is multiplicative", mult, 0.0, 1e-12 * t)
    cx = x[:2000] + 1j * rng.standard_normal((2000, 4))
    cy = y[:2000] + 1j * rng.standard_normal((2000, 4))
    hom = np.abs(rho(qmul(cx, cy)) - rho(cx) @ rho(cy)).max()
    hom /= max(1.0, float(np.abs(rho(cx) @ rho(cy)).max()))
    check("rho-hom", "2x2 embedding is an algebra map", hom, 0.0, 1e-12 * t)
    worst = 0.0
    for _ in range(50):
        m = int(rng.integers(2, 4))
        W = rng.standard_normal((3, m, m, 4))
        X, Y, Z = 0.5 * (W + theta_transpose(W))
        lhs = inner_r(jordan(X, Y), Z)
        rhs = inner_r(X, jordan(Y, Z))
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
    check("jordan-trace", "Jordan product trace symmetry", worst, 0.0, 1e-12 * t)


def suite_spaces(cfg, rng, check):
    t = cfg.tol_scale
    worst = 0.0
    for _ in range(100):
        pt = sp.random_es0(cfg.n, float(rng.uniform(0.3, 2.0)), rng)
        lhs = sp.beta(sp.tau_s(pt)).A
        rhs = sp.tau_h(sp.alpha(pt)).A
        worst = max(worst, float(np.abs(lhs - rhs).max() / fro_norm(rhs)))
    check("diagram", "square of model maps commutes", worst, 0.0, 1e-10 * t)
    ptg = sp.random_es_generic(cfg.n, rng)
    rhs = sp.tau_h(sp.alpha(ptg)).A
    dev = float(np.abs(sp.beta(sp.tau_s(ptg)).A - rhs).max() / fro_norm(rhs))
    check("diagram-counterexample", "maps differ off the horizontal locus",
          dev, 1e-3, 0.0, ok=dev >= 1e-3)
    check.config["counterexample_point"] = json.loads(sp.point_to_json(ptg))
    worst_chain = 0.0
    for _ in range(200):
        pt = sp.random_es0(cfg.n, float(rng.uniform(0.2, 2.5)), rng)
        bt, cp = sp.tau_s(pt), sp.alpha(pt)
        am = sp.tau_h(cp)
        nq2 = float(np.sum(pt.q ** 2))
        worst_chain = max(
            worst_chain,
            abs(bt.norm ** 2 - 4 * nq2) / (4 * nq2),
            abs(cp.qnorm_j ** 2 - 2 * nq2) / (2 * nq2),
            abs(am.norm ** 2 - 2 * cp.qnorm_j ** 4) / (2 * cp.qnorm_j ** 4),
            abs(am.norm - bt.norm ** 2 / math.sqrt(2.0)) / am.norm)
        q3 = qmat_mul(qmat_mul(cp.Q, cp.Q), cp.Q)
        worst_chain = max(worst_chain, float(
            np.abs(q3 - 0.5 * cp.qnorm_j ** 2 * cp.Q).max() / cp.qnorm_j ** 3))
    check("norm-chain", "norm chain across the four models", worst_chain, 0.0, 1e-12 * t)
    worst_rt = 0.0
    for _ in range(100):
        pt = sp.random_es0(cfg.n, float(rng.uniform(0.3, 2.0)), rng)
        rec = sp.tau_s_inv(sp.tau_s(pt))
        worst_rt = max(worst_rt, float(np.abs(rec.p - pt.p).max()),
                       float(np.abs(rec.q - pt.q).max()))
    check("tau-s-roundtrip", "B-model map inverts", worst_rt, 0.0, 1e-12 * t)


def suite_geometry(cfg, rng, check):
    t = cfg.tol_scale
    worst_s = worst_h = 0.0
    for _ in range(100):
        pt = sp.random_es0(cfg.n, float(rng.uniform(0.4, 2.0)), rng)
        bt, am = sp.tau_s(pt), sp.tau_h(sp.alpha(pt))
        for v in geo.real_basis_from_complex(geo.tangent_basis_et_s(bt))[:4]:
            worst_s = max(worst_s, geo.canonical_oneform_check("S", bt, v))
        for v in geo.real_basis_from_complex(geo.tangent_basis_et_h(pt))[:4]:
            worst_h = max(worst_h, geo.canonical_oneform_check("H", am, v))
    check("oneform-sphere", "one-form potential identity, sphere model",
          worst_s, 0.0, 1e-10 * t)
    check("oneform-proj", "one-form potential identity, projective model",
          worst_h, 0.0, 1e-10 * t)
    pt = sp.random_es0(cfg.n, 1.2, rng)
    am = sp.tau_h(sp.alpha(pt))
    basis = geo.real_basis_from_complex(geo.tangent_basis_et_h(pt))
    ham = max(geo.hamilton_check(am, y) for y in basis)
    check("hamilton-flow", "flow generator solves the Hamilton equation", ham, 0.0, 1e-8 * t)
    fd = max(abs(geo.dtheta_fd("H", am, basis[0], basis[i])
                 - geo.omega_eval("H", am, basis[0], basis[i])) for i in (1, 2, 3))
    check("dtheta-omega", "exterior derivative of the one-form", fd, 0.0, 1e-5 * t)
    worst_flow = 0.0
    for _ in range(100):
        ptu = sp.random_es0(cfg.n, 1.0, rng)
        a_t, a_f = geo.geodesic_flow_pair(ptu, np.arange(0.0, 3.15, 0.1))
        worst_flow = max(worst_flow, float(np.abs(a_t - a_f).max()))
    check("geodesic-flow", "geodesic flow equals matrix phase scaling",
          worst_flow, 0.0, 1e-10 * t)
    hp = geo.hopf_pushforward_check(cfg.n, 25, rng)
    check("fibration-duality", "fiber frame and dual one-forms",
          hp["duality_residual"], 0.0, 1e-12 * t)
    check("fibration-volume", "total volume ratio of the fibration",
          hp["volume_residual"], 0.0, 1e-12 * t)


def suite_spectral(cfg, rng, check):
    t = cfg.tol_scale
    for l in range(cfg.lmax + 1):
        check(f"dim-l{l}", "eigenspace dimension formula", spl.dim_eigenspace(1, l),
              (l + 1) * (l + 2) * (2 * l + 3) // 6, 0.0)
    ident = max(abs(spl.eigenvalue_sqrt_shift(n, l) ** 2
                    - (spl.eigenvalue(n, l) + (2 * n + 1) ** 2))
                for n in (1, 2, 4, 8) for l in (0, 1, 10, 10 ** 6))
    check("eigenvalue-shift", "square-root shift identity", ident, 0.0, 0.0)
    desc = max(abs(spl.sphere_descent_residual(n, l)) for n in (1, 2) for l in range(6))
    check("sphere-descent", "eigenvalue matches sphere degree 2l", desc, 0.0, 0.0)
    worst_tr = worst_gr = 0.0
    for _ in range(20):
        am = sp.tau_h(sp.random_eh(cfg.n, float(rng.uniform(0.5, 2.0)), rng))
        cert = spl.harmonicity_certificate(am)
        worst_tr = max(worst_tr, cert["trace_residual"])
        worst_gr = max(worst_gr, cert["null_gradient_residual"])
    check("harmonic-trace", "invariant quadratic form is traceless", worst_tr, 0.0, 1e-10 * t)
    check("harmonic-gradient", "gradient square vanishes as polynomial",
          worst_gr, 0.0, 1e-10 * t)
    am = sp.tau_h(sp.random_eh(cfg.n, 1.0, rng))
    inv = spl.sp1_invariance_residual(am.A, 500, rng)
    check("right-invariance", "form invariant under the right action", inv, 0.0, 1e-12 * t)


def suite_constants(cfg, rng, check):
    t = cfg.tol_scale
    cons = geo.recover_constants(cfg.n, rng, npoints=5, det_points=100)
    check("a-sphere", "holomorphic volume ratio, sphere side",
          abs(cons["a_S"] - qz.A_S_CONST), 0.0, 1e-6 * t)
    check("b-sphere", "pullback volume ratio, sphere side",
          abs(cons["b_S"] - qz.B_S_CONST), 0.0, 1e-6 * t)
    check("a-proj", "holomorphic volume ratio, projective side",
          abs(cons["a_H"] - qz.A_H_CONST(cfg.n)), 0.0, 1e-6 * t)
    check("det-dual-frame", "determinant of the dual frame parts",
          abs(cons["det_theta"] - qz.DET_THETA_CONST), 0.0, 1e-6 * t)
    check("det-spread", "dual frame determinant constant on the locus",
          cons["det_theta_spread"], 0.0, 1e-8 * t)
    check("b-proj", "substituted constant, projective side",
          abs(cons["b_H"] - qz.B_H_CONST), 0.0, 1e-6 * t)
    lhs = 2 * math.pi ** 2 * (qz.A_S_CONST / qz.B_S_CONST) * qz.DET_THETA_CONST
    rhs = (1.0 / math.sqrt(2.0)) ** (2 * cfg.n + 1) * qz.A_H_CONST(cfg.n) / qz.B_H_CONST
    check("corollary-substitution", "five-constant substitution identity",
          abs(lhs - rhs) + abs(lhs - (-math.pi ** 2 / 4)), 0.0, 1e-12 * t)


# The l = 0 moment integrand is exactly constant, so its MC stderr is 0 and
# its mean differs from the closed form by a few ulps alone.
_MOMENT_REL_FLOOR = 1e-14
# relative stderr the op-identity-l* runs extend to: their fixed 0.02 gate on
# the relative error is then at least 4 standard errors
OP_IDENTITY_TARGET = 0.005


def suite_quantization(cfg, rng, check):
    t = cfg.tol_scale
    lo, hi = cfg.l_range
    for l in range(lo, hi + 1):
        est = qz.i_coeff_mc(cfg.n, l, cfg.mc(salt=l))
        expected = qz.i_coeff(cfg.n, l)
        check(f"moment-mc-l{l}", "projective moment closed form vs MC", est.value,
              expected, _MOMENT_REL_FLOOR * abs(expected), stderr=est.stderr)
    worst_b = max(abs(qz.b_coeff(cfg.n, l) - qz.b_coeff_semianalytic(cfg.n, l))
                  / qz.b_coeff(cfg.n, l) for l in range(lo, hi + 1))
    check("bcoeff-assemblies", "two assemblies of the norm constant", worst_b, 0.0, 1e-8 * t)
    est = qz.b_coeff_mc(cfg.n, 1, cfg.mc(salt=17))
    check("bcoeff-mc", "defining integral of the norm constant",
          est.value, qz.b_coeff(cfg.n, 1), 1e-12, stderr=est.stderr)
    worst_a = max(abs(qz.a_coeff(cfg.n, l) - qz.a_coeff_quadrature(cfg.n, l))
                  / qz.a_coeff(cfg.n, l) for l in range(6))
    check("acoeff-quadrature", "diagonal fiber integral vs quadrature",
          worst_a, 0.0, 1e-8 * t)
    worst_c = max(abs(qz.c_coeff(cfg.n, l) - qz.c_coeff_quadrature(cfg.n, l))
                  / qz.c_coeff(cfg.n, l) for l in range(4))
    check("ccoeff-quadrature", "descended operator constant vs quadrature",
          worst_c, 0.0, 1e-8 * t)
    worst_tn = max(abs(qz.t_norm(cfg.n, l) - qz.t_norm_prefactor(cfg.n)
                       * qz.t_norm_gamma_part(cfg.n, l)) / qz.t_norm(cfg.n, l)
                   for l in range(0, 51, 5))
    check("tnorm-identity", "operator norm closed expression "
          "(defining-integral prefactor)", worst_tn, 0.0, 1e-10 * t)
    check("tnorm-limit-printed", "operator norm limit over the printed "
          "sqrt(2)/pi: the printed value is off by exactly sqrt(2), see README",
          qz.t_norm_limit(cfg.n) / (math.sqrt(2.0) / math.pi), math.sqrt(2.0), 1e-3 * t)
    check("tnorm-limit-defining", "operator norm limit under the "
          "defining-integral normalization", qz.t_norm_limit(cfg.n), 2.0 / math.pi,
          1e-3 * t)
    check("ratio-limit", "descended-to-direct ratio limit",
          qz.c_over_a(cfg.n, 10 ** 6), math.pi / 2.0, 1e-3 * t)
    for l in (0, 1):
        phi = spl.random_hl_function(cfg.n, l, 2, rng)
        pprime = sp.random_es0(cfg.n, 1.0, rng).p
        target = qz.a_coeff(cfg.n, l) * complex(phi.eval_sphere(pprime[None])[0])
        est = qz.t_apply_eigenfunction(phi, pprime, cfg.mc(salt=100 + l,
                                                          target_rel_stderr=OP_IDENTITY_TARGET))
        check(f"op-identity-l{l}", "operator reproduces the eigenspace embedding",
              abs(est.value - target) / abs(target), 0.0, 0.02 * t)


def suite_kernel(cfg, rng, check):
    t = cfg.tol_scale
    l0 = 10_000
    ratio = math.exp(qz.log_b_coeff(cfg.n, l0) - qz.log_b_coeff(cfg.n, l0 + 1))
    check("bcoeff-growth", "norm-constant growth rate",
          ratio * l0 ** 4 / math.pi ** 4, 1.0, 1e-2 * t)
    val, tail = qz.kernel_diag(cfg.n, 2.0 * math.sqrt(2.0))
    check("kernel-tail", "diagonal series tail bound", tail / val, 0.0, 1e-12)
    a1 = sp.tau_h(sp.random_eh(cfg.n, math.sqrt(2.0), rng)).A
    aprime = sp.tau_h(sp.random_eh(cfg.n, math.sqrt(2.0), rng)).A
    fval, rec = qz.kernel_reproduce_check(0.7, [a1], [0.4 - 0.3j], aprime, cfg.n,
                                          cfg.mc(salt=9))
    check("kernel-reproduce", "kernel reproduces low-degree functions",
          abs(rec.value - fval), 0.0, 1e-12, stderr=rec.stderr)
    lhs, bound, slack = qz.kernel_norm_bound_check(0.5, [a1], [0.8j], aprime, cfg.n,
                                                   cfg.mc(factor=0.5, salt=10))
    check("kernel-bound", "evaluation bounded by the diagonal kernel",
          lhs, bound, slack, ok=lhs <= bound + slack)


# every suite in report order; suite k draws from cfg.rng(k + 1)
SUITE_FUNCS = {
    "algebra": suite_algebra,
    "spaces": suite_spaces,
    "geometry": suite_geometry,
    "spectral": suite_spectral,
    "constants": suite_constants,
    "quantization": suite_quantization,
    "kernel": suite_kernel,
}
SUITES = (*SUITE_FUNCS, "all")


# bundled report schema (JSON Schema dialect); field names are contractual
REPORT_SCHEMA = {
    "type": "object",
    "required": ["schema_version", "suite", "timestamp", "config", "checks"],
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "suite": {"enum": list(SUITES)},
        "timestamp": {"type": "string"},
        "config": {"type": "object"},
        "checks": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["id", "paper_ref", "status", "value", "expected",
                             "tolerance"],
                "properties": {
                    "id": {"type": "string"},
                    "paper_ref": {"type": "string"},
                    "status": {"enum": ["pass", "fail"]},
                    "value": {"type": "number"},
                    "expected": {"type": "number"},
                    "tolerance": {"type": "number"},
                    "stderr": {"type": "number"},
                },
            },
        },
    },
}


def _run_one(name, cfg):
    """Run suite ``name`` on its own generator and return its Checks, timed.
    Module level, so a worker process can be sent it by name."""
    start = time.perf_counter()
    check = Checks()
    SUITE_FUNCS[name](cfg, cfg.rng(list(SUITE_FUNCS).index(name) + 1), check)
    check.seconds = time.perf_counter() - start
    return check


def run_suite(name, cfg, workers=1):
    """Execute one named suite (or 'all') and return the Report.

    With ``workers`` > 1 and more than one suite to run, the suites run in
    min(workers, suites) worker processes forked from this one, so they share
    no interpreter lock and inherit ``SUITE_FUNCS`` as it stands.  Each suite
    draws from its own generator, and the report is assembled here in the
    fixed suite order, so its bytes do not depend on ``workers``.  A platform
    with no 'fork' start method refuses ``workers`` > 1 (ValueError): a fresh
    interpreter per worker would re-import numpy and qpquant.  An exception
    raised in a worker is raised here.
    """
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    names = list(SUITE_FUNCS) if name == "all" else [name]
    if workers > 1 and len(names) > 1:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        if "fork" not in multiprocessing.get_all_start_methods():
            raise ValueError(f"workers={workers} runs suites in forked processes, and this "
                             "platform has no 'fork' start method")
        with ProcessPoolExecutor(min(workers, len(names)),
                                 mp_context=multiprocessing.get_context("fork")) as ex:
            parts = list(ex.map(_run_one, names, [cfg] * len(names)))
    else:
        parts = [_run_one(nm, cfg) for nm in names]
    config = asdict(cfg)
    for part in parts:
        config.update(part.config)
    return Report(suite=name, timestamp=_timestamp(), config=config,
                  checks=[c for part in parts for c in part.records],
                  seconds={nm: part.seconds for nm, part in zip(names, parts)})


# --------------------------------------------------------------- interface

FORMATS = ("json", "csv")
# option -> type and built-in default; QPQUANT_<OPTION> sets it when no flag does
ENV_OPTIONS = {"n": (int, SuiteConfig.n), "samples": (int, SuiteConfig.samples),
               "seed": (int, SuiteConfig.seed), "tol_scale": (float, SuiteConfig.tol_scale),
               "format": (str, FORMATS[0]), "out": (str, None)}


def _fill_from_env(args):
    """Set each option of the command that no flag set from its QPQUANT_*
    variable, read on every call, else its default, checked as the flag is."""
    for dest, (cast, default) in ENV_OPTIONS.items():
        if getattr(args, dest, 0) is None:
            raw = os.environ.get(name := f"QPQUANT_{dest.upper()}")
            try:
                setattr(args, dest, default if raw is None else cast(raw))
            except ValueError:
                raise ValueError(f"{name}={raw!r} is not a valid {cast.__name__}") from None
    if getattr(args, "format", FORMATS[0]) not in FORMATS:
        raise ValueError(f"QPQUANT_FORMAT={args.format!r} is not one of {', '.join(FORMATS)}")


def _parse_l_range(text):
    lo, _, hi = text.partition("..")
    lo, hi = int(lo), int(hi)
    if not 0 <= lo <= hi:
        raise argparse.ArgumentTypeError(f"{text!r} is not a range A..B with 0 <= A <= B")
    return lo, hi


ALIASES = {"verify-geometry": "geometry", "verify-spectral": "spectral",
           "verify-quantization": "quantization"}


@cache
def build_parser():
    """The parser, built once per process.  The options of ENV_OPTIONS default
    to None in it; main fills them from the environment on every call."""
    parser = argparse.ArgumentParser(prog="qpquant",
                                     description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    flags = {
        "--n": dict(type=int),
        "--lmax": dict(type=int, default=SuiteConfig.lmax),
        "--l-range": dict(type=_parse_l_range, default=SuiteConfig.l_range, metavar="A..B"),
        "--samples": dict(type=int),
        "--seed": dict(type=int),
        "--tol-scale": dict(type=float),
        "--format": dict(choices=FORMATS),
        "--out": dict(),
        "--workers": dict(type=int, default=1,
                          help="worker processes for the suites of 'all', forked, at most "
                               "one per suite (results identical)"),
    }

    def add(p, names):
        for name in names:
            p.add_argument(name, **flags[name])

    pv = sub.add_parser("verify", aliases=list(ALIASES),
                        help="run a verification suite; verify-SUITE runs --suite SUITE")
    pv.add_argument("--suite", choices=SUITES, help="default: all; not with an alias")
    add(pv, flags)
    pc = sub.add_parser("constants", help="emit the constants table")
    add(pc, ("--n", "--l-range", "--format", "--out"))
    pk = sub.add_parser("kernel", help="diagonal kernel, tail bound and terms l = 0..LMAX")
    pk.add_argument("--norm", type=float, default=2.0 * math.sqrt(2.0))
    add(pk, ("--n", "--lmax", "--out"))
    return parser


def _emit(text, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _constants_payload(args):
    lo, hi = args.l_range
    rows = qz.constants_table(args.n, range(lo, hi + 1))
    payload = []
    for row in rows:
        rec = row.as_dict()
        rec["oracle_matched"] = bool(
            abs(qz.b_coeff_semianalytic(args.n, row.l) - row.b_coeff) <= 1e-8 * row.b_coeff
            and abs(qz.a_coeff_quadrature(args.n, row.l) - row.a_coeff) <= 1e-8 * row.a_coeff
            and abs(qz.c_coeff_quadrature(args.n, row.l) - row.c_coeff) <= 1e-8 * row.c_coeff)
        payload.append(rec)
    return payload


def _kernel_payload(args):
    _require(lmax=(args.lmax, args.lmax >= 0, ">= 0"))
    # the diagonal first: it refuses terms past the float range; the later terms only fall
    val, tail = qz.kernel_diag(args.n, args.norm)
    terms = [{"l": l, "term": math.exp(qz.log_kernel_term(args.n, l, args.norm))}
             for l in range(args.lmax + 1)]
    return {"n": args.n, "norm": args.norm, "terms": terms,
            "diagonal": val, "tail_bound": tail}


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        _fill_from_env(args)
        if args.command in ("verify", *ALIASES):
            if args.command in ALIASES and args.suite is not None:
                raise ValueError(f"{args.command} runs --suite {ALIASES[args.command]}; "
                                 "it takes no --suite")
            suite = ALIASES.get(args.command, args.suite or "all")
            _require(workers=(args.workers, args.workers >= 1, ">= 1"))
            cfg = SuiteConfig(**{f.name: getattr(args, f.name) for f in fields(SuiteConfig)})
            report = run_suite(suite, cfg, workers=args.workers)
            _emit(report.to_json() if args.format == "json" else report.to_csv(),
                  args.out)
            return 0 if report.passed else 1
        if args.command == "constants":
            payload = _constants_payload(args)
            _emit(json.dumps(payload, indent=2, sort_keys=True) if args.format == "json"
                  else _csv(list(payload[0]), (rec.values() for rec in payload)), args.out)
            return 0
        if args.command == "kernel":
            _emit(json.dumps(_kernel_payload(args), indent=2, sort_keys=True),
                  args.out)
            return 0
    except ValueError as exc:
        sys.stderr.write(f"configuration error: {exc}\n")
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
