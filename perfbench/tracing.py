"""Span tracing at the module boundaries of qpquant.

:class:`Tracer` replaces every public function of the traced modules with a
wrapper that records one span: name, start, end and the enclosing span on
the same thread.  qpquant binds names with ``from .algebra import qmul`` and
similar, so a wrapper replaces every module attribute (and every dict value
of ``cli.SUITE_FUNCS``) that refers to the function, not only the attribute
in the defining module.  The batch function a caller hands to
``numerics.mc_mean`` is wrapped as the span ``quantization.batch``.

Spans are kept in memory, one buffer per thread, and aggregated at the end:
a span's self time is its duration minus the part of that interval its
child spans cover.  A span opened on a worker thread whose own stack is
empty has no parent, so the parent's self time includes the wait.
"""

from __future__ import annotations

import functools
import importlib
import math
import threading
import types
from array import array
from time import perf_counter

import numpy as np

MODULES = ("algebra", "numerics", "spaces", "spectral", "geometry", "quantization", "cli")

# Functions reported under one layer name.
GROUPS = {
    "spaces": {
        "maps": ("alpha", "beta", "tau_s", "tau_h", "tau_s_inv", "tau_h_inv"),
        "membership": ("in_amatrix_space", "in_btuple_space", "in_btuple_space0",
                       "in_cotangent_h", "in_sphere_covector", "in_sphere_covector0"),
        "samplers": ("random_es0", "random_eh", "random_es_generic", "random_sphere",
                     "random_sl2"),
    },
    "geometry": {
        "tangent_basis": ("tangent_basis_es0", "tangent_basis_et_s", "tangent_basis_et_h"),
        "oneform": ("canonical_oneform_check", "oneform_potential", "theta_s", "theta_h"),
    },
    "quantization": {
        "quadrature": ("a_coeff_quadrature", "c_coeff_quadrature"),
        "closed_form": ("i_coeff", "log_i_coeff", "b_coeff", "log_b_coeff", "a_coeff",
                        "log_a_coeff", "c_coeff", "log_c_coeff", "b_coeff_semianalytic",
                        "a_coeff_semianalytic", "moment_s7", "log_moment_s7",
                        "log_radial_gg", "c_over_a", "c_over_a_expr", "log_c_over_a_expr",
                        "c_over_a_limit", "t_norm", "t_norm_gamma_part", "t_norm_prefactor",
                        "t_norm_limit", "log_kernel_term", "kernel_diag", "vol_pnh"),
    },
}

BATCH = "quantization.batch"
MC_CAP = 64  # numerics.mc_mean's default max_extension


def span_name(module, func):
    for group, members in GROUPS.get(module, {}).items():
        if func in members:
            return f"{module}.{group}"
    if module == "cli" and func.startswith("suite_"):
        return f"cli.suite.{func[len('suite_'):]}"
    return f"{module}.{func}"


# ------------------------------------------------------------- counters

def _qmul_products(args, kwargs, result):
    """Quaternion products in one call: the broadcast size of the leading axes."""
    return math.prod(result.shape[:-1])


def _sphere_draws(args, kwargs, result):
    return 1 if result.ndim == 1 else result.shape[0]


COUNTERS = {
    "algebra.qmul": {"products": _qmul_products},
    "numerics.sphere_uniform": {"draws": _sphere_draws},
}


class _ThreadBuffer:
    __slots__ = ("names", "starts", "ends", "parents", "stack", "counts")

    def __init__(self):
        self.names = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.stack = []
        self.counts = {}


class Tracer:
    """Installs span wrappers into qpquant and aggregates what they record."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self._local = threading.local()
        self._buffers = []
        self._lock = threading.Lock()

    # ---------------------------------------------------------- recording

    def _buffer(self):
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _ThreadBuffer()
            self._local.buf = buf
            with self._lock:
                self._buffers.append(buf)
        return buf

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key, value):
        counts = self._buffer().counts
        counts[key] = counts.get(key, 0) + value

    def wrap(self, fn, name, counters=None, hook=None):
        """Return ``fn`` recording a span ``name`` per call.

        ``counters`` maps a stat to f(args, kwargs, result) -> count;
        ``hook(args, kwargs) -> (args, kwargs, after)`` may rewrite the
        arguments and return a callback run on the result.
        """
        nid = self.name_id(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            buf = tracer._buffer()
            idx = len(buf.names)
            buf.names.append(nid)
            buf.parents.append(buf.stack[-1] if buf.stack else -1)
            buf.starts.append(0.0)
            buf.ends.append(0.0)
            buf.stack.append(idx)
            after = None
            if hook is not None:
                args, kwargs, after = hook(args, kwargs)
            buf.starts[idx] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                buf.ends[idx] = perf_counter()
                buf.stack.pop()
            if counters:
                for stat, f in counters.items():
                    tracer.count(f"{name}.{stat}", f(args, kwargs, result))
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped_by_tracer__ = True
        return wrapper

    # -------------------------------------------------------- installation

    def _mc_hook(self, args, kwargs):
        """Wrap the batch function handed to mc_mean and count its samples."""
        batch_fn, config = args[0], args[1]
        args = (self.wrap(batch_fn, BATCH),) + tuple(args[1:])
        cap = kwargs.get("max_extension", args[2] if len(args) > 2 else MC_CAP)

        def after(est):
            budget = int(config.samples)
            self.count("numerics.mc_mean.samples", int(est.samples))
            # rounds double the sample count (see numerics.mc_mean)
            self.count("numerics.mc_mean.rounds",
                       1 + max(0, math.ceil(math.log2(est.samples / budget) - 1e-9)))
            target = config.target_rel_stderr
            if (target is not None and est.samples >= cap * budget
                    and est.stderr > target * abs(est.value)):
                self.count("numerics.mc_mean.cap_hits", 1)

        return args, kwargs, after

    def install(self, package):
        """Wrap every public function of the traced modules of ``package``."""
        modules = {m: importlib.import_module(f"{package.__name__}.{m}") for m in MODULES}
        wrapped = {}
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__
                        and not getattr(obj, "__wrapped_by_tracer__", False)):
                    name = span_name(short, attr)
                    hook = self._mc_hook if name == "numerics.mc_mean" else None
                    wrapped[obj] = self.wrap(obj, name, COUNTERS.get(name), hook)
        report_cls = modules["cli"].Report
        for meth in ("to_json", "to_csv"):
            setattr(report_cls, meth, self.wrap(getattr(report_cls, meth), "cli.report"))
        targets = [package] + list(modules.values())
        for mod in targets:
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])
        suites = modules["cli"].SUITE_FUNCS
        for key, fn in list(suites.items()):
            suites[key] = wrapped.get(fn, fn)

    # ---------------------------------------------------------- reporting

    def spans(self):
        """All spans as arrays: name ids into ``names``, start, end, parent (-1: none)."""
        with self._lock:
            buffers = list(self._buffers)
        parts, base = [], 0
        for buf in buffers:
            parent = np.array(buf.parents, dtype=np.int64)
            parts.append((np.array(buf.names, dtype=np.int64), np.array(buf.starts),
                          np.array(buf.ends), np.where(parent >= 0, parent + base, -1)))
            base += len(buf.starts)
        cols = [np.concatenate([p[k] for p in parts]) if parts else np.empty(0)
                for k in range(4)]
        return {"names": list(self.names), "name": cols[0].astype(np.int64),
                "start": cols[1].astype(float), "end": cols[2].astype(float),
                "parent": cols[3].astype(np.int64)}

    def counts(self):
        total = {}
        with self._lock:
            buffers = list(self._buffers)
        for buf in buffers:
            for key, val in buf.counts.items():
                total[key] = total.get(key, 0) + val
        return total


def _covered(spans):
    """Per span, the length of the union of its children's intervals within it.

    Children on one thread never overlap, so their durations add; a parent
    whose sorted children do overlap is merged interval by interval.
    """
    start, end, parent = spans["start"], spans["end"], spans["parent"]
    covered = np.zeros(len(start))
    kids = np.nonzero(parent >= 0)[0]
    if not len(kids):
        return covered
    np.add.at(covered, parent[kids], end[kids] - start[kids])
    order = kids[np.lexsort((start[kids], parent[kids]))]
    same = parent[order[1:]] == parent[order[:-1]]
    overlapping = np.unique(parent[order[1:]][same & (start[order[1:]] < end[order[:-1]])])
    for p in overlapping:
        total, lo, hi = 0.0, None, None
        for k in order[parent[order] == p]:
            a, b = max(start[k], start[p]), min(end[k], end[p])
            if hi is None or a > hi:
                total += 0.0 if hi is None else hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        covered[p] = total + (hi - lo)
    return covered


def layer_table(spans):
    """Per span name: calls, inclusive seconds and self seconds.

    Inclusive time counts only the outermost span of each name on a chain
    of ancestors, so recursion within one layer is not counted twice.
    """
    name, parent = spans["name"], spans["parent"]
    dur = spans["end"] - spans["start"]
    nested = np.zeros(len(dur), dtype=bool)
    anc = parent.copy()
    while np.any(anc >= 0):
        live = anc >= 0
        nested[live] |= name[anc[live]] == name[live]
        anc[live] = parent[anc[live]]
    count = len(spans["names"])
    calls = np.bincount(name, minlength=count)
    self_s = np.bincount(name, weights=dur - _covered(spans), minlength=count)
    incl = np.bincount(name[~nested], weights=dur[~nested], minlength=count)
    return {n: {"calls": int(calls[i]), "s": float(incl[i]), "self_s": float(self_s[i])}
            for i, n in enumerate(spans["names"]) if calls[i]}
