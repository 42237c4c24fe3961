"""Fast self-test of the benchmark harness.

    python3 perfbench/selftest.py

Checks the self-time arithmetic on a synthetic nested span set, operation
and failure counting on a synthetic workload, that the tracer replaces
every binding of a wrapped function, and that the output checks fail when
a closed form is perturbed by 1e-3 relative.  Exits 1 on any failure.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parent.parent / "src"),
                str(Path(__file__).resolve().parent.parent)]

import numpy as np  # noqa: E402

from perfbench import harness  # noqa: E402

FAILURES = []


def expect(label, ok):
    print(f"{'ok  ' if ok else 'FAIL'} {label}")
    if not ok:
        FAILURES.append(label)


def close(a, b):
    return abs(a - b) <= 1e-12


def from_tuples(rows):
    """Span arrays from (name, start, end, parent index) tuples."""
    names = sorted({r[0] for r in rows})
    return {"names": names, "name": np.array([names.index(r[0]) for r in rows]),
            "start": np.array([r[1] for r in rows], dtype=float),
            "end": np.array([r[2] for r in rows], dtype=float),
            "parent": np.array([r[3] for r in rows], dtype=np.int64)}


def test_self_time():
    from perfbench.tracing import layer_table
    # A [0, 10] holds B [1, 4] and C [3, 6], which overlap as spans from two
    # threads would, and D [7, 8]; D holds E [7.2, 7.5]; E holds A' [7.3, 7.4]
    # with A's name, which inclusive time must not count twice.
    spans = [("A", 0.0, 10.0, -1), ("B", 1.0, 4.0, 0), ("C", 3.0, 6.0, 0),
             ("D", 7.0, 8.0, 0), ("E", 7.2, 7.5, 3), ("A", 7.3, 7.4, 4)]
    t = layer_table(from_tuples(spans))
    expect("self time subtracts the union of child intervals",
           close(t["A"]["self_s"], 4.0 + 0.1) and close(t["B"]["self_s"], 3.0)
           and close(t["C"]["self_s"], 3.0))
    expect("self time of a nested chain", close(t["D"]["self_s"], 0.7)
           and close(t["E"]["self_s"], 0.2))
    expect("inclusive time counts the outermost span of a name once",
           close(t["A"]["s"], 10.0) and t["A"]["calls"] == 2)


def test_counting():
    from perfbench.workloads import Group, Workload

    def op(ctx, i):
        if i % 3 == 0:
            raise OverflowError("synthetic")
        return i

    def check(out, i):
        return "odd output" if out % 2 else None

    wl = Workload("synthetic", [Group("g", 7, op, check), Group("h", 2, lambda c, i: 0,
                                                                lambda o, i: None)])
    results = {"attempted": 0, "failed": 0, "failures": [], "wrong": [], "op_s": [],
               "raw_round_s": [], "speed": []}
    for _ in range(2):
        harness.run_round(wl, results)
    # per round: g fails at 0, 3, 6; of 1, 2, 4, 5 the odd 1 and 5 are wrong
    expect("attempted counts whole rounds", results["attempted"] == 18)
    expect("failed counts raised operations", results["failed"] == 6
           and all("OverflowError" in f for f in results["failures"]))
    expect("wrong counts failed checks of completed operations", len(results["wrong"]) == 4)
    expect("every operation is timed", len(results["op_s"]) == 18)


def test_perturbed_closed_forms():
    from perfbench import reference, workloads
    from qpquant.numerics import MCEstimate

    originals = {k: getattr(reference, k) for k in
                 ("b_coeff", "a_coeff", "c_coeff", "t_norm", "i_coeff", "kernel_diag")}

    def perturb(eps):
        for name, fn in originals.items():
            setattr(reference, name, lambda *a, fn=fn: fn(*a) * (1 + eps))
        reference.DET_THETA = reference.mp.mpf(1) / 8 * (1 + eps)

    def outcomes(eps):
        perturb(eps)
        cli = workloads.cli_commands(0)
        groups = {g.name: g for g in cli.groups}
        row = workloads.CONSTANT_ROWS.index((1, 5))
        res = {"constants row": groups["constants"].check(groups["constants"].op(None, row), row),
               "kernel": groups["kernel"].check(groups["kernel"].op(None, 0), 0)}
        fib = workloads.fiber_mc(0)
        b11 = fib.groups[0]
        exact = float(originals["b_coeff"](1, 1))
        est = MCEstimate(value=exact, stderr=1e-4 * exact, samples=131_072)
        res["fiber-mc b_coeff_mc, synthetic stderr 1e-4"] = b11.check(est, 0)
        geo = workloads.geometry_points(0)
        const = geo.groups[-1]
        res["recovered det theta'"] = const.check(const.op(const.start(), 0), 0)
        return res

    try:
        for label, problem in outcomes(0.0).items():
            expect(f"{label} passes against the unperturbed closed form", problem is None)
        for label, problem in outcomes(1e-3).items():
            expect(f"{label} fails with the closed form perturbed by 1e-3: {problem}",
                   problem is not None)
    finally:
        for name, fn in originals.items():
            setattr(reference, name, fn)
        reference.DET_THETA = reference.mp.mpf(1) / 8


def test_tracer_rebinding():
    import qpquant
    from qpquant import algebra, cli, geometry, quantization, spaces
    from perfbench.tracing import Tracer, layer_table
    tracer = Tracer()
    tracer.install(qpquant)
    same = (quantization.qmul is algebra.qmul and spaces.qmul is algebra.qmul
            and geometry.alpha is spaces.alpha and cli.SUITE_FUNCS["algebra"] is cli.suite_algebra)
    expect("every binding of a wrapped function is the wrapper",
           same and getattr(algebra.qmul, "__wrapped_by_tracer__", False))
    quantization.b_coeff(1, 1)
    table = layer_table(tracer.spans())
    expect("a traced call records its layer and the layers below",
           "quantization.closed_form" in table and "numerics.log_gamma" in table)


def main():
    test_self_time()
    test_counting()
    test_perturbed_closed_forms()
    test_tracer_rebinding()
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
