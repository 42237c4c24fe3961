"""The benchmark harness: rounds, set-up probes, metrics and the result line.

Imported by ``run.py`` once the thread settings are in place and the
checkout's sources are on the path.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import qpquant
from perfbench import tracing, workloads, yardstick

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 5
SEGMENT_S = 0.5  # seconds of operations between yardstick readings


def _units(section):
    """Metric name -> unit for one section of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def _run_op(group, ctx, i, results):
    """One operation: (output or None if it raised, seconds)."""
    t0 = time.perf_counter()
    try:
        out = group.op(ctx, i)
    except Exception as exc:  # a failed operation is counted, not fatal
        out = None
        results["failures"].append(f"{group.name}[{i}]: {type(exc).__name__}: {exc}")
    return out, time.perf_counter() - t0


def run_round(workload, results, gauge=None):
    """One pass over every operation, then the checks of its outputs.

    With ``gauge`` (the yardstick module), a group that names a yardstick
    kind is cut into segments of about ``SEGMENT_S`` seconds of operations,
    the yardstick is read at every cut, and each segment's operations are
    reported at the yardstick's nominal speed, using the readings on either
    side of the segment.  Returns (seconds, outputs by group, seconds by
    group), in those units.
    """
    outputs, group_seconds, raw = {}, {}, 0.0
    for group in workload.groups:
        ctx = group.start()
        kind = group.yardstick if gauge is not None else None
        outs, seconds = [], 0.0
        reading = gauge.measure(kind) if kind else None
        i = 0
        while i < group.size:
            times, spent = [], 0.0
            while i < group.size and (kind is None or spent < SEGMENT_S):
                out, dt = _run_op(group, ctx, i, results)
                outs.append(out)
                times.append(dt)
                spent += dt
                i += 1
            scale = 1.0
            if kind:
                after = gauge.measure(kind)
                scale = gauge.NOMINAL[kind] / (0.5 * (reading + after))
                reading = after
                results["speed"].append(1.0 / scale)
            raw += spent
            seconds += scale * spent
            results["op_s"].extend(scale * t for t in times)
        outputs[group.name], group_seconds[group.name] = outs, seconds
    results["raw_round_s"].append(raw)
    results["attempted"] += sum(g.size for g in workload.groups)
    results["failed"] += sum(o is None for outs in outputs.values() for o in outs)
    for group in workload.groups:
        for i, out in enumerate(outputs[group.name]):
            if out is not None:
                try:
                    problem = group.check(out, i)
                except Exception as exc:  # malformed output is a wrong answer
                    problem = f"{group.name}[{i}]: check raised {type(exc).__name__}: {exc}"
                if problem:
                    results["wrong"].append(problem)
    return sum(group_seconds.values()), outputs, group_seconds


def measure_setup(workload_name, seed):
    """Median wall time of fresh processes that import qpquant and build the inputs.

    Not scaled by a yardstick: start-up is loading files and mapping pages,
    whose time the in-process yardstick does not follow (on a 2-vCPU Xeon
    virtual machine, scaling grew the run-to-run spread from 0.08 to 0.25 of
    the median).
    """
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "run.py"), "--setup-probe",
                        "--workload", workload_name, "--seed", str(seed)],
                       cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), times


def _rounds(workload, results, seconds, started):
    """Rounds until the next one would end after ``seconds`` (at least one)."""
    walls, extras = [], []
    while True:
        t0 = time.perf_counter()
        wall, outputs, group_seconds = run_round(workload, results, yardstick)
        walls.append(wall)
        extras.append(workload.extras(outputs, group_seconds))
        now = time.perf_counter()
        if now - started + (now - t0) > seconds:
            return walls, extras


def main(argv=None):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="import qpquant, build the inputs and exit (times set-up)")
    args = parser.parse_args(argv)

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.build(args.workload, args.seed)
    if args.setup_probe:
        return 0

    OUT.mkdir(exist_ok=True)
    results = {"attempted": 0, "failed": 0, "failures": [], "wrong": [], "op_s": [],
               "raw_round_s": [], "speed": []}
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "inputs": workload.info}
    if args.trace == 0:
        setup_s, setup_runs = measure_setup(args.workload, args.seed)
        started = time.perf_counter()
        walls, extras = _rounds(workload, results, args.seconds, started)
        metrics = {
            "setup_s": setup_s,
            "wall_cal_s": statistics.median(walls),
            "op_p50_cal_ms": 1e3 * statistics.median(results["op_s"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = _units("end_to_end")
        detail.update(setup_runs_s=setup_runs, round_cal_s=walls, extras=extras)
    else:
        started = time.perf_counter()
        plain, extras = _rounds(workload, results, 0.0, started)
        tracer = tracing.Tracer()
        tracer.install(qpquant)
        traced, _ = _rounds(workload, results, args.seconds, started)
        spans = tracer.spans()
        table = tracing.layer_table(spans)
        counts = tracer.counts()
        overhead = statistics.median(traced) / plain[0] - 1.0
        units = _units("per_layer")
        metrics = layer_metrics(units, table, counts, len(traced), extras[0], overhead)
        nspans = len(spans["start"])
        detail.update(plain_round_s=plain, traced_round_s=traced, extras=extras,
                      spans=nspans, layers=table, counts=counts)
        # one file per workload: the latest traced run's spans
        np.savez_compressed(OUT / f"{args.workload}-spans.npz", **spans)
        print(f"tracing overhead: {100.0 * overhead:+.1f}% of an untraced round "
              f"({plain[0]:.3f} s untraced, {statistics.median(traced):.3f} s traced, "
              f"{nspans} spans)")

    correct = not results["wrong"]
    detail.update(raw_round_s=results["raw_round_s"], speed=results["speed"], correct=correct,
                  attempted=results["attempted"], failed=results["failed"],
                  failures=results["failures"][:200], wrong=results["wrong"][:200],
                  metrics=metrics)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1, default=str))
    for name, value in metrics.items():
        print(f"{name}: {value:.6g} {units[name]}")
    for problem in results["wrong"][:20]:
        print(f"WRONG {problem}")
    print(json.dumps({"correct": correct, "attempted": results["attempted"],
                      "failed": results["failed"],
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


def layer_metrics(units, table, counts, rounds, extras, overhead):
    """Per-layer figures per traced round, plus the untraced round's extras."""
    out = {}
    for name in units:
        if name in extras:
            out[name] = extras[name]
        elif name == "trace.overhead_pct":
            out[name] = 100.0 * overhead
        elif name == "numerics.mc_mean.samples_per_s":
            secs = table.get("numerics.mc_mean", {}).get("s", 0.0)
            out[name] = counts.get("numerics.mc_mean.samples", 0) / secs if secs else 0.0
        elif name in counts:
            out[name] = counts[name] / rounds
        else:
            layer, _, stat = name.rpartition(".")
            row = table.get(layer)
            if row is not None and stat in row:
                out[name] = row[stat] / rounds
            else:
                out[name] = 0.0
    return out

