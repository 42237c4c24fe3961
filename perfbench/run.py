"""Benchmark of qpquant: one workload per process, timed from outside.

    python3 perfbench/run.py --workload fiber-mc --seed 1 --seconds 30 --trace 0

Runs whole rounds of the workload's operations for about ``--seconds``
seconds (at least one round), checks every output after its round, and
prints as its last line one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` one untraced round is followed by
traced rounds, and the metrics are the per-layer ones.  Details go to
``perfbench/out/``.  See perfbench/README.md.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    # One process, at most nproc threads: BLAS stays single-threaded, and only
    # the cli workload's two verify workers run in parallel.  The setting must
    # precede the first numpy import; set-up probes inherit it.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    # built-in CLI defaults, whatever the caller's environment holds
    for var in [v for v in os.environ if v.startswith("QPQUANT_")]:
        del os.environ[var]
    if not (ROOT / "src" / "qpquant" / "__init__.py").is_file():
        sys.stderr.write(f"qpquant sources not found under {ROOT / 'src'}\n")
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import harness
    return harness.main()


if __name__ == "__main__":
    sys.exit(main())
