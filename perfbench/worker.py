"""One benchmark process: set up a workload and, unless asked only to set
up, run its timed report once.  Started by ``run.py``; prints one JSON
object as its last line.

    python3 perfbench/worker.py --workload NAME --seed N --size full|min \
        --t0 EPOCH_SECONDS [--setup-only] [--trace] [--spans PATH]

``--t0`` is the launcher's wall clock just before it started this process,
so ``setup_s`` covers interpreter start, imports and the workload's set-up.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def _versions():
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", default="full")
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--spans", default=None)
    args = p.parse_args(argv)

    from tracing import Tracer, layer_metrics
    from workloads import WORKLOADS

    setup, report = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    workdir = HERE / "out" / f"tables-{os.getpid()}"
    try:
        state = setup(args.seed, args.size, str(workdir))
        setup_s = time.time() - args.t0
        result = {"setup_s": setup_s, "versions": _versions()}
        if not args.setup_only:
            w0, c0 = time.perf_counter(), time.process_time()
            t0, f0 = os.times(), resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            r = report(state)
            wall, cpu = time.perf_counter() - w0, time.process_time() - c0
            t1, f1 = os.times(), resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            result.update(
                wall_s=wall,
                cpu_s=cpu,
                sys_s=t1.system - t0.system,
                minor_faults=f1 - f0,
                checks=r.checks,
                failed=r.failed,
                failures=r.failures,
                suite_seconds=r.suite_seconds,
            )
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if tracer:
        tracer.uninstall()
        if args.spans:
            tracer.save(args.spans)
        layers = layer_metrics(tracer.summary(), result.get("suite_seconds", {}))
        result["layers"] = {k: v for k, (v, _unit) in layers.items()}
        result["units"] = {k: unit for k, (_v, unit) in layers.items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
