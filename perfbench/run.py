"""restalg benchmark launcher.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--size full|min]

Run from the repository root.  Every report runs in a fresh child process
(``worker.py``) with BLAS and OpenMP pinned to one thread.  With
``--trace 0`` the launcher first starts ``SETUP_REPEATS`` set-up-only
children, then starts report children back to back while another one fits
in ``--seconds`` (always at least one), and prints the end-to-end metrics
as medians over those children.  With ``--trace 1`` it starts pairs of an
untraced and a traced child instead and prints the per-layer metrics of
the traced ones, plus ``trace.overhead_s``, the traced report's wall time
minus the untraced one's.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the run's envelope (CPU count, versions, commit, thread pinning,
per-child figures).  A child that crashes or overruns ends the run with
exit code 1 and no result line.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 7
DEADLINE_S = 170.0  # a whole run, children included, must end within 180 s
# One BLAS thread: two threads made corpus-verify both faster and far less
# repeatable.  No bytecode cache: every child compiles restalg from source, so
# setup_s does not depend on what an earlier run left behind.
PINNED = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONDONTWRITEBYTECODE": "1",
}


class ChildFailed(RuntimeError):
    pass


def _commit():
    """HEAD of the enclosing git checkout, read from .git, or None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Launcher:
    def __init__(self, args):
        self.args = args
        self.started = time.perf_counter()
        self.env = {**os.environ, **PINNED}
        (HERE / "out").mkdir(exist_ok=True)

    def child(self, *, setup_only=False, trace=False, spans=None):
        a = self.args
        left = DEADLINE_S - (time.perf_counter() - self.started)
        if left <= 0:
            raise ChildFailed("out of time before starting a child")
        cmd = [
            sys.executable,
            str(HERE / "worker.py"),
            "--workload", a.workload,
            "--seed", str(a.seed),
            "--size", a.size,
        ]
        if setup_only:
            cmd.append("--setup-only")
        if trace:
            cmd.append("--trace")
        if spans:
            cmd += ["--spans", str(spans)]
        cmd += ["--t0", repr(time.time())]
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=left
            )
        except subprocess.TimeoutExpired as exc:
            raise ChildFailed(f"child overran the {DEADLINE_S:.0f} s deadline") from exc
        if proc.returncode != 0:
            raise ChildFailed(f"child exited {proc.returncode}:\n{proc.stderr[-4000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def timed_children(self, make_batch):
        """Run batches of children while another batch fits in --seconds."""
        t0 = time.perf_counter()
        batches = []
        while True:
            b0 = time.perf_counter()
            batches.append(make_batch(len(batches)))
            took = time.perf_counter() - b0
            if time.perf_counter() - t0 + took > self.args.seconds:
                return batches

    def run(self):
        a = self.args
        if a.trace:
            spans = HERE / "out" / f"spans-{a.workload}-seed{a.seed}"
            pairs = self.timed_children(
                lambda i: (self.child(), self.child(trace=True, spans=f"{spans}-{i}.npz"))
            )
            reports = [c for pair in pairs for c in pair]
            metrics = self.layer_metrics(pairs)
            setups = []
        else:
            setups = [self.child(setup_only=True)["setup_s"] for _ in range(SETUP_REPEATS)]
            reports = [c for (c,) in self.timed_children(lambda i: (self.child(),))]
            setups += [c["setup_s"] for c in reports]
            metrics = self.end_to_end(reports, setups)
        return self.result(reports, metrics, setups)

    @staticmethod
    def end_to_end(reports, setups):
        med = lambda key: statistics.median(c[key] for c in reports)  # noqa: E731
        checks = reports[0]["checks"]
        pass_ratio = 1.0 - sum(c["failed"] for c in reports) / sum(c["checks"] for c in reports)
        wall = med("wall_s")
        return {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (wall, "s"),
            "cpu_s": (med("cpu_s"), "s"),
            "checks_per_s": (checks / wall, "1/s"),
            "checks_total": (checks, "count"),
            "pass_ratio": (pass_ratio, "ratio"),
            "peak_rss_mb": (med("peak_rss_mb"), "MB"),
        }

    @staticmethod
    def layer_metrics(pairs):
        traced = [t for _u, t in pairs]
        metrics = {
            name: (statistics.fmean(t["layers"][name] for t in traced), unit)
            for name, unit in traced[0]["units"].items()
        }
        overhead = statistics.median(t["wall_s"] - u["wall_s"] for u, t in pairs)
        metrics["trace.overhead_s"] = (overhead, "s")
        return metrics

    def result(self, reports, metrics, setups):
        checks = [c["checks"] for c in reports]
        attempted = sum(checks)
        failed = sum(c["failed"] for c in reports)
        correct = failed == 0 and len(set(checks)) == 1 and attempted > 0
        envelope = {
            "workload": self.args.workload,
            "seed": self.args.seed,
            "seconds": self.args.seconds,
            "trace": self.args.trace,
            "size": self.args.size,
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "commit": _commit(),
            "pinned_env": PINNED,
            "versions": reports[0]["versions"],
            "fail_ratio": failed / attempted if attempted else None,
            "checks_per_report": checks,
            "failures": [f for c in reports for f in c["failures"]][:10],
            "wall_s": [c["wall_s"] for c in reports],
            "cpu_s": [c["cpu_s"] for c in reports],
            "sys_s": [c["sys_s"] for c in reports],
            "minor_faults": [c["minor_faults"] for c in reports],
            "setup_s": setups,
            "peak_rss_mb": [c["peak_rss_mb"] for c in reports],
            "traced": [bool(c.get("layers")) for c in reports],
        }
        return envelope, {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "min"), default="full")
    args = p.parse_args(argv)
    try:
        envelope, result = Launcher(args).run()
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"envelope": envelope}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
