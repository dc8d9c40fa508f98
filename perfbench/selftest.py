"""Self-test of the benchmark at minimal size.

    python3 perfbench/selftest.py

From the repository root.  Checks that BENCHMARK.json keeps to the
benchmark's schema and that predictions.json covers exactly its per-layer
metrics; runs every workload at ``--size min`` untraced and traced and
checks that each named metric is emitted with its unit, that the traced
and untraced reports ran the same number of checks, and that no check
failed; and checks that a copy of the benchmark without the program exits
non-zero without printing a result.  Exits 0 when everything holds.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check(cond, msg):
    if not cond:
        raise SystemExit(f"selftest FAILED: {msg}")


def check_schema(bench):
    check(
        set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
        "BENCHMARK.json keys",
    )
    check(2 <= len(bench["workloads"]) <= 8, "2 to 8 workloads")
    check(isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60, "run_seconds")
    names = []
    for w in bench["workloads"]:
        check(set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"], f"workload {w}")
        names.append(w["name"])
    for m in bench["end_to_end"]:
        check(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25, f"metric {m}")
    for m in bench["per_layer"]:
        check(set(m) == {"name", "unit", "better"}, f"metric {m}")
    for m in bench["end_to_end"] + bench["per_layer"]:
        check(UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher"), f"metric {m}")
        names.append(m["name"])
    check(all(NAME.fullmatch(n) for n in names) and len(names) == len(set(names)), "names")
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    check(
        setup
        and setup[0]["unit"] == "s"
        and setup[0]["better"] == "lower"
        and setup[0]["bound"] == max(m["bound"] for m in bench["end_to_end"]),
        "setup_s has unit s, lower is better and the largest bound",
    )


def check_predictions(bench):
    pred = json.loads((HERE / "predictions.json").read_text())
    listed = [m for layer in pred["layers"] for m in layer["metrics"]]
    check(len(listed) == len(set(listed)), "predictions list a metric twice")
    check(set(listed) == {m["name"] for m in bench["per_layer"]}, "predictions cover exactly the per-layer metrics")


def run(cwd, workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "min"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return proc


def check_workload(bench, workload):
    runs = {}
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = run(ROOT, workload, trace)
        check(proc.returncode == 0, f"{workload} --trace {trace} exited {proc.returncode}: {proc.stderr[-2000:]}")
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        envelope = json.loads(lines[-2])["envelope"]
        check(set(result) == RESULT_KEYS, f"{workload}: result keys {sorted(result)}")
        check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, f"{workload}: {result}")
        want = {m["name"]: m["unit"] for m in bench[section]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        check(got == want, f"{workload} --trace {trace}: metrics differ from BENCHMARK.json: {set(got) ^ set(want)}")
        check(
            all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
            f"{workload}: non-numeric metric",
        )
        runs[trace] = (result, envelope)
    untraced = runs[0][0]["metrics"]["checks_total"]["value"]
    per_child = runs[1][1]["checks_per_report"]
    check(
        all(c == untraced for c in per_child),
        f"{workload}: traced run counted {per_child} checks, untraced {untraced}",
    )
    print(f"ok {workload}: {untraced} checks, traced overhead "
          f"{runs[1][0]['metrics']['trace.overhead_s']['value']:.3f} s")


def check_without_program():
    bare = HERE / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = run(bare, "corpus-verify", 0)
        last = proc.stdout.strip().splitlines()[-1:] or [""]
        check(proc.returncode != 0, "run without the program exited 0")
        check('"correct"' not in last[0], "run without the program printed a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok: without the program the benchmark exits non-zero and prints no result")


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_schema(bench)
    check_predictions(bench)
    print("ok: BENCHMARK.json schema and predictions")
    for w in bench["workloads"]:
        check_workload(bench, w["name"])
    check_without_program()
    return 0


if __name__ == "__main__":
    sys.exit(main())
