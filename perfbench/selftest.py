"""Self-test of the benchmark in its shortened mode.

    python3 perfbench/selftest.py

``--seconds 1`` makes run.py do its minimum: two untraced studies, or
two untraced and two traced ones with ``--trace 1``.  For each workload
of BENCHMARK.json and each trace mode the test checks that

* run.py exits 0 and its last stdout line is the result object, with
  ``correct`` true and no failed solve;
* every metric BENCHMARK.json names for that mode is printed, with its
  unit;
* every layer self time the traced run logs is non-negative, and the
  layers' self times sum to no more than the traced study time;

and, once, that run.py exits non-zero without a result in a directory
holding only BENCHMARK.json and the benchmark's files.  Exits 0 iff all
checks pass.
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
LAYER_LINE = re.compile(r"^layer (\S+) calls=\d+ total_s=(\S+) self_s=(\S+)$")


def run(cwd: Path, workload: str, trace: int):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "1234", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600, check=False)


def check_run(spec: dict, workload: str, trace: int) -> list:
    proc = run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stderr}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0
            and result["attempted"] >= 1):
        errors.append(f"{where}: correct={result['correct']} "
                      f"failed={result['failed']}\n{proc.stderr}")
    named = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result["metrics"]
    for m in named:
        got = metrics.get(m["name"])
        if got is None or got.get("unit") != m["unit"] or not isinstance(
                got.get("value"), (int, float)):
            errors.append(f"{where}: metric {m['name']} printed as {got}")
    if trace:
        for line in proc.stderr.splitlines():
            hit = LAYER_LINE.match(line)
            if hit and float(hit.group(3)) < 0.0:
                errors.append(f"{where}: negative self time in {line}")
        if not any(LAYER_LINE.match(ln) for ln in proc.stderr.splitlines()):
            errors.append(f"{where}: no layer lines logged")
        if metrics["trace.self_sum_s"]["value"] > \
                metrics["trace.study_s"]["value"]:
            errors.append(f"{where}: layer self times sum past study_s")
    print(f"{where}: {'ok' if not errors else 'FAILED'}", flush=True)
    return errors


def check_bare() -> list:
    """run.py must fail without a result next to no program sources."""
    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = run(bare, "spectrum", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    ok = proc.returncode != 0 and not proc.stdout.strip()
    print(f"bare directory: {'ok' if ok else 'FAILED'}", flush=True)
    return [] if ok else [f"bare directory: exit {proc.returncode}, "
                          f"stdout {proc.stdout!r}"]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = check_bare()
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            errors += check_run(spec, workload, trace)
    for err in errors:
        print(err, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
