"""Repeat the benchmark over seeds and summarise each metric's spread.

    python3 perfbench/prove.py --seeds 1234 1 2 3 4 5 6 7 8 9 --trace-seed 1234 \
        --out perfbench/baseline.json

Runs ``run.py`` once per (workload, seed) for every workload of
BENCHMARK.json, one process at a time, with its ``run_seconds``.  For
every end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(n=4)``) and the spread, (Q3 - Q1) / median, next
to a third of the metric's bound; a spread at or above that third is
flagged.  The same summary of the unscaled times run.py logs (its
``raw`` line) is kept next to them.  ``--trace-seed`` adds one
traced run per workload for the per-layer numbers.  ``--out`` writes all
of it, with the machine it ran on, as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from run import tail_percentile  # noqa: E402


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    """The run's result and its unscaled times (run.py's ``raw`` line)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    raw = next(json.loads(line[4:]) for line in proc.stderr.splitlines()
               if line.startswith("raw "))
    return json.loads(proc.stdout.strip().splitlines()[-1]), raw


def summarise(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values),
            "values": values}


def machine() -> dict:
    import numpy
    import scipy

    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), "")
    except OSError:
        pass
    return {"cpus": len(os.sched_getaffinity(0)), "cpu_model": model,
            "blas_threads": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--trace-seed", type=int, default=None)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    report = {"machine": machine(), "run_seconds": spec["run_seconds"],
              "seeds": args.seeds, "workloads": {}}
    steady = True
    for wl in names:
        runs, raws = [], []
        for seed in args.seeds:
            res, raw = run_once(wl, seed, spec["run_seconds"], 0)
            runs.append(res)
            raws.append(raw)
            print(f"{wl} seed {seed}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']} "
                  + " ".join(f"{k}={v['value']:.4f}"
                             for k, v in res["metrics"].items()), flush=True)
        entry = {"correct": all(r["correct"] for r in runs),
                 "failed": sum(r["failed"] for r in runs),
                 "attempted": sum(r["attempted"] for r in runs),
                 "end_to_end": {},
                 "unscaled": {k: summarise([r[k] for r in raws])
                              for k in raws[0] if k != "scaled_studies"}}
        # the tail over every untraced study of the runs, pooled
        pooled = [t for r in raws for t in r["scaled_studies"]]
        tail = tail_percentile(pooled)
        entry["study_s_tail"] = {
            "samples": len(pooled),
            "percentile": tail and tail[0], "value": tail and tail[1]}
        print(f"  {wl} study_s over {len(pooled)} studies: "
              + (f"p{tail[0]:.0f} {tail[1]:.4f}" if tail else "no tail"),
              flush=True)
        for name in bounds:
            stats = summarise([r["metrics"][name]["value"] for r in runs])
            stats["unit"] = runs[0]["metrics"][name]["unit"]
            entry["end_to_end"][name] = stats
            flag = ""
            if stats["spread"] >= bounds[name] / 3:
                flag = "  <-- spread >= bound/3"
                steady = False
            print(f"  {wl} {name}: median {stats['median']:.4f} "
                  f"q1 {stats['q1']:.4f} q3 {stats['q3']:.4f} spread "
                  f"{stats['spread']:.4f} (bound/3 {bounds[name] / 3:.4f})"
                  f"{flag}", flush=True)
        for name, stats in entry["unscaled"].items():
            print(f"  {wl} unscaled {name}: median {stats['median']:.4f} "
                  f"spread {stats['spread']:.4f}", flush=True)
        steady = steady and entry["correct"]
        if args.trace_seed is not None:
            traced, _ = run_once(wl, args.trace_seed, spec["run_seconds"], 1)
            entry["per_layer"] = {"seed": args.trace_seed,
                                  "correct": traced["correct"],
                                  "metrics": traced["metrics"]}
            print(f"  {wl} traced seed {args.trace_seed}: "
                  f"correct={traced['correct']}", flush=True)
        report["workloads"][wl] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
