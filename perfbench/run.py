"""Benchmark of ddcauchy's four studies, end to end or layer by layer.

    python3 perfbench/run.py --workload fig7 --seed 1234 --seconds 30 --trace 0

Runs one workload (fig7, table, fig8 or spectrum; see workloads.py) in
this process as a closed loop with one caller: time 20 Workspace
set-ups, then set up a fresh Workspace, run the study, check its
outputs, repeat until ``--seconds`` have passed (at least two studies).
BLAS/OpenMP threads are capped at the number of CPUs this process may
use.  The program is imported from ``src/`` of the checkout this file
sits in; ``--seed`` is the noise seed (``output.seed``) of the configs
the benchmark generates.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced studies (at least two each) and reports the
per-layer metrics of spans.py plus the tracing overhead.  Every study of
a run must write byte-identical CSVs (``emit_outputs``) and, when traced,
identical exact counts; a traced study is thereby checked bit-identical to
an untraced one.  A study whose output check or repeat check fails counts
all its solves as failed.

Details go to stderr; the last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Exits 2
without a result when the checkout holds no ddcauchy sources.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_WARMUPS = 3        # untimed Workspace set-ups before the timed ones
SETUP_TIMED = 20         # timed set-ups before the studies; setup_s is
                         # their median
MIN_STUDIES = 2          # per kind (untraced, traced) and run
SELF_TOL_S = 1e-9        # float slack when comparing summed span times
PROBE_PASSES = 8         # probe passes between studies: at least this, and
PROBE_SHARE = 0.15       # about this share of the study before it

END_TO_END = {
    "setup_s": "s",
    "study_s": "s",
    "study_cpu_s": "s",
    "peak_rss_mb": "MiB",
}


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def tail_percentile(values: list):
    """(percent, value) of the highest order statistic at or above the
    median with at least ten samples beyond it, or None."""
    n = len(values)
    k = n - 10
    if k < (n + 1) // 2:
        return None
    return 100.0 * k / n, sorted(values)[k - 1]


class Run:
    """One benchmark run of one workload."""

    def __init__(self, name, seed, seconds, traced):
        import spans
        import workloads

        self.wl = workloads
        self.spans = spans
        self.name = name
        self.seconds = seconds
        self.traced = traced
        self.out_dir = ROOT / ".bench_build" / "perfbench" / \
            f"{name}-{os.getpid()}"
        self.cfgs = workloads.configs(name, seed, str(self.out_dir))
        self.acc = workloads.load_acceptance(str(ROOT))
        self.setup_s = []
        self.studies = []        # dicts, one per study
        self.attempted = 0
        self.failed = 0
        self.peak_rss_mb = None
        self.probes = []         # mean (wall, CPU) probe pass times

    def setup(self):
        """A fresh Workspace and the seconds its construction took."""
        from ddcauchy.experiments import Workspace

        start = perf_counter()
        ws = Workspace(self.cfgs[0])
        return ws, perf_counter() - start

    def study(self, traced: bool):
        """Set up, run, check and emit one study; its record, or None
        when the study raised."""
        wl, name = self.wl, self.name
        gc.collect()    # free the previous study before this one is timed
        ws, setup_s = self.setup()
        tracer = self.spans.Tracer() if traced else None
        rec = {"traced": traced}
        try:
            with tracer or contextlib.nullcontext():
                cpu0, start = process_time(), perf_counter()
                result = wl.run_study(name, self.cfgs, ws)
                rec["study_s"] = perf_counter() - start
                rec["cpu_s"] = process_time() - cpu0
        except Exception:  # a study that raises counts as one failed solve
            log(traceback.format_exc())
            self.attempted += 1
            self.failed += 1
            return None
        attempted, not_converged = wl.solves(name, result)
        problems = wl.check(name, self.acc, self.cfgs, result)
        rec["files"] = wl.emit(name, self.cfgs, ws, result)
        rec["iterations"] = wl.iterations(name, result)
        if tracer:
            rec["layers"] = tracer.layers()
            rec["metrics"] = tracer.layer_metrics(rec["study_s"])
            problems += self.trace_problems(rec)
        problems += self.repeat_problems(rec)
        self.attempted += attempted
        self.failed += attempted if problems else not_converged
        self.studies.append(rec)
        if self.peak_rss_mb is None:
            # the allocator keeps memory freed by a study, so the peak
            # grows with every repeat: take it through the first study
            self.peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024
        log(f"study {len(self.studies)} {'traced' if traced else 'untraced'}"
            f": setup {setup_s:.4f} s, study {rec['study_s']:.4f} s"
            f", cpu {rec['cpu_s']:.4f} s, iterations {rec['iterations']}, "
            f"u_err_band(min delta) {wl.band_error(name, result)!r}, "
            f"solves {attempted}, not converged {not_converged}")
        for msg in problems:
            log(f"  FAIL: {msg}")
        return rec

    def trace_problems(self, rec) -> list:
        out = []
        for layer, (_, _, own) in rec["layers"].items():
            if own < -SELF_TOL_S:
                out.append(f"negative self time {own!r} s in {layer}")
        if rec["metrics"]["trace.self_sum_s"] > rec["study_s"] + SELF_TOL_S:
            out.append("layer self times exceed the traced study time")
        return out

    def repeat_problems(self, rec) -> list:
        """Differences from the first study of the run (and, for counts,
        from the first traced study)."""
        if not self.studies:
            return []
        first = self.studies[0]
        out = []
        for fname in sorted(set(first["files"]) | set(rec["files"])):
            if first["files"].get(fname) != rec["files"].get(fname):
                out.append(f"{fname} differs from the run's first study")
        if rec["iterations"] != first["iterations"]:
            out.append("MINRES iterations differ from the first study")
        ref = next((s for s in self.studies if s["traced"]), None)
        if rec["traced"] and ref is not None:
            for key in self.spans.EXACT_COUNTS:
                if rec["metrics"][key] != ref["metrics"][key]:
                    out.append(f"{key} differs from the first traced study")
        return out

    def probe(self, passes: int):
        """Run the speed probe on a collected heap and keep its mean
        (wall, CPU) pass time."""
        gc.collect()
        self.probes.append(self._probe.measure(passes))

    def execute(self) -> dict:
        from probe import REFERENCE_PASS_S, Probe

        self._probe = Probe()
        start = perf_counter()
        for _ in range(SETUP_WARMUPS):
            self.setup()
        # each timed set-up sits between two probe passes, which scale it:
        # the host's speed moves within a second
        gc.collect()
        passes = [self._probe.one_pass()[0]]
        for _ in range(SETUP_TIMED):
            self.setup_s.append(self.setup()[1])
            passes.append(self._probe.one_pass()[0])
        self.setup_scaled = [
            took * REFERENCE_PASS_S / statistics.fmean(passes[i:i + 2])
            for i, took in enumerate(self.setup_s)]
        # a fixed count, so the heap the first study starts from (and its
        # peak_rss_mb) does not depend on the machine's speed
        self.probe(PROBE_PASSES)
        count = 0
        while True:
            began = perf_counter()
            rec = self.study(traced=self.traced and count % 2 == 1)
            took = perf_counter() - began
            self.probe(max(PROBE_PASSES,
                           round(PROBE_SHARE * took / REFERENCE_PASS_S)))
            if rec is not None:
                rec["probe"] = [statistics.fmean(p[i] for p in
                                                 self.probes[-2:])
                                for i in (0, 1)]
                log(f"  probe pass wall {self.probes[-1][0]!r} s, "
                    f"cpu {self.probes[-1][1]!r} s")
            count += 1
            # stop before a study that would end past --seconds
            last = perf_counter() - began
            if (count >= MIN_STUDIES * (1 + self.traced)
                    and perf_counter() - start + last > self.seconds):
                break
        return self.metrics()

    def metrics(self) -> dict:
        """Medians over the run's studies; times scaled to the reference
        machine speed (probe.py), each by the probe passes around it: wall
        times by their wall time, CPU times by their CPU time."""
        from probe import REFERENCE_CPU_PASS_S, REFERENCE_PASS_S

        def wall_speed(probe):
            return REFERENCE_PASS_S / probe[0]

        def cpu_speed(probe):
            return REFERENCE_CPU_PASS_S / probe[1]

        plain = [s for s in self.studies if not s["traced"]]
        traced = [s for s in self.studies if s["traced"]]
        wall = [s["study_s"] for s in plain]
        scaled = [s["study_s"] * wall_speed(s["probe"]) for s in plain]
        tail = tail_percentile(scaled)
        # unscaled times and the probe, for comparison (prove.py keeps them)
        raw = {"setup_s": statistics.median(self.setup_s),
               "study_s": statistics.median(wall),
               "study_cpu_s": statistics.median(s["cpu_s"] for s in plain),
               "probe_wall_s": statistics.median(p[0] for p in self.probes),
               "probe_cpu_s": statistics.median(p[1] for p in self.probes),
               "scaled_studies": scaled}
        log("raw " + json.dumps(raw))
        log(f"study_s: {len(scaled)} untraced studies, scaled median "
            f"{statistics.median(scaled)!r} s; "
            + (f"scaled p{tail[0]:.0f} {tail[1]!r} s" if tail else
               "no percentile above the median has 10 samples beyond it"))
        if not self.traced:
            values = {
                "setup_s": statistics.median(self.setup_scaled),
                "study_s": statistics.median(scaled),
                "study_cpu_s": statistics.median(
                    s["cpu_s"] * cpu_speed(s["probe"]) for s in plain),
                "peak_rss_mb": self.peak_rss_mb,
            }
            return {k: {"value": v, "unit": END_TO_END[k]}
                    for k, v in values.items()}
        for layer, (calls, total, own) in sorted(
                traced[0]["layers"].items()):
            log(f"layer {layer} calls={calls} total_s={total!r} "
                f"self_s={own!r}")
        out = {}
        for key, (unit, _) in self.spans.PER_LAYER.items():
            if unit == "count":    # exact, equal in every traced study
                value = traced[0]["metrics"][key]
            elif key == "trace.untraced_study_s":
                value = statistics.median(scaled)
            elif key == "trace.overhead_s":
                value = (statistics.median(
                    s["study_s"] * wall_speed(s["probe"]) for s in traced)
                    - statistics.median(scaled))
            elif unit in ("s", "ms"):
                value = statistics.median(
                    s["metrics"][key] * wall_speed(s["probe"])
                    for s in traced)
            else:
                value = statistics.median(s["metrics"][key] for s in traced)
            out[key] = {"value": value, "unit": unit}
        return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("fig7", "table", "fig8", "spectrum"))
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    needed = (src / "ddcauchy" / "__init__.py",
              ROOT / "tests" / "test_acceptance.py")
    missing = [str(p) for p in needed if not p.is_file()]
    if missing:
        log(f"perfbench: checkout lacks {', '.join(missing)}")
        return 2
    ncpu = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(ncpu)
    sys.path.insert(0, str(src))
    import ddcauchy
    if Path(ddcauchy.__file__).resolve().parent != src / "ddcauchy":
        log(f"perfbench: imported ddcauchy from {ddcauchy.__file__}, "
            f"not from {src}")
        return 2
    log(f"perfbench: workload {args.workload}, seed {args.seed}, "
        f"{args.seconds:g} s, trace {args.trace}, threads {ncpu}")

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        metrics = run.execute()
    finally:
        shutil.rmtree(run.out_dir, ignore_errors=True)
    result = {"correct": run.failed == 0 and run.attempted > 0,
              "attempted": run.attempted, "failed": run.failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
