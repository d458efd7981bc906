"""Rewrite the golden data files of this directory from fresh studies.

Run from the repository root:

    PYTHONPATH=src python tests/golden/regen.py

It runs the iteration table, the fig7 rate sweep and the fig8 rate sweep
(diffuse, then the sharp reference on the same Workspace) at the default
config and seed 1234, and writes what ``emit_outputs`` writes for them:

    table.csv        the 5 x 5 MINRES iteration counts
    fig7_rates.csv   rates.csv of ``rates --preset fig7``
    fig8_rates.csv   rates.csv of the fig8 diffuse and sharp runs, labelled
                     "fig8" and "sharp"

These are the data files whose content does not depend on the BLAS
thread count.  Each file starts with one ``# golden:`` line naming the
git revision and the machine it was written on; ``tests/test_golden.py``
compares fresh studies with the rest.  A change that moves these files
regenerates them and says so, with its largest move.
"""

from __future__ import annotations

import os
import platform
import subprocess
import tempfile
from pathlib import Path

import numpy as np
import scipy

from ddcauchy import experiments as xp

HERE = Path(__file__).resolve().parent
HEADER = "# golden:"


def configs() -> dict:
    """Study name -> config of the golden studies (defaults, seed 1234)."""
    sharp = {"study.eps_coef": "0.0", "study.eps_exp": "0.0"}
    return {"table": xp.load_config(overrides={"study.kind": "table"}),
            "fig7": xp.load_config(overrides=xp.apply_preset("fig7")),
            "fig8": xp.load_config(overrides=xp.apply_preset("fig8")),
            "sharp": xp.load_config(overrides=xp.apply_preset("fig8",
                                                              sharp))}


def texts(table, fig7, fig8: dict) -> dict:
    """Golden file name -> CSV text of the studies, as ``emit_outputs``
    writes it; ``fig8`` maps "diffuse" and "sharp" to their results."""
    cfgs = configs()
    files = {
        "table.csv": (cfgs["table"], "table.csv", {"table": table}),
        "fig7_rates.csv": (cfgs["fig7"], "rates.csv",
                           {"rates": {"fig7": fig7}}),
        "fig8_rates.csv": (cfgs["fig8"], "rates.csv",
                           {"rates": {"fig8": fig8["diffuse"],
                                      "sharp": fig8["sharp"]}}),
    }
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, (cfg, emitted, results) in files.items():
            directory = os.path.join(tmp, name)
            xp.emit_outputs(directory, cfg, **results)
            with open(os.path.join(directory, emitted)) as fh:
                out[name] = fh.read()
    return out


def _revision() -> str:
    """Short git revision of the checkout, with "-dirty" if ``src``
    differs from it."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=HERE.parents[1],
                              capture_output=True, text=True).stdout.strip()
    rev = git("rev-parse", "--short=12", "HEAD") or "unknown"
    return rev + ("-dirty" if git("status", "--porcelain", "--", "src")
                  else "")


def _cpu_model() -> str:
    """The first "model name" of /proc/cpuinfo, where Linux provides it."""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def machine_block() -> str:
    """Machine, CPU, library versions and BLAS thread count of this run."""
    threads = (os.environ.get("OPENBLAS_NUM_THREADS")
               or os.environ.get("OMP_NUM_THREADS")
               or f"default ({os.cpu_count()} CPUs)")
    return (f"machine={platform.machine()}; cpu={_cpu_model()}; "
            f"numpy={np.__version__}; scipy={scipy.__version__}; "
            f"threads={threads}")


def main() -> None:
    cfgs = configs()
    ws = xp.Workspace(cfgs["fig8"])
    fig8 = {"diffuse": xp.run_rate_study(cfgs["fig8"], ws),
            "sharp": xp.run_rate_study(cfgs["sharp"], ws)}
    fresh = texts(xp.run_iteration_table(cfgs["table"]),
                  xp.run_rate_study(cfgs["fig7"]), fig8)
    header = f"{HEADER} rev={_revision()}; {machine_block()}\n"
    for name, text in fresh.items():
        with open(HERE / name, "w", newline="\n") as fh:
            fh.write(header + text)
        print(f"wrote {HERE / name}")


if __name__ == "__main__":
    main()
