"""Rewrite the golden data files of this directory from fresh studies.

Run from the repository root:

    PYTHONPATH=src python tests/golden/regen.py [NAME ...]

It runs the iteration table, the fig7 rate sweep, the fig8 rate sweep
(diffuse, then the sharp reference on the same Workspace), the spectrum
at the default config and seed 1234, ``ddcauchy verify`` and two
``ddcauchy solve`` triples, and writes what ``emit_outputs`` and the CLI
write for them, or only the files named:

    table.csv        the 5 x 5 MINRES iteration counts
    residuals.csv    the table's MINRES residual histories, 2,620 rows
    fig7_rates.csv   rates.csv of ``rates --preset fig7``
    fig8_rates.csv   rates.csv of the fig8 diffuse and sharp runs, labelled
                     "fig8" and "sharp"
    spectrum.csv     the dense preconditioned spectrum and its bands
    truth.csv        ``truth_fixture_csv`` of the fig8 Workspace: the
                     truth's series and its nodal values at the sharp
                     boundary angles
    verify.txt       the seven lines ``ddcauchy verify`` prints
    solve.txt        what ``ddcauchy solve`` prints for SOLVE_ARGS: one
                     diffuse and one sharp (delta, alpha, eps) triple

Only the eigenvalues of spectrum.csv depend on the BLAS thread count, in
their last digits.  Each file starts with one ``# golden:`` line naming
the git revision and the machine it was written on;
``tests/test_golden.py`` compares fresh studies with the rest.  A change
that moves these files regenerates them and says so, with its largest
move.
"""

from __future__ import annotations

import contextlib
import io
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

from ddcauchy import experiments as xp
from ddcauchy.cli import main as cli_main
from ddcauchy.inversion import truth_fixture_csv

HERE = Path(__file__).resolve().parent
HEADER = "# golden:"


def configs() -> dict:
    """Study name -> config of the golden studies (defaults, seed 1234)."""
    sharp = {"study.eps_coef": "0.0", "study.eps_exp": "0.0"}
    return {"table": xp.load_config(overrides={"study.kind": "table"}),
            "fig7": xp.load_config(overrides=xp.apply_preset("fig7")),
            "fig8": xp.load_config(overrides=xp.apply_preset("fig8")),
            "sharp": xp.load_config(overrides=xp.apply_preset("fig8",
                                                              sharp)),
            "spectrum": xp.load_config(overrides={"study.kind": "spectrum"})}


# The ``ddcauchy solve`` triples of solve.txt: a diffuse one (124 MINRES
# iterations) and the sharp reference (eps = 0).
SOLVE_ARGS = (
    ["--delta", "1e-3", "--alpha", "1e-3", "--epsilon", "0.0625"],
    ["--delta", "1e-3", "--alpha", "1e-3", "--epsilon", "0"],
)


def verify_run() -> tuple:
    """(exit code, stdout) of ``ddcauchy verify``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(["verify"])
    return code, out.getvalue()


def solve_run() -> str:
    """The stdout of ``ddcauchy solve`` for each of SOLVE_ARGS, in order."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for args in SOLVE_ARGS:
            cli_main(["solve", *args])
    return out.getvalue()


def texts(table, fig7, fig8: dict, spect, verify: str, solve: str) -> dict:
    """Golden file name -> text of the studies, as ``emit_outputs``
    writes it, of ``verify``, the stdout of ``ddcauchy verify``, and of
    ``solve``, that of ``solve_run``; ``fig8`` maps "diffuse" and "sharp"
    to their results and "workspace" to the Workspace they ran on."""
    cfgs = configs()
    ws = fig8["workspace"]
    files = {
        "table.csv": (cfgs["table"], "table.csv", {"table": table}),
        "residuals.csv": (cfgs["table"], "residuals.csv", {"table": table}),
        "fig7_rates.csv": (cfgs["fig7"], "rates.csv",
                           {"rates": {"fig7": fig7}}),
        "fig8_rates.csv": (cfgs["fig8"], "rates.csv",
                           {"rates": {"fig8": fig8["diffuse"],
                                      "sharp": fig8["sharp"]}}),
        "spectrum.csv": (cfgs["spectrum"], "spectrum.csv",
                         {"spect": spect}),
        "truth.csv": (cfgs["fig8"], "truth.csv",
                      {"truth_csv": truth_fixture_csv(ws.truth,
                                                      ws.sharp_solver)}),
    }
    out = {"verify.txt": verify, "solve.txt": solve}
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


def main(names: list) -> None:
    cfgs = configs()
    ws = xp.Workspace(cfgs["fig8"])
    fig8 = {"diffuse": xp.run_rate_study(cfgs["fig8"], ws),
            "sharp": xp.run_rate_study(cfgs["sharp"], ws), "workspace": ws}
    fresh = texts(xp.run_iteration_table(cfgs["table"]),
                  xp.run_rate_study(cfgs["fig7"]), fig8,
                  xp.run_spectrum_study(cfgs["spectrum"]), verify_run()[1],
                  solve_run())
    header = f"{HEADER} rev={_revision()}; {machine_block()}\n"
    unknown = set(names) - set(fresh)
    if unknown:
        raise SystemExit(f"no golden file named {', '.join(sorted(unknown))}")
    for name, text in fresh.items():
        if names and name not in names:
            continue
        with open(HERE / name, "w", newline="\n") as fh:
            fh.write(header + text)
        print(f"wrote {HERE / name}")


if __name__ == "__main__":
    main(sys.argv[1:])
