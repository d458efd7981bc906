"""The four study workloads: config, study, solve count, output check.

Each workload is one of the paper's studies, run the way ``ddcauchy``'s
CLI runs it (same presets, same ``Workspace``), with the noise seed
``output.seed`` taken from the benchmark's ``--seed``:

fig7      ``rates --preset fig7``: 7 deltas 2^-4..2^-10, a new mesh per
          cell, so band refinement and assembly dominate.
table     the default 5x5 (alpha, eps) grid at delta = 1e-3: 5 meshes
          serve 25 solves, so MINRES and the Riesz factors dominate.
fig8      ``rates --preset fig8`` (diffuse, at most 3 refinement levels),
          then the sharp reference on the same Workspace; the only
          workload that runs ``SharpSolver.tikhonov``.
spectrum  the default dense preconditioned spectrum (n = 1588) on the
          unrefined h0 = 0.08 background; no refinement, no MINRES.

The output checks call the acceptance criteria of
``tests/test_acceptance.py`` (or read its frozen constants), so the
windows are the paper's acceptance windows and are not restated here.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import os

from ddcauchy import experiments as xp
from ddcauchy.inversion import truth_fixture_csv

def configs(name: str, seed: int, out_dir: str) -> list:
    """The configs a study reads; the first one also sets up the Workspace."""
    base = {"output.seed": str(seed), "output.directory": out_dir}
    if name == "fig7":
        return [xp.load_config(overrides=xp.apply_preset("fig7", base))]
    if name == "fig8":
        sharp = dict(base, **{"study.eps_coef": "0.0",
                              "study.eps_exp": "0.0"})
        return [xp.load_config(overrides=xp.apply_preset("fig8", base)),
                xp.load_config(overrides=xp.apply_preset("fig8", sharp))]
    if name in ("table", "spectrum"):
        return [xp.load_config(overrides=dict(base, **{"study.kind": name}))]
    raise ValueError(f"unknown workload {name!r}")


def run_study(name: str, cfgs: list, ws):
    """One study on a freshly set-up Workspace."""
    if name == "fig7":
        return xp.run_rate_study(cfgs[0], ws)
    if name == "table":
        return xp.run_iteration_table(cfgs[0], ws)
    if name == "fig8":
        return (xp.run_rate_study(cfgs[0], ws),
                xp.run_rate_study(cfgs[1], ws))
    return xp.run_spectrum_study(cfgs[0])


def solves(name: str, result) -> tuple:
    """(attempted, not converged) solves of one study."""
    if name == "fig7":
        rows = result.rows
    elif name == "fig8":
        rows = result[0].rows + result[1].rows
    elif name == "table":
        return result.converged.size, int((~result.converged).sum())
    else:
        return 1, 0
    return len(rows), sum(not r.converged for r in rows)


def iterations(name: str, result) -> int:
    """Total MINRES iterations of one study (0 for the spectrum)."""
    if name == "fig7":
        return sum(r.iterations for r in result.rows)
    if name == "fig8":
        return sum(r.iterations for r in result[0].rows + result[1].rows)
    if name == "table":
        return int(result.iterations.sum())
    return 0


def emit(name: str, cfgs: list, ws, result) -> dict:
    """Write the study's files with ``emit_outputs`` as the CLI does and
    return their bytes, keyed by file name."""
    cfg = cfgs[0]
    if name == "fig7":
        paths = xp.emit_outputs(
            cfg.out_dir, cfg, rates={"fig7": result},
            truth_csv=truth_fixture_csv(ws.truth, ws.sharp_solver))
    elif name == "fig8":
        paths = xp.emit_outputs(
            cfg.out_dir, cfg, rates={"fig8": result[0], "sharp": result[1]},
            truth_csv=truth_fixture_csv(ws.truth, ws.sharp_solver))
    elif name == "table":
        paths = xp.emit_outputs(cfg.out_dir, cfg, table=result)
    else:
        paths = xp.emit_outputs(cfg.out_dir, cfg, spect=result)
    data = {}
    for path in paths:
        with open(path, "rb") as fh:
            data[os.path.basename(path)] = fh.read()
    return data


def load_acceptance(root: str):
    """Import ``tests/test_acceptance.py`` of the checkout as a module."""
    path = os.path.join(root, "tests", "test_acceptance.py")
    spec = importlib.util.spec_from_file_location("_bench_acceptance", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _criterion(fn, *args) -> list:
    """Run one acceptance criterion; its report line on failure."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            fn(*args)
    except AssertionError as err:
        return [str(err)]
    except Exception as err:  # e.g. a fit over non-positive errors
        return [f"{fn.__name__}: {type(err).__name__}: {err}"]
    return []


def _spectrum_bands(acc, res) -> list:
    """The alpha > 0 band checks (a)-(d) of criterion 5, with its frozen
    constants, applied to the study's own eigenvalues."""
    alpha = res.alpha
    eigs = res.eigenvalues
    neg = eigs[eigs < 0.0]
    pos = eigs[eigs > 0.0]
    fails = []
    if not (len(neg) and neg.max() <= -acc.NEG_SEPARATION):
        fails.append("criterion 5 (a): negative band not below "
                     f"-{acc.NEG_SEPARATION}")
    cluster = pos[pos <= 3.0 * alpha]
    if not (len(cluster)
            and cluster.min() >= 0.5 * acc.SPECTRUM_C_FROZEN * alpha):
        fails.append("criterion 5 (b): alpha cluster missing or too low")
    unit = pos[pos >= acc.SPECTRUM_A_FROZEN]
    if not (len(unit) and unit.max() <= acc.SPECTRUM_B_FROZEN):
        fails.append("criterion 5 (c): O(1) band missing or above "
                     f"{acc.SPECTRUM_B_FROZEN}")
    isolated = pos[(pos > 3.0 * alpha) & (pos < acc.SPECTRUM_A_FROZEN)]
    n_iso = len(isolated) + int((neg > -acc.NEG_SEPARATION).sum())
    if n_iso > 12:
        fails.append(f"criterion 5 (d): {n_iso} isolated eigenvalues (> 12)")
    return fails


def check(name: str, acc, cfgs: list, result) -> list:
    """Failures of the study's output check; empty when it passes."""
    if name == "fig7":
        # criterion 6's eps ~ delta^(1/3) clause compares two studies;
        # this workload runs one, so it is passed as both
        runs = {"half": (cfgs[0], result), "third": (cfgs[0], result)}
        return (_criterion(acc.test_criterion_06_fig7_rates, runs)
                + _criterion(acc.test_criterion_08_data_fidelity_rate, runs))
    if name == "table":
        return _criterion(acc.test_criterion_04_iteration_robustness, result)
    if name == "fig8":
        return _criterion(acc.test_criterion_07_fig8_rates,
                          {"diffuse": result[0], "sharp": result[1]})
    return _spectrum_bands(acc, result)


def band_error(name: str, result) -> float:
    """u_err_band at the smallest delta (fig7 and fig8), else nan."""
    if name == "fig7":
        rows = result.rows
    elif name == "fig8":
        rows = result[0].rows
    else:
        return float("nan")
    return min(rows, key=lambda r: r.delta).u_err_band
