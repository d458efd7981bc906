"""Command-line interface.

Subcommands
-----------
solve     one (delta, alpha, eps) triple, errors printed (no files written)
table     iteration-count grid over (alpha, eps)
rates     noise sweep under the configured or preset schedules
spectrum  dense preconditioned spectrum on a coarse mesh
verify    analytic property suite (band measure, integral orders, adjoint,
          trace/Poincare uniformity); exit code 0 iff all checks pass

Every subcommand but verify accepts --config FILE (INI) and repeated
--set section.key=value overrides; command-line values win over the file.
The rates subcommand also accepts --preset fig7|fig8.  An unknown
key or unusable value, a malformed --set, an output directory that
cannot be created and a solve flag out of range are each reported as one
line on stderr, exit code 2.  A solve or rates error that is not finite
is named on one stderr line, exit code 1, and so is a table cell whose
right-hand side is not finite.  A config that loads but fails in a solve
stage (a ``StageError``: mesh, phase field, assembly, saddle or
inversion) is reported as one stderr line naming the stage, exit code 1.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import experiments as xp
from .geometry import StageError
from .inversion import truth_fixture_csv
from .verify import run_verify


def _common(parser):
    parser.add_argument("--config", default=None, help="INI config file")
    parser.add_argument("--set", dest="overrides", action="append",
                        default=[], metavar="SECTION.KEY=VALUE",
                        help="override one config value (repeatable)")
    parser.add_argument("--out", default=None,
                        help="output directory (overrides output.directory)")


def _overrides(args, preset=None):
    ov = {}
    if preset:
        ov.update(xp.apply_preset(preset))
    for item in args.overrides:
        key, _, value = item.partition("=")
        if not _ or "." not in key:
            raise FlagError(f"--set {item!r}: expected section.key=value")
        ov[key.strip()] = value.strip()
    if args.out:
        ov["output.directory"] = args.out
    return ov


class FlagError(ValueError):
    """A malformed or out-of-range command-line flag; the message names
    the flag."""


def _check_solve_flags(delta, alpha, eps, eps_cap):
    # every comparison with nan is False, so nan fails each test
    for flag, value, ok, what in (
            ("--delta", delta, 0.0 <= delta < np.inf, "a finite number >= 0"),
            ("--alpha", alpha, 0.0 < alpha < np.inf, "a finite number > 0"),
            ("--epsilon", eps, eps == 0.0 or 0.0 < eps <= eps_cap,
             f"0 or in (0, {eps_cap:g}]")):
        if not ok:
            raise FlagError(f"{flag} {value:g}: must be {what}")


def _finite_errors(errors) -> int:
    """Exit status of a run by its reported errors ((name, value) pairs):
    1 with one stderr line naming the first that is not finite, else 0."""
    for name, value in errors:
        if not np.isfinite(value):
            print(f"ddcauchy: {name} is not finite ({value})",
                  file=sys.stderr)
            return 1
    return 0


def _quiet_overflow():
    """Silence numpy's overflow and invalid-value warnings around a study
    whose reported errors ``_finite_errors`` checks: a non-finite result
    is then named on its one stderr line instead."""
    return np.errstate(over="ignore", invalid="ignore")


def _out_dir(cfg) -> None:
    """Create the output directory before the study runs."""
    try:
        os.makedirs(cfg.out_dir, exist_ok=True)
    except OSError as err:
        raise xp.ConfigError(f"output.directory = {cfg.out_dir!r}: cannot "
                             f"create the directory: {err.strerror}") from None


def cmd_solve(args):
    ov = _overrides(args)
    cfg = xp.load_config(args.config, ov)
    delta, alpha, eps = args.delta, args.alpha, args.epsilon
    _check_solve_flags(delta, alpha, eps, cfg.geometry.eps_admissible)
    with _quiet_overflow():
        row = xp.rate_cell(cfg, xp.Workspace(cfg), delta, alpha, eps)
    if eps == 0.0:
        print(f"sharp solve: delta={delta:g} alpha={alpha:g} "
              f"u_err_sharp={row.u_err_sharp:.6e}")
        names = ("u_err_sharp",)
    else:
        print(f"diffuse solve: delta={delta:g} alpha={alpha:g} eps={eps:g} "
              f"iters={row.iterations} converged={row.converged}")
        print(f"  u_err_band={row.u_err_band:.6e} "
              f"v_err_band={row.v_err_band:.6e} "
              f"grad_err={row.grad_err:.6e} u_err_dual={row.u_err_dual:.6e}")
        names = ("u_err_band", "v_err_band", "grad_err", "u_err_dual")
    if _finite_errors((name, getattr(row, name)) for name in names):
        return 1
    return 0 if row.converged else 1


def cmd_table(args):
    cfg = xp.load_config(args.config, _overrides(args))
    _out_dir(cfg)
    with _quiet_overflow():
        res = xp.run_iteration_table(cfg)
    header = "eps\\alpha " + " ".join(f"{a:>8g}" for a in res.alphas)
    print(header)
    for i, eps in enumerate(res.epsilons):
        row = " ".join(f"{n:>8d}" for n in res.iterations[i])
        print(f"{eps:<9g} {row}")
    xp.emit_outputs(cfg.out_dir, cfg, table=res)
    print(f"outputs in {cfg.out_dir}/")
    # 0 iterations, not converged: MINRES's right-hand side is not finite
    stuck = np.argwhere((res.iterations == 0) & ~res.converged)
    if len(stuck):
        i, j = stuck[0]
        print(f"ddcauchy: table cell eps={res.epsilons[i]:g} "
              f"alpha={res.alphas[j]:g}: the right-hand side is not finite "
              f"(study.table_delta = {cfg.table_delta:g})", file=sys.stderr)
        return 1
    return 0 if res.converged.all() else 1


def cmd_rates(args):
    cfg = xp.load_config(args.config, _overrides(args, args.preset))
    _out_dir(cfg)
    ws = xp.Workspace(cfg)
    with _quiet_overflow():
        res = xp.run_rate_study(cfg, ws)
    errors = []
    for r in res.rows:
        err = r.u_err_sharp if r.epsilon == 0.0 else r.u_err_band
        print(f"delta={r.delta:<12g} alpha={r.alpha:<10g} eps={r.epsilon:<8g}"
              f" iters={r.iterations:<4d} u_err={err:.6e}")
        errors.append((f"u_err at delta={r.delta:g}", err))
    label = args.preset or "rates"
    u_fit, v_fit = res.u_fit, res.v_fit
    if u_fit.defined:
        print(f"u-slope {u_fit.slope:.3f} (r2={u_fit.r_squared:.3f})"
              + (f", v-slope {v_fit.slope:.3f}" if v_fit.defined else ""))
    else:
        print(f"u-slope undefined ({u_fit.n_points} points)")
    fixture = truth_fixture_csv(ws.truth, ws.sharp_solver)
    xp.emit_outputs(cfg.out_dir, cfg, rates={label: res}, truth_csv=fixture)
    print(f"outputs in {cfg.out_dir}/")
    if _finite_errors(errors):
        return 1
    return 0 if all(r.converged for r in res.rows) else 1


def cmd_spectrum(args):
    cfg = xp.load_config(args.config, _overrides(args))
    _out_dir(cfg)
    res = xp.run_spectrum_study(cfg)
    eigs = res.eigenvalues
    print(f"{len(eigs)} eigenvalues, range [{eigs.min():.4g}, "
          f"{eigs.max():.4g}], smallest |lambda| = {np.abs(eigs).min():.3e}")
    if res.bands:
        for key, val in res.bands.items():
            if key == "isolated":
                print(f"  isolated ({len(val)}): "
                      + " ".join(f"{v:.3e}" for v in val[:8]))
            else:
                print(f"  {key}: {val}")
    xp.emit_outputs(cfg.out_dir, cfg, spect=res)
    print(f"outputs in {cfg.out_dir}/")
    return 0


def cmd_verify(args):
    checks = run_verify()
    failed = 0
    for c in checks:
        mark = "PASS" if c.passed else "FAIL"
        print(f"[{mark}] {c.name}: {c.detail}")
        failed += 0 if c.passed else 1
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ddcauchy",
        description="Diffuse-domain Tikhonov solver for the annular "
                    "elliptic Cauchy problem")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one (delta, alpha, eps) triple")
    _common(p)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--epsilon", type=float, required=True,
                   help="0 selects the sharp reference mesh")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("table", help="iteration-count table")
    _common(p)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("rates", help="convergence-rate study")
    _common(p)
    p.add_argument("--preset", choices=sorted(xp.PRESETS), default=None)
    p.set_defaults(func=cmd_rates)

    p = sub.add_parser("spectrum", help="preconditioned spectrum study")
    _common(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("verify", help="analytic property suite")
    p.set_defaults(func=cmd_verify)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except xp.ConfigError as err:
        print(f"ddcauchy: config error: {err}", file=sys.stderr)
        return 2
    except FlagError as err:
        print(f"ddcauchy: {err}", file=sys.stderr)
        return 2
    except StageError as err:
        print(f"ddcauchy: {err.stage} error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
