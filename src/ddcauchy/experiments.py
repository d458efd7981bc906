"""Experiment harness: configuration, sweeps, rate fits, CSV emission.

Studies
-------
table     MINRES iteration counts over an (alpha, eps) grid at fixed delta
rates     noise sweep with alpha/eps schedules, error norms and log-log fits
spectrum  dense preconditioned spectrum on a coarse mesh, band detection
solve     one rate-study cell, at a given (delta, alpha, eps)

Configuration is a flat INI file with sections [geometry], [mesh],
[solver], [truth], [study], [output] and the keys of SCHEMA; every value
can be overridden from the command line, and an unknown key or unusable
value raises ConfigError at load, before anything is built.  The file
is echoed verbatim into the output directory and every result row
carries its full parameter tuple, so runs are reproducible
byte-for-byte from (config, seed).

The named presets "fig7" and "fig8" pin the reference schedule constants
(alpha = delta/2 with eps = 0.25 delta^nu, and alpha = 2 delta^(2/3) with
eps in {35 delta^(2/3), 10 delta^(1/2), 2.8 delta^(1/3), 0}).  The fig8
eps-rules exceed the admissible band width for moderate delta, so that
preset uses a smaller delta range than fig7.
"""

from __future__ import annotations

import configparser
import io
import os
from dataclasses import dataclass, field, make_dataclass

import numpy as np

from .assembly import OperatorSet
from .geometry import AnnulusGeometry, ConductivityTensor, PhaseField
from .harmonics import AngularSeries, GroundTruth, synthesize_truth
from .inversion import (SharpSolver, add_noise, diffuse_tikhonov,
                        diffuse_tikhonov_alphas, error_norms, extend_data,
                        sharp_error)
from .mesh import (MAX_BAND_LEVELS, MAX_VERTICES, SHARP_MIN_ANGULAR,
                   SHARP_MIN_RADIAL, background_vertices, build_background,
                   levels_for, refine_band)
from .saddle import build_system, detect_bands, spectrum


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


class ConfigError(ValueError):
    """Unknown or unusable configuration; the message names the key."""


def _finite(text: str) -> float:
    """The one float parser of the config: rejects nan and +-inf."""
    value = float(text)
    if not np.isfinite(value):
        raise ValueError("must be a finite number")
    return value


def _floats(text: str) -> list:
    return [_finite(p) for p in text.split(",") if p.strip()]


def _series(text: str) -> AngularSeries:
    """Comma-separated kind:wavenumber:coefficient terms."""
    terms = []
    for piece in filter(None, (p.strip() for p in text.split(","))):
        parts = piece.split(":")
        if len(parts) != 3:
            raise ValueError(f"term {piece!r} is not kind:wavenumber:coef")
        kind, k, coef = parts
        terms.append((kind.strip(), int(k), _finite(coef)))
    return AngularSeries.of(*terms)


def _require(test, what: str):
    def check(value):
        if not test(value):
            raise ValueError(f"must be {what}")
    return check


def _at_least(low):
    return _require(lambda n: n >= low, f">= {low}")


_POSITIVE = _require(lambda x: x > 0.0, "> 0")
_NONNEGATIVE = _require(lambda x: x >= 0.0, ">= 0")
_NONEMPTY = _require(len, "a non-empty list")
_POSITIVE_LIST = _require(lambda xs: len(xs) and all(x > 0.0 for x in xs),
                          "a non-empty list of values > 0")

# One row per settable key: (dotted key, attribute, parser, default, check).
# The INI defaults, the ExperimentConfig fields and the typing done by
# load_config all come from this table.
SCHEMA = (
    ("geometry.r_inner", "r_inner", _finite, "0.3", None),
    ("geometry.r_outer", "r_outer", _finite, "1.0", None),
    ("geometry.split_radius", "split_radius", _finite, "0.65", None),
    ("geometry.sigma_t", "sigma_t", _finite, "1.0", None),
    ("geometry.sigma_r", "sigma_r", _finite, "0.3", None),
    ("mesh.h0", "h0", _finite, "0.1", _POSITIVE),
    ("mesh.max_levels", "max_levels", int, str(MAX_BAND_LEVELS),
     _at_least(0)),
    ("mesh.sharp_n_angular", "sharp_n_angular", int, "192",
     _at_least(SHARP_MIN_ANGULAR)),
    ("mesh.sharp_n_radial", "sharp_n_radial", int, "48",
     _at_least(SHARP_MIN_RADIAL)),
    ("solver.rho", "rho", _finite, "1e-10",
     _require(lambda x: 0.0 < x < 1.0, "in (0, 1)")),
    ("solver.max_iter", "max_iter", int, "2000", _at_least(1)),
    ("solver.dense_cap", "dense_cap", int, "4000", _at_least(1)),
    # source density on the outer boundary, scaled by the amplitude
    ("truth.series", "series", _series, "cos:2:1.0, sin:3:0.5", None),
    ("truth.amplitude", "amplitude", _finite, "1.0", None),
    ("study.kind", "study_kind", str, "rates", None),
    # table study
    ("study.alphas", "alphas", _floats, "1.0, 0.1, 0.01, 0.001, 0.0001",
     _POSITIVE_LIST),
    ("study.epsilons", "epsilons", _floats,
     "0.25, 0.125, 0.0625, 0.03125, 0.015625", _NONEMPTY),
    ("study.table_delta", "table_delta", _finite, "0.001", _NONNEGATIVE),
    # rate study: alpha = alpha_coef * delta^alpha_exp, same for eps;
    # eps_coef = 0 selects the sharp mesh
    ("study.deltas", "deltas", _floats,
     "0.0625, 0.03125, 0.015625, 0.0078125, 0.00390625, 0.001953125, "
     "0.0009765625", _POSITIVE_LIST),
    ("study.alpha_coef", "alpha_coef", _finite, "0.5", _POSITIVE),
    ("study.alpha_exp", "alpha_exp", _finite, "1.0", None),
    ("study.eps_coef", "eps_coef", _finite, "0.25", _NONNEGATIVE),
    ("study.eps_exp", "eps_exp", _finite, "0.5", None),
    # spectrum study; alpha = 0 is the zero-alpha spectrum
    ("study.alpha", "spec_alpha", _finite, "1e-4", _NONNEGATIVE),
    ("study.epsilon", "spec_epsilon", _finite, "0.125", None),
    ("study.spectrum_h0", "spectrum_h0", _finite, "0.08", _POSITIVE),
    ("output.directory", "out_dir", str, "out", None),
    ("output.seed", "seed", int, "1234", _at_least(0)),
)

ExperimentConfig = make_dataclass(
    "ExperimentConfig",
    [row[1] for row in SCHEMA]
    + ["geometry", "tensor", "truth", "raw_text"],
    namespace={"__doc__": "Typed view of the INI configuration: one field "
               "per SCHEMA row, the objects built from them and the echo."})


def load_config(path: str = None, overrides: dict = None) -> ExperimentConfig:
    """Read an INI file (optional), apply key=value overrides, and type it.

    Overrides use dotted keys, e.g. {"study.kind": "table"}.  Flag values
    take precedence over the file, which takes precedence over defaults.
    Values are literal text (no %-interpolation).  Raises ConfigError for
    an unreadable file, an unknown key or an unusable value.
    """
    known = {row[0] for row in SCHEMA}
    parser = configparser.ConfigParser(interpolation=None)
    for key, _, _, default, _ in SCHEMA:
        section, option = key.split(".")
        parser.read_dict({section: {option: default}})
    sections = parser.sections()
    if path is not None:
        try:
            with open(path) as fh:
                parser.read_file(fh)
        except (OSError, configparser.Error) as err:
            detail = " ".join(str(err).split())  # one line for the CLI
            raise ConfigError(f"{path}: cannot read config: {detail}") from None
    for section in parser.sections():
        for option in parser[section]:
            if f"{section}.{option}" not in known:
                raise ConfigError(f"{section}.{option}: unknown config key")
        if section not in sections:
            raise ConfigError(f"[{section}]: unknown config section")
    for key, value in (overrides or {}).items():
        section, _, option = key.partition(".")
        if f"{section}.{parser.optionxform(option)}" not in known:
            raise ConfigError(f"{key}: unknown config key")
        parser.set(section, option, str(value))
    echo = io.StringIO()
    parser.write(echo)

    values = {}
    for key, attr, parse, _, check in SCHEMA:
        text = parser.get(*key.split("."))
        try:
            values[attr] = parse(text)
            if check is not None:
                check(values[attr])
        except ValueError as err:
            raise ConfigError(f"{key} = {text!r}: {err}") from None
    for keys, mesh, vertices in (
            ("mesh.h0", "background", background_vertices(values["h0"])),
            ("study.spectrum_h0", "spectrum",
             background_vertices(values["spectrum_h0"])),
            ("mesh.sharp_n_angular, mesh.sharp_n_radial", "sharp",
             values["sharp_n_angular"] * (values["sharp_n_radial"] + 1))):
        if vertices > MAX_VERTICES:
            raise ConfigError(f"{keys}: the {mesh} mesh would have "
                              f"{vertices:.0f} vertices, more than "
                              f"{MAX_VERTICES}")
    try:
        geometry = AnnulusGeometry(values["r_inner"], values["r_outer"],
                                   values["split_radius"])
    except ValueError as err:
        raise ConfigError(f"geometry.r_inner, geometry.split_radius, "
                          f"geometry.r_outer: {err}") from None
    cap = geometry.eps_admissible
    for key, eps in (("study.epsilons", values["epsilons"]),
                     ("study.epsilon", [values["spec_epsilon"]])):
        if not all(0.0 < e <= cap for e in eps):
            raise ConfigError(f"{key} = {parser.get(*key.split('.'))!r}: "
                              f"must lie in (0, {cap:g}], the admissible "
                              f"band width of the geometry")
    try:
        tensor = ConductivityTensor(values["sigma_t"], values["sigma_r"])
    except ValueError as err:
        raise ConfigError(f"geometry.sigma_t, geometry.sigma_r: "
                          f"{err}") from None
    series = values["series"].scaled(values["amplitude"])
    cfg = ExperimentConfig(
        **values, geometry=geometry, tensor=tensor,
        truth=_ground_truth(geometry, tensor, series),
        raw_text=echo.getvalue())
    _check_schedule(cfg)
    return cfg


def _ground_truth(geometry: AnnulusGeometry, tensor: ConductivityTensor,
                  series: AngularSeries) -> GroundTruth:
    """The closed-form ground truth of the config.  Raises ConfigError if
    its separable modes overflow or leave a series coefficient that is not
    finite."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            truth = synthesize_truth(geometry, tensor, series)
        finite = all(np.isfinite(t.coef) for s in (truth.w, truth.u_series,
                                                    truth.f_series)
                     for t in s.terms)
    except ArithmeticError:
        finite = False
    if not finite:
        raise ConfigError("geometry.sigma_t, geometry.sigma_r, truth.series, "
                          "truth.amplitude: the separable modes of the "
                          "ground truth are not finite in floating point")
    return truth


def _check_schedule(cfg: ExperimentConfig) -> None:
    """Every configured delta must give alpha finite and > 0 and, unless
    eps_coef = 0 selects the sharp mesh, eps in (0, eps_admissible]."""
    cap = cfg.geometry.eps_admissible
    need = "alpha finite and > 0" + (
        f" and eps in (0, {cap:g}]" if cfg.eps_coef > 0.0 else "")
    for delta in cfg.deltas:
        try:
            alpha, eps = _schedule(cfg, delta)
            ok = 0.0 < alpha < np.inf and (cfg.eps_coef == 0.0
                                           or 0.0 < eps <= cap)
            got = f"alpha = {alpha:g}, eps = {eps:g}"
        except OverflowError:
            ok, got = False, "an overflow"
        if not ok:
            raise ConfigError(
                f"study.deltas, study.alpha_coef, study.alpha_exp, "
                f"study.eps_coef, study.eps_exp: delta = {delta:g} gives "
                f"{got}; the schedule needs {need}")


# Reference schedule constants for the two named rate studies.  The fig8
# rules need smaller noise levels to keep eps admissible (35 delta^(2/3)
# < 0.25 requires delta < 2^-10.7), hence the shifted delta range.
PRESETS = {
    "fig7": {
        "study.alpha_coef": "0.5", "study.alpha_exp": "1.0",
        "study.eps_coef": "0.25", "study.eps_exp": "0.5",
        "study.deltas": ("0.0625, 0.03125, 0.015625, 0.0078125, "
                         "0.00390625, 0.001953125, 0.0009765625"),
        "truth.series": "cos:1:1.0, cos:2:0.6, sin:3:0.4",
        "truth.amplitude": "7.0",
    },
    "fig8": {
        "study.alpha_coef": "2.0", "study.alpha_exp": "0.6666666666666666",
        "study.eps_coef": "35.0", "study.eps_exp": "0.6666666666666666",
        "study.deltas": ("0.00048828125, 0.000244140625, 0.0001220703125, "
                         "6.103515625e-05, 3.0517578125e-05, "
                         "1.52587890625e-05"),
        "truth.series": "cos:1:1.0, cos:2:0.1, sin:3:0.3",
        "truth.amplitude": "7.0",
    },
}


def apply_preset(name: str, overrides: dict = None) -> dict:
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from "
                         f"{sorted(PRESETS)}")
    merged = dict(PRESETS[name])
    merged.update(overrides or {})
    return merged


# ---------------------------------------------------------------------------
# Shared machinery
# ---------------------------------------------------------------------------


@dataclass
class Workspace:
    """What the cells of a study share: the background mesh, the sharp
    solver (built from the polar grid: it holds the two boundary rings'
    node sets, angles and edge masses, and builds the annulus mesh and
    operator set only for a forward or adjoint solve, which no study
    makes) and the config's ground truth.

    Operator sets are built per ``diffuse_ops`` call and not kept: every
    study asks for each eps once, and a caller solving several alphas on
    one eps keeps its own operator set.
    """

    cfg: ExperimentConfig
    background: object = field(init=False)
    sharp_solver: SharpSolver = field(init=False)
    truth: GroundTruth = field(init=False)

    def __post_init__(self):
        cfg = self.cfg
        self.background = build_background(cfg.h0)
        self.sharp_solver = SharpSolver(cfg.geometry, cfg.tensor,
                                        cfg.sharp_n_angular,
                                        cfg.sharp_n_radial)
        self.truth = cfg.truth

    def diffuse_ops(self, eps: float) -> OperatorSet:
        """The diffuse operator set at eps on the band-refined background."""
        cfg = self.cfg
        pf = PhaseField(cfg.geometry, eps)
        mesh = refine_band(self.background, pf,
                           levels_for(eps, cfg.h0, cfg.max_levels))
        return OperatorSet.build(mesh, pf, cfg.tensor)

    def noisy_data(self, delta: float):
        """f_delta on the sharp outer boundary for the configured seed."""
        solver = self.sharp_solver
        f_dag = self.truth.f_series(solver.outer_angles)
        return add_noise(f_dag, delta, self.cfg.seed, solver.t_oo)


# ---------------------------------------------------------------------------
# Rate fitting
# ---------------------------------------------------------------------------


@dataclass
class RateFit:
    slope: float
    intercept: float
    r_squared: float
    n_points: int

    @property
    def defined(self) -> bool:
        return self.n_points >= 2


def fit_loglog_slope(points) -> RateFit:
    """Ordinary least squares on (log delta, log error).

    ``points`` is a sequence of (delta, error) pairs.  Nonpositive values
    are rejected.
    """
    pts = [(float(d), float(e)) for d, e in points]
    if any(d <= 0.0 or e <= 0.0 for d, e in pts):
        raise ValueError("log-log fit requires positive deltas and errors")
    if len(pts) < 2:
        return RateFit(float("nan"), float("nan"), float("nan"), len(pts))
    x = np.log([d for d, _ in pts])
    y = np.log([e for _, e in pts])
    a = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(a, y, rcond=None)
    resid = y - a @ coef
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - float((resid ** 2).sum()) / ss_tot if ss_tot > 0 else 1.0
    return RateFit(float(coef[0]), float(coef[1]), r2, len(pts))


# ---------------------------------------------------------------------------
# Studies
# ---------------------------------------------------------------------------


@dataclass
class TableResult:
    alphas: list
    epsilons: list
    iterations: np.ndarray       # (n_eps, n_alpha)
    converged: np.ndarray        # bool, same shape
    residual_histories: dict     # (eps, alpha) -> list


def run_iteration_table(cfg: ExperimentConfig,
                        ws: Workspace = None) -> TableResult:
    """One diffuse solve per (alpha, eps) cell; counts laid out with eps
    rows and alpha columns, like the reference iteration table.

    The alphas of one eps row share its operator set, data and Riesz
    factors and are solved together (``diffuse_tikhonov_alphas``); a
    row's operator set and solutions are dropped before the next row's
    operator set is built.
    """
    ws = ws or Workspace(cfg)
    iters = np.zeros((len(cfg.epsilons), len(cfg.alphas)), dtype=int)
    conv = np.zeros_like(iters, dtype=bool)
    hist = {}
    f_del = ws.noisy_data(cfg.table_delta)
    for i, eps in enumerate(cfg.epsilons):
        ops = ws.diffuse_ops(eps)
        f_tilde = extend_data(f_del, ws.sharp_solver.outer_angles, ops)
        sols = diffuse_tikhonov_alphas(ops, cfg.alphas, f_tilde,
                                       rho=cfg.rho, max_iter=cfg.max_iter)
        for j, (alpha, sol) in enumerate(zip(cfg.alphas, sols)):
            iters[i, j] = sol.report.iterations
            conv[i, j] = sol.report.converged
            hist[(eps, alpha)] = sol.report.residual_history
        del ops, sols
    return TableResult(list(cfg.alphas), list(cfg.epsilons), iters, conv,
                       hist)


@dataclass
class RateRow:
    delta: float
    alpha: float
    epsilon: float       # 0 encodes the sharp mesh
    iterations: int
    converged: bool
    u_err_band: float
    v_err_band: float
    grad_err: float
    u_err_dual: float
    u_err_sharp: float


@dataclass
class RateResult:
    rows: list
    u_fit: RateFit
    v_fit: RateFit


def _schedule(cfg: ExperimentConfig, delta: float):
    """(alpha, eps) of the rate study at one delta; eps is 0 when
    eps_coef = 0 selects the sharp mesh."""
    alpha = cfg.alpha_coef * delta ** cfg.alpha_exp
    eps = cfg.eps_coef * delta ** cfg.eps_exp if cfg.eps_coef > 0.0 else 0.0
    return alpha, eps


def rate_cell(cfg: ExperimentConfig, ws: Workspace, delta: float,
              alpha: float, eps: float) -> RateRow:
    """One cell of a rate study: the noisy data at delta, the Tikhonov
    solve at (alpha, eps) and its errors.  eps = 0 solves the sharp
    reference and reports only u_err_sharp; a diffuse cell reports the
    band and dual norms, with u_err_sharp nan."""
    nan = float("nan")
    f_del = ws.noisy_data(delta)
    if eps == 0.0:
        u = ws.sharp_solver.tikhonov(alpha, f_del)
        err_sharp = sharp_error(u, ws.sharp_solver, ws.truth)
        return RateRow(delta, alpha, 0.0, 0, True, nan, nan, nan, nan,
                       err_sharp)
    ops = ws.diffuse_ops(eps)
    f_tilde = extend_data(f_del, ws.sharp_solver.outer_angles, ops)
    sol = diffuse_tikhonov(ops, alpha, f_tilde, rho=cfg.rho,
                           max_iter=cfg.max_iter)
    norms = error_norms(sol, ws.truth, ops)
    return RateRow(delta, alpha, eps, sol.report.iterations,
                   sol.report.converged, norms.u_err_band, norms.v_err_band,
                   norms.grad_err, norms.u_err_dual, nan)


def run_rate_study(cfg: ExperimentConfig, ws: Workspace = None) -> RateResult:
    """Noise sweep under the configured (alpha, eps) schedules.

    eps_coef = 0 runs the sharp reference instead of the diffuse solver;
    the u-fit then uses the sharp L2 control error.
    """
    ws = ws or Workspace(cfg)
    rows = [rate_cell(cfg, ws, delta, *_schedule(cfg, delta))
            for delta in cfg.deltas]
    if cfg.eps_coef == 0.0:
        u_fit = fit_loglog_slope([(r.delta, r.u_err_sharp) for r in rows])
        v_fit = fit_loglog_slope([])
    else:
        u_fit = fit_loglog_slope([(r.delta, r.u_err_band) for r in rows])
        v_fit = fit_loglog_slope([(r.delta, r.v_err_band) for r in rows])
    return RateResult(rows, u_fit, v_fit)


@dataclass
class SpectrumResult:
    eigenvalues: np.ndarray
    bands: dict
    alpha: float
    epsilon: float
    size: int            # order of the KKT system


def run_spectrum_study(cfg: ExperimentConfig) -> SpectrumResult:
    """Dense preconditioned spectrum on a dedicated coarse mesh.  The size
    is known only after assembly, so ``solver.dense_cap`` is checked here,
    before any dense array exists; ``saddle.spectrum`` does not check it
    again."""
    pf = PhaseField(cfg.geometry, cfg.spec_epsilon)
    mesh = build_background(cfg.spectrum_h0)
    ops = OperatorSet.build(mesh, pf, cfg.tensor)
    system = build_system(ops, cfg.spec_alpha, np.zeros(mesh.num_vertices))
    if system.size > cfg.dense_cap:
        raise ConfigError(f"study.spectrum_h0, solver.dense_cap: the "
                          f"spectrum system has {system.size} unknowns, "
                          f"more than the dense cap {cfg.dense_cap}")
    eigs = spectrum(system)
    bands = (detect_bands(eigs, cfg.spec_alpha) if cfg.spec_alpha > 0.0
             else {})
    return SpectrumResult(eigs, bands, cfg.spec_alpha, cfg.spec_epsilon,
                          system.size)


# ---------------------------------------------------------------------------
# Output emission
# ---------------------------------------------------------------------------


def _fmt(x) -> str:
    """Shortest round-trip decimal; deterministic across runs."""
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)
    except OSError as err:
        raise OSError(f"cannot write {path}: {err}") from err


def emit_outputs(out_dir: str, cfg: ExperimentConfig, table: TableResult = None,
                 rates: dict = None, spect: SpectrumResult = None,
                 truth_csv: str = None) -> list:
    """Write the CSVs of the given results, the verbatim config echo and
    the plot script; a result not given writes no file.

    ``rates`` maps a schedule label to a RateResult so several schedules
    can share one rates.csv.  Returns the list of paths written.
    """
    os.makedirs(out_dir, exist_ok=True)
    written = []

    def emit(name, text):
        path = os.path.join(out_dir, name)
        _write(path, text)
        written.append(path)

    emit("config.echo", cfg.raw_text)
    if truth_csv is not None:
        emit("truth.csv", truth_csv)

    if rates:
        lines = ["schedule,delta,alpha,epsilon,h0,levels,rho,seed,iters,"
                 "converged,u_err_band,v_err_band,grad_err,u_err_dual,"
                 "u_err_sharp"]
        for label in sorted(rates):
            res = rates[label]
            for r in sorted(res.rows, key=lambda r: (-r.delta, r.epsilon)):
                lev = (levels_for(r.epsilon, cfg.h0, cfg.max_levels)
                       if r.epsilon > 0 else 0)
                lines.append(",".join([
                    label, _fmt(r.delta), _fmt(r.alpha), _fmt(r.epsilon),
                    _fmt(cfg.h0), _fmt(lev), _fmt(cfg.rho), _fmt(cfg.seed),
                    _fmt(r.iterations), _fmt(r.converged),
                    _fmt(r.u_err_band), _fmt(r.v_err_band), _fmt(r.grad_err),
                    _fmt(r.u_err_dual), _fmt(r.u_err_sharp)]))
        emit("rates.csv", "\n".join(lines) + "\n")

    if table is not None:
        lines = [",".join(["eps\\alpha"] + [_fmt(a) for a in table.alphas])]
        for i, eps in enumerate(table.epsilons):
            row = [_fmt(eps)] + [str(int(n)) for n in table.iterations[i]]
            lines.append(",".join(row))
        for i, j in np.argwhere(~table.converged):
            lines.append(f"# not converged: eps={_fmt(table.epsilons[i])} "
                         f"alpha={_fmt(table.alphas[j])}")
        emit("table.csv", "\n".join(lines) + "\n")

        lines = ["context,iteration,residual"]
        for (eps, alpha) in sorted(table.residual_histories):
            hist = table.residual_histories[(eps, alpha)]
            ctx = f"eps={_fmt(eps)};alpha={_fmt(alpha)}"
            for it, r in enumerate(hist, start=1):
                lines.append(f"{ctx},{it},{_fmt(r)}")
        emit("residuals.csv", "\n".join(lines) + "\n")

    if spect is not None:
        lines = ["index,eigenvalue"]
        for key in sorted(spect.bands):
            val = spect.bands[key]
            if isinstance(val, (list, tuple)):
                text = " ".join(_fmt(x) for x in val)
            else:
                text = "none" if val is None else _fmt(val)
            lines.append(f"# band {key}: {text}")
        lines.append(f"# alpha {_fmt(spect.alpha)} epsilon "
                     f"{_fmt(spect.epsilon)} size {spect.size}")
        for i, v in enumerate(spect.eigenvalues):
            lines.append(f"{i},{_fmt(v)}")
        emit("spectrum.csv", "\n".join(lines) + "\n")

    emit("plot_results.py", _plot_script())
    return written


def _plot_script() -> str:
    """Self-contained matplotlib script for the emitted CSVs."""
    return '''#!/usr/bin/env python3
"""Plot rate curves (with reference slopes 1/2 and 2/3) and the spectrum.

Reads rates.csv and spectrum.csv from this directory, when present;
writes rates.png and spectrum.png next to them.  Only needs numpy +
matplotlib.
"""
import csv
import os

import matplotlib
matplotlib.use("Agg")
import matplotlib.pyplot as plt
import numpy as np

here = os.path.dirname(os.path.abspath(__file__))


def read_csv(name):
    """Records of one CSV (comment lines skipped); none if it is absent."""
    path = os.path.join(here, name)
    if not os.path.exists(path):
        return []
    with open(path) as fh:
        return list(csv.DictReader(ln for ln in fh if not ln.startswith("#")))


rows = read_csv("rates.csv")
if rows:
    fig, ax = plt.subplots(figsize=(6, 5))
    labels = sorted({r["schedule"] for r in rows})
    for label in labels:
        sel = [r for r in rows if r["schedule"] == label]
        d = np.array([float(r["delta"]) for r in sel])
        key = "u_err_sharp" if float(sel[0]["epsilon"]) == 0 else "u_err_band"
        e = np.array([float(r[key]) for r in sel])
        ax.loglog(d, e, "o-", label=label)
    d = np.array(sorted({float(r["delta"]) for r in rows}))
    tops = [float(r["u_err_band"]) for r in rows
            if r["u_err_band"] not in ("", "nan")]
    tops += [float(r["u_err_sharp"]) for r in rows
             if r["u_err_sharp"] not in ("", "nan")]
    top = max(tops)
    ax.loglog(d, top * (d / d.max()) ** 0.5, "k--", lw=0.8,
              label="slope 1/2")
    ax.loglog(d, top * (d / d.max()) ** (2.0 / 3.0), "k:", lw=0.8,
              label="slope 2/3")
    ax.set_xlabel("noise level")
    ax.set_ylabel("control error")
    ax.grid(True, which="both", alpha=0.3)
    ax.legend()
    fig.savefig(os.path.join(here, "rates.png"), bbox_inches="tight")

eigs = np.array([float(rec["eigenvalue"]) for rec in read_csv("spectrum.csv")])
if len(eigs):
    fig, ax = plt.subplots(figsize=(6, 4))
    ax.semilogy(np.arange(len(eigs)), np.abs(eigs), ".", ms=3)
    ax.set_xlabel("index")
    ax.set_ylabel("|eigenvalue|")
    ax.grid(True, alpha=0.3)
    fig.savefig(os.path.join(here, "spectrum.png"), bbox_inches="tight")
'''
