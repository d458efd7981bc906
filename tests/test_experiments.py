import os
import re

import numpy as np
import pytest

from ddcauchy import experiments as xp


def test_fit_loglog_examples():
    assert xp.fit_loglog_slope([(1.0, 1.0), (0.1, 0.1)]).slope == \
        pytest.approx(1.0, abs=1e-12)
    assert xp.fit_loglog_slope([(1.0, 1.0), (0.01, 0.1)]).slope == \
        pytest.approx(0.5, abs=1e-12)
    deltas = [0.5 ** k for k in range(5)]
    pts = [(d, 3.0 * d ** (2.0 / 3.0)) for d in deltas]
    fit = xp.fit_loglog_slope(pts)
    assert fit.slope == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.intercept == pytest.approx(np.log(3.0), abs=1e-12)


def test_fit_loglog_window_and_errors():
    pts = [(1.0, 1.0), (0.1, 0.2), (0.01, 0.04)]
    fit = xp.fit_loglog_slope(pts, window=(0.005, 0.5))
    assert fit.n_points == 2
    with pytest.raises(ValueError):
        xp.fit_loglog_slope([(1.0, 0.0), (0.1, 1.0)])
    degenerate = xp.fit_loglog_slope([(1.0, 1.0)])
    assert not degenerate.defined


def test_config_defaults_and_overrides(tmp_path):
    cfg = xp.load_config()
    assert cfg.h0 == 0.1
    assert cfg.rho == 1e-10
    assert cfg.geometry.r_inner == 0.3
    path = tmp_path / "exp.ini"
    path.write_text("[mesh]\nh0 = 0.2\n[study]\nkind = table\n")
    cfg = xp.load_config(str(path), {"solver.rho": "1e-8"})
    assert cfg.h0 == 0.2
    assert cfg.study_kind == "table"
    assert cfg.rho == 1e-8
    assert "h0 = 0.2" in cfg.raw_text
    cfg = xp.load_config(overrides={"output.directory": "50%"})
    assert cfg.out_dir == "50%"


@pytest.mark.parametrize("ini, overrides, key", [
    ("[mesh]\nhO = 0.3\n", {}, "mesh.ho"),
    ("[bogus]\n", {}, "bogus"),
    (None, {"mesh.hO": "0.3"}, "mesh.hO"),
    (None, {"bogus.key": "1"}, "bogus.key"),
    (None, {"solver.max_iter": "abc"}, "solver.max_iter"),
    (None, {"study.deltas": "0.1,x"}, "study.deltas"),
    (None, {"truth.series": "cos:2"}, "truth.series"),
    (None, {"truth.series": "tan:2:1.0"}, "truth.series"),
    (None, {"solver.mode": "jacobi"}, "solver.mode"),
    (None, {"solver.rho": "1.0"}, "solver.rho"),
    (None, {"solver.rho": "0"}, "solver.rho"),
    (None, {"mesh.h0": "0"}, "mesh.h0"),
    (None, {"study.spectrum_h0": "-0.08"}, "study.spectrum_h0"),
    (None, {"study.deltas": ""}, "study.deltas"),
    (None, {"study.alphas": " , "}, "study.alphas"),
    (None, {"study.epsilons": ""}, "study.epsilons"),
    (None, {"geometry.r_inner": "0.9"}, "geometry.r_inner"),
    (None, {"geometry.sigma_r": "0"}, "geometry.sigma_r"),
    (None, {"mesh.quad_degree": "9"}, "mesh.quad_degree"),
    (None, {"mesh.subdivision": "0"}, "mesh.subdivision"),
    (None, {"mesh.max_levels": "-1"}, "mesh.max_levels"),
    (None, {"mesh.sharp_n_angular": "4"}, "mesh.sharp_n_angular"),
    (None, {"mesh.sharp_n_radial": "0"}, "mesh.sharp_n_radial"),
    (None, {"output.seed": "-1"}, "output.seed"),
    # values are literal text, so a '%' fails to parse like any other
    # stray character
    ("[mesh]\nh0 = 10%\n", {}, "mesh.h0"),
    (None, {"output.seed": "50%"}, "output.seed"),
    ("h0 = 0.3\n", {}, "bad.ini"),
    ("MISSING", {}, "missing.ini"),
])
def test_bad_config_names_key(tmp_path, ini, overrides, key):
    path = None
    if ini == "MISSING":
        path = tmp_path / "missing.ini"
    elif ini is not None:
        path = tmp_path / "bad.ini"
        path.write_text(ini)
    with pytest.raises(xp.ConfigError, match=re.escape(key)):
        xp.load_config(path and str(path), overrides)


def test_truth_series_parsing():
    cfg = xp.load_config(overrides={
        "truth.series": "cos:1:2.0, sin:4:-0.5", "truth.amplitude": "3.0"})
    terms = {(t.kind, t.k): t.coef for t in cfg.truth_series.terms}
    assert terms[("cos", 1)] == pytest.approx(6.0)
    assert terms[("sin", 4)] == pytest.approx(-1.5)


def test_presets():
    ov = xp.apply_preset("fig7")
    assert ov["study.alpha_coef"] == "0.5"
    ov = xp.apply_preset("fig8", {"study.eps_coef": "0"})
    assert ov["study.eps_coef"] == "0"
    with pytest.raises(ValueError):
        xp.apply_preset("fig9")


def test_levels_for():
    assert xp.levels_for(0.25, 0.1, 6) == 0
    assert xp.levels_for(0.015625, 0.1, 6) == 3
    assert xp.levels_for(0.015625, 0.1, 2) == 2
    assert xp.levels_for(0.1, 0.1, 6) == 0


def test_single_cell_table_and_emit(tmp_path):
    cfg = xp.load_config(overrides={
        "study.kind": "table", "study.alphas": "0.1",
        "study.epsilons": "0.125", "mesh.h0": "0.2",
        "mesh.sharp_n_angular": "32", "mesh.sharp_n_radial": "8",
        "output.directory": str(tmp_path / "out")})
    ws = xp.Workspace(cfg)
    res = xp.run_iteration_table(cfg, ws)
    assert res.iterations.shape == (1, 1)
    assert res.converged.all()
    files = xp.emit_outputs(cfg.out_dir, cfg, table=res)
    names = {os.path.basename(f) for f in files}
    assert names == {"config.echo", "rates.csv", "table.csv",
                     "spectrum.csv", "residuals.csv", "plot_results.py"}
    table = open(os.path.join(cfg.out_dir, "table.csv")).read()
    assert table.splitlines()[0] == "eps\\alpha,0.1"
    # residual history rows carry the (eps, alpha) context
    res_lines = open(os.path.join(cfg.out_dir, "residuals.csv")).read()
    assert res_lines.splitlines()[0] == "context,iteration,residual"
    assert "eps=0.125;alpha=0.1" in res_lines
    # config echoed verbatim
    echo = open(os.path.join(cfg.out_dir, "config.echo")).read()
    assert echo == cfg.raw_text


def test_table_factors_riesz_blocks_once_per_eps_row(monkeypatch):
    from ddcauchy.saddle import RieszPreconditioner

    factored = []
    original = RieszPreconditioner.__post_init__

    def counting(prec):
        factored.append(prec.system.ops)
        original(prec)

    monkeypatch.setattr(RieszPreconditioner, "__post_init__", counting)
    cfg = xp.load_config(overrides={
        "study.kind": "table", "study.alphas": "1.0, 0.1, 0.01",
        "study.epsilons": "0.25, 0.125", "mesh.h0": "0.2",
        "mesh.sharp_n_angular": "32", "mesh.sharp_n_radial": "8"})
    res = xp.run_iteration_table(cfg, xp.Workspace(cfg))
    assert res.converged.all()
    assert len(factored) == 2
    assert len({id(ops) for ops in factored}) == 2


def test_emit_empty_results(tmp_path):
    cfg = xp.load_config(overrides={"output.directory": str(tmp_path)})
    xp.emit_outputs(str(tmp_path), cfg)
    for name in ("rates.csv", "table.csv", "spectrum.csv", "residuals.csv"):
        lines = open(os.path.join(tmp_path, name)).read().splitlines()
        assert len(lines) == 1  # headers only


def test_rates_csv_schema_and_determinism(tmp_path):
    overrides = {
        "study.kind": "rates", "study.deltas": "0.0625, 0.03125",
        "study.alpha_coef": "0.5", "study.alpha_exp": "1.0",
        "study.eps_coef": "0.25", "study.eps_exp": "0.5",
        "mesh.h0": "0.2", "mesh.sharp_n_angular": "48",
        "mesh.sharp_n_radial": "12",
        "output.directory": str(tmp_path / "a")}
    cfg = xp.load_config(overrides=overrides)
    res = xp.run_rate_study(cfg)
    files = xp.emit_outputs(cfg.out_dir, cfg, rates={"fig7": res})
    header = open(os.path.join(cfg.out_dir, "rates.csv")).readline().strip()
    assert header.split(",") == [
        "schedule", "delta", "alpha", "epsilon", "h0", "levels", "rho",
        "mode", "seed", "iters", "converged", "u_err_band", "v_err_band",
        "grad_err", "u_err_dual", "u_err_sharp"]
    # byte-identical rerun
    overrides["output.directory"] = str(tmp_path / "b")
    cfg2 = xp.load_config(overrides=overrides)
    res2 = xp.run_rate_study(cfg2)
    xp.emit_outputs(cfg2.out_dir, cfg2, rates={"fig7": res2})
    a = open(os.path.join(str(tmp_path / "a"), "rates.csv"), "rb").read()
    b = open(os.path.join(str(tmp_path / "b"), "rates.csv"), "rb").read()
    assert a == b


def test_rate_study_sharp_mode():
    cfg = xp.load_config(overrides={
        "study.kind": "rates", "study.deltas": "0.01, 0.005",
        "study.eps_coef": "0.0", "study.eps_exp": "0.0",
        "mesh.sharp_n_angular": "48", "mesh.sharp_n_radial": "12"})
    res = xp.run_rate_study(cfg)
    assert all(np.isfinite(r.u_err_sharp) for r in res.rows)
    assert all(r.epsilon == 0.0 for r in res.rows)
    assert res.u_fit.defined
    assert not res.v_fit.defined


def test_rate_study_rejects_inadmissible_eps():
    cfg = xp.load_config(overrides={
        "study.kind": "rates", "study.deltas": "0.0625",
        "study.eps_coef": "35.0", "study.eps_exp": "0.6666666666666666",
        "mesh.sharp_n_angular": "48", "mesh.sharp_n_radial": "12"})
    with pytest.raises(ValueError):
        xp.run_rate_study(cfg)


def test_spectrum_study_smoke():
    cfg = xp.load_config(overrides={
        "study.kind": "spectrum", "study.alpha": "1e-3",
        "study.epsilon": "0.125", "study.spectrum_h0": "0.25",
        "mesh.sharp_n_angular": "32", "mesh.sharp_n_radial": "8"})
    res = xp.run_spectrum_study(cfg)
    assert res.bands["negative"][1] < 0
    assert len(res.eigenvalues) == res.params["size"]


def test_fig8_schedule_monotonicity():
    """At the smallest noise level, the eps = 35 d^(2/3) schedule beats
    the eps = 2.8 d^(1/3) one (rate ordering of the named study)."""
    delta = "1.52587890625e-05"
    base = xp.apply_preset("fig8", {"study.deltas": delta})
    cfg_a = xp.load_config(overrides=base)
    ws = xp.Workspace(cfg_a)
    err_a = xp.run_rate_study(cfg_a, ws).rows[0].u_err_band
    cfg_c = xp.load_config(overrides=xp.apply_preset("fig8", {
        "study.deltas": delta, "study.eps_coef": "2.8",
        "study.eps_exp": "0.3333333333333333"}))
    err_c = xp.run_rate_study(cfg_c, ws).rows[0].u_err_band
    assert err_a <= err_c


def test_single_delta_rate_fit_undefined():
    cfg = xp.load_config(overrides={
        "study.kind": "rates", "study.deltas": "0.01",
        "study.eps_coef": "0.0", "study.eps_exp": "0.0",
        "mesh.sharp_n_angular": "48", "mesh.sharp_n_radial": "12"})
    res = xp.run_rate_study(cfg)
    assert len(res.rows) == 1
    assert not res.u_fit.defined
