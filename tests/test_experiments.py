import os
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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


def test_fit_loglog_errors():
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
    (None, {"study.table_delta": "-1"}, "study.table_delta"),
    (None, {"study.deltas": "0.1, -0.1"}, "study.deltas"),
    (None, {"study.alphas": "1.0, -1"}, "study.alphas"),
    (None, {"study.alpha": "-1"}, "study.alpha"),
    (None, {"study.epsilons": "0.125, 0"}, "study.epsilons"),
    (None, {"study.epsilons": "0.5"}, "study.epsilons"),
    (None, {"study.epsilon": "0"}, "study.epsilon"),
    (None, {"study.epsilon": "0.3"}, "study.epsilon"),
    (None, {"solver.max_iter": "0"}, "solver.max_iter"),
    (None, {"study.alpha_coef": "0"}, "study.alpha_coef"),
    (None, {"study.eps_coef": "-0.25"}, "study.eps_coef"),
    (None, {"geometry.sigma_r": "nan"}, "geometry.sigma_r"),
    (None, {"truth.amplitude": "nan"}, "truth.amplitude"),
    (None, {"study.table_delta": "inf"}, "study.table_delta"),
    (None, {"study.alpha_exp": "nan"}, "study.alpha_exp"),
    (None, {"mesh.h0": "inf"}, "mesh.h0"),
    (None, {"geometry.r_outer": "inf"}, "geometry.r_outer"),
    (None, {"study.deltas": "0.1,nan"}, "study.deltas"),
    (None, {"solver.dense_cap": "0"}, "solver.dense_cap"),
    # the rate schedule is checked for every configured delta
    (None, {"study.deltas": "0.0625", "study.eps_exp": "-1"},
     "study.eps_exp"),
    (None, {"study.alpha_exp": "400"}, "study.alpha_exp"),
    (None, {"study.alpha_exp": "-400"}, "study.alpha_exp"),
    # the sharp mesh's vertex count, n_angular * (n_radial + 1), is capped
    (None, {"mesh.sharp_n_angular": "100000000"}, "mesh.sharp_n_angular"),
    (None, {"mesh.sharp_n_radial": "100000"}, "mesh.sharp_n_radial"),
    # so is the background mesh's, (ceil(2 BBOX_HALF / h0) + 1)^2
    (None, {"mesh.h0": "1e-9"}, "mesh.h0"),
    (None, {"study.spectrum_h0": "1e-9"}, "study.spectrum_h0"),
    (None, {"mesh.h0": "1e-310"}, "mesh.h0"),
    # the closed-form ground truth must be finite
    (None, {"geometry.sigma_r": "1e-300"}, "geometry.sigma_r"),
    (None, {"geometry.sigma_t": "1e12"}, "geometry.sigma_t"),
    (None, {"geometry.sigma_t": "1e-300"}, "geometry.sigma_t"),
    (None, {"truth.amplitude": "1e308", "truth.series": "cos:1:10"},
     "truth.amplitude"),
    # the cut-element rule is fixed (assembly.CUT_RULE): its former keys
    # are unknown
    (None, {"mesh.subdivision": "1000"}, "mesh.subdivision"),
    (None, {"mesh.quad_degree": "4", "mesh.subdivision": "12"},
     "mesh.quad_degree"),
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


# Override texts per SCHEMA parser: ints at and past their bounds and
# huge; zero, subnormal, huge, negative and non-finite floats; malformed
# series terms; and junk text for every key.
_JUNK = ["", " ", "abc", "1,2", "0x10", "1e", "--1", "%", "None", "1_0"]
_INT_EDGES = [str(n) for n in (-1, 0, 1, 2, 3, 4, 5, 11, 12, 16, 17, 27, 28,
                               48, 192, 2000, 4000, 2 ** 31, 10 ** 30)]
_FLOAT_EDGES = [repr(x) for x in (0.0, -0.0, 5e-324, 1e-310, 1e-300, 1e-9,
                                  0.25, 1.0, -1.0, 1e12, 1e300, 1.7e308)] + [
    "nan", "inf", "-inf"]
_TERM_EDGES = ["cos:2", "cos:2:1:3", "::", "cos:x:1", "tan:2:1", "sin:1:nan",
               "cos:0:1", "cos:-3:1", "cos:100000:1", f"cos:{10 ** 30}:1",
               "cos:1:1e308", "sin:3:5e-324"]
_EDGES = {
    int: _INT_EDGES,
    xp._finite: _FLOAT_EDGES,
    xp._floats: _FLOAT_EDGES + ["0.1, nan", ", ,", "0.0625, 1e-310"],
    xp._series: _TERM_EDGES + ["cos:1:1, " + t for t in _TERM_EDGES],
    str: [],
}
_FLOATS = st.sampled_from(_FLOAT_EDGES) | st.floats(
    allow_nan=True, allow_infinity=True).map(repr)
_GENERIC = {
    int: st.integers().map(str),
    xp._finite: _FLOATS,
    xp._floats: st.lists(_FLOATS, max_size=4).map(", ".join),
    xp._series: st.lists(
        st.tuples(st.sampled_from(["cos", "sin"]), st.integers(-2, 40),
                  _FLOATS).map(lambda t: "%s:%d:%s" % t)
        | st.sampled_from(_TERM_EDGES), max_size=3).map(", ".join),
    str: st.text(max_size=12),
}
_OVERRIDES = st.lists(
    st.sampled_from(xp.SCHEMA).flatmap(lambda row: st.tuples(
        st.just(row[0]),
        st.sampled_from(_EDGES[row[2]] + _JUNK) | _GENERIC[row[2]])),
    min_size=1, max_size=3).map(dict)


def _loads_or_names_a_key(overrides):
    try:
        xp.load_config(overrides=overrides)
    except xp.ConfigError as err:
        assert "\n" not in str(err)


def test_every_key_at_its_edges_loads_or_names_a_key():
    for key, _, parse, _, _ in xp.SCHEMA:
        for text in _EDGES[parse] + _JUNK:
            _loads_or_names_a_key({key: text})


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(overrides=_OVERRIDES)
def test_load_config_returns_or_names_a_key(overrides):
    _loads_or_names_a_key(overrides)


def test_truth_series_parsing():
    cfg = xp.load_config(overrides={
        "truth.series": "cos:1:2.0, sin:4:-0.5", "truth.amplitude": "3.0"})
    terms = {(t.kind, t.k): t.coef for t in cfg.truth.w.terms}
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
    assert xp.levels_for(5e-324, 0.5, 2) == 2  # h0 / eps overflows
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
    assert names == {"config.echo", "table.csv", "residuals.csv",
                     "plot_results.py"}
    table = open(os.path.join(cfg.out_dir, "table.csv")).read()
    assert table.splitlines()[0] == "eps\\alpha,0.1"
    # residual history rows carry the (eps, alpha) context
    res_lines = open(os.path.join(cfg.out_dir, "residuals.csv")).read()
    assert res_lines.splitlines()[0] == "context,iteration,residual"
    assert "eps=0.125;alpha=0.1" in res_lines
    # config echoed verbatim
    echo = open(os.path.join(cfg.out_dir, "config.echo")).read()
    assert echo == cfg.raw_text


def test_workspace_setup_factors_nothing(monkeypatch):
    import scipy.sparse.linalg as spla

    factored = []
    original = spla.splu

    def counting(*args, **kwargs):
        factored.append(args[0].shape)
        return original(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", counting)
    cfg = xp.load_config(overrides={
        "mesh.sharp_n_angular": "32", "mesh.sharp_n_radial": "8"})
    ws = xp.Workspace(cfg)
    assert factored == []
    # the sharp solver factors when it first solves, and only then
    solver = ws.sharp_solver
    solver.forward(np.ones(len(solver.inner)))
    assert len(factored) == 1
    solver.adjoint(np.ones(len(solver.outer)))
    f_del = ws.noisy_data(1e-3)
    for alpha in (1e-1, 1e-2, 1e-3):
        solver.tikhonov(alpha, f_del)
    assert len(factored) == 1


def test_table_factors_riesz_blocks_once_per_eps_row(monkeypatch):
    import scipy.sparse.linalg as spla

    events = []
    splu, diffuse_ops = spla.splu, xp.Workspace.diffuse_ops

    def counting_splu(mat, *args, **kwargs):
        events.append(mat.shape)
        return splu(mat, *args, **kwargs)

    def marking_ops(ws, eps):
        ops = diffuse_ops(ws, eps)
        events.append((len(ops.active_u),) * 2)
        events.append((len(ops.active_v),) * 2)
        return ops

    monkeypatch.setattr(spla, "splu", counting_splu)
    monkeypatch.setattr(xp.Workspace, "diffuse_ops", marking_ops)
    cfg = xp.load_config(overrides={
        "study.kind": "table", "study.alphas": "1.0, 0.1, 0.01",
        "study.epsilons": "0.25, 0.125", "mesh.h0": "0.2",
        "mesh.sharp_n_angular": "32", "mesh.sharp_n_radial": "8"})
    res = xp.run_iteration_table(cfg, xp.Workspace(cfg))
    assert res.converged.all()
    # per row: the shapes of R_U and R_H, then their two factors, and no
    # other factor however many alphas the row solves
    assert len(events) == 8
    for row in (events[:4], events[4:]):
        assert row[2:] == row[:2]


def test_emit_empty_results(tmp_path):
    cfg = xp.load_config(overrides={"output.directory": str(tmp_path)})
    files = xp.emit_outputs(str(tmp_path), cfg)
    # no results, no CSVs: nothing header-only is written
    assert sorted(os.listdir(tmp_path)) == ["config.echo", "plot_results.py"]
    assert sorted(os.path.basename(f) for f in files) == sorted(
        os.listdir(tmp_path))


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
        "seed", "iters", "converged", "u_err_band", "v_err_band",
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


def test_spectrum_study_smoke():
    cfg = xp.load_config(overrides={
        "study.kind": "spectrum", "study.alpha": "1e-3",
        "study.epsilon": "0.125", "study.spectrum_h0": "0.25",
        "mesh.sharp_n_angular": "32", "mesh.sharp_n_radial": "8"})
    res = xp.run_spectrum_study(cfg)
    assert res.bands["negative"][1] < 0
    assert len(res.eigenvalues) == res.size


def test_spectrum_study_over_dense_cap_raises_before_dense_work():
    # solver.dense_cap is checked once, by the study, right after
    # assembly: no n x n array exists when it raises
    cfg = xp.load_config(overrides={"study.kind": "spectrum",
                                    "solver.dense_cap": "100"})
    tracemalloc.start()
    try:
        with pytest.raises(xp.ConfigError, match="solver.dense_cap") as err:
            xp.run_spectrum_study(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n = int(re.search(r"has (\d+) unknowns", str(err.value)).group(1))
    assert peak < n * n * 8, f"peak {peak / (8 * n * n):.2f} n^2"


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


def test_plot_script_skips_absent_csvs(tmp_path, monkeypatch):
    """The emitted plot script runs when no rates or spectrum CSV exists
    (matplotlib stubbed: only the file handling is under test)."""
    import runpy
    from unittest import mock

    plt = mock.MagicMock()
    plt.subplots.return_value = (mock.MagicMock(), mock.MagicMock())
    monkeypatch.setitem(sys.modules, "matplotlib", mock.MagicMock(pyplot=plt))
    monkeypatch.setitem(sys.modules, "matplotlib.pyplot", plt)
    cfg = xp.load_config(overrides={"output.directory": str(tmp_path)})
    xp.emit_outputs(str(tmp_path), cfg)
    runpy.run_path(str(tmp_path / "plot_results.py"))
    plt.subplots.assert_not_called()
