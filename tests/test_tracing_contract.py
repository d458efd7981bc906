"""The package names and behaviour that the benchmark's span recorder needs.

``perfbench/spans.py`` times the package's layers by swapping named
functions and methods for timing wrappers, and hands MINRES a proxy of
the KKT matrix.  These tests load that file read-only and check that
every name it wraps still resolves, that a sharp and a diffuse
Tikhonov solve and a spectrum under an installed recorder equal their
untraced results, that the recorder's matrix proxy never reaches the
KKT matrix an operator set keeps, and that a traced rate study records
each layer of every cell once.
"""

import dataclasses
import importlib.util
from pathlib import Path

import numpy as np
import scipy.sparse as sp

import ddcauchy
# imported so that every traced module is an attribute of the package
from ddcauchy import assembly, experiments, inversion, mesh, saddle  # noqa: F401
from ddcauchy.geometry import PhaseField

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    spans = load_spans()
    for mod, attr in spans.FUNCTIONS:
        assert callable(getattr(getattr(ddcauchy, mod), attr)), (mod, attr)
    for mod, cls, attr in spans.METHODS:
        owner = getattr(getattr(ddcauchy, mod), cls)
        assert attr in vars(owner), (mod, cls, attr)
    assert callable(assembly._support_mask)
    assert callable(mesh.band_triangles)


def test_traced_solves_equal_untraced(ops_16, sharp_solver, truth):
    spans = load_spans()
    alpha = 1e-2
    f_del = truth.f_dagger(sharp_solver.outer_angles)
    f_tilde = inversion.extend_data(f_del, sharp_solver.outer_angles, ops_16)
    sharp = sharp_solver.tikhonov(alpha, f_del)
    diffuse = inversion.diffuse_tikhonov(ops_16, alpha, f_tilde)
    tracer = spans.Tracer()
    with tracer:
        sharp_traced = sharp_solver.tikhonov(alpha, f_del)
        # the sharp solve eliminates v and p: it builds no KKT system
        assert "saddle.build_system" not in tracer.layers()
        diffuse_traced = inversion.diffuse_tikhonov(ops_16, alpha, f_tilde)
    assert np.array_equal(sharp, sharp_traced)
    for name in ("u", "v", "p"):
        assert np.array_equal(getattr(diffuse, name),
                              getattr(diffuse_traced, name))
    assert diffuse.report.iterations == diffuse_traced.report.iterations
    layers = tracer.layers()
    assert layers["saddle.build_system"][0] == 1
    assert layers["saddle.matvec"][0] > 0
    metrics = tracer.layer_metrics(1.0)
    assert metrics["inversion.sharp_tikhonov.calls"] == 1
    # read through getattr defaults: a renamed factor would read 0 silently
    assert metrics["saddle.riesz_h.fill"] > 1


def test_traced_systems_leave_the_kept_matrix_untraced(ops_16):
    # the recorder puts a timed proxy on each system it sees built; the
    # operator set's kept KKT matrix, built here under the recorder, and
    # every later untraced system must stay plain CSR
    spans = load_spans()
    f = np.zeros(ops_16.mesh.num_vertices)
    f[ops_16.active_v] = 1.0
    alphas = (1e-2, 1e-3, 1e-4)

    def solve(ops, alpha):
        system = saddle.build_system(ops, alpha, f)
        x, report = saddle.minres(system, saddle.RieszPreconditioner(system),
                                  rho=1e-6)
        return system, x, report

    want = [solve(ops_16, alpha)[1:] for alpha in alphas]
    ops = dataclasses.replace(ops_16)     # nothing restricted or kept yet
    tracer = spans.Tracer()
    with tracer:
        got = [solve(ops, alpha) for alpha in alphas[:2]]
    assert all(isinstance(system.matrix, spans._TimedMatrix)
               for system, _, _ in got)
    got.append(solve(ops, alphas[2]))
    assert type(got[2][0].matrix) is sp.csr_matrix
    assert type(ops._kkt) is sp.csr_matrix
    for (_, x, report), (x_want, report_want) in zip(got, want):
        assert x.tobytes() == x_want.tobytes()
        assert report == report_want
    assert tracer.layers()["saddle.build_system"][0] == 2


def test_traced_rate_cells_record_every_layer():
    spans = load_spans()
    small = {"mesh.h0": "0.2", "mesh.sharp_n_angular": "48",
             "mesh.sharp_n_radial": "12", "study.deltas": "0.0625, 0.03125"}
    diffuse = experiments.load_config(overrides=small)
    sharp = experiments.load_config(overrides=dict(
        small, **{"study.eps_coef": "0.0", "study.eps_exp": "0.0"}))
    # the sharp study runs on the diffuse study's Workspace, as fig8 does
    ws = experiments.Workspace(diffuse)
    for cfg, per_delta in (
            (diffuse, ("experiments.diffuse_ops", "inversion.extend_data",
                       "inversion.diffuse_tikhonov", "inversion.error_norms",
                       "saddle.riesz_factor")),
            (sharp, ("inversion.sharp_tikhonov",))):
        plain = experiments.run_rate_study(cfg, ws)
        tracer = spans.Tracer()
        with tracer:
            traced = experiments.run_rate_study(cfg, ws)
        assert repr(traced.rows) == repr(plain.rows)
        layers = tracer.layers()
        for name in per_delta:
            assert layers.get(name, (0,))[0] == len(cfg.deltas), name


def test_traced_spectrum_equals_untraced():
    # the recorder swaps the built system's matrix for a proxy that
    # forwards attributes but not indexing; the spectrum must read it
    spans = load_spans()
    cfg = experiments.load_config(overrides={
        "study.kind": "spectrum", "study.spectrum_h0": "0.25"})
    plain = experiments.run_spectrum_study(cfg)
    tracer = spans.Tracer()
    with tracer:
        traced = experiments.run_spectrum_study(cfg)
    assert traced.eigenvalues.tobytes() == plain.eigenvalues.tobytes()
    assert tracer.layers()["saddle.spectrum"][0] == 1


def test_layer_metrics_classify_the_built_operator_sets(geometry, tensor,
                                                        rule):
    # layer_metrics calls mesh.band_triangles and assembly._support_mask
    # on every operator set built under the recorder
    spans = load_spans()
    field = PhaseField(geometry, 0.125)
    tracer = spans.Tracer()
    with tracer:
        assembly.OperatorSet.build(mesh.build_background(0.3), field,
                                   tensor, rule)
    assert len(tracer.built_ops) == 1
    metrics = tracer.layer_metrics(1.0)
    assert 0.0 < metrics["assembly.cut_ratio"] < 1.0
