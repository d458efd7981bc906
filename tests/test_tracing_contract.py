"""The package names and behaviour that the benchmark's span recorder needs.

``perfbench/spans.py`` times the package's layers by swapping named
functions and methods for timing wrappers, and hands MINRES a proxy of
the KKT matrix.  These tests load that file read-only and check that
every name it wraps still resolves, and that a sharp and a diffuse
Tikhonov solve under an installed recorder equal their untraced results.
"""

import importlib.util
from pathlib import Path

import numpy as np

import ddcauchy
# imported so that every traced module is an attribute of the package
from ddcauchy import assembly, experiments, inversion, mesh, saddle  # noqa: F401

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
        diffuse_traced = inversion.diffuse_tikhonov(ops_16, alpha, f_tilde)
    for plain, traced in zip(sharp, sharp_traced):
        assert np.array_equal(plain, traced)
    for name in ("u", "v", "p"):
        assert np.array_equal(getattr(diffuse, name),
                              getattr(diffuse_traced, name))
    assert diffuse.report.iterations == diffuse_traced.report.iterations
    layers = tracer.layers()
    assert layers["saddle.build_system"][0] == 2
    assert layers["saddle.matvec"][0] > 0
    metrics = tracer.layer_metrics(1.0)
    assert metrics["inversion.sharp_tikhonov.calls"] == 1
