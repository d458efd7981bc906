import numpy as np
import pytest

from ddcauchy import experiments as xp
from ddcauchy.assembly import CUT_RULE, OperatorSet
from ddcauchy.geometry import AnnulusGeometry, ConductivityTensor, PhaseField
from ddcauchy.harmonics import AngularSeries, synthesize_truth
from ddcauchy.inversion import SharpSolver
from ddcauchy.mesh import build_background, levels_for, refine_band
from ddcauchy.saddle import build_system, spectrum
from golden import regen


@pytest.fixture(scope="session")
def geometry():
    return AnnulusGeometry()


@pytest.fixture(scope="session")
def tensor():
    return ConductivityTensor()


@pytest.fixture(scope="session")
def rule():
    return CUT_RULE


@pytest.fixture(scope="session")
def background_coarse():
    return build_background(0.15)


def make_ops(geometry, tensor, rule, eps, h0=0.15, base=None):
    field = PhaseField(geometry, eps)
    mesh = base if base is not None else build_background(h0)
    refined = refine_band(mesh, field, levels_for(eps, h0))
    return OperatorSet.build(refined, field, tensor, rule)


@pytest.fixture(scope="session")
def ops_16(geometry, tensor, rule, background_coarse):
    """Operators at eps = 2^-4 on the coarse background."""
    return make_ops(geometry, tensor, rule, 2.0 ** -4,
                    base=background_coarse)


@pytest.fixture(scope="session")
def sharp_solver(geometry, tensor):
    return SharpSolver(geometry, tensor, 128, 32)


@pytest.fixture(params=["diffuse", "sharp"])
def ops(request, ops_16, sharp_solver):
    """``ops_16``, then the sharp operator set."""
    return ops_16 if request.param == "diffuse" else sharp_solver.ops


@pytest.fixture(scope="session")
def truth(geometry, tensor):
    return synthesize_truth(geometry, tensor,
                            AngularSeries.of(("cos", 2, 1.0), ("sin", 3, 0.5)))


# The heavy studies, run once per session and shared by the acceptance
# criteria and the golden-file comparison.


@pytest.fixture(scope="session")
def fig7_runs(tmp_path_factory):
    """fig7 rate study (nu = 1/2 twice for determinism, and nu = 1/3)."""
    out = {}
    base = tmp_path_factory.mktemp("fig7")
    for label, exp in (("half", "0.5"), ("third", "0.3333333333333333")):
        cfg = xp.load_config(overrides=xp.apply_preset(
            "fig7", {"study.eps_exp": exp,
                     "output.directory": str(base / label)}))
        ws = xp.Workspace(cfg)
        out[label] = (cfg, xp.run_rate_study(cfg, ws))
    cfg_b = xp.load_config(overrides=xp.apply_preset(
        "fig7", {"output.directory": str(base / "repeat")}))
    out["repeat"] = (cfg_b, xp.run_rate_study(cfg_b, xp.Workspace(cfg_b)))
    return out


@pytest.fixture(scope="session")
def fig8_runs():
    cfg_d = xp.load_config(overrides=xp.apply_preset("fig8"))
    ws = xp.Workspace(cfg_d)
    diffuse = xp.run_rate_study(cfg_d, ws)
    cfg_s = xp.load_config(overrides=xp.apply_preset(
        "fig8", {"study.eps_coef": "0.0", "study.eps_exp": "0.0"}))
    sharp = xp.run_rate_study(cfg_s, ws)
    return {"diffuse": diffuse, "sharp": sharp, "workspace": ws}


@pytest.fixture(scope="session")
def table_run():
    cfg = xp.load_config(overrides={
        "study.kind": "table",
        "study.alphas": "1.0, 0.1, 0.01, 0.001, 0.0001",
        "study.epsilons": "0.25, 0.125, 0.0625, 0.03125, 0.015625",
        "study.table_delta": "0.001"})
    return xp.run_iteration_table(cfg, xp.Workspace(cfg))


@pytest.fixture(scope="session")
def verify_run():
    """(exit code, stdout) of ``ddcauchy verify``."""
    return regen.verify_run()


@pytest.fixture(scope="session")
def spectrum_run():
    """The default spectrum study (eps = 0.125, alpha = 1e-4, h0 = 0.08)."""
    return xp.run_spectrum_study(xp.load_config(
        overrides={"study.kind": "spectrum"}))


@pytest.fixture(scope="session")
def spectrum_setup(geometry, tensor, rule):
    """Operator set of the default spectrum system and its zero data."""
    mesh = build_background(0.08)
    ops = OperatorSet.build(mesh, PhaseField(geometry, 0.125), tensor, rule)
    return ops, np.zeros(mesh.num_vertices)


@pytest.fixture(scope="session")
def spectrum_alpha0(spectrum_setup):
    """The default spectrum system at alpha = 0 and its eigenvalues."""
    system = build_system(spectrum_setup[0], 0.0, spectrum_setup[1])
    return system, spectrum(system)
