import pytest

from ddcauchy.assembly import OperatorSet, assemble_sharp
from ddcauchy.geometry import AnnulusGeometry, ConductivityTensor, PhaseField
from ddcauchy.harmonics import AngularSeries, synthesize_truth
from ddcauchy.inversion import SharpSolver
from ddcauchy.mesh import (build_background, levels_for, mesh_annulus,
                           quadrature, refine_band)


@pytest.fixture(scope="session")
def geometry():
    return AnnulusGeometry()


@pytest.fixture(scope="session")
def tensor():
    return ConductivityTensor()


@pytest.fixture(scope="session")
def rule():
    return quadrature(2, 4)


@pytest.fixture(scope="session")
def background_coarse():
    return build_background(0.15)


def make_ops(geometry, tensor, rule, eps, h0=0.15, base=None,
             with_identity=False):
    field = PhaseField(geometry, eps)
    mesh = base if base is not None else build_background(h0)
    refined = refine_band(mesh, field, levels_for(eps, h0))
    return OperatorSet.build(refined, field, tensor, rule,
                             with_identity_stiffness=with_identity)


@pytest.fixture(scope="session")
def ops_16(geometry, tensor, rule, background_coarse):
    """Operators at eps = 2^-4 on the coarse background."""
    return make_ops(geometry, tensor, rule, 2.0 ** -4,
                    base=background_coarse, with_identity=True)


@pytest.fixture(scope="session")
def sharp_solver(geometry, tensor):
    mesh = mesh_annulus(geometry, 128, 32)
    return SharpSolver(assemble_sharp(mesh, tensor))


@pytest.fixture(scope="session")
def truth(geometry, tensor):
    return synthesize_truth(geometry, tensor,
                            AngularSeries.of(("cos", 2, 1.0), ("sin", 3, 0.5)))
