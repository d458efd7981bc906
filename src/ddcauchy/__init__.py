"""Diffuse-domain Tikhonov solver for the annular elliptic Cauchy problem.

The package recovers a Neumann flux on the inner circle of an annulus
from Dirichlet data on the outer circle, with the geometry represented
by a phase field on a fixed background mesh.  The regularized problem is
solved as a symmetric saddle-point system by Riesz-preconditioned MINRES;
an experiment harness reproduces iteration tables, preconditioned
spectra and convergence-rate studies.
"""

from .geometry import AnnulusGeometry, ConductivityTensor, PhaseField
from .harmonics import AngularSeries, synthesize_truth
from .mesh import TriMesh, build_background, mesh_annulus, quadrature, refine_band
from .assembly import OperatorSet, assemble_sharp

__all__ = [
    "AnnulusGeometry", "ConductivityTensor", "PhaseField",
    "AngularSeries", "synthesize_truth",
    "TriMesh", "build_background", "mesh_annulus", "quadrature",
    "refine_band",
    "OperatorSet", "assemble_sharp",
]

__version__ = "0.1.0"
