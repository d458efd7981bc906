"""Fast analytic property suite behind the ``verify`` CLI subcommand.

Each check exercises one of the structural identities the method rests
on, using the polar-coordinate reference quadratures (independent of the
finite-element path) or small sharp solves.  Every check returns a
VerifyCheck with a pass flag; the suite prints one line per check and the
CLI exits nonzero if any fails.

Checks
------
band-measure      int |grad omega| gamma dx equals the circumference
integral-order    one-sided band defect of bulk integrals decays like eps^2
extension-norm    constant-normal extension preserves L2 norms as eps -> 0
extension-error   ||v - Ev|| in the band norm decays like eps^(3/2) when
                  the normal derivative vanishes on the circle
adjoint           <F u, w> = <u, F* w> on the sharp mesh
diffuse-trace     band norm controlled by the H-norm, uniformly in eps
poincare          L2(omega) controlled by gradient + band norms, uniformly
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import CUT_RULE, OperatorSet
from .experiments import fit_loglog_slope
from .geometry import (AnnulusGeometry, ConductivityTensor, PhaseField,
                       annulus_integral, band_integral, ring_diffuse_integral)
from .harmonics import AngularSeries
from .inversion import SharpSolver
from .mesh import build_background, levels_for, refine_band
from .saddle import _dot


@dataclass
class VerifyCheck:
    name: str
    passed: bool
    detail: str


def check_band_measure(geometry: AnnulusGeometry, rtol: float = 1e-5):
    """int |grad omega| gamma_B dx = 2 pi r_outer (and H analogue), for
    eps in {2^-2 .. 2^-6}."""
    worst = 0.0
    one = lambda p: np.ones(len(p))
    for k in range(2, 7):
        field = PhaseField(geometry, 2.0 ** -k)
        for which, radius in (("H", geometry.r_inner),
                              ("B", geometry.r_outer)):
            got = band_integral(field, one, which)
            rel = abs(got - 2.0 * np.pi * radius) / (2.0 * np.pi * radius)
            worst = max(worst, rel)
    return VerifyCheck("band-measure", worst <= rtol,
                       f"max relative deviation {worst:.3e} (tol {rtol:g})")


def check_integral_order(geometry: AnnulusGeometry, min_order: float = 1.9):
    """Band defect of bulk integrals decays at the smooth-integrand rate.

    On this geometry the inner and outer band defects cancel exactly for
    g = 1, so the defect is measured on the outer half-ring (split
    radius outward), where it equals pi eps^2 / 3 for g = 1; g = |x|^2 is
    also checked on the full domain.
    """
    eps_list = [2.0 ** -k for k in range(3, 8)]
    split = geometry.split_radius
    cases = {
        "g=1 (outer half)": (lambda p: np.ones(len(p)), split, None),
        "g=|x|^2 (outer half)": (lambda p: (np.asarray(p) ** 2).sum(axis=1),
                                 split, None),
        "g=|x|^2 (full)": (lambda p: (np.asarray(p) ** 2).sum(axis=1),
                           None, None),
    }
    orders = {}
    for label, (g, r_lo, r_hi) in cases.items():
        errs = []
        for eps in eps_list:
            field = PhaseField(geometry, eps)
            lo = geometry.r_inner - eps if r_lo is None else r_lo
            hi = geometry.r_outer + eps if r_hi is None else r_hi
            diffuse = ring_diffuse_integral(field, g, lo, hi)
            sharp = annulus_integral(geometry, g, r_lo=r_lo, r_hi=r_hi)
            errs.append(abs(diffuse - sharp))
        orders[label] = fit_loglog_slope(zip(eps_list, errs)).slope
    ok = all(o >= min_order for o in orders.values())
    detail = ", ".join(f"{k}: {v:.2f}" for k, v in orders.items())
    return VerifyCheck("integral-order", ok,
                       f"fitted orders {detail} (need >= {min_order})")


def check_extension_norm(geometry: AnnulusGeometry):
    """||E u||_(band) / ||u||_(circle) -> 1 with deviation O(eps^2), for
    u = cos(3 theta)."""
    u = AngularSeries.of(("cos", 3, 1.0))
    worst = 0.0
    for k, eps in ((2, 0.25), (3, 0.125), (4, 0.0625), (5, 0.03125)):
        field = PhaseField(geometry, eps)
        for which, radius in (("H", geometry.r_inner),
                              ("B", geometry.r_outer)):
            def ext_sq(pts):
                theta = np.arctan2(pts[:, 1], pts[:, 0])
                return u(theta) ** 2
            band_sq = band_integral(field, ext_sq, which, n_theta=512)
            circle_sq = np.pi * radius  # exact for a unit cos mode
            deviation = abs(band_sq / circle_sq - 1.0)
            worst = max(worst, deviation / eps ** 2)
    # on circles the ratio is exactly 1; the bound eps^2 is generous
    return VerifyCheck("extension-norm", worst <= 1.0,
                       f"max |ratio - 1| / eps^2 = {worst:.3e} (<= 1)")


def check_extension_error(geometry: AnnulusGeometry):
    """||v - E v|| in the band norm for v with vanishing normal derivative
    on the circle: observed order >= 1.4 (theory eps^(3/2) via the
    omega-weighted second derivative, eps^2 for this smooth v)."""
    radius = geometry.r_outer
    eps_list = [2.0 ** -k for k in range(3, 7)]
    errs = []
    for eps in eps_list:
        field = PhaseField(geometry, eps)

        def diff_sq(pts):
            r = np.hypot(pts[:, 0], pts[:, 1])
            theta = np.arctan2(pts[:, 1], pts[:, 0])
            v = (1.0 + (r - radius) ** 2) * np.cos(2.0 * theta)
            ev = np.cos(2.0 * theta)
            return (v - ev) ** 2

        errs.append(np.sqrt(band_integral(field, diff_sq, "B", n_theta=512)))
    order = fit_loglog_slope(zip(eps_list, errs)).slope
    return VerifyCheck("extension-error", order >= 1.4,
                       f"fitted order {order:.2f} (need >= 1.4)")


def check_adjoint(geometry: AnnulusGeometry, tensor: ConductivityTensor,
                  tol: float = 1e-10):
    """|<F u, w> - <u, F* w>| <= tol * ||u|| ||w|| for 10 random pairs."""
    solver = SharpSolver(geometry, tensor, 128, 32)
    rng = np.random.default_rng(123)
    draws = [(rng.standard_normal(len(solver.inner)),
              rng.standard_normal(len(solver.outer)))
             for _ in range(10)]
    u_all, w_all = (np.column_stack(block) for block in zip(*draws))
    _, fu_all = solver.forward(u_all)
    _, fsw_all = solver.adjoint(w_all)
    worst = 0.0
    for u, w, fu, fsw in zip(u_all.T, w_all.T, fu_all.T, fsw_all.T):
        lhs = _dot(fu, solver.t_oo @ w)
        rhs = _dot(u, solver.t_ii @ fsw)
        scale = solver.inner_norm(u) * solver.outer_norm(w)
        worst = max(worst, abs(lhs - rhs) / scale)
    return VerifyCheck("adjoint", worst <= tol,
                       f"max normalized defect {worst:.2e} (tol {tol:g})")


def _sweep_operators(geometry):
    """Operator sets over the sweep eps = 2^-2, 2^-3, 2^-4 on the h0 = 0.15
    background, with M = I, so that k_omega is the plain omega-weighted
    Laplacian K_I."""
    h0 = 0.15
    base = build_background(h0)
    out = []
    for k in (2, 3, 4):
        eps = 2.0 ** -k
        field = PhaseField(geometry, eps)
        mesh = refine_band(base, field, levels_for(eps, h0))
        out.append(OperatorSet.build(mesh, field,
                                     ConductivityTensor.identity(), CUT_RULE))
    return out


def check_diffuse_trace(sweep: list):
    """sup ||v||_band^2 / ||v||_H^2 stays bounded over the eps sweep
    (within twice its value at the coarsest eps), for a smooth family."""
    ratios = []
    for ops in sweep:
        mesh = ops.mesh
        pts = mesh.vertices
        fams = [np.ones(len(pts)),
                pts[:, 0],
                pts[:, 0] ** 2 - pts[:, 1] ** 2,
                np.cos(2.0 * np.pi * pts[:, 0])]
        worst = 0.0
        for v in fams:
            num = _dot(v, ops.b_h @ v)
            den = _dot(v, ops.k_omega @ v) + _dot(v, ops.m_omega @ v)
            worst = max(worst, num / den)
        ratios.append(worst)
    ok = max(ratios) <= 2.0 * ratios[0]
    return VerifyCheck("diffuse-trace", ok,
                       f"ratios over eps sweep {[f'{r:.3f}' for r in ratios]}"
                       " (max within 2.0x of first)")


def check_poincare(sweep: list):
    """Smallest eigenvalue of (K_I + B_H) against M_omega on the active
    state set, uniformly bounded below over the eps sweep (at least half
    its value at the coarsest eps)."""
    import scipy.sparse.linalg as spla

    vals = []
    for ops in sweep:
        a_v = ops.active_v
        a = ops.block(ops.k_omega + ops.b_h, a_v, a_v).tocsc()
        m = ops.block(ops.m_omega, a_v, a_v).tocsc()
        lam = spla.eigsh(a, k=1, M=m, sigma=0.0, which="LM",
                         v0=np.ones(a.shape[0]),
                         return_eigenvectors=False)
        vals.append(float(lam[0]))
    ok = min(vals) >= 0.5 * vals[0] and min(vals) > 0
    return VerifyCheck("poincare", ok,
                       f"min generalized eigenvalues {[f'{v:.3f}' for v in vals]}"
                       " (min within 0.5x of first)")


def run_verify() -> list:
    """The seven checks on the default geometry and conductivity."""
    geometry = AnnulusGeometry()
    tensor = ConductivityTensor()
    sweep = _sweep_operators(geometry)
    return [
        check_band_measure(geometry),
        check_integral_order(geometry),
        check_extension_norm(geometry),
        check_extension_error(geometry),
        check_adjoint(geometry, tensor),
        check_diffuse_trace(sweep),
        check_poincare(sweep),
    ]
