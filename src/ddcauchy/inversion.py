"""Forward/adjoint solves, data synthesis, Tikhonov drivers, error norms.

The sharp reference problem lives on the polar annulus mesh: boundary
data are nodal vectors on the tagged inner/outer polygon nodes (angular
order); forward and adjoint share one load-solve-trace path.  The
diffuse problem lives on the background mesh: boundary data are extended
into the interface bands by the one constant-normal extension,
``_extend_constant`` (a node's polar angle is that of its closest
boundary point), and solved through the saddle machinery.

Noise is Gaussian per node, rescaled so the discrete boundary norm of
the perturbation equals delta exactly; a run with the same seed is
bit-reproducible.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .assembly import OperatorSet
from .geometry import StageError
from .harmonics import GroundTruth
from .saddle import (RieszPreconditioner, SolveReport, _dot, build_system,
                     minres)


class InversionError(StageError, RuntimeError):
    stage = "inversion"


# ---------------------------------------------------------------------------
# Mean-constrained forward solve (diffuse and sharp)
# ---------------------------------------------------------------------------


def diffuse_forward(ops: OperatorSet, load: np.ndarray) -> np.ndarray:
    """Solve K_omega x = load on the active state set with <mean_vec, x> = 0.

    The one mean-constrained solve, by ``ops.mean_lu``, for a load of
    shape (n,) or (n, k); x has its shape, zero off ``ops.active_v``.
    This is the diffuse forward problem for the load B_H u and, on the
    eps = 0 operator set, the sharp forward and adjoint solve.
    """
    a_v = ops.active_v
    try:
        lu = ops.mean_lu
    except RuntimeError as err:
        raise InversionError(f"singular augmented system: {err}") from err
    rhs = np.zeros((len(a_v) + 1,) + load.shape[1:])
    rhs[:-1] = load[a_v]
    x = np.zeros(load.shape)
    x[a_v] = lu.solve(rhs)[:-1]
    return x


# ---------------------------------------------------------------------------
# Sharp solver (exact mesh)
# ---------------------------------------------------------------------------

# Largest relative defect of G's column at inner node nb // 2 against its
# column at node 0 rolled by nb // 2; a rotation-invariant mesh meets it
# to roundoff (7e-14 on fig8's 192 x 48 mesh).
_CIRCULANT_TOL = 1e-10


class SharpSolver:
    """Forward/adjoint/Tikhonov solves on the exact annulus mesh.

    ``ops`` is the eps = 0 operator set of ``assemble_sharp``.  The
    forward map takes a Neumann flux u on the inner boundary to the
    potential trace on the outer one; the mean constraint
    <v, 1>_inner = 0 is imposed by one scalar multiplier to keep the
    system symmetric.  Nothing is factored or restricted up front: every
    forward and adjoint solve is ``diffuse_forward`` on ``ops``, whose
    ``mean_lu`` is factored at the first solve and kept.

    The Tikhonov solve assumes that the discrete problem is invariant
    under rotation by 2 pi / nb, nb the number of inner nodes:
    ``mesh_annulus`` splits every polar cell alike, the conductivity
    lives in the polar frame, and inner and outer nodes are both numbered
    by increasing angle from 0.  Then G (the outer traces of the inner
    unit fluxes), T_ii and T_oo are circulant, and the FFT diagonalizes
    the Tikhonov normal equation.
    """

    def __init__(self, ops: OperatorSet):
        self.ops = ops
        self.inner = ops.active_u
        self.outer = np.flatnonzero(ops.b_b.diagonal() > 0.0)
        self.inner_angles, self.outer_angles = (
            np.mod(np.arctan2(xy[:, 1], xy[:, 0]), 2.0 * np.pi)
            for xy in (ops.mesh.vertices[self.inner],
                       ops.mesh.vertices[self.outer]))
        self._symbols = None  # FFTs of G, T_ii, T_oo, at the first tikhonov

    @property
    def t_ii(self) -> sp.csr_matrix:
        """T_inner on the inner nodes: the operator set's ``riesz_u``."""
        return self.ops.riesz_u

    @functools.cached_property
    def t_oo(self) -> sp.csr_matrix:
        """T_outer on the outer nodes, restricted at the first read."""
        return self.ops.block(self.ops.b_b, self.outer, self.outer)

    def _boundary_load(self, nodes: np.ndarray, values: np.ndarray):
        load = np.zeros((self.ops.mesh.num_vertices,) + np.shape(values)[1:])
        load[nodes] = values
        return load

    def _trace(self, mass, nodes, values, trace_nodes):
        """The field of the boundary load mass @ (values on nodes) and its
        trace on trace_nodes: the one path of forward and adjoint."""
        load = mass @ self._boundary_load(nodes, values)
        x = diffuse_forward(self.ops, load)
        return x, x[trace_nodes]

    def forward(self, u_inner: np.ndarray):
        """State field and its trace f = v | outer for flux u on the inner
        boundary (nodal values in the order of ``inner``, shape (nb,) or
        (nb, k) for k fluxes)."""
        return self._trace(self.ops.b_h, self.inner, u_inner, self.outer)

    def adjoint(self, w_outer: np.ndarray):
        """Adjoint field and its trace u = p | inner for density w on the
        outer boundary (shape (nb,) or (nb, k))."""
        return self._trace(self.ops.b_b, self.outer, w_outer, self.inner)

    def inner_norm(self, u_inner: np.ndarray) -> float:
        return float(np.sqrt(_dot(u_inner, self.t_ii @ u_inner)))

    def outer_norm(self, f_outer: np.ndarray) -> float:
        return float(np.sqrt(_dot(f_outer, self.t_oo @ f_outer)))

    def _transfer_symbols(self):
        """(g, t, o): the FFTs of the first columns of G, T_ii and T_oo.

        Built once, from one forward solve of two unit fluxes, at inner
        nodes 0 and nb // 2.  The second trace must be the first rolled by
        nb // 2; otherwise the mesh is not rotation-invariant, G is not
        circulant, and InversionError is raised.
        """
        if self._symbols is None:
            nb = len(self.inner)
            half = nb // 2
            units = np.zeros((nb, 2))
            units[[0, half], [0, 1]] = 1.0
            _, g = self.forward(units)
            defect = (np.linalg.norm(g[:, 1] - np.roll(g[:, 0], half))
                      / np.linalg.norm(g[:, 0]))
            if not defect <= _CIRCULANT_TOL:
                raise InversionError(
                    f"the sharp mesh is not rotation-invariant: G is not "
                    f"circulant (relative defect {defect:.1e})")
            self._symbols = (np.fft.fft(g[:, 0]),
                             np.fft.fft(self.t_ii[:, 0].toarray()[:, 0]).real,
                             np.fft.fft(self.t_oo[:, 0].toarray()[:, 0]).real)
        return self._symbols

    def tikhonov(self, alpha: float, f_outer: np.ndarray) -> np.ndarray:
        """Sharp Tikhonov control u on the inner nodes: the eps = 0
        reference.

        Eliminating v and p from the sharp KKT system (``build_system`` on
        the eps = 0 operators) leaves the normal equation
        (alpha T_ii + G^T T_oo G) u = G^T T_oo f, exactly.  Its matrices are
        circulant (see the class), so with g, t, o the FFTs of the first
        columns of G, T_ii and T_oo, built at the first call and kept,
        u = ifft(conj(g) fft(T_oo f) / (alpha t + o |g|^2)): two FFTs and
        no sparse solve per alpha.  u is all nan when T_oo f is not
        finite.  The state and adjoint, if wanted, are forward(u) and
        adjoint(f - forward(u) | outer).
        """
        if not alpha > 0.0:
            raise InversionError(f"alpha must be positive, got {alpha}")
        g, t, o = self._transfer_symbols()
        rhs = self.t_oo @ f_outer
        if not np.all(np.isfinite(rhs)):
            return np.full(len(self.inner), np.nan)
        return np.fft.ifft(np.conj(g) * np.fft.fft(rhs)
                           / (alpha * t + o * np.abs(g) ** 2)).real


# ---------------------------------------------------------------------------
# Noise and band extension
# ---------------------------------------------------------------------------


def add_noise(f_values: np.ndarray, delta: float, seed: int,
              boundary_mass: sp.spmatrix) -> np.ndarray:
    """Perturb nodal data so the discrete boundary norm of the change is
    exactly delta.  Same seed, same vector."""
    if delta < 0.0:
        raise InversionError("delta must be >= 0")
    if delta == 0.0:
        return np.array(f_values, dtype=float, copy=True)
    if len(f_values) == 0:
        raise InversionError("cannot add noise to empty boundary data")
    rng = np.random.default_rng(seed)
    eta = rng.standard_normal(len(f_values))
    norm = float(np.sqrt(_dot(eta, boundary_mass @ eta)))
    return np.asarray(f_values, dtype=float) + (delta / norm) * eta


def _extend_constant(band_mass: sp.spmatrix, mesh, values_at) -> np.ndarray:
    """Constant-normal extension onto the nodes supporting a band mass.

    Each node takes the boundary value at its closest boundary point,
    which lies on the same ray, so ``values_at`` is evaluated at the
    node's polar angle; zero elsewhere.
    """
    nodes = np.flatnonzero(band_mass.diagonal() > 0.0)
    pts = mesh.vertices[nodes]
    out = np.zeros(mesh.num_vertices)
    out[nodes] = values_at(np.arctan2(pts[:, 1], pts[:, 0]))
    return out


def extend_data(f_values: np.ndarray, sample_angles: np.ndarray,
                ops: OperatorSet) -> np.ndarray:
    """Extension of nodal outer-boundary data into the B-band, by periodic
    linear interpolation of f in the angle."""
    return _extend_constant(
        ops.b_b, ops.mesh,
        lambda theta: np.interp(theta, sample_angles, f_values,
                                period=2.0 * np.pi))


def extend_control(u_theta, ops: OperatorSet) -> np.ndarray:
    """Extension of an inner-boundary function (callable of the angle)
    into the H-band."""
    return _extend_constant(ops.b_h, ops.mesh, u_theta)


# ---------------------------------------------------------------------------
# Diffuse solves
# ---------------------------------------------------------------------------


@dataclass
class DiffuseSolution:
    """Full-length nodal (u, v, p) and the solver report."""

    u: np.ndarray
    v: np.ndarray
    p: np.ndarray
    report: SolveReport


def diffuse_tikhonov(ops: OperatorSet, alpha: float, f_tilde: np.ndarray,
                     rho: float = 1e-10,
                     max_iter: int = 2000) -> DiffuseSolution:
    """Solve the diffuse Tikhonov saddle system by preconditioned MINRES.

    The Riesz factors depend on ``ops`` only, not on alpha or the data:
    the first solve on an operator set factors them, and every later
    alpha on it reuses them.  alpha must be > 0.
    """
    if not alpha > 0.0:
        raise InversionError(f"alpha must be positive, got {alpha}")
    system = build_system(ops, alpha, f_tilde)
    x, report = minres(system, RieszPreconditioner(system), rho=rho,
                       max_iter=max_iter)
    n = ops.mesh.num_vertices
    u_r, v_r, p_r, _ = system.split(x)
    u = np.zeros(n)
    v = np.zeros(n)
    p = np.zeros(n)
    u[ops.active_u] = u_r
    v[ops.active_v] = v_r
    p[ops.active_v] = p_r
    return DiffuseSolution(u, v, p, report)


# ---------------------------------------------------------------------------
# Error norms
# ---------------------------------------------------------------------------


@dataclass
class ErrorNorms:
    u_err_band: float
    v_err_band: float
    grad_err: float
    u_err_dual: float


def error_norms(sol: DiffuseSolution, truth: GroundTruth,
                ops: OperatorSet) -> ErrorNorms:
    """Band/dual error norms of a diffuse solution against the exact truth.

    The control truth is extended constantly off the inner circle, the
    data truth off the outer one; the state truth is the closed-form
    field itself (smooth across both bands).
    """
    mesh = ops.mesh
    n = mesh.num_vertices
    a_v = ops.active_v

    u_truth = extend_control(truth.u_dagger, ops)
    e_u = sol.u - u_truth
    u_err_band = float(np.sqrt(_dot(e_u, ops.b_h @ e_u)))

    # state truth: the smooth field itself, continued constantly along
    # rays below the inner band edge (it differs from the constant-normal
    # extension of f only at second order in the band depth, since the
    # normal derivative vanishes on the outer circle)
    v_truth = np.zeros(n)
    pts = mesh.vertices[a_v]
    r_clamp = ops.field.geometry.r_inner - ops.field.epsilon
    v_truth[a_v] = truth.v_field(pts, r_min=r_clamp)
    e_v = (sol.v - v_truth)[a_v]
    v_err_band = float(np.sqrt(_dot(e_v, ops.t_vv @ e_v)))
    grad_err = float(np.sqrt(_dot(e_v, ops.k_vv @ e_v)))

    # dual norm: sqrt(g^T R_H^{-1} g), g the U-pairing of the control
    # error; R_H is solved exactly, by the operator set's factor
    g = (ops.b_h @ e_u)[a_v]
    u_err_dual = float(np.sqrt(np.abs(_dot(g, ops.riesz_h_lu.solve(g)))))

    return ErrorNorms(u_err_band, v_err_band, grad_err, u_err_dual)


def sharp_error(u_inner: np.ndarray, solver: SharpSolver,
                truth: GroundTruth) -> float:
    """L2(inner polygon) control error of a sharp Tikhonov solution."""
    e = u_inner - truth.u_dagger(solver.inner_angles)
    return solver.inner_norm(e)


def truth_fixture_csv(truth: GroundTruth, solver: SharpSolver) -> str:
    """Serialize the ground truth for regression pinning.

    Three record kinds: the source-series coefficients, and the nodal
    u/f vectors on the sharp boundary polygons (angle-ordered).
    """
    lines = ["kind,index,angle,value"]
    for i, t in enumerate(truth.w.terms):
        lines.append(f"w_term,{i},{t.kind}:{t.k},{float(t.coef)!r}")
    u = truth.u_dagger(solver.inner_angles)
    for i, (ang, val) in enumerate(zip(solver.inner_angles, u)):
        lines.append(f"u_dagger,{i},{float(ang)!r},{float(val)!r}")
    f = truth.f_dagger(solver.outer_angles)
    for i, (ang, val) in enumerate(zip(solver.outer_angles, f)):
        lines.append(f"f_dagger,{i},{float(ang)!r},{float(val)!r}")
    return "\n".join(lines) + "\n"
