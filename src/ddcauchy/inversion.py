"""Forward/adjoint solves, data synthesis, Tikhonov drivers, error norms.

The sharp reference problem lives on the polar annulus mesh: boundary
data are nodal vectors on the inner/outer ring nodes (angular order).
Its solver is built from the polar grid, not from the mesh: the two
rings give the node ids, angles, edges and edge masses, and the Tikhonov
solve is an FFT filter whose transfer symbol comes from the stiffness of
one angular sector.  So the studies never build, assemble or factor the
annulus; forward and adjoint, which do, assemble it with the solver's
ring edges, load it through the solver's ring masses, share one
load-solve-trace path and check it.  The diffuse problem lives on the
background mesh: boundary data are extended into the interface bands by
the one constant-normal extension, ``_extend_constant`` (a node's polar
angle is that of its closest boundary point), and solved through the
saddle machinery.

Noise is Gaussian per node, rescaled so the discrete boundary norm of
the perturbation equals delta exactly; a run with the same seed is
bit-reproducible.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .assembly import (OperatorSet, _edge_mass, _sharp_local_stiffness,
                       assemble_sharp)
from .geometry import AnnulusGeometry, ConductivityTensor, StageError
from .harmonics import GroundTruth
from .mesh import (TriMesh, _polar_cells, _polar_grid, _polar_points,
                   _ring_edges, mesh_annulus)
from .saddle import (RieszPreconditioner, SaddleSystem, SolveReport, _dot,
                     build_system, minres, minres_lockstep)


class InversionError(StageError, RuntimeError):
    stage = "inversion"


def _check_alpha(alpha: float) -> None:
    if not alpha > 0.0:
        raise InversionError(f"alpha must be positive, got {alpha}")


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

class SharpSolver:
    """Forward/adjoint/Tikhonov solves on the exact annulus mesh.

    Built from the polar grid of ``mesh_annulus`` (geometry, n_angular
    angles, n_radial ring cells) and the conductivity, it makes at once
    only what the studies read off the two boundary rings: the inner and
    outer node ids (in increasing angle), their angles, T_inner and
    T_outer on those rings (``t_ii``, ``t_oo``, nb x nb) and the inner
    mean vector (row sums of T_inner).  The forward map takes a Neumann
    flux u on the inner boundary to the potential trace on the outer
    one; the mean constraint <v, 1>_inner = 0 is imposed by one scalar
    multiplier to keep the system symmetric.

    ``forward`` and ``adjoint`` solve on ``ops``, the eps = 0 operator set
    of ``assemble_sharp`` on ``mesh_annulus`` with this solver's ring
    edges, and load it through ``t_ii`` and ``t_oo``; ``ops`` is built,
    and ``mean_lu`` factored, at their first call: the annulus mesh,
    stiffness and mass exist only there (``ops.mesh`` is the mesh).  They
    are the independent check of ``tikhonov``, which needs none of them.

    The Tikhonov solve rests on the discrete problem being invariant
    under rotation by 2 pi / nb, nb = n_angular: every polar cell is
    split alike, the conductivity lives in the polar frame, and every
    ring is numbered by increasing angle from 0.  All three hold by
    construction, as the rings and the one angular sector the solver
    reads come from the same grid (``_polar_grid``), ring edges and cell
    split (``_polar_cells``) as ``mesh_annulus``.  Then G (the outer traces of
    the inner unit fluxes), T_ii and T_oo are circulant, and the FFT
    diagonalizes the Tikhonov normal equation.
    """

    def __init__(self, geometry: AnnulusGeometry, tensor: ConductivityTensor,
                 n_angular: int, n_radial: int):
        self.geometry, self.tensor = geometry, tensor
        self.n_angular, self.n_radial = n_angular, n_radial
        self._grid = radii, cos, sin = _polar_grid(geometry, n_angular,
                                                   n_radial)
        self.inner = np.arange(n_angular)
        self.outer = n_radial * n_angular + self.inner
        inner_xy, outer_xy = _polar_points(radii[[0, -1]], cos,
                                           sin).reshape(2, n_angular, 2)
        ring = _ring_edges(n_angular)
        self.t_ii = _edge_mass(inner_xy, ring)
        self.t_oo = _edge_mass(outer_xy, ring)
        self.mean_vec = np.asarray(self.t_ii.sum(axis=1)).ravel()
        self.inner_angles, self.outer_angles = (
            np.mod(np.arctan2(xy[:, 1], xy[:, 0]), 2.0 * np.pi)
            for xy in (inner_xy, outer_xy))

    @functools.cached_property
    def ops(self) -> OperatorSet:
        """The eps = 0 operator set on the polar annulus mesh, built and
        assembled at the first read."""
        ring = _ring_edges(self.n_angular)
        return assemble_sharp(
            mesh_annulus(self.geometry, self.n_angular, self.n_radial),
            self.tensor, self.inner[ring], self.outer[ring])

    def _trace(self, mass, nodes, values, trace_nodes):
        """The field of the boundary load mass @ values on nodes and its
        trace on trace_nodes: the one path of forward and adjoint."""
        load = np.zeros((self.ops.mesh.num_vertices,) + np.shape(values)[1:])
        load[nodes] = mass @ values
        x = diffuse_forward(self.ops, load)
        return x, x[trace_nodes]

    def forward(self, u_inner: np.ndarray):
        """State field and its trace f = v | outer for flux u on the inner
        boundary (nodal values in the order of ``inner``, shape (nb,) or
        (nb, k) for k fluxes)."""
        return self._trace(self.t_ii, self.inner, u_inner, self.outer)

    def adjoint(self, w_outer: np.ndarray):
        """Adjoint field and its trace u = p | inner for density w on the
        outer boundary (shape (nb,) or (nb, k))."""
        return self._trace(self.t_oo, self.outer, w_outer, self.inner)

    def inner_norm(self, u_inner: np.ndarray) -> float:
        return float(np.sqrt(_dot(u_inner, self.t_ii @ u_inner)))

    def outer_norm(self, f_outer: np.ndarray) -> float:
        return float(np.sqrt(_dot(f_outer, self.t_oo @ f_outer)))

    def _sector(self) -> TriMesh:
        """Angular column 0 of the annulus: its 2 n_radial triangles, as
        ``mesh_annulus`` splits them, on the grid points of angle indices
        0 and 1, numbered 2 ring + index."""
        radii, cos, sin = self._grid
        return TriMesh(_polar_points(radii, cos[:2], sin[:2]),
                       _polar_cells(np.array([0]), np.array([1]), 2,
                                    self.n_radial))

    def _sector_bands(self) -> np.ndarray:
        """K's ring couplings, from the stiffness of the first angular
        sector: bands[s + 1, d + 1, r] = K[(r, j), (r + d, j + s)] for
        every angle index j, r the ring and s, d in {-1, 0, 1}.  By the
        rotation invariance (see the class) every sector's stiffness is
        this one's."""
        sector = self._sector()
        _, _, local = _sharp_local_stiffness(sector, self.tensor)
        rings = self.n_radial + 1
        ring, angle = np.divmod(sector.triangles, 2)
        s = angle[:, None, :] - angle[:, :, None]
        d = ring[:, None, :] - ring[:, :, None]
        row = np.broadcast_to(ring[:, :, None], d.shape)
        index = ((s + 1) * 3 + d + 1) * rings + row
        return np.bincount(index.ravel(), local.ravel(),
                           minlength=9 * rings).reshape(3, 3, rings)

    @functools.cached_property
    def _transfer_symbols(self):
        """(g, t, o): the FFTs of the first columns of G, T_ii and T_oo.

        Built at the first read.  t and o are the FFTs of the columns
        themselves.  g comes from the block-circulant structure of K,
        without the annulus: each angular mode k of the forward solve for
        the unit flux at inner node 0 is a tridiagonal system in the ring
        index, K_k x = t_k e_0 with K_k = sum_s K_s exp(2 pi i k s / nb)
        (the bands of ``_sector_bands``), and g_k is its outer-ring entry.
        For k != 0, K_k is Hermitian positive definite, and one forward
        elimination, vectorized across the modes, gives g_k; mode 0 is
        singular and is solved as a small dense system with the mean
        multiplier.  Modes above nb // 2 are the conjugates of those
        below, as G is real.
        """
        nb = len(self.inner)
        t = np.fft.fft(self.t_ii[:, 0].toarray()[:, 0]).real
        o = np.fft.fft(self.t_oo[:, 0].toarray()[:, 0]).real
        bands = self._sector_bands()
        rings = bands.shape[-1]
        modes = np.arange(nb // 2 + 1)
        phase = np.exp(2j * np.pi / nb * np.outer(modes, [-1, 0, 1]))
        lower, diag, upper = np.moveaxis(
            np.tensordot(phase, bands, axes=1), 1, 0)
        # forward elimination of K_k x = t_k e_0, k >= 1: y[r] is the
        # rhs after elimination over the diagonal m, c the ratio
        # upper / m; the last y is the outer entry itself
        y = t[modes[1:]] / diag[1:, 0]
        c = upper[1:, 0] / diag[1:, 0]
        for r in range(1, rings):
            m = diag[1:, r] - lower[1:, r] * c
            y = -lower[1:, r] * y / m
            c = upper[1:, r] / m
        g = np.empty(nb, dtype=complex)
        g[1:len(modes)] = y
        g[len(modes):] = np.conj(y[:nb - len(modes)][::-1])
        # mode 0: [[K_0, m e_0], [m e_0^T, 0]] [x; lam] = [t_0 e_0; 0]
        aug = np.zeros((rings + 1, rings + 1))
        aug[:rings, :rings] = (np.diag(diag[0].real)
                               + np.diag(lower[0, 1:].real, -1)
                               + np.diag(upper[0, :-1].real, 1))
        aug[0, rings] = aug[rings, 0] = self.mean_vec[0]
        rhs = np.zeros(rings + 1)
        rhs[0] = t[0]
        g[0] = np.linalg.solve(aug, rhs)[rings - 1]
        return g, t, o

    def tikhonov(self, alpha: float, f_outer: np.ndarray) -> np.ndarray:
        """Sharp Tikhonov control u on the inner nodes: the eps = 0
        reference.

        Eliminating v and p from the sharp KKT system (``build_system`` on
        the eps = 0 operators) leaves the normal equation
        (alpha T_ii + G^T T_oo G) u = G^T T_oo f, exactly.  Its matrices are
        circulant (see the class), so with g, t, o the FFTs of the first
        columns of G, T_ii and T_oo, built at the first call from one
        angular sector and kept (``_transfer_symbols``),
        u = ifft(conj(g) fft(T_oo f) / (alpha t + o |g|^2)): two FFTs and
        no sparse solve per alpha.  u is all nan when T_oo f is not
        finite.  The state and adjoint, if wanted, are forward(u) and
        adjoint(f - forward(u) | outer).
        """
        _check_alpha(alpha)
        g, t, o = self._transfer_symbols
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


def _solution(system: SaddleSystem, x: np.ndarray,
              report: SolveReport) -> DiffuseSolution:
    """The full-length nodal (u, v, p) of a system solution x."""
    ops = system.ops
    n = ops.mesh.num_vertices
    u_r, v_r, p_r, _ = system.split(x)
    u = np.zeros(n)
    v = np.zeros(n)
    p = np.zeros(n)
    u[ops.active_u] = u_r
    v[ops.active_v] = v_r
    p[ops.active_v] = p_r
    return DiffuseSolution(u, v, p, report)


def diffuse_tikhonov(ops: OperatorSet, alpha: float, f_tilde: np.ndarray,
                     rho: float = 1e-10,
                     max_iter: int = 2000) -> DiffuseSolution:
    """Solve the diffuse Tikhonov saddle system by preconditioned MINRES.

    The Riesz factors and the KKT matrix at alpha = 1 depend on ``ops``
    only, not on alpha or the data: the first solve on an operator set
    factors and assembles them, and every later alpha on it reuses them,
    copying the kept matrix's values and scaling its (u, u) slots by
    alpha.  alpha must be > 0.
    """
    _check_alpha(alpha)
    system = build_system(ops, alpha, f_tilde)
    x, report = minres(system, RieszPreconditioner(system), rho=rho,
                       max_iter=max_iter)
    return _solution(system, x, report)


def diffuse_tikhonov_alphas(ops: OperatorSet, alphas, f_tilde: np.ndarray,
                            rho: float = 1e-10,
                            max_iter: int = 2000) -> list:
    """``diffuse_tikhonov`` at each alpha on one operator set and data,
    solved together: one system per alpha, one preconditioner, and
    ``minres_lockstep``, which preconditions every running system's
    residual in one wide solve per factor.  Returns the solutions in the
    order of ``alphas``.  On a large operator set a count may differ by a
    few from that of ``diffuse_tikhonov``, as the wider solves round
    differently.
    """
    for alpha in alphas:
        _check_alpha(alpha)
    systems = [build_system(ops, alpha, f_tilde) for alpha in alphas]
    if not systems:
        return []
    results = minres_lockstep(systems, RieszPreconditioner(systems[0]),
                              rho=rho, max_iter=max_iter)
    return [_solution(system, x, report)
            for system, (x, report) in zip(systems, results)]


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
