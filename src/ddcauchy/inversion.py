"""Forward/adjoint solves, data synthesis, Tikhonov drivers, error norms.

The sharp reference problem lives on the polar annulus mesh: boundary
data are nodal vectors on the tagged inner/outer polygon nodes (angular
order).  The diffuse problem lives on the background mesh: boundary data
are extended into the interface bands by constant-normal extension
(angular interpolation at the closest boundary point) and solved through
the saddle machinery.

Noise is Gaussian per node, rescaled so the discrete boundary norm of
the perturbation equals delta exactly; a run with the same seed is
bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import OperatorSet, SharpOperatorSet
from .geometry import PhaseField
from .harmonics import GroundTruth
from .saddle import RieszPreconditioner, SolveReport, build_system, minres


class InversionError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Sharp solver (exact mesh)
# ---------------------------------------------------------------------------


class SharpSolver:
    """Forward/adjoint/Tikhonov solves on the exact annulus mesh.

    The forward map takes a Neumann flux u on the inner boundary to the
    potential trace on the outer one; the mean constraint <v, 1>_inner = 0
    is imposed by one scalar multiplier to keep the system symmetric.
    """

    def __init__(self, ops: SharpOperatorSet):
        self.ops = ops
        n = ops.mesh.num_vertices
        m_col = sp.csr_matrix(ops.mean_vec_sharp[:, None])
        aug = sp.bmat([[ops.k_d, m_col], [m_col.T, None]], format="csc")
        try:
            self._lu = spla.splu(aug)
        except RuntimeError as err:
            raise InversionError(f"singular augmented system: {err}") from err
        self._n = n
        self.inner = ops.inner_nodes
        self.outer = ops.outer_nodes
        self.t_ii = ops.t_inner[np.ix_(self.inner, self.inner)].tocsr()
        self.t_oo = ops.t_outer[np.ix_(self.outer, self.outer)].tocsr()
        self.inner_angles = np.mod(np.arctan2(
            ops.mesh.vertices[self.inner, 1],
            ops.mesh.vertices[self.inner, 0]), 2.0 * np.pi)
        self.outer_angles = np.mod(np.arctan2(
            ops.mesh.vertices[self.outer, 1],
            ops.mesh.vertices[self.outer, 0]), 2.0 * np.pi)

    def _solve_augmented(self, load: np.ndarray) -> np.ndarray:
        rhs = np.zeros(self._n + 1)
        rhs[:self._n] = load
        return self._lu.solve(rhs)[:self._n]

    def forward(self, u_inner: np.ndarray):
        """State field and its trace f = v | outer for flux u on the inner
        boundary (nodal values in the order of ``inner_nodes``)."""
        load = np.zeros(self._n)
        load[self.inner] = u_inner
        v = self._solve_augmented(self.ops.t_inner @ load)
        return v, v[self.outer]

    def adjoint(self, w_outer: np.ndarray):
        """Adjoint field and its trace u = p | inner for density w on the
        outer boundary."""
        load = np.zeros(self._n)
        load[self.outer] = w_outer
        p = self._solve_augmented(self.ops.t_outer @ load)
        return p, p[self.inner]

    def inner_norm(self, u_inner: np.ndarray) -> float:
        return float(np.sqrt(u_inner @ (self.t_ii @ u_inner)))

    def outer_norm(self, f_outer: np.ndarray) -> float:
        return float(np.sqrt(f_outer @ (self.t_oo @ f_outer)))

    def tikhonov(self, alpha: float, f_outer: np.ndarray):
        """Direct solve of the sharp Tikhonov saddle system.

        Unknowns (u on inner nodes, v, p, mu_v, mu_p); returns nodal
        (u_inner, v, p).  Serves as the eps = 0 reference.
        """
        if alpha <= 0.0:
            raise InversionError(f"alpha must be positive, got {alpha}")
        ops = self.ops
        n = self._n
        nb = len(self.inner)
        t_all_i = ops.t_inner[:, self.inner].tocsr()     # (n, nb)
        m_col = sp.csr_matrix(ops.mean_vec_sharp[:, None])
        mat = sp.bmat([
            [alpha * self.t_ii, None, -t_all_i.T, None, None],
            [None, ops.t_outer, ops.k_d, m_col, None],
            [-t_all_i, ops.k_d, None, None, m_col],
            [None, m_col.T, None, None, None],
            [None, None, m_col.T, None, None],
        ], format="csc")
        rhs = np.zeros(mat.shape[0])
        load = np.zeros(n)
        load[self.outer] = f_outer
        rhs[nb:nb + n] = ops.t_outer @ load
        sol = spla.splu(mat).solve(rhs)
        u = sol[:nb]
        v = sol[nb:nb + n]
        p = sol[nb + n:nb + 2 * n]
        return u, v, p


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
    norm = float(np.sqrt(eta @ (boundary_mass @ eta)))
    return np.asarray(f_values, dtype=float) + (delta / norm) * eta


def _periodic_interp(theta: np.ndarray, sample_angles: np.ndarray,
                     sample_values: np.ndarray) -> np.ndarray:
    """Linear interpolation of periodic nodal data in the angle."""
    order = np.argsort(sample_angles, kind="stable")
    ang = sample_angles[order]
    val = sample_values[order]
    ang_ext = np.concatenate([ang, ang[:1] + 2.0 * np.pi])
    val_ext = np.concatenate([val, val[:1]])
    t = np.mod(theta, 2.0 * np.pi)
    return np.interp(t, ang_ext, val_ext)


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
    """Extension of nodal outer-boundary data into the B-band, by angular
    interpolation of f."""
    return _extend_constant(
        ops.b_b, ops.mesh,
        lambda theta: _periodic_interp(theta, sample_angles, f_values))


def extend_control(u_theta, ops: OperatorSet) -> np.ndarray:
    """Extension of an inner-boundary function (callable of the angle)
    into the H-band."""
    return _extend_constant(ops.b_h, ops.mesh, u_theta)


# ---------------------------------------------------------------------------
# Diffuse solves
# ---------------------------------------------------------------------------


@dataclass
class DiffuseSolution:
    """Full-length nodal (u, v, p), the solver report and the
    preconditioner of the solve (None when built by hand)."""

    u: np.ndarray
    v: np.ndarray
    p: np.ndarray
    report: SolveReport
    prec: RieszPreconditioner = None


def diffuse_tikhonov(ops: OperatorSet, alpha: float, f_tilde: np.ndarray,
                     rho: float = 1e-10, max_iter: int = 2000,
                     mode: str = "exact",
                     prec: RieszPreconditioner = None) -> DiffuseSolution:
    """Solve the diffuse Tikhonov saddle system by preconditioned MINRES.

    The Riesz blocks depend on ``ops`` only, not on alpha or the data, so
    a caller solving several alphas on one operator set may pass the
    ``prec`` of an earlier solution (same ops and mode) instead of
    factorizing again.
    """
    system = build_system(ops, alpha, f_tilde)
    if prec is None:
        prec = RieszPreconditioner(system, mode=mode)
    elif prec.system.ops is not ops or prec.mode != mode:
        raise InversionError("preconditioner belongs to another operator "
                             "set or mode")
    x, report = minres(system, prec, rho=rho, max_iter=max_iter)
    n = ops.mesh.num_vertices
    u_r, v_r, p_r, _ = system.split(x)
    u = np.zeros(n)
    v = np.zeros(n)
    p = np.zeros(n)
    u[ops.active_u] = u_r
    v[ops.active_v] = v_r
    p[ops.active_v] = p_r
    return DiffuseSolution(u, v, p, report, prec)


def diffuse_forward(ops: OperatorSet, u_band: np.ndarray) -> np.ndarray:
    """State of the diffuse forward problem for band control values u.

    Solves K_omega v = B_H u on the active state set with the U-mean
    constraint, by a direct augmented solve.
    """
    a_v = ops.active_v
    k_vv = ops.k_omega[np.ix_(a_v, a_v)]
    m_col = sp.csr_matrix(ops.mean_vec[a_v][:, None])
    aug = sp.bmat([[k_vv, m_col], [m_col.T, None]], format="csc")
    rhs = np.zeros(len(a_v) + 1)
    rhs[:len(a_v)] = (ops.b_h @ u_band)[a_v]
    sol = spla.splu(aug).solve(rhs)
    v = np.zeros(ops.mesh.num_vertices)
    v[a_v] = sol[:len(a_v)]
    return v


# ---------------------------------------------------------------------------
# Error norms
# ---------------------------------------------------------------------------


@dataclass
class ErrorNorms:
    u_err_band: float
    v_err_band: float
    grad_err: float
    u_err_dual: float
    u_err_sharp: float = float("nan")


def error_norms(sol: DiffuseSolution, truth: GroundTruth, ops: OperatorSet,
                field: PhaseField) -> ErrorNorms:
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
    u_err_band = float(np.sqrt(e_u @ (ops.b_h @ e_u)))

    # state truth: the smooth field itself, continued constantly along
    # rays below the inner band edge (it differs from the constant-normal
    # extension of f only at second order in the band depth, since the
    # normal derivative vanishes on the outer circle)
    v_truth = np.zeros(n)
    pts = mesh.vertices[a_v]
    r_clamp = field.geometry.r_inner - field.epsilon
    v_truth[a_v] = truth.v_field(pts, r_min=r_clamp)
    e_v_full = sol.v - v_truth
    b_vv = ops.b_b[np.ix_(a_v, a_v)]
    v_err_band = float(np.sqrt(e_v_full[a_v] @ (b_vv @ e_v_full[a_v])))

    e_v = e_v_full[a_v]
    k_vv = ops.k_omega[np.ix_(a_v, a_v)]
    grad_err = float(np.sqrt(e_v @ (k_vv @ e_v)))

    # dual norm: sqrt(g^T R_H^{-1} g), g the U-pairing of the control
    # error; R_H is solved exactly, by the solve's own factor if it has one
    g = (ops.b_h @ e_u)[a_v]
    if sol.prec is not None and sol.prec.system.ops is ops:
        z = sol.prec.solve_h()(g)
    else:
        z = spla.splu(ops.riesz_h().tocsc()).solve(g)
    u_err_dual = float(np.sqrt(np.abs(g @ z)))

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
