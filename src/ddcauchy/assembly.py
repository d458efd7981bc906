"""P1 finite-element assembly of the weighted bilinear forms.

Diffuse forms on the background mesh:

    K_omega  = <M grad u, grad v> weighted by omega       (stiffness)
    M_omega  = <u, v>             weighted by omega       (bulk mass)
    B_H, B_B = <u, v> weighted by |grad omega| gamma_H/B  (band masses)
    mean_vec = <basis_i, 1> in the U-norm = row sums of B_H

The sharp reference (eps = 0) is the same OperatorSet on the polar
annulus mesh, where |grad omega| gamma_H and |grad omega| gamma_B become
the measures of the inner and outer circles:

    K_omega  = K_D, the stiffness of M on the exact annulus
    M_omega  = the P1 mass of the annulus
    B_H, B_B = T_inner, T_outer, exact P1 edge masses of the tagged
               polygons, so mean_vec = row sums of T_inner

All diffuse forms come from one pass over the bulk support (elements
whose radial interval meets r_inner - eps < |x| < r_outer + eps).  Cut
elements, those meeting an open eps-band, carry the configured
subdivided rule, with the weights evaluated analytically at its points
once for all four forms; subdivision only serves to resolve the jump of
|grad omega| at the band edges.  On the remaining plateau elements
omega = 1 and |grad omega| = 0 exactly, so the bulk mass is the closed
form P1 mass, the band masses vanish and the stiffness uses the fixed
6-point degree-4 rule.  Elements that never meet the support of a weight
are skipped, so the matrices carry structural zeros there.  Active DOF
sets are read off the diagonals afterwards.

Diffuse and sharp alike, ``_stiffness`` forms every local stiffness
from the tensor sums of ``ConductivityTensor.weighted_sum`` (the polar
form of M), and ``_scatter`` builds every element and edge matrix.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .geometry import ConductivityTensor, PhaseField
from .mesh import QuadratureRule, TriMesh, _radial_interval, quadrature

ACTIVE_RTOL = 1e-14

# Stiffness rule on plateau elements (omega = 1 there): the 6-point
# degree-4 rule, unsubdivided.  Against the subdivided degree-2 rule on
# every element, K moves by at most 3.0e-7 of its largest entry over the
# seven fig7 meshes (h0 = 0.1) and 4.1e-7 at h0 = 0.15, eps = 2^-5 (the
# test bound is 1e-6); an unsubdivided degree-2 rule would give 1e-4.
PLATEAU_RULE = quadrature(4, 1)

# Stiffness rule of the sharp reference on the polar annulus mesh.
SHARP_RULE = quadrature(2, 1)

# Closed-form P1 element mass over the element area.
_P1_MASS = (np.ones((3, 3)) + np.eye(3)) / 12.0


class AssemblyError(RuntimeError):
    pass


def _element_geometry(mesh: TriMesh, tri_ids=None):
    """Areas and constant P1 gradients per element.

    Returns (ids, areas, grads) with grads of shape (m, 3, 2):
    grads[e, i] is the gradient of the hat function of local vertex i.
    """
    tris = mesh.triangles if tri_ids is None else mesh.triangles[tri_ids]
    p = mesh.vertices[tris]
    v0, v1, v2 = p[:, 0], p[:, 1], p[:, 2]
    det = ((v1[:, 0] - v0[:, 0]) * (v2[:, 1] - v0[:, 1])
           - (v2[:, 0] - v0[:, 0]) * (v1[:, 1] - v0[:, 1]))
    if np.any(det <= 0):
        raise AssemblyError("mesh contains non-positively oriented triangles")
    areas = 0.5 * det
    grads = np.empty((len(tris), 3, 2))
    grads[:, 0, 0] = (v1[:, 1] - v2[:, 1]) / det
    grads[:, 0, 1] = (v2[:, 0] - v1[:, 0]) / det
    grads[:, 1, 0] = (v2[:, 1] - v0[:, 1]) / det
    grads[:, 1, 1] = (v0[:, 0] - v2[:, 0]) / det
    grads[:, 2, 0] = (v0[:, 1] - v1[:, 1]) / det
    grads[:, 2, 1] = (v1[:, 0] - v0[:, 0]) / det
    return tris, areas, grads


def _quad_points(mesh: TriMesh, tris: np.ndarray, rule: QuadratureRule):
    """Physical quadrature points, shape (m, q, 2)."""
    return np.matmul(rule.points, mesh.vertices[tris])


def _support_masks(mesh: TriMesh, field: PhaseField):
    """Element masks (bulk, H, B): the element's radial interval meets the
    support of omega, of the open H-band or of the open B-band."""
    r_low, r_high = _radial_interval(mesh.vertices, mesh.triangles)
    geo = field.geometry
    eps = field.epsilon

    def meets(lo, hi):
        return (r_high > lo) & (r_low < hi)

    return (meets(geo.r_inner - eps, geo.r_outer + eps),
            meets(geo.r_inner - eps, geo.r_inner + eps),
            meets(geo.r_outer - eps, geo.r_outer + eps))


def _support_mask(mesh: TriMesh, field: PhaseField, kind: str) -> np.ndarray:
    """Elements whose radial interval meets the support of the weight
    (kind 'bulk', 'H' or 'B')."""
    bulk, in_h, in_b = _support_masks(mesh, field)
    return {"bulk": bulk, "H": in_h, "B": in_b}[kind]


def _scatter(ni: np.ndarray, local: np.ndarray, n: int) -> sp.csr_matrix:
    """Accumulate blocks (m, k, k) on node lists ni (m, k) into CSR."""
    k = ni.shape[1]
    rows = np.repeat(ni, k, axis=1).ravel()
    cols = np.tile(ni, (1, k)).ravel()
    mat = sp.coo_matrix((local.ravel(), (rows, cols)), shape=(n, n))
    return mat.tocsr()


def _stiffness(tris: np.ndarray, areas: np.ndarray, grads: np.ndarray,
               m_sum: np.ndarray, n: int) -> sp.csr_matrix:
    """P1 stiffness of the tensor sums m_sum: grads (area m_sum) grads^T."""
    if not np.all(np.isfinite(m_sum)):
        raise AssemblyError("conductivity tensor sums are not finite")
    local = grads @ (areas[:, None, None] * m_sum) @ grads.transpose(0, 2, 1)
    return _scatter(tris, local, n)


@dataclass
class _Elements:
    """Elements of one assembly pass, split into cut and plateau ones.

    Cut elements meet an open band; the configured (subdivided) rule runs
    there, and ``omega``/``gradmag`` hold the phase weights at its points.
    Plateau elements lie in r_inner + eps <= |x| <= r_outer - eps, where
    omega = 1 and |grad omega| = 0 exactly.
    """

    tris: np.ndarray        # (m, 3) vertex ids, in mesh order
    areas: np.ndarray       # (m,)
    grads: np.ndarray       # (m, 3, 2)
    cut: np.ndarray         # (m,) bool
    in_h: np.ndarray        # (m,) bool: meets the H-band (always cut)
    in_b: np.ndarray        # (m,) bool: meets the B-band (always cut)
    points: np.ndarray      # (c, q, 2) rule points on the cut elements
    omega: np.ndarray       # (c, q)
    gradmag: np.ndarray     # (c, q)

    @classmethod
    def select(cls, mesh: TriMesh, field: PhaseField,
               rule: QuadratureRule) -> "_Elements":
        """The bulk support of ``field`` on ``mesh``, with ``rule`` on its
        cut elements."""
        in_bulk, in_h, in_b = _support_masks(mesh, field)
        ids = np.flatnonzero(in_bulk)
        tris, areas, grads = _element_geometry(mesh, ids)
        in_h, in_b = in_h[ids], in_b[ids]
        cut = in_h | in_b
        points = _quad_points(mesh, tris[cut], rule)
        _, omega, gradmag = field.phase_and_weights(points)
        return cls(tris, areas, grads, cut, in_h, in_b, points, omega,
                   gradmag)

    def plateau_points(self, mesh: TriMesh) -> np.ndarray:
        return _quad_points(mesh, self.tris[~self.cut], PLATEAU_RULE)


def _diffuse_forms(mesh: TriMesh, field: PhaseField, rule: QuadratureRule,
                   tensor: ConductivityTensor = None, mass: bool = False,
                   bands=()) -> dict:
    """Diffuse forms of one (mesh, eps) from one pass over the bulk support.

    Returns a dict with 'k' (stiffness of ``tensor``, if given), 'm'
    (bulk mass, if ``mass``) and one band mass per entry of ``bands``
    ('H', 'B').
    Cut elements use ``rule``; on plateau elements the bulk mass is the
    closed-form P1 mass and the stiffness uses PLATEAU_RULE, whose only
    error there is that of integrating the smooth tensor M(x).
    """
    el = _Elements.select(mesh, field, rule)
    cut, areas, n = el.cut, el.areas, mesh.num_vertices
    lam = rule.points
    lam_w = rule.weights[:, None, None] * lam[:, :, None] * lam[:, None, :]
    out = {}
    if tensor is not None:
        m_eff = np.empty((len(areas), 2, 2))
        m_eff[cut] = tensor.weighted_sum(el.points, rule.weights * el.omega)
        m_eff[~cut] = tensor.weighted_sum(el.plateau_points(mesh),
                                          PLATEAU_RULE.weights)
        out["k"] = _stiffness(el.tris, areas, el.grads, m_eff, n)
    if mass:
        local = np.empty((len(areas), 3, 3))
        local[cut] = np.einsum("mq,qij->mij", el.omega, lam_w)
        local[~cut] = _P1_MASS
        local *= areas[:, None, None]
        out["m"] = _scatter(el.tris, local, n)
    for which in bands:
        in_band = el.in_h if which == "H" else el.in_b
        if not in_band.any():
            raise AssemblyError(f"no elements meet the {which}-band; "
                                f"eps or the mesh is misconfigured")
        rows = in_band[cut]
        gamma = field.geometry.boundary_weight(which, el.points[rows])
        local = np.einsum("mq,qij->mij", el.gradmag[rows] * gamma, lam_w)
        local *= areas[cut][rows][:, None, None]
        mat = _scatter(el.tris[cut][rows], local, n)
        if mat.diagonal().max() <= 0.0:
            raise AssemblyError(f"{which}-band mass is identically zero")
        out[which] = mat
    return out


def assemble_weighted_stiffness(mesh: TriMesh, tensor: ConductivityTensor,
                                field: PhaseField,
                                rule: QuadratureRule) -> sp.csr_matrix:
    """K[i, j] = int omega * grad phi_j . M grad phi_i dx."""
    return _diffuse_forms(mesh, field, rule, tensor=tensor)["k"]


def assemble_bulk_mass(mesh: TriMesh, field: PhaseField,
                       rule: QuadratureRule) -> sp.csr_matrix:
    """M[i, j] = int omega * phi_i phi_j dx."""
    return _diffuse_forms(mesh, field, rule, mass=True)["m"]


def assemble_band_mass(mesh: TriMesh, field: PhaseField, which: str,
                       rule: QuadratureRule) -> sp.csr_matrix:
    """B[i, j] = int |grad omega| gamma_which * phi_i phi_j dx."""
    return _diffuse_forms(mesh, field, rule, bands=(which,))[which]


def diffuse_functional(mesh: TriMesh, field: PhaseField, integrand,
                       kind: str, rule: QuadratureRule) -> float:
    """int g * omega dx (kind='bulk') or int g |grad omega| gamma dx
    (kind='band_H'/'band_B'), with the cut/plateau split of the forms."""
    if kind not in ("bulk", "band_H", "band_B"):
        raise ValueError(f"unknown kind {kind!r}")

    def g(points):
        vals = np.asarray(integrand(points.reshape(-1, 2)), dtype=float)
        return vals.reshape(points.shape[:2])

    el = _Elements.select(mesh, field, rule)
    if kind == "bulk":
        weight = el.omega
        plateau = np.einsum("q,mq,m->", PLATEAU_RULE.weights,
                            g(el.plateau_points(mesh)), el.areas[~el.cut])
    else:
        weight = el.gradmag * field.geometry.boundary_weight(kind[-1],
                                                             el.points)
        plateau = 0.0
    cut = np.einsum("q,mq,mq,m->", rule.weights, weight, g(el.points),
                    el.areas[el.cut])
    return float(cut + plateau)


def active_sets(b_h: sp.csr_matrix, k_omega: sp.csr_matrix,
                m_omega: sp.csr_matrix):
    """Index sets of control and state DOFs actually touched by the weights.

    active_u: diagonal of B_H above threshold; active_v: diagonal of
    M_omega + K_omega above threshold.  All solves are restricted to them.
    """
    du = b_h.diagonal()
    dv = (m_omega + k_omega).diagonal()
    active_u = np.flatnonzero(du > ACTIVE_RTOL * du.max())
    active_v = np.flatnonzero(dv > ACTIVE_RTOL * dv.max())
    if active_u.size == 0 or active_v.size == 0:
        raise AssemblyError("empty active set")
    return active_u, active_v


@dataclass
class OperatorSet:
    """Assembled operators plus bookkeeping for one (mesh, eps).

    eps = 0 is the sharp reference on the polar annulus mesh (built by
    ``assemble_sharp``; ``field`` is None there).  ``mean_vec`` and the
    active DOF sets are derived from the forms.

    The blocks on the active sets are restricted here, by ``block``, and
    nowhere else; each is restricted at its first read and kept:

        riesz_u   B_H on active_u: the U Gram matrix, the KKT (u, u) block
                  and, on the sharp set, T_inner
        b_vu      B_H on active_v x active_u
        k_vv      K_omega on active_v
        t_vv      B_B on active_v
        riesz_h   K_omega + M_omega on active_v: the H Gram matrix
        mean_col  mean_vec on active_v, as a CSR column

    So are the package's sparse LU factors, which depend on neither alpha
    nor the data: ``riesz_u_lu`` and ``riesz_h_lu`` (the Riesz
    preconditioner and the dual error norm) and ``mean_lu``, of
    [[k_vv, mean_col], [mean_col^T, 0]] (the mean-constrained solve).
    The two Riesz blocks are SPD, so ``_spd_lu`` factors them in
    symmetric mode: minimum degree on A^T + A, diagonal pivots.
    ``mean_lu`` keeps partial pivoting, as its multiplier row has a
    zero diagonal.
    """

    mesh: TriMesh
    field: PhaseField
    rule: QuadratureRule
    k_omega: sp.csr_matrix
    m_omega: sp.csr_matrix
    b_h: sp.csr_matrix
    b_b: sp.csr_matrix
    mean_vec: np.ndarray = dataclasses.field(init=False)
    active_u: np.ndarray = dataclasses.field(init=False)
    active_v: np.ndarray = dataclasses.field(init=False)

    def __post_init__(self):
        self.mean_vec = np.asarray(self.b_h.sum(axis=1)).ravel()
        self.active_u, self.active_v = active_sets(self.b_h, self.k_omega,
                                                   self.m_omega)

    @classmethod
    def build(cls, mesh: TriMesh, field: PhaseField,
              tensor: ConductivityTensor,
              rule: QuadratureRule) -> "OperatorSet":
        forms = _diffuse_forms(mesh, field, rule, tensor=tensor, mass=True,
                               bands=("H", "B"))
        return cls(mesh, field, rule, forms["k"], forms["m"],
                   forms["H"], forms["B"])

    @staticmethod
    def block(mat: sp.spmatrix, rows: np.ndarray,
              cols: np.ndarray) -> sp.csr_matrix:
        """``mat`` restricted to ``rows`` x ``cols``."""
        return mat[np.ix_(rows, cols)].tocsr()

    @functools.cached_property
    def riesz_u(self) -> sp.csr_matrix:
        return self.block(self.b_h, self.active_u, self.active_u)

    @functools.cached_property
    def b_vu(self) -> sp.csr_matrix:
        return self.block(self.b_h, self.active_v, self.active_u)

    @functools.cached_property
    def k_vv(self) -> sp.csr_matrix:
        return self.block(self.k_omega, self.active_v, self.active_v)

    @functools.cached_property
    def t_vv(self) -> sp.csr_matrix:
        return self.block(self.b_b, self.active_v, self.active_v)

    @functools.cached_property
    def riesz_h(self) -> sp.csr_matrix:
        return self.block(self.k_omega + self.m_omega, self.active_v,
                          self.active_v)

    @functools.cached_property
    def mean_col(self) -> sp.csr_matrix:
        return sp.csr_matrix(self.mean_vec[self.active_v][:, None])

    @functools.cached_property
    def riesz_u_lu(self) -> spla.SuperLU:
        return _spd_lu(self.riesz_u)

    @functools.cached_property
    def riesz_h_lu(self) -> spla.SuperLU:
        return _spd_lu(self.riesz_h)

    @functools.cached_property
    def mean_lu(self) -> spla.SuperLU:
        # MMD on A^T + A halves the fill on the polar sharp mesh; pivoting
        # stays partial, as the multiplier row has a zero diagonal
        aug = sp.bmat([[self.k_vv, self.mean_col], [self.mean_col.T, None]],
                      format="csc")
        return spla.splu(aug, permc_spec="MMD_AT_PLUS_A")


def _spd_lu(block: sp.spmatrix) -> spla.SuperLU:
    """LU of an SPD block in SuperLU's symmetric mode.

    Minimum degree on A^T + A orders the columns, and the pivots stay on
    the diagonal, so the row order is the column order and L + U keeps
    the fill of a Cholesky factor (Davis, Direct Methods for Sparse
    Linear Systems, ch. 7).
    """
    return spla.splu(block.tocsc(), permc_spec="MMD_AT_PLUS_A",
                     diag_pivot_thresh=0.0,
                     options={"SymmetricMode": True})


def _edge_mass(mesh: TriMesh, tag: str) -> sp.csr_matrix:
    """Exact P1 mass of a tagged boundary: ell [[1/3, 1/6], [1/6, 1/3]]."""
    edges = np.array([(i, j) for i, j, t in mesh.boundary_edges if t == tag])
    if not edges.size:
        raise AssemblyError(f"no boundary edges tagged {tag!r}")
    d = mesh.vertices[edges[:, 0]] - mesh.vertices[edges[:, 1]]
    ell = np.sqrt((d[:, None] @ d[:, :, None]).ravel())  # norm(d[e]) exactly
    blocks = ell[:, None, None] / np.array([[3.0, 6.0], [6.0, 3.0]])
    return _scatter(edges, blocks, mesh.num_vertices)


def assemble_sharp(mesh: TriMesh,
                   tensor: ConductivityTensor) -> OperatorSet:
    """The eps = 0 operator set on the polar annulus mesh.

    Its active sets are the inner ring (control) and all nodes (state);
    ``mesh_annulus`` numbers each ring in increasing angle.
    """
    tris, areas, grads = _element_geometry(mesh)
    m_sum = tensor.weighted_sum(_quad_points(mesh, tris, SHARP_RULE),
                                SHARP_RULE.weights)
    n = mesh.num_vertices
    return OperatorSet(mesh, None, SHARP_RULE,
                       _stiffness(tris, areas, grads, m_sum, n),
                       _scatter(tris, areas[:, None, None] * _P1_MASS, n),
                       _edge_mass(mesh, "inner"), _edge_mass(mesh, "outer"))
