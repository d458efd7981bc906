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
    B_H, B_B = T_inner, T_outer, exact P1 edge masses of the two
               boundary polygons, so mean_vec = row sums of T_inner

All four diffuse forms come from one unconditional pass over the bulk
support: the elements that meet the open ring r_inner - eps < |x| <
r_outer + eps by ``mesh.ring_masks``, the one ring test, which the band
refinement shares.  Cut elements, those meeting an open eps-band, carry
CUT_RULE, with the weights evaluated analytically at its points once for
all four forms; subdivision only serves to resolve the jump of
|grad omega| at the band edges.  The pass walks the cut elements in
blocks of at most BLOCK_POINTS rule points: each block evaluates its
points, phase weights, tensor sums and local masses and writes them into
per-element arrays, so the working memory does not grow with the rule.
Every per-element value reduces over that element's points alone, so
the forms do not depend on the block size, bit for bit.  On the
remaining plateau elements omega = 1 and |grad omega| = 0 exactly, so
the bulk mass is the closed form P1 mass, the band masses vanish and the
stiffness uses the fixed 6-point degree-4 rule.  Elements that never
meet the support of a weight are skipped, so the matrices carry
structural zeros there.  ``OperatorSet.build`` then refuses a band
mass that is identically zero, naming its band, and the active DOF sets
are read off the diagonals.

Diffuse and sharp alike, ``_local_stiffness`` forms every element
stiffness from the tensor sums of ``ConductivityTensor.weighted_sum``
(the polar form of M), and ``_scatter`` builds every element matrix
through COO; ``_ring_mass`` writes a closed polygon's edge mass straight
into CSR, for the sharp solver's two rings and, placed at their node ids
by ``assemble_sharp``, for the annulus alike.
``_sharp_local_stiffness`` gives the sharp element stiffness of any
polar triangles, so the sharp solver reads one angular sector's without
building the annulus.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .geometry import ConductivityTensor, PhaseField, StageError
from .mesh import QuadratureRule, TriMesh, quadrature, ring_masks

ACTIVE_RTOL = 1e-14

# Rule points per block of cut elements: the blocks bound the working
# memory of the cut-element pass, whatever the rule's size.
BLOCK_POINTS = 2 ** 16

# Stiffness rule on plateau elements (omega = 1 there): the 6-point
# degree-4 rule, unsubdivided.  Against the subdivided degree-2 rule on
# every element, K moves by at most 3.0e-7 of its largest entry over the
# seven fig7 meshes (h0 = 0.1) and 4.1e-7 at h0 = 0.15, eps = 2^-5 (the
# test bound is 1e-6); an unsubdivided degree-2 rule would give 1e-4.
PLATEAU_RULE = quadrature(4, 1)

# Stiffness rule of the sharp reference on the polar annulus mesh.
SHARP_RULE = quadrature(2, 1)

# The rule on cut elements, for every form, study and check: degree 2 on
# 4 x 4 sub-triangles, 48 points.  ``OperatorSet.build`` applies it; the
# ``rule`` arguments of ``_diffuse_forms`` and the ``assemble_*`` selectors
# exist so that tests can vary it.
CUT_RULE = quadrature(2, 4)

# Closed-form P1 element mass over the element area.
_P1_MASS = (np.ones((3, 3)) + np.eye(3)) / 12.0


class AssemblyError(StageError, RuntimeError):
    stage = "assembly"


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


# Weight kinds, in the order of ``_support_masks``: omega, and
# |grad omega| gamma_H and gamma_B.
KINDS = ("bulk", "H", "B")


def _support_masks(mesh: TriMesh, field: PhaseField) -> list:
    """Element masks (bulk, H, B): the element meets the support of omega,
    the open H-band or the open B-band."""
    geo, eps = field.geometry, field.epsilon
    return ring_masks(mesh.vertices, mesh.triangles,
                      [(geo.r_inner - eps, geo.r_outer + eps),
                       (geo.r_inner - eps, geo.r_inner + eps),
                       (geo.r_outer - eps, geo.r_outer + eps)])


def _support_mask(mesh: TriMesh, field: PhaseField, kind: str) -> np.ndarray:
    """Elements that meet the support of the weight ``kind`` (KINDS)."""
    return _support_masks(mesh, field)[KINDS.index(kind)]


def _scatter(ni: np.ndarray, local: np.ndarray, n: int) -> sp.csr_matrix:
    """Accumulate blocks (m, k, k) on node lists ni (m, k) into CSR."""
    k = ni.shape[1]
    # the index width coo_matrix keeps, so that it copies nothing down
    ni = ni.astype(np.int32 if n < 2 ** 31 else np.int64, copy=False)
    rows = np.repeat(ni, k, axis=1).ravel()
    cols = np.tile(ni, (1, k)).ravel()
    mat = sp.coo_matrix((local.ravel(), (rows, cols)), shape=(n, n))
    return mat.tocsr()


def _local_stiffness(areas: np.ndarray, grads: np.ndarray,
                     m_sum: np.ndarray) -> np.ndarray:
    """P1 element stiffness (m, 3, 3) of the tensor sums m_sum:
    grads (area m_sum) grads^T; ``_scatter`` assembles it."""
    if not np.all(np.isfinite(m_sum)):
        raise AssemblyError("conductivity tensor sums are not finite")
    return grads @ (areas[:, None, None] * m_sum) @ grads.transpose(0, 2, 1)


@dataclass
class _Elements:
    """Elements of one assembly pass, split into cut and plateau ones.

    Cut elements meet an open band; the subdivided rule (CUT_RULE) runs
    there, block by block (``cut_blocks``).  Plateau elements lie in
    r_inner + eps <= |x| <= r_outer - eps, where omega = 1 and
    |grad omega| = 0 exactly.
    """

    tris: np.ndarray        # (m, 3) vertex ids, in mesh order
    areas: np.ndarray       # (m,)
    grads: np.ndarray       # (m, 3, 2)
    cut: np.ndarray         # (m,) bool
    in_h: np.ndarray        # (m,) bool: meets the H-band (always cut)
    in_b: np.ndarray        # (m,) bool: meets the B-band (always cut)

    @classmethod
    def select(cls, mesh: TriMesh, field: PhaseField) -> "_Elements":
        """The bulk support of ``field`` on ``mesh``."""
        in_bulk, in_h, in_b = _support_masks(mesh, field)
        ids = np.flatnonzero(in_bulk)
        tris, areas, grads = _element_geometry(mesh, ids)
        in_h, in_b = in_h[ids], in_b[ids]
        return cls(tris, areas, grads, in_h | in_b, in_h, in_b)

    def cut_blocks(self, mesh: TriMesh, field: PhaseField,
                   rule: QuadratureRule):
        """Yield (rows, points, omega, gradmag) for consecutive blocks of
        cut elements, at most BLOCK_POINTS rule points (and at least one
        element) each: ``rows`` are the block's element indices, points
        (b, q, 2) the rule points and omega, gradmag (b, q) the phase
        weights there."""
        cut = np.flatnonzero(self.cut)
        size = max(1, BLOCK_POINTS // len(rule.weights))
        for start in range(0, len(cut), size):
            rows = cut[start:start + size]
            points = _quad_points(mesh, self.tris[rows], rule)
            _, omega, gradmag = field.phase_and_weights(points)
            yield rows, points, omega, gradmag

    def in_band(self, which: str) -> np.ndarray:
        return self.in_h if which == "H" else self.in_b

    def band_weights(self, which: str, field: PhaseField, rows, points,
                     gradmag):
        """(hit, weight): the block's elements in the ``which``-band, as a
        mask over ``rows``, and |grad omega| gamma_which at their points."""
        hit = self.in_band(which)[rows]
        gamma = field.geometry.boundary_weight(which, points[hit])
        return hit, gradmag[hit] * gamma

    def plateau_points(self, mesh: TriMesh) -> np.ndarray:
        return _quad_points(mesh, self.tris[~self.cut], PLATEAU_RULE)


def _diffuse_forms(mesh: TriMesh, field: PhaseField, rule: QuadratureRule,
                   tensor: ConductivityTensor):
    """(K_omega, M_omega, B_H, B_B) of one (mesh, eps), from one pass over
    the bulk support; K_omega is the stiffness of ``tensor``.

    Cut elements use ``rule``, one block at a time; every block fills its
    rows of the per-element tensor sums and local matrices.  On plateau
    elements the bulk mass is the closed-form P1 mass and the stiffness
    uses PLATEAU_RULE, whose only error there is that of integrating the
    smooth tensor M(x).
    """
    el = _Elements.select(mesh, field)
    cut, areas, n = el.cut, el.areas, mesh.num_vertices
    lam = rule.points
    lam_w = rule.weights[:, None, None] * lam[:, :, None] * lam[:, None, :]
    m_eff = np.empty((len(areas), 2, 2))
    local_m = np.empty((len(areas), 3, 3))
    band_local = {which: np.empty((int(el.in_band(which).sum()), 3, 3))
                  for which in "HB"}
    filled = dict.fromkeys("HB", 0)
    for rows, points, omega, gradmag in el.cut_blocks(mesh, field, rule):
        m_eff[rows] = tensor.weighted_sum(points, rule.weights * omega)
        local_m[rows] = np.einsum("mq,qij->mij", omega, lam_w)
        for which, local in band_local.items():
            hit, weight = el.band_weights(which, field, rows, points,
                                          gradmag)
            block = np.einsum("mq,qij->mij", weight, lam_w)
            block *= areas[rows[hit]][:, None, None]
            local[filled[which]:filled[which] + len(block)] = block
            filled[which] += len(block)
    m_eff[~cut] = tensor.weighted_sum(el.plateau_points(mesh),
                                      PLATEAU_RULE.weights)
    local_m[~cut] = _P1_MASS
    local_m *= areas[:, None, None]
    return (_scatter(el.tris, _local_stiffness(areas, el.grads, m_eff), n),
            _scatter(el.tris, local_m, n),
            *(_scatter(el.tris[el.in_band(which)], local, n)
              for which, local in band_local.items()))


def assemble_weighted_stiffness(mesh: TriMesh, tensor: ConductivityTensor,
                                field: PhaseField,
                                rule: QuadratureRule) -> sp.csr_matrix:
    """K[i, j] = int omega * grad phi_j . M grad phi_i dx."""
    return _diffuse_forms(mesh, field, rule, tensor)[0]


def assemble_bulk_mass(mesh: TriMesh, field: PhaseField,
                       rule: QuadratureRule) -> sp.csr_matrix:
    """M[i, j] = int omega * phi_i phi_j dx."""
    return _diffuse_forms(mesh, field, rule, ConductivityTensor.identity())[1]


def assemble_band_mass(mesh: TriMesh, field: PhaseField, which: str,
                       rule: QuadratureRule) -> sp.csr_matrix:
    """B[i, j] = int |grad omega| gamma_which * phi_i phi_j dx."""
    forms = _diffuse_forms(mesh, field, rule, ConductivityTensor.identity())
    return forms[1 + KINDS.index(which)]


def _active_nodes(diagonal: np.ndarray) -> np.ndarray:
    """Nodes whose diagonal entry is above ACTIVE_RTOL of the largest."""
    return np.flatnonzero(diagonal > ACTIVE_RTOL * diagonal.max())


def active_sets(b_h: sp.csr_matrix, k_omega: sp.csr_matrix,
                m_omega: sp.csr_matrix):
    """Index sets of control and state DOFs actually touched by the weights.

    active_u: diagonal of B_H above threshold; active_v: diagonal of
    M_omega + K_omega above threshold.  All solves are restricted to them.
    """
    active_u = _active_nodes(b_h.diagonal())
    active_v = _active_nodes(m_omega.diagonal() + k_omega.diagonal())
    if active_u.size == 0 or active_v.size == 0:
        raise AssemblyError("empty active set")
    return active_u, active_v


@dataclass
class OperatorSet:
    """Assembled operators plus bookkeeping for one (mesh, eps).

    eps = 0 is the sharp reference on the polar annulus mesh (built by
    ``assemble_sharp`` for the sharp forward and adjoint solves only;
    ``field`` is None there).  ``mean_vec`` and the active DOF sets are
    derived from the forms.

    The blocks on the active sets are restricted here, by ``block``, and
    nowhere else; each is restricted at its first read and kept:

        riesz_u   B_H on active_u: the U Gram matrix, the KKT (u, u) block
                  and, on the sharp set, T_inner
        b_vu      B_H on active_v x active_u
        k_vv      K_omega on active_v
        t_vv      B_B on active_v
        riesz_h   K_omega + M_omega on active_v: the H Gram matrix
        mean_col  mean_vec on active_v, as a CSR column

    So is ``_kkt``, the KKT matrix of ``saddle.build_system`` with R_U in
    its (u, u) block (alpha = 1), its arrays read-only: every system on
    the set copies its values and shares its index arrays.  So are the
    package's sparse LU factors, which depend on neither alpha nor the
    data: ``riesz_u_lu`` and ``riesz_h_lu`` (the Riesz
    preconditioner and the dual error norm) and ``mean_lu``, of
    [[k_vv, mean_col], [mean_col^T, 0]] (the mean-constrained solve).
    The two Riesz blocks are SPD, so ``_spd_lu`` factors them in
    symmetric mode: minimum degree on A^T + A, diagonal pivots.
    ``mean_lu`` keeps partial pivoting, as its multiplier row has a
    zero diagonal.
    """

    mesh: TriMesh
    field: PhaseField
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
              tensor: ConductivityTensor) -> "OperatorSet":
        """The diffuse operator set, with CUT_RULE on the cut elements; a
        band whose mass is identically zero (the mesh misses it, or eps
        is misconfigured) is refused."""
        forms = _diffuse_forms(mesh, field, CUT_RULE, tensor)
        for which, mat in zip("HB", forms[2:]):
            if mat.diagonal().max() <= 0.0:
                raise AssemblyError(f"{which}-band mass is identically zero")
        return cls(mesh, field, *forms)

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
    def _kkt(self) -> sp.csr_matrix:
        m_col = self.mean_col
        kkt = sp.bmat([
            [self.riesz_u, None, -self.b_vu.T, None, None],
            [None, self.t_vv, self.k_vv, m_col, None],
            [-self.b_vu, self.k_vv, None, None, m_col],
            [None, m_col.T, None, None, None],
            [None, None, m_col.T, None, None],
        ], format="csr")
        for array in (kkt.data, kkt.indices, kkt.indptr):
            array.flags.writeable = False
        return kkt

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


def _ring_mass(points: np.ndarray) -> sp.csr_matrix:
    """Exact P1 mass of the closed polygon through ``points`` (nb, 2),
    written straight into nb x nb CSR: row j holds ell_{j-1}/6,
    ell_{j-1}/3 + ell_j/3 and ell_j/6 at columns j - 1, j, j + 1 mod nb,
    sorted (the wrap rows 0 and nb - 1 reordered), ell_j the length of
    edge (j, j + 1 mod nb).  Each entry sums the same one or two terms as
    the edge-by-edge scatter of ell [[1/3, 1/6], [1/6, 1/3]]: same bits."""
    nb = len(points)
    loop = np.arange(-1, nb + 1)    # index k of d, ell: edge k - 1 mod nb
    loop[0], loop[-1] = nb - 1, 0
    ends = points.take(loop, axis=0)
    d = ends[:-1] - ends[1:]
    ell = np.sqrt((d[:, None] @ d[:, :, None]).ravel())  # norm(d[e]) exactly
    third, sixth = ell / 3.0, ell / 6.0
    data, cols = np.empty((nb, 3)), np.empty((nb, 3), dtype=np.int32)
    data[:, 0], data[:, 1], data[:, 2] = (sixth[:-1], third[:-1] + third[1:],
                                          sixth[1:])
    cols[:, 0], cols[:, 1], cols[:, 2] = loop[:-2], loop[1:-1], loop[2:]
    for row, order in ((0, [1, 2, 0]), (-1, [2, 0, 1])):
        data[row], cols[row] = data[row, order], cols[row, order]
    return sp.csr_matrix((data.ravel(), cols.ravel(),
                          np.arange(0, 3 * nb + 1, 3, dtype=np.int32)),
                         shape=(nb, nb))


def assemble_sharp(mesh: TriMesh, tensor: ConductivityTensor,
                   inner: np.ndarray, outer: np.ndarray) -> OperatorSet:
    """The eps = 0 operator set on the polar annulus mesh: the annulus
    stiffness and mass, which ``SharpSolver.ops`` builds for the sharp
    forward and adjoint solves, and the inner and outer ring masses, each
    ``_ring_mass`` of a ring's nodes (ascending in increasing angle, as
    ``mesh_annulus`` numbers them, so the placed columns stay sorted).

    Its active sets are the inner ring (control) and all nodes (state).
    """
    tris, areas, local = _sharp_local_stiffness(mesh, tensor)
    n = mesh.num_vertices
    masses = []
    for nodes in (inner, outer):
        ring = _ring_mass(mesh.vertices[nodes])
        indptr = 3 * np.searchsorted(nodes, np.arange(n + 1))
        masses.append(sp.csr_matrix((ring.data, nodes[ring.indices], indptr),
                                    shape=(n, n)))
    return OperatorSet(mesh, None, _scatter(tris, local, n),
                       _scatter(tris, areas[:, None, None] * _P1_MASS, n),
                       *masses)


def _sharp_local_stiffness(mesh: TriMesh, tensor: ConductivityTensor):
    """(tris, areas, local): the sharp reference's element stiffness, by
    SHARP_RULE, of every triangle of ``mesh``."""
    tris, areas, grads = _element_geometry(mesh)
    m_sum = tensor.weighted_sum(_quad_points(mesh, tris, SHARP_RULE),
                                SHARP_RULE.weights)
    return tris, areas, _local_stiffness(areas, grads, m_sum)
