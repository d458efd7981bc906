"""Reference implementations that the tests compare the package against,
each a plain function kept here once, beside the tests that use it."""

import numpy as np
import scipy.sparse as sp

from ddcauchy.assembly import KINDS, PLATEAU_RULE, _Elements, _scatter
from ddcauchy.geometry import ring_diffuse_integral
from ddcauchy.mesh import _SPLITS, MeshError, TriMesh, _edge_numbering
from ddcauchy.saddle import SaddleError, SaddleSystem, SolveReport, _dot


def _cross2(u, v):
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


def evaluate(tensor, points) -> np.ndarray:
    """Components of ``tensor`` at points, shape (..., 2, 2): the
    pointwise reference for ``ConductivityTensor.weighted_sum``.

    At the origin the frame is undefined; the isotropic average is
    returned there (always multiplied by omega = 0 in assemblies).
    """
    pts = np.asarray(points, dtype=float)
    x, y = pts[..., 0], pts[..., 1]
    r2 = x * x + y * y
    safe = np.where(r2 > 0.0, r2, 1.0)
    c2 = np.where(r2 > 0.0, x * x / safe, 0.5)
    s2 = np.where(r2 > 0.0, y * y / safe, 0.5)
    cs = np.where(r2 > 0.0, x * y / safe, 0.0)
    m = np.empty(pts.shape[:-1] + (2, 2))
    m[..., 0, 0] = tensor.sigma_t * s2 + tensor.sigma_r * c2
    m[..., 1, 1] = tensor.sigma_t * c2 + tensor.sigma_r * s2
    m[..., 0, 1] = (tensor.sigma_r - tensor.sigma_t) * cs
    m[..., 1, 0] = m[..., 0, 1]
    return m


def signed_areas(mesh) -> np.ndarray:
    """Area of each triangle, negative when it is clockwise."""
    p = mesh.vertices[mesh.triangles]
    return 0.5 * _cross2(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])


def diameters(mesh) -> np.ndarray:
    """Longest edge of each triangle."""
    p = mesh.vertices[mesh.triangles]
    e0 = np.linalg.norm(p[:, 1] - p[:, 0], axis=1)
    e1 = np.linalg.norm(p[:, 2] - p[:, 1], axis=1)
    e2 = np.linalg.norm(p[:, 0] - p[:, 2], axis=1)
    return np.maximum(np.maximum(e0, e1), e2)


def check_conforming(mesh) -> None:
    """Audit edge incidence: every edge borders 1 or 2 triangles and
    no vertex sits strictly inside another triangle's edge."""
    uniq, per_tri = _edge_numbering(mesh.triangles, mesh.num_vertices)
    counts = np.bincount(per_tri.ravel(), minlength=len(uniq))
    bad = np.flatnonzero(counts > 2)
    if bad.size:
        raise MeshError(f"edge {tuple(uniq[bad[0]])} shared by "
                        f"{counts[bad[0]]} triangles")
    # match edge midpoints against vertices by rounded coordinates,
    # as complex numbers (+ 0.0 folds -0.0 into 0.0)
    mids = 0.5 * (mesh.vertices[uniq[:, 0]] + mesh.vertices[uniq[:, 1]])
    points = np.round(np.vstack([mesh.vertices, mids]), 12) + 0.0
    _, cls = np.unique(points[:, 0] + 1j * points[:, 1],
                       return_inverse=True)
    vertex_of = np.full(cls.max() + 1, -1, dtype=np.int64)
    vertex_of[cls[:mesh.num_vertices]] = np.arange(mesh.num_vertices)
    k = vertex_of[cls[mesh.num_vertices:]]
    bad = np.flatnonzero((k >= 0) & (k != uniq[:, 0]) & (k != uniq[:, 1]))
    if bad.size:
        i, j = uniq[bad[0]]
        raise MeshError(f"hanging node {k[bad[0]]} on edge ({i}, {j})")


def bulk_integral(field, g) -> float:
    """Quadrature of int g(x) omega(x) dx over the support of omega:
    ring_diffuse_integral over r_inner - eps < r < r_outer + eps."""
    geo = field.geometry
    return ring_diffuse_integral(field, g, geo.r_inner - field.epsilon,
                                 geo.r_outer + field.epsilon)


def radial_flux(field, r, theta) -> np.ndarray:
    """dv/dr of the mode field ``field`` at (r, theta)."""
    r = np.asarray(r, dtype=float)
    theta = np.asarray(theta, dtype=float)
    out = np.zeros(np.broadcast(r, theta).shape)
    for term, prof in field.profiles:
        trig = np.cos if term.kind == "cos" else np.sin
        deriv = prof.mu * (prof.c * r ** (prof.mu - 1.0)
                           - prof.d * r ** (-prof.mu - 1.0))
        out += deriv * trig(term.k * theta)
    return out


def diffuse_functional(mesh, field, integrand, kind: str, rule) -> float:
    """int g * omega dx (kind 'bulk') or int g |grad omega| gamma dx
    (kind 'H' or 'B'), with the cut/plateau split and the cut blocks of
    the forms."""
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}")

    def g(points):
        vals = np.asarray(integrand(points.reshape(-1, 2)), dtype=float)
        return vals.reshape(points.shape[:2])

    el = _Elements.select(mesh, field)
    total = 0.0
    for rows, points, omega, gradmag in el.cut_blocks(mesh, field, rule):
        if kind == "bulk":
            weight = omega
        else:
            hit, weight = el.band_weights(kind, field, rows, points, gradmag)
            rows, points = rows[hit], points[hit]
        total += np.einsum("q,mq,mq,m->", rule.weights, weight, g(points),
                           el.areas[rows])
    if kind == "bulk":
        total += np.einsum("q,mq,m->", PLATEAU_RULE.weights,
                           g(el.plateau_points(mesh)), el.areas[~el.cut])
    return float(total)


def edge_mass(vertices: np.ndarray, edges: np.ndarray) -> sp.csr_matrix:
    """Exact P1 mass of the edges (m, 2) between ``vertices``, edge by
    edge: ell [[1/3, 1/6], [1/6, 1/3]] per edge, scattered through COO
    by ``assembly._scatter`` on len(vertices) nodes."""
    d = vertices[edges[:, 0]] - vertices[edges[:, 1]]
    ell = np.sqrt((d[:, None] @ d[:, :, None]).ravel())
    blocks = ell[:, None, None] / np.array([[3.0, 6.0], [6.0, 3.0]])
    return _scatter(edges, blocks, len(vertices))


def assert_same_csr(got: sp.csr_matrix, want: sp.csr_matrix) -> None:
    """The same CSR matrix, byte for byte: shape, and data, indices and
    indptr with their dtypes."""
    assert got.shape == want.shape
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def riesz_matrix(system) -> sp.csr_matrix:
    """The Riesz (not inverted) block matrix of ``system``, SPD on the
    active sets, built from the operator set's blocks without a factor;
    ``saddle.spectrum`` factors the blocks instead."""
    ops = system.ops
    scale = sp.identity(2, format="csr") * system.mult_scale
    return sp.block_diag([ops.riesz_u, ops.riesz_h, ops.riesz_h, scale],
                         format="csr")


# The spectrum reduction as it was before it reduced only the nonzero
# KKT blocks: triangular solves over a whole dense copy of A.
# ``saddle._reduced_lower`` must give the same lower triangle to
# rounding.

# Columns per row-panel solve of ``reduce_in_place``: each chunk is
# copied to one small contiguous buffer, the only other dense array.
SPECTRUM_CHUNK = 128


def reduce_in_place(a: np.ndarray, system) -> None:
    """Overwrite the Fortran-ordered dense KKT matrix ``a`` with
    C = L^-1 A L^-T, where L L^T is the block Cholesky factor of the
    Riesz matrix diag(R_U, R_H, R_H, mult_scale I) (Golub & Van Loan,
    Matrix Computations, 4th ed., 8.7.2).

    R_U and R_H are factored densely, once each, from copies of the
    operator set's blocks.  The triangular solves run in place on the
    column panels of ``a``, then on its row panels through one buffer,
    a column chunk at a time (a row panel is not contiguous), and the
    multiplier rows and columns are scaled by 1/sqrt(mult_scale).  The
    factors are freed on return.
    """
    from scipy.linalg import cholesky
    from scipy.linalg.blas import dtrsm

    nu, nv = system.nu, system.nv
    l_u, l_h = (cholesky(block.toarray(order="F"), lower=True,
                         overwrite_a=True)
                for block in (system.ops.riesz_u, system.ops.riesz_h))
    panels = ((0, nu, l_u), (nu, nu + nv, l_h), (nu + nv, nu + 2 * nv, l_h))
    for lo, hi, factor in panels:
        dtrsm(1.0, factor, a[:, lo:hi], side=1, lower=1, trans_a=1,
              overwrite_b=1)
    buffer = np.empty(max(nu, nv) * SPECTRUM_CHUNK)
    for lo, hi, factor in panels:
        for c in range(0, a.shape[1], SPECTRUM_CHUNK):
            rows = a[lo:hi, c:c + SPECTRUM_CHUNK]
            chunk = buffer[:rows.size].reshape(rows.shape, order="F")
            chunk[...] = rows
            dtrsm(1.0, factor, chunk, lower=1, overwrite_b=1)
            rows[...] = chunk
    scale = 1.0 / np.sqrt(system.mult_scale)
    a[nu + 2 * nv:, :] *= scale
    a[:, nu + 2 * nv:] *= scale


# The mesh kernels as they were written before they moved to per-corner
# columns: reductions over the corner and coordinate axes.  The column
# kernels in ``mesh`` must give the same bits.


def radial_interval(vertices: np.ndarray, tris: np.ndarray):
    """Exact range [r_low, r_high] of |x| over each triangle."""
    p = vertices[tris]  # (m, 3, 2)
    rv = np.hypot(p[..., 0], p[..., 1])
    r_high = rv.max(axis=1)
    r_low = rv.min(axis=1)
    for k in range(3):
        a = p[:, k]
        b = p[:, (k + 1) % 3]
        ab = b - a
        denom = (ab * ab).sum(axis=1)
        t = np.clip(-(a * ab).sum(axis=1) / np.where(denom > 0, denom, 1.0),
                    0.0, 1.0)
        proj = a + t[:, None] * ab
        r_low = np.minimum(r_low, np.hypot(proj[:, 0], proj[:, 1]))
    d0 = _cross2(p[:, 1] - p[:, 0], -p[:, 0])
    d1 = _cross2(p[:, 2] - p[:, 1], -p[:, 1])
    d2 = _cross2(p[:, 0] - p[:, 2], -p[:, 2])
    inside = (d0 >= 0) & (d1 >= 0) & (d2 >= 0)
    r_low = np.where(inside, 0.0, r_low)
    return r_low, r_high


def smallest_angles(mesh) -> np.ndarray:
    """Smallest interior angle of each triangle, in degrees."""
    p = mesh.vertices[mesh.triangles]
    a = np.roll(p, -1, axis=1) - p
    b = np.roll(p, -2, axis=1) - p
    num = a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1]
    den = np.linalg.norm(a, axis=2) * np.linalg.norm(b, axis=2)
    return np.degrees(np.arccos(np.clip(num / den, -1.0, 1.0)).min(axis=1))


def edge_numbering(tris: np.ndarray, num_vertices: int):
    """(unique_edges, per-triangle edge indices) of a triangle array.

    Edge k of a triangle joins its local vertices k and k + 1 (mod 3);
    unique edges are sorted pairs in lexicographic order.
    """
    raw = np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]])
    raw = np.sort(raw, axis=1)
    _, first, inv = np.unique(raw[:, 0] * num_vertices + raw[:, 1],
                              return_index=True, return_inverse=True)
    return raw[first], inv.reshape(3, -1).T


def longest_edge_first(vertices: np.ndarray, tris: np.ndarray) -> np.ndarray:
    """Rotate each (counterclockwise) triangle so its longest edge is (0, 1)."""
    p = vertices[tris]
    lengths = np.stack([((p[:, (k + 1) % 3] - p[:, k]) ** 2).sum(axis=1)
                        for k in range(3)], axis=1)
    first = np.argmax(lengths, axis=1)
    cols = (first[:, None] + np.arange(3)) % 3
    return np.take_along_axis(tris, cols, axis=1)


def refine_band(mesh, field, levels: int):
    """``mesh.refine_band`` on the kernels above, with the closure and the
    split pattern as row reductions; the quality floor is left out."""
    if levels == 0:
        return mesh
    verts = mesh.vertices
    tris = longest_edge_first(verts, mesh.triangles)
    gen = mesh.generation
    target = 2 * levels
    margin = 2.0 * field.epsilon
    geo = field.geometry
    while True:
        coarse = np.flatnonzero(gen < target)
        r_low, r_high = radial_interval(verts, tris[coarse])
        band = np.zeros(len(coarse), dtype=bool)
        for r in (geo.r_inner, geo.r_outer):
            band |= (r_high > r - margin) & (r_low < r + margin)
        hit = coarse[band]
        if not hit.size:
            break
        uniq, tri_edges = edge_numbering(tris, len(verts))
        marked = np.zeros(len(uniq), dtype=bool)
        marked[tri_edges[hit]] = True
        while True:
            need = marked[tri_edges].any(axis=1) & ~marked[tri_edges[:, 0]]
            if not need.any():
                break
            marked[tri_edges[need, 0]] = True
        mid = np.full(len(uniq), -1, dtype=np.int64)
        mid[marked] = len(verts) + np.arange(int(marked.sum()))
        ends = uniq[marked]
        verts = np.vstack([verts, 0.5 * (verts[ends[:, 0]]
                                         + verts[ends[:, 1]])])
        local = np.hstack([tris, mid[tri_edges]])
        pattern = (local[:, 3:] >= 0) @ np.array([1, 2, 4])
        masks = {code: pattern == code for code in _SPLITS}
        count = np.zeros(len(tris), dtype=np.int64)
        for code, mask in masks.items():
            count[mask] = len(_SPLITS[code][1])
        start = np.cumsum(count) - count
        new_tris = np.empty((int(count.sum()), 3), dtype=np.int64)
        new_gen = np.empty(len(new_tris), dtype=np.int64)
        for code, mask in masks.items():
            children, gains = _SPLITS[code]
            slots = start[mask][:, None] + np.arange(len(gains))
            new_tris[slots] = local[mask][:, children]
            new_gen[slots] = gen[mask][:, None] + gains
        tris, gen = new_tris, new_gen
    return TriMesh(verts, tris, generation=gen)


# The saddle system and MINRES as they were before the KKT matrix was
# kept per operator set and MINRES worked in place: one ``sp.bmat`` per
# alpha, and new vectors every iteration.  ``saddle.build_system`` and
# ``saddle.minres`` must give the same bits.


def build_system(ops, alpha: float, f_tilde: np.ndarray) -> SaddleSystem:
    """``saddle.build_system`` by one ``sp.bmat`` of the blocks at alpha."""
    f_tilde = np.asarray(f_tilde, dtype=float)
    if f_tilde.shape != (ops.mesh.num_vertices,):
        raise SaddleError("f_tilde must be a full-length nodal vector")
    b_vu, k_vv, m_col = ops.b_vu, ops.k_vv, ops.mean_col
    nu, nv = len(ops.active_u), len(ops.active_v)
    mat = sp.bmat([
        [alpha * ops.riesz_u, None, -b_vu.T, None, None],
        [None, ops.t_vv, k_vv, m_col, None],
        [-b_vu, k_vv, None, None, m_col],
        [None, m_col.T, None, None, None],
        [None, None, m_col.T, None, None],
    ], format="csr")
    rhs = np.zeros(mat.shape[0])
    rhs[nu:nu + nv] = (ops.b_b @ f_tilde)[ops.active_v]
    mult_scale = float(ops.mean_vec.sum())
    return SaddleSystem(mat, rhs, nu, nv, ops, alpha, mult_scale)


def minres(system, prec, rho: float, max_iter: int = 2000):
    """``saddle.minres`` with new vectors for every product and sum."""
    if not (0.0 < rho < 1.0):
        raise SaddleError(f"rho must be in (0, 1), got {rho}")
    a = system.matrix
    b = system.rhs
    n = len(b)
    x = np.zeros(n)
    history: list = []

    r1 = b.copy()
    y = prec.apply(r1)
    beta1 = float(np.sqrt(_dot(r1, y)))
    if beta1 == 0.0:
        return x, SolveReport(0, history, True)
    if not np.isfinite(beta1):
        return np.full(n, np.nan), SolveReport(0, history, False)

    oldb = 0.0
    beta = beta1
    dbar = 0.0
    epsln = 0.0
    phibar = beta1
    cs = -1.0
    sn = 0.0
    w = np.zeros(n)
    w2 = np.zeros(n)
    r2 = r1.copy()

    converged = False
    k = 0
    for k in range(1, max_iter + 1):
        s = 1.0 / beta
        v = s * y
        y = a @ v
        if k >= 2:
            y -= (beta / oldb) * r1
        alfa = _dot(v, y)
        y -= (alfa / beta) * r2
        r1 = r2
        r2 = y
        y = prec.apply(r2)
        oldb = beta
        beta2 = _dot(r2, y)
        if beta2 < 0.0:
            raise SaddleError("preconditioner is not positive definite")
        beta = float(np.sqrt(beta2))

        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        gamma = float(np.sqrt(gbar * gbar + beta * beta))
        gamma = max(gamma, np.finfo(float).eps)
        cs = gbar / gamma
        sn = beta / gamma
        phi = cs * phibar
        phibar = sn * phibar

        w1 = w2
        w2 = w
        w = (v - oldeps * w1 - delta * w2) / gamma
        x = x + phi * w

        history.append(phibar / beta1)
        if history[-1] < rho:
            converged = True
            break

    return x, SolveReport(k, history, converged)
