"""Reference implementations that the tests compare the package against,
each a plain function kept here once, beside the tests that use it."""

import numpy as np
import scipy.sparse as sp

from ddcauchy.assembly import KINDS, PLATEAU_RULE, _Elements
from ddcauchy.geometry import ring_diffuse_integral
from ddcauchy.mesh import _SPLITS, MeshError, TriMesh, _edge_numbering


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


def riesz_matrix(system) -> sp.csr_matrix:
    """The Riesz (not inverted) block matrix of ``system``, SPD on the
    active sets, built from the operator set's blocks without a factor;
    ``saddle.spectrum`` factors the blocks instead."""
    ops = system.ops
    scale = sp.identity(2, format="csr") * system.mult_scale
    return sp.block_diag([ops.riesz_u, ops.riesz_h, ops.riesz_h, scale],
                         format="csr")


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
