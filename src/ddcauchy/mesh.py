"""Conforming 2D triangulations and triangle quadrature.

Two mesh families are provided:

* a uniform background mesh of the bounding box (each square cell split
  into two right-isosceles triangles along the same diagonal), refined
  red-green-blue around the phase-field band ({|d| < 2 eps} plus the
  conforming closure), used for all diffuse computations;
* a structured polar mesh of the exact annulus, used by the sharp
  reference solver's forward and adjoint solves.  Its grid
  (``_polar_grid``, ``_polar_points``), cell split (``_polar_cells``) and
  ring edges (``_ring_edges``) are shared with that solver, which builds
  its boundary rings and one angular sector from them without the mesh
  and hands the rings' edges to ``assembly.assemble_sharp``.

Band refinement works on whole arrays, one step at a time: marked edges
are closed under "any marked edge marks the triangle's longest edge",
then every triangle is split green (longest edge bisected), blue (longest
edge and one leg) or red (quartered through all three midpoints).  Every
child of a right-isosceles triangle is right-isosceles again, so the
refined meshes keep a minimum angle of 45 degrees.

The per-triangle kernels (radial interval, angles, edge numbering,
longest edge) read each triangle's three corners once, as 1-D columns
(``_corners``), and write every reduction over the corners out as
elementwise arithmetic on those columns: ``np.maximum`` chains for
``max(axis=1)``, ``a + b`` for a length-2 ``sum``, ``|`` for ``any``.
In numpy 2.4 a reduction over an axis of length 2 or 3 costs ten to
forty times the same arithmetic done column by column.  Each expression
keeps the order of the reduction it replaces (dot products as
``ax*bx + ay*by``, the first maximum winning ties), so the results are
the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .geometry import AnnulusGeometry, PhaseField, StageError

BBOX_HALF = 1.5  # background box is [-1.5, 1.5]^2
MAX_VERTICES = 4_000_000


class MeshError(StageError, ValueError):
    stage = "mesh"


def _corners(vertices: np.ndarray, tris: np.ndarray):
    """Corner coordinates (x, y), each (3, m): row k is corner k of every
    triangle, a contiguous column."""
    idx = np.ascontiguousarray(tris.T)
    return vertices[:, 0][idx], vertices[:, 1][idx]


@dataclass
class TriMesh:
    """Conforming triangulation.

    vertices    (n, 2) float coordinates
    triangles   (m, 3) int vertex indices, counterclockwise
    generation  per-triangle number of bisections since the background
                triangle (a green split adds 1, a red 2)
    """

    vertices: np.ndarray
    triangles: np.ndarray
    generation: np.ndarray = None

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float)
        self.triangles = np.asarray(self.triangles, dtype=np.int64)
        if self.generation is None:
            self.generation = np.zeros(len(self.triangles), dtype=np.int64)

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_triangles(self) -> int:
        return len(self.triangles)

    def smallest_angles(self) -> np.ndarray:
        """Smallest interior angle of each triangle, in degrees."""
        x, y = _corners(self.vertices, self.triangles)
        angles = []
        for k in range(3):
            # corner k, between the edges to corners k + 1 and k + 2
            ax, ay = x[(k + 1) % 3] - x[k], y[(k + 1) % 3] - y[k]
            bx, by = x[(k + 2) % 3] - x[k], y[(k + 2) % 3] - y[k]
            den = np.sqrt(ax * ax + ay * ay) * np.sqrt(bx * bx + by * by)
            angles.append(np.arccos(np.clip((ax * bx + ay * by) / den,
                                            -1.0, 1.0)))
        return np.degrees(reduce(np.minimum, angles))


def background_vertices(h0: float) -> float:
    """Vertex count (n + 1)^2 of ``build_background``, n = ceil(2w / h0).

    A float, exact for any count under the cap, so that a tiny h0 gives a
    huge count (inf past the float range) instead of an error.
    """
    side = float(np.ceil(2.0 * BBOX_HALF / h0)) + 1.0
    return side * side


def build_background(h0: float) -> TriMesh:
    """Uniform 2-split triangulation of the square [-w, w]^2, w = BBOX_HALF.

    n = ceil(2w / h0) cells per side, (n+1)^2 vertices, 2 n^2 triangles.
    """
    if h0 <= 0:
        raise MeshError(f"h0 must be positive, got {h0}")
    vertices = background_vertices(h0)
    if vertices > MAX_VERTICES:
        raise MeshError(f"h0 = {h0} needs {vertices:.0f} vertices, "
                        f"cap is {MAX_VERTICES}")
    n = math.isqrt(int(vertices)) - 1
    xs = np.linspace(-BBOX_HALF, BBOX_HALF, n + 1)
    xx, yy = np.meshgrid(xs, xs, indexing="ij")
    verts = np.column_stack([xx.ravel(), yy.ravel()])
    # cell corners a = (i, j), b = (i+1, j), c = (i+1, j+1), d = (i, j+1)
    a = np.arange(n)[:, None] * (n + 1) + np.arange(n)
    b, c, d = a + n + 1, a + n + 2, a + 1
    return TriMesh(verts, np.stack([a, b, c, a, c, d], axis=-1).reshape(-1, 3))


def _radial_interval(vertices: np.ndarray, tris: np.ndarray):
    """Exact range [r_low, r_high] of |x| over each triangle."""
    x, y = _corners(vertices, tris)
    rv = [np.hypot(x[k], y[k]) for k in range(3)]
    r_high, r_low = reduce(np.maximum, rv), reduce(np.minimum, rv)
    inside = True
    for k in range(3):
        # edge k from corner a = k to corner k + 1: nearest point to 0
        ax, ay = x[k], y[k]
        abx, aby = x[(k + 1) % 3] - ax, y[(k + 1) % 3] - ay
        denom = abx * abx + aby * aby
        t = np.clip(-(ax * abx + ay * aby) / np.where(denom > 0, denom, 1.0),
                    0.0, 1.0)
        r_low = np.minimum(r_low, np.hypot(ax + t * abx, ay + t * aby))
        # 0 is on the left of (or on) the counterclockwise edge
        inside = inside & (ax * aby - ay * abx >= 0)
    r_low = np.where(inside, 0.0, r_low)
    return r_low, r_high


def ring_masks(vertices: np.ndarray, tris: np.ndarray, rings) -> list:
    """One mask per open ring lo < |x| < hi of ``rings``, pairs (lo, hi):
    the triangles whose radial interval meets that ring.  Band refinement
    and assembly both classify their elements by it."""
    r_low, r_high = _radial_interval(vertices, tris)
    return [(r_high > lo) & (r_low < hi) for lo, hi in rings]


def band_triangles(vertices: np.ndarray, tris: np.ndarray,
                   field: PhaseField, margin: float) -> np.ndarray:
    """Boolean mask of triangles intersecting {|d| < margin}: the two
    open rings of half-width ``margin`` around the circles."""
    geo = field.geometry
    in_h, in_b = ring_masks(vertices, tris,
                            [(r - margin, r + margin)
                             for r in (geo.r_inner, geo.r_outer)])
    return in_h | in_b


MAX_BAND_LEVELS = 6


def levels_for(eps: float, h0: float,
               max_levels: int = MAX_BAND_LEVELS) -> int:
    """Band refinement depth so band triangles resolve eps (h_band <= eps)."""
    if eps >= h0:
        return 0
    return min(max_levels, int(math.ceil(math.log2(h0 / eps))))


def _edge_numbering(tris: np.ndarray, num_vertices: int):
    """(unique_edges, per-triangle edge indices) of a triangle array.

    Edge k of a triangle joins its local vertices k and k + 1 (mod 3);
    unique edges are sorted pairs in lexicographic order.
    """
    t = np.ascontiguousarray(tris.T)
    nxt = t[[1, 2, 0]]  # row k: the other end of edge k
    lo, hi = np.minimum(t, nxt).ravel(), np.maximum(t, nxt).ravel()
    _, first, inv = np.unique(lo * num_vertices + hi,
                              return_index=True, return_inverse=True)
    return np.column_stack([lo[first], hi[first]]), inv.reshape(3, -1).T


def _longest_edge_first(vertices: np.ndarray, tris: np.ndarray) -> np.ndarray:
    """Rotate each (counterclockwise) triangle so its longest edge is (0, 1)."""
    x, y = _corners(vertices, tris)
    dx, dy = x[[1, 2, 0]] - x, y[[1, 2, 0]] - y
    lengths = dx * dx + dy * dy  # (3, m), row k: edge from corner k
    # argmax over the rows, the first maximum winning ties
    first = np.where(lengths[1] > lengths[0], 1, 0)
    first[lengths[2] > np.maximum(lengths[0], lengths[1])] = 2
    cols = (first[:, None] + np.arange(3)) % 3
    return np.take_along_axis(tris, cols, axis=1)


# Children of a triangle (p0, p1, p2) with refinement edge p0-p1, keyed
# by its split edges (bit k: edge k joining p_k and p_k+1), written as
# indices into (p0, p1, p2, m01, m12, m20), each child again with its
# refinement edge first, and the generations each child gains.  Green
# bisects the refinement edge; blue also bisects the half holding the
# split leg; red quarters through all three midpoints.
_SPLITS = {
    0b000: ([(0, 1, 2)], [0]),
    0b001: ([(2, 0, 3), (1, 2, 3)], [1, 1]),
    0b011: ([(2, 0, 3), (3, 1, 4), (2, 3, 4)], [1, 2, 2]),
    0b101: ([(3, 2, 5), (0, 3, 5), (1, 2, 3)], [2, 2, 1]),
    0b111: ([(0, 3, 5), (3, 1, 4), (5, 4, 2), (4, 5, 3)], [2, 2, 2, 2]),
}


QUALITY_FLOOR_DEG = 20.0  # smallest angle refine_band accepts, degrees


def refine_band(mesh: TriMesh, field: PhaseField, levels: int) -> TriMesh:
    """Refine triangles meeting {|d| < 2 eps} to ``levels`` red levels.

    Red-green-blue refinement with the longest edge as refinement edge
    (Funken, Praetorius & Wissgott, CMAM 11, 2011), one array pass per
    step: every band triangle still coarser than the target has all three
    edges marked; the marking is closed so that a triangle with any
    marked edge also has its longest edge marked; each marked edge gets
    one midpoint; every triangle is then split green, blue or red by its
    marked edges, so the result is conforming by construction.  Each
    triangle carries its bisection generation (green +1, red +2) and band
    triangles stop at generation 2 * levels, i.e. at diameter
    h_bg / 2**levels for background diameter h_bg.  On the right-isosceles
    background every child is right-isosceles again, so the minimum angle
    stays 45 degrees.  Refining an already refined mesh continues from its
    ``generation``.

    Raises MeshError if some angle of the result is below
    QUALITY_FLOOR_DEG, naming the worst triangle.
    Intended for background meshes, so the result has no boundary edges.
    Input vertices keep their indices and coordinates; new vertices are
    appended.
    """
    if levels < 0:
        raise MeshError("levels must be >= 0")
    if levels == 0:
        return mesh
    verts = mesh.vertices
    tris = _longest_edge_first(verts, mesh.triangles)
    gen = mesh.generation
    target = 2 * levels
    margin = 2.0 * field.epsilon
    while True:
        coarse = np.flatnonzero(gen < target)
        hit = coarse[band_triangles(verts, tris[coarse], field, margin)]
        if not hit.size:
            break
        uniq, tri_edges = _edge_numbering(tris, len(verts))
        marked = np.zeros(len(uniq), dtype=bool)
        marked[tri_edges[hit]] = True
        while True:
            m0, m1, m2 = (marked[tri_edges[:, k]] for k in range(3))
            need = (m1 | m2) & ~m0  # some edge marked, the longest not
            if not need.any():
                break
            marked[tri_edges[need, 0]] = True
        mid = np.full(len(uniq), -1, dtype=np.int64)
        mid[marked] = len(verts) + np.arange(int(marked.sum()))
        ends = uniq[marked]
        verts = np.vstack([verts, 0.5 * (verts[ends[:, 0]]
                                         + verts[ends[:, 1]])])
        local = np.hstack([tris, mid[tri_edges]])
        # the closure's last pass read the final marks; it leaves only
        # the patterns listed in _SPLITS
        pattern = m0 + 2 * m1 + 4 * m2
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

    out = TriMesh(verts, tris, generation=gen)
    angles = out.smallest_angles()
    worst = int(np.argmin(angles))
    if angles[worst] < QUALITY_FLOOR_DEG:
        raise MeshError(f"quality floor violated: min angle "
                        f"{angles[worst]:.2f} deg (triangle {worst})")
    return out


SHARP_MIN_ANGULAR = 8
SHARP_MIN_RADIAL = 2


def _polar_grid(geometry: AnnulusGeometry, n_angular: int, n_radial: int):
    """(radii, cos theta, sin theta) of the polar grid of ``mesh_annulus``:
    n_radial + 1 ring radii from r_inner to r_outer, and n_angular angles
    in increasing order from 0.  Vertex (ring, j) lies at
    radii[ring] (cos[j], sin[j]); ``_polar_points`` forms them."""
    if n_angular < SHARP_MIN_ANGULAR or n_radial < SHARP_MIN_RADIAL:
        raise MeshError(f"need n_angular >= {SHARP_MIN_ANGULAR} and "
                        f"n_radial >= {SHARP_MIN_RADIAL}")
    radii = np.linspace(geometry.r_inner, geometry.r_outer, n_radial + 1)
    theta = np.linspace(0.0, 2.0 * np.pi, n_angular, endpoint=False)
    return radii, np.cos(theta), np.sin(theta)


def _polar_points(radii: np.ndarray, cos: np.ndarray,
                 sin: np.ndarray) -> np.ndarray:
    """Grid points (len(radii) * len(cos), 2), ring by ring."""
    return np.stack([np.outer(radii, cos), np.outer(radii, sin)],
                    axis=-1).reshape(-1, 2)


def _ring_edges(n_angular: int) -> np.ndarray:
    """The edges (j, j + 1 mod n_angular) of one ring, counterclockwise,
    in angle indices."""
    j = np.arange(n_angular)
    return np.column_stack([j, (j + 1) % n_angular])


def _polar_cells(j: np.ndarray, nxt: np.ndarray, stride: int,
                n_radial: int) -> np.ndarray:
    """The two triangles of every polar cell between angle indices j and
    nxt, ring by ring, for grid points numbered ring * stride + index:
    corners a = (ring, j), b = (ring, nxt) and c, d = b, a one ring out,
    split into (a, d, c) and (a, c, b)."""
    ring = np.arange(n_radial)[:, None] * stride
    a, b = ring + j, ring + nxt
    c, d = b + stride, a + stride
    return np.stack([a, d, c, a, c, b], axis=-1).reshape(-1, 3)


def mesh_annulus(geometry: AnnulusGeometry, n_angular: int,
                 n_radial: int) -> TriMesh:
    """Structured polar triangulation of the exact annulus.

    Vertices lie on n_radial + 1 concentric rings, numbered ring by ring
    from the inner one and in increasing angle in [0, 2 pi) within a
    ring: the inner ring's nodes are 0 .. n_angular - 1, the outer
    ring's the last n_angular.
    """
    verts = _polar_points(*_polar_grid(geometry, n_angular, n_radial))
    ring = _ring_edges(n_angular)
    tris = _polar_cells(ring[:, 0], ring[:, 1], n_angular, n_radial)
    return TriMesh(verts, tris)


# ---------------------------------------------------------------------------
# Triangle quadrature
# ---------------------------------------------------------------------------


def _dunavant6():
    """6-point degree-4 rule, all weights positive."""
    a1, w1 = 0.445948490915965, 0.223381589678011
    a2, w2 = 0.091576213509771, 0.109951743655322
    pts, wts = [], []
    for a, w in ((a1, w1), (a2, w2)):
        b = 1.0 - 2.0 * a
        pts += [[b, a, a], [a, b, a], [a, a, b]]
        wts += [w, w, w]
    return np.array(pts), np.array(wts)


# base rules on the reference triangle, by degree: barycentric points,
# weights sum to 1.  Degree 2 is the 3-point edge-midpoint rule.
_BASE_RULES = {
    2: (np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]]),
        np.array([1 / 3, 1 / 3, 1 / 3])),
    4: _dunavant6(),
}


@dataclass(frozen=True)
class QuadratureRule:
    """Composite rule: a base rule replicated over uniform sub-triangles.

    points are barycentric w.r.t. the parent triangle; weights sum to 1.
    Subdivision tames the band-edge discontinuity of |grad omega|, so the
    diffuse assembly applies its one subdivided rule, ``assembly.CUT_RULE``,
    only on elements cut by an eps-band; elsewhere the weights are
    constant.  ``assembly`` holds the package's three fixed rules.
    """

    points: np.ndarray
    weights: np.ndarray


def quadrature(degree: int, subdivision_count: int = 1) -> QuadratureRule:
    if degree not in _BASE_RULES:
        raise ValueError(f"unsupported quadrature degree {degree}; "
                         f"choose from {sorted(_BASE_RULES)}")
    if subdivision_count < 1:
        raise ValueError("subdivision_count must be >= 1")
    base_pts, base_wts = _BASE_RULES[degree]
    s = subdivision_count
    corners = []
    for i in range(s):
        for j in range(s - i):
            p00 = np.array([i, j]) / s
            p10 = np.array([i + 1, j]) / s
            p01 = np.array([i, j + 1]) / s
            p11 = np.array([i + 1, j + 1]) / s
            corners.append((p00, p10, p01))
            if i + j < s - 1:
                corners.append((p11, p01, p10))
    pts, wts = [], []
    for c0, c1, c2 in corners:
        xy = (base_pts[:, 0:1] * c0 + base_pts[:, 1:2] * c1
              + base_pts[:, 2:3] * c2)
        lam = np.column_stack([1.0 - xy[:, 0] - xy[:, 1], xy[:, 0], xy[:, 1]])
        pts.append(lam)
        wts.append(base_wts / (s * s))
    return QuadratureRule(np.vstack(pts), np.concatenate(wts))
