"""Conforming 2D triangulations and triangle quadrature.

Two mesh families are provided:

* a uniform background mesh of the bounding box, refined red-green around
  the phase-field band ({|d| < 2 eps} plus conforming closures), used for
  all diffuse computations;
* a structured polar mesh of the exact annulus with tagged inner/outer
  boundary edges, used by the sharp reference solver.

Red refinement quarters a triangle through its edge midpoints; green
closures bisect neighbours with exactly one hanging node.  Greens are
never refined again (they are recombined first), which keeps the minimum
angle of the criss-cross background mesh above 26 degrees.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .geometry import AnnulusGeometry, PhaseField

BBOX_HALF = 1.5  # background box is [-1.5, 1.5]^2
MAX_VERTICES_DEFAULT = 4_000_000


class MeshError(ValueError):
    pass


def _cross2(u, v):
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


@dataclass
class TriMesh:
    """Conforming triangulation with tagged boundary edges.

    vertices        (n, 2) float coordinates
    triangles       (m, 3) int vertex indices, counterclockwise
    boundary_edges  list of (i, j, tag), tag in {"inner", "outer", "box"}
    refinement_level per-triangle red-refinement depth
    green           per-triangle flag for green closure children
    green_parent    for green triangles, the parent (a, b, c) triple
    metadata        free-form provenance (variant, h0, ...)
    """

    vertices: np.ndarray
    triangles: np.ndarray
    boundary_edges: list
    refinement_level: np.ndarray = None
    green: np.ndarray = None
    green_parent: dict = dc_field(default_factory=dict)
    metadata: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float)
        self.triangles = np.asarray(self.triangles, dtype=np.int64)
        if self.refinement_level is None:
            self.refinement_level = np.zeros(len(self.triangles), dtype=np.int64)
        if self.green is None:
            self.green = np.zeros(len(self.triangles), dtype=bool)

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_triangles(self) -> int:
        return len(self.triangles)

    def signed_areas(self) -> np.ndarray:
        p = self.vertices[self.triangles]
        return 0.5 * _cross2(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])

    def total_area(self) -> float:
        return float(self.signed_areas().sum())

    def diameters(self) -> np.ndarray:
        p = self.vertices[self.triangles]
        e0 = np.linalg.norm(p[:, 1] - p[:, 0], axis=1)
        e1 = np.linalg.norm(p[:, 2] - p[:, 1], axis=1)
        e2 = np.linalg.norm(p[:, 0] - p[:, 2], axis=1)
        return np.maximum(np.maximum(e0, e1), e2)

    def min_angle(self) -> float:
        """Smallest interior angle over all triangles, in degrees."""
        p = self.vertices[self.triangles]
        angles = []
        for k in range(3):
            a = p[:, (k + 1) % 3] - p[:, k]
            b = p[:, (k + 2) % 3] - p[:, k]
            num = a[:, 0] * b[:, 0] + a[:, 1] * b[:, 1]
            den = np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1)
            angles.append(np.arccos(np.clip(num / den, -1.0, 1.0)))
        return float(np.degrees(np.min(angles)))

    def edges(self):
        """(unique_edges, per-triangle edge indices); edges as sorted pairs."""
        t = self.triangles
        raw = np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
        raw = np.sort(raw, axis=1)
        uniq, inv = np.unique(raw, axis=0, return_inverse=True)
        return uniq, inv.reshape(3, -1).T

    def check_conforming(self) -> None:
        """Audit edge incidence: every edge borders 1 or 2 triangles and
        no vertex sits strictly inside another triangle's edge."""
        uniq, per_tri = self.edges()
        counts = np.bincount(per_tri.ravel(), minlength=len(uniq))
        bad = np.flatnonzero(counts > 2)
        if bad.size:
            raise MeshError(f"edge {tuple(uniq[bad[0]])} shared by "
                            f"{counts[bad[0]]} triangles")
        coord_index = {(x, y): i for i, (x, y)
                       in enumerate(map(tuple, np.round(self.vertices, 12)))}
        mids = np.round(0.5 * (self.vertices[uniq[:, 0]]
                               + self.vertices[uniq[:, 1]]), 12)
        for (i, j), (mx, my) in zip(uniq, mids):
            k = coord_index.get((mx, my))
            if k is not None and k not in (i, j):
                raise MeshError(f"hanging node {k} on edge ({i}, {j})")

    def dump(self) -> str:
        """Plain-text serialization with bit-exact float round-trip."""
        out = io.StringIO()
        out.write(f"vertices {self.num_vertices} triangles {self.num_triangles}\n")
        for x, y in self.vertices:
            out.write(f"{x.hex()} {y.hex()}\n")
        for (a, b, c), lev, grn in zip(self.triangles, self.refinement_level,
                                       self.green):
            out.write(f"{a} {b} {c} {lev} {int(grn)}\n")
        out.write(f"boundary_edges {len(self.boundary_edges)}\n")
        for i, j, tag in self.boundary_edges:
            out.write(f"{i} {j} {tag}\n")
        return out.getvalue()

    @classmethod
    def load(cls, text: str) -> "TriMesh":
        lines = text.strip().splitlines()
        head = lines[0].split()
        nv, nt = int(head[1]), int(head[3])
        verts = np.array([[float.fromhex(a) for a in ln.split()]
                          for ln in lines[1:1 + nv]])
        tri_rows = [ln.split() for ln in lines[1 + nv:1 + nv + nt]]
        tris = np.array([[int(r[0]), int(r[1]), int(r[2])] for r in tri_rows])
        levels = np.array([int(r[3]) for r in tri_rows])
        greens = np.array([bool(int(r[4])) for r in tri_rows])
        nb = int(lines[1 + nv + nt].split()[1])
        bedges = []
        for ln in lines[2 + nv + nt:2 + nv + nt + nb]:
            i, j, tag = ln.split()
            bedges.append((int(i), int(j), tag))
        return cls(verts, tris, bedges, refinement_level=levels, green=greens)


def build_background(h0: float, half_width: float = BBOX_HALF,
                     max_vertices: int = MAX_VERTICES_DEFAULT) -> TriMesh:
    """Uniform 2-split triangulation of the square [-w, w]^2.

    n = ceil(2w / h0) cells per side, (n+1)^2 vertices, 2 n^2 triangles.
    """
    if h0 <= 0:
        raise MeshError(f"h0 must be positive, got {h0}")
    n = int(np.ceil(2.0 * half_width / h0))
    if (n + 1) ** 2 > max_vertices:
        raise MeshError(f"h0 = {h0} needs {(n + 1)**2} vertices, "
                        f"cap is {max_vertices}")
    xs = np.linspace(-half_width, half_width, n + 1)
    xx, yy = np.meshgrid(xs, xs, indexing="ij")
    verts = np.column_stack([xx.ravel(), yy.ravel()])

    def vid(i, j):
        return i * (n + 1) + j

    tris = []
    for i in range(n):
        for j in range(n):
            a, b = vid(i, j), vid(i + 1, j)
            c, d = vid(i + 1, j + 1), vid(i, j + 1)
            tris.append((a, b, c))
            tris.append((a, c, d))
    bedges = []
    for i in range(n):
        bedges.append((vid(i, 0), vid(i + 1, 0), "box"))
        bedges.append((vid(i + 1, n), vid(i, n), "box"))
        bedges.append((vid(0, i + 1), vid(0, i), "box"))
        bedges.append((vid(n, i), vid(n, i + 1), "box"))
    return TriMesh(verts, np.array(tris), bedges,
                   metadata={"variant": "2-split", "h0": h0, "n": n})


def _radial_interval(vertices: np.ndarray, tris: np.ndarray):
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


def band_triangles(vertices: np.ndarray, tris: np.ndarray,
                   field: PhaseField, margin: float) -> np.ndarray:
    """Boolean mask of triangles intersecting {|d| < margin}.

    Exact for this radial geometry: the triangle's radial interval is
    intersected with the two open annular bands.
    """
    geo = field.geometry
    r_low, r_high = _radial_interval(vertices, tris)
    hit = np.zeros(len(tris), dtype=bool)
    for radius in (geo.r_inner, geo.r_outer):
        hit |= (r_low < radius + margin) & (r_high > radius - margin)
    return hit


class _Refiner:
    """Red-green refinement state with incremental edge adjacency."""

    def __init__(self, mesh: TriMesh):
        self.verts = [tuple(v) for v in mesh.vertices]
        self.tris = {}
        self.level = {}
        self.edge_tris = {}   # sorted pair -> set of active triangle ids
        self.edge_mid = {}    # sorted pair -> midpoint vertex index
        self.mid_parent = {}  # midpoint index -> its parent pair
        self.next_id = 0
        for t, lev in zip(mesh.triangles, mesh.refinement_level):
            self._add(tuple(int(v) for v in t), int(lev))
        # A previously refined input already contains midpoint vertices;
        # rebuild the registry so they are reused instead of duplicated
        # (midpoint coordinates are bit-reproducible: 0.5 * (a + b)).
        coord_of = {v: i for i, v in enumerate(self.verts)}
        for (u, v) in list(self.edge_tris):
            pu, pv = self.verts[u], self.verts[v]
            m = coord_of.get((0.5 * (pu[0] + pv[0]), 0.5 * (pu[1] + pv[1])))
            if m is not None and m not in (u, v):
                self.edge_mid[(u, v)] = m
                self.mid_parent[m] = (u, v)

    @staticmethod
    def _key(u, v):
        return (u, v) if u < v else (v, u)

    def _add(self, tri, lev) -> int:
        tid = self.next_id
        self.next_id += 1
        self.tris[tid] = tri
        self.level[tid] = lev
        a, b, c = tri
        for u, v in ((a, b), (b, c), (c, a)):
            self.edge_tris.setdefault(self._key(u, v), set()).add(tid)
        return tid

    def _remove(self, tid):
        tri = self.tris.pop(tid)
        self.level.pop(tid)
        a, b, c = tri
        for u, v in ((a, b), (b, c), (c, a)):
            key = self._key(u, v)
            owners = self.edge_tris[key]
            owners.discard(tid)
            if not owners:
                del self.edge_tris[key]
        return tri

    def _midpoint(self, a, b) -> int:
        key = self._key(a, b)
        m = self.edge_mid.get(key)
        if m is None:
            pa, pb = self.verts[a], self.verts[b]
            self.verts.append((0.5 * (pa[0] + pb[0]), 0.5 * (pa[1] + pb[1])))
            m = len(self.verts) - 1
            self.edge_mid[key] = m
            self.mid_parent[m] = key
        return m

    def _coarse_blocker(self, tid):
        """An active triangle holding the full parent edge of one of tid's
        half-edges, which must split first (2:1 balance)."""
        a, b, c = self.tris[tid]
        for u, v in ((a, b), (b, c), (c, a)):
            for x, m in ((u, v), (v, u)):
                parent = self.mid_parent.get(m)
                if parent is not None and x in parent:
                    owners = self.edge_tris.get(parent)
                    if owners:
                        nb = next(iter(owners))
                        if nb != tid:
                            return nb
        return None

    def hanging_edges(self, tid):
        a, b, c = self.tris[tid]
        out = []
        for u, v in ((a, b), (b, c), (c, a)):
            m = self.edge_mid.get(self._key(u, v))
            if m is not None:
                out.append((u, v, m))
        return out


def _strip_green(mesh: TriMesh) -> TriMesh:
    """Recombine complete green families into their parents.

    Children whose siblings are missing (or whose parent record was lost
    in serialization) are kept as ordinary triangles; red-refining them
    later is safe in the right-isosceles family.
    """
    if not mesh.green.any():
        return mesh
    groups = {}
    for tid in np.flatnonzero(mesh.green):
        info = mesh.green_parent.get(int(tid))
        if info is not None:
            parent, expected = info
            groups.setdefault((parent, expected), []).append(int(tid))
    drop = set()
    restored = []
    for (parent, expected), kids in groups.items():
        if len(kids) == expected:
            drop.update(kids)
            restored.append((parent, int(mesh.refinement_level[kids[0]])))
    keep = np.ones(mesh.num_triangles, dtype=bool)
    keep[list(drop)] = False
    tris = [tuple(int(v) for v in t) for t in mesh.triangles[keep]]
    levels = list(mesh.refinement_level[keep])
    for parent, lev in restored:
        tris.append(parent)
        levels.append(lev)
    return TriMesh(mesh.vertices, np.array(tris), mesh.boundary_edges,
                   refinement_level=np.array(levels),
                   metadata=dict(mesh.metadata))


MAX_BAND_LEVELS = 6


def levels_for(eps: float, h0: float,
               max_levels: int = MAX_BAND_LEVELS) -> int:
    """Band refinement depth so band triangles resolve eps (h_band <= eps)."""
    if eps >= h0:
        return 0
    return min(max_levels, int(math.ceil(math.log2(h0 / eps))))


def refine_band(mesh: TriMesh, field: PhaseField, levels: int,
                quality_floor_deg: float = 20.0) -> TriMesh:
    """Red-refine triangles meeting {|d| < 2 eps} ``levels`` times.

    Green closures restore conformity afterwards; greens are never split.
    Raises MeshError if the result violates the minimum-angle floor.
    Intended for background meshes: boundary edges are rebuilt from the
    edge incidence and tagged "box".
    """
    if levels < 0:
        raise MeshError("levels must be >= 0")
    if levels == 0:
        return mesh
    work = _strip_green(mesh)
    ref = _Refiner(work)
    margin = 2.0 * field.epsilon

    def do_split(tid):
        stack = [tid]
        while stack:
            t = stack[-1]
            if t not in ref.tris:
                stack.pop()
                continue
            blocker = ref._coarse_blocker(t)
            if blocker is not None:
                stack.append(blocker)
                continue
            stack.pop()
            lev = ref.level[t]
            a, b, c = ref._remove(t)
            mab = ref._midpoint(a, b)
            mbc = ref._midpoint(b, c)
            mca = ref._midpoint(c, a)
            for child in ((a, mab, mca), (mab, b, mbc), (mca, mbc, c),
                          (mab, mbc, mca)):
                ref._add(child, lev + 1)

    for _ in range(levels):
        ids = np.array(sorted(ref.tris.keys()))
        tris = np.array([ref.tris[i] for i in ids])
        verts = np.array(ref.verts)
        levs = np.array([ref.level[i] for i in ids])
        hit = band_triangles(verts, tris, field, margin) & (levs < levels)
        for tid in ids[hit]:
            if int(tid) in ref.tris:
                do_split(int(tid))

    # Closure.  Two or more hanging nodes force a red split (iterated).
    # A single hanging node on the triangle's longest edge is removed by a
    # green bisection.  A single hanging node on a shorter edge triggers a
    # 3-way split that also bisects the longest edge (handing its neighbour
    # a standard green); on the right-isosceles criss-cross family every
    # child produced here is again right-isosceles, so the minimum angle
    # never degrades.
    greens = {}

    def edge_len2(u, v):
        pu, pv = ref.verts[u], ref.verts[v]
        return (pu[0] - pv[0]) ** 2 + (pu[1] - pv[1]) ** 2

    def add_oriented(tri, lev, parent):
        a, b, c = tri
        pa, pb, pc = ref.verts[a], ref.verts[b], ref.verts[c]
        det = ((pb[0] - pa[0]) * (pc[1] - pa[1])
               - (pc[0] - pa[0]) * (pb[1] - pa[1]))
        if det < 0:
            tri = (a, c, b)
        greens[ref._add(tri, lev)] = (parent, 3)

    while True:
        forced = [tid for tid in list(ref.tris)
                  if len(ref.hanging_edges(tid)) >= 2]
        if forced:
            for tid in forced:
                if tid in ref.tris:
                    greens.pop(tid, None)
                    do_split(tid)
            continue
        progressed = False
        for tid in list(ref.tris):
            if tid not in ref.tris:
                continue
            hang = ref.hanging_edges(tid)
            if len(hang) != 1:
                continue  # clean, or went >= 2 this sweep: next while pass
            u, v, m = hang[0]
            a, b, c = ref.tris[tid]
            lens = {frozenset((a, b)): edge_len2(a, b),
                    frozenset((b, c)): edge_len2(b, c),
                    frozenset((c, a)): edge_len2(c, a)}
            longest = max(lens, key=lens.get)
            lev = ref.level[tid]
            if frozenset((u, v)) == longest:
                # green bisection toward the opposite vertex; children may
                # expose deeper midpoints on the half-edges, which the next
                # sweep picks up again
                order = {frozenset((a, b)): (a, b, c),
                         frozenset((b, c)): (b, c, a),
                         frozenset((c, a)): (c, a, b)}
                aa, bb, cc = order[frozenset((u, v))]
                greens.pop(tid, None)
                ref._remove(tid)
                for child in ((aa, m, cc), (m, bb, cc)):
                    greens[ref._add(child, lev)] = ((aa, bb, cc), 2)
            else:
                # 3-way split: R opposite the longest edge, P the hanging
                # edge's other endpoint, Q remaining; mh bisects the
                # longest edge
                p_vert, q_vert = tuple(sorted(longest))
                r_vert = a + b + c - p_vert - q_vert
                hang_other = u + v - r_vert
                if hang_other == q_vert:
                    p_vert, q_vert = q_vert, p_vert
                mh = ref._midpoint(p_vert, q_vert)
                greens.pop(tid, None)
                parent = ref._remove(tid)
                for child in ((r_vert, m, mh), (m, p_vert, mh),
                              (r_vert, mh, q_vert)):
                    add_oriented(child, lev, parent)
            progressed = True
        if not progressed:
            break

    greens = {tid: parent for tid, parent in greens.items() if tid in ref.tris}
    ids = sorted(ref.tris.keys())
    tris = np.array([ref.tris[i] for i in ids])
    lev = np.array([ref.level[i] for i in ids])
    grn = np.array([i in greens for i in ids])
    parent_map = {k: greens[i] for k, i in enumerate(ids) if i in greens}
    out = TriMesh(np.array(ref.verts), tris, [], refinement_level=lev,
                  green=grn, green_parent=parent_map,
                  metadata=dict(mesh.metadata, band_levels=levels,
                                band_eps=field.epsilon))
    # boundary edges may have been split; rebuild from edge incidence
    uniq, per_tri = out.edges()
    counts = np.bincount(per_tri.ravel(), minlength=len(uniq))
    out.boundary_edges = [(int(i), int(j), "box") for i, j in uniq[counts == 1]]
    angle = out.min_angle()
    if angle < quality_floor_deg:
        worst = int(np.argmin(out.signed_areas()))
        raise MeshError(f"quality floor violated: min angle {angle:.2f} deg "
                        f"(triangle {worst})")
    return out


def mesh_annulus(geometry: AnnulusGeometry, n_angular: int,
                 n_radial: int) -> TriMesh:
    """Structured polar triangulation of the exact annulus.

    Vertices lie on n_radial + 1 concentric rings; boundary edges carry
    the tags "inner" (r = r_inner) and "outer" (r = r_outer).
    """
    if n_angular < 8 or n_radial < 2:
        raise MeshError("need n_angular >= 8 and n_radial >= 2")
    radii = np.linspace(geometry.r_inner, geometry.r_outer, n_radial + 1)
    theta = np.linspace(0.0, 2.0 * np.pi, n_angular, endpoint=False)
    verts = np.empty((n_angular * (n_radial + 1), 2))
    for i, r in enumerate(radii):
        verts[i * n_angular:(i + 1) * n_angular, 0] = r * np.cos(theta)
        verts[i * n_angular:(i + 1) * n_angular, 1] = r * np.sin(theta)

    def vid(ring, j):
        return ring * n_angular + (j % n_angular)

    tris = []
    for ring in range(n_radial):
        for j in range(n_angular):
            a = vid(ring, j)
            b = vid(ring, j + 1)
            c = vid(ring + 1, j + 1)
            d = vid(ring + 1, j)
            tris.append((a, d, c))
            tris.append((a, c, b))
    bedges = []
    for j in range(n_angular):
        bedges.append((vid(0, j + 1), vid(0, j), "inner"))
        bedges.append((vid(n_radial, j), vid(n_radial, j + 1), "outer"))
    return TriMesh(verts, np.array(tris), bedges,
                   metadata={"variant": "polar", "n_angular": n_angular,
                             "n_radial": n_radial})


def boundary_nodes(mesh: TriMesh, tag: str) -> np.ndarray:
    """Vertex indices on a tagged boundary, sorted by polar angle."""
    ids = sorted({i for e in mesh.boundary_edges if e[2] == tag
                  for i in e[:2]})
    ids = np.array(ids, dtype=np.int64)
    ang = np.arctan2(mesh.vertices[ids, 1], mesh.vertices[ids, 0])
    return ids[np.argsort(np.mod(ang, 2.0 * np.pi), kind="stable")]


# ---------------------------------------------------------------------------
# Triangle quadrature
# ---------------------------------------------------------------------------

# base rules on the reference triangle: barycentric points, weights sum to 1
_BASE_RULES = {
    1: (np.array([[1 / 3, 1 / 3, 1 / 3]]), np.array([1.0])),
    2: (np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]]),
        np.array([1 / 3, 1 / 3, 1 / 3])),
}


def _conical_rule():
    """4-point degree-3 conical product rule (Gauss x Gauss-Jacobi)."""
    gx, gw = np.polynomial.legendre.leggauss(2)
    x = 0.5 * (gx + 1.0)
    wx = 0.5 * gw
    # 2-point Gauss-Jacobi rule for weight (1 - y) on [0, 1]
    y = np.array([(4 - np.sqrt(6)) / 10, (4 + np.sqrt(6)) / 10])
    wy = np.array([0.25 + np.sqrt(6) / 36, 0.25 - np.sqrt(6) / 36])
    pts, wts = [], []
    for xi, wi in zip(x, wx):
        for yj, wj in zip(y, wy):
            u = xi * (1.0 - yj)
            v = yj
            pts.append([1.0 - u - v, u, v])
            wts.append(wi * wj * 2.0)
    return np.array(pts), np.array(wts)


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


_BASE_RULES[3] = _conical_rule()
_BASE_RULES[4] = _dunavant6()


@dataclass(frozen=True)
class QuadratureRule:
    """Composite rule: a base rule replicated over uniform sub-triangles.

    points are barycentric w.r.t. the parent triangle; weights sum to 1.
    Subdivision tames the band-edge discontinuity of |grad omega|.
    """

    degree: int
    subdivision_count: int
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
    return QuadratureRule(degree, s, np.vstack(pts), np.concatenate(wts))
