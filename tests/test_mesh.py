import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from ddcauchy import experiments as xp
from ddcauchy.assembly import _support_masks
from ddcauchy.geometry import AnnulusGeometry, PhaseField
from ddcauchy.mesh import (MAX_BAND_LEVELS, MeshError, TriMesh,
                           _edge_numbering, _longest_edge_first,
                           _radial_interval, _ring_edges, band_triangles,
                           build_background, levels_for, mesh_annulus,
                           quadrature, refine_band)

from oracles import check_conforming, diameters, signed_areas


def test_background_counts():
    m = build_background(1.5)
    assert m.num_vertices == 9
    assert m.num_triangles == 8
    # vertex count (ceil(3/h0)+1)^2, triangle count 2 ceil(3/h0)^2
    for h0 in (3.0, 0.7, 0.31):
        n = math.ceil(3.0 / h0)
        m = build_background(h0)
        assert m.num_vertices == (n + 1) ** 2
        assert m.num_triangles == 2 * n * n
        assert signed_areas(m).sum() == pytest.approx(9.0, abs=1e-12)


def test_background_vertex_budget():
    with pytest.raises(MeshError):
        build_background(1e-4)
    with pytest.raises(MeshError):
        build_background(-1.0)


def test_refine_band_identity_at_zero_levels(geometry):
    m = build_background(0.3)
    field = PhaseField(geometry, 0.125)
    assert refine_band(m, field, 0) is m


def test_refine_band_preserves_area_and_conformity(geometry):
    m = build_background(0.15)
    for eps, levels in ((0.125, 1), (2.0 ** -5, 3)):
        field = PhaseField(geometry, eps)
        out = refine_band(m, field, levels)
        assert signed_areas(out).sum() == pytest.approx(9.0, abs=1e-12)
        check_conforming(out)
        assert oracles.smallest_angles(out).min() >= 45.0 - 1e-9
        assert (signed_areas(out) > 0).all()


def test_refine_band_diameter_bound(geometry):
    h0 = 0.1
    m = build_background(h0)
    field = PhaseField(geometry, 2.0 ** -4)
    out = refine_band(m, field, 2)
    hit = band_triangles(out.vertices, out.triangles, field,
                         2.0 * field.epsilon)
    # criss-cross diameter h0*sqrt(2) quartered by two red levels
    bound = h0 * math.sqrt(2.0) / 4.0 + 1e-12
    assert diameters(out)[hit].max() <= bound


def test_refine_band_non_band_vertices_untouched(geometry):
    m = build_background(0.15)
    field = PhaseField(geometry, 0.0625)
    out = refine_band(m, field, 2)
    assert np.array_equal(out.vertices[:m.num_vertices], m.vertices)


def mesh_bytes(mesh):
    """The mesh arrays as bytes, for bit-exact comparison."""
    return mesh.vertices.tobytes(), mesh.triangles.tobytes()


def test_refine_band_deterministic(geometry):
    m = build_background(0.12)
    field = PhaseField(geometry, 0.0625)
    a = refine_band(m, field, 2)
    b = refine_band(m, field, 2)
    assert mesh_bytes(a) == mesh_bytes(b)


def assert_same_bits(new, old):
    assert new.dtype == old.dtype and new.shape == old.shape
    assert new.tobytes() == old.tobytes()


def assert_kernels_match(mesh, field):
    """The column kernels of ``mesh`` give the bits of the row-reduction
    kernels in ``oracles`` on every triangle of ``mesh``."""
    verts, tris = mesh.vertices, mesh.triangles
    old_low, old_high = oracles.radial_interval(verts, tris)
    for new, old in zip(_radial_interval(verts, tris), (old_low, old_high)):
        assert_same_bits(new, old)
    geo, eps = field.geometry, field.epsilon
    rings = [(geo.r_inner - eps, geo.r_outer + eps),
             (geo.r_inner - eps, geo.r_inner + eps),
             (geo.r_outer - eps, geo.r_outer + eps)]
    for new, (lo, hi) in zip(_support_masks(mesh, field), rings):
        assert_same_bits(new, (old_high > lo) & (old_low < hi))
    for new, old in zip(_edge_numbering(tris, mesh.num_vertices),
                        oracles.edge_numbering(tris, mesh.num_vertices)):
        assert_same_bits(new, old)
    for turn in range(3):
        turned = np.roll(tris, turn, axis=1)
        assert_same_bits(_longest_edge_first(verts, turned),
                         oracles.longest_edge_first(verts, turned))


def study_cells(study):
    """(h0, max_levels, eps) of every diffuse mesh a study refines."""
    if study == "table":
        cfg = xp.load_config()
        return [(cfg.h0, cfg.max_levels, eps) for eps in cfg.epsilons]
    if study == "verify":
        # the sweep of verify._sweep_operators
        return [(0.15, MAX_BAND_LEVELS, 2.0 ** -k) for k in (2, 3, 4)]
    cfg = xp.load_config(overrides=xp.apply_preset(study))
    return [(cfg.h0, cfg.max_levels, xp._schedule(cfg, delta)[1])
            for delta in cfg.deltas]


@pytest.mark.parametrize("study", ["fig7", "fig8", "table"])
def test_column_kernels_match_row_reductions(geometry, study):
    for h0, max_levels, eps in study_cells(study):
        field = PhaseField(geometry, eps)
        background = build_background(h0)
        levels = levels_for(eps, h0, max_levels)
        out = refine_band(background, field, levels)
        old = oracles.refine_band(background, field, levels)
        for new_arr, old_arr in zip(mesh_bytes(out), mesh_bytes(old)):
            assert new_arr == old_arr
        assert_kernels_match(out, field)


def test_program_meshes_keep_the_45_degree_floor(geometry):
    # every mesh the studies and verify refine: red-green-blue children
    # of the right-isosceles background are right-isosceles again
    for study in ("table", "fig7", "fig8", "verify"):
        for h0, max_levels, eps in study_cells(study):
            out = refine_band(build_background(h0), PhaseField(geometry, eps),
                              levels_for(eps, h0, max_levels))
            assert oracles.smallest_angles(out).min() >= 45.0 - 1e-9


def test_column_kernels_match_on_background(geometry):
    assert_kernels_match(build_background(0.08), PhaseField(geometry, 0.125))


def test_column_kernels_match_on_random_triangles(geometry):
    # triangles of random corners, many around the origin and either
    # orientation, then some with a repeated corner (a zero-length edge)
    rng = np.random.default_rng(5)
    verts = rng.uniform(-1.0, 1.0, (600, 2))
    tris = rng.integers(0, 600, (4000, 3))
    tris = tris[(tris[:, 0] != tris[:, 1]) & (tris[:, 1] != tris[:, 2])
                & (tris[:, 2] != tris[:, 0])]
    assert_kernels_match(TriMesh(verts, tris), PhaseField(geometry, 0.125))
    tris[:100, 2] = tris[:100, 1]
    for new, old in zip(_radial_interval(verts, tris),
                        oracles.radial_interval(verts, tris)):
        assert_same_bits(new, old)


def test_longest_edge_first_keeps_the_first_maximum():
    # an isosceles triangle with its two long edges tied, in all three
    # rotations, and a triangle shrunk to a point (three tied zeros)
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 2.0]])
    tris = np.array([[0, 1, 2], [1, 2, 0], [2, 0, 1], [0, 0, 0]])
    assert_same_bits(_longest_edge_first(verts, tris),
                     oracles.longest_edge_first(verts, tris))
    assert _longest_edge_first(verts, tris).tolist() == [
        [1, 2, 0], [1, 2, 0], [2, 0, 1], [0, 0, 0]]


@settings(max_examples=15, deadline=None)
@given(h0=st.floats(0.05, 0.3), levels=st.integers(1, 4),
       eps_scale=st.floats(0.5, 2.0))
def test_refine_band_properties(h0, levels, eps_scale):
    # eps within a factor 2 of the band mesh size h0 / 2^levels, as the
    # level rule chooses it, so a draw never builds an oversized mesh
    geometry = AnnulusGeometry(0.3, 1.0, 0.65)
    field = PhaseField(geometry, min(eps_scale * h0 / 2.0 ** levels,
                                     geometry.eps_admissible))
    m = build_background(h0)
    out = refine_band(m, field, levels)
    check_conforming(out)
    assert signed_areas(out).sum() == pytest.approx(9.0, abs=1e-12)
    assert (signed_areas(out) > 0).all()
    assert oracles.smallest_angles(out).min() >= 45.0 - 1e-9
    hit = band_triangles(out.vertices, out.triangles, field,
                         2.0 * field.epsilon)
    bound = h0 * math.sqrt(2.0) / 2.0 ** levels + 1e-12
    assert diameters(out)[hit].max() <= bound
    assert np.array_equal(out.vertices[:m.num_vertices], m.vertices)
    assert mesh_bytes(refine_band(m, field, levels)) == mesh_bytes(out)


def loop_background(h0, half_width=1.5):
    """The background mesh built triangle by triangle: the oracle of the
    array builder."""
    n = int(np.ceil(2.0 * half_width / h0))
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
    return verts, np.array(tris)


def loop_annulus(geometry, n_angular, n_radial):
    """The polar annulus mesh built ring by ring and triangle by triangle:
    the oracle of the array builder."""
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
    return verts, np.array(tris)


def assert_same_mesh(mesh, oracle):
    verts, tris = oracle
    assert np.array_equal(mesh.vertices, verts)
    assert mesh.vertices.tobytes() == verts.tobytes()
    assert np.array_equal(mesh.triangles, tris)


@pytest.mark.parametrize("h0", [0.08, 0.1, 0.15, 1.0])
def test_background_matches_loop_builder(h0):
    assert_same_mesh(build_background(h0), loop_background(h0))


@pytest.mark.parametrize("n_angular, n_radial", [(8, 2), (128, 32), (192, 48)])
def test_mesh_annulus_matches_loop_builder(geometry, n_angular, n_radial):
    assert_same_mesh(mesh_annulus(geometry, n_angular, n_radial),
                     loop_annulus(geometry, n_angular, n_radial))


def test_mesh_annulus_counts(geometry):
    m = mesh_annulus(geometry, 8, 2)
    assert m.num_vertices == 24
    assert m.num_triangles == 32
    check_conforming(m)
    assert (signed_areas(m) > 0).all()
    with pytest.raises(MeshError):
        mesh_annulus(geometry, 4, 2)


def test_mesh_annulus_area_convergence(geometry):
    exact = 0.91 * np.pi
    areas = [signed_areas(mesh_annulus(geometry, n, 8)).sum()
             for n in (16, 32, 64)]
    assert areas[0] < areas[1] < areas[2] < exact
    # O(n^-2) deficit
    assert exact - areas[2] < (exact - areas[0]) / 10


def test_mesh_annulus_boundary(geometry):
    """The ring edges the sharp solver assembles with, on the first and
    last n_angular nodes, are exactly the edges of one triangle each."""
    m = mesh_annulus(geometry, 64, 8)
    inner, outer = _ring_edges(64), 8 * 64 + _ring_edges(64)
    uniq, per_tri = _edge_numbering(m.triangles, m.num_vertices)
    counts = np.bincount(per_tri.ravel(), minlength=len(uniq))
    rings = np.sort(np.vstack([inner, outer]), axis=1)
    assert np.array_equal(np.unique(rings, axis=0), uniq[counts == 1])
    for edges, radius in ((inner, 0.3), (outer, 1.0)):
        length = sum(np.linalg.norm(m.vertices[i] - m.vertices[j])
                     for i, j in edges)
        assert length == pytest.approx(2 * np.pi * radius, rel=2e-3)
        for i, j in edges:
            assert np.hypot(*m.vertices[i]) == pytest.approx(radius,
                                                             abs=1e-15)


def test_quadrature_examples():
    r2 = quadrature(2)
    assert len(r2.weights) == 3
    assert r2.weights == pytest.approx([1 / 3] * 3)
    assert sorted(r2.points.ravel()) == pytest.approx([0] * 3 + [0.5] * 6)
    for degree in (1, 3, 5):
        with pytest.raises(ValueError):
            quadrature(degree)
    with pytest.raises(ValueError):
        quadrature(2, 0)


@pytest.mark.parametrize("degree", [2, 4])
def test_quadrature_declared_degree_exact(degree):
    rule = quadrature(degree, 1)
    x, y = rule.points[:, 1], rule.points[:, 2]
    for i in range(degree + 1):
        for j in range(degree + 1 - i):
            got = 0.5 * np.dot(rule.weights, x ** i * y ** j)
            exact = (math.factorial(i) * math.factorial(j)
                     / math.factorial(i + j + 2))
            assert got == pytest.approx(exact, abs=1e-15)


def test_quadrature_quartic_monomial():
    # int over the reference triangle of x^3 y = 1/120 (x^2 y = 1/60)
    rule = quadrature(4, 1)
    x, y = rule.points[:, 1], rule.points[:, 2]
    assert 0.5 * np.dot(rule.weights, x ** 3 * y) == pytest.approx(
        1.0 / 120.0, abs=1e-15)
    assert 0.5 * np.dot(rule.weights, x ** 2 * y) == pytest.approx(
        1.0 / 60.0, abs=1e-15)


def test_quadrature_subdivision_partition():
    for s in (2, 3, 4):
        rule = quadrature(2, s)
        assert rule.weights.sum() == pytest.approx(1.0, abs=1e-13)
        assert (rule.points >= -1e-15).all()
        # subdivided rule still integrates quadratics exactly
        x, y = rule.points[:, 1], rule.points[:, 2]
        assert 0.5 * np.dot(rule.weights, x * y) == pytest.approx(
            1.0 / 24.0, abs=1e-14)
