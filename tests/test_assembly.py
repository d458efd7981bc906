import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from ddcauchy import assembly
from ddcauchy.assembly import (CUT_RULE, AssemblyError, OperatorSet,
                               _diffuse_forms, _element_geometry, _Elements,
                               _quad_points, _scatter, _sharp_local_stiffness,
                               _support_mask,
                               active_sets, assemble_band_mass,
                               assemble_sharp, assemble_weighted_stiffness)
from ddcauchy.geometry import (AnnulusGeometry, ConductivityTensor,
                               PhaseField, band_integral, annulus_integral)
from ddcauchy.inversion import SharpSolver
from ddcauchy.mesh import (TriMesh, _ring_edges, build_background,
                           levels_for, mesh_annulus, quadrature, refine_band)

from conftest import make_ops
from oracles import bulk_integral, diameters, diffuse_functional, evaluate


def unit_weight_setup():
    """A configuration where omega = 1 over a far-away unit triangle."""
    geo = AnnulusGeometry(r_inner=0.01, r_outer=100.0, split_radius=50.0)
    field = PhaseField(geo, 1.0)
    mesh = TriMesh(np.array([[2.0, 0.0], [3.0, 0.0], [2.0, 1.0]]),
                   np.array([[0, 1, 2]]))
    return mesh, field


def test_textbook_element_stiffness():
    # omega = 1, M = I, one unit right triangle: the classical P1 matrix
    mesh, field = unit_weight_setup()
    k = assemble_weighted_stiffness(mesh, ConductivityTensor.identity(),
                                    field, quadrature(2, 1)).toarray()
    expected = np.array([[1.0, -0.5, -0.5],
                         [-0.5, 0.5, 0.0],
                         [-0.5, 0.0, 0.5]])
    assert k == pytest.approx(expected, abs=1e-14)


def test_constants_in_stiffness_kernel(ops_16):
    ones = np.ones(ops_16.mesh.num_vertices)
    assert np.abs(ops_16.k_omega @ ones).max() <= 1e-12


def test_matrices_symmetric_and_psd(ops_16):
    for mat in (ops_16.k_omega, ops_16.m_omega, ops_16.b_h, ops_16.b_b):
        delta = (mat - mat.T)
        denom = np.abs(mat.data).max()
        assert np.abs(delta.data).max() <= 1e-14 * denom if delta.nnz else True
        # PSD via smallest eigenvalue of a random projection
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.standard_normal(mat.shape[0])
            assert x @ (mat @ x) >= -1e-10 * denom * (x @ x)


def test_restricted_blocks_positive_definite(ops_16):
    ru = ops_16.riesz_u.toarray()
    assert np.linalg.eigvalsh(ru).min() > 0
    rh = ops_16.riesz_h
    from scipy.sparse.linalg import eigsh
    lam = eigsh(rh.tocsc(), k=1, sigma=0.0, which="LM",
                v0=np.ones(rh.shape[0]), return_eigenvectors=False)
    assert lam[0] > 0


def test_dirichlet_energy_of_x_matches_bulk_area(geometry, rule,
                                                 background_coarse):
    # v(x, y) = x with M = I: energy = int omega dx (annulus area exactly,
    # by the two-sided defect cancellation), up to quadrature error
    ops = make_ops(geometry, ConductivityTensor.identity(), rule, 2.0 ** -4,
                   base=background_coarse)
    v = ops.mesh.vertices[:, 0]
    energy = float(v @ (ops.k_omega @ v))
    oracle = bulk_integral(ops.field, lambda p: np.ones(len(p)))
    assert oracle == pytest.approx(0.91 * np.pi, rel=1e-12)
    assert energy == pytest.approx(oracle, rel=2e-3)


def test_band_mass_row_sums(ops_16):
    assert ops_16.b_b.sum() == pytest.approx(2 * np.pi * 1.0, rel=1e-2)
    assert ops_16.b_h.sum() == pytest.approx(2 * np.pi * 0.3, rel=1e-2)
    # mean_vec is the row sums of B_H
    rows = np.asarray(ops_16.b_h.sum(axis=1)).ravel()
    assert rows == pytest.approx(ops_16.mean_vec)


def test_band_mass_subdivision_convergence(geometry, tensor):
    """Quadrature error of the band measure drops with subdivision."""
    base = build_background(0.15)
    exact = 2 * np.pi * 0.3
    for k in (4, 5):
        eps = 2.0 ** -k
        field = PhaseField(geometry, eps)
        mesh = refine_band(base, field, k - 2)
        errs = [abs(assemble_band_mass(mesh, field, "H",
                                       quadrature(2, s)).sum() - exact)
                for s in (1, 2, 4)]
        assert errs[2] < errs[1] < errs[0]
        assert errs[2] <= errs[0] / 3.0


def test_band_mass_empty_band_signals(geometry, tensor):
    field = PhaseField(geometry, 0.01)
    # a mesh far from both bands: one corner triangle
    far = TriMesh(np.array([[1.2, 1.2], [1.4, 1.2], [1.2, 1.4]]),
                  np.array([[0, 1, 2]]))
    assert assemble_band_mass(far, field, "H", quadrature(2, 2)).nnz == 0
    with pytest.raises(AssemblyError, match="H-band mass is identically zero"):
        OperatorSet.build(far, field, tensor, quadrature(2, 2))


def test_band_check_names_the_missing_band(geometry, tensor, rule):
    # the background triangles inside |x| < 0.65 cover the H-band, and
    # none of them meets the B-band
    field = PhaseField(geometry, 2.0 ** -4)
    base = build_background(0.15)
    radii = np.hypot(*base.vertices[base.triangles].transpose(2, 0, 1))
    inner = TriMesh(base.vertices,
                    base.triangles[radii.max(axis=1) < 0.65])
    with pytest.raises(AssemblyError, match="B-band mass is identically zero"):
        OperatorSet.build(inner, field, tensor, rule)


def test_bulk_mass_totals(ops_16):
    total = ops_16.m_omega.sum()
    oracle = bulk_integral(ops_16.field, lambda p: np.ones(len(p)))
    assert total == pytest.approx(oracle, rel=1e-3)
    ones = np.ones(ops_16.mesh.num_vertices)
    assert ones @ (ops_16.m_omega @ ones) == pytest.approx(total, rel=1e-12)


def test_diffuse_functional_examples(geometry, tensor, rule):
    ops = make_ops(geometry, tensor, rule, 2.0 ** -5, h0=0.1)
    mesh, field = ops.mesh, ops.field
    one = lambda p: np.ones(len(p))
    got = diffuse_functional(mesh, field, one, "B", rule)
    assert got == pytest.approx(2 * np.pi, rel=5e-3)
    got = diffuse_functional(mesh, field, one, "bulk", rule)
    assert got == pytest.approx(0.91 * np.pi, rel=1e-3)
    r2 = lambda p: (np.asarray(p) ** 2).sum(axis=1)
    got = diffuse_functional(mesh, field, r2, "H", rule)
    oracle = band_integral(field, r2, "H")
    # exact band second moment: 2 pi R (R^2 + eps^2), leading term 0.1696
    assert oracle == pytest.approx(
        2 * np.pi * 0.3 * (0.3 ** 2 + field.epsilon ** 2), rel=1e-12)
    assert got == pytest.approx(oracle, rel=5e-3)


def test_diffuse_bulk_integral_order_on_mesh(geometry, tensor):
    """Mesh-quadrature diffuse integrals approach the sharp integral at
    order >= 1.9 for the smooth g = |x|^2 (the lemma rate)."""
    base = build_background(0.1)
    g = lambda p: (np.asarray(p) ** 2).sum(axis=1)
    exact = annulus_integral(geometry, g)
    errs, epss = [], []
    for k in (3, 4, 5, 6):
        eps = 2.0 ** -k
        field = PhaseField(geometry, eps)
        mesh = refine_band(base, field, max(0, k - 3))
        errs.append(abs(diffuse_functional(mesh, field, g, "bulk", CUT_RULE)
                        - exact))
        epss.append(eps)
    order = np.polyfit(np.log(epss), np.log(errs), 1)[0]
    assert order >= 1.9


def test_active_sets(ops_16, geometry):
    mesh = ops_16.mesh
    r = np.hypot(mesh.vertices[:, 0], mesh.vertices[:, 1])
    # far-field vertex never active
    assert not np.any(r[ops_16.active_v] > 1.4)
    # H-band actives never carry gamma_B weight
    assert np.all(r[ops_16.active_u] < geometry.split_radius)
    # active_u contains every vertex of every element meeting the H band
    eps, h = ops_16.field.epsilon, diameters(mesh).max()
    inner = np.flatnonzero(np.abs(r - geometry.r_inner) < eps)
    assert np.isin(inner, ops_16.active_u).all()
    # and nothing farther than eps + element diameter from the circle
    dist = np.abs(r[ops_16.active_u] - geometry.r_inner)
    assert dist.max() <= eps + h + 1e-12
    assert np.isin(ops_16.active_u, ops_16.active_v).all()


def test_active_sets_empty_signal():
    zero = sp.csr_matrix((4, 4))
    with pytest.raises(Exception):
        active_sets(zero, zero, zero)


def annulus_rings(n_angular, n_radial):
    """The inner and outer ring edges of ``mesh_annulus``, as
    ``SharpSolver.ops`` passes them to ``assemble_sharp``."""
    ring = _ring_edges(n_angular)
    return ring, n_radial * n_angular + ring


def test_sharp_operators(geometry, tensor):
    mesh = mesh_annulus(geometry, 128, 24)
    rings = annulus_rings(128, 24)
    ops = assemble_sharp(mesh, tensor, *rings)
    ones = np.ones(mesh.num_vertices)
    assert ops.field is None
    assert np.abs(ops.k_omega @ ones).max() <= 1e-12
    assert ops.b_b.sum() == pytest.approx(2 * np.pi, rel=2e-4)
    assert ops.b_h.sum() == pytest.approx(2 * np.pi * 0.3, rel=2e-4)
    assert np.asarray(ops.b_h.sum(axis=1)).ravel() == pytest.approx(
        ops.mean_vec)
    # the P1 mass integrates 1 to the area of the inscribed polygons
    area = 0.5 * 128 * np.sin(2 * np.pi / 128) * (1.0 - 0.3 ** 2)
    assert ops.m_omega.sum() == pytest.approx(area, rel=1e-13)
    # active sets: the inner ring for the control, every node for the state
    assert np.array_equal(ops.active_u, np.arange(128))
    assert np.array_equal(ops.active_v, np.arange(mesh.num_vertices))
    # Dirichlet energy of log|x| with M = I is 2 pi ln(r_out / r_in)
    iso = assemble_sharp(mesh, ConductivityTensor.identity(), *rings)
    v = np.log(np.hypot(mesh.vertices[:, 0], mesh.vertices[:, 1]))
    energy = float(v @ (iso.k_omega @ v))
    assert energy == pytest.approx(2 * np.pi * np.log(1.0 / 0.3), rel=2e-3)


def test_sharp_sector_stiffness_is_the_assembly_kernel(geometry, tensor):
    """The sharp solver's sector, built from the polar grid, is the first
    angular column of the annulus mesh (its 2 n_radial triangles, corner
    by corner), and its element stiffness is the assembly's of those
    triangles, bit for bit."""
    mesh = mesh_annulus(geometry, 64, 16)
    sector = SharpSolver(geometry, tensor, 64, 16)._sector()
    column = np.arange(mesh.num_triangles).reshape(16, 64, 2)[:, 0].ravel()
    assert np.array_equal(sector.vertices[sector.triangles],
                          mesh.vertices[mesh.triangles[column]])
    _, areas, local = _sharp_local_stiffness(mesh, tensor)
    _, sector_areas, sector_local = _sharp_local_stiffness(sector, tensor)
    assert sector_areas.tobytes() == areas[column].tobytes()
    assert sector_local.tobytes() == local[column].tobytes()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_sharp_non_finite_tensor_sums_signal(geometry, tensor):
    # the stiffness kernel checks the tensor sums of every element set
    mesh = mesh_annulus(geometry, 16, 4)
    mesh.vertices[20] = np.nan
    with pytest.raises(AssemblyError, match="tensor sums are not finite"):
        assemble_sharp(mesh, tensor, *annulus_rings(16, 4))


def subdivided_everywhere(mesh, field, tensor, rule):
    """Reference: every form with ``rule`` on every element of its support."""
    out = {}
    lam = rule.points
    for kind in ("bulk", "H", "B"):
        tris, areas, grads = _element_geometry(
            mesh, _support_mask(mesh, field, kind))
        qp = _quad_points(mesh, tris, rule)
        _, omega, gradmag = field.phase_and_weights(qp)
        if kind == "bulk":
            m_eff = np.einsum("q,mq,mqab->mab", rule.weights, omega,
                              evaluate(tensor, qp)) * areas[:, None, None]
            local = np.einsum("mia,mab,mjb->mij", grads, m_eff, grads)
            out["k"] = _scatter(tris, local, mesh.num_vertices)
            weight = omega
        else:
            weight = gradmag * field.geometry.boundary_weight(kind, qp)
        local = np.einsum("q,mq,qi,qj->mij", rule.weights, weight, lam, lam)
        out["m" if kind == "bulk" else kind] = _scatter(
            tris, local * areas[:, None, None], mesh.num_vertices)
    return out


def test_cut_plateau_split_matches_subdivided_reference(geometry, tensor,
                                                        rule):
    ops = make_ops(geometry, tensor, rule, 2.0 ** -5, h0=0.15)
    ref = subdivided_everywhere(ops.mesh, ops.field, tensor, rule)
    got = {"k": ops.k_omega, "m": ops.m_omega, "H": ops.b_h, "B": ops.b_b}
    for name, tol in (("k", 1e-6), ("m", 1e-13), ("H", 1e-13),
                      ("B", 1e-13)):
        a, b = got[name], ref[name]
        assert np.array_equal(a.indptr, b.indptr), name
        assert np.array_equal(a.indices, b.indices), name
        scale = np.abs(b.data).max()
        assert np.abs(a.data - b.data).max() <= tol * scale, name
    # stiffness rows of nodes touched by cut elements only: same rule,
    # same points, so equal up to rounding
    el = _Elements.select(ops.mesh, ops.field)
    plateau_nodes = np.unique(el.tris[~el.cut])
    assert 0 < len(plateau_nodes) < ops.mesh.num_vertices
    rows = np.setdiff1d(np.arange(ops.mesh.num_vertices), plateau_nodes)
    diff = (ops.k_omega - ref["k"])[rows]
    scale = np.abs(ref["k"].data).max()
    assert np.abs(diff.data).max(initial=0.0) <= 1e-12 * scale


@settings(max_examples=15, deadline=None)
@given(h0=st.floats(0.05, 0.3), log2_eps=st.floats(-6.0, -2.0),
       shift=st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)))
def test_plateau_elements_have_unit_weights(h0, log2_eps, shift):
    # shifted background meshes put vertices at arbitrary radii, so band
    # edges fall anywhere relative to the elements
    geometry = AnnulusGeometry(0.3, 1.0, 0.65)
    field = PhaseField(geometry, 2.0 ** log2_eps)
    base = build_background(h0)
    mesh = TriMesh(base.vertices + np.array(shift) * h0, base.triangles)
    el = _Elements.select(mesh, field)
    plateau = el.tris[~el.cut]
    _, omega, gradmag = field.phase_and_weights(
        _quad_points(mesh, plateau, CUT_RULE))
    assert np.all(omega == 1.0)
    assert np.all(gradmag == 0.0)


def test_functional_of_one_is_matrix_sum(ops_16, rule):
    one = lambda p: np.ones(len(p))
    mesh, field = ops_16.mesh, ops_16.field
    bulk = diffuse_functional(mesh, field, one, "bulk", rule)
    assert bulk == pytest.approx(ops_16.m_omega.sum(), rel=1e-13)
    band = diffuse_functional(mesh, field, one, "H", rule)
    assert band == pytest.approx(ops_16.b_h.sum(), rel=1e-13)



@pytest.mark.parametrize("block", ["remainder_one", "seven", "single"])
def test_forms_do_not_depend_on_the_block_size(ops_16, tensor, rule,
                                               monkeypatch, block):
    def all_forms():
        return _diffuse_forms(ops_16.mesh, ops_16.field, rule, tensor)

    # the default size cuts ops_16's 1,956 cut elements into two blocks
    q = len(rule.weights)
    n_cut = int(_Elements.select(ops_16.mesh, ops_16.field).cut.sum())
    assert n_cut > assembly.BLOCK_POINTS // q
    ref = all_forms()
    elements = {"remainder_one": n_cut - 1, "seven": 7, "single": n_cut}
    monkeypatch.setattr(assembly, "BLOCK_POINTS", elements[block] * q)
    got = all_forms()
    for name, got_form, ref_form in zip(("k", "m", "H", "B"), got, ref):
        for part in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(got_form, part),
                                  getattr(ref_form, part)), (name, part)


def test_build_memory_does_not_grow_with_the_rule(geometry, tensor):
    # the cut elements are assembled in blocks of a fixed number of rule
    # points, so the working memory is that of the mesh, not of the rule
    eps, h0 = 2.0 ** -7, 0.1
    field = PhaseField(geometry, eps)
    mesh = refine_band(build_background(h0), field, levels_for(eps, h0))
    peaks = {}
    for s in (2, 8):
        rule = quadrature(2, s)
        tracemalloc.start()
        try:
            OperatorSet.build(mesh, field, tensor, rule)
            peaks[s] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[8] <= 1.5 * peaks[2], peaks
