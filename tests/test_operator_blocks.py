"""The active-set blocks of OperatorSet against hand restrictions.

Each consumer of the blocks once restricted the assembled matrices itself
with ``M[np.ix_(rows, cols)]``.  The restrictions below are those,
written out, and the blocks read from ``OperatorSet`` must equal them
exactly: same sparsity structure, same values.  The blocks are also
shared (one object per operator set, kept across systems) and built
lazily (a fresh Workspace builds no sharp operator set, and so no sharp
mesh).  The sparse LU factors of the blocks live on the operator set
too: each of its three matrices is factored once, however many solves
read it.
"""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ddcauchy import experiments as xp
from ddcauchy.assembly import _active_nodes
from ddcauchy.inversion import (InversionError, SharpSolver, diffuse_forward,
                                diffuse_tikhonov, error_norms, extend_data)
from ddcauchy.mesh import _ring_edges
from ddcauchy.saddle import RieszPreconditioner, SaddleError, build_system

from oracles import assert_same_csr, edge_mass

BLOCKS = ("riesz_u", "b_vu", "k_vv", "t_vv", "riesz_h", "mean_col")


def hand_kkt(ops, alpha, f_tilde):
    a_u, a_v = ops.active_u, ops.active_v
    b_uu = ops.b_h[np.ix_(a_u, a_u)]
    b_vu = ops.b_h[np.ix_(a_v, a_u)]
    k_vv = ops.k_omega[np.ix_(a_v, a_v)]
    t_vv = ops.b_b[np.ix_(a_v, a_v)]
    m_col = sp.csr_matrix(ops.mean_vec[a_v][:, None])
    return sp.bmat([
        [alpha * b_uu, None, -b_vu.T, None, None],
        [None, t_vv, k_vv, m_col, None],
        [-b_vu, k_vv, None, None, m_col],
        [None, m_col.T, None, None, None],
        [None, None, m_col.T, None, None],
    ], format="csr")


def hand_augmented(ops):
    a_v = ops.active_v
    m_col = sp.csr_matrix(ops.mean_vec[a_v][:, None])
    return sp.bmat([[ops.k_omega[np.ix_(a_v, a_v)], m_col],
                    [m_col.T, None]], format="csc")


def assert_identical(got, want):
    got, want = sp.csr_matrix(got), sp.csr_matrix(want)
    assert got.shape == want.shape
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert (got != want).nnz == 0


def test_blocks_equal_hand_restrictions(ops):
    a_u, a_v = ops.active_u, ops.active_v
    f_tilde = np.random.default_rng(3).standard_normal(ops.mesh.num_vertices)
    system = build_system(ops, 0.01, f_tilde)
    assert_identical(system.matrix, hand_kkt(ops, 0.01, f_tilde))
    prec = RieszPreconditioner(system)
    assert_identical(ops.riesz_u, ops.b_h[np.ix_(a_u, a_u)].tocsr())
    assert prec._apply_u.__self__ is ops.riesz_u_lu
    assert_identical(prec._riesz_h,
                     (ops.k_omega + ops.m_omega)[np.ix_(a_v, a_v)].tocsr())
    aug = sp.bmat([[ops.k_vv, ops.mean_col], [ops.mean_col.T, None]],
                  format="csc")
    assert_identical(aug, hand_augmented(ops))
    # the constrained solve factors that same matrix: bit-identical output
    load = ops.b_h @ np.random.default_rng(4).standard_normal(
        ops.mesh.num_vertices)
    want = np.zeros_like(load)
    rhs = np.append(load[a_v], 0.0)
    want[a_v] = spla.splu(hand_augmented(ops),
                          permc_spec="MMD_AT_PLUS_A").solve(rhs)[:-1]
    assert np.array_equal(diffuse_forward(ops, load), want)


def test_sharp_boundary_blocks(sharp_solver, geometry, tensor):
    """The solver builds its node sets, angles, mean vector and boundary
    blocks from the two rings of the polar grid; they equal what the
    lazily built annulus mesh and operator set give, bit for bit, on the
    128 x 32 fixture grid and on an odd 97 x 24 one.  The solver's rings
    and the operator set's share one ring-mass builder, so both are also
    checked against the edge-by-edge scatter of ``oracles.edge_mass``."""
    for solver in (sharp_solver, SharpSolver(geometry, tensor, 97, 24)):
        ops, mesh = solver.ops, solver.ops.mesh
        inner, outer = solver.inner, solver.outer
        ring = _ring_edges(solver.n_angular)
        for block, mass, nodes in ((solver.t_ii, ops.b_h, inner),
                                   (solver.t_oo, ops.b_b, outer)):
            assert_same_csr(block, edge_mass(mesh.vertices[nodes], ring))
            assert_same_csr(mass, edge_mass(mesh.vertices, nodes[ring]))
        assert np.array_equal(inner, _active_nodes(ops.b_h.diagonal()))
        assert np.array_equal(inner, ops.active_u)
        assert np.array_equal(outer,
                              np.flatnonzero(ops.b_b.diagonal() > 0.0))
        for nodes, angles in ((inner, solver.inner_angles),
                              (outer, solver.outer_angles)):
            xy = mesh.vertices[nodes]
            want = np.mod(np.arctan2(xy[:, 1], xy[:, 0]), 2.0 * np.pi)
            assert angles.tobytes() == want.tobytes()
        assert solver.mean_vec.tobytes() == ops.mean_vec[inner].tobytes()
        assert_identical(solver.t_ii, ops.b_h[np.ix_(inner, inner)])
        assert_identical(solver.t_oo, ops.b_b[np.ix_(outer, outer)])


def test_sharp_loads_through_its_ring_masses(sharp_solver, geometry, tensor):
    """forward and adjoint load the annulus with t_ii or t_oo on the ring
    nodes.  Their fields and traces equal, bit for bit, those of the load
    ops.b_h (or ops.b_b) @ (values placed on the ring nodes), for one
    column and for ten, on the 128 x 32 and 97 x 24 grids."""
    rng = np.random.default_rng(7)
    for solver in (sharp_solver, SharpSolver(geometry, tensor, 97, 24)):
        ops = solver.ops
        for run, mass, nodes, trace_nodes in (
                (solver.forward, ops.b_h, solver.inner, solver.outer),
                (solver.adjoint, ops.b_b, solver.outer, solver.inner)):
            for shape in ((len(nodes),), (len(nodes), 10)):
                values = rng.standard_normal(shape)
                placed = np.zeros((ops.mesh.num_vertices,) + shape[1:])
                placed[nodes] = values
                want = diffuse_forward(ops, mass @ placed)
                field, trace = run(values)
                assert field.tobytes() == want.tobytes()
                assert trace.tobytes() == want[trace_nodes].tobytes()


def test_blocks_are_shared(ops_16):
    f_tilde = np.zeros(ops_16.mesh.num_vertices)
    system = build_system(ops_16, 1.0, f_tilde)
    first = {name: getattr(ops_16, name) for name in BLOCKS}
    build_system(ops_16, 0.1, f_tilde)
    for name in BLOCKS:
        assert vars(ops_16)[name] is first[name], name
    assert RieszPreconditioner(system)._apply_u.__self__ is ops_16.riesz_u_lu
    assert RieszPreconditioner(system)._riesz_h is ops_16.riesz_h


def test_fresh_workspace_restricts_nothing():
    cfg = xp.load_config(overrides={"mesh.h0": "0.2",
                                    "mesh.sharp_n_angular": "48",
                                    "mesh.sharp_n_radial": "12"})
    ws = xp.Workspace(cfg)
    assert "ops" not in vars(ws.sharp_solver)
    assert ws.truth is cfg.truth


def test_workspace_set_up_makes_no_coo_matrix(monkeypatch, geometry, tensor):
    """A Workspace set-up, the sharp solver's rings included, writes every
    matrix straight into CSR: no scipy COO matrix is made, whose checks,
    sort and duplicate sums once were most of the set-up's time."""
    def refuse(*args, **kwargs):
        raise AssertionError("a COO matrix was made")

    monkeypatch.setattr(sp.coo_matrix, "__init__", refuse)
    with pytest.raises(AssertionError, match="COO"):
        sp.eye(3).tocoo()
    ws = xp.Workspace(xp.load_config(overrides=xp.apply_preset("fig8")))
    assert ws.sharp_solver.t_ii.format == "csr"
    SharpSolver(geometry, tensor, 97, 24)


def test_studies_leave_the_sharp_operator_set_unbuilt():
    """A table cell and the fig8 sharp rate study read the sharp solver's
    boundary blocks and FFT symbols only: its operator set, and with it
    the annulus mesh, stiffness and mass and ``mean_lu``, is never
    built."""
    small = {"mesh.h0": "0.2", "mesh.sharp_n_angular": "48",
             "mesh.sharp_n_radial": "12"}
    cfg = xp.load_config(overrides=dict(small, **{
        "study.kind": "table", "study.alphas": "0.1",
        "study.epsilons": "0.25"}))
    ws = xp.Workspace(cfg)
    assert xp.run_iteration_table(cfg, ws).converged.all()
    assert "ops" not in vars(ws.sharp_solver)
    sharp = xp.load_config(overrides=xp.apply_preset("fig8", dict(small, **{
        "study.eps_coef": "0.0", "study.eps_exp": "0.0"})))
    rows = xp.run_rate_study(sharp, ws).rows
    assert rows and all(np.isfinite(r.u_err_sharp) for r in rows)
    assert "ops" not in vars(ws.sharp_solver)


def test_each_matrix_factored_once(monkeypatch, ops_16, sharp_solver,
                                   truth):
    # a copy of ops_16 with no block or factor read yet
    ops = dataclasses.replace(ops_16)
    factored = []
    original = spla.splu

    def counting(mat, *args, **kwargs):
        factored.append(mat)
        return original(mat, *args, **kwargs)

    monkeypatch.setattr(spla, "splu", counting)
    f_tilde = extend_data(truth.f_dagger(sharp_solver.outer_angles),
                          sharp_solver.outer_angles, ops)
    for alpha in (1e-1, 1e-2, 1e-3):
        sol = diffuse_tikhonov(ops, alpha, f_tilde)
        error_norms(sol, truth, ops)
    for _ in range(2):
        diffuse_forward(ops, ops.b_h @ sol.u)
    assert len(factored) == 3
    for mat, want in zip(factored, (ops.riesz_u, ops.riesz_h,
                                    hand_augmented(ops))):
        assert_identical(mat, want)


def test_riesz_factors_symmetric_mode(ops_16):
    # the SPD Riesz blocks: less fill than the default (COLAMD, partial
    # pivoting) factor of the same block, and solves to roundoff
    b = np.random.default_rng(3).standard_normal(ops_16.riesz_h.shape[0])
    for block, lu in ((ops_16.riesz_h, ops_16.riesz_h_lu),
                      (ops_16.riesz_u, ops_16.riesz_u_lu)):
        default = spla.splu(block.tocsc())
        assert lu.L.nnz + lu.U.nnz < default.L.nnz + default.U.nnz
        rhs = b[:block.shape[0]]
        resid = np.linalg.norm(block @ lu.solve(rhs) - rhs)
        assert resid <= 1e-12 * np.linalg.norm(rhs)


def test_mean_constrained_solve_accurate(ops_16):
    # the augmented [[K, m], [m^T, 0]] has a zero diagonal, so mean_lu
    # keeps partial pivoting; symmetric mode would lose digits here
    n = ops_16.mesh.num_vertices
    a_v = ops_16.active_v
    load = np.zeros(n)
    load[a_v] = np.random.default_rng(4).standard_normal(len(a_v))
    x = diffuse_forward(ops_16, load)[a_v]
    # the multiplier that best balances K x + m lam = load
    m = ops_16.mean_col.toarray().ravel()
    lam = m @ (load[a_v] - ops_16.k_vv @ x) / (m @ m)
    rhs = np.append(load[a_v], 0.0)
    resid = hand_augmented(ops_16) @ np.append(x, lam) - rhs
    assert np.linalg.norm(resid) <= 1e-10 * np.linalg.norm(rhs)


def test_failed_factors_raise_module_errors(monkeypatch, ops_16):
    n = ops_16.mesh.num_vertices
    # K = 0 leaves the augmented matrix [[0, m], [m^T, 0]] singular
    ops = dataclasses.replace(ops_16, k_omega=0.0 * ops_16.k_omega)
    with pytest.raises(InversionError, match="singular augmented system"):
        diffuse_forward(ops, np.ones(n))

    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(spla, "splu", singular)
    ops = dataclasses.replace(ops_16)
    with pytest.raises(SaddleError, match="Riesz block factorization"):
        RieszPreconditioner(build_system(ops, 1.0, np.zeros(n)))
