import dataclasses

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from ddcauchy.geometry import ConductivityTensor
from ddcauchy.harmonics import AngularSeries, solve_forward_modes
from ddcauchy.inversion import (DiffuseSolution, InversionError, SharpSolver,
                                add_noise, diffuse_forward, diffuse_tikhonov,
                                diffuse_tikhonov_alphas, error_norms,
                                extend_control, extend_data, sharp_error)
from ddcauchy.mesh import SHARP_MIN_ANGULAR, SHARP_MIN_RADIAL
from ddcauchy.saddle import build_system

from conftest import make_ops


# ---------------------------------------------------------------------------
# sharp solver
# ---------------------------------------------------------------------------


def test_sharp_forward_zero_and_linearity(sharp_solver):
    nb = len(sharp_solver.inner_angles)
    v, f = sharp_solver.forward(np.zeros(nb))
    assert np.abs(v).max() <= 1e-14
    rng = np.random.default_rng(0)
    u1 = rng.standard_normal(nb)
    u2 = rng.standard_normal(nb)
    _, f1 = sharp_solver.forward(u1)
    _, f2 = sharp_solver.forward(u2)
    _, f12 = sharp_solver.forward(u1 + u2)
    assert f12 == pytest.approx(f1 + f2, abs=1e-12 * max(1, np.abs(f12).max()))


def test_sharp_forward_matches_separable_oracle(geometry):
    """u = cos(theta) with M = I: the solution is the r +- 1 harmonic pair
    fixed by the two Neumann conditions; nodal error O(h^2)."""
    iso = ConductivityTensor.identity()
    errs = []
    for n_ang in (64, 128):
        solver = SharpSolver(geometry, iso, n_ang, n_ang // 4)
        u = np.cos(solver.inner_angles)
        _, f = solver.forward(u)
        oracle = solve_forward_modes(geometry, iso,
                                     AngularSeries.of(("cos", 1, 1.0)))
        f_exact = oracle.trace_series(geometry.r_outer)(solver.outer_angles)
        errs.append(np.abs(f - f_exact).max())
    assert errs[1] <= errs[0] / 3.0  # between O(h^1.5) and O(h^2)


def test_sharp_forward_anisotropic_oracle(sharp_solver, geometry, tensor):
    u = np.cos(2 * sharp_solver.inner_angles)
    _, f = sharp_solver.forward(u)
    oracle = solve_forward_modes(geometry, tensor,
                                 AngularSeries.of(("cos", 2, 1.0)))
    f_exact = oracle.trace_series(geometry.r_outer)(sharp_solver.outer_angles)
    assert np.abs(f - f_exact).max() <= 5e-3 * np.abs(f_exact).max() + 1e-12


def test_sharp_adjoint_zero_and_consistency(sharp_solver):
    p, u = sharp_solver.adjoint(np.zeros(len(sharp_solver.outer_angles)))
    assert np.abs(u).max() <= 1e-14
    rng = np.random.default_rng(1)
    for _ in range(10):
        uu = rng.standard_normal(len(sharp_solver.inner_angles))
        ww = rng.standard_normal(len(sharp_solver.outer_angles))
        _, fu = sharp_solver.forward(uu)
        _, fsw = sharp_solver.adjoint(ww)
        lhs = fu @ (sharp_solver.t_oo @ ww)
        rhs = uu @ (sharp_solver.t_ii @ fsw)
        scale = sharp_solver.inner_norm(uu) * sharp_solver.outer_norm(ww)
        assert abs(lhs - rhs) <= 1e-10 * scale


def test_sharp_block_solves_equal_column_solves(sharp_solver):
    rng = np.random.default_rng(4)
    u = rng.standard_normal((len(sharp_solver.inner), 3))
    w = rng.standard_normal((len(sharp_solver.outer), 3))
    for solve, block in ((sharp_solver.forward, u),
                         (sharp_solver.adjoint, w)):
        field, trace = solve(block)
        assert field.shape == (sharp_solver.ops.mesh.num_vertices, 3)
        for k in range(3):
            field_k, trace_k = solve(block[:, k])
            assert np.array_equal(field[:, k], field_k)
            assert np.array_equal(trace[:, k], trace_k)


def test_sharp_boundary_nodes_in_increasing_angle(sharp_solver):
    for nodes, angles in ((sharp_solver.inner, sharp_solver.inner_angles),
                          (sharp_solver.outer, sharp_solver.outer_angles)):
        assert len(nodes) == 128
        assert np.all(np.diff(angles) > 0.0)
        assert angles[0] == 0.0 and angles[-1] < 2.0 * np.pi


def test_default_ground_truth_mean_free(sharp_solver, truth):
    u_nodal = truth.u_dagger(sharp_solver.inner_angles)
    mean = sharp_solver.ops.mean_vec[sharp_solver.inner] @ u_nodal
    assert abs(mean) <= 1e-12 * sharp_solver.inner_norm(u_nodal)


# ---------------------------------------------------------------------------
# noise and extension
# ---------------------------------------------------------------------------


def test_add_noise_exact_level(sharp_solver, truth):
    f = truth.f_dagger(sharp_solver.outer_angles)
    assert np.array_equal(add_noise(f, 0.0, 7, sharp_solver.t_oo), f)
    for delta in (1e-3, 0.2):
        fd = add_noise(f, delta, 7, sharp_solver.t_oo)
        assert sharp_solver.outer_norm(fd - f) == pytest.approx(delta,
                                                                rel=1e-14)
    a = add_noise(f, 1e-2, 42, sharp_solver.t_oo)
    b = add_noise(f, 1e-2, 42, sharp_solver.t_oo)
    c = add_noise(f, 1e-2, 43, sharp_solver.t_oo)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    with pytest.raises(InversionError):
        add_noise(f, -1.0, 7, sharp_solver.t_oo)


def test_extend_data_examples(sharp_solver, ops_16):
    angles = sharp_solver.outer_angles
    const = np.full(len(angles), 3.25)
    ext = extend_data(const, angles, ops_16)
    nodes = np.flatnonzero(ops_16.b_b.diagonal() > 0)
    assert ext[nodes] == pytest.approx(3.25)
    assert np.all(ext[np.setdiff1d(np.arange(len(ext)), nodes)] == 0.0)
    # f = cos(theta): value at a point with theta = pi/2 is ~0
    f = np.cos(angles)
    ext = extend_data(f, angles, ops_16)
    mesh = ops_16.mesh
    probe = np.argmin(np.abs(mesh.vertices[nodes] - np.array(
        [0.0, 1.0 + ops_16.field.epsilon / 2])).sum(axis=1))
    assert abs(ext[nodes[probe]]) <= 1e-3


def test_extend_data_norm_equivalence(geometry, tensor, rule, sharp_solver,
                                      truth):
    """||E_B f||_M / ||f||_L2(outer) -> 1 as eps -> 0, deviation O(eps^2)
    plus the angular interpolation error."""
    f = truth.f_dagger(sharp_solver.outer_angles)
    norm_sharp = sharp_solver.outer_norm(f)
    devs = []
    for eps in (0.125, 0.0625, 0.03125):
        ops = make_ops(geometry, tensor, rule, eps, h0=0.1)
        ext = extend_data(f, sharp_solver.outer_angles, ops)
        norm_band = np.sqrt(ext @ (ops.b_b @ ext))
        devs.append(abs(norm_band / norm_sharp - 1.0))
    assert devs[-1] <= 0.02
    assert max(devs) <= 0.05


# ---------------------------------------------------------------------------
# Tikhonov drivers
# ---------------------------------------------------------------------------


def test_diffuse_tikhonov_zero_data(ops_16):
    sol = diffuse_tikhonov(ops_16, 1.0, np.zeros(ops_16.mesh.num_vertices))
    assert np.all(sol.u == 0.0) and np.all(sol.v == 0.0)
    assert sol.report.converged


def test_diffuse_tikhonov_damping_and_optimality(ops_16, sharp_solver,
                                                 truth):
    f = truth.f_dagger(sharp_solver.outer_angles)
    f_tilde = extend_data(f, sharp_solver.outer_angles, ops_16)
    norms = []
    for alpha in (1.0, 10.0, 100.0):
        sol = diffuse_tikhonov(ops_16, alpha, f_tilde)
        assert sol.report.converged
        norms.append(np.sqrt(sol.u @ (ops_16.b_h @ sol.u)))
        # first block row at optimality: alpha B_H u = B_H p
        resid = alpha * (ops_16.b_h @ sol.u) - ops_16.b_h @ sol.p
        scale = max(np.abs(ops_16.b_h @ sol.p).max(), 1e-30)
        assert np.abs(resid)[ops_16.active_u].max() <= 1e-7 * max(scale, alpha * norms[-1])
    assert norms[0] > norms[1] > norms[2]


def test_diffuse_solution_mean_constraints(ops_16, sharp_solver, truth):
    f = add_noise(truth.f_dagger(sharp_solver.outer_angles), 1e-3, 5,
                  sharp_solver.t_oo)
    f_tilde = extend_data(f, sharp_solver.outer_angles, ops_16)
    sol = diffuse_tikhonov(ops_16, 1e-3, f_tilde)
    mv = ops_16.mean_vec
    vnorm = np.sqrt(sol.v @ (ops_16.b_h @ sol.v) + sol.v @ (ops_16.b_b @ sol.v))
    assert abs(mv @ sol.v) <= 1e-8 * max(vnorm, 1e-30)
    assert abs(mv @ sol.p) <= 1e-8 * max(vnorm, 1e-30)


def state_and_adjoint(solver, u, f_outer):
    """v = forward(u) and p = adjoint(f - v | outer): the state and adjoint
    that the sharp KKT system pairs with the control u."""
    v, f_u = solver.forward(u)
    p, _ = solver.adjoint(f_outer - f_u)
    return v, p


def test_sharp_tikhonov_properties(sharp_solver, truth):
    f_dag = truth.f_dagger(sharp_solver.outer_angles)
    # noise-free: control error decreases as alpha -> 0 (convergence)
    errs = []
    for alpha in (1e-2, 1e-4, 1e-6):
        u = sharp_solver.tikhonov(alpha, f_dag)
        errs.append(sharp_error(u, sharp_solver, truth))
    assert errs[0] > errs[1] > errs[2]
    # optimality: alpha u = p on the inner boundary (solver roundoff)
    alpha = 1e-4
    u = sharp_solver.tikhonov(alpha, f_dag)
    _, p = state_and_adjoint(sharp_solver, u, f_dag)
    assert alpha * u == pytest.approx(p[sharp_solver.inner], abs=1e-12)
    # minimizer property: J(solution) <= delta^2 + alpha ||u_dag||^2
    delta = 1e-3
    fd = add_noise(f_dag, delta, 9, sharp_solver.t_oo)
    u = sharp_solver.tikhonov(alpha, fd)
    v, _ = state_and_adjoint(sharp_solver, u, fd)
    misfit = sharp_solver.outer_norm(v[sharp_solver.outer] - fd) ** 2
    penalty = alpha * sharp_solver.inner_norm(u) ** 2
    u_dag_norm = sharp_solver.inner_norm(
        truth.u_dagger(sharp_solver.inner_angles))
    assert misfit + penalty <= delta ** 2 + alpha * u_dag_norm ** 2 + 1e-12
    for bad in (-1.0, float("nan")):
        with pytest.raises(InversionError):
            sharp_solver.tikhonov(bad, f_dag)


def kkt_tikhonov(solver, alpha, f_outer):
    """The sharp KKT system (u, v, p, multipliers), factored by sparse LU:
    the path the normal equation replaced."""
    load = np.zeros(solver.ops.mesh.num_vertices)
    load[solver.outer] = f_outer
    system = build_system(solver.ops, alpha, load)
    u, v, p, _ = system.split(spla.splu(system.matrix.tocsc()).solve(
        system.rhs))
    return u, v, p


@pytest.mark.parametrize("n_angular", [128, 192])
def test_sharp_normal_equation_matches_kkt(sharp_solver, geometry, tensor,
                                           truth, n_angular):
    """128 x 32 is the fixture mesh, 192 x 48 fig8's sharp mesh.  The
    normal matrix has condition 1.5e5 at alpha = 1e-6, so the last bound
    measures conditioning, not the elimination."""
    solver = sharp_solver if n_angular == 128 else SharpSolver(
        geometry, tensor, 192, 48)
    f = add_noise(truth.f_dagger(solver.outer_angles), 1e-3, 9, solver.t_oo)
    for alpha, tol in ((1e-1, 1e-9), (1e-2, 1e-9), (1e-3, 1e-9),
                       (1e-4, 1e-8), (1e-6, 1e-6)):
        u = solver.tikhonov(alpha, f)
        for got, want in zip((u,) + state_and_adjoint(solver, u, f),
                             kkt_tikhonov(solver, alpha, f)):
            assert got.shape == want.shape
            assert (np.linalg.norm(got - want)
                    <= tol * np.linalg.norm(want)), alpha


def blocked_transfer(solver, block=32):
    """G, the outer traces of the inner unit fluxes, by forward solves of
    ``block`` unit fluxes at a time: the dense reference of the FFT."""
    nb = len(solver.inner)
    g = np.empty((len(solver.outer), nb))
    for j in range(0, nb, block):
        k = min(nb, j + block)
        g[:, j:k] = solver.forward(np.eye(nb, k - j, -j))[1]
    return g


@pytest.mark.parametrize("n_angular, n_radial",
                         [(128, 32), (192, 48), (97, 24)])
def test_sharp_fft_matches_dense_normal_equation(sharp_solver, geometry,
                                                 tensor, truth, n_angular,
                                                 n_radial):
    """The circulant matrices rebuilt from the three symbols equal the
    blocked G of all nb unit fluxes, T_ii and T_oo; the dense normal
    equation on the blocked G gives the FFT's u.  97 covers an odd
    number of nodes, where nb // 2 is not half a turn."""
    solver = sharp_solver if n_angular == 128 else SharpSolver(
        geometry, tensor, n_angular, n_radial)
    f = add_noise(truth.f_dagger(solver.outer_angles), 1e-3, 9, solver.t_oo)
    alpha = 1e-2
    u = solver.tikhonov(alpha, f)
    g = blocked_transfer(solver)
    t_ii, t_oo = solver.t_ii.toarray(), solver.t_oo.toarray()
    for symbol, dense in zip(solver._transfer_symbols, (g, t_ii, t_oo)):
        rebuilt = sla.circulant(np.fft.ifft(symbol).real)
        assert (np.linalg.norm(rebuilt - dense)
                <= 1e-12 * np.linalg.norm(dense))
    u_dense = np.linalg.solve(alpha * t_ii + g.T @ t_oo @ g, g.T @ (t_oo @ f))
    assert np.linalg.norm(u - u_dense) <= 1e-12 * np.linalg.norm(u_dense)


def test_sharp_symbols_match_the_separable_modes(geometry, tensor):
    """The symbol oracle: |g_k| of the FFT solve against G_k, the outer
    trace of the closed-form mode for a unit cos(k theta) flux.  The
    defect | |g_k| / G_k - 1 | is O(h^2): it falls at least 3x from
    96 x 24 to 192 x 48 (fig8's mesh), and stays below 1e-2 for k <= 3
    there."""
    ks = (1, 2, 3, 5)
    exact = np.array([solve_forward_modes(
        geometry, tensor, AngularSeries.of(("cos", k, 1.0))).trace_series(
            geometry.r_outer).terms[0].coef for k in ks])
    defects = []
    for n_angular in (96, 192):
        solver = SharpSolver(geometry, tensor, n_angular, n_angular // 4)
        g_hat = solver._transfer_symbols[0][list(ks)]
        defects.append(np.abs(np.abs(g_hat) / exact - 1.0))
    coarse, fine = defects
    for i in (0, 2, 3):  # k = 1, 3, 5
        assert fine[i] <= coarse[i] / 3.0
    assert fine[:3].max() < 1e-2


_LOG_UNIT = st.floats(-6.0, 0.0).map(lambda e: 10.0 ** e)  # [1e-6, 1]


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(n_angular=st.integers(SHARP_MIN_ANGULAR, 64),
       n_radial=st.integers(SHARP_MIN_RADIAL, 16),
       sigma_t=_LOG_UNIT, sigma_r=_LOG_UNIT, alpha=_LOG_UNIT,
       seed=st.integers(0, 2 ** 16))
def test_sharp_tikhonov_matches_kkt_on_any_grid(geometry, n_angular, n_radial,
                                                sigma_t, sigma_r, alpha,
                                                seed):
    """The sector symbols against the assembled sharp KKT solve on small
    grids, odd and even, and any conductivity and alpha.  Where one
    conductivity is 1e6 times the other, the high modes of G fall below
    roundoff: the sector's elimination keeps them (down to 1e-28), the
    annulus LU returns noise near 1e-16, so u is compared against its
    size plus the a priori bound ||T_oo f|| / (2 sqrt(alpha t o)), t and
    o the smallest eigenvalues of T_ii and T_oo (|g| / (alpha t + o g^2)
    <= 1 / (2 sqrt(alpha t o)) per mode).  Measured: at most 4.5e-9 of
    that scale over 400 random and corner draws."""
    solver = SharpSolver(geometry, ConductivityTensor(sigma_t, sigma_r),
                         n_angular, n_radial)
    f = np.random.default_rng(seed).standard_normal(n_angular)
    want = kkt_tikhonov(solver, alpha, f)[0]
    got = solver.tikhonov(alpha, f)
    ops = solver.ops
    t_oo = ops.b_b[np.ix_(solver.outer, solver.outer)]
    t_min, o_min = (np.linalg.eigvalsh(block.toarray())[0]
                    for block in (ops.riesz_u, t_oo))
    bound = np.linalg.norm(t_oo @ f) / (2.0 * np.sqrt(alpha * t_min * o_min))
    assert (np.linalg.norm(got - want)
            <= 1e-7 * (np.linalg.norm(want) + bound))


# ---------------------------------------------------------------------------
# error norms
# ---------------------------------------------------------------------------


def test_error_norms_zero_for_truth(ops_16, geometry, tensor, truth):
    n = ops_16.mesh.num_vertices
    u_truth = extend_control(truth.u_dagger, ops_16)
    v_truth = np.zeros(n)
    pts = ops_16.mesh.vertices
    v_truth[ops_16.active_v] = truth.v_field(
        pts[ops_16.active_v], r_min=geometry.r_inner - ops_16.field.epsilon)
    sol = DiffuseSolution(u_truth, v_truth, np.zeros(n), None)
    norms = error_norms(sol, truth, ops_16)
    assert norms.u_err_band <= 1e-12
    assert norms.v_err_band <= 1e-12
    assert norms.u_err_dual <= 1e-12
    assert norms.grad_err <= 1e-12


def test_error_norms_homogeneity_and_dual_bound(ops_16, truth):
    rng = np.random.default_rng(12)
    n = ops_16.mesh.num_vertices
    u_truth = extend_control(truth.u_dagger, ops_16)
    pert = np.zeros(n)
    pert[ops_16.active_u] = rng.standard_normal(len(ops_16.active_u))
    sol1 = DiffuseSolution(u_truth + pert, np.zeros(n), np.zeros(n), None)
    sol2 = DiffuseSolution(u_truth + 2 * pert, np.zeros(n), np.zeros(n), None)
    n1 = error_norms(sol1, truth, ops_16)
    n2 = error_norms(sol2, truth, ops_16)
    assert n2.u_err_band == pytest.approx(2 * n1.u_err_band, rel=1e-12)
    assert n2.u_err_dual == pytest.approx(2 * n1.u_err_dual, rel=1e-12)
    # dual norm controlled by the band norm (diffuse trace constant)
    assert n1.u_err_dual <= 2.0 * n1.u_err_band


def test_error_norms_reuse_the_solve_factor(ops_16, sharp_solver, truth):
    f_tilde = extend_data(truth.f_dagger(sharp_solver.outer_angles),
                          sharp_solver.outer_angles, ops_16)
    sol = diffuse_tikhonov(ops_16, 1e-2, f_tilde)
    # the factor the solve left on ops_16 gives the norms of a fresh
    # factorization, on a copy of ops_16 that has none
    want = error_norms(sol, truth, dataclasses.replace(ops_16))
    assert error_norms(sol, truth, ops_16) == want


def test_diffuse_tikhonov_reuses_preconditioner(ops_16, sharp_solver,
                                                truth):
    f_tilde = extend_data(truth.f_dagger(sharp_solver.outer_angles),
                          sharp_solver.outer_angles, ops_16)
    diffuse_tikhonov(ops_16, 1e-1, f_tilde)
    again = diffuse_tikhonov(ops_16, 1e-2, f_tilde)
    # a copy of ops_16 factors its Riesz blocks afresh
    fresh = diffuse_tikhonov(dataclasses.replace(ops_16), 1e-2, f_tilde)
    assert np.array_equal(again.u, fresh.u)
    assert again.report.residual_history == fresh.report.residual_history


def test_alphas_solved_together_match_single_solves(ops_16, sharp_solver,
                                                    truth):
    f_tilde = extend_data(truth.f_dagger(sharp_solver.outer_angles),
                          sharp_solver.outer_angles, ops_16)
    alphas = (1e-1, 1e-2, 1e-3)
    together = diffuse_tikhonov_alphas(ops_16, alphas, f_tilde)
    for alpha, sol in zip(alphas, together):
        alone = diffuse_tikhonov(ops_16, alpha, f_tilde)
        # the wider preconditioner solves may round differently
        assert abs(sol.report.iterations - alone.report.iterations) <= 8
        assert sol.report.converged
        assert len(sol.report.residual_history) == sol.report.iterations
        assert (np.abs(sol.u - alone.u).max()
                <= 1e-8 * np.abs(alone.u).max())
    with pytest.raises(InversionError):
        diffuse_tikhonov_alphas(ops_16, (1e-2, 0.0), f_tilde)


# ---------------------------------------------------------------------------
# diffuse forward + consistency invariants
# ---------------------------------------------------------------------------


def test_diffuse_forward_matches_band_data(ops_16, truth):
    u_band = extend_control(truth.u_dagger, ops_16)
    v = diffuse_forward(ops_16, ops_16.b_h @ u_band)
    # the weak form holds: K v = B_H u modulo the mean multiplier
    resid = (ops_16.k_omega @ v - ops_16.b_h @ u_band)[ops_16.active_v]
    mv = ops_16.mean_vec[ops_16.active_v]
    resid -= (mv @ resid) / (mv @ mv) * mv  # project out the multiplier
    assert np.abs(resid).max() <= 1e-10 * np.abs(ops_16.b_h @ u_band).max()
    assert abs(ops_16.mean_vec @ v) <= 1e-10


def test_diffuse_to_sharp_consistency(geometry, tensor, rule, sharp_solver,
                                      truth):
    """||u_eps - u_sharp|| on the H band decreases across eps."""
    delta, alpha, seed = 1e-3, 1e-3, 21
    f_dag = truth.f_dagger(sharp_solver.outer_angles)
    f_del = add_noise(f_dag, delta, seed, sharp_solver.t_oo)
    u_sharp = sharp_solver.tikhonov(alpha, f_del)
    series = dict(zip(sharp_solver.inner_angles, u_sharp))
    diffs = []
    for eps in (0.125, 0.0625, 0.03125):
        ops = make_ops(geometry, tensor, rule, eps, h0=0.1)
        f_tilde = extend_data(f_del, sharp_solver.outer_angles, ops)
        sol = diffuse_tikhonov(ops, alpha, f_tilde)
        nodes = np.flatnonzero(ops.b_h.diagonal() > 0)
        theta = np.arctan2(ops.mesh.vertices[nodes, 1],
                           ops.mesh.vertices[nodes, 0])
        u_sharp_band = np.zeros(ops.mesh.num_vertices)
        u_sharp_band[nodes] = np.interp(
            theta, sharp_solver.inner_angles, u_sharp, period=2.0 * np.pi)
        e = sol.u - u_sharp_band
        diffs.append(np.sqrt(e @ (ops.b_h @ e)))
    assert diffs[0] > diffs[1] > diffs[2]


def test_tikhonov_value_bound(geometry, tensor, rule, sharp_solver, truth):
    """J(solution) <= delta^2 + alpha ||u_dag||^2 + K eps^3 with the
    calibration constant K frozen once."""
    K_FROZEN = 50.0
    delta, alpha = 1e-3, 1e-3
    f_dag = truth.f_dagger(sharp_solver.outer_angles)
    f_del = add_noise(f_dag, delta, 3, sharp_solver.t_oo)
    u_dag_norm = sharp_solver.inner_norm(
        truth.u_dagger(sharp_solver.inner_angles))
    for eps in (0.125, 0.0625):
        ops = make_ops(geometry, tensor, rule, eps, h0=0.1)
        f_tilde = extend_data(f_del, sharp_solver.outer_angles, ops)
        sol = diffuse_tikhonov(ops, alpha, f_tilde)
        e = sol.v - f_tilde
        value = (e @ (ops.b_b @ e)) + alpha * (sol.u @ (ops.b_h @ sol.u))
        bound = delta ** 2 + alpha * u_dag_norm ** 2 + K_FROZEN * eps ** 3
        assert value <= bound


def test_truth_fixture_csv(sharp_solver, truth):
    from ddcauchy.inversion import truth_fixture_csv
    text = truth_fixture_csv(truth, sharp_solver)
    lines = text.strip().splitlines()
    assert lines[0] == "kind,index,angle,value"
    n_inner = len(sharp_solver.inner_angles)
    n_outer = len(sharp_solver.outer_angles)
    assert len(lines) == 1 + len(truth.w.terms) + n_inner + n_outer
    assert text == truth_fixture_csv(truth, sharp_solver)  # reproducible
    # round-trip one pinned nodal value through repr
    rec = lines[1 + len(truth.w.terms)].split(",")
    assert rec[0] == "u_dagger"
    assert float(rec[3]) == pytest.approx(
        truth.u_dagger(float(rec[2])), abs=0)


def test_pipeline_determinism(ops_16, sharp_solver, truth):
    f = add_noise(truth.f_dagger(sharp_solver.outer_angles), 0.0, 1,
                  sharp_solver.t_oo)
    f_tilde = extend_data(f, sharp_solver.outer_angles, ops_16)
    a = diffuse_tikhonov(ops_16, 1e-2, f_tilde)
    b = diffuse_tikhonov(ops_16, 1e-2, f_tilde)
    assert np.array_equal(a.u, b.u)
    assert np.array_equal(a.v, b.v)
    assert np.array_equal(a.p, b.p)
