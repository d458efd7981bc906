import dataclasses
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from scipy.linalg import eigh

from ddcauchy.assembly import OperatorSet
from ddcauchy.geometry import PhaseField
from ddcauchy.inversion import InversionError, diffuse_tikhonov, extend_control
from ddcauchy.mesh import build_background
from ddcauchy.saddle import (RieszPreconditioner, SaddleError, SolveReport,
                             _reduced_lower, build_system, detect_bands,
                             minres, minres_lockstep, spectrum)

import oracles
from conftest import make_ops
from oracles import diffuse_functional, evaluate, reduce_in_place, riesz_matrix
from test_golden import SPECTRUM_TOL


def test_build_system_validation(ops_16):
    f0 = np.zeros(ops_16.mesh.num_vertices)
    with pytest.raises(InversionError):
        diffuse_tikhonov(ops_16, 0.0, f0)
    with pytest.raises(SaddleError):
        build_system(ops_16, 1.0, f0[:5])


def test_system_symmetry(ops_16):
    f = np.zeros(ops_16.mesh.num_vertices)
    f[ops_16.active_v] = 1.0
    system = build_system(ops_16, 0.37, f)
    a = system.matrix
    delta = np.abs((a - a.T).data).max() if (a - a.T).nnz else 0.0
    assert delta <= 1e-13 * np.abs(a.data).max()


def test_zero_data_gives_zero_solution(ops_16):
    f0 = np.zeros(ops_16.mesh.num_vertices)
    system = build_system(ops_16, 1.0, f0)
    prec = RieszPreconditioner(system)
    x, report = minres(system, prec, rho=1e-10)
    assert report.converged
    assert report.iterations == 0
    assert np.all(x == 0.0)


def test_non_finite_rhs_stops_at_once(ops_16):
    system = build_system(ops_16, 1.0, np.zeros(ops_16.mesh.num_vertices))
    system.rhs[system.nu] = np.inf
    x, report = minres(system, RieszPreconditioner(system), rho=1e-10)
    assert report.iterations == 0
    assert not report.converged
    assert np.isnan(x).all()


def test_third_row_consistency_matrices(ops_16):
    """Row 3 applied to a manufactured pair reproduces the bilinear form
    b(u, v; .) computed from the operator matrices directly."""
    rng = np.random.default_rng(11)
    n = ops_16.mesh.num_vertices
    u_star = extend_control(lambda t: np.cos(t), ops_16)
    v_star = np.zeros(n)
    v_star[ops_16.active_v] = rng.standard_normal(len(ops_16.active_v))
    system = build_system(ops_16, 1.0, np.zeros(n))
    nu, nv = system.nu, system.nv
    x = np.zeros(system.size)
    x[:nu] = u_star[ops_16.active_u]
    x[nu:nu + nv] = v_star[ops_16.active_v]
    resid = (system.matrix @ x)[nu + nv:nu + 2 * nv]
    expected = (ops_16.k_omega @ v_star - ops_16.b_h @ u_star)[ops_16.active_v]
    assert resid == pytest.approx(expected, abs=1e-12 * max(
        1.0, np.abs(expected).max()))


def test_third_row_consistency_functional_oracle(ops_16, tensor, rule):
    """For the exactly representable pair (u*, v*) = (1, x), weighted sums
    of the row-3 residual equal the bilinear form b(u*, v*; w) for the
    test functions w = 1 and w = x, each side integrated independently."""
    n = ops_16.mesh.num_vertices
    ones = np.ones(n)
    u_star = np.zeros(n)
    u_star[ops_16.active_u] = 1.0
    v_star = ops_16.mesh.vertices[:, 0]
    system = build_system(ops_16, 1.0, np.zeros(n))
    nu, nv = system.nu, system.nv
    x = np.zeros(system.size)
    x[:nu] = u_star[ops_16.active_u]
    x[nu:nu + nv] = v_star[ops_16.active_v]
    resid = np.zeros(n)
    resid[ops_16.active_v] = (system.matrix @ x)[nu + nv:nu + 2 * nv]
    mesh, field = ops_16.mesh, ops_16.field
    # w = 1: b(1, x; 1) = -<1, 1>_U (the gradient pairing vanishes)
    got = float(ones @ resid)
    want = -diffuse_functional(mesh, field, lambda p: np.ones(len(p)),
                               "H", rule)
    assert got == pytest.approx(want, rel=1e-12)
    # w = x: b(1, x; x) = int M_00 omega dx - int x |grad omega| gamma_H dx
    got = float(v_star @ resid)
    m00 = lambda p: evaluate(tensor, p)[..., 0, 0]
    xval = lambda p: np.asarray(p)[:, 0]
    want = (diffuse_functional(mesh, field, m00, "bulk", rule)
            - diffuse_functional(mesh, field, xval, "H", rule))
    assert got == pytest.approx(want, rel=1e-10)


def test_preconditioner_exact_roundtrip(ops_16):
    system = build_system(ops_16, 0.5, np.zeros(ops_16.mesh.num_vertices))
    prec = RieszPreconditioner(system)
    rng = np.random.default_rng(3)
    r = rng.standard_normal(system.size)
    z = prec.apply(r)
    back = riesz_matrix(system) @ z
    assert back == pytest.approx(r, rel=1e-11, abs=1e-11)
    assert np.all(prec.apply(np.zeros(system.size)) == 0.0)


def test_two_column_h_solve_matches_single_solves(ops_16):
    system = build_system(ops_16, 0.5, np.zeros(ops_16.mesh.num_vertices))
    nu, nv = system.nu, system.nv
    r = np.random.default_rng(6).standard_normal(system.size)
    state, adjoint = r[nu:nu + nv], r[nu + nv:nu + 2 * nv]
    # one (nv, 2) solve, bit-identical to two single ones
    z = RieszPreconditioner(system).apply(r)
    lu = ops_16.riesz_h_lu
    assert np.array_equal(z[nu:nu + nv], lu.solve(state))
    assert np.array_equal(z[nu + nv:nu + 2 * nv], lu.solve(adjoint))


def test_preconditioner_on_one_row_stack_matches_vector(ops_16):
    system = build_system(ops_16, 0.5, np.zeros(ops_16.mesh.num_vertices))
    prec = RieszPreconditioner(system)
    r = np.random.default_rng(7).standard_normal(system.size)
    z = prec.apply(r[None])
    assert z.shape == (1, system.size)
    assert z[0].tobytes() == prec.apply(r).tobytes()


def test_preconditioner_on_a_stack_matches_single_applies(ops_16):
    system = build_system(ops_16, 0.5, np.zeros(ops_16.mesh.num_vertices))
    prec = RieszPreconditioner(system)
    stack = np.random.default_rng(8).standard_normal((3, system.size))
    # the R_U solve has 3 columns and the R_H solve 6, ordered v_1, p_1,
    # v_2, ...; a wider solve may round differently, by a few ulps
    got = prec.apply(stack)
    for row, r in zip(got, stack):
        want = prec.apply(r)
        assert np.abs(row - want).max() <= 1e-14 * np.abs(want).max()


def test_preconditioner_reused_across_alphas(ops_16):
    n = ops_16.mesh.num_vertices
    f = np.zeros(n)
    f[ops_16.active_v] = 1.0
    first = RieszPreconditioner(build_system(ops_16, 1.0, f))
    system = build_system(ops_16, 1e-3, f)
    x_reused, rep_reused = minres(system, first, rho=1e-10)
    x_fresh, rep_fresh = minres(system, RieszPreconditioner(system),
                                rho=1e-10)
    assert rep_reused.iterations == rep_fresh.iterations
    assert rep_reused.residual_history == rep_fresh.residual_history
    assert np.array_equal(x_reused, x_fresh)


class _IdentitySystem:
    def __init__(self, n):
        self.matrix = sp.identity(n, format="csr")
        self.rhs = np.arange(1.0, n + 1.0)


class _IdentityPrec:
    @staticmethod
    def apply(r):
        return r


def test_minres_identity_converges_in_one_iteration():
    system = _IdentitySystem(50)
    x, report = minres(system, _IdentityPrec(), rho=1e-10)
    assert report.iterations == 1
    assert report.converged
    assert x == pytest.approx(system.rhs)


def _unit_data(ops) -> np.ndarray:
    f = np.zeros(ops.mesh.num_vertices)
    f[ops.active_v] = 1.0
    return f


def test_lockstep_with_a_preconditioner_returning_its_input(ops_16):
    # the identity hands each system its own row of the residual stack
    systems = [build_system(ops_16, alpha, _unit_data(ops_16))
               for alpha in (1e-1, 1e-3)]
    got = minres_lockstep(systems, _IdentityPrec(), rho=1e-10, max_iter=40)
    for system, (x, report) in zip(systems, got):
        x_want, want = oracles.minres(system, _IdentityPrec(), rho=1e-10,
                                      max_iter=40)
        assert x.tobytes() == x_want.tobytes()
        assert report == want


class _StackRecorder:
    """A Riesz preconditioner that records the height of every stack."""

    def __init__(self, system):
        self.prec = RieszPreconditioner(system)
        self.heights = []

    def apply(self, stack):
        self.heights.append(len(stack))
        return self.prec.apply(stack)


def test_converged_systems_leave_the_lockstep_batch(ops_16):
    f = _unit_data(ops_16)
    systems = [build_system(ops_16, alpha, f) for alpha in (1.0, 1e-4)]
    systems.append(build_system(ops_16, 1e-2, np.zeros_like(f)))
    prec = _StackRecorder(systems[0])
    (_, fast), (_, slow), (x_zero, zero) = minres_lockstep(
        systems, prec, rho=1e-10)
    assert fast.converged and slow.converged
    assert 0 < fast.iterations < slow.iterations
    # zero data stops after the first apply; alpha = 1 leaves the batch
    # after its last iteration, while alpha = 1e-4 runs on alone
    assert zero == SolveReport(0, [], True) and not x_zero.any()
    assert prec.heights == ([3] + [2] * fast.iterations
                            + [1] * (slow.iterations - fast.iterations))


@settings(max_examples=20, derandomize=True, database=None, deadline=None)
@given(alphas=st.lists(st.floats(-4.0, 0.0).map(lambda e: 10.0 ** e),
                       min_size=1, max_size=5),
       zero=st.integers(-1, 4), max_iter=st.integers(1, 160),
       seed=st.integers(0, 2 ** 16))
def test_lockstep_matches_solves_alone(ops_16, alphas, zero, max_iter, seed):
    """Any batch of alphas in [1e-4, 1], each system with its own data:
    the zero data of system ``zero`` (if in the batch) stops it at once,
    and max_iter (up to 160; ops_16 converges in 53-153) stops some
    early.  A batch of one is ``oracles.minres`` bit for bit; in a wider
    batch each system keeps its count within 8 and its x within 1e-8 of
    max |x| of its solve alone, as the wider solves may round
    differently."""
    rng = np.random.default_rng(seed)
    systems = []
    for i, alpha in enumerate(alphas):
        f = np.zeros(ops_16.mesh.num_vertices)
        if i != zero:
            f[ops_16.active_v] = rng.standard_normal(len(ops_16.active_v))
        systems.append(build_system(ops_16, alpha, f))
    prec = RieszPreconditioner(systems[0])
    got = minres_lockstep(systems, prec, rho=1e-10, max_iter=max_iter)
    for system, (x, report) in zip(systems, got):
        x_alone, alone = oracles.minres(system, prec, rho=1e-10,
                                        max_iter=max_iter)
        assert len(report.residual_history) == report.iterations
        if len(systems) == 1:
            assert x.tobytes() == x_alone.tobytes()
            assert report == alone
        else:
            assert abs(report.iterations - alone.iterations) <= 8
            assert (np.abs(x - x_alone).max()
                    <= 1e-8 * np.abs(x_alone).max())


@pytest.mark.parametrize("alpha", [1.0, 1e-4, 0.0])
def test_build_system_matches_per_alpha_bmat(ops, alpha):
    f = _unit_data(ops)
    got = build_system(ops, alpha, f)
    want = oracles.build_system(ops, alpha, f)
    for name in ("indptr", "indices", "data"):
        assert (getattr(got.matrix, name).tobytes()
                == getattr(want.matrix, name).tobytes()), name
    assert got.rhs.tobytes() == want.rhs.tobytes()
    assert got.matrix.shape == want.matrix.shape


@pytest.mark.parametrize("alpha", [1e-2, 1e-4])
def test_minres_matches_allocating_minres(ops_16, alpha):
    system = build_system(ops_16, alpha, _unit_data(ops_16))
    prec = RieszPreconditioner(system)
    x, report = minres(system, prec, rho=1e-10)
    x_want, want = oracles.minres(system, prec, rho=1e-10)
    assert x.tobytes() == x_want.tobytes()
    assert report == want


def test_minres_with_a_preconditioner_returning_its_input(ops_16):
    # _IdentityPrec hands MINRES its own residual back as y
    system = build_system(ops_16, 1e-2, _unit_data(ops_16))
    x, report = minres(system, _IdentityPrec(), rho=1e-10, max_iter=40)
    x_want, want = oracles.minres(system, _IdentityPrec(), rho=1e-10,
                                  max_iter=40)
    assert x.tobytes() == x_want.tobytes()
    assert report == want


def test_systems_copy_the_kept_matrix_and_change_no_block(ops_16):
    f = _unit_data(ops_16)
    riesz_u = ops_16.riesz_u.data.tobytes()
    kkt = ops_16._kkt
    kept = [kkt.data.tobytes(), kkt.indices.tobytes(), kkt.indptr.tobytes()]
    systems = [build_system(ops_16, alpha, f)
               for alpha in (1.0, 0.5, 1e-3, 0.0, 1e-3)]
    assert ops_16._kkt is kkt
    assert ops_16.riesz_u.data.tobytes() == riesz_u
    assert [kkt.data.tobytes(), kkt.indices.tobytes(),
            kkt.indptr.tobytes()] == kept
    assert len({id(s.matrix) for s in systems}) == len(systems)
    for system in systems:
        assert system.matrix.data.flags.writeable
        assert not np.shares_memory(system.matrix.data, kkt.data)


def test_minres_exact_breakdown():
    # A = 2 I, b = e_1: the first Lanczos step spans the solution, so
    # beta = 0 and the residual is exactly 0 after one iteration
    system = SimpleNamespace(matrix=2.0 * sp.identity(4, format="csr"),
                             rhs=np.eye(4)[0])
    x, report = minres(system, SimpleNamespace(apply=np.copy), rho=1e-10)
    assert np.array_equal(x, np.eye(4)[0] / 2.0)
    assert report == SolveReport(1, [0.0], True)


def test_minres_invalid_rho(ops_16):
    system = build_system(ops_16, 1.0, np.zeros(ops_16.mesh.num_vertices))
    prec = RieszPreconditioner(system)
    with pytest.raises(SaddleError):
        minres(system, prec, rho=0.0)
    with pytest.raises(SaddleError):
        minres(system, prec, rho=1.5)


def test_minres_residual_history(ops_16):
    n = ops_16.mesh.num_vertices
    f = np.zeros(n)
    f[ops_16.active_v] = 1.0
    system = build_system(ops_16, 1e-2, f)
    prec = RieszPreconditioner(system)
    x, report = minres(system, prec, rho=1e-10, max_iter=1000)
    assert report.converged
    hist = np.array(report.residual_history)
    assert len(hist) == report.iterations
    assert hist[-1] < 1e-10
    # nonincreasing (MINRES minimization property), tiny float slack
    assert np.all(np.diff(hist) <= 1e-14)
    # converged flag consistent with an explicit residual evaluation
    r = system.rhs - system.matrix @ x
    z = prec.apply(r)
    num = np.sqrt(r @ z)
    z0 = prec.apply(system.rhs)
    den = np.sqrt(system.rhs @ z0)
    assert num / den == pytest.approx(hist[-1], rel=0.5)


def test_minres_max_iter_flag(ops_16):
    n = ops_16.mesh.num_vertices
    f = np.zeros(n)
    f[ops_16.active_v] = 1.0
    system = build_system(ops_16, 1e-4, f)
    prec = RieszPreconditioner(system)
    x, report = minres(system, prec, rho=1e-10, max_iter=3)
    assert not report.converged
    assert report.iterations == 3


def test_solution_solves_system(ops_16):
    rng = np.random.default_rng(5)
    n = ops_16.mesh.num_vertices
    f = np.zeros(n)
    f[ops_16.active_v] = rng.standard_normal(len(ops_16.active_v))
    system = build_system(ops_16, 1e-2, f)
    prec = RieszPreconditioner(system)
    x, report = minres(system, prec, rho=1e-12, max_iter=2000)
    assert report.converged
    resid = np.linalg.norm(system.rhs - system.matrix @ x)
    assert resid <= 1e-9 * np.linalg.norm(system.rhs)


@pytest.fixture(scope="module")
def small_spectrum(geometry, tensor, rule):
    """A refined spectrum system (eps = 0.125, h0 = 0.2, alpha = 1e-3)
    and its eigenvalues."""
    ops = make_ops(geometry, tensor, rule, 0.125, h0=0.2)
    system = build_system(ops, 1e-3, np.zeros(ops.mesh.num_vertices))
    return system, spectrum(system)


def test_spectrum_banding_small(small_spectrum):
    alpha = 1e-3
    system, eigs = small_spectrum
    assert len(eigs) == system.size
    assert np.isrealobj(eigs)
    bands = detect_bands(eigs, alpha)
    lo, hi = bands["negative"]
    assert hi < -1e-2            # negative band separated from zero
    assert bands["alpha_band"] is not None
    a_lo, a_hi = bands["alpha_band"]
    assert a_lo >= 0.4 * alpha and a_hi <= 2.0 * alpha * (1 + 1e-8)
    assert bands["unit_band"][0] > 5 * alpha


def test_detect_bands_isolated_eigenvalues():
    alpha = 1e-3
    eigs = np.array([-1.0, -0.8, -0.6, -0.5,   # negative band
                     -0.02, -0.01,             # isolated above it
                     5e-4, 1e-3, 2e-3,         # O(alpha) band
                     0.01, 0.02,               # isolated below the O(1) band
                     0.5, 1.0, 2.0])           # O(1) band
    bands = detect_bands(eigs[::-1], alpha)
    # neither band's range includes its isolated values
    assert bands == {"negative": (-1.0, -0.5), "alpha_band": (5e-4, 2e-3),
                     "unit_band": (0.5, 2.0),
                     "isolated": [-0.02, -0.01, 0.01, 0.02]}


@pytest.mark.parametrize("above, unit_band", [([0.7], (0.7, 0.7)),
                                              ([], None)])
def test_detect_bands_under_two_values_above_two_alpha(above, unit_band):
    # with fewer than two values above 2 alpha there is no jump to split
    # at: nothing is isolated and the O(1) band is what remains
    eigs = np.array([-1.0, -0.9, 5e-4, 1e-3] + above)
    assert detect_bands(eigs, 1e-3) == {
        "negative": (-1.0, -0.9), "alpha_band": (5e-4, 1e-3),
        "unit_band": unit_band, "isolated": []}


def test_spectrum_matches_default_driver(spectrum_setup, spectrum_run):
    # the criterion-5 system: eps = 0.125 on the unrefined h0 = 0.08 mesh
    ops, f0 = spectrum_setup
    system = build_system(ops, 1e-4, f0)
    blocks = [m.copy() for m in (system.matrix, ops.riesz_u, ops.riesz_h)]
    eigs = spectrum(system)
    want = np.sort(eigh(system.matrix.toarray(),
                        riesz_matrix(system).toarray(), eigvals_only=True))
    assert np.abs(eigs - want).max() <= 1e-10 * np.abs(want).max()
    # the spectrum study of the same config gives the same bits
    assert eigs.tobytes() == spectrum_run.eigenvalues.tobytes()
    # the reduction reads the system matrix and the operator set's Riesz
    # blocks, and never writes them
    for before, after in zip(blocks, (system.matrix, ops.riesz_u,
                                      ops.riesz_h)):
        assert (after != before).nnz == 0


@pytest.mark.parametrize("case", ["alpha=1e-4", "alpha=0", "small"])
def test_block_reduction_matches_full_reduction(case, request):
    # the block reduction against the full dense one it replaced: the same
    # lower triangle to rounding, a zero strictly upper triangle, and the
    # same spectrum within the golden bound; the systems and their new
    # spectra are the fixtures' (ops_16, with n = 4,072 above the dense
    # cap, would take seconds)
    if case == "alpha=1e-4":
        ops, f0 = request.getfixturevalue("spectrum_setup")
        system = build_system(ops, 1e-4, f0)
        eigs = request.getfixturevalue("spectrum_run").eigenvalues
    else:
        system, eigs = request.getfixturevalue(
            "spectrum_alpha0" if case == "alpha=0" else "small_spectrum")
    c = _reduced_lower(system)
    a = system.matrix.toarray(order="F")
    reduce_in_place(a, system)
    lower = np.tril(a)
    assert np.abs(c - lower).max() <= 1e-14 * np.abs(lower).max()
    want = np.sort(eigh(a, eigvals_only=True, driver="evd",
                        overwrite_a=True))
    assert np.abs(eigs - want).max() <= SPECTRUM_TOL * np.abs(want).max()


def test_spectrum_reads_only_the_size_of_the_matrix(small_spectrum):
    # the reduction builds C from the operator set's blocks and alpha: a
    # stand-in matrix that has nothing but a shape gives the same bits
    system, eigs = small_spectrum
    shape_only = SimpleNamespace(shape=system.matrix.shape)
    assert np.array_equal(
        spectrum(dataclasses.replace(system, matrix=shape_only)), eigs)


def test_spectrum_holds_one_dense_matrix(geometry, tensor, rule):
    # C = L^-1 A L^-T is formed in one new dense array, its scratch in
    # C's own columns; beside it live only the dense Cholesky factors
    ops = OperatorSet.build(build_background(0.15),
                            PhaseField(geometry, 0.125), tensor, rule)
    system = build_system(ops, 1e-4, np.zeros(ops.mesh.num_vertices))
    ops.riesz_h  # restricted first: only the dense arrays are measured
    n = system.size
    tracemalloc.start()
    try:
        spectrum(system)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * n * n * 8, f"peak {peak / (8 * n * n):.2f} n^2"


def test_brezzi_stability_across_eps(geometry, tensor, rule):
    """alpha-norm of the solution bounded by the data norm with an
    empirical constant stable (within 2x) across eps."""
    alpha = 1e-2
    consts = []
    for eps in (0.125, 0.0625, 0.03125):
        ops = make_ops(geometry, tensor, rule, eps, h0=0.15)
        n = ops.mesh.num_vertices
        theta_f = lambda t: np.cos(2 * t)
        diag_b = ops.b_b.diagonal()
        nodes = np.flatnonzero(diag_b > 0)
        f = np.zeros(n)
        f[nodes] = theta_f(np.arctan2(ops.mesh.vertices[nodes, 1],
                                      ops.mesh.vertices[nodes, 0]))
        system = build_system(ops, alpha, f)
        prec = RieszPreconditioner(system)
        x, report = minres(system, prec, rho=1e-10)
        assert report.converged
        u, v, p, _ = system.split(x)
        a_u, a_v = ops.active_u, ops.active_v
        b_uu = ops.b_h[np.ix_(a_u, a_u)]
        b_bb = ops.b_b[np.ix_(a_v, a_v)]
        k_vv = ops.k_omega[np.ix_(a_v, a_v)]
        r_h = ops.riesz_h
        lhs = (alpha * (u @ (b_uu @ u)) + alpha * (v @ (k_vv @ v))
               + v @ (b_bb @ v) + p @ (r_h @ p))
        data_norm_sq = f @ (ops.b_b @ f)
        consts.append(np.sqrt(lhs / data_norm_sq))
    assert max(consts) <= 2.0 * min(consts)
