"""Saddle-point system, Riesz preconditioner, MINRES and spectrum.

The Tikhonov optimality system on the diffuse spaces is the symmetric
block operator (unknown ordering (u, v, p, mu_v, mu_p), fixed):

    [ alpha B_H   0      -B_H     0    0  ] [u   ]   [0        ]
    [ 0           B_B    K_omega  m    0  ] [v   ]   [B_B f~   ]
    [-B_H         K_omega 0       0    m  ] [p   ] = [0        ]
    [ 0           m^T    0        0    0  ] [mu_v]   [0        ]
    [ 0           0      m^T      0    0  ] [mu_p]   [0        ]

restricted to the active DOF sets; ``OperatorSet`` holds those blocks,
each restricted at its first read and kept.  The two scalar multipliers
enforce the mean constraints <v, 1>_U = <p, 1>_U = 0 while keeping the
matrix symmetric for MINRES.

The preconditioner applies the inverse Riesz maps blockwise and exactly,
by the operator set's sparse LU factors: B_H on the control block, the
H-norm matrix (M-weighted stiffness + bulk mass) on the state and
adjoint blocks (one two-column solve), and the scalar <1, 1>_U on the
multiplier rows.  Both blocks are SPD, so they are factored in
SuperLU's symmetric mode: minimum-degree ordering of A^T + A
(``MMD_AT_PLUS_A``) with diagonal pivots.  The blocks depend on the
operator set only, so it factors each once and every alpha on it reads
that factor.  MINRES stops when the preconditioned residual norm
sqrt(r^T P^{-1} r), relative to its initial value, falls below rho.

The dense spectrum solves A q = lambda P q for the same block-diagonal
P by a block Cholesky reduction to C = L^-1 A L^-T.  Only the blocks of
A's lower triangle that the KKT structure lets be nonzero are reduced,
from their sparse blocks, straight into the lower triangle of one
Fortran-ordered n x n array, which the symmetric eigensolver then
overwrites; A is never dense, so one n x n array lives.

Every inner product whose value reaches a stopping test or a data file
goes through ``_dot``.  BLAS ``ddot`` splits long vectors across its
threads, which reorders the sum (so iteration counts and CSVs would
depend on the thread count) and leaves a woken worker thread spinning
through every solve; einsum never calls BLAS and sums in one order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .assembly import OperatorSet
from .geometry import StageError


class SaddleError(StageError, RuntimeError):
    stage = "saddle"


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """Inner product of two 1-D vectors, summed in one fixed order at
    any BLAS thread count."""
    return float(np.einsum("i,i->", a, b))


@dataclass
class SaddleSystem:
    """Assembled KKT operator on the active sets."""

    matrix: sp.csr_matrix
    rhs: np.ndarray
    nu: int                 # number of active control DOFs
    nv: int                 # number of active state DOFs
    ops: OperatorSet
    mult_scale: float       # <1, 1>_U, natural multiplier scaling

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    def split(self, x: np.ndarray):
        """Slice a system vector into (u, v, p, multipliers)."""
        nu, nv = self.nu, self.nv
        return (x[:nu], x[nu:nu + nv], x[nu + nv:nu + 2 * nv],
                x[nu + 2 * nv:])


def build_system(ops: OperatorSet, alpha: float,
                 f_tilde: np.ndarray) -> SaddleSystem:
    """Assemble the symmetric saddle system for data vector f_tilde.

    ``f_tilde`` is a full-length nodal vector supported on the B-band
    (the constant-normal extension of the measured data).  On the eps = 0
    operator set of ``assemble_sharp`` this is the sharp reference
    system, with f_tilde the data on the outer ring.  alpha = 0 builds
    the unregularized system, whose spectrum the spectrum study reads;
    the Tikhonov solves refuse it.
    """
    if not alpha >= 0.0:
        raise SaddleError(f"alpha must be >= 0, got {alpha}")
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
    return SaddleSystem(mat, rhs, nu, nv, ops, mult_scale)


@dataclass
class RieszPreconditioner:
    """Block-diagonal inverse Riesz map, by its operator set's LU factors."""

    system: SaddleSystem
    _apply_u: object = field(init=False, repr=False)
    _apply_h: object = field(init=False, repr=False)
    # the H block that _apply_h inverts
    _riesz_h: sp.csr_matrix = field(init=False, repr=False)

    def __post_init__(self):
        ops = self.system.ops
        self._riesz_h = ops.riesz_h
        try:
            self._apply_u = ops.riesz_u_lu.solve
            self._apply_h = ops.riesz_h_lu.solve
        except RuntimeError as err:
            raise SaddleError(
                f"Riesz block factorization failed ({err}); "
                f"active sets are inconsistent") from err

    def apply(self, r: np.ndarray) -> np.ndarray:
        s = self.system
        nu, nv = s.nu, s.nv
        z = np.empty_like(r)
        z[:nu] = self._apply_u(r[:nu])
        # state and adjoint blocks: one solve with an (nv, 2) right side
        z[nu:nu + 2 * nv].reshape(2, nv).T[:] = self._apply_h(
            r[nu:nu + 2 * nv].reshape(2, nv).T)
        z[nu + 2 * nv:] = r[nu + 2 * nv:] / s.mult_scale
        return z


@dataclass
class SolveReport:
    """Outcome of one MINRES solve."""

    iterations: int
    residual_history: list
    converged: bool


def minres(system: SaddleSystem, prec: RieszPreconditioner, rho: float,
           max_iter: int = 2000):
    """Preconditioned MINRES with the relative preconditioned-residual stop.

    Returns (x, SolveReport).  residual_history[k] is the norm ratio after
    k+1 iterations; the history is nonincreasing in exact arithmetic.
    Hitting max_iter reports converged=False instead of raising; a
    right-hand side that is not finite returns x all nan after 0
    iterations, not converged.
    """
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


def _reduced_lower(system: SaddleSystem) -> np.ndarray:
    """The lower triangle of C = L^-1 A L^-T, in a new Fortran-ordered
    n x n array whose strictly upper triangle is zero; L L^T is the
    block Cholesky factor of the Riesz matrix diag(R_U, R_H, R_H, s I)
    with s = mult_scale (Golub & Van Loan, Matrix Computations, 4th ed.,
    8.7.2).

    Only the blocks of A's lower triangle that the KKT structure lets be
    nonzero are reduced, each from its sparse block of ``system.matrix``:
    (u, u), (v, v) and (p, v) by LAPACK ``dsygst``, (p, u) by two
    ``dtrsm`` and the multiplier rows by one ``dtrsm`` against L_H.
    ``dsygst`` reads the lower triangle of its symmetric input, so the
    rounding-level asymmetry of the assembled K drops out; (p, v) lies
    wholly below the diagonal, so both of its triangles are written.
    The (v, u), (p, p), (mu, u) and (mu, mu) blocks must be empty.  The
    dense scratch lives in C's p columns, which are contiguous and whose
    lower triangle receives only the multiplier rows, written after the
    scratch is zeroed.  R_U and R_H are factored densely, once each, from
    copies of the operator set's blocks.
    """
    from scipy.linalg import cholesky
    from scipy.linalg.blas import dtrsm
    from scipy.linalg.lapack import dsygst

    # tocsr() of a CSR matrix is the matrix itself, not a copy
    a, nu, nv = system.matrix.tocsr(), system.nu, system.nv
    n = a.shape[0]
    u, v, p, mu = (slice(0, nu), slice(nu, nu + nv),
                   slice(nu + nv, nu + 2 * nv), slice(nu + 2 * nv, n))
    for rows, cols, name in ((v, u, "(v, u)"), (p, p, "(p, p)"),
                             (mu, u, "(mu, u)"), (mu, mu, "(mu, mu)")):
        if a[rows, cols].count_nonzero():
            raise SaddleError(f"KKT block {name} holds an entry; the "
                              f"spectrum reduction needs it empty")
    l_u, l_h = (cholesky(block.toarray(order="F"), lower=True,
                         overwrite_a=True)
                for block in (system.ops.riesz_u, system.ops.riesz_h))
    c = np.zeros((n, n), order="F")
    flat = c[:, p].reshape(-1, order="F")   # a view of n * nv values

    def scratch(block) -> np.ndarray:
        """Sparse ``block`` as a dense F-ordered array in the scratch."""
        return block.toarray(out=flat[:block.shape[0] * block.shape[1]]
                             .reshape(block.shape, order="F"))

    for rows, factor, work in ((u, l_u, a[u, u].toarray(order="F")),
                               (v, l_h, scratch(a[v, v]))):
        dsygst(work, factor, lower=1, overwrite_a=1)
        diag = c[rows, rows]
        for j in range(work.shape[1]):      # the lower triangle only
            diag[j:, j] = work[j:, j]
    work = scratch(a[p, v])
    dsygst(work, l_h, lower=1, overwrite_a=1)
    c_pv = c[p, v]
    c_pv[...] = work
    for j in range(1, nv):                  # mirror the lower triangle
        c_pv[:j, j] = c_pv[j, :j]
    work = scratch(a[p, u])
    dtrsm(1.0, l_h, work, lower=1, overwrite_b=1)
    dtrsm(1.0, l_u, work, side=1, lower=1, trans_a=1, overwrite_b=1)
    c[p, u] = work
    # multiplier rows: s^-1/2 A_mu,v L_H^-T and s^-1/2 A_mu,p L_H^-T
    k = n - nu - 2 * nv
    work = scratch(sp.vstack([a[mu, v], a[mu, p]]).T)
    dtrsm(1.0 / np.sqrt(system.mult_scale), l_h, work, lower=1,
          overwrite_b=1)
    c[mu, v] = work[:, :k].T
    mu_p = work[:, k:].T.copy()
    flat[:] = 0.0
    c[mu, p] = mu_p
    return c


def spectrum(system: SaddleSystem) -> np.ndarray:
    """Eigenvalues of the Riesz-preconditioned operator, sorted ascending.

    Solves the generalized symmetric problem A q = lambda P q with P the
    (SPD) Riesz block matrix, densely: P is block diagonal, so
    ``_reduced_lower`` forms the lower triangle of C = L^-1 A L^-T
    (P = L L^T), whose standard symmetric eigenvalues are those of the
    pencil.  Callers bound the size; the spectrum study checks it
    against ``solver.dense_cap``.
    """
    from scipy.linalg import eigh

    c = _reduced_lower(system)
    # divide and conquer: on the default system its eigenvalues move half
    # as much as MRRR's (evr) between one and two BLAS threads; it reads
    # the lower triangle only
    vals = eigh(c, eigvals_only=True, driver="evd", overwrite_a=True)
    return np.sort(vals)


# Smallest ratio of consecutive eigenvalues that separates isolated
# eigenvalues from a band.
BAND_JUMP_FACTOR = 8.0


def _split_at_jump(mags: np.ndarray):
    """(isolated, band) of ascending magnitudes: the values up to the
    largest relative jump between neighbours, if that jump is at least
    BAND_JUMP_FACTOR, and the rest.  Fewer than two values have no jump:
    nothing is isolated."""
    if len(mags) >= 2:
        ratios = mags[1:] / mags[:-1]
        cut = int(np.argmax(ratios))
        if ratios[cut] >= BAND_JUMP_FACTOR:
            return list(mags[:cut + 1]), mags[cut + 1:]
    return [], mags


def detect_bands(eigs: np.ndarray, alpha: float):
    """Classify a preconditioned-KKT spectrum into its three bands.

    Returns a dict with the negative band, the O(alpha) band, the O(1)
    band (as (min, max) tuples) and the list of isolated eigenvalues
    falling outside all three.  Band edges are found by the largest
    relative jump (at least BAND_JUMP_FACTOR) between consecutive
    positive eigenvalues in the gap region above 2 alpha, and between
    consecutive negative magnitudes; neither the negative nor the O(1)
    band's range includes its isolated values.
    """
    eigs = np.sort(np.asarray(eigs, dtype=float))
    neg = eigs[eigs < 0.0]
    pos = eigs[eigs > 0.0]
    if len(neg) == 0 or len(pos) == 0:
        raise SaddleError("spectrum lacks a negative or positive part")
    low = pos[pos <= 2.0 * alpha * (1.0 + 1e-8)]
    isolated_pos, big = _split_at_jump(pos[pos > 2.0 * alpha * (1.0 + 1e-8)])
    isolated_neg, neg_band = _split_at_jump(np.sort(-neg))
    return {
        "negative": (float(-neg_band.max()), float(-neg_band.min())),
        "alpha_band": ((float(low.min()), float(low.max()))
                       if len(low) else None),
        "unit_band": ((float(big.min()), float(big.max()))
                      if len(big) else None),
        "isolated": sorted(isolated_pos + [-m for m in isolated_neg]),
    }
