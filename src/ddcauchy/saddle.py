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

There is one KKT pattern per operator set: ``OperatorSet._kkt`` is the
matrix above at alpha = 1, assembled once and read-only.  alpha scales
only the (u, u) slots, so each system is a new CSR matrix that shares
the kept index arrays and owns a copy of the values, with alpha B_H in
those slots; no system changes another's matrix or the kept one.

MINRES works in place: it allocates its iterate, its three direction
vectors, the Lanczos vector and one scratch vector once per solve and
does every scaled sum into them, in the order of the textbook
recurrence, so its bits equal those of the allocating form.  The only
new vectors per iteration are the product ``A @ v`` and the output of
the preconditioner.  Its body is a generator, ``_minres_steps``, that
yields each residual to be preconditioned and takes P^-1 r back;
``minres_lockstep`` advances several of them, one per system, and
preconditions all their residuals in one ``apply`` on a (K, n) stack,
dropping a system once it stops.  ``minres`` is ``minres_lockstep``
on one system.  ``apply`` may return its input: MINRES never writes
into y (the vector ``apply`` returned), r1 or r2, only into its own
work vectors and into the fresh ``A @ v`` before that becomes r2;
``minres_lockstep`` stacks copies of the residuals, so y is never r2
itself.

The preconditioner applies the inverse Riesz maps blockwise and exactly,
by the operator set's sparse LU factors: B_H on the control block, the
H-norm matrix (M-weighted stiffness + bulk mass) on the state and
adjoint blocks, and the scalar <1, 1>_U on the multiplier rows.  A
stack of K residuals takes one K-column R_U solve and one 2K-column R_H
solve (columns v_1, p_1, v_2, p_2, ...).  SuperLU's supernodal solve
reads the whole factor once per call, whatever the number of columns,
and the table's larger R_H factors (149,764 nonzeros at eps = 2^-6) do
not stay in a 2 MB L2 cache between calls, so one wide solve costs
about 0.7 times as much as K two-column ones.  A one-row stack gets the
bits of a single vector; a wider one may round a few values differently
on a large factor.  Both blocks are SPD, so they are factored in
SuperLU's symmetric mode: minimum-degree ordering of A^T + A
(``MMD_AT_PLUS_A``) with diagonal pivots.  The blocks depend on the
operator set only, so it factors each once and every alpha on it reads
that factor.  MINRES stops when the preconditioned residual norm
sqrt(r^T P^{-1} r), relative to its initial value, falls below rho.

The dense spectrum solves A q = lambda P q for the same block-diagonal
P by a block Cholesky reduction to C = L^-1 A L^-T.  C is built from
the operator set's blocks and alpha, not from the assembled matrix:
C_uu = alpha I exactly, and the other nonzero blocks of its lower
triangle are reduced from their sparse blocks straight into one
Fortran-ordered n x n array, which the symmetric eigensolver then
overwrites; A is never dense, so one n x n array lives.

Every inner product whose value reaches a stopping test or a data file
goes through ``_dot``.  BLAS ``ddot`` splits long vectors across its
threads, which reorders the sum (so iteration counts and CSVs would
depend on the thread count) and leaves a woken worker thread spinning
through every solve; einsum never calls BLAS and sums in one order.
"""

from __future__ import annotations

import math
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
    alpha: float            # Tikhonov weight: A_uu = alpha R_U
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
    the Tikhonov solves refuse it.  Callers check alpha: the solves
    refuse alpha <= 0 and the config refuses a negative one.
    """
    f_tilde = np.asarray(f_tilde, dtype=float)
    if f_tilde.shape != (ops.mesh.num_vertices,):
        raise SaddleError("f_tilde must be a full-length nodal vector")
    nu, nv = len(ops.active_u), len(ops.active_v)
    kkt = ops._kkt
    data = kkt.data.copy()
    # the (u, u) slots: the first nu rows' entries in columns below nu
    head = data[:kkt.indptr[nu]]
    np.multiply(head, alpha, out=head, where=kkt.indices[:len(head)] < nu)
    mat = sp.csr_matrix((data, kkt.indices, kkt.indptr), shape=kkt.shape)
    rhs = np.zeros(mat.shape[0])
    rhs[nu:nu + nv] = (ops.b_b @ f_tilde)[ops.active_v]
    mult_scale = float(ops.mean_vec.sum())
    return SaddleSystem(mat, rhs, nu, nv, ops, alpha, mult_scale)


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
        """P^-1 r for one system vector r of shape (n,), or for each row
        of a (K, n) stack of them, in a new array of r's shape.

        A stack is solved in one call per factor: one K-column R_U solve
        and one 2K-column R_H solve whose columns are v_1, p_1, v_2, p_2,
        ...  A (1, n) stack gets the bits of the 1-D apply; on a large
        factor, a wider solve may round a few values differently.
        """
        s = self.system
        nu, nv = s.nu, s.nv
        stack = r.reshape(-1, r.shape[-1])
        z = np.empty_like(stack)
        z[:, :nu] = self._apply_u(stack[:, :nu].T).T
        # state and adjoint blocks: one solve with an (nv, 2K) right side,
        # whose Fortran-ordered solution is the 2K blocks back to back
        z[:, nu:nu + 2 * nv] = self._apply_h(
            stack[:, nu:nu + 2 * nv].reshape(-1, nv).T).T.reshape(
                len(stack), 2 * nv)
        z[:, nu + 2 * nv:] = stack[:, nu + 2 * nv:] / s.mult_scale
        return z.reshape(r.shape)


@dataclass
class SolveReport:
    """Outcome of one MINRES solve."""

    iterations: int
    residual_history: list
    converged: bool


def _minres_steps(system: SaddleSystem, rho: float, max_iter: int):
    """The body of ``minres`` for one system, as a generator: it yields
    each residual that needs preconditioning, takes P^-1 r back from
    ``send`` and returns (x, SolveReport)."""
    a = system.matrix
    b = system.rhs
    n = len(b)
    history: list = []

    r1 = b.copy()
    y = yield r1
    # np.sqrt, not math.sqrt: a negative r1 . y gives nan and the
    # not-finite return below instead of a ValueError
    beta1 = float(np.sqrt(_dot(r1, y)))
    if beta1 == 0.0:
        return np.zeros(n), SolveReport(0, history, True)
    if not math.isfinite(beta1):
        return np.full(n, np.nan), SolveReport(0, history, False)

    oldb = 0.0
    beta = beta1
    dbar = 0.0
    epsln = 0.0
    phibar = beta1
    cs = -1.0
    sn = 0.0
    machine_eps = np.finfo(float).eps
    x = np.zeros(n)
    v = np.empty(n)
    w = np.zeros(n)
    w1 = np.empty(n)
    w2 = np.zeros(n)
    tmp = np.empty(n)           # each scaled vector, before it is summed
    r2 = r1.copy()

    converged = False
    k = 0
    for k in range(1, max_iter + 1):
        np.multiply(y, 1.0 / beta, out=v)
        y = a @ v
        if k >= 2:
            y -= np.multiply(r1, beta / oldb, out=tmp)
        alfa = _dot(v, y)
        y -= np.multiply(r2, alfa / beta, out=tmp)
        r1 = r2
        r2 = y
        y = yield r2
        oldb = beta
        beta2 = _dot(r2, y)
        if beta2 < 0.0:
            raise SaddleError("preconditioner is not positive definite")
        beta = math.sqrt(beta2)

        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        gamma = max(math.sqrt(gbar * gbar + beta * beta), machine_eps)
        cs = gbar / gamma
        sn = beta / gamma
        phi = cs * phibar
        phibar = sn * phibar

        # w = (v - oldeps w1 - delta w2) / gamma, into the oldest buffer
        w1, w2, w = w2, w, w1
        np.subtract(v, np.multiply(w1, oldeps, out=tmp), out=w)
        w -= np.multiply(w2, delta, out=tmp)
        w /= gamma
        x += np.multiply(w, phi, out=tmp)

        history.append(phibar / beta1)
        if history[-1] < rho:
            converged = True
            break

    return x, SolveReport(k, history, converged)


def minres_lockstep(systems: list, prec: RieszPreconditioner, rho: float,
                    max_iter: int = 2000) -> list:
    """``minres`` on several systems that share one preconditioner, in
    lockstep: [(x, SolveReport)] in the order of ``systems``.

    Each step preconditions the residuals of every system still running
    with one ``prec.apply`` on their (K, n) stack; a system leaves the
    stack when it converges, hits max_iter or stops at once.  Each
    system's iterates are those ``minres`` computes for it alone, up to
    the rounding of the wider solves.
    """
    if not (0.0 < rho < 1.0):
        raise SaddleError(f"rho must be in (0, 1), got {rho}")
    results = [None] * len(systems)
    live = [(i, _minres_steps(system, rho, max_iter))
            for i, system in enumerate(systems)]
    # row j holds the residual of the j-th live system; each system's
    # next residual goes to its row or an earlier one, after it has read
    # its P^-1 r, so apply may return the stack itself
    stack = np.array([next(steps) for _, steps in live])
    while live:
        preconditioned = prec.apply(stack[:len(live)])
        running = []
        for (i, steps), y in zip(live, preconditioned):
            try:
                stack[len(running)] = steps.send(y)
                running.append((i, steps))
            except StopIteration as done:
                results[i] = done.value
        live = running
    return results


def minres(system: SaddleSystem, prec: RieszPreconditioner, rho: float,
           max_iter: int = 2000):
    """Preconditioned MINRES with the relative preconditioned-residual stop.

    Returns (x, SolveReport).  residual_history[k] is the norm ratio after
    k+1 iterations; the history is nonincreasing in exact arithmetic.
    Hitting max_iter reports converged=False instead of raising; a
    right-hand side that is not finite returns x all nan after 0
    iterations, not converged.  It is ``minres_lockstep`` on one system,
    whose (1, n) stacks precondition with the bits of one vector.
    """
    return minres_lockstep([system], prec, rho, max_iter)[0]


def _reduced_lower(system: SaddleSystem) -> np.ndarray:
    """The lower triangle of C = L^-1 A L^-T, in a new Fortran-ordered
    n x n array whose strictly upper triangle is zero; L L^T is the
    block Cholesky factor of the Riesz matrix diag(R_U, R_H, R_H, s I)
    with s = mult_scale (Golub & Van Loan, Matrix Computations, 4th ed.,
    8.7.2).

    The blocks of A's lower triangle are the operator set's, and the
    rest are empty by construction, so C is built from ``system.ops``
    and ``system.alpha`` alone; of ``system.matrix`` only its size is
    read.  A_uu = alpha R_U, so C_uu = alpha I exactly.  (v, v) and
    (p, v) are reduced by LAPACK ``dsygst``, (p, u) = -B_vu by two
    ``dtrsm`` and the two multiplier rows, both s^-1/2 (L_H^-1 m)^T, by
    one ``dtrsm`` against L_H.  ``dsygst`` reads the lower triangle of
    its symmetric input, so the rounding-level asymmetry of the
    assembled K drops out; (p, v) lies wholly below the diagonal, so
    both of its triangles are written.  The dense scratch lives in C's
    p columns, which are contiguous and whose lower triangle receives
    only the multiplier rows, written after the scratch is zeroed.  R_U
    and R_H are factored densely, once each, from copies of the
    operator set's blocks.
    """
    from scipy.linalg import cholesky
    from scipy.linalg.blas import dtrsm
    from scipy.linalg.lapack import dsygst

    ops, nu, nv, n = system.ops, system.nu, system.nv, system.size
    u, v, p = slice(0, nu), slice(nu, nu + nv), slice(nu + nv, nu + 2 * nv)
    l_u, l_h = (cholesky(block.toarray(order="F"), lower=True,
                         overwrite_a=True)
                for block in (ops.riesz_u, ops.riesz_h))
    c = np.zeros((n, n), order="F")
    np.fill_diagonal(c[u, u], system.alpha)
    flat = c[:, p].reshape(-1, order="F")   # a view of n * nv values

    def scratch(block) -> np.ndarray:
        """Sparse ``block`` as a dense F-ordered array in the scratch."""
        return block.toarray(out=flat[:block.shape[0] * block.shape[1]]
                             .reshape(block.shape, order="F"))

    work = dsygst(scratch(ops.t_vv), l_h, lower=1, overwrite_a=1)[0]
    c_vv = c[v, v]
    for j in range(nv):                     # the lower triangle only
        c_vv[j:, j] = work[j:, j]
    work = dsygst(scratch(ops.k_vv), l_h, lower=1, overwrite_a=1)[0]
    c_pv = c[p, v]
    c_pv[...] = work
    for j in range(1, nv):                  # mirror the lower triangle
        c_pv[:j, j] = c_pv[j, :j]
    work = dtrsm(-1.0, l_h, scratch(ops.b_vu), lower=1, overwrite_b=1)
    c[p, u] = dtrsm(1.0, l_u, work, side=1, lower=1, trans_a=1,
                    overwrite_b=1)
    # multiplier rows: mu_v in the v columns, mu_p in the p columns
    row = dtrsm(1.0 / np.sqrt(system.mult_scale), l_h,
                scratch(ops.mean_col), lower=1, overwrite_b=1)[:, 0].copy()
    flat[:] = 0.0
    c[n - 2, v] = row
    c[n - 1, p] = row
    return c


def spectrum(system: SaddleSystem) -> np.ndarray:
    """Eigenvalues of the Riesz-preconditioned operator, sorted ascending.

    Solves the generalized symmetric problem A q = lambda P q with P the
    (SPD) Riesz block matrix, densely: P is block diagonal, so
    ``_reduced_lower`` forms the lower triangle of C = L^-1 A L^-T
    (P = L L^T) from ``system.ops`` and ``system.alpha``, and C's
    standard symmetric eigenvalues are those of the pencil.  Callers
    bound the size; the spectrum study checks it against
    ``solver.dense_cap``.
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
