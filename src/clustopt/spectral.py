"""Eigenvalue machinery: algebraic connectivity and convergence-rate measure.

The algebraic connectivity is the second-smallest eigenvalue of the weighted
Laplacian; it is positive exactly when the graph is connected.

The convergence-rate measure comes from linearizing the coupled
gradient-tracking dynamics

    dx/dt = -Lap x - alpha * y
    dy/dt = -Lap y + d/dt grad f(x)

about the consensus equilibrium.  With per-node curvatures ``H_i`` frozen at
the linearization point, the Jacobian in (x, y) block order is

    [ -Lap          -alpha*I      ]
    [ -H Lap        -Lap - alpha*H ]

which is Hurwitz for connected graphs apart from one structural zero along
the consensus direction (x = ones, y = 0).  The reported rate is the negated
largest real part over the non-structural spectrum: positive means the
optimality gap decays exponentially, larger means faster.

Both measures set the structural zeros aside by the connected components:
the algebraic connectivity is the smallest Laplacian eigenvalue orthogonal
to the component indicators, and the rate is read off a Jacobian whose
structural zeros a rank-one shift per component has moved far left (see
:func:`convergence_rate`).  That shifted Jacobian is defined once, as a
matrix-free operator (:func:`_shifted_jacobian`).  Each measure has one
route from ``ITERATIVE_MIN_ORDER`` up, whose bits do not depend on the BLAS
thread count: the Laplacian gap is this module's own block LOBPCG
(:func:`_lobpcg`), and the rate ARPACK on that operator.  Below that floor
each is one dense LAPACK solve: the rate's is of the same operator's matrix.
:func:`lambda2_blocks` solves many graphs of one order by :func:`_lobpcg`
in one run on their union Laplacian from :mod:`clustopt.graphs`, each with
the bits it has alone; it builds that union itself, so every block that
leaves the stack is cut out in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

from .errors import (
    AllZeroError,
    ConvergenceError,
    DimensionMismatchError,
    InvalidParamsError,
    NotSymmetricError,
    SizeLimitError,
)
from .graphs import DEFAULT_SIZE_CAP, Graph, _components, _is_real, \
    laplacian_blocks, laplacian_sparse, union_laplacian

# Order from which both quantities are iterative: the Laplacian gap is a
# _lobpcg solve once the dimension off the component indicators, n - ncomp,
# is at least ITERATIVE_MIN_ORDER - 1 (n for a connected graph), and the rate
# an ARPACK solve once n is.  Below it each is one LAPACK solve, dsyevr or
# dgeev.  Why a floor: on stacks of 40 weighted BA, HK and path graphs, most
# graphs at n = 4, 6 and 8 lost the rank of the block-2 basis, while from
# n = 9 to 16 all 2,000 per order matched eigvalsh within 1e-12 times the
# scale; and ARPACK needs more than ARNOLDI_K + 1 and at most 2n Krylov
# vectors.  Below it the bits of dsyevr and dgeev matched on 1 and 2
# OpenBLAS threads for 1,350 graphs at n = 3-11 (tests/test_spectral.py).
ITERATIVE_MIN_ORDER = 12
# LOBPCG stops once the residual norm is below LOBPCG_TOL times the
# Gershgorin bound on the largest Laplacian eigenvalue.  A Laplacian
# eigenvalue lies within the residual norm of the returned value.
LOBPCG_TOL = 1e-10
# The slowest graphs measured are paths with weights exp(U(-3, 3)): over 320
# of them at n = 820-1500 one needed 20.6 iterations per node and every other
# one at most 20.  Unit-weight paths and cycles need at most 2.3, and
# weighted scale-free graphs at n = 3000 66-180 iterations in all.
LOBPCG_ITERS_PER_NODE = 21
# ARPACK settings of the matrix-free rate: the number of rightmost
# eigenvalues, their relative residual tolerance and the Krylov basis size,
# which is at most 2n.
ARNOLDI_K = 6
ARNOLDI_TOL = 1e-10
ARNOLDI_NCV = 40
# The slowest spectra measured are stiff ones (mlloss at alpha = 1): up to
# 0.6 restarts per node at n = 100, 0.3 at n = 3000; the others needed at
# most 0.15.
ARNOLDI_RESTARTS_PER_NODE = 3


@dataclass(frozen=True)
class SpectralReport:
    """Connectivity and rate measure of one graph at one tracking rate."""

    lambda2_laplacian: float
    rate: float
    alpha: float
    n: int


@dataclass(frozen=True)
class JacobianSpec:
    """Inputs of the linearized dynamics: Laplacian, rate, curvatures.

    The Laplacian is a dense array or a scipy sparse matrix, kept as CSR.
    """

    laplacian: np.ndarray | sp.spmatrix
    alpha: float
    hessian_diag: np.ndarray

    def __post_init__(self):
        shape = np.shape(self.laplacian)
        if len(shape) != 2 or shape[0] != shape[1]:
            raise DimensionMismatchError(f"laplacian must be square, got {shape}")
        lap = sp.csr_matrix(self.laplacian, dtype=np.float64)
        h = np.asarray(self.hessian_diag, dtype=np.float64).reshape(-1)
        if h.shape[0] != lap.shape[0]:
            raise DimensionMismatchError(
                f"hessian_diag length {h.shape[0]} vs laplacian order {lap.shape[0]}")
        if not (_is_real(self.alpha) and self.alpha > 0):
            raise InvalidParamsError(
                f"alpha must be a finite number > 0, got {self.alpha}")
        if not np.isfinite(h).all():
            raise InvalidParamsError("hessian_diag must be finite")
        object.__setattr__(self, "laplacian", lap)
        object.__setattr__(self, "hessian_diag", h)


def _check_symmetric(m: sp.csr_matrix) -> None:
    """Symmetric within 1e-12 of its largest entry."""
    if m.shape[0] and abs(m - m.T).max() > 1e-12 * max(1.0, abs(m).max()):
        raise NotSymmetricError("matrix is not symmetric within 1e-12")


def lambda2_laplacian(g: Graph) -> float:
    """Algebraic connectivity of the weighted Laplacian.

    0.0 for a graph of at most one node and for a disconnected graph.
    Otherwise, from order ``ITERATIVE_MIN_ORDER`` up, one LOBPCG solve
    (Knyazev, SIAM J. Sci. Comput. 23(2), 2001) for the smallest eigenvalue
    orthogonal to the constant vector, with a block of two vectors, a
    Jacobi preconditioner and a start block from a fixed seed, so reruns
    give the same bits, and so does :func:`lambda2_blocks` for the graph;
    below that order one LAPACK ``dsyevr`` eigenvalue.  The second vector
    keeps the solve going where lambda3 lies close above lambda2, as on
    clustered scale-free graphs, where one vector stalls.
    ``ConvergenceError`` is raised when its residual is still above
    ``LOBPCG_TOL`` times twice the largest weighted degree after
    ``LOBPCG_ITERS_PER_NODE * n`` iterations.  Values within 1e-12 times
    that bound of the structural zero are clamped to exactly 0.
    """
    return _lambda2(laplacian_sparse(g))[0]


def _lambda2(lap: sp.csr_matrix) -> tuple[float, float | None]:
    """Clamped algebraic connectivity of a Laplacian, and its gap if solved."""
    comps = _components(lap)
    if lap.shape[0] < 2 or comps[0] > 1:
        return 0.0, None
    gap, scale = _laplacian_gap(lap, comps)
    return _clamped(gap, scale), gap


def lambda2_blocks(n: int, parts: list[tuple[np.ndarray, np.ndarray]]
                   ) -> list[float | ConvergenceError]:
    """The clamped algebraic connectivity of each order-n graph of
    ``parts``, each the canonical ``(edges, weights)`` of a :class:`Graph`.

    The graphs' :func:`~clustopt.graphs.union_laplacian` is built here and
    owned here only, so every cut of it is in place
    (:func:`~clustopt.graphs.laplacian_blocks`): the disconnected graphs
    leave it up front, and :func:`_lobpcg` consumes what is left.  From
    ``ITERATIVE_MIN_ORDER`` up, for any number of graphs, the connected ones
    are solved in that one stacked run, and each value has the bits of its
    graph solved alone; below it each is a LAPACK eigenvalue.  A graph whose
    solve fails has its ``ConvergenceError`` in its place.
    """
    m, lap = len(parts), union_laplacian(n, parts)
    labels = _components(lap)[1].reshape(m, n)
    lam2: list = [0.0] * m
    connected = (labels == labels[:, :1]).all(axis=1) & (n > 1)
    blocks = np.flatnonzero(connected)
    k = blocks.size
    if n < ITERATIVE_MIN_ORDER or k == 0:  # below the floor: dsyevr each
        for b in blocks:
            rows = slice(b * n, b * n + n)
            try:
                lam2[b] = _clamped(*_laplacian_gap(lap[rows, rows]))
            except ConvergenceError as exc:
                lam2[b] = exc
        return lam2
    if k < m:  # a disconnected graph leaves the stack
        lap = laplacian_blocks(lap, n, connected)
    scale = 2.0 * lap.diagonal().reshape(k, n).max(axis=1)
    gaps = _lobpcg(lap, k, np.arange(k).repeat(n), np.full(k, n))
    for b, gap, s in zip(blocks, gaps, scale):
        lam2[b] = gap if isinstance(gap, ConvergenceError) else _clamped(gap, s)
    return lam2


def _clamped(lam2: float, scale: float) -> float:
    return 0.0 if abs(lam2) <= 1e-12 * max(1.0, scale) else lam2


def _laplacian_gap(lap: sp.csr_matrix,
                   comps: tuple | None = None) -> tuple[float, float]:
    """Smallest eigenvalue orthogonal to the component indicators of the
    symmetric Laplacian ``lap`` of one graph, with the Gershgorin bound on
    the largest, the scale of its rounding.

    ``comps`` is ``connected_components(lap)`` where the caller has it.
    While ``n - ncomp`` is below ``ITERATIVE_MIN_ORDER - 1``: eigenvalue
    ``ncomp`` by LAPACK ``dsyevr``; from there up, one :func:`_lobpcg` run
    without the isolated nodes, which leave ``n - ncomp`` as it is.  The
    floor counts ``n - ncomp``, not n: a graph of many small components
    has few dimensions left to solve in, and there the block-2 basis loses
    rank as it does on small graphs.  ``AllZeroError`` when every node is
    its own component.
    """
    ncomp, labels = comps or connected_components(lap, directed=False)
    n = lap.shape[0]
    if ncomp == n:
        raise AllZeroError("all Laplacian eigenvalues are structurally zero")
    scale = 2.0 * float(lap.diagonal().max())
    if n - ncomp < ITERATIVE_MIN_ORDER - 1:
        try:  # overwrites its own copy
            gap = sla.eigvalsh(lap.toarray(), subset_by_index=[ncomp, ncomp],
                               driver="evr", overwrite_a=True,
                               check_finite=False)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(str(exc)) from exc
        return float(gap[0]), scale
    sizes = np.bincount(labels)
    if sizes.min() == 1:  # isolated nodes add only exact zeros
        keep = sizes[labels] > 1
        return _laplacian_gap(lap[keep][:, keep])
    (gap,) = _lobpcg(lap, 1, labels, sizes)
    if isinstance(gap, ConvergenceError):
        raise gap
    return gap, scale


def _lobpcg(lap: sp.csr_matrix, m: int, labels: np.ndarray,
            sizes: np.ndarray) -> list[float | ConvergenceError]:
    """Smallest Ritz value off the component indicators in each of the
    ``m`` diagonal blocks of ``lap``, all of one order.

    LOBPCG with a block of two per diagonal block: each iteration runs
    Rayleigh-Ritz on the Ritz vectors X, their Jacobi-preconditioned
    residuals W and the last steps P, through a Cholesky factor of their
    Gram matrix scaled to unit rows (Hetmaniuk & Lehoucq, J. Comput. Phys.
    218, 2006).  The new P is the W and P part of the new X.  Where that
    Gram matrix is not positive definite, P is left out for the step; where
    that of X and W is not, the block fails with ``ConvergenceError``.  A
    block stops when its smallest pair's residual norm, also against a
    fresh product, is at most ``LOBPCG_TOL`` times twice its largest
    degree, and fails after ``LOBPCG_ITERS_PER_NODE * n`` iterations.  All
    of this is per block, and the sparse products are row by row, so a
    block gets the bits it gets alone; it leaves the stack once it stops.

    A block that leaves a stack of several is cut out of ``lap`` in place
    (:func:`~clustopt.graphs.laplacian_blocks`), so for ``m > 1`` this
    consumes ``lap``: its caller must own it and not use it again.  A
    stack of one returns when its block stops and never cuts, so a graph's
    cached Laplacian is safe here.
    """
    n = lap.shape[0] // m
    live, res = np.arange(m), np.full(m, np.inf)  # the stacked blocks
    out = [None] * m
    deg = lap.diagonal().reshape(m, n)
    tol = LOBPCG_TOL * (2.0 * deg.max(axis=1))
    maxiter = math.ceil(LOBPCG_ITERS_PER_NODE * n)
    # rows 0-1 X (Ritz vectors), 2-3 W (preconditioned residuals), 4-5 P
    # (last steps) of every block in ``s``; their Laplacian products in ``ls``
    both = np.zeros((2, 6, m, n))
    s, ls = both

    def product(rows: np.ndarray) -> np.ndarray:  # one row of every block
        return (lap @ rows.ravel()).reshape(rows.shape)

    def deflate(rows: np.ndarray) -> None:  # subtract each component's mean
        for r in rows:
            r -= (np.bincount(labels, r.ravel(), sizes.size)
                  / sizes)[labels].reshape(r.shape)

    s[:2] = np.random.default_rng(0).standard_normal((2, 1, n))
    deflate(s[:2])
    ls[0], ls[1] = product(s[0]), product(s[1])
    k = 2  # rows in each block's basis: X, then W, then P
    for _ in range(maxiter):
        basis = both.reshape(12, live.size, n).transpose(1, 0, 2)
        # per block, the Gram matrix and the projected Laplacian
        q = basis[:, :6] @ basis.transpose(0, 2, 1)
        theta, y, ok = _ritz(q, k)
        if k == 6 and not ok.all():  # P nearly in the span of X and W:
            drop = ~ok               # drop it for this step
            theta[drop], y4, ok[drop] = _ritz(q[drop], 4)
            y[drop] = np.pad(y4, ((0, 0), (0, 2), (0, 0)))
        yt = y.transpose(0, 2, 1)[:, None]
        cols = both[:, :k].transpose(2, 0, 1, 3)
        p = yt[..., 2:] @ cols[:, :, 2:]  # new P: the W and P parts of new X
        both[:, :2] = (yt @ cols).transpose(1, 2, 0, 3)
        both[:, 4:6] = p.transpose(1, 2, 0, 3)
        r = ls[:2] - theta.T[..., None] * s[:2]
        res = np.linalg.norm(r[0], axis=-1)
        stop = ok & (res <= tol)  # the updated product drifts: check a
        if stop.any():            # fresh one, in the blocks that pass only
            ls[0, stop] = product(s[0])[stop]
            r[0, stop] = ls[0, stop] - theta[stop, :1] * s[0, stop]
            res[stop] = np.linalg.norm(r[0, stop], axis=-1)
            stop &= res <= tol
        keep = ok & ~stop
        if not keep.all():  # the others stop and leave the stack
            for b, lam, good in zip(live[~keep], theta[~keep, 0], ok[~keep]):
                out[b] = (float(lam) if good
                          else ConvergenceError("LOBPCG basis lost rank"))
            if not keep.any():
                return out
            for i, b in enumerate(np.flatnonzero(keep)):  # in place
                both[:, :, i] = both[:, :, b]
            live, tol, res, r = live[keep], tol[keep], res[keep], r[:, keep]
            both, deg = both[:, :, :live.size], deg[keep]
            s, ls = both
            lap, labels = laplacian_blocks(lap, n, keep), labels[keep.repeat(n)]
        s[2:4] = r / deg
        deflate(s[2:4])
        ls[2], ls[3] = product(s[2]), product(s[3])
        k = 6 if k > 2 else 4
    for b, resid, t in zip(live, res, tol):
        out[b] = ConvergenceError(f"LOBPCG residual {resid:.3g} above "
                                  f"{t:.3g} after {maxiter} iterations")
    return out


def _ritz(q: np.ndarray, k: int) -> tuple[np.ndarray, ...]:
    """Rayleigh-Ritz of each block in its first ``k`` basis rows scaled to
    unit rows: the two smallest Ritz values, their coefficients, and whether
    the block's Gram matrix is positive definite.  A zero basis row (Gram
    diagonal 0) stays zero, not NaN, so its block alone fails Cholesky."""
    q = q[:, :k]
    d = 1.0 / np.sqrt(np.maximum(q.diagonal(0, 1, 2), 1e-300))
    cols, rows = d[:, None], d[..., None]
    c, ok = _cholesky(q[..., :k] * cols * rows)
    ci = np.linalg.inv(c)
    cit = ci.transpose(0, 2, 1)
    theta, v = np.linalg.eigh(ci @ (q[..., 6:6 + k] * cols * rows) @ cit)
    return theta[:, :2], rows * (cit @ v[..., :2]), ok


def _cholesky(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cholesky factors of a stack of matrices, with the identity in place
    of each one that is not positive definite, and which ones are."""
    try:
        return np.linalg.cholesky(a), np.ones(len(a), dtype=bool)
    except np.linalg.LinAlgError:
        if len(a) == 1:
            return np.eye(a.shape[-1])[None], np.zeros(1, dtype=bool)
        c, ok = zip(*(_cholesky(a[i:i + 1]) for i in range(len(a))))
        return np.concatenate(c), np.concatenate(ok)


def default_zero_tol(lap: np.ndarray | sp.spmatrix) -> float:
    """Threshold separating structural zeros from slow modes."""
    norm_inf = float(abs(lap).sum(axis=1).max()) if lap.size else 0.0
    return 1e-9 * (1.0 + norm_inf)


def convergence_rate(spec: JacobianSpec) -> float:
    """Negated largest real part of the non-structural Jacobian spectrum.

    Each connected component c gives the Jacobian J an exact null vector
    ``v_c = (1_c, 0)`` for any curvatures.  With ``u_c = (1_c / |c|, 0)``,
    so ``u_c^T v_c = 1``, the matrix ``J + sigma * sum_c v_c u_c^T`` keeps
    the rest of J's spectrum and has ``sigma`` in place of these zeros
    (Brauer 1952; Saad, Numerical Methods for Large Eigenvalue Problems,
    section 4.2).  ``sigma`` lies left of the infinity-norm bound on the
    spectrum; the shift adds ``sigma`` times the component mean of x to x.
    Eigenvalues with |Re| below :func:`default_zero_tol` are still
    discarded as structural: where a component's curvatures sum to zero its
    zero is defective, and the shift moves one of the pair.  The shifted
    Jacobian is one matrix-free operator, :func:`_shifted_jacobian`, two
    sparse Laplacian products per application, and one solver per order
    runs on it:

    * From order ``ITERATIVE_MIN_ORDER`` up: ARPACK (Lehoucq, Sorensen &
      Yang, ARPACK Users' Guide, SIAM, 1998) finds the ``ARNOLDI_K``
      eigenvalues of largest real part, with a Krylov basis of
      ``min(ARNOLDI_NCV, 2n)`` vectors and a start vector of a fixed seed,
      so reruns give the same bits.  ``ConvergenceError`` is raised when
      ARPACK has not converged after ``ARNOLDI_RESTARTS_PER_NODE * n``
      restarts.
    * Below it: every eigenvalue of the same operator's matrix, the
      operator applied to the 2n x 2n identity (LAPACK ``dgeev``).

    At alpha = 1e-3 the rate equals alpha times the mean curvature to about
    7 digits, a slow mode far right of the Laplacian bulk (on an HK graph
    at n = 800 the rate was 0.20000003 while lambda2 was 3.27); the
    rightmost-eigenvalue search resolves it to its relative tolerance.

    With all curvatures zero the spectrum is that of the negated Laplacian
    doubled, and the rate is the Laplacian gap that :func:`lambda2_laplacian`
    computes, without clamping; its structural zeros are the component
    indicators, so the zero tolerance plays no part.  A matrix given here is
    the one way a Laplacian this package did not build reaches that gap, so
    it is checked first: ``NotSymmetricError`` unless it is symmetric within
    1e-12 of its largest entry.  Otherwise ``SizeLimitError``
    is raised, before any allocation, when the Jacobian order ``2n`` exceeds
    ``DEFAULT_SIZE_CAP``.
    """
    lap = spec.laplacian
    if not spec.hessian_diag.any():
        _check_symmetric(lap)
        return _laplacian_gap(lap)[0]

    n = lap.shape[0]
    if 2 * n > DEFAULT_SIZE_CAP:
        raise SizeLimitError(
            f"Jacobian order {2 * n} exceeds cap {DEFAULT_SIZE_CAP}")
    jac = _shifted_jacobian(spec)
    if n < ITERATIVE_MIN_ORDER:
        try:
            vals = np.linalg.eigvals(jac @ np.eye(2 * n))
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(str(exc)) from exc
    else:
        vals = _rightmost_arnoldi(jac)
    keep = vals[np.abs(vals.real) >= default_zero_tol(lap)]
    if keep.size == 0:
        raise AllZeroError("all Jacobian eigenvalues are structurally zero")
    return float(-keep.real.max())


def _shifted_jacobian(spec: JacobianSpec) -> spla.LinearOperator:
    """The Jacobian of ``spec`` with the consensus shift, matrix-free.

    ``sigma`` lies below -||J||_inf, a row-sum bound, so left of every
    eigenvalue of J; within each component c the shift adds ``sigma / |c|``
    times the sum of x over c to every x entry of c.
    """
    lap, alpha, h = spec.laplacian, spec.alpha, spec.hessian_diag
    n = lap.shape[0]
    ncomp, labels = connected_components(lap, directed=False)
    sigma = -1.0 - (2.0 * float(lap.diagonal().max()) + alpha) * (
        1.0 + float(np.abs(h).max()))
    shift = sigma / np.bincount(labels, minlength=ncomp)
    ah = alpha * h

    def matvec(z: np.ndarray) -> np.ndarray:
        x, y = z[:n].ravel(), z[n:].ravel()
        lx = lap @ x
        xsum = np.bincount(labels, weights=x, minlength=ncomp)
        return np.concatenate((-lx - alpha * y + (shift * xsum)[labels],
                               -h * lx - lap @ y - ah * y))

    return spla.LinearOperator((2 * n, 2 * n), matvec=matvec, dtype=np.float64)


def _rightmost_arnoldi(jac: spla.LinearOperator) -> np.ndarray:
    """The ``ARNOLDI_K`` rightmost eigenvalues of an operator of order 2n."""
    n = jac.shape[0] // 2
    v0 = np.random.default_rng(0).standard_normal(2 * n)
    try:
        return spla.eigs(jac, k=ARNOLDI_K, which="LR", tol=ARNOLDI_TOL, v0=v0,
                         ncv=min(ARNOLDI_NCV, 2 * n),
                         maxiter=math.ceil(ARNOLDI_RESTARTS_PER_NODE * n),
                         return_eigenvectors=False)
    except spla.ArpackError as exc:  # includes ArpackNoConvergence
        raise ConvergenceError(f"ARPACK rate solve failed: {exc}") from exc


def spectral_report(g: Graph, alpha: float,
                    hessian_diag: np.ndarray | None = None) -> SpectralReport:
    """:func:`lambda2_laplacian` and :func:`convergence_rate` of one graph,
    with one Laplacian gap solve: without curvatures the rate is that gap."""
    lap = laplacian_sparse(g)
    lam2, gap = _lambda2(lap)
    h = np.zeros(g.n) if hessian_diag is None else hessian_diag
    spec = JacobianSpec(laplacian=lap, alpha=alpha, hessian_diag=h)
    rate = (gap if gap is not None and not spec.hessian_diag.any()
            else convergence_rate(spec))
    return SpectralReport(lambda2_laplacian=lam2, rate=rate, alpha=alpha, n=g.n)
