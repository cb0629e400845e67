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

The rate has two paths.  Up to order ``RATE_DENSE_LIMIT`` the dense 2n x 2n
Jacobian is deflated by a Householder similarity and solved in full.  Above
it, implicitly restarted Arnoldi (ARPACK; Lehoucq, Sorensen & Yang, ARPACK
Users' Guide, SIAM, 1998) finds the rightmost eigenvalues of a matrix-free
operator, two sparse Laplacian products per application, with the
structural zeros moved far left by a Wielandt shift (see
:func:`convergence_rate`).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
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
from .graphs import Graph, laplacian, laplacian_sparse

# Order up to which lambda2 uses the dense solver.  A speed crossover, not a
# correctness limit: LOBPCG overtakes eigvalsh at about n = 700 on
# scale-free graphs; the limit stays at 800 so graphs up to that order keep
# the dense values they had before.
DENSE_LIMIT = 800
DEFAULT_SIZE_CAP = 20000
# LOBPCG stops once the residual norm is below LOBPCG_TOL times the
# Gershgorin bound on the largest Laplacian eigenvalue.  A Laplacian
# eigenvalue lies within the residual norm of the returned value.
LOBPCG_TOL = 1e-10
# The slowest graphs measured are paths and cycles: a 900-node path needs
# 5.2 iterations per node, scale-free graphs a few hundred in all.
LOBPCG_ITERS_PER_NODE = 10
# Order up to which the rate measure solves the dense Jacobian.  A speed
# crossover: the matrix-free path is faster above it (see convergence_rate).
RATE_DENSE_LIMIT = 175
# ARPACK settings of the matrix-free rate: the number of rightmost
# eigenvalues, their relative residual tolerance and the Krylov basis size.
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

    The Laplacian is a dense array or a scipy sparse matrix; a sparse one
    is kept as CSR.
    """

    laplacian: np.ndarray | sp.spmatrix
    alpha: float
    hessian_diag: np.ndarray

    def __post_init__(self):
        lap = (sp.csr_matrix(self.laplacian, dtype=np.float64)
               if sp.issparse(self.laplacian)
               else np.asarray(self.laplacian, dtype=np.float64))
        h = np.asarray(self.hessian_diag, dtype=np.float64).reshape(-1)
        if lap.ndim != 2 or lap.shape[0] != lap.shape[1]:
            raise DimensionMismatchError(f"laplacian must be square, got {lap.shape}")
        if h.shape[0] != lap.shape[0]:
            raise DimensionMismatchError(
                f"hessian_diag length {h.shape[0]} vs laplacian order {lap.shape[0]}")
        if not self.alpha > 0:
            raise InvalidParamsError(f"alpha must be > 0, got {self.alpha}")
        object.__setattr__(self, "laplacian", lap)
        object.__setattr__(self, "hessian_diag", h)


def eig_symmetric(m: np.ndarray, size_cap: int = DEFAULT_SIZE_CAP) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, ascending."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"expected square matrix, got {m.shape}")
    if m.shape[0] > size_cap:
        raise SizeLimitError(f"order {m.shape[0]} exceeds cap {size_cap}")
    scale = max(1.0, float(np.abs(m).max())) if m.size else 1.0
    if m.size and float(np.abs(m - m.T).max()) > 1e-12 * scale:
        raise NotSymmetricError("matrix is not symmetric within 1e-12")
    try:
        return np.linalg.eigvalsh(m)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(str(exc)) from exc


def eig_general(m: np.ndarray, size_cap: int = DEFAULT_SIZE_CAP) -> np.ndarray:
    """All eigenvalues of a general square matrix (LAPACK Hessenberg + QR)."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"expected square matrix, got {m.shape}")
    if m.shape[0] > size_cap:
        raise SizeLimitError(f"order {m.shape[0]} exceeds cap {size_cap}")
    try:
        return np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(str(exc)) from exc


def lambda2_laplacian(g: Graph) -> float:
    """Algebraic connectivity of the weighted Laplacian.

    Dense solve up to order ``DENSE_LIMIT``.  Above it, one LOBPCG solve
    (Knyazev, SIAM J. Sci. Comput. 23(2), 2001) finds the smallest
    eigenvalue orthogonal to the constant vector, with a Jacobi
    preconditioner and a start vector from a fixed seed, so reruns give the
    same bits.  ``ConvergenceError`` is raised when its residual is still
    above ``LOBPCG_TOL`` times twice the largest weighted degree after
    ``LOBPCG_ITERS_PER_NODE * n`` iterations.  Values indistinguishable
    from the structural zero are clamped to exactly 0.
    """
    if g.n <= 1:
        return 0.0
    if g.n <= DENSE_LIMIT:
        vals = eig_symmetric(laplacian(g))
        lam2 = float(vals[1])
        scale = float(vals[-1]) if vals[-1] > 0 else 1.0
    else:
        lam2, scale = _lambda2_lobpcg(laplacian_sparse(g))
    if abs(lam2) <= 1e-12 * max(1.0, scale):
        return 0.0
    return lam2


def _lambda2_lobpcg(lap: sp.csr_matrix) -> tuple[float, float]:
    """LOBPCG lambda2 of a sparse Laplacian, with its Gershgorin scale."""
    n = lap.shape[0]
    deg = lap.diagonal()
    scale = 2.0 * float(deg.max()) or 1.0  # an edgeless graph has L = 0
    tol = LOBPCG_TOL * scale
    maxiter = math.ceil(LOBPCG_ITERS_PER_NODE * n)
    precond = sp.diags(1.0 / np.where(deg > 0, deg, 1.0))  # isolated: 1
    x0 = np.random.default_rng(0).standard_normal((n, 1))
    ones = np.full((n, 1), 1.0 / math.sqrt(n))
    with warnings.catch_warnings():
        # lobpcg warns and returns its best iterate when it stops short;
        # the residual check below decides instead
        warnings.simplefilter("ignore", UserWarning)
        try:
            vals, vecs = spla.lobpcg(lap, x0, M=precond, Y=ones, tol=tol,
                                     maxiter=maxiter, largest=False)
        except ValueError as exc:  # its final Rayleigh-Ritz eigh failed
            raise ConvergenceError(f"LOBPCG failed: {exc}") from exc
    lam2 = float(vals[0])
    x = vecs[:, 0]
    resid = float(np.linalg.norm(lap @ x - lam2 * x) / np.linalg.norm(x))
    if not resid <= tol:
        raise ConvergenceError(
            f"LOBPCG residual {resid:.3g} above {tol:.3g} "
            f"after {maxiter} iterations")
    return lam2, scale


def build_jacobian(spec: JacobianSpec) -> np.ndarray:
    """Dense 2n x 2n Jacobian of the linearized dynamics."""
    lap = _dense(spec.laplacian)
    n = lap.shape[0]
    h = spec.hessian_diag
    jac = np.zeros((2 * n, 2 * n))
    jac[:n, :n] = -lap
    jac[:n, n:] = -spec.alpha * np.eye(n)
    jac[n:, :n] = -h[:, None] * lap
    jac[n:, n:] = -lap - spec.alpha * np.diag(h)
    return jac


def _dense(lap: np.ndarray | sp.spmatrix) -> np.ndarray:
    return lap.toarray() if sp.issparse(lap) else lap


def default_zero_tol(lap: np.ndarray | sp.spmatrix) -> float:
    """Threshold separating structural zeros from slow modes."""
    norm_inf = float(abs(lap).sum(axis=1).max()) if lap.size else 0.0
    return 1e-9 * (1.0 + norm_inf)


def convergence_rate(spec: JacobianSpec, zero_tol: float | None = None) -> float:
    """Negated largest real part of the non-structural Jacobian spectrum.

    Each connected component c contributes an exact null vector
    ``v_c = (1_c, 0)`` of the Jacobian for every curvature choice, with the
    left null vector ``w_c = (-h_c, 1_c)``; eigenvalues with |Re| below
    ``zero_tol`` are discarded as structural.  The rate takes one of two
    paths:

    * Dense, up to order ``RATE_DENSE_LIMIT``: the consensus direction is
      deflated by a Householder similarity before a full nonsymmetric
      eigensolve, so its numerical shadow cannot contaminate the slow modes.
    * Matrix-free, above it: ARPACK finds the ``ARNOLDI_K`` eigenvalues of
      largest real part of ``J + sigma * sum_c v_c w_c^T / (w_c^T v_c)``,
      from a start vector of a fixed seed, so reruns give the same bits.
      This rank-one Wielandt shift per component keeps every other
      eigenvalue of J and moves each structural zero to ``sigma``, which
      lies left of the infinity-norm bound on the spectrum; a projection
      ``P J P`` would not, since it equals J.  ``w_c^T v_c = -sum(h_c)``, so
      where a component's curvatures sum to zero (relative 1e-12; mlloss
      curvatures can be negative) the zero is defective and the dense
      path runs instead.  ``ConvergenceError`` is raised when ARPACK has
      not converged after ``ARNOLDI_RESTARTS_PER_NODE * n`` restarts.

    The limit is a measured speed crossover.  Median CPU over eight BA and
    HK graphs, both cost families and alpha in {1e-3, 1}, dense against
    matrix-free: 33.1 against 41.2 ms at n = 150, 41.4 against 40.7 ms at
    n = 175, 49.7 against 35.9 ms at n = 200 and 186 against 62 ms at
    n = 300 (2 vCPU Xeon, BLAS on one thread).  Stiff spectra (mlloss at
    alpha = 1, curvatures near 200) are slower matrix-free up to n = 500
    (0.6-0.7 against 0.5 s) and about even at n = 800 (1.1-1.8 against
    1.5-1.7 s); the rest are 8-20 times faster at n = 800.  Above the
    limit the two paths agree to a relative 1e-10; where they differ by
    more than 1e-12 the difference is the dense solve's rounding,
    eps * ||J|| against a small rate.

    At alpha = 1e-3 the rate equals alpha times the mean curvature to about
    7 digits, a slow mode far right of the Laplacian bulk (on an HK graph
    at n = 800 the rate was 0.20000003 while lambda2 was 3.27); the
    rightmost-eigenvalue search resolves it to its relative tolerance.

    With all curvatures zero the spectrum is that of the negated Laplacian
    doubled, so the symmetric solver is used directly and the rate equals
    the algebraic connectivity.  ``SizeLimitError`` is raised, before any
    allocation, when the Jacobian order ``2n - 1`` exceeds
    ``DEFAULT_SIZE_CAP``.
    """
    lap = spec.laplacian
    if zero_tol is None:
        zero_tol = default_zero_tol(lap)
    if not zero_tol > 0:
        raise InvalidParamsError(f"zero_tol must be > 0, got {zero_tol}")

    h = spec.hessian_diag
    if not h.any():
        vals = eig_symmetric(_dense(lap))
        keep = vals[np.abs(vals) >= zero_tol]
        if keep.size == 0:
            raise AllZeroError("all Jacobian eigenvalues are structurally zero")
        return float(keep.min())

    n = lap.shape[0]
    if 2 * n - 1 > DEFAULT_SIZE_CAP:
        raise SizeLimitError(
            f"Jacobian order {2 * n - 1} exceeds cap {DEFAULT_SIZE_CAP}")
    vals = None
    if n > RATE_DENSE_LIMIT:
        vals = _rightmost_arnoldi(sp.csr_matrix(lap), spec.alpha, h)
    if vals is None:
        vals = _deflated_spectrum_dense(spec)
    keep = vals[np.abs(vals.real) >= zero_tol]
    if keep.size == 0:
        raise AllZeroError("all Jacobian eigenvalues are structurally zero")
    return float(-keep.real.max())


def _deflated_spectrum_dense(spec: JacobianSpec) -> np.ndarray:
    """Jacobian spectrum without the consensus direction (Householder)."""
    jac = build_jacobian(spec)
    n2 = jac.shape[0]
    u = np.zeros(n2)
    u[: n2 // 2] = 1.0 / np.sqrt(n2 // 2)
    v = u.copy()
    v[0] -= 1.0  # reflector swapping the consensus direction with e0
    vnorm = np.linalg.norm(v)
    if vnorm > 0:  # n == 1 already has the null vector on e0
        v /= vnorm
        jac -= 2.0 * np.outer(v, v @ jac)
        jac -= 2.0 * np.outer(jac @ v, v)
    return eig_general(jac[1:, 1:])


def _rightmost_arnoldi(lap: sp.csr_matrix, alpha: float,
                       h: np.ndarray) -> np.ndarray | None:
    """Rightmost Jacobian eigenvalues with the structural zeros shifted.

    None when some component's curvatures sum to zero, where the shift is
    undefined.
    """
    n = lap.shape[0]
    ncomp, labels = connected_components(lap, directed=False)
    hsum = np.bincount(labels, weights=h, minlength=ncomp)
    habs = np.bincount(labels, weights=np.abs(h), minlength=ncomp)
    if np.any(np.abs(hsum) <= 1e-12 * habs):
        return None
    # below -||J||_inf (a row-sum bound), so left of every eigenvalue of J
    sigma = -1.0 - (2.0 * float(lap.diagonal().max()) + alpha) * (
        1.0 + float(np.abs(h).max()))
    shift = sigma / -hsum  # sigma / (w_c^T v_c) per component
    ah = alpha * h

    def matvec(z: np.ndarray) -> np.ndarray:
        x, y = z[:n].ravel(), z[n:].ravel()
        lx = lap @ x
        wz = np.bincount(labels, weights=y - h * x, minlength=ncomp)
        return np.concatenate((-lx - alpha * y + (shift * wz)[labels],
                               -h * lx - lap @ y - ah * y))

    op = spla.LinearOperator((2 * n, 2 * n), matvec=matvec, dtype=np.float64)
    v0 = np.random.default_rng(0).standard_normal(2 * n)
    try:
        return spla.eigs(op, k=ARNOLDI_K, which="LR", tol=ARNOLDI_TOL, v0=v0,
                         ncv=ARNOLDI_NCV,
                         maxiter=math.ceil(ARNOLDI_RESTARTS_PER_NODE * n),
                         return_eigenvectors=False)
    except spla.ArpackError as exc:  # includes ArpackNoConvergence
        raise ConvergenceError(f"ARPACK rate solve failed: {exc}") from exc


def spectral_report(g: Graph, alpha: float,
                    hessian_diag: np.ndarray | None = None) -> SpectralReport:
    """Bundle algebraic connectivity and rate measure for one graph."""
    lam2 = lambda2_laplacian(g)
    h = (np.zeros(g.n) if hessian_diag is None
         else np.asarray(hessian_diag, dtype=np.float64))
    spec = JacobianSpec(laplacian=laplacian_sparse(g), alpha=alpha,
                        hessian_diag=h)
    return SpectralReport(lambda2_laplacian=lam2,
                          rate=convergence_rate(spec),
                          alpha=alpha, n=g.n)
