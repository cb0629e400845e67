"""Core graph representation and clustering metrics.

A :class:`Graph` is an undirected simple weighted graph stored in canonical
form: an ``(E, 2)`` integer array of endpoints with ``i < j``, sorted
lexicographically, plus one positive weight per edge.  Graphs are immutable
after construction, so every operation here is a pure function that is safe
to call from concurrent workers.

The clustering metrics follow the standard local definition
``c_i = 2 * t_i / (d_i * (d_i - 1))`` (``t_i`` = triangles through node *i*)
and the global coefficient is the plain average of the local values over all
nodes.  Nodes of degree < 2 contribute a local value of 0 so the average is
always defined.

A graph keeps one sparse matrix, its cached CSR Laplacian: neighbours,
weighted degrees and connectivity are read off it, and triangle counts come
from ``scipy.sparse`` products; no graph search is written out here.  The
components of a Laplacian built here are its strong components
(:func:`_components`): its pattern is symmetric, so scipy needs no
transposed copy to find them.

Graphs of one order n solved or integrated as one stack sit on their
disjoint union, graph j on nodes ``j * n`` to ``j * n + n - 1``: the
Laplacian of that layout is built (:func:`union_laplacian`) and cut
(:func:`laplacian_blocks`) here only.  Only the stacked lambda2 solve cuts
it, in place, on a union that it builds and owns; an integrated stack keeps
every block to the end.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from typing import Iterable

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import (
    DuplicateEdgeError,
    IndexOutOfRangeError,
    InsufficientDataError,
    InvalidParamsError,
    InvalidRangeError,
    NonPositiveWeightError,
    PreconditionError,
    SelfLoopError,
)


def _is_int(v) -> bool:
    """True for integers, False for bools (a bool is a numbers.Integral)."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _check_int(name: str, v, low: int | None = None) -> None:
    """Raise :class:`InvalidParamsError` naming ``name`` unless ``v`` is an
    integer, and at least ``low`` if that is given."""
    if not (_is_int(v) and (low is None or v >= low)):
        least = "" if low is None else f" >= {low}"
        raise InvalidParamsError(f"{name} must be an integer{least}, got {v!r}")


def _is_real(v) -> bool:
    """True for finite reals, False for bools (a bool is a numbers.Real)."""
    return (isinstance(v, numbers.Real) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


@dataclass(frozen=True)
class DegreeStats:
    """Per-node degrees plus the derived average and maximum."""

    degrees: np.ndarray
    average: float
    max: int


@dataclass(frozen=True)
class ClusteringReport:
    """Local clustering values, their mean, and triangle counts per node."""

    local: np.ndarray
    global_mean: float
    triangles_per_node: np.ndarray


class Graph:
    """Immutable undirected simple weighted graph.

    Edges are canonicalized on construction: endpoints ordered ``i < j``,
    rows sorted lexicographically, exactly one weight per unordered pair.
    Self-loops, duplicate edges, out-of-range indices and non-positive
    weights are rejected, and so is a node count that is not an integer
    (a bool is not) in ``[0, 2**63)``.
    """

    __slots__ = ("n", "edges", "weights", "_laplacian_csr")

    def __init__(self, n: int, edges: np.ndarray, weights: np.ndarray):
        if not (_is_int(n) and 0 <= n < 2 ** 63):
            raise IndexOutOfRangeError(
                f"node count must be an integer in [0, 2**63), got {n!r}")
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        weights = np.asarray(weights, dtype=np.float64).reshape(-1)
        if edges.shape[0] != weights.shape[0]:
            raise InvalidRangeError(
                f"{edges.shape[0]} edges but {weights.shape[0]} weights")
        if edges.size:
            if edges.min() < 0 or edges.max() >= n:
                raise IndexOutOfRangeError(
                    f"edge endpoint outside [0, {n})")
            loops = edges[:, 0] == edges[:, 1]
            if loops.any():
                i = int(edges[loops.argmax(), 0])
                raise SelfLoopError(f"self-loop at node {i}")
            lo = np.minimum(edges[:, 0], edges[:, 1])
            hi = np.maximum(edges[:, 0], edges[:, 1])
            order = np.lexsort((hi, lo))
            edges = np.column_stack((lo[order], hi[order]))
            weights = weights[order]
            dup = (np.diff(edges[:, 0]) == 0) & (np.diff(edges[:, 1]) == 0)
            if dup.any():
                k = int(dup.argmax())
                raise DuplicateEdgeError(
                    f"duplicate edge ({edges[k, 0]}, {edges[k, 1]})")
            if (weights <= 0).any() or not np.isfinite(weights).all():
                raise NonPositiveWeightError(
                    "edge weights must be finite and > 0")
        self.n = int(n)
        self.edges = edges
        self.weights = weights
        self.edges.setflags(write=False)
        self.weights.setflags(write=False)
        self._laplacian_csr = None

    # -- basic accessors ---------------------------------------------------

    @property
    def edge_count(self) -> int:
        return self.edges.shape[0]

    def neighbors(self, i: int) -> np.ndarray:
        """Sorted nodes adjacent to ``i``: Laplacian row ``i`` off the diagonal."""
        if not 0 <= i < self.n:
            raise IndexOutOfRangeError(f"node {i} outside [0, {self.n})")
        lap = laplacian_sparse(self)
        row = lap.indices[lap.indptr[i]:lap.indptr[i + 1]]
        return row[row != i]

    def degrees(self) -> np.ndarray:
        return np.bincount(self.edges.ravel(), minlength=self.n)

    def weighted_degrees(self) -> np.ndarray:
        return laplacian_sparse(self).diagonal()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.n == other.n
                and np.array_equal(self.edges, other.edges)
                and np.array_equal(self.weights, other.weights))

    def __hash__(self):
        raise TypeError("Graph is not hashable")

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edge_count})"


def build_graph(edge_list: Iterable[tuple[int, int, float]],
                n: int | None = None) -> Graph:
    """Build a canonical :class:`Graph` from ``(i, j, weight)`` triples.

    ``n`` defaults to ``max(endpoint) + 1``.  Duplicate pairs (in either
    orientation), self-loops, out-of-range indices and non-positive weights
    raise the corresponding error.
    """
    rows = list(edge_list)
    edges = np.array([(i, j) for i, j, _ in rows], dtype=np.int64)
    weights = np.array([w for _, _, w in rows], dtype=np.float64)
    if n is None:
        n = int(edges.max()) + 1 if edges.size else 0
    return Graph(n, edges, weights)


def laplacian(g: Graph) -> np.ndarray:
    """Dense weighted Laplacian: degree matrix minus weighted adjacency.

    Symmetric with zero row sums; off-diagonal ``(i, j)`` is ``-w_ij`` for
    adjacent pairs and 0 otherwise.
    """
    return laplacian_sparse(g).toarray()


def laplacian_sparse(g: Graph) -> sp.csr_matrix:
    """CSR weighted Laplacian (cached on the graph)."""
    if g._laplacian_csr is None:
        g._laplacian_csr = _laplacian(g.n, g.edges, g.weights)
    return g._laplacian_csr


def _laplacian(n: int, edges: np.ndarray, weights: np.ndarray) -> sp.csr_matrix:
    """CSR weighted Laplacian of canonical ``(n, edges, weights)``: each
    degree sums its weights in edge order, as lower then as higher end, and
    each row arrives sorted (lower neighbours, diagonal, higher) for scipy."""
    lo, hi, diag = edges[:, 0], edges[:, 1], np.arange(n)
    deg = np.bincount(np.concatenate((lo, hi)), np.concatenate((weights, weights)), n)
    data = np.concatenate((-weights, deg, -weights))
    rows, cols = np.concatenate((hi, diag, lo)), np.concatenate((lo, diag, hi))
    return sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()


def union_laplacian(n: int, parts: list[tuple[np.ndarray, np.ndarray]]) -> sp.csr_matrix:
    """CSR Laplacian of the disjoint union of order-n graphs, each given as
    the canonical ``(edges, weights)`` of a :class:`Graph`, not checked again:
    graph j on nodes ``j * n`` to ``j * n + n - 1``, rows as
    :func:`laplacian_sparse` has them.  Filled one graph at a time, so no
    more than one graph's own Laplacian lives beside it."""
    m, nnz = len(parts), sum(2 * len(e) + n for e, _ in parts)
    data, indices = np.empty(nnz), np.empty(nnz, dtype=np.int32)
    indptr, at = np.empty(m * n + 1, dtype=np.int64), 0
    for j, (e, w) in enumerate(parts):
        lap = _laplacian(n, e, w)
        data[at:at + lap.nnz] = lap.data
        indices[at:at + lap.nnz] = lap.indices + j * n
        indptr[j * n:(j + 1) * n] = lap.indptr[:-1] + at
        at += lap.nnz
    indptr[-1] = at
    return sp.csr_matrix((data, indices, indptr), shape=(m * n, m * n))


def laplacian_blocks(lap: sp.csr_matrix, n: int, keep: np.ndarray) -> sp.csr_matrix:
    """The diagonal blocks ``keep`` (a mask) of a :func:`union_laplacian` of
    order-n graphs, as the union of those graphs, each row's entries in
    order, cut in place: the kept blocks' entries move down inside ``lap``'s
    own ``data`` and ``indices``, and the result is a view of their prefix
    with a new ``indptr``.  This consumes ``lap``, which its caller must
    own and no longer use."""
    data, indices, ptr = lap.data, lap.indices, lap.indptr
    kept = np.flatnonzero(keep)
    indptr, at = np.empty(n * kept.size + 1, dtype=ptr.dtype), 0
    for j, b in enumerate(kept.tolist()):
        lo, hi = int(ptr[b * n]), int(ptr[b * n + n])
        if lo > at:  # a forward copy inside one array: numpy needs no buffer
            data[at:at + hi - lo] = data[lo:hi]
            indices[at:at + hi - lo] = indices[lo:hi]
            indices[at:at + hi - lo] -= (b - j) * n
        indptr[j * n:j * n + n] = ptr[b * n:b * n + n] - (lo - at)
        at += hi - lo
    indptr[-1] = at
    cut = sp.csr_matrix((n * kept.size,) * 2)
    # set, not passed: scipy copies a view of under half its base
    cut.data, cut.indices, cut.indptr = data[:at], indices[:at], indptr
    return cut


def _components(lap: sp.csr_matrix) -> tuple[int, np.ndarray]:
    """Connected components of a Laplacian this package built: its pattern
    is symmetric, so they are its strong components, which scipy finds
    without the transposed copy that ``directed=False`` makes."""
    return connected_components(lap, connection="strong")


def is_connected(g: Graph) -> bool:
    """True when the graph has at most one connected component."""
    return _components(laplacian_sparse(g))[0] <= 1


def assign_random_weights(g: Graph, rng: np.random.Generator,
                          low: float = 0.5, high: float = 1.5) -> Graph:
    """New graph with the same topology and one uniform draw per edge.

    One draw per unordered pair keeps the weight matrix symmetric
    ("balanced").  ``low`` must be strictly positive so no link degenerates
    to weight zero.
    """
    if not (0 < low <= high):
        raise InvalidRangeError(f"need 0 < low <= high, got [{low}, {high}]")
    w = rng.uniform(low, high, g.edge_count)
    return Graph(g.n, g.edges.copy(), w)


def unit_weights(g: Graph) -> Graph:
    """Same topology, all weights forced to 1."""
    return Graph(g.n, g.edges.copy(), np.ones(g.edge_count))


def degree_stats(g: Graph) -> DegreeStats:
    deg = g.degrees()
    avg = 2.0 * g.edge_count / g.n if g.n else 0.0
    return DegreeStats(degrees=deg, average=avg, max=int(deg.max(initial=0)))


def local_clustering(g: Graph, i: int) -> float:
    """Fraction of neighbor pairs of ``i`` that are themselves adjacent.

    Returns 0 for nodes of degree < 2, where no neighbor pair exists.
    """
    if not 0 <= i < g.n:
        raise IndexOutOfRangeError(f"node {i} outside [0, {g.n})")
    return float(global_clustering(g).local[i])


def _triangles(g: Graph) -> np.ndarray:
    """Number of triangles through each node.

    Each edge points from its lower to its higher (degree, index) rank,
    giving ``U``.  A triangle with ranks ``a < b < c`` appears once in
    ``(U @ U) ∘ U``, at ``(a, c)``, which counts it for ``a`` (row sums) and
    ``c`` (column sums), and once in ``(Uᵀ @ U) ∘ U``, at ``(b, c)``, which
    counts it for ``b`` (row sums).  Ranking by degree keeps both products
    near the size of the edge list on power-law graphs, where the full
    ``A @ A`` grows with the squared hub degrees (Chiba & Nishizeki 1985;
    Latapy 2008).  32-bit indices and counts halve the products' memory;
    a count never exceeds ``n``.
    """
    rank = np.empty(g.n, dtype=np.int64)
    rank[np.argsort(g.degrees(), kind="stable")] = np.arange(g.n)
    i, j = g.edges[:, 0].astype(np.int32), g.edges[:, 1].astype(np.int32)
    up = rank[i] < rank[j]
    u = sp.csr_array((np.ones(i.shape[0], dtype=np.int32),
                      (np.where(up, i, j), np.where(up, j, i))),
                     shape=(g.n, g.n))
    ends = (u @ u).multiply(u)
    middles = (u.T @ u).multiply(u)
    return ends.sum(axis=1) + ends.sum(axis=0) + middles.sum(axis=1)


def global_clustering(g: Graph) -> ClusteringReport:
    """Average of the local clustering values over all nodes."""
    triangles = _triangles(g)
    deg = g.degrees()
    local = np.zeros(g.n)
    mask = deg >= 2
    local[mask] = 2.0 * triangles[mask] / (deg[mask] * (deg[mask] - 1.0))
    mean = float(local.mean()) if g.n else 0.0
    return ClusteringReport(local=local, global_mean=mean,
                            triangles_per_node=triangles)


def predicted_c_ba(n: int, links: int) -> float:
    """Analytic clustering estimate for preferential-attachment graphs.

    ``(links - 1) / 8 * ln(n)^2 / n`` — an asymptotic approximation, natural
    logarithm.  Valid for large ``n`` and ``links``.
    """
    if n <= 1 or links < 1:
        raise PreconditionError(f"need n > 1 and links >= 1, got ({n}, {links})")
    return (links - 1) / 8.0 * math.log(n) ** 2 / n


def predicted_c_hk(n: int, links: int, triad_links: int, avg_degree: float) -> float:
    """Analytic clustering estimate with triad formation.

    ``2 * triad_links / avg_degree`` plus the preferential-attachment term;
    requires ``triad_links < avg_degree / 2`` so the estimate stays below 1.
    """
    if avg_degree <= 0:
        raise PreconditionError(f"need avg_degree > 0, got {avg_degree}")
    if triad_links < 0 or triad_links >= avg_degree / 2.0:
        raise PreconditionError(
            f"need 0 <= triad_links < avg_degree/2, got {triad_links} vs {avg_degree / 2.0}")
    return 2.0 * triad_links / avg_degree + predicted_c_ba(n, links)


def degree_histogram(g: Graph) -> dict[int, int]:
    """Map from observed degree to node count."""
    if g.n == 0:
        raise InsufficientDataError("empty graph")
    counts = np.bincount(g.degrees())
    return {int(d): int(c) for d, c in enumerate(counts) if c > 0}


def powerlaw_tail_slope(hist: dict[int, int], tail_start: int) -> float:
    """Least-squares slope of log(count) vs log(degree) over the tail.

    ``tail_start`` is normally the generator's links-per-node parameter, so
    the fit covers only the power-law regime.  Requires at least 3 distinct
    tail degrees.
    """
    pts = [(d, c) for d, c in hist.items() if d >= tail_start and c > 0]
    if len(pts) < 3:
        raise InsufficientDataError(
            f"need >= 3 distinct degrees >= {tail_start}, got {len(pts)}")
    x = np.log([d for d, _ in pts])
    y = np.log([c for _, c in pts])
    x = x - x.mean()
    return float(np.dot(x, y - y.mean()) / np.dot(x, x))


