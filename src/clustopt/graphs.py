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

Adjacency, connectivity and triangle counts all come from one cached scipy
CSR adjacency and ``scipy.sparse`` products; no graph search is written out
here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import (
    DuplicateEdgeError,
    IndexOutOfRangeError,
    InsufficientDataError,
    InvalidRangeError,
    NonPositiveWeightError,
    PreconditionError,
    SelfLoopError,
)


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
    weights are rejected.
    """

    __slots__ = ("n", "edges", "weights", "_adjacency", "_laplacian_csr")

    def __init__(self, n: int, edges: np.ndarray, weights: np.ndarray):
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        weights = np.asarray(weights, dtype=np.float64).reshape(-1)
        if edges.shape[0] != weights.shape[0]:
            raise InvalidRangeError(
                f"{edges.shape[0]} edges but {weights.shape[0]} weights")
        if n < 0:
            raise IndexOutOfRangeError(f"negative node count {n}")
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
        self._adjacency = None
        self._laplacian_csr = None

    # -- basic accessors ---------------------------------------------------

    @property
    def edge_count(self) -> int:
        return self.edges.shape[0]

    def adjacency(self) -> sp.csr_array:
        """Unit-weight CSR adjacency with sorted rows (cached)."""
        if self._adjacency is None:
            e = self.edges
            # lower neighbors precede higher ones in each row, already sorted
            rows = np.concatenate((e[:, 1], e[:, 0]))
            cols = np.concatenate((e[:, 0], e[:, 1]))
            self._adjacency = sp.csr_array(
                (np.ones(rows.shape[0]), (rows, cols)), shape=(self.n, self.n))
        return self._adjacency

    def neighbors(self, i: int) -> np.ndarray:
        """Sorted array of nodes adjacent to ``i``."""
        if not 0 <= i < self.n:
            raise IndexOutOfRangeError(f"node {i} outside [0, {self.n})")
        a = self.adjacency()
        return a.indices[a.indptr[i]:a.indptr[i + 1]]

    def degrees(self) -> np.ndarray:
        return np.diff(self.adjacency().indptr)

    def weighted_degrees(self) -> np.ndarray:
        wd = np.zeros(self.n)
        np.add.at(wd, self.edges[:, 0], self.weights)
        np.add.at(wd, self.edges[:, 1], self.weights)
        return wd

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.n == other.n
                and self.edges.shape == other.edges.shape
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
    if rows:
        edges = np.array([(i, j) for i, j, _ in rows], dtype=np.int64)
        weights = np.array([w for _, _, w in rows], dtype=np.float64)
    else:
        edges = np.empty((0, 2), dtype=np.int64)
        weights = np.empty(0, dtype=np.float64)
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
        e, w = g.edges, g.weights
        rows = np.concatenate((e[:, 0], e[:, 1], np.arange(g.n)))
        cols = np.concatenate((e[:, 1], e[:, 0], np.arange(g.n)))
        data = np.concatenate((-w, -w, g.weighted_degrees()))
        g._laplacian_csr = sp.coo_matrix(
            (data, (rows, cols)), shape=(g.n, g.n)).tocsr()
    return g._laplacian_csr


def is_connected(g: Graph) -> bool:
    """True when the graph has at most one connected component."""
    return connected_components(g.adjacency(), directed=False,
                                return_labels=False) <= 1


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
    return DegreeStats(degrees=deg, average=avg,
                       max=int(deg.max()) if g.n else 0)


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


