"""Shared test utilities: independent oracles and random graph factories.

The oracles here deliberately avoid the library's computational paths:
clustering is rechecked by enumerating node triples, symmetric eigenvalues
by cyclic Jacobi rotations, derivatives by central finite differences,
the convergence rate by a full dense eigensolve of the undeflated Jacobian,
and rewiring by one proposal at a time on Python sets.
"""

from __future__ import annotations

import math

import numpy as np

from clustopt.costs import aggregate_optimum, sample_cost
from clustopt.errors import DisconnectedError
from clustopt.generators import (
    BaParams,
    HkParams,
    RewireParams,
    RewireReport,
    generate_ba,
    generate_hk,
)
from clustopt.graphs import (
    Graph,
    assign_random_weights,
    global_clustering,
    is_connected,
)


def random_graph(rng: np.random.Generator, n: int, p: float) -> Graph:
    """Erdos-Renyi style graph, unit weights, possibly disconnected.

    One uniform draw per node pair ``i < j``, in row-major order.
    """
    i, j = np.triu_indices(n, k=1)
    keep = rng.uniform(size=i.shape[0]) < p
    e = np.column_stack((i[keep], j[keep])).astype(np.int64)
    return Graph(n, e, np.ones(e.shape[0]))


def random_connected_graph(rng: np.random.Generator, n: int,
                           extra_p: float = 0.1) -> Graph:
    """Random spanning tree plus extra edges: connected by construction.

    Node ``i`` hangs off a uniform earlier node; then every other pair
    ``i < j``, in row-major order, takes one uniform draw.
    """
    parent = [int(rng.integers(0, i)) for i in range(1, n)]
    tree = np.zeros((n, n), dtype=bool)
    tree[parent, np.arange(1, n)] = True
    i, j = np.triu_indices(n, k=1)
    free = ~tree[i, j]
    i, j = i[free], j[free]
    keep = rng.uniform(size=i.shape[0]) < extra_p
    e = np.column_stack((np.concatenate((parent, i[keep])),
                         np.concatenate((np.arange(1, n), j[keep]))))
    return Graph(n, e.astype(np.int64), np.ones(e.shape[0]))


def brute_force_triangles(g: Graph) -> np.ndarray:
    """Triangles through each node, by enumerating node triples."""
    adj = [set(map(int, g.neighbors(i))) for i in range(g.n)]
    tri = np.zeros(g.n, dtype=np.int64)
    for a in range(g.n):
        for b in range(a + 1, g.n):
            if b not in adj[a]:
                continue
            for c in range(b + 1, g.n):
                if c in adj[a] and c in adj[b]:
                    tri[a] += 1
                    tri[b] += 1
                    tri[c] += 1
    return tri


def brute_force_clustering(g: Graph) -> float:
    """Triple-enumeration oracle for the global clustering coefficient."""
    tri = brute_force_triangles(g)
    deg = [len(g.neighbors(i)) for i in range(g.n)]
    total = 0.0
    for i in range(g.n):
        d = deg[i]
        if d >= 2:
            total += 2.0 * tri[i] / (d * (d - 1.0))
    return total / g.n if g.n else 0.0


def jacobi_eigenvalues(a: np.ndarray, sweeps: int = 100,
                       tol: float = 1e-14) -> np.ndarray:
    """Cyclic Jacobi rotation eigensolver for symmetric matrices."""
    a = np.array(a, dtype=np.float64)
    n = a.shape[0]
    for _ in range(sweeps):
        off = math.sqrt(np.sum(np.tril(a, -1) ** 2))
        if off <= tol * max(1.0, float(np.abs(np.diag(a)).max())):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if a[p, q] == 0.0:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * a[p, q])
                t = math.copysign(1.0, theta) / (
                    abs(theta) + math.sqrt(1.0 + theta * theta))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
    return np.sort(np.diag(a))


def dense_jacobian_rate(lap: np.ndarray, alpha: float, h: np.ndarray,
                        zero_tol: float) -> float:
    """Rate measure from every eigenvalue of the undeflated 2n x 2n Jacobian.

    Eigenvalues with |Re| below ``zero_tol`` are dropped as structural.
    """
    n = lap.shape[0]
    jac = np.block([[-lap, -alpha * np.eye(n)],
                    [-h[:, None] * lap, -lap - alpha * np.diag(h)]])
    vals = np.linalg.eigvals(jac)
    return float(-vals.real[np.abs(vals.real) >= zero_tol].max())


def weighted_scale_free(model: str, n: int, rng: np.random.Generator) -> Graph:
    """BA (``links=4``) or HK (``links=4``, L2 = 1) graph with random weights."""
    g = (generate_ba(BaParams(n, 4), rng) if model == "ba"
         else generate_hk(HkParams(n, 4, 1), rng))
    return assign_random_weights(g, rng)


def curvatures_at_optimum(family: str, n: int,
                          rng: np.random.Generator) -> np.ndarray:
    """Per-node curvatures at the aggregate optimum, as scatter_report takes."""
    model = sample_cost(family, n, rng, 20)
    return model.hessian_nodes(np.full(n, aggregate_optimum(model).x_star))


def central_difference(f, x: float, step: float = 1e-5) -> float:
    return (f(x + step) - f(x - step)) / (2.0 * step)


class _ReferenceRewireState:
    """Set-based adjacency + per-node triangle counts during rewiring."""

    def __init__(self, g: Graph):
        self.n = g.n
        self.edges = [(int(i), int(j)) for i, j in g.edges]
        self.weights = {(int(i), int(j)): float(w)
                        for (i, j), w in zip(g.edges, g.weights)}
        self.adj = [set(map(int, g.neighbors(i))) for i in range(g.n)]
        report = global_clustering(g)
        self.tri = report.triangles_per_node.astype(np.int64).copy()
        deg = g.degrees()
        self.coef = np.zeros(g.n)
        mask = deg >= 2
        self.coef[mask] = 2.0 / (deg[mask] * (deg[mask] - 1.0))

    def clustering(self) -> float:
        return float(np.dot(self.coef, self.tri) / self.n)

    def snapshot(self):
        return (list(self.edges), dict(self.weights),
                [set(s) for s in self.adj], self.tri.copy())

    def restore(self, snap) -> None:
        self.edges = list(snap[0])
        self.weights = dict(snap[1])
        self.adj = [set(s) for s in snap[2]]
        self.tri = snap[3].copy()

    def connected(self) -> bool:
        return is_connected(Graph(self.n, self.edges, np.ones(len(self.edges))))

    def _remove(self, u: int, v: int) -> None:
        self.adj[u].discard(v)
        self.adj[v].discard(u)
        for x in self.adj[u] & self.adj[v]:
            self.tri[x] -= 1
            self.tri[u] -= 1
            self.tri[v] -= 1

    def _add(self, u: int, v: int) -> None:
        for x in self.adj[u] & self.adj[v]:
            self.tri[x] += 1
            self.tri[u] += 1
            self.tri[v] += 1
        self.adj[u].add(v)
        self.adj[v].add(u)

    def try_swap(self, e1: int, e2: int) -> bool:
        """Apply the best triangle-increasing orientation, if any."""
        a, b = self.edges[e1]
        c, d = self.edges[e2]
        if len({a, b, c, d}) < 4:
            return False
        adj = self.adj
        removed = len(adj[a] & adj[b]) + len(adj[c] & adj[d])
        # candidate orientations, with intersection counts corrected for the
        # two edges about to disappear
        gains = []
        if c not in adj[a] and d not in adj[b]:
            t = (len(adj[a] & adj[c]) - (b in adj[c]) - (d in adj[a])
                 + len(adj[b] & adj[d]) - (a in adj[d]) - (c in adj[b]))
            gains.append((t - removed, (a, c), (b, d)))
        if d not in adj[a] and c not in adj[b]:
            t = (len(adj[a] & adj[d]) - (b in adj[d]) - (c in adj[a])
                 + len(adj[b] & adj[c]) - (a in adj[c]) - (d in adj[b]))
            gains.append((t - removed, (a, d), (b, c)))
        if not gains:
            return False
        delta, new1, new2 = max(gains, key=lambda it: it[0])
        if delta <= 0:
            return False
        w1 = self.weights.pop((a, b) if a < b else (b, a))
        w2 = self.weights.pop((c, d) if c < d else (d, c))
        self._remove(a, b)
        self._remove(c, d)
        self._add(*new1)
        self._add(*new2)
        self.edges[e1] = new1
        self.edges[e2] = new2
        self.weights[tuple(sorted(new1))] = w1
        self.weights[tuple(sorted(new2))] = w2
        return True

    def to_graph(self) -> Graph:
        e = np.array([sorted(p) for p in self.edges], dtype=np.int64)
        w = np.array([self.weights[tuple(sorted(p))] for p in self.edges])
        return Graph(self.n, e, w)


def reference_rewire(
    g: Graph, params: RewireParams, rng: np.random.Generator,
) -> tuple[Graph, RewireReport]:
    """Set-based oracle for :func:`rewire_increase_clustering`.

    One proposal at a time, two scalar draws each, Python set intersections
    for every common-neighbor count.  The fast path must match its edges,
    weights, report and final generator state bit for bit.
    """
    params.validate()
    if not is_connected(g):
        raise DisconnectedError("rewiring requires a connected input graph")

    state = _ReferenceRewireState(g)
    c = state.clustering()
    initial_c = c
    attempted = 0
    accepted = 0
    rolled_back = 0
    since_check = 0
    snap = state.snapshot()
    m = len(state.edges)

    while c < params.target_clustering and attempted < params.max_swaps and m >= 2:
        e1 = int(rng.integers(0, m))
        e2 = int(rng.integers(0, m))
        attempted += 1
        if e1 == e2:
            continue
        if state.try_swap(e1, e2):
            accepted += 1
            since_check += 1
            c = state.clustering()
            if since_check >= params.connectivity_check_interval:
                if state.connected():
                    snap = state.snapshot()
                else:
                    state.restore(snap)
                    accepted -= since_check
                    rolled_back += since_check
                    c = state.clustering()
                since_check = 0

    if since_check > 0:
        if not state.connected():
            state.restore(snap)
            accepted -= since_check
            rolled_back += since_check
            c = state.clustering()

    out = state.to_graph() if accepted > 0 else g
    report = RewireReport(
        swaps_attempted=attempted,
        swaps_accepted=accepted,
        swaps_rolled_back=rolled_back,
        initial_c=initial_c,
        final_c=c,
        reached_target=c >= params.target_clustering,
    )
    return out, report
