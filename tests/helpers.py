"""Shared test utilities: independent oracles and random graph factories.

The oracles here deliberately avoid the library's computational paths:
clustering is rechecked by enumerating node triples, symmetric eigenvalues
by cyclic Jacobi rotations, derivatives by central finite differences, and
the convergence rate by a full dense eigensolve of the undeflated Jacobian.
"""

from __future__ import annotations

import math

import numpy as np

from clustopt.costs import aggregate_optimum, sample_cost
from clustopt.generators import BaParams, HkParams, generate_ba, generate_hk
from clustopt.graphs import Graph, assign_random_weights


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
