"""Shared test utilities: independent oracles and random graph factories.

The oracles here deliberately avoid the library's computational paths:
clustering is rechecked by enumerating node triples, symmetric eigenvalues
by cyclic Jacobi rotations, derivatives by central finite differences, the
convergence rate by a dense eigensolve of the Householder-deflated Jacobian,
rewiring by one proposal at a time on Python sets, growth by one scalar
draw at a time, and the dynamics by one trial at a time.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from clustopt.costs import (
    CostModel,
    MlLossModel,
    QuarticModel,
    aggregate_optimum,
    optimum_curvatures,
    sample_cost,
)
from clustopt.dynamics import (
    NodeState,
    SimConfig,
    TrialTrace,
    _step,
    _step_size,
    initialize,
)
from clustopt.errors import DisconnectedError, IndexOutOfRangeError, InvalidParamsError
from clustopt.generators import (
    BaParams,
    HkParams,
    RewireParams,
    RewireReport,
    _TRIAD_SCAN_LIMIT,
    generate_ba,
    generate_hk,
)
from clustopt.graphs import (
    Graph,
    assign_random_weights,
    global_clustering,
    is_connected,
    laplacian_sparse,
)


def dense_laplacian(g: Graph) -> np.ndarray:
    """The weighted Laplacian of ``g`` as a dense array."""
    return laplacian_sparse(g).toarray()


def complete_graph(n: int, weight: float = 1.0) -> Graph:
    """K_n with uniform weights."""
    idx = np.triu_indices(n, k=1)
    edges = np.column_stack(idx).astype(np.int64)
    return Graph(n, edges, np.full(edges.shape[0], weight))


def cycle_graph(n: int, weight: float = 1.0) -> Graph:
    """C_n with uniform weights."""
    i = np.arange(n, dtype=np.int64)
    edges = np.column_stack((i, (i + 1) % n))
    return Graph(n, edges, np.full(n, weight))


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


def copied_blocks(lap: sp.csr_matrix, n: int, keep: np.ndarray) -> sp.csr_matrix:
    """Oracle for ``graphs.laplacian_blocks``: the diagonal blocks ``keep``
    of a union Laplacian of order-n graphs, gathered into new arrays by a
    mask over the entries, with ``lap`` left as it was."""
    counts = np.diff(lap.indptr[::n])  # entries per block
    entries, rows = np.repeat(keep, counts), np.diff(lap.indptr).reshape(-1, n)
    moved = n * (np.flatnonzero(keep) - np.arange(np.count_nonzero(keep)))
    indices = lap.indices[entries]
    indices -= np.repeat(moved.astype(indices.dtype), counts[keep])
    return sp.csr_matrix((lap.data[entries], indices, np.concatenate(
        ([0], np.cumsum(rows[keep])))), shape=(n * moved.size,) * 2)


def partition(labels: np.ndarray) -> np.ndarray:
    """Component labels renamed to the lowest node of each component, so
    two labelings of one partition compare equal."""
    first = np.full(labels.max(initial=-1) + 1, labels.size)
    np.minimum.at(first, labels, np.arange(labels.size))
    return first[labels]


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


def dense_jacobian(lap: np.ndarray, alpha: float, h: np.ndarray) -> np.ndarray:
    """Dense 2n x 2n Jacobian of the linearized dynamics, in (x, y) order.

    The y rows scale by the curvatures as the rate's operator does, so a
    negative curvature gives the zeros of its row the operator's signs.
    """
    n = lap.shape[0]
    jac = np.zeros((2 * n, 2 * n))
    jac[:n, :n] = -lap
    jac[:n, n:] = -alpha * np.eye(n)
    jac[n:, :n] = -h[:, None] * lap
    jac[n:, n:] = -lap - alpha * h[:, None] * np.eye(n)
    return jac


def dense_jacobian_rate(lap: np.ndarray, alpha: float, h: np.ndarray,
                        zero_tol: float) -> float:
    """Rate measure from a dense eigensolve of the deflated 2n x 2n Jacobian.

    For each connected component c, a Householder similarity maps the
    consensus direction ``(1_c, 0) / sqrt(|c|)`` to a unit vector ``e_k``,
    whose row and column are then dropped: that removes one structural zero
    per component exactly.  Where a component's curvatures sum to zero its
    zero is defective, and the undeflated solve would split the pair by
    about the square root of the rounding; deflated, the partner is a
    simple zero.  Eigenvalues with |Re| below ``zero_tol`` are dropped as
    structural.
    """
    n = lap.shape[0]
    jac = dense_jacobian(lap, alpha, h)
    _, labels = connected_components(sp.csr_matrix(lap), directed=False)
    firsts = np.unique(labels, return_index=True)[1]
    for k in firsts:
        members = labels == labels[k]
        u = np.zeros(2 * n)
        u[:n][members] = 1.0 / math.sqrt(members.sum())
        u[k] -= 1.0
        norm = np.linalg.norm(u)
        if norm > 0:  # a single node's direction is e_k already
            u /= norm
            jac -= 2.0 * np.outer(u, u @ jac)
            jac -= 2.0 * np.outer(jac @ u, u)
    rest = np.setdiff1d(np.arange(2 * n), firsts)
    vals = np.linalg.eigvals(jac[np.ix_(rest, rest)])
    return float(-vals.real[np.abs(vals.real) >= zero_tol].max())


def weighted_scale_free(model: str, n: int, rng: np.random.Generator) -> Graph:
    """BA (``links=4``) or HK (``links=4``, L2 = 1) graph with random weights."""
    g = (generate_ba(BaParams(n, 4), rng) if model == "ba"
         else generate_hk(HkParams(n, 4, 1), rng))
    return assign_random_weights(g, rng)


def curvatures_at_optimum(family: str, n: int,
                          rng: np.random.Generator) -> np.ndarray:
    """Per-node curvatures at the aggregate optimum, as scatter_report takes."""
    return optimum_curvatures(sample_cost(family, n, rng, 20))


def central_difference(f, x: float, step: float = 1e-5) -> float:
    return (f(x + step) - f(x - step)) / (2.0 * step)


def _at_node(model: CostModel, kernel, i: int, x: float) -> float:
    """Node ``i``'s entry of a per-node kernel, with every node at ``x``."""
    if not 0 <= i < model.n:
        raise IndexOutOfRangeError(f"node {i} outside [0, {model.n})")
    return float(kernel(np.full(model.n, float(x)))[i])


def node_value(model: CostModel, i: int, x: float) -> float:
    return _at_node(model, model.value_nodes, i, x)


def node_gradient(model: CostModel, i: int, x: float) -> float:
    return _at_node(model, model.gradient_nodes, i, x)


def node_hessian(model: CostModel, i: int, x: float) -> float:
    return _at_node(model, model.hessian_nodes, i, x)


def aggregate_hessian(model: CostModel, x: float) -> float:
    return float(model.hessian_nodes(np.full(model.n, float(x))).sum())


def model_to_dict(model: CostModel) -> dict:
    """JSON-ready representation of a cost model."""
    if isinstance(model, MlLossModel):
        return {"family": "mlloss", "a": model.a.tolist(), "b": model.b.tolist()}
    return {"family": "quartic", "a": model.a.tolist(), "b": model.b.tolist()}


def model_from_dict(doc: dict) -> CostModel:
    family = doc.get("family")
    a = np.array(doc["a"], dtype=np.float64)
    b = np.array(doc["b"], dtype=np.float64)
    if family == "mlloss":
        return MlLossModel(a=a, b=b)
    if family == "quartic":
        return QuarticModel(a=a, b=b)
    raise InvalidParamsError(f"unknown cost family {family!r}")


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
    accepted_at: list | None = None,
) -> tuple[Graph, RewireReport]:
    """Set-based oracle for :func:`rewire_increase_clustering`.

    One proposal at a time, two scalar draws each, Python set intersections
    for every common-neighbor count.  The fast path must match its edges,
    weights, report and final generator state bit for bit.  The index of
    every accepted proposal, rolled back or not, is appended to
    ``accepted_at`` when given.
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
            if accepted_at is not None:
                accepted_at.append(attempted - 1)
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


# (n, links, triad_links, seed_size, seed) of the growth oracle's sweep: BA
# and HK with L2 0-4, seed cliques larger than links, orders at and just
# above the seed, n = 2000, a one-node seed, whose first new node meets an
# empty pool, and links = seed_size, whose first new node meets the
# 1000-rejection fallback: at 300 with one target left, at 1000 with more,
# where a batch that drew past the fallback point would shift the stream
GROWTH_SWEEP = (
    [(300, 6, l2, None, s) for l2 in range(5) for s in (0, 1, 2)]
    + [(120, 4, l2, 9, 3) for l2 in (0, 1, 3)]
    + [(6, 6, 0, None, 0), (7, 6, 2, None, 1), (9, 4, 1, 9, 2),
       (10, 4, 3, 9, 4), (2000, 6, 0, None, 7), (2000, 6, 2, None, 8)]
    + [(40, 1, 0, 1, s) for s in range(3)]
    + [(302, 300, 0, 300, 5), (1001, 1000, 0, 1000, 13)]
)


def grow_case(case: tuple, rng: np.random.Generator) -> Graph:
    """The graph of one :data:`GROWTH_SWEEP` case, through the public API."""
    n, links, l2, seed_size, _ = case
    if l2 == 0:
        return generate_ba(BaParams(n, links, seed_size), rng)
    return generate_hk(HkParams(n, links, l2, seed_size), rng)


def reference_grow(n: int, links: int, triad_links: int, seed_size: int,
                   rng: np.random.Generator) -> Graph:
    """Scalar-draw oracle for :func:`clustopt.generators._grow`.

    One ``rng.integers`` call per preferential draw, adjacency lists and sets
    for every node, a per-node frozen-degree array.  The fast path must match
    its edges and final generator state bit for bit.
    """
    adj_list: list[list[int]] = [[] for _ in range(n)]
    adj_set: list[set[int]] = [set() for _ in range(n)]
    edges: list[tuple[int, int]] = []

    def add_edge(u: int, v: int) -> None:
        edges.append((u, v))
        adj_list[u].append(v)
        adj_list[v].append(u)
        adj_set[u].add(v)
        adj_set[v].add(u)

    for i in range(seed_size):
        for j in range(i + 1, seed_size):
            add_edge(i, j)

    # endpoint pool: node k appears deg(k) times; updated only after a node
    # finishes attaching, which freezes the degree weights for its draws
    pool: list[int] = []
    deg_frozen = np.zeros(n, dtype=np.int64)
    for i in range(seed_size):
        pool.extend([i] * (seed_size - 1))
        deg_frozen[i] = seed_size - 1

    for v in range(seed_size, n):
        chosen: set[int] = set()
        targets: list[int] = []

        def draw_preferential() -> int:
            if pool:
                for _ in range(1000):
                    t = pool[rng.integers(0, len(pool))]
                    if t not in chosen:
                        return t
            # pathological rejection streak or empty pool: sample the exact
            # frozen-degree distribution over remaining candidates
            cand = np.array([u for u in range(v) if u not in chosen],
                            dtype=np.int64)
            wts = deg_frozen[cand].astype(np.float64)
            total = wts.sum()
            if total > 0:
                cum = np.cumsum(wts)
                return int(cand[np.searchsorted(cum, rng.uniform(0, total),
                                                side="right")])
            return int(cand[rng.integers(0, len(cand))])

        def draw_triad(anchor: int) -> int:
            # the anchor had >= links - 1 neighbors before v arrived, and v
            # has placed at most links - 2 other targets, so one is eligible
            nbrs = adj_list[anchor]
            if len(nbrs) > _TRIAD_SCAN_LIMIT:
                for _ in range(_TRIAD_SCAN_LIMIT):
                    u = nbrs[rng.integers(0, len(nbrs))]
                    if u != v and u not in chosen:
                        return u
            eligible = [u for u in nbrs if u != v and u not in chosen]
            return eligible[rng.integers(0, len(eligible))]

        def attach(t: int) -> None:
            chosen.add(t)
            targets.append(t)
            add_edge(v, t)

        while len(targets) < links:
            anchor = draw_preferential()
            attach(anchor)
            group = [anchor]
            # a member's neighbors among v's other targets are the triangles
            # that its link to v closes
            while len(targets) < links and (
                    len(group) <= triad_links
                    or any(len(adj_set[u] & chosen) < triad_links
                           for u in group)):
                t = draw_triad(anchor)
                attach(t)
                group.append(t)

        pool.extend([v] * links)
        pool.extend(targets)
        deg_frozen[v] = links
        deg_frozen[targets] += 1

    e = np.array(edges, dtype=np.int64) if edges else np.empty((0, 2), np.int64)
    return Graph(n, e, np.ones(e.shape[0]))


def reference_run(g: Graph, model: CostModel, cfg: SimConfig,
                  rng: np.random.Generator,
                  initial_state: NodeState | None = None) -> TrialTrace:
    """One-trial oracle for :func:`clustopt.dynamics.run_trials`.

    One trial at a time, with scalar sums and Python-list records.  The
    stacked integrator must match every field of its trace bit for bit.
    """
    if initial_state is None:
        state = initialize(g, model, cfg, rng)
    else:
        cfg.validate()
        if not is_connected(g):
            raise DisconnectedError("dynamics require a connected graph")
        state = initial_state
    lap = laplacian_sparse(g)
    h = _step_size(g, model, state, cfg)
    cert = aggregate_optimum(model)

    x, y = state.x, state.y
    gx = model.gradient_nodes(x)
    steps_rec: list[int] = []
    gap_rec: list[float] = []
    lyap_rec: list[float] = []
    cons_rec: list[float] = []
    track_rec: list[float] = []

    gsum = float(gx.sum())
    max_resid = abs(float(y.sum()) - gsum)
    max_gsum = abs(gsum)
    diverged = False

    def record(k: int) -> float:
        xbar = float(x.mean())
        gap = model.aggregate_value(xbar) - cert.f_star
        steps_rec.append(k)
        gap_rec.append(gap)
        lyap_rec.append(0.5 * (float(((x - cert.x_star) ** 2).sum())
                               + float((y ** 2).sum())))
        cons_rec.append(float(((x - xbar) ** 2).sum()))
        track_rec.append(abs(float(y.sum()) - float(gx.sum())))
        return gap

    gap0 = record(0)
    stop = cfg.gap_tolerance > 0 and gap0 <= cfg.gap_tolerance
    if not stop:
        for k in range(1, cfg.steps + 1):
            x, y, gx, finite = _step(lap, model, x, y, gx, cfg.alpha, h)
            if not finite:
                diverged = True
                break
            gsum = float(gx.sum())
            resid = abs(float(y.sum()) - gsum)
            if resid > max_resid:
                max_resid = resid
            if abs(gsum) > max_gsum:
                max_gsum = abs(gsum)
            if k % cfg.record_stride == 0 or k == cfg.steps:
                gap = record(k)
                if cfg.gap_tolerance > 0 and gap <= cfg.gap_tolerance:
                    break

    return TrialTrace(
        recorded_steps=np.array(steps_rec, dtype=np.int64),
        gap=np.array(gap_rec),
        lyapunov=np.array(lyap_rec),
        consensus_residual=np.array(cons_rec),
        tracking_residual=np.array(track_rec),
        diverged=diverged,
        h=h,
        max_tracking_residual=max_resid,
        max_abs_gradient_sum=max_gsum,
        final_state=NodeState(x=x, y=y),
    )
