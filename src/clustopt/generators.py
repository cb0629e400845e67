"""Scale-free graph generation and clustering-increasing rewiring.

Two generative models share one growth loop:

* preferential attachment — each new node links to ``links`` distinct
  existing nodes chosen with probability proportional to their degree,
  starting from a complete seed graph;
* triad formation — identical growth, except that every preferential link
  to an anchor node is followed by triad links to uniformly drawn
  neighbors of that anchor (Holme & Kim, Phys. Rev. E 65, 026107, 2002),
  deliberately closing triangles.  An anchor takes ``triad_links`` triad
  links, then further ones while some member of its group (the anchor and
  its triad targets) is adjacent to fewer than ``triad_links`` of the new
  node's other targets.  The group pattern repeats until the node has
  placed all of its links.

The triad rule is read off the estimate ``C ≈ 2·L2/d + C_BA`` of
:func:`clustopt.graphs.predicted_c_hk`.  If each of the ``links`` edges of a
new node lies on ``L2`` triangles, the node closes ``L2·links/2`` of its
neighbor pairs at birth, and its local clustering is
``L2/(links - 1) ≈ 2·L2/d``.  The group stops growing once every member
reaches ``L2`` such triangles, unless the node runs out of links first.
A uniform neighbor of a preferentially drawn node is itself drawn in
proportion to its degree, so triad targets keep the degree weights of
preferential attachment and the power-law tail.

Degree weights are frozen while one node attaches: edges added by the
current node never bias its own remaining draws.  With ``triad_links = 0``
the two models consume the random stream identically.  With
``triad_links = 1`` every group is an anchor and one neighbor of it, since
that pair already closes one triangle for each member.

Rewiring raises the global clustering coefficient by greedy double-edge
swaps that preserve every node degree: two edges (a,b), (c,d) are replaced
by (a,c),(b,d) or (a,d),(b,c) only when the result stays simple and the
global triangle count strictly increases.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DisconnectedError, InvalidParamsError
from .graphs import Graph, global_clustering, is_connected

_TRIAD_SCAN_LIMIT = 16  # rejection tries before listing eligible neighbors


def _is_int(v) -> bool:
    """True for integers, False for bools (a bool is a numbers.Integral)."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


@dataclass(frozen=True)
class BaParams:
    """Preferential-attachment growth parameters.

    ``seed_size`` is the order of the initial complete graph; it defaults to
    ``links`` so every new node can always place all of its edges.
    """

    n: int
    links: int
    seed_size: int | None = None

    def resolved_seed_size(self) -> int:
        return self.links if self.seed_size is None else self.seed_size

    def validate(self) -> None:
        s = self.resolved_seed_size()
        sizes = (self.n, self.links, s)
        if not (all(_is_int(v) for v in sizes)
                and 1 <= self.links <= s <= self.n):
            raise InvalidParamsError(
                f"need integers 1 <= links <= seed_size <= n, got "
                f"links={self.links!r}, seed_size={s!r}, n={self.n!r}")


@dataclass(frozen=True)
class HkParams:
    """Triad-formation growth parameters.

    ``triad_links`` (L2) is the number of triangles that each link of a
    new node closes among its targets: an anchor takes at least L2 triad
    links, and more until every member of its group is adjacent to L2 of
    the node's other targets (see the module docstring).

    L2 saturates once a node's first group takes all of its links: one
    anchor and ``links - 1`` of its neighbors.  The clustering then tops
    out near 0.32 at ``links = 10`` (within 0.01 from L2 = 4) and 0.146 at
    ``links = 30``, so larger values still validate but grow nearly the
    same graphs and fall short of :func:`clustopt.graphs.predicted_c_hk`.
    """

    n: int
    links: int
    triad_links: int
    seed_size: int | None = None

    def resolved_seed_size(self) -> int:
        return self.links if self.seed_size is None else self.seed_size

    def validate(self) -> None:
        BaParams(self.n, self.links, self.seed_size).validate()
        if not (_is_int(self.triad_links)
                and 0 <= self.triad_links < self.links):
            raise InvalidParamsError(
                f"need an integer 0 <= triad_links < links, got "
                f"{self.triad_links!r} vs {self.links}")


@dataclass(frozen=True)
class RewireParams:
    target_clustering: float
    max_swaps: int
    connectivity_check_interval: int = 100

    def validate(self) -> None:
        if not (0.0 < self.target_clustering <= 1.0):
            raise InvalidParamsError(
                f"target_clustering must be in (0, 1], got {self.target_clustering}")
        if not (_is_int(self.max_swaps) and self.max_swaps >= 0):
            raise InvalidParamsError(
                f"max_swaps must be an integer >= 0, got {self.max_swaps!r}")
        if not (_is_int(self.connectivity_check_interval)
                and self.connectivity_check_interval >= 1):
            raise InvalidParamsError(
                f"connectivity_check_interval must be an integer >= 1, got "
                f"{self.connectivity_check_interval!r}")


@dataclass(frozen=True)
class RewireReport:
    swaps_attempted: int
    swaps_accepted: int
    initial_c: float
    final_c: float
    reached_target: bool

    def to_dict(self) -> dict:
        return {
            "swaps_attempted": self.swaps_attempted,
            "swaps_accepted": self.swaps_accepted,
            "initial_c": self.initial_c,
            "final_c": self.final_c,
            "reached_target": self.reached_target,
        }


def generate_ba(params: BaParams, rng: np.random.Generator) -> Graph:
    """Grow a scale-free graph by pure preferential attachment."""
    params.validate()
    return _grow(params.n, params.links, 0, params.resolved_seed_size(), rng)


def generate_hk(params: HkParams, rng: np.random.Generator) -> Graph:
    """Grow a clustered scale-free graph with anchored triad formation.

    Each new node places ``links`` edges in groups: one preferential link
    to an anchor, then triad links to uniform neighbors of that anchor
    until every group member is adjacent to ``triad_links`` of the node's
    other targets, with at least ``triad_links`` triad links per anchor.
    A group cut short by the link budget is the node's last group.
    """
    params.validate()
    return _grow(params.n, params.links, params.triad_links,
                 params.resolved_seed_size(), rng)


def _grow(n: int, links: int, triad_links: int, seed_size: int,
          rng: np.random.Generator) -> Graph:
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


class _RewireState:
    """Mutable adjacency + per-node triangle counts during rewiring."""

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


def rewire_increase_clustering(
    g: Graph, params: RewireParams, rng: np.random.Generator,
) -> tuple[Graph, RewireReport]:
    """Greedy degree-preserving rewiring toward a clustering target.

    Stops when the global coefficient reaches ``target_clustering``, when
    ``max_swaps`` proposals have been attempted, or when nothing improves.
    Connectivity is re-verified every ``connectivity_check_interval``
    accepted swaps, rolling back to the last connected state on failure, so
    the returned graph is always connected.  Failure to reach the target is
    reported via ``reached_target``, not an exception.
    """
    params.validate()
    if not is_connected(g):
        raise DisconnectedError("rewiring requires a connected input graph")

    state = _RewireState(g)
    c = state.clustering()
    initial_c = c
    attempted = 0
    accepted = 0
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
                    c = state.clustering()
                since_check = 0

    if since_check > 0:
        if not state.connected():
            state.restore(snap)
            accepted -= since_check
            c = state.clustering()

    out = state.to_graph() if accepted > 0 else g
    report = RewireReport(
        swaps_attempted=attempted,
        swaps_accepted=accepted,
        initial_c=initial_c,
        final_c=c,
        reached_target=c >= params.target_clustering,
    )
    return out, report
