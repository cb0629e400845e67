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
that pair already closes one triangle for each member.  A BA node draws
all its remaining targets in one call (the values and generator state of as
many scalar draws) and redraws only rejections; HK interleaves draws of
different bounds, one call each.  1000 rejections in a row fall back to an
exact frozen-degree draw.

Rewiring raises the global clustering coefficient by greedy double-edge
swaps that preserve every node degree: two edges (a,b), (c,d) are replaced
by (a,c),(b,d) or (a,d),(b,c) only when the result stays simple and the
global triangle count strictly increases.  The rewiring state is one
bit-packed adjacency, ``ceil(n/64)`` ``uint64`` words per node (``n²/8``
bytes: 80 KB at n = 800, 50 MB at ``DEFAULT_SIZE_CAP`` = 20000).  A block
of proposals is scored in one numpy pass, with common-neighbor counts from
``np.bitwise_count`` of the ANDed rows.  The first improving proposal is
applied, and the later proposals of the block that share a node with it
are scored again, so the swaps, and the random stream they consume, are
those of scoring one proposal at a time.  A dense common-neighbor matrix
would take ``4n²`` bytes, 1.6 GB at the size cap.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import DisconnectedError, InvalidParamsError
from .graphs import Graph, global_clustering, is_connected

_TRIAD_SCAN_LIMIT = 16  # rejection tries before listing eligible neighbors
# preferential draws rejected in a row before an exact frozen-degree draw
_MAX_REJECTIONS = 1000
# swap proposals drawn and scored per numpy pass: 128 beat 64 and 256 at
# n = 800 and n = 1788, where a 256 block's rows outgrow the cache
_BLOCK = 128


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
    """Counts and clustering of one rewiring run.

    ``swaps_accepted`` counts the swaps in the returned graph, and
    ``swaps_rolled_back`` those accepted but undone by a rollback to the
    last connected state.
    """

    swaps_attempted: int
    swaps_accepted: int
    swaps_rolled_back: int
    initial_c: float
    final_c: float
    reached_target: bool

    def to_dict(self) -> dict:
        return {
            "swaps_attempted": self.swaps_attempted,
            "swaps_accepted": self.swaps_accepted,
            "swaps_rolled_back": self.swaps_rolled_back,
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
    # endpoint pool: node k appears deg(k) times.  A node's [v] * links +
    # targets join it after v attaches, freezing the weights of v's draws.
    size = n_seed = seed_size * (seed_size - 1)
    pool = (np.repeat(np.arange(seed_size), seed_size - 1).tolist()
            + [0] * (2 * links * (n - seed_size)))
    # triad draws index a neighbor list by position, so lists keep the order
    # of placement; at L2 = 1 the group test never decides, so no sets
    adj_list = ([[u for u in range(seed_size) if u != k]
                 for k in range(seed_size)] if triad_links else None)
    adj_set = [set(nb) for nb in adj_list] if triad_links >= 2 else None

    for v in range(seed_size, n):
        chosen: set[int] = set()
        targets: list[int] = []
        streak = 0  # preferential draws rejected in a row
        while len(targets) < links:
            # all of a BA node's remaining targets in one call, an HK anchor
            # alone; no call draws past the streak that ends in an exact draw
            want = len(targets) + 1 if triad_links else links
            while len(targets) < want:
                if size and streak < _MAX_REJECTIONS:
                    k = min(want - len(targets), _MAX_REJECTIONS - streak)
                    idx = (rng.integers(0, size, size=k).tolist() if k > 1
                           else [rng.integers(0, size)])
                    draws = [pool[i] for i in idx]
                else:
                    draws = [_frozen_degree_draw(pool[:size], v, chosen, rng)]
                for t in draws:
                    if t in chosen:
                        streak += 1
                    else:
                        streak = 0
                        chosen.add(t)
                        targets.append(t)
            if not triad_links:
                continue
            group = [targets[-1]]  # the anchor, and its triad targets
            nbrs = adj_list[group[0]]
            nbrs.append(v)
            # a member's neighbors among v's other targets are the triangles
            # that its link to v closes
            while len(targets) < links and (
                    len(group) <= triad_links
                    or (adj_set is not None
                        and any(len(adj_set[u] & chosen) < triad_links
                                for u in group))):
                # the anchor had >= links - 1 neighbors before v, and v has
                # placed at most links - 2 other targets: one is eligible
                scan = _TRIAD_SCAN_LIMIT if len(nbrs) > _TRIAD_SCAN_LIMIT else 0
                for _ in range(scan):
                    t = nbrs[rng.integers(0, len(nbrs))]
                    if t != v and t not in chosen:
                        break
                else:
                    eligible = [u for u in nbrs if u != v and u not in chosen]
                    t = eligible[rng.integers(0, len(eligible))]
                chosen.add(t)
                targets.append(t)
                adj_list[t].append(v)
                group.append(t)

        pool[size:size + 2 * links] = [v] * links + targets
        size += 2 * links
        if triad_links:
            adj_list.append(targets)
        if adj_set is not None:
            adj_set.append(set(targets))
            for t in targets:
                adj_set[t].add(v)

    # the seed clique in row-major order, then (v, t) in attach order
    grown = np.array(pool[n_seed:], dtype=np.int64).reshape(-1, 2, links)
    e = np.concatenate((np.column_stack(np.triu_indices(seed_size, k=1)),
                        grown.transpose(0, 2, 1).reshape(-1, 2)))
    return Graph(n, e, np.ones(e.shape[0]))


def _frozen_degree_draw(pool: list[int], v: int, chosen: set[int],
                        rng: np.random.Generator) -> int:
    """Draw a node before ``v`` outside ``chosen`` by its count in ``pool``."""
    cand = np.array([u for u in range(v) if u not in chosen], dtype=np.int64)
    cum = np.cumsum(np.bincount(np.array(pool, dtype=np.int64),
                                minlength=v)[cand], dtype=np.float64)
    if cum[-1] > 0:
        return int(cand[np.searchsorted(cum, rng.uniform(0, cum[-1]),
                                        side="right")])
    return int(cand[rng.integers(0, len(cand))])


class _RewireState:
    """Bit-packed adjacency, edge slots and per-node triangle counts.

    Row ``u`` of ``bits`` holds ``ceil(n/64)`` little-endian ``uint64``
    words, and bit ``v`` of the row is set when ``u`` and ``v`` are
    adjacent; ``bytes`` is the same memory seen as ``uint8``.  Row ``e`` of
    ``edges`` holds the endpoints of edge slot ``e`` in the orientation the
    last swap left them, which decides how the next swap of the slot pairs
    its endpoints.  A swap keeps each weight in its slot.
    """

    # the six endpoint pairs scored per proposal: ab, cd, ac, bd, ad, bc
    _LEFT = np.array([0, 2, 0, 1, 0, 1])
    _RIGHT = np.array([1, 3, 2, 3, 3, 2])

    def __init__(self, g: Graph):
        self.n = g.n
        self.edges = g.edges.copy()
        self.weights = g.weights
        self._pack()
        self.tri = global_clustering(g).triangles_per_node.astype(np.int64)
        deg = g.degrees()
        self.coef = np.zeros(g.n)
        mask = deg >= 2
        self.coef[mask] = 2.0 / (deg[mask] * (deg[mask] - 1.0))

    def _pack(self) -> None:
        self.bits = np.zeros((self.n, -(-self.n // 64)), dtype="<u8")
        self.bytes = self.bits.view(np.uint8)
        u = self.edges.ravel()
        v = self.edges[:, ::-1].ravel()
        np.bitwise_or.at(self.bytes, (u, v >> 3),
                         np.left_shift(1, v & 7).astype(np.uint8))

    def clustering(self) -> float:
        return float(np.dot(self.coef, self.tri) / self.n)

    def snapshot(self):
        return self.edges.copy(), self.tri.copy()

    def restore(self, snap) -> None:
        self.edges = snap[0].copy()
        self.tri = snap[1].copy()
        self._pack()

    def connected(self) -> bool:
        e = self.edges
        adj = sp.coo_array((np.ones(e.shape[0]), (e[:, 0], e[:, 1])),
                           shape=(self.n, self.n))
        return connected_components(adj, directed=False,
                                    return_labels=False) <= 1

    def score(self, pairs: np.ndarray) -> tuple:
        """Triangle gain of each proposal's better orientation, and which.

        Proposal ``k`` swaps the edges in slots ``pairs[k]``, (a,b) and
        (c,d), for (a,c),(b,d) or, where ``second[k]``, (a,d),(b,c).  A gain
        is positive exactly when the four endpoints are distinct, the
        orientation keeps the graph simple and the triangle count rises by
        that much; the common-neighbor counts are corrected for the two
        edges that disappear.  Ties go to the first orientation.
        """
        ends = self.edges[pairs].reshape(-1, 4).T
        rows = self.bits[ends]
        ab, cd, ac, bd, ad, bc = np.bitwise_count(
            rows[self._LEFT] & rows[self._RIGHT]).sum(-1, dtype=np.int64)
        u, v = ends[[0, 1, 0, 1]], ends[[2, 3, 3, 2]]
        a_ac, a_bd, a_ad, a_bc = (self.bytes[u, v >> 3] >> (v & 7)) & 1
        removed = ab + cd
        g1 = np.where((a_ac | a_bd) == 0,
                      ac + bd - 2 * (a_bc + a_ad) - removed, 0)
        g2 = np.where((a_ad | a_bc) == 0,
                      ad + bc - 2 * (a_bd + a_ac) - removed, 0)
        a, b, c, d = ends
        distinct = (a != c) & (a != d) & (b != c) & (b != d)
        return np.maximum(g1, g2) * distinct, g2 > g1

    def _flip(self, u: int, v: int) -> None:
        self.bytes[u, v >> 3] ^= 1 << (v & 7)
        self.bytes[v, u >> 3] ^= 1 << (u & 7)

    def _common(self, u: int, v: int) -> np.ndarray:
        return np.flatnonzero(np.unpackbits(self.bytes[u] & self.bytes[v],
                                            bitorder="little"))

    def _remove(self, u: int, v: int) -> None:
        self._flip(u, v)
        common = self._common(u, v)
        self.tri[common] -= 1
        self.tri[u] -= common.size
        self.tri[v] -= common.size

    def _add(self, u: int, v: int) -> None:
        common = self._common(u, v)
        self.tri[common] += 1
        self.tri[u] += common.size
        self.tri[v] += common.size
        self._flip(u, v)

    def swap(self, e1: int, e2: int, second: bool) -> None:
        """Apply proposal (e1, e2) in the orientation :meth:`score` chose."""
        a, b = map(int, self.edges[e1])
        c, d = map(int, self.edges[e2])
        new1, new2 = ((a, d), (b, c)) if second else ((a, c), (b, d))
        self._remove(a, b)
        self._remove(c, d)
        self._add(*new1)
        self._add(*new2)
        self.edges[e1] = new1
        self.edges[e2] = new2

    def to_graph(self) -> Graph:
        return Graph(self.n, self.edges, self.weights)


def rewire_increase_clustering(
    g: Graph, params: RewireParams, rng: np.random.Generator,
) -> tuple[Graph, RewireReport]:
    """Greedy degree-preserving rewiring toward a clustering target.

    Each proposal draws two edge slots uniformly, and is accepted in the
    better of its two orientations when that strictly raises the triangle
    count and keeps the graph simple.  Stops when the global coefficient
    reaches ``target_clustering`` or when ``max_swaps`` proposals have been
    attempted.  Connectivity is re-verified every
    ``connectivity_check_interval`` accepted swaps, rolling back to the last
    connected state on failure, so the returned graph is always connected.
    Failure to reach the target is reported via ``reached_target``, not an
    exception; ``swaps_rolled_back`` counts the accepted swaps undone.

    Proposals are drawn and scored in blocks of ``_BLOCK``: one numpy pass
    counts the common neighbors of every endpoint pair of the block with
    ``np.bitwise_count`` on the bit-packed adjacency (``n²/8`` bytes, 50 MB
    at ``n`` = 20000).  The first improving proposal is applied, and the
    later proposals that share a node with it are scored again: a proposal
    that shares none keeps its endpoints, counts and adjacency bits.  So
    every decision is the one the proposal would get alone, in draw order,
    and the generator ends in the state that drawing each used proposal on
    its own would leave.
    """
    params.validate()
    if not is_connected(g):
        raise DisconnectedError("rewiring requires a connected input graph")

    state = _RewireState(g)
    c = state.clustering()
    initial_c = c
    target = params.target_clustering
    attempted = 0
    accepted = 0
    rolled_back = 0
    since_check = 0
    snap = state.snapshot()
    m = state.edges.shape[0]

    while c < target and attempted < params.max_swaps and m >= 2:
        size = min(_BLOCK, params.max_swaps - attempted)
        before = rng.bit_generator.state
        pairs = rng.integers(0, m, size=2 * size).reshape(size, 2)
        gain, second = state.score(pairs)
        used = 0
        while c < target:
            hits = np.flatnonzero(gain[used:] > 0)
            if hits.size == 0:
                used = size
                break
            k = used + int(hits[0])
            state.swap(int(pairs[k, 0]), int(pairs[k, 1]), bool(second[k]))
            used = k + 1
            # a swap changes the scores of the proposals that share a node
            # with it; a rollback may change any
            nodes = state.edges[pairs[k]].reshape(4, 1, 1, 1)
            stale = (state.edges[pairs[used:]] == nodes).any(axis=(0, 2, 3))
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
                    stale[:] = True
                since_check = 0
            rescore = used + np.flatnonzero(stale)
            gain[rescore], second[rescore] = state.score(pairs[rescore])
        attempted += used
        if used < size:
            # the target was reached mid-block: leave the generator as if
            # only the used proposals had been drawn
            rng.bit_generator.state = before
            rng.integers(0, m, size=2 * used)

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
        reached_target=bool(c >= target),
    )
    return out, report
