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
that pair already closes one triangle for each member.  BA and HK share
one draw loop: numpy's bounded-integer rule on raw 32-bit words, drawn a
block at a time, gives the values and generator state of one
``rng.integers(0, k)`` call per draw.  1000 rejections in a row fall back
to an exact frozen-degree draw.

Rewiring raises the global clustering coefficient by greedy double-edge
swaps that preserve every node degree: two edges (a,b), (c,d) are replaced
by (a,c),(b,d) or (a,d),(b,c) only when the result stays simple and the
global triangle count strictly increases.  The rewiring state holds the
adjacency twice, bit-packed: ``ceil(n/64)`` ``uint64`` words per node, and
one Python ``int`` per node.  Building it for HK n = 20000 (``links=6``,
``DEFAULT_SIZE_CAP``) peaks at 114 MB under ``tracemalloc``, against 70 MB
with the words alone: 50 MB of words and 43 MB of ints.  A block of
proposals is scored in one numpy pass, with common-neighbor counts from
``np.bitwise_count`` of the ANDed words.  The block is then walked in draw
order in Python: each improving proposal is applied, with its triangle
updates from the set bits of ANDed ints, and a proposal that shares a node
with an earlier swap of the block, or follows a rollback, is scored again
alone with ``int.bit_count``.  So the swaps, and the random stream they
consume, are those of scoring one proposal at a time.  A dense
common-neighbor matrix would take ``4n²`` bytes, 1.6 GB at the size cap.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import DisconnectedError, InvalidParamsError
from .graphs import Graph, _check_int, _is_int, global_clustering, is_connected

_TRIAD_SCAN_LIMIT = 16  # rejection tries before listing eligible neighbors
# preferential draws rejected in a row before an exact frozen-degree draw
_MAX_REJECTIONS = 1000
_WORDS = 256  # raw 32-bit words per generator call in growth
# swap proposals drawn and scored per numpy pass: 128 beat 64 and 256 at
# n = 800 and n = 1788, where a 256 block's rows outgrow the cache
_BLOCK = 128


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
        _check_int("max_swaps", self.max_swaps, 0)
        _check_int("connectivity_check_interval", self.connectivity_check_interval, 1)


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
        return asdict(self)


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

    draw, sync = _word_draws(rng)
    for v in range(seed_size, n):
        chosen: set[int] = set()
        targets: list[int] = []
        streak = 0  # preferential draws rejected in a row
        while len(targets) < links:
            # one preferential draw: a BA target or an HK anchor
            if size and streak < _MAX_REJECTIONS:
                t = pool[draw(size)]
            else:
                sync()  # the exact draw takes rng itself
                t = _frozen_degree_draw(pool[:size], v, chosen, rng)
            streak = streak + 1 if t in chosen else 0
            if streak:
                continue
            chosen.add(t)
            targets.append(t)
            if not triad_links:
                continue
            group = [t]  # the anchor, and its triad targets
            nbrs = adj_list[t]
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
                    t = nbrs[draw(len(nbrs))]
                    if t != v and t not in chosen:
                        break
                else:
                    eligible = [u for u in nbrs if u != v and u not in chosen]
                    t = eligible[draw(len(eligible))]
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

    sync()
    # the seed clique in row-major order, then (v, t) in attach order
    grown = np.array(pool[n_seed:], dtype=np.int64).reshape(-1, 2, links)
    e = np.concatenate((np.column_stack(np.triu_indices(seed_size, k=1)),
                        grown.transpose(0, 2, 1).reshape(-1, 2)))
    return Graph(n, e, np.ones(e.shape[0]))


def _word_draws(rng: np.random.Generator, block: int = _WORDS):
    """``draw(k)``, equal to ``rng.integers(0, k)`` for ``1 <= k <= 2**32``,
    and ``sync()``, which leaves ``rng`` as those scalar calls would.

    ``draw`` applies numpy's bounded-integer rule (Lemire 2019) to raw 32-bit
    words drawn ``block`` at a time: the high word of ``w * k``, or the next
    word if the low word is below ``(2**32 - k) % k``.  ``sync`` restores the
    state before the first unsynced block and redraws the words used.
    """
    words, pos, start, done = [], 0, None, 0  # done: words of past blocks

    def draw(k: int) -> int:
        nonlocal words, pos, start, done
        while k > 1:  # k = 1 takes no word
            if pos == len(words):
                start = start or rng.bit_generator.state
                done += pos
                words = rng.integers(0, 1 << 32, size=block,
                                     dtype=np.uint32).tolist()
                pos = 0
            m = words[pos] * k
            pos += 1
            if m & 0xFFFFFFFF >= (0x100000000 - k) % k:
                return m >> 32
        return 0

    def sync() -> None:
        nonlocal words, pos, start, done
        if start:
            rng.bit_generator.state = start
            rng.integers(0, 1 << 32, size=done + pos, dtype=np.uint32)
        words, pos, start, done = [], 0, None, 0

    return draw, sync


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
    adjacent; ``bytes`` is the same memory seen as ``uint8``, and
    ``rows[u]`` the same row as one Python ``int``.  The numpy rows score a
    block of proposals in one pass, the Python rows one swap or one proposal
    at a time; every flip updates both.  Row ``e`` of ``edges`` holds the
    endpoints of edge slot ``e`` in the orientation the last swap left them,
    which decides how the next swap of the slot pairs its endpoints.  A swap
    keeps each weight in its slot.
    """

    def __init__(self, g: Graph):
        self.n = g.n
        self.edges = g.edges.copy()
        self.weights = g.weights
        self.bits = np.zeros((g.n, -(-g.n // 64)), dtype="<u8")
        self.bytes = self.bits.view(np.uint8)
        self.rows = [0] * g.n
        self._pack()
        self.tri = global_clustering(g).triangles_per_node.astype(np.int64)
        deg = g.degrees()
        self.coef = np.zeros(g.n)
        mask = deg >= 2
        self.coef[mask] = 2.0 / (deg[mask] * (deg[mask] - 1.0))
        # element access from Python, on the same memory
        self._slots, self._tri, self._bytes = map(
            memoryview, (self.edges, self.tri, self.bytes))

    def _pack(self) -> None:
        """Set both adjacency copies from ``edges``, in place."""
        self.bits.fill(0)
        u = self.edges.ravel()
        v = self.edges[:, ::-1].ravel()
        np.bitwise_or.at(self.bytes, (u, v >> 3),
                         np.left_shift(1, v & 7).astype(np.uint8))
        for node, row in enumerate(self.bytes):
            self.rows[node] = int.from_bytes(row, "little")

    def clustering(self) -> float:
        return float(np.dot(self.coef, self.tri) / self.n)

    def snapshot(self):
        return self.edges.copy(), self.tri.copy()

    def restore(self, snap) -> None:
        self.edges[:] = snap[0]
        self.tri[:] = snap[1]
        self._pack()

    def connected(self) -> bool:
        e = self.edges
        adj = sp.coo_array((np.ones(e.shape[0]), (e[:, 0], e[:, 1])),
                           shape=(self.n, self.n))
        return connected_components(adj, directed=False,
                                    return_labels=False) <= 1

    def score(self, ends: np.ndarray) -> tuple:
        """Triangle gain of each proposal's better orientation, and which.

        Proposal ``k`` swaps the edges (a,b), (c,d) = ``ends[k]`` for
        (a,c),(b,d) or, where ``second[k]``, (a,d),(b,c).  A gain is
        positive exactly when the four endpoints are distinct, the
        orientation keeps the graph simple and the triangle count rises by
        that much; the common-neighbor counts are corrected for the two
        edges that disappear.  Ties go to the first orientation.
        """
        ends = ends.T
        ra, rb, rc, rd = self.bits[ends]
        ab, cd, ac, bd, ad, bc = (
            np.bitwise_count(x & y).sum(-1, dtype=np.int64)
            for x, y in ((ra, rb), (rc, rd), (ra, rc), (rb, rd), (ra, rd),
                         (rb, rc)))
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

    def score_one(self, e1: int, e2: int) -> tuple[int, bool]:
        """:meth:`score` of the proposal of slots ``e1``, ``e2`` alone, on
        the Python rows."""
        slots, rows = self._slots, self.rows
        a, b, c, d = slots[e1, 0], slots[e1, 1], slots[e2, 0], slots[e2, 1]
        if a == c or a == d or b == c or b == d:
            return 0, False
        ra, rb, rc, rd = rows[a], rows[b], rows[c], rows[d]
        a_ac, a_bd = ra >> c & 1, rb >> d & 1
        a_ad, a_bc = ra >> d & 1, rb >> c & 1
        removed = (ra & rb).bit_count() + (rc & rd).bit_count()
        g1 = 0 if a_ac | a_bd else ((ra & rc).bit_count() + (rb & rd).bit_count()
                                    - 2 * (a_bc + a_ad) - removed)
        g2 = 0 if a_ad | a_bc else ((ra & rd).bit_count() + (rb & rc).bit_count()
                                    - 2 * (a_bd + a_ac) - removed)
        return max(g1, g2), g2 > g1

    def _toggle(self, u: int, v: int, step: int) -> None:
        """Add (step 1) or remove (step -1) edge (u, v) and its triangles,
        whose third nodes are the set bits of ``rows[u] & rows[v]`` with or
        without the edge."""
        rows, tri = self.rows, self._tri
        common, k = rows[u] & rows[v], 0
        while common:
            low = common & -common
            tri[low.bit_length() - 1] += step
            common ^= low
            k += step
        tri[u] += k
        tri[v] += k
        self._bytes[u, v >> 3] ^= 1 << (v & 7)
        self._bytes[v, u >> 3] ^= 1 << (u & 7)
        rows[u] ^= 1 << v
        rows[v] ^= 1 << u

    def swap(self, e1: int, e2: int, second: bool) -> tuple[int, ...]:
        """Apply proposal (e1, e2) in the orientation :meth:`score` chose;
        return its four nodes."""
        slots = self._slots
        a, b, c, d = slots[e1, 0], slots[e1, 1], slots[e2, 0], slots[e2, 1]
        if second:
            c, d = d, c
        for u, v, step in ((a, b, -1), (c, d, -1), (a, c, 1), (b, d, 1)):
            self._toggle(u, v, step)
        slots[e1, 1], slots[e2, 0], slots[e2, 1] = c, b, d
        return a, b, c, d

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
    ``np.bitwise_count`` on the bit-packed adjacency.  The block is then
    walked in draw order from its first improving proposal.  A proposal
    that shares a node with an earlier swap of the block is scored again
    alone on the Python rows, and so is every proposal after a rollback,
    which may also undo swaps of earlier blocks; any other keeps its
    endpoints, counts and adjacency bits.  So every decision is the one the
    proposal would get alone, in draw order, and the generator ends in the
    state that drawing each used proposal on its own would leave.
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
        ends = state.edges[pairs].reshape(size, 4)
        gain, second = state.score(ends)
        hits = np.flatnonzero(gain > 0)
        first = hits[0] if hits.size else size
        used = size
        # walk the block in draw order from its first improving proposal; a
        # proposal that shares a node with an earlier swap of the block, or
        # follows a rollback, is scored again alone
        touched: set[int] = set()
        rescore_all = False
        for k, (e1, e2), quad, g_k, s_k in zip(
                range(first, size), pairs[first:].tolist(),
                ends[first:].tolist(), gain[first:].tolist(),
                second[first:].tolist()):
            if rescore_all or not touched.isdisjoint(quad):
                g_k, s_k = state.score_one(e1, e2)
            if g_k <= 0:
                continue
            touched.update(state.swap(e1, e2, s_k))
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
                    rescore_all = True
                since_check = 0
            if c >= target:
                used = k + 1
                break
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
