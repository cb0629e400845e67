import itertools
import json
from dataclasses import replace

import numpy as np
import pytest

from clustopt.errors import DisconnectedError, InvalidParamsError
from clustopt.generators import (
    BaParams,
    HkParams,
    RewireParams,
    _BLOCK,
    generate_ba,
    generate_hk,
    rewire_increase_clustering,
)
from clustopt.graphs import (
    assign_random_weights,
    build_graph,
    degree_histogram,
    degree_stats,
    global_clustering,
    is_connected,
    powerlaw_tail_slope,
    predicted_c_ba,
)
from clustopt import generators
from helpers import (
    GROWTH_SWEEP,
    _ReferenceRewireState,
    cycle_graph,
    grow_case,
    random_connected_graph,
    reference_grow,
    reference_rewire,
)


def expected_edges(n, links, seed_size):
    return seed_size * (seed_size - 1) // 2 + (n - seed_size) * links


class TestParams:
    def test_ba_validation(self):
        with pytest.raises(InvalidParamsError):
            BaParams(n=10, links=0).validate()
        with pytest.raises(InvalidParamsError):
            BaParams(n=4, links=5).validate()
        with pytest.raises(InvalidParamsError):
            BaParams(n=10, links=3, seed_size=2).validate()

    def test_hk_validation(self):
        with pytest.raises(InvalidParamsError):
            HkParams(n=10, links=3, triad_links=3).validate()
        with pytest.raises(InvalidParamsError):
            HkParams(n=10, links=3, triad_links=-1).validate()
        HkParams(n=10, links=3, triad_links=2).validate()

    def test_bools_are_not_integers(self):
        # a bool is a numbers.Integral, so it needs its own rejection
        for params in (BaParams(True, True), BaParams(10, 3, seed_size=True),
                       HkParams(10, 3, triad_links=True),
                       HkParams(True, True, 0)):
            with pytest.raises(InvalidParamsError):
                params.validate()
        BaParams(np.int64(10), np.int64(3)).validate()


class TestGrowth:
    def test_seed_only_returns_clique(self):
        g = generate_ba(BaParams(n=5, links=3, seed_size=5),
                        np.random.default_rng(0))
        assert g.n == 5
        assert g.edge_count == 10
        assert global_clustering(g).global_mean == 1.0

    @pytest.mark.parametrize("params", [
        BaParams(n=300, links=4),
        BaParams(n=200, links=1),
        HkParams(n=300, links=4, triad_links=2),
        HkParams(n=250, links=5, triad_links=4),
    ])
    def test_edge_count_connected_simple(self, params):
        rng = np.random.default_rng(11)
        gen = generate_ba if isinstance(params, BaParams) else generate_hk
        g = gen(params, rng)
        assert g.n == params.n
        assert g.edge_count == expected_edges(
            params.n, params.links, params.resolved_seed_size())
        assert is_connected(g)
        assert (g.weights == 1.0).all()

    def test_seed_determinism(self):
        p = HkParams(n=400, links=5, triad_links=2)
        g1 = generate_hk(p, np.random.default_rng(123))
        g2 = generate_hk(p, np.random.default_rng(123))
        assert g1 == g2

    def test_hk_without_triads_equals_ba(self):
        ba = generate_ba(BaParams(n=300, links=4), np.random.default_rng(9))
        hk = generate_hk(HkParams(n=300, links=4, triad_links=0),
                         np.random.default_rng(9))
        assert ba == hk

    def test_clustering_increases_with_triad_links(self):
        means = []
        for l2 in (0, 1, 2):
            vals = []
            for s in range(20):
                g = generate_hk(HkParams(n=300, links=6, triad_links=l2),
                                np.random.default_rng(1000 + 31 * s + l2))
                vals.append(global_clustering(g).global_mean)
            means.append(np.mean(vals))
        assert means[0] < means[1] < means[2]

    def test_degree_parity_with_ba(self):
        # identical edge budget makes the average degree match exactly
        d_ba, d_hk = [], []
        for s in range(20):
            ba = generate_ba(BaParams(n=300, links=5),
                             np.random.default_rng(s))
            hk = generate_hk(HkParams(n=300, links=5, triad_links=2),
                             np.random.default_rng(s))
            d_ba.append(degree_stats(ba).average)
            d_hk.append(degree_stats(hk).average)
        assert np.mean(d_hk) == pytest.approx(np.mean(d_ba), rel=0.02)

    def test_degree_distribution_parity_with_ba(self):
        # triad targets are uniform neighbors of preferential anchors, so
        # they keep the degree weights; hub-biased triad rules fail this
        def tail(gen, params, seed_base):
            pooled: dict[int, int] = {}
            max_deg = []
            for s in range(10):
                g = gen(params, np.random.default_rng(seed_base + s))
                hist = degree_histogram(g)
                for d, c in hist.items():
                    pooled[d] = pooled.get(d, 0) + c
                max_deg.append(max(hist))
            return powerlaw_tail_slope(pooled, tail_start=10), np.mean(max_deg)

        slope_ba, max_ba = tail(generate_ba, BaParams(n=2000, links=10), 700)
        for l2 in (2, 3):
            slope, max_hk = tail(
                generate_hk, HkParams(n=2000, links=10, triad_links=l2),
                700 + 100 * l2)
            assert abs(slope - slope_ba) <= 0.2, (l2, slope, slope_ba)
            assert max_hk == pytest.approx(max_ba, rel=0.25), (l2, max_hk, max_ba)

    @pytest.mark.parametrize("links,l2", [
        (6, 1), (7, 1), (6, 2), (6, 3), (10, 3),
    ])
    def test_triad_step_closes_the_pairs_of_its_model(self, links, l2):
        """Count the neighbor pairs that each new node closes at birth.

        A node's targets are its neighbors with smaller index, and the
        edges among them all exist when it arrives, so the final graph
        shows the closed pairs at birth.  The triad step places groups: a
        preferential anchor, then neighbors of the anchor, until every
        member is adjacent to ``l2`` of the node's other targets.  Only
        the last group can be cut short by the link budget.  Hence:

        * the targets adjacent to fewer than ``l2`` other targets (U) lie
          in the last group, a star: U is inside ``{w} ∪ N(w)`` for one
          target w, its anchor;
        * outside U every target closes at least ``l2`` pairs, and inside
          U every target except the anchor closes at least one (with the
          anchor), so ``2·closed >= l2·(links - |U|) + |U| - 1``;
        * with ``l2 = 1`` every group is an anchor and one of its
          neighbors, so for even ``links`` U is empty and a node closes at
          least ``links / 2`` pairs;
        * averaged over nodes, the closed pairs reach the count of the
          estimate ``C ≈ 2·l2/d`` (``d ≈ 2·links``): a local clustering
          of ``l2/links`` over ``links·(links - 1)/2`` pairs is
          ``l2·(links - 1)/2`` pairs.
        """
        closed_counts = []
        for seed in (1, 2):
            g = generate_hk(HkParams(n=400, links=links, triad_links=l2),
                            np.random.default_rng(seed))
            nbrs = [set(map(int, g.neighbors(i))) for i in range(g.n)]
            for v in range(links, g.n):
                targets = {u for u in nbrs[v] if u < v}
                assert len(targets) == links
                inner = {t: len(nbrs[t] & targets) for t in targets}
                short = {t for t, k in inner.items() if k < l2}
                closed = sum(inner.values()) // 2
                closed_counts.append(closed)
                assert not short or any(short <= nbrs[w] | {w}
                                        for w in targets), (v, inner)
                assert 2 * closed >= l2 * (links - len(short)) + len(short) - 1
                if l2 == 1 and links % 2 == 0:
                    assert not short and closed >= links // 2
        assert np.mean(closed_counts) >= l2 * (links - 1) / 2

    def test_ba_clustering_tracks_prediction(self):
        vals = []
        for s in range(10):
            g = generate_ba(BaParams(n=1000, links=8),
                            np.random.default_rng(200 + s))
            vals.append(global_clustering(g).global_mean)
        pred = predicted_c_ba(1000, 8)
        assert abs(np.mean(vals) - pred) <= 0.5 * pred

    def test_powerlaw_tail_slope(self):
        # pooled histogram over seeds; theory exponent is ~3
        pooled: dict[int, int] = {}
        for s in range(10):
            g = generate_ba(BaParams(n=2000, links=5),
                            np.random.default_rng(50 + s))
            for d, c in degree_histogram(g).items():
                pooled[d] = pooled.get(d, 0) + c
        slope = powerlaw_tail_slope(pooled, tail_start=5)
        assert -4.0 <= slope <= -2.0


def no_improving_swap_exists(g):
    """Exhaustive check that no simple double-edge swap adds a triangle."""
    adj = [set(map(int, g.neighbors(i))) for i in range(g.n)]

    def triangles(a):
        return sum(len(a[u] & a[v]) for u in range(g.n) for v in a[u] if u < v) // 3

    base = triangles(adj)
    edges = [tuple(map(int, e)) for e in g.edges]
    for i in range(len(edges)):
        for j in range(i + 1, len(edges)):
            a, b = edges[i]
            c, d = edges[j]
            if len({a, b, c, d}) < 4:
                continue
            for (p, q), (r, s) in (((a, c), (b, d)), ((a, d), (b, c))):
                if q in adj[p] or s in adj[r]:
                    continue
                trial = [set(x) for x in adj]
                trial[a].discard(b)
                trial[b].discard(a)
                trial[c].discard(d)
                trial[d].discard(c)
                trial[p].add(q)
                trial[q].add(p)
                trial[r].add(s)
                trial[s].add(r)
                if triangles(trial) > base:
                    return False
    return True


class TestRewire:
    def test_four_cycle_has_no_improving_swap(self):
        g = cycle_graph(4)
        assert no_improving_swap_exists(g)
        out, report = rewire_increase_clustering(
            g, RewireParams(target_clustering=0.5, max_swaps=500),
            np.random.default_rng(3))
        assert out == g
        assert not report.reached_target
        assert report.swaps_accepted == 0
        assert report.final_c == 0.0

    def test_zero_budget_is_identity(self):
        g = random_connected_graph(np.random.default_rng(1), 20)
        out, report = rewire_increase_clustering(
            g, RewireParams(target_clustering=0.9, max_swaps=0),
            np.random.default_rng(0))
        assert out == g
        assert report.swaps_attempted == 0

    @pytest.mark.parametrize("target", [0.01, 0.9])
    def test_numpy_target_report_is_json(self, target):
        g = random_connected_graph(np.random.default_rng(2), 20)
        _, report = rewire_increase_clustering(
            g, RewireParams(np.float64(target), max_swaps=50),
            np.random.default_rng(0))
        doc = json.loads(json.dumps(report.to_dict()))
        assert doc["reached_target"] is (target == 0.01)

    def test_disconnected_input_rejected(self):
        g = build_graph([(0, 1, 1), (2, 3, 1)], n=4)
        with pytest.raises(DisconnectedError):
            rewire_increase_clustering(
                g, RewireParams(target_clustering=0.5, max_swaps=10),
                np.random.default_rng(0))

    def test_invariants_on_generated_graph(self):
        rng = np.random.default_rng(42)
        g = generate_hk(HkParams(n=300, links=5, triad_links=1), rng)
        c0 = global_clustering(g).global_mean
        t0 = int(global_clustering(g).triangles_per_node.sum()) // 3
        out, report = rewire_increase_clustering(
            g, RewireParams(target_clustering=1.3 * c0, max_swaps=200000),
            rng)
        assert np.array_equal(degree_stats(out).degrees,
                              degree_stats(g).degrees)
        assert out.edge_count == g.edge_count
        assert is_connected(out)
        assert (out.weights == 1.0).all()
        t1 = int(global_clustering(out).triangles_per_node.sum()) // 3
        assert t1 >= t0
        assert report.final_c >= report.initial_c
        assert report.final_c == pytest.approx(
            global_clustering(out).global_mean, abs=1e-12)

    def test_seed_determinism(self):
        g = generate_hk(HkParams(n=200, links=4, triad_links=1),
                        np.random.default_rng(7))
        p = RewireParams(target_clustering=0.5, max_swaps=5000)
        o1, r1 = rewire_increase_clustering(g, p, np.random.default_rng(55))
        o2, r2 = rewire_increase_clustering(g, p, np.random.default_rng(55))
        assert o1 == o2
        assert r1 == r2

    def test_param_validation(self):
        with pytest.raises(InvalidParamsError):
            RewireParams(target_clustering=0.0, max_swaps=5).validate()
        with pytest.raises(InvalidParamsError):
            RewireParams(target_clustering=0.5, max_swaps=-1).validate()

    @pytest.mark.parametrize("max_swaps, interval", [
        (2.5, 100), (True, 100), (10, 2.5), (10, True), (10.0, 100)])
    def test_param_validation_rejects_non_integers(self, max_swaps, interval):
        with pytest.raises(InvalidParamsError):
            RewireParams(0.5, max_swaps, interval).validate()
        RewireParams(0.5, np.int64(10), np.int32(5)).validate()

    @pytest.mark.parametrize("interval", [1, 1000])
    def test_rollback_restores_last_connected_state(self, interval):
        # sparse 12-node graphs split under most greedy swaps, so a check
        # after every accepted swap (interval 1) or only after the loop
        # (interval 1000) takes the rollback path on most seeds
        rolled_back = set()
        params = RewireParams(target_clustering=1.0, max_swaps=200,
                              connectivity_check_interval=interval)
        for seed in range(300):
            rng = np.random.default_rng(seed)
            g = random_connected_graph(rng, 12, 0.05)
            out, report = rewire_increase_clustering(g, params, rng)
            assert is_connected(out)
            assert np.array_equal(out.degrees(), g.degrees())
            assert report.final_c == pytest.approx(
                global_clustering(out).global_mean, abs=1e-12)
            if report.swaps_rolled_back > 0:
                rolled_back.add(seed)
        assert len(rolled_back) >= 250


def _hk300(weighted):
    rng = np.random.default_rng(42)
    g = generate_hk(HkParams(n=300, links=5, triad_links=1), rng)
    if weighted:
        g = assign_random_weights(g, rng)
    c0 = global_clustering(g).global_mean
    return g, RewireParams(1.3 * c0, 200_000), 43


def _rollback_sweep(interval, seed):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, 12, 0.05)
    return g, RewireParams(1.0, 200, interval), seed


def _hk300_rollback(interval):
    # with two links per node some greedy swaps split the graph, so the
    # periodic check rolls back on this graph at intervals 1 and 3
    rng = np.random.default_rng(42)
    g = generate_hk(HkParams(n=300, links=2, triad_links=1), rng)
    c0 = global_clustering(g).global_mean
    return g, RewireParams(1.3 * c0, 50_000, interval), 43


def _dense20(seed):
    # a dense 20-node graph: most blocks make several swaps on shared nodes
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, 20, 0.3)
    return g, RewireParams(1.0, 3000), seed


def _ba(n, max_swaps, target=0.6):
    g = generate_ba(BaParams(n, 3), np.random.default_rng(n))
    return g, RewireParams(target, max_swaps), n + 1


def _target_mid_block():
    # a target just above the start is met by the first few swaps, so the
    # run stops inside its first block
    g = generate_ba(BaParams(200, 4), np.random.default_rng(9))
    c0 = global_clustering(g).global_mean
    return g, RewireParams(1.02 * c0, 100_000), 10


EQUIVALENCE_CASES = {
    "hk300": lambda: _hk300(False),
    "hk300-weighted": lambda: _hk300(True),
    **{f"sweep-{i}-{seed}": (lambda i=i, seed=seed: _rollback_sweep(i, seed))
       for i in (1, 3, 1000) for seed in range(0, 300, 15)},
    **{f"ba{n}": (lambda n=n: _ba(n, 5000)) for n in (63, 64, 65)},
    **{f"budget{b}": (lambda b=b: _ba(130, b, 1.0))
       for b in (_BLOCK - 1, _BLOCK, _BLOCK + 1)},
    "target-mid-block": _target_mid_block,
    **{f"hk300-rollback-{i}": (lambda i=i: _hk300_rollback(i))
       for i in (1, 3)},
    **{f"dense20-{seed}": (lambda seed=seed: _dense20(seed))
       for seed in (0, 1)},
    "two-edges": lambda: (build_graph([(0, 1, 2.0), (1, 2, 0.5)], n=3),
                          RewireParams(0.5, 300), 0),
}


@pytest.mark.parametrize("case", EQUIVALENCE_CASES)
def test_block_scoring_matches_reference(case):
    """Block-scored rewiring equals the one-proposal-at-a-time oracle.

    Edges, weights, report and the generator state afterwards must be
    bit-identical, since the swaps are integer decisions taken in order.
    """
    report = _assert_matches_reference(*EQUIVALENCE_CASES[case]())
    if case == "target-mid-block":
        assert report.reached_target
        assert 0 < report.swaps_attempted < _BLOCK


def _assert_matches_reference(g, params, seed):
    rng_fast = np.random.default_rng(seed)
    rng_ref = np.random.default_rng(seed)
    out, report = rewire_increase_clustering(g, params, rng_fast)
    ref_out, ref_report = reference_rewire(g, params, rng_ref)
    assert np.array_equal(out.edges, ref_out.edges)
    assert np.array_equal(out.weights, ref_out.weights)
    assert report == ref_report
    assert rng_fast.bit_generator.state == rng_ref.bit_generator.state
    return report


@pytest.mark.parametrize("interval", [2, 5])
def test_forced_rollbacks_match_reference(monkeypatch, interval):
    """Every second connectivity check fails, so a rollback also undoes
    swaps of earlier blocks, whose nodes the block's own swaps need not
    share: every proposal after a rollback must be scored again."""
    g, params, seed = EQUIVALENCE_CASES["hk300"]()
    for cls in (generators._RewireState, _ReferenceRewireState):
        checks = itertools.count(1)
        monkeypatch.setattr(cls, "connected",
                            lambda self, checks=checks: next(checks) % 2 == 1)
    report = _assert_matches_reference(
        g, replace(params, connectivity_check_interval=interval), seed)
    assert report.swaps_rolled_back > 0


@pytest.mark.parametrize("case", ["hk300", "dense20-0", "dense20-1"])
def test_rescoring_changes_decisions_inside_blocks(monkeypatch, case):
    """A swap can turn a later proposal of its block improving or not, so
    the walk must score such proposals again: in each case the accepted
    proposals include some that did not improve when their block was
    scored, and leave out some that did."""
    g, params, seed = EQUIVALENCE_CASES[case]()
    block_gains = []
    score = generators._RewireState.score

    def recorded(self, ends):
        gain, second = score(self, ends)
        block_gains.append(gain)
        return gain, second

    monkeypatch.setattr(generators._RewireState, "score", recorded)
    _, report = rewire_increase_clustering(
        g, params, np.random.default_rng(seed))
    accepted_at = []
    reference_rewire(g, params, np.random.default_rng(seed), accepted_at)
    improving = np.concatenate(block_gains)[:report.swaps_attempted] > 0
    taken = np.zeros_like(improving)
    taken[accepted_at] = True
    assert (taken & ~improving).any()
    assert (improving & ~taken).any()


@pytest.mark.parametrize("case", ["hk300-rollback-1", "hk300-rollback-3"])
def test_python_rows_equal_packed_rows_after_rollbacks(monkeypatch, case):
    """Every flip updates both adjacency copies, and a rollback repacks
    both, so each Python row reads the bits of its packed row."""
    states = []

    class Recorded(generators._RewireState):
        def __init__(self, g):
            super().__init__(g)
            states.append(self)

    monkeypatch.setattr(generators, "_RewireState", Recorded)
    g, params, seed = EQUIVALENCE_CASES[case]()
    _, report = rewire_increase_clustering(
        g, params, np.random.default_rng(seed))
    assert report.swaps_rolled_back > 0
    (state,) = states
    assert all(int.from_bytes(state.bytes[u], "little") == state.rows[u]
               for u in range(state.n))


@pytest.mark.parametrize(
    "k", [1, 2, 7, 3000, 2**31 + 5, 3 * 2**30, 2**32 - 1])
def test_word_draws_equal_scalar_draws(k):
    """The draws growth takes from blocks of raw words: ``draw(k)`` returns
    the values of scalar ``integers(0, k)`` calls, and ``sync`` leaves the
    generator in their state, across block boundaries, odd and even word
    counts, and a direct draw from the generator between two syncs.
    3 * 2**30 rejects a quarter of the words; 1 consumes none."""
    halves = set()
    for block in (4, generators._WORDS):
        for m in (1, 2, 5, 6, 9, 1000):
            fast = np.random.default_rng(m)
            scalar = np.random.default_rng(m)
            draw, sync = generators._word_draws(fast, block)
            for _ in range(2):
                assert [draw(k) for _ in range(m)] == [
                    int(scalar.integers(0, k)) for _ in range(m)]
                sync()
                assert fast.bit_generator.state == scalar.bit_generator.state
                halves.add(scalar.bit_generator.state["has_uint32"])
                assert fast.uniform() == scalar.uniform()
    # an odd count of words used leaves half of a 64-bit output buffered
    assert halves == ({0} if k == 1 else {0, 1})


# generators that already hold half of a 64-bit output when growth starts
PART_USED = [(300, 6, 0, None, 3, "part-used"),
             (300, 6, 2, None, 3, "part-used")]


@pytest.mark.parametrize("case", GROWTH_SWEEP + PART_USED, ids=str)
def test_growth_matches_reference(monkeypatch, case):
    """Growth equals the scalar-draw oracle: the same edges, and the
    generator in the same state afterwards."""
    exact = []
    draw = generators._frozen_degree_draw
    monkeypatch.setattr(generators, "_frozen_degree_draw",
                        lambda *a: exact.append(1) or draw(*a))
    n, links, l2, seed_size, seed, *part_used = case
    rng_fast = np.random.default_rng(seed)
    rng_ref = np.random.default_rng(seed)
    if part_used:
        rng_fast.integers(0, 7)
        rng_ref.integers(0, 7)
        assert rng_fast.bit_generator.state["has_uint32"] == 1
    g = grow_case(case[:5], rng_fast)
    ref = reference_grow(n, links, l2, seed_size or links, rng_ref)
    assert g.n == ref.n
    assert np.array_equal(g.edges, ref.edges)
    assert rng_fast.bit_generator.state == rng_ref.bit_generator.state
    if seed_size == 1 or links >= 300:  # the empty pool, the fallback
        assert exact
