import itertools

import networkx as nx
import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components

from clustopt.errors import (
    DuplicateEdgeError,
    IndexOutOfRangeError,
    InsufficientDataError,
    InvalidRangeError,
    NonPositiveWeightError,
    PreconditionError,
    SelfLoopError,
)
from clustopt.generators import HkParams, generate_hk
from clustopt.graphs import (
    Graph,
    _components,
    assign_random_weights,
    build_graph,
    degree_histogram,
    degree_stats,
    global_clustering,
    is_connected,
    laplacian_blocks,
    laplacian_sparse,
    local_clustering,
    powerlaw_tail_slope,
    predicted_c_ba,
    predicted_c_hk,
    union_laplacian,
)
from helpers import (
    brute_force_clustering,
    brute_force_triangles,
    complete_graph,
    copied_blocks,
    cycle_graph,
    partition,
    random_connected_graph,
    random_graph,
)


def k4_minus_edge():
    return build_graph([(0, 1, 1), (0, 2, 1), (0, 3, 1), (1, 2, 1), (1, 3, 1)])


class TestBuildGraph:
    def test_single_edge(self):
        g = build_graph([(0, 1, 1.0)], n=2)
        assert g.n == 2
        assert list(degree_stats(g).degrees) == [1, 1]

    def test_duplicate_edge_rejected(self):
        with pytest.raises(DuplicateEdgeError):
            build_graph([(0, 1, 1.0), (1, 0, 1.0)])

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoopError):
            build_graph([(0, 0, 1.0)])

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(NonPositiveWeightError):
            build_graph([(0, 1, 0.0)])
        with pytest.raises(NonPositiveWeightError):
            build_graph([(0, 1, -2.0)])

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRangeError):
            build_graph([(0, 5, 1.0)], n=3)

    @pytest.mark.parametrize("n", [2.9, True, -1, 2 ** 63],
                             ids=["float", "bool", "negative", "2^63"])
    def test_node_count_is_an_int64_count(self, n):
        """Not truncated to 2 or read as 1, and never beyond int64."""
        with pytest.raises(IndexOutOfRangeError, match="node count"):
            Graph(n, np.empty((0, 2), dtype=np.int64), np.empty(0))

    def test_numpy_integer_node_count(self):
        g = Graph(np.int32(3), [(0, 2)], [1.0])
        assert g.n == 3 and type(g.n) is int

    def test_canonical_order(self):
        g = build_graph([(2, 1, 3.0), (1, 0, 2.0)])
        assert g.edges.tolist() == [[0, 1], [1, 2]]
        assert g.weights.tolist() == [2.0, 3.0]

    def test_neighbors_sorted(self):
        g = build_graph([(3, 0, 1), (1, 0, 1), (0, 2, 1)])
        assert g.neighbors(0).tolist() == [1, 2, 3]


def accessor_graphs():
    """No nodes, one node, isolated nodes, and weighted random graphs."""
    rng = np.random.default_rng(81)
    return [
        build_graph([], n=0),
        build_graph([], n=1),
        build_graph([(4, 1, 0.5), (1, 6, 2.0), (6, 4, 0.25)], n=9),
        *(assign_random_weights(random_graph(rng, n, p), rng)
          for n, p in ((12, 0.0), (20, 0.1), (30, 0.4), (15, 1.0))),
        assign_random_weights(generate_hk(HkParams(60, 4, 1), rng), rng),
    ]


class TestGraphAccessors:
    """Neighbours, degrees and weighted degrees, all read off the graph's
    one cached matrix, against Python sets and the edge-order sum."""

    @pytest.mark.parametrize("g", accessor_graphs(), ids=repr)
    def test_neighbors_and_degrees_match_sets(self, g):
        adj = [set() for _ in range(g.n)]
        for i, j in g.edges.tolist():
            adj[i].add(j)
            adj[j].add(i)
        for i in range(g.n):
            assert g.neighbors(i).tolist() == sorted(adj[i])
        assert g.degrees().tolist() == [len(a) for a in adj]
        with pytest.raises(IndexOutOfRangeError):
            g.neighbors(g.n)

    @pytest.mark.parametrize("g", accessor_graphs(), ids=repr)
    def test_weighted_degrees_are_the_edge_order_sum(self, g):
        wd = np.zeros(g.n)
        np.add.at(wd, g.edges[:, 0], g.weights)
        np.add.at(wd, g.edges[:, 1], g.weights)
        got = g.weighted_degrees()
        assert got.dtype == wd.dtype and got.tobytes() == wd.tobytes()
        assert np.array_equal(got, np.diag(laplacian_sparse(g).toarray()))


class TestLaplacian:
    def test_single_edge_unit(self):
        g = build_graph([(0, 1, 1.0)])
        assert laplacian_sparse(g).toarray().tolist() == [[1.0, -1.0], [-1.0, 1.0]]

    def test_single_edge_weighted(self):
        g = build_graph([(0, 1, 2.5)])
        assert laplacian_sparse(g).toarray().tolist() == [[2.5, -2.5], [-2.5, 2.5]]

    def test_unit_triangle(self):
        lap = laplacian_sparse(build_graph([(0, 1, 1), (0, 2, 1), (1, 2, 1)])).toarray()
        assert np.array_equal(np.diag(lap), [2, 2, 2])
        off = lap[~np.eye(3, dtype=bool)]
        assert np.array_equal(off, -np.ones(6))

    def test_properties_on_random_graphs(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            g = random_graph(rng, int(rng.integers(2, 40)), 0.3)
            lap = laplacian_sparse(g).toarray()
            assert np.array_equal(lap, lap.T)
            assert np.array_equal(lap.sum(axis=1), np.zeros(g.n))
            assert (np.diag(lap) >= 0).all()
            # unit weights: an entry-by-entry build from the edges is exact
            ref = np.zeros((g.n, g.n))
            i, j = g.edges[:, 0], g.edges[:, 1]
            ref[i, j] = ref[j, i] = -g.weights
            ref[np.diag_indices(g.n)] = g.degrees()
            assert np.array_equal(lap, ref)


def one_graph_union(graphs):
    """Oracle: the Laplacian of one graph on the stacked edges, graph j
    shifted to nodes ``j * n`` to ``j * n + n - 1``."""
    n = graphs[0].n
    return laplacian_sparse(Graph(
        n * len(graphs),
        np.vstack([g.edges + j * n for j, g in enumerate(graphs)]),
        np.concatenate([g.weights for g in graphs])))


def assert_same_csr(got, want):
    assert got.shape == want.shape
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


class TestUnionLaplacian:
    """The block layout of stacked graphs, against one-graph Laplacians."""

    N = 25

    @pytest.fixture(scope="class")
    def graphs(self):
        # sparse with isolated nodes, edgeless, dense, and a clustered one
        rng = np.random.default_rng(80)
        return [assign_random_weights(g, rng) for g in (
            random_graph(rng, self.N, 0.3), random_graph(rng, self.N, 0.05),
            random_graph(rng, self.N, 0.0), random_graph(rng, self.N, 0.6),
            generate_hk(HkParams(self.N, 3, 1), rng))]

    def test_union_equals_one_graph_on_stacked_edges(self, graphs):
        """Also with the int32 edges a campaign trial holds."""
        for count, dtype in itertools.product((1, 2, len(graphs)),
                                              (np.int64, np.int32)):
            part = graphs[:count]
            assert_same_csr(union_laplacian(
                self.N, [(g.edges.astype(dtype), g.weights) for g in part]),
                one_graph_union(part))

    def test_one_part_equals_its_laplacian(self, graphs):
        for g in graphs:
            assert_same_csr(union_laplacian(
                self.N, [(g.edges.astype(np.int32), g.weights)]),
                laplacian_sparse(g))

    @pytest.mark.parametrize("keep", [
        [True, False, False, False, False],
        [False, False, False, False, True],
        [True, False, True, False, True],
        [True] * 5,
        [False, True, True, True, True],
        [True, True, True, True, False],
    ], ids=["first", "last", "alternating", "all", "drop-first", "drop-last"])
    def test_blocks_equal_union_of_kept_graphs(self, graphs, keep):
        """The cut moves the kept entries down inside the union's own
        arrays: the union of the kept graphs, and the same matrix as
        gathering them into new arrays."""
        parts = [(g.edges, g.weights) for g in graphs]
        keep = np.array(keep)
        copied = copied_blocks(union_laplacian(self.N, parts), self.N, keep)
        union = union_laplacian(self.N, parts)
        got = laplacian_blocks(union, self.N, keep)
        assert_same_csr(got, one_graph_union(
            [g for g, k in zip(graphs, keep) if k]))
        assert_same_csr(got, copied)
        assert np.shares_memory(got.data, union.data)
        assert np.shares_memory(got.indices, union.indices)


class TestConnectivity:
    def test_triangle_connected(self):
        assert is_connected(build_graph([(0, 1, 1), (0, 2, 1), (1, 2, 1)]))

    def test_two_isolated_edges(self):
        assert not is_connected(build_graph([(0, 1, 1), (2, 3, 1)], n=4))

    def test_single_node(self):
        assert is_connected(build_graph([], n=1))

    def test_empty_graph(self):
        assert is_connected(build_graph([], n=0))

    def test_isolated_node(self):
        assert not is_connected(build_graph([(0, 1, 1), (1, 2, 1)], n=4))
        assert not is_connected(build_graph([], n=2))

    @pytest.mark.parametrize("seed", range(12))
    def test_strong_components_are_the_connected_components(self, seed):
        """On the symmetric pattern of a package Laplacian, scipy's strong
        components (no transposed copy) give the partition that
        ``directed=False`` and networkx give: on graphs of 1-4 components
        with isolated nodes, their labels shuffled, and on an equal-order
        union of such graphs."""
        rng = np.random.default_rng(seed)
        n = 40
        graphs = []
        for _ in range(3):
            k = int(rng.integers(1, 5))
            sizes = rng.multinomial(n - 3, np.ones(k) / k)
            edges, start = [], 3  # nodes 0-2 are isolated
            for size in sizes[sizes > 0]:
                part = random_connected_graph(rng, int(size), 0.2)
                edges.append(part.edges + start)
                start += size
            perm = rng.permutation(n)
            e = perm[np.vstack(edges)]
            graphs.append(Graph(n, e, rng.uniform(0.5, 1.5, len(e))))
        union = union_laplacian(n, [(g.edges, g.weights) for g in graphs])
        for g, lap in [*((g, laplacian_sparse(g)) for g in graphs),
                       (None, union)]:
            ncomp, labels = _components(lap)
            want_n, want = connected_components(lap, directed=False)
            assert ncomp == want_n
            assert np.array_equal(partition(labels), partition(want))
            ref = nx.from_scipy_sparse_array(lap)
            nx_labels = np.empty(lap.shape[0], dtype=np.int64)
            for k, comp in enumerate(nx.connected_components(ref)):
                nx_labels[list(comp)] = k
            assert np.array_equal(partition(labels), partition(nx_labels))
            if g is not None:
                assert is_connected(g) == (ncomp == 1)


class TestRandomWeights:
    def test_degenerate_range_gives_exact_ones(self):
        g = complete_graph(4)
        out = assign_random_weights(g, np.random.default_rng(0), 1.0, 1.0)
        assert (out.weights == 1.0).all()

    def test_seed_determinism(self):
        g = build_graph([(0, 1, 1), (0, 2, 1), (1, 2, 1)])
        w1 = assign_random_weights(g, np.random.default_rng(11), 0.5, 1.5)
        w2 = assign_random_weights(g, np.random.default_rng(11), 0.5, 1.5)
        assert np.array_equal(w1.weights, w2.weights)
        assert ((0.5 <= w1.weights) & (w1.weights <= 1.5)).all()

    def test_zero_low_rejected(self):
        g = complete_graph(3)
        with pytest.raises(InvalidRangeError):
            assign_random_weights(g, np.random.default_rng(0), 0.0, 1.0)

    def test_topology_unchanged(self):
        g = complete_graph(5)
        out = assign_random_weights(g, np.random.default_rng(2), 0.5, 1.5)
        assert np.array_equal(out.edges, g.edges)


class TestClustering:
    def test_star_center_is_zero(self):
        g = build_graph([(0, 1, 1), (0, 2, 1), (0, 3, 1)])
        assert local_clustering(g, 0) == 0.0

    def test_complete_graph_is_one(self):
        g = complete_graph(4)
        for i in range(4):
            assert local_clustering(g, i) == 1.0

    def test_k4_minus_edge_local(self):
        g = k4_minus_edge()
        # nodes 0, 1 keep degree 3 and sit on 2 of their 3 neighbor pairs
        assert local_clustering(g, 0) == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert local_clustering(g, 2) == 1.0

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRangeError):
            local_clustering(complete_graph(3), 7)

    def test_k4_global(self):
        assert global_clustering(complete_graph(4)).global_mean == 1.0

    def test_k4_minus_edge_global(self):
        report = global_clustering(k4_minus_edge())
        assert report.global_mean == pytest.approx(5.0 / 6.0, abs=1e-15)
        assert sorted(report.local.tolist()) == pytest.approx(
            [2 / 3, 2 / 3, 1.0, 1.0])

    def test_tree_global_is_zero(self):
        g = build_graph([(0, 1, 1), (1, 2, 1), (1, 3, 1), (3, 4, 1)])
        assert global_clustering(g).global_mean == 0.0

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            g = random_graph(rng, int(rng.integers(2, 50)), 0.2)
            report = global_clustering(g)
            assert report.global_mean == pytest.approx(
                brute_force_clustering(g), abs=1e-12)
            assert ((0.0 <= report.local) & (report.local <= 1.0)).all()

    def test_triangle_counts_match_triple_enumeration(self):
        rng = np.random.default_rng(29)
        graphs = [random_graph(rng, int(rng.integers(0, 40)), p)
                  for p in (0.05, 0.2, 0.5, 0.9) for _ in range(10)]
        graphs += [
            build_graph([], n=0),
            build_graph([(0, 1, 1), (1, 2, 1), (0, 2, 1)], n=6),  # isolated
            complete_graph(7),
            build_graph([(0, i, 1) for i in range(1, 9)]),  # star
        ]
        for g in graphs:
            triangles = global_clustering(g).triangles_per_node
            assert triangles.dtype == np.int64
            assert np.array_equal(triangles, brute_force_triangles(g))

    @pytest.mark.parametrize("l2", [1, 2, 3])
    def test_matches_networkx_on_generated_graphs(self, l2):
        # the measured side of criterion 3, at the criterion's own size
        nx = pytest.importorskip("networkx")
        g = generate_hk(HkParams(n=2000, links=10, triad_links=l2),
                        np.random.default_rng(40 + l2))
        ref = nx.Graph()
        ref.add_nodes_from(range(g.n))
        ref.add_edges_from(map(tuple, g.edges.tolist()))
        report = global_clustering(g)
        assert report.global_mean == pytest.approx(
            nx.average_clustering(ref), abs=1e-12)
        local = nx.clustering(ref)
        triangles = nx.triangles(ref)
        assert report.local == pytest.approx(
            [local[i] for i in range(g.n)], abs=1e-12)
        assert report.triangles_per_node.tolist() == [
            triangles[i] for i in range(g.n)]


class TestDegreeStats:
    def test_sum_is_twice_edges(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            g = random_graph(rng, int(rng.integers(2, 60)), 0.15)
            stats = degree_stats(g)
            assert stats.degrees.sum() == 2 * g.edge_count
            assert stats.average == pytest.approx(2 * g.edge_count / g.n)

    def test_histogram_k4(self):
        assert degree_histogram(complete_graph(4)) == {3: 4}

    def test_histogram_star(self):
        g = build_graph([(0, i, 1) for i in range(1, 5)])
        assert degree_histogram(g) == {1: 4, 4: 1}

    def test_slope_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            powerlaw_tail_slope({3: 4, 5: 2}, tail_start=3)

    def test_slope_on_exact_powerlaw(self):
        hist = {d: int(round(1e6 * d ** -3.0)) for d in range(5, 40)}
        slope = powerlaw_tail_slope(hist, tail_start=5)
        assert slope == pytest.approx(-3.0, abs=0.05)


class TestAnalyticPredictions:
    def test_ba_paper_point(self):
        # consistent with the reported 0.031 at n=1e4, 30 links
        assert predicted_c_ba(10000, 30) == pytest.approx(0.03075, abs=2e-4)

    def test_ba_single_link_is_zero(self):
        assert predicted_c_ba(10000, 1) == 0.0

    def test_ba_desk_point(self):
        assert predicted_c_ba(2000, 10) == pytest.approx(0.03250, abs=2e-4)

    def test_hk_paper_points(self):
        assert predicted_c_hk(10000, 30, 2, 57.2) == pytest.approx(0.1007, abs=1e-3)
        assert predicted_c_hk(10000, 30, 4, 56.2) == pytest.approx(0.1731, abs=1e-3)

    def test_hk_without_triads_reduces_to_ba(self):
        assert predicted_c_hk(10000, 30, 0, 57.2) == predicted_c_ba(10000, 30)

    def test_hk_precondition(self):
        with pytest.raises(PreconditionError):
            predicted_c_hk(10000, 30, 30, 57.2)

    def test_ba_precondition(self):
        with pytest.raises(PreconditionError):
            predicted_c_ba(1, 5)


class TestCycleHelper:
    def test_cycle_graph_shape(self):
        g = cycle_graph(5)
        assert g.edge_count == 5
        assert (degree_stats(g).degrees == 2).all()
