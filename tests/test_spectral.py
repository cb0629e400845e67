import time
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from clustopt import spectral
from clustopt.errors import (
    AllZeroError,
    ConvergenceError,
    DimensionMismatchError,
    InvalidParamsError,
    NotSymmetricError,
    SizeLimitError,
)
from clustopt.generators import BaParams, HkParams, generate_ba, generate_hk
from clustopt.graphs import (
    Graph,
    assign_random_weights,
    build_graph,
    laplacian,
    laplacian_sparse,
    union_laplacian,
)
from clustopt.spectral import (
    DENSE_LIMIT,
    LOBPCG_MIN_ORDER,
    RATE_DENSE_LIMIT,
    JacobianSpec,
    build_jacobian,
    convergence_rate,
    default_zero_tol,
    eig_general,
    eig_symmetric,
    lambda2_blocks,
    lambda2_laplacian,
    spectral_report,
)
from helpers import (
    GROWTH_SWEEP,
    complete_graph,
    curvatures_at_optimum,
    cycle_graph,
    dense_jacobian_rate,
    grow_case,
    jacobi_eigenvalues,
    random_connected_graph,
    weighted_scale_free,
)


class TestEigSolvers:
    def test_identity(self):
        assert eig_symmetric(np.eye(3)).tolist() == [1.0, 1.0, 1.0]

    def test_rotation_generator(self):
        vals = eig_general(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        assert sorted(vals.imag.tolist()) == pytest.approx([-1.0, 1.0], abs=1e-12)
        assert vals.real == pytest.approx([0.0, 0.0], abs=1e-12)

    def test_not_symmetric_rejected(self):
        with pytest.raises(NotSymmetricError):
            eig_symmetric(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_size_cap(self):
        with pytest.raises(SizeLimitError):
            eig_symmetric(np.eye(5), size_cap=4)
        with pytest.raises(SizeLimitError):
            eig_general(np.eye(5), size_cap=4)

    def test_against_jacobi_oracle(self):
        rng = np.random.default_rng(19)
        m = rng.standard_normal((50, 50))
        m = m + m.T
        assert eig_symmetric(m) == pytest.approx(jacobi_eigenvalues(m), abs=1e-8)


@pytest.fixture(scope="module", params=[
    pytest.param(5397402447185522238, id="spectrum-seed58-op1"),
    pytest.param(1435521877459735739, id="spectrum-seed57-op7")])
def clustered_hk(request):
    """A weighted HK graph (n = 3000, links=6, L2 = 1) grown and weighted as
    the ``spectrum`` benchmark does, and its dense Laplacian spectrum.
    lambda3 lies 0.6% above lambda2, where LOBPCG with one vector stalls
    (the first) or needs 20 s (the second)."""
    rng = np.random.default_rng(request.param)
    g = assign_random_weights(generate_hk(HkParams(3000, 6, 1), rng), rng)
    return g, np.linalg.eigvalsh(laplacian(g))


@pytest.mark.filterwarnings("error")  # no solver warning may escape
class TestLambda2:
    @pytest.mark.parametrize("n", [4, 10, 25, 50, DENSE_LIMIT + 100])
    def test_complete_graph(self, n):
        assert lambda2_laplacian(complete_graph(n)) == pytest.approx(n, abs=1e-8)

    @pytest.mark.parametrize("n", [4, 7, 16, 50, DENSE_LIMIT + 100])
    def test_cycle(self, n):
        expected = 2.0 - 2.0 * np.cos(2.0 * np.pi / n)
        assert lambda2_laplacian(cycle_graph(n)) == pytest.approx(expected, abs=1e-8)

    def test_disconnected_is_zero(self):
        g = build_graph([(0, 1, 1), (2, 3, 1)], n=4)
        assert lambda2_laplacian(g) == 0.0

    def test_positive_iff_connected(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            g = random_connected_graph(rng, int(rng.integers(4, 30)))
            lam2 = lambda2_laplacian(g)
            assert 0.0 < lam2 <= g.n
            if g.edge_count < g.n * (g.n - 1) // 2:
                assert lam2 < g.n  # the bound is tight only on complete graphs

    def test_sparse_path_matches_dense(self):
        # above the dense cutoff the LOBPCG path must agree with a direct solve
        rng = np.random.default_rng(55)
        g = random_connected_graph(rng, 2100, extra_p=0.002)
        lam2 = lambda2_laplacian(g)
        dense = np.sort(np.linalg.eigvalsh(laplacian(g)))[1]
        assert lam2 == pytest.approx(dense, rel=1e-8, abs=1e-10)

    def test_sparse_path_isolated_nodes_give_exact_zero(self):
        g = generate_ba(BaParams(DENSE_LIMIT + 100, 4), np.random.default_rng(3))
        g = Graph(g.n + 5, g.edges, g.weights)  # five isolated nodes
        assert lambda2_laplacian(g) == 0.0

    def test_sparse_path_bridged_halves_match_dense(self):
        # one bridge between two BA halves: lambda2 sits far below the bulk
        rng = np.random.default_rng(8)
        half = DENSE_LIMIT // 2 + 50
        a = generate_ba(BaParams(half, 4), rng)
        b = generate_ba(BaParams(half, 4), rng)
        edges = np.vstack([a.edges, b.edges + half, [[0, half]]])
        g = assign_random_weights(
            Graph(2 * half, edges, np.ones(len(edges))), rng)
        vals = np.linalg.eigvalsh(laplacian(g))
        assert abs(lambda2_laplacian(g) - vals[1]) <= 1e-8 * vals[-1]

    @pytest.mark.parametrize("n, seed", [(900, 0), (820, 56)])
    def test_sparse_path_weighted_chain_matches_dense(self, n, seed):
        # weights spread over e^6 make a path the slowest graph measured:
        # the first needs 11.3 iterations per node, and the second's updated
        # product drifts above the tolerance where it reads converged
        w = np.exp(np.random.default_rng(seed).uniform(-3.0, 3.0, n - 1))
        g = Graph(n, np.column_stack((np.arange(n - 1), np.arange(1, n))), w)
        vals = np.linalg.eigvalsh(laplacian(g))
        assert abs(lambda2_laplacian(g) - vals[1]) <= 1e-8 * vals[-1]

    def test_clustered_scale_free_matches_dense(self, clustered_hk):
        g, vals = clustered_hk
        assert abs(lambda2_laplacian(g) - vals[1]) <= 1e-8 * vals[-1]

    def test_sparse_path_repeats_bit_for_bit(self):
        rng = np.random.default_rng(62)
        g = weighted_scale_free("hk", 900, rng)
        first = lambda2_laplacian(g)
        lambda2_laplacian(weighted_scale_free("ba", 900, rng))
        assert lambda2_laplacian(Graph(g.n, g.edges, g.weights)) == first

    @staticmethod
    def _cholesky_fails_from(monkeypatch, order):
        cholesky = np.linalg.cholesky

        def failing(m):  # m is a stack of Gram matrices, one per block
            if m.shape[-1] >= order:
                raise np.linalg.LinAlgError("Matrix is not positive definite")
            return cholesky(m)

        monkeypatch.setattr(spectral.np.linalg, "cholesky", failing)

    def test_sparse_path_drops_p_when_gram_not_positive_definite(
            self, monkeypatch):
        g = weighted_scale_free("hk", DENSE_LIMIT + 100,
                                np.random.default_rng(63))
        vals = np.linalg.eigvalsh(laplacian(g))
        self._cholesky_fails_from(monkeypatch, 6)
        assert abs(lambda2_laplacian(g) - vals[1]) <= 1e-8 * vals[-1]

    def test_sparse_path_basis_without_p_not_positive_definite_raises(
            self, monkeypatch):
        self._cholesky_fails_from(monkeypatch, 4)
        with pytest.raises(ConvergenceError, match="lost rank"):
            lambda2_laplacian(cycle_graph(DENSE_LIMIT + 100))

    def test_sparse_path_iteration_cap_raises(self, monkeypatch):
        n = DENSE_LIMIT + 100
        monkeypatch.setattr(spectral, "LOBPCG_ITERS_PER_NODE", 5 / n)
        with pytest.raises(ConvergenceError):
            lambda2_laplacian(cycle_graph(n))

    @pytest.mark.parametrize("model", ["ba", "hk"])
    def test_matches_networkx_on_generated_graphs(self, model):
        nx = pytest.importorskip("networkx")
        rng = np.random.default_rng(60 if model == "ba" else 61)
        g = (generate_ba(BaParams(3000, 6), rng) if model == "ba"
             else generate_hk(HkParams(3000, 6, 1), rng))
        g = assign_random_weights(g, rng)
        ref = nx.Graph()
        ref.add_nodes_from(range(g.n))
        ref.add_weighted_edges_from(
            zip(g.edges[:, 0].tolist(), g.edges[:, 1].tolist(),
                g.weights.tolist()))
        expected = nx.algebraic_connectivity(
            ref, weight="weight", method="tracemin_lu", tol=1e-10, seed=0)
        lam_max = spla.eigsh(laplacian_sparse(g), k=1, which="LA",
                             return_eigenvectors=False)[0]
        assert abs(lambda2_laplacian(g) - expected) <= 1e-8 * lam_max


def _blocks(graphs: list[Graph]) -> list:
    """``lambda2_blocks`` of graphs of one order."""
    return lambda2_blocks(graphs[0].n, [(g.edges, g.weights) for g in graphs])


@pytest.mark.filterwarnings("error")  # no solver warning may escape
class TestStackedLambda2:
    """``lambda2_blocks`` solves graphs of one order as one LOBPCG stack;
    each value has the bits of its graph solved alone."""

    N = 500

    @pytest.fixture(scope="class")
    def graphs(self):
        rng = np.random.default_rng(70)
        return [weighted_scale_free("hk" if i % 2 else "ba", self.N, rng)
                for i in range(20)]

    def test_stack_matches_lone_bit_for_bit(self, graphs):
        assert self.N > DENSE_LIMIT
        stacked = _blocks(graphs)
        for g, lam2 in zip(graphs, stacked):
            vals = np.linalg.eigvalsh(laplacian(g))
            assert lam2 == lambda2_laplacian(g)
            assert abs(lam2 - vals[1]) <= 1e-12 * 2 * g.weighted_degrees().max()

    def test_failed_blocks_fail_alone(self, graphs, monkeypatch):
        """In one stack a weighted path reaches the iteration cap, one graph's
        basis loses rank and a split path is disconnected; every other graph
        keeps its lone value."""
        n = self.N
        w = np.exp(np.random.default_rng(71).uniform(-3.0, 3.0, n - 1))
        path = Graph(n, np.column_stack((np.arange(n - 1), np.arange(1, n))), w)
        split = Graph(n, path.edges[1:], path.weights[1:])
        lone = [lambda2_laplacian(g) for g in graphs[:4]]
        cholesky, grams = np.linalg.cholesky, []
        monkeypatch.setattr(spectral.np.linalg, "cholesky",
                            lambda m: grams.append(m.copy()) or cholesky(m))
        lambda2_laplacian(graphs[1])
        # the second Gram matrix, of X and W: every block starts from the
        # same X, so the first is the same in all of them
        lost = grams[1][0]

        def failing(m):
            if any(np.array_equal(g, lost) for g in m.reshape(-1, *m.shape[-2:])):
                raise np.linalg.LinAlgError("Matrix is not positive definite")
            return cholesky(m)

        monkeypatch.setattr(spectral.np.linalg, "cholesky", failing)
        monkeypatch.setattr(spectral, "LOBPCG_ITERS_PER_NODE", 400 / n)
        with pytest.raises(ConvergenceError, match="lost rank"):
            lambda2_laplacian(graphs[1])
        got = _blocks([graphs[0], graphs[1], path, graphs[2], split, graphs[3]])
        assert [got[0], got[3], got[5]] == [lone[0], lone[2], lone[3]]
        assert got[4] == 0.0
        assert isinstance(got[1], ConvergenceError)
        assert "lost rank" in str(got[1])
        assert isinstance(got[2], ConvergenceError)
        assert "after 400 iterations" in str(got[2])


class TestStackMemory:
    """The stacked solve holds one union Laplacian: every block that leaves
    it is cut out in place, and its components come without scipy's
    transposed copy."""

    def test_stack_peak_within_bound_of_its_union(self):
        """20 weighted HK graphs (n = 500, links=6, L2 = 1): the traced
        peak, union included, stays under 2.6 times the union's bytes.
        A second copy of the union would take it above 3."""
        rng = np.random.default_rng(90)
        parts = []
        for _ in range(20):
            g = assign_random_weights(generate_hk(HkParams(500, 6, 1), rng), rng)
            parts.append((g.edges.astype(np.int32), g.weights))
        union = union_laplacian(500, parts)
        size = union.data.nbytes + union.indices.nbytes + union.indptr.nbytes
        del union
        tracemalloc.start()
        try:
            got = lambda2_blocks(500, parts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(isinstance(v, float) and v > 0 for v in got)
        assert peak < 2.6 * size

    def test_lone_graph_keeps_its_laplacian(self):
        """The one-graph routes solve on the graph's cached Laplacian and
        never cut it."""
        g = weighted_scale_free("hk", DENSE_LIMIT + 150, np.random.default_rng(91))
        lap = laplacian_sparse(g)
        before = [a.copy() for a in (lap.data, lap.indices, lap.indptr)]
        lambda2_laplacian(g)
        spectral_report(g, 1.0)
        convergence_rate(JacobianSpec(lap, 1.0, np.zeros(g.n)))
        assert laplacian_sparse(g) is lap
        for a, b in zip((lap.data, lap.indices, lap.indptr), before):
            assert a.tobytes() == b.tobytes()


@pytest.mark.filterwarnings("error")  # no solver warning may escape
class TestLobpcgFloor:
    """``lambda2_blocks`` solves graphs by one stacked LOBPCG run from
    LOBPCG_MIN_ORDER up, for any number of graphs, and each by dsyevr below
    it, where the block-2 basis loses rank on small graphs."""

    @pytest.mark.parametrize("n", range(2, LOBPCG_MIN_ORDER + 5))
    def test_small_orders_match_eigvalsh(self, n, monkeypatch):
        rng = np.random.default_rng(n)
        links = max(1, min(4, n // 3))
        path = np.column_stack((np.arange(n - 1), np.arange(1, n)))
        graphs = []
        for i in range(24):  # weighted BA, HK and paths, in turn
            edges = [generate_ba(BaParams(n, links), rng).edges,
                     generate_hk(HkParams(n, links, min(1, links - 1)),
                                 rng).edges, path][i % 3]
            w = (rng.uniform(0.5, 1.5, len(edges)) if i % 2
                 else np.exp(rng.uniform(-3.0, 3.0, len(edges))))
            graphs.append(Graph(n, edges, w))
        eigvalsh, dense = spectral.sla.eigvalsh, []
        monkeypatch.setattr(spectral.sla, "eigvalsh",
                            lambda *a, **k: dense.append(1) or eigvalsh(*a, **k))
        got = _blocks(graphs)
        assert bool(dense) == (n < LOBPCG_MIN_ORDER)
        for g, lam2 in zip(graphs, got):
            assert isinstance(lam2, float)
            vals = np.linalg.eigvalsh(laplacian(g))
            assert abs(lam2 - vals[1]) <= 1e-12 * 2 * g.weighted_degrees().max()

    def test_zero_basis_row_fails_its_block_below_the_floor(self):
        """Direct stacks at n = 8, below the floor: a block whose basis
        holds a zero row fails alone, with no warning and no LinAlgError
        for the whole stack."""
        n, links, m = 8, 2, 40
        path = np.column_stack((np.arange(n - 1), np.arange(1, n)))
        for seed in range(50):
            rng = np.random.default_rng(seed)
            parts = []
            for i in range(m):  # weighted BA, HK and paths, in turn
                edges = [generate_ba(BaParams(n, links), rng).edges,
                         generate_hk(HkParams(n, links, 1), rng).edges,
                         path][i % 3]
                parts.append((edges, rng.uniform(0.5, 1.5, len(edges)) if i % 2
                              else np.exp(rng.uniform(-3.0, 3.0, len(edges)))))
            got = spectral._lobpcg(union_laplacian(n, parts), m,
                                   np.arange(m).repeat(n), np.full(m, n))
            assert all(isinstance(v, (float, ConvergenceError)) for v in got)

    def test_one_graph_below_dense_limit_is_lobpcg(self, no_dense):
        g = weighted_scale_free("hk", 300, np.random.default_rng(34))
        assert 300 <= DENSE_LIMIT
        (lam2,) = _blocks([g])
        vals = np.linalg.eigvalsh(laplacian(g))
        assert abs(lam2 - vals[1]) <= 1e-12 * 2 * g.weighted_degrees().max()


@pytest.mark.filterwarnings("error")  # no solver warning may escape
class TestDenseGap:
    """Up to DENSE_LIMIT the Laplacian gap is one LAPACK eigenvalue."""

    def test_two_components_and_isolated_nodes_match_eigvalsh(self):
        rng = np.random.default_rng(32)
        a = weighted_scale_free("ba", 150, rng)
        b = weighted_scale_free("hk", 120, rng)
        g = Graph(273, np.vstack([a.edges, b.edges + 150]),
                  np.concatenate([a.weights, b.weights]))
        lap = laplacian_sparse(g)
        rate = convergence_rate(JacobianSpec(lap, 1.0, np.zeros(g.n)))
        vals = np.linalg.eigvalsh(lap.toarray())
        assert abs(rate - vals[5]) <= 1e-12 * vals[-1]
        assert vals[4] <= 1e-12 * vals[-1]
        assert lambda2_laplacian(g) == 0.0

    @pytest.mark.parametrize("sparse", [False, True])
    def test_non_symmetric_laplacian_rejected(self, sparse):
        lap = laplacian(complete_graph(5))
        lap[0, 1] += 1e-6
        lap = sp.csr_matrix(lap) if sparse else lap
        with pytest.raises(NotSymmetricError):
            convergence_rate(JacobianSpec(lap, 1.0, np.zeros(5)))

    @pytest.mark.parametrize(
        "case", [c for c in GROWTH_SWEEP if 1 < c[0] <= DENSE_LIMIT], ids=str)
    def test_matches_eigvalsh_on_grown_graphs(self, case):
        rng = np.random.default_rng(case[-1])
        g = assign_random_weights(grow_case(case, rng), rng)
        vals = np.linalg.eigvalsh(laplacian(g))
        assert abs(lambda2_laplacian(g) - vals[1]) <= 1e-12 * vals[-1]


class TestJacobian:
    def test_single_node(self):
        spec = JacobianSpec(laplacian=np.zeros((1, 1)), alpha=0.5,
                            hessian_diag=np.array([2.0]))
        jac = build_jacobian(spec)
        assert jac.tolist() == [[0.0, -0.5], [0.0, -1.0]]
        vals = np.sort(eig_general(jac).real)
        assert vals == pytest.approx([-1.0, 0.0], abs=1e-14)

    def test_zero_curvature_doubles_laplacian_spectrum(self):
        rng = np.random.default_rng(3)
        g = random_connected_graph(rng, 12)
        lap = laplacian(g)
        spec = JacobianSpec(laplacian=lap, alpha=0.7,
                            hessian_diag=np.zeros(12))
        vals = np.sort(eig_general(build_jacobian(spec)).real)
        expected = np.sort(np.concatenate([-eig_symmetric(lap)] * 2))
        # defective pairs smear by ~sqrt(backward error); tolerance reflects it
        assert vals == pytest.approx(expected, abs=5e-6)
        assert np.abs(eig_general(build_jacobian(spec)).imag).max() < 5e-6

    def test_alpha_continuity(self):
        rng = np.random.default_rng(4)
        g = random_connected_graph(rng, 8)
        lap = laplacian(g)
        h = rng.uniform(0.5, 2.0, 8)
        base = np.sort(np.concatenate([-eig_symmetric(lap)] * 2))
        for alpha in (1e-4, 1e-6):
            spec = JacobianSpec(laplacian=lap, alpha=alpha, hessian_diag=h)
            vals = np.sort(eig_general(build_jacobian(spec)).real)
            assert np.abs(vals - base).max() < 50 * np.sqrt(alpha)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            JacobianSpec(laplacian=np.zeros((3, 3)), alpha=1.0,
                         hessian_diag=np.zeros(2))

    def test_alpha_must_be_positive(self):
        with pytest.raises(InvalidParamsError):
            JacobianSpec(laplacian=np.zeros((2, 2)), alpha=0.0,
                         hessian_diag=np.zeros(2))

    def test_consensus_direction_is_structural_zero(self):
        rng = np.random.default_rng(9)
        for alpha in (1e-4, 1.0):
            g = random_connected_graph(rng, 10)
            lap = laplacian(g)
            h = rng.uniform(0.0, 3.0, 10)
            jac = build_jacobian(JacobianSpec(lap, alpha, h))
            null_dir = np.concatenate([np.ones(10), np.zeros(10)])
            assert np.abs(jac @ null_dir).max() <= 1e-12 * (1 + np.abs(jac).max())

    def test_near_zero_eigenvalue_exists_without_curvature(self):
        # small alpha keeps the defective zero pair inside the tolerance
        rng = np.random.default_rng(21)
        for _ in range(5):
            g = random_connected_graph(rng, int(rng.integers(4, 16)))
            lap = laplacian(g)
            spec = JacobianSpec(lap, 1e-4, np.zeros(g.n))
            vals = eig_general(build_jacobian(spec))
            assert np.abs(vals.real).min() < default_zero_tol(lap)


class TestConvergenceRate:
    def test_zero_curvature_equals_lambda2(self):
        rng = np.random.default_rng(101)
        for _ in range(20):
            n = int(rng.integers(4, 30))
            g = random_connected_graph(rng, n)
            spec = JacobianSpec(laplacian=laplacian(g), alpha=1.0,
                                hessian_diag=np.zeros(n))
            assert convergence_rate(spec) == pytest.approx(
                lambda2_laplacian(g), abs=1e-8)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(7)
        g = random_connected_graph(rng, 15)
        h = rng.uniform(0.0, 30.0, 15)
        lap = laplacian(g)
        rate = convergence_rate(JacobianSpec(lap, 0.01, h))
        perm = rng.permutation(15)
        lap_p = lap[np.ix_(perm, perm)]
        rate_p = convergence_rate(JacobianSpec(lap_p, 0.01, h[perm]))
        assert rate_p == pytest.approx(rate, abs=1e-8)

    def test_positive_for_connected_quartic_like_curvatures(self):
        rng = np.random.default_rng(13)
        g = random_connected_graph(rng, 20)
        h = rng.uniform(0.0, 30.0, 20)
        rate = convergence_rate(JacobianSpec(laplacian(g), 0.001, h))
        assert rate > 0

    def test_all_zero_raises(self):
        # edgeless single node with zero curvature has only the structural zero
        spec = JacobianSpec(laplacian=np.zeros((1, 1)), alpha=1.0,
                            hessian_diag=np.zeros(1))
        with pytest.raises(AllZeroError):
            convergence_rate(spec)

    def test_zero_tol_validation(self):
        spec = JacobianSpec(laplacian=np.eye(2) - 0.5, alpha=1.0,
                            hessian_diag=np.zeros(2))
        with pytest.raises(InvalidParamsError):
            convergence_rate(spec, zero_tol=0.0)

    def test_default_zero_tol_scales_with_norm(self):
        lap = laplacian(complete_graph(5))
        assert default_zero_tol(lap) == pytest.approx(1e-9 * (1 + 8.0))
        assert default_zero_tol(sp.csr_matrix(lap)) == default_zero_tol(lap)

    def test_sparse_spec_below_limit_matches_dense_spec(self):
        rng = np.random.default_rng(17)
        g = assign_random_weights(random_connected_graph(rng, 40), rng)
        h = rng.uniform(0.5, 3.0, g.n)
        dense = convergence_rate(JacobianSpec(laplacian(g), 0.01, h))
        for lap in (laplacian_sparse(g), sp.csr_array(laplacian(g))):
            assert convergence_rate(JacobianSpec(lap, 0.01, h)) == dense


@pytest.mark.filterwarnings("error")  # no solver warning may escape
class TestMatrixFreeRate:
    """Above RATE_DENSE_LIMIT the rate comes from ARPACK on a sparse operator;
    each case is checked against a dense solve of the whole Jacobian."""

    @staticmethod
    def _check(g: Graph, alpha: float, h: np.ndarray) -> float:
        lap = laplacian_sparse(g)
        rate = convergence_rate(JacobianSpec(lap, alpha, h))
        ref = dense_jacobian_rate(lap.toarray(), alpha, h,
                                  default_zero_tol(lap))
        assert abs(rate - ref) <= 1e-10 * abs(ref)
        return rate

    @pytest.mark.parametrize("alpha", [1e-3, 1.0])
    @pytest.mark.parametrize("family", ["quartic", "mlloss"])
    @pytest.mark.parametrize("model", ["ba", "hk"])
    def test_matches_dense_oracle(self, model, family, alpha):
        n = RATE_DENSE_LIMIT + 50
        rng = np.random.default_rng([n, len(model), len(family), int(alpha)])
        g = weighted_scale_free(model, n, rng)
        self._check(g, alpha, curvatures_at_optimum(family, n, rng))

    def test_rewire_shape_slow_mode(self):
        # HK at n = 800, mlloss, alpha = 1e-3: the rate is a slow mode at
        # about alpha times the mean curvature, far right of the Laplacian bulk
        rng = np.random.default_rng(800)
        g = assign_random_weights(generate_hk(HkParams(800, 6, 1), rng), rng)
        h = curvatures_at_optimum("mlloss", g.n, rng)
        rate = self._check(g, 1e-3, h)
        assert rate == pytest.approx(1e-3 * h.mean(), rel=1e-6)
        assert rate < 0.5 * lambda2_laplacian(g)

    def test_two_components(self):
        rng = np.random.default_rng(12)
        half = RATE_DENSE_LIMIT // 2 + 40
        a = weighted_scale_free("ba", half, rng)
        b = weighted_scale_free("hk", half, rng)
        g = Graph(2 * half, np.vstack([a.edges, b.edges + half]),
                  np.concatenate([a.weights, b.weights]))
        self._check(g, 1e-3, curvatures_at_optimum("quartic", g.n, rng))

    def test_more_components_than_arnoldi_k(self):
        # each isolated node adds a structural zero; every component's zero
        # is shifted away, so the k rightmost values are never all zeros
        rng = np.random.default_rng(13)
        g = weighted_scale_free("hk", RATE_DENSE_LIMIT + 20, rng)
        g = Graph(g.n + 2 * spectral.ARNOLDI_K, g.edges, g.weights)
        self._check(g, 1.0, rng.uniform(0.5, 3.0, g.n))

    def test_zero_curvature_sum_runs_arpack(self, monkeypatch):
        # the zero of a component whose curvatures sum to zero is defective;
        # the shift by the component mean of x is defined all the same
        rng = np.random.default_rng(14)
        g = weighted_scale_free("ba", RATE_DENSE_LIMIT + 50, rng)
        h = rng.uniform(-1.0, 1.0, g.n)
        h -= h.mean()
        assert h.any() and abs(h.sum()) <= 1e-12 * np.abs(h).sum()

        def no_dense(*args, **kwargs):
            raise AssertionError("dense solve above RATE_DENSE_LIMIT")

        monkeypatch.setattr(spectral, "eig_general", no_dense)
        self._check(g, 1e-3, h)

    def test_reruns_are_bit_identical(self):
        rng = np.random.default_rng(15)
        g = weighted_scale_free("hk", RATE_DENSE_LIMIT + 50, rng)
        h = curvatures_at_optimum("quartic", g.n, rng)
        rates = {convergence_rate(JacobianSpec(laplacian_sparse(g), 1.0, h))
                 for _ in range(3)}
        assert len(rates) == 1

    def test_iteration_cap_raises(self, monkeypatch):
        n = RATE_DENSE_LIMIT + 50
        rng = np.random.default_rng(16)
        g = weighted_scale_free("hk", n, rng)
        h = curvatures_at_optimum("mlloss", n, rng)
        monkeypatch.setattr(spectral, "ARNOLDI_RESTARTS_PER_NODE", 1 / n)
        with pytest.raises(ConvergenceError):
            convergence_rate(JacobianSpec(laplacian_sparse(g), 1.0, h))

    def test_size_cap_checked_before_allocation(self):
        n = 10_001  # Jacobian order 2n = 20002 > DEFAULT_SIZE_CAP
        e = np.column_stack((np.arange(n - 1), np.arange(1, n)))
        g = Graph(n, e, np.ones(n - 1))
        spec = JacobianSpec(laplacian_sparse(g), 1e-3, np.ones(n))
        t0 = time.process_time()
        with pytest.raises(SizeLimitError):
            convergence_rate(spec)
        assert time.process_time() - t0 < 0.5


@pytest.fixture
def no_dense(monkeypatch):
    def raise_(*args, **kwargs):
        raise AssertionError("dense Laplacian gap solve")

    monkeypatch.setattr(spectral.sla, "eigvalsh", raise_)


@pytest.mark.filterwarnings("error")  # no solver warning may escape
@pytest.mark.usefixtures("no_dense")
class TestZeroCurvatureRate:
    """With all curvatures zero the rate is the Laplacian gap; above
    DENSE_LIMIT it comes from LOBPCG, never from a dense solve."""

    def test_connected_equals_lambda2(self):
        rng = np.random.default_rng(30)
        g = weighted_scale_free("hk", DENSE_LIMIT + 100, rng)
        spec = JacobianSpec(laplacian_sparse(g), 1.0, np.zeros(g.n))
        assert convergence_rate(spec) == lambda2_laplacian(g)

    def test_two_components_match_eigvalsh(self):
        # three isolated nodes as well: the gap skips every structural zero
        rng = np.random.default_rng(31)
        half = DENSE_LIMIT // 2 + 50
        a = weighted_scale_free("ba", half, rng)
        b = weighted_scale_free("hk", half, rng)
        g = Graph(2 * half + 3, np.vstack([a.edges, b.edges + half]),
                  np.concatenate([a.weights, b.weights]))
        lap = laplacian_sparse(g)
        rate = convergence_rate(JacobianSpec(lap, 1.0, np.zeros(g.n)))
        vals = np.linalg.eigvalsh(lap.toarray())
        assert abs(rate - vals[5]) <= 1e-8 * vals[-1]
        assert vals[4] <= 1e-12 * vals[-1]

    def test_many_components_match_eigvalsh_in_vector_memory(self):
        # 250 weighted trees of 2-8 nodes: the constraint is per-component
        # means, not an n x ncomp indicator block
        rng = np.random.default_rng(7)
        edges, start = [], 0
        for _ in range(250):
            size = int(rng.integers(2, 9))
            edges += [(start + int(rng.integers(0, v)), start + v)
                      for v in range(1, size)]
            start += size
        g = Graph(start, np.array(edges), rng.uniform(0.5, 1.5, len(edges)))
        assert g.n > DENSE_LIMIT
        spec = JacobianSpec(laplacian_sparse(g), 1.0, np.zeros(g.n))
        tracemalloc.start()
        try:
            rate = convergence_rate(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        vals = np.linalg.eigvalsh(laplacian(g))
        assert abs(rate - vals[250]) <= 1e-8 * vals[-1]
        assert vals[249] <= 1e-12 * vals[-1]
        assert peak < g.n * 250 * 8 / 4


def _outcome(fn):
    try:
        return fn()
    except Exception as exc:  # the oracle compares the raised error too
        return type(exc), str(exc)


class TestSpectralReport:
    @pytest.mark.parametrize("case", ["dense", "sparse", "disconnected",
                                      "single", "empty", "edgeless"])
    def test_one_gap_solve_without_curvatures(self, monkeypatch, case):
        """Values and errors are those of ``lambda2_laplacian`` and the
        zero-curvature ``convergence_rate``, from one Laplacian gap solve."""
        rng = np.random.default_rng(3)
        g = {
            "dense": lambda: weighted_scale_free("hk", 200, rng),
            "sparse": lambda: weighted_scale_free("ba", DENSE_LIMIT + 100, rng),
            "disconnected": lambda: build_graph(
                [(0, 1, 1.0), (1, 2, 2.0), (3, 4, 0.5)], n=5),
            "single": lambda: build_graph([], n=1),
            "empty": lambda: build_graph([], n=0),
            "edgeless": lambda: build_graph([], n=4),
        }[case]()
        want = _outcome(lambda: (
            lambda2_laplacian(g),
            convergence_rate(JacobianSpec(laplacian_sparse(g), 0.7,
                                          np.zeros(g.n)))))
        calls = []
        gap = spectral._laplacian_gap
        monkeypatch.setattr(spectral, "_laplacian_gap",
                            lambda *a: calls.append(1) or gap(*a))
        got = _outcome(lambda: spectral_report(g, 0.7))
        if isinstance(got, spectral.SpectralReport):
            got = (got.lambda2_laplacian, got.rate)
        assert got == want
        assert len(calls) == 1

    def test_report_with_zero_curvature(self):
        g = complete_graph(6)
        report = spectral_report(g, alpha=0.5)
        assert report.lambda2_laplacian == pytest.approx(6.0, abs=1e-8)
        assert report.rate == pytest.approx(6.0, abs=1e-8)
        assert report.n == 6
        assert report.alpha == 0.5
