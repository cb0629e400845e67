"""Property tests drawn by hypothesis (skipped where it is not installed).

Examples are capped and derandomized, so every run checks the same cases.
"""

import json

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from clustopt.costs import sample_cost  # noqa: E402
from clustopt.dynamics import (  # noqa: E402
    NodeState,
    SimConfig,
    euler_step,
    stability_max_step,
)
from clustopt.generators import (  # noqa: E402
    RewireParams,
    rewire_increase_clustering,
)
from clustopt.graphs import (  # noqa: E402
    Graph,
    _triangles,
    assign_random_weights,
    is_connected,
    laplacian,
    laplacian_sparse,
)
from clustopt.montecarlo import (  # noqa: E402
    CostSpec,
    McConfig,
    TopologySpec,
    config_from_dict,
    config_to_dict,
)
from clustopt.spectral import (  # noqa: E402
    DENSE_LIMIT,
    RATE_DENSE_LIMIT,
    JacobianSpec,
    convergence_rate,
    default_zero_tol,
    lambda2_laplacian,
)
from helpers import (  # noqa: E402
    brute_force_clustering,
    brute_force_triangles,
    curvatures_at_optimum,
    dense_jacobian_rate,
    random_connected_graph,
    random_graph,
    weighted_scale_free,
)

EPS = np.finfo(np.float64).eps


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40),
       family=st.sampled_from(["quartic", "mlloss"]),
       h_frac=st.floats(0.01, 1.0), tracked=st.booleans())
def test_euler_step_keeps_tracking_total(seed, n, family, h_frac, tracked):
    """One step moves ``Σy − Σ∇f(x)`` by rounding only.

    The Laplacian terms telescope out of the totals and the tracker takes
    the exact gradient increment, so in exact arithmetic the difference is
    unchanged.  The bound is ``n·eps`` times the magnitudes summed.
    """
    rng = np.random.default_rng(seed)
    g = assign_random_weights(random_connected_graph(rng, n, 0.2), rng)
    model = sample_cost(family, n, rng, 5)
    x = rng.uniform(-5.0, 5.0, n)
    gx = model.gradient_nodes(x)
    y = gx.copy() if tracked else rng.uniform(-5.0, 5.0, n)
    state = NodeState(x=x, y=y)
    h = h_frac * stability_max_step(g, 1.0, model, state)
    out = euler_step(g, model, state, SimConfig(alpha=1.0, steps=1, h=h))
    gx_new = model.gradient_nodes(out.x)
    drift = (out.y.sum() - gx_new.sum()) - (y.sum() - gx.sum())
    scale = (np.abs(y).sum() + np.abs(out.y).sum() + np.abs(gx).sum()
             + np.abs(gx_new).sum()
             + h * (abs(laplacian_sparse(g)) @ np.abs(y)).sum())
    assert abs(drift) <= n * EPS * scale


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), extra=st.integers(1, 40),
       model=st.sampled_from(["ba", "hk"]),
       family=st.sampled_from(["quartic", "mlloss"]),
       alpha=st.sampled_from([1e-3, 1.0]))
def test_rate_just_above_dense_limit_matches_dense(seed, extra, model, family,
                                                   alpha):
    """The matrix-free rate agrees with a dense solve of the whole Jacobian."""
    rng = np.random.default_rng(seed)
    n = RATE_DENSE_LIMIT + extra
    g = weighted_scale_free(model, n, rng)
    h = curvatures_at_optimum(family, n, rng)
    lap = laplacian_sparse(g)
    rate = convergence_rate(JacobianSpec(lap, alpha, h))
    ref = dense_jacobian_rate(lap.toarray(), alpha, h, default_zero_tol(lap))
    assert abs(rate - ref) <= 1e-10 * abs(ref)


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), below=st.integers(0, 40),
       model=st.sampled_from(["ba", "hk"]),
       family=st.sampled_from(["quartic", "mlloss"]),
       alpha=st.sampled_from([1e-3, 1.0]), zero_sum=st.booleans())
def test_rate_just_below_dense_limit_matches_dense(seed, below, model, family,
                                                   alpha, zero_sum):
    """The shifted dense Jacobian gives the rate of the unshifted one, also
    where the curvatures sum to zero and the structural zero is defective."""
    rng = np.random.default_rng(seed)
    n = RATE_DENSE_LIMIT - below
    g = weighted_scale_free(model, n, rng)
    h = curvatures_at_optimum(family, n, rng)
    if zero_sum:
        h -= h.mean()
    lap = laplacian_sparse(g)
    rate = convergence_rate(JacobianSpec(lap, alpha, h))
    ref = dense_jacobian_rate(lap.toarray(), alpha, h, default_zero_tol(lap))
    assert abs(rate - ref) <= 1e-10 * abs(ref)


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), extra=st.integers(1, 40),
       extra_p=st.floats(0.001, 0.01))
def test_lambda2_just_above_dense_limit_matches_eigvalsh(seed, extra, extra_p):
    """The LOBPCG lambda2 agrees with a dense symmetric eigensolve."""
    rng = np.random.default_rng(seed)
    g = assign_random_weights(
        random_connected_graph(rng, DENSE_LIMIT + extra, extra_p), rng)
    vals = np.linalg.eigvalsh(laplacian(g))
    assert abs(lambda2_laplacian(g) - vals[1]) <= 1e-8 * vals[-1]


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 40),
       extra_p=st.floats(0.0, 0.3), raise_by=st.floats(1.05, 4.0),
       max_swaps=st.integers(0, 3000), interval=st.integers(1, 50))
def test_rewiring_keeps_degrees_weights_and_connectivity(
        seed, n, extra_p, raise_by, max_swaps, interval):
    """Rewiring moves edges only: degrees, edge count, the multiset of
    weights and connectivity hold, and ``final_c`` is the clustering of the
    returned graph by triple enumeration."""
    rng = np.random.default_rng(seed)
    g = assign_random_weights(random_connected_graph(rng, n, extra_p), rng)
    target = float(min(1.0, raise_by * max(brute_force_clustering(g), 0.01)))
    out, report = rewire_increase_clustering(
        g, RewireParams(target, max_swaps, interval), rng)
    assert np.array_equal(out.degrees(), g.degrees())
    assert out.edge_count == g.edge_count
    assert np.array_equal(np.sort(out.weights), np.sort(g.weights))
    assert is_connected(out)
    assert abs(report.final_c - brute_force_clustering(out)) <= 1e-12


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 30),
       p=st.floats(0.0, 1.0))
def test_graph_ignores_edge_order_and_orientation(seed, n, p):
    """A ``Graph`` is the same under any permutation of its edge list and
    any flip of its edges' endpoints, and so are its triangle counts."""
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n, p)
    g = Graph(n, g.edges, rng.uniform(0.5, 1.5, g.edge_count))
    perm = rng.permutation(g.edge_count)
    flip = rng.random(g.edge_count) < 0.5
    edges = g.edges[perm]
    edges[flip] = edges[flip, ::-1]
    h = Graph(n, edges, g.weights[perm])
    assert h == g
    assert np.array_equal(_triangles(h), brute_force_triangles(g))


_FLOAT = st.floats(-1e6, 1e6, allow_nan=False)
_SEED_SIZE = st.none() | st.integers(1, 50)
_TOPOLOGY = (
    st.builds(TopologySpec, label=st.text(max_size=8), model=st.just("ba"),
              n=st.integers(2, 10**4), links=st.integers(1, 20),
              seed_size=_SEED_SIZE)
    | st.builds(TopologySpec, label=st.text(max_size=8), model=st.just("hk"),
                n=st.integers(2, 10**4), links=st.integers(1, 20),
                triad_links=st.integers(0, 5), seed_size=_SEED_SIZE)
    | st.builds(TopologySpec, label=st.text(max_size=8), model=st.just("file"),
                path=st.text(min_size=1, max_size=12)))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(topologies=st.lists(_TOPOLOGY, min_size=1, max_size=3),
       family=st.sampled_from(["quartic", "mlloss"]), m=st.integers(1, 100),
       sim=st.builds(SimConfig, alpha=st.floats(1e-6, 1e3),
                     steps=st.integers(0, 10**6),
                     h=st.none() | st.floats(1e-9, 10.0),
                     record_stride=st.integers(1, 1000),
                     gap_tolerance=st.floats(0.0, 1.0),
                     x_init_range=st.tuples(_FLOAT, _FLOAT)),
       trials=st.integers(1, 10**4), base_seed=st.integers(0, 2**63 - 1),
       weight_range=st.tuples(_FLOAT, _FLOAT),
       resample_cost=st.sampled_from(["per_trial", "once"]))
def test_config_round_trips_through_json(topologies, family, m, sim, trials,
                                         base_seed, weight_range,
                                         resample_cost):
    """``config_from_dict(config_to_dict(c))`` returns ``c``, also with a
    JSON text in between, as ``clustopt mc`` reads it."""
    cfg = McConfig(tuple(topologies), CostSpec(family, m), sim, trials,
                   base_seed, weight_range, resample_cost)
    assert config_from_dict(config_to_dict(cfg)) == cfg
    assert config_from_dict(json.loads(json.dumps(config_to_dict(cfg)))) == cfg
