"""Property tests drawn by hypothesis (skipped where it is not installed).

Examples are capped and derandomized, so every run checks the same cases.
"""

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
from clustopt.graphs import (  # noqa: E402
    assign_random_weights,
    laplacian,
    laplacian_sparse,
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
    curvatures_at_optimum,
    dense_jacobian_rate,
    random_connected_graph,
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
@given(seed=st.integers(0, 2**32 - 1), extra=st.integers(1, 40),
       extra_p=st.floats(0.001, 0.01))
def test_lambda2_just_above_dense_limit_matches_eigvalsh(seed, extra, extra_p):
    """The LOBPCG lambda2 agrees with a dense symmetric eigensolve."""
    rng = np.random.default_rng(seed)
    g = assign_random_weights(
        random_connected_graph(rng, DENSE_LIMIT + extra, extra_p), rng)
    vals = np.linalg.eigvalsh(laplacian(g))
    assert abs(lambda2_laplacian(g) - vals[1]) <= 1e-8 * vals[-1]
