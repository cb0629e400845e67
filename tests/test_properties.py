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
from clustopt.graphs import assign_random_weights, laplacian_sparse  # noqa: E402
from helpers import random_connected_graph  # noqa: E402

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
