"""Explicit-Euler execution of the gradient-tracking dynamics.

Each node holds an optimization state ``x_i`` and an auxiliary tracker
``y_i`` and integrates

    x+ = x + h * (-Lap x - alpha * y)
    y+ = y + h * (-Lap y) + (grad f(x+) - grad f(x))

The time derivative of the local gradient is discretized as the exact
gradient increment between successive iterates, which makes the tracking
conservation law ``sum(y) == sum(grad f(x))`` hold exactly in discrete time
(the symmetric Laplacian's columns sum to zero, so the consensus terms
telescope out of the totals).

Trackers start at the local gradients, ``y(0) = grad f(x(0))``, so the
conserved total is zero and the consensus fixed point sits exactly at the
aggregate optimum.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .costs import CostModel, aggregate_optimum
from .errors import DimensionMismatchError, DisconnectedError, DivergenceError, InvalidParamsError
from .graphs import Graph, is_connected, laplacian_sparse


@dataclass(frozen=True)
class SimConfig:
    """Integration parameters for one optimization run.

    ``h = None`` selects half the step-size bound from
    :func:`stability_max_step` at the initial state.  ``gap_tolerance = 0``
    disables early stopping.
    """

    alpha: float
    steps: int
    h: float | None = None
    record_stride: int = 1
    gap_tolerance: float = 0.0
    x_init_range: tuple[float, float] = (-5.0, 5.0)

    def validate(self) -> None:
        if not self.alpha > 0:
            raise InvalidParamsError(f"alpha must be > 0, got {self.alpha}")
        if self.h is not None and not self.h > 0:
            raise InvalidParamsError(f"h must be > 0, got {self.h}")
        if self.steps < 0 or self.record_stride < 1 or self.gap_tolerance < 0:
            raise InvalidParamsError("steps >= 0, record_stride >= 1, gap_tolerance >= 0")
        r = self.x_init_range
        if not (len(r) == 2 and all(isinstance(v, numbers.Real) for v in r)
                and r[0] <= r[1]):
            raise InvalidParamsError(f"bad x_init_range {list(r)}")


@dataclass
class NodeState:
    x: np.ndarray
    y: np.ndarray


@dataclass
class TrialTrace:
    """Time series recorded along one run.

    ``gap`` is the aggregate cost at the node average minus the optimal
    cost; ``lyapunov`` is half the squared distance of (x, y) from the
    optimal consensus point; ``tracking_residual`` is the drift of the
    conservation law.  ``max_tracking_residual`` and ``max_abs_gradient_sum``
    are tracked at every step, not just recorded ones.
    """

    recorded_steps: np.ndarray
    gap: np.ndarray
    lyapunov: np.ndarray
    consensus_residual: np.ndarray
    tracking_residual: np.ndarray
    diverged: bool
    h: float
    max_tracking_residual: float
    max_abs_gradient_sum: float
    final_state: NodeState | None = field(repr=False, default=None)


def stability_max_step(g: Graph, alpha: float, model: CostModel | None,
                       probe_state: NodeState | np.ndarray | None) -> float:
    """Step-size bound ``1.8 / rho`` from a spectral-radius estimate.

    ``rho`` combines the Gershgorin bound of the Laplacian rows (twice the
    maximum weighted degree) with ``alpha`` times the largest curvature
    magnitude at the probe state.  An edgeless, curvature-free system has
    ``rho = 0`` and the bound is infinite.
    """
    rho = 2.0 * float(g.weighted_degrees().max()) if g.n else 0.0
    if model is not None and probe_state is not None:
        x = probe_state.x if isinstance(probe_state, NodeState) else np.asarray(probe_state)
        rho += alpha * float(np.abs(model.hessian_nodes(x)).max())
    if rho == 0.0:
        return math.inf
    return 1.8 / rho


def initialize(g: Graph, model: CostModel, cfg: SimConfig,
               rng: np.random.Generator) -> NodeState:
    """Uniform random states, trackers seeded with the local gradients."""
    cfg.validate()
    if model.n != g.n:
        raise DimensionMismatchError(f"model has {model.n} nodes, graph {g.n}")
    if not is_connected(g):
        raise DisconnectedError("dynamics require a connected graph")
    lo, hi = cfg.x_init_range
    x = rng.uniform(lo, hi, g.n)
    return NodeState(x=x, y=model.gradient_nodes(x))


def euler_step(g: Graph, model: CostModel, state: NodeState,
               cfg: SimConfig) -> NodeState:
    """One explicit-Euler update of (x, y), the step that :func:`run` takes."""
    with np.errstate(over="ignore", invalid="ignore"):
        gx = model.gradient_nodes(state.x)
    x, y, _, finite = _step(laplacian_sparse(g), model, state.x, state.y, gx,
                            cfg.alpha, _step_size(g, model, state, cfg))
    if not finite:
        raise DivergenceError("non-finite state after Euler step")
    return NodeState(x=x, y=y)


def _step_size(g: Graph, model: CostModel, state: NodeState,
               cfg: SimConfig) -> float:
    if cfg.h is not None:
        return cfg.h
    return 0.5 * stability_max_step(g, cfg.alpha, model, state)


def _step(lap, model, x, y, gx, alpha, h):
    # overflow on a diverging trajectory is expected and detected via isfinite
    with np.errstate(over="ignore", invalid="ignore"):
        x_new = x - h * (lap @ x + alpha * y)
        gx_new = model.gradient_nodes(x_new)
        y_new = y - h * (lap @ y) + (gx_new - gx)
    finite = np.isfinite(x_new).all() and np.isfinite(y_new).all()
    return x_new, y_new, gx_new, finite


def run(g: Graph, model: CostModel, cfg: SimConfig,
        rng: np.random.Generator,
        initial_state: NodeState | None = None) -> TrialTrace:
    """Integrate the dynamics and record convergence diagnostics.

    Records every ``record_stride`` steps (step 0 and the final step are
    always recorded).  A non-finite state stops the run and flags the trace
    as diverged instead of raising.  ``initial_state`` overrides the random
    initialization (campaigns use this to share starting points across
    topologies).
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
