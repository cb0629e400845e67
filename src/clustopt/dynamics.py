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

Trials of one order and one cost family integrate as one stacked system
(:func:`run_trials`, of which :func:`run` is the one-trial case): one Euler
step per time step on the union Laplacian of their graphs, laid out by
:mod:`clustopt.graphs`, with the bits of each trial integrated alone.  The
stack is never cut: a trial that diverges or stops early is frozen in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from .costs import CostModel, OptimumCertificate, aggregate_optimum
from .errors import DimensionMismatchError, DisconnectedError, DivergenceError, InvalidParamsError
from .graphs import Graph, _check_int, _is_real, is_connected, laplacian_sparse


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
        _check_int("steps", self.steps, 0)
        _check_int("record_stride", self.record_stride, 1)
        if self.gap_tolerance < 0:
            raise InvalidParamsError(f"gap_tolerance must be >= 0, got {self.gap_tolerance}")
        r = self.x_init_range
        if not (len(r) == 2 and all(map(_is_real, r)) and r[0] <= r[1]):
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
    are maxima over every finite step of the run, not just recorded ones.
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


def _check_trials(lap, models, states) -> int:
    """The common node count of trials of one cost family on one union."""
    n, family = models[0].n, (type(models[0]), models[0].a.shape[1:])
    if lap.shape != (len(models) * n,) * 2 \
            or {(type(mo), mo.a.shape[1:], mo.n, np.shape(s.x), np.shape(s.y))
                for mo, s in zip(models, states)} != {(*family, n, (n,), (n,))}:
        raise DimensionMismatchError(
            f"every trial needs a {n}-node model of one cost family, {n}-node "
            f"states and an order-{n} block of the union Laplacian")
    return n


def run(g: Graph, model: CostModel, cfg: SimConfig,
        rng: np.random.Generator,
        initial_state: NodeState | None = None) -> TrialTrace:
    """Integrate the dynamics and record convergence diagnostics.

    Records every ``record_stride`` steps (step 0 and the final step are
    always recorded).  A non-finite state stops the run and flags the trace
    as diverged instead of raising.  ``initial_state`` overrides the random
    initialization (campaigns use this to share starting points across
    topologies).  Once inputs are checked and ``h`` is chosen, this is
    :func:`run_trials` on one trial.
    """
    if initial_state is None:
        state = initialize(g, model, cfg, rng)
    else:
        cfg.validate()
        _check_trials(laplacian_sparse(g), [model], [initial_state])
        if not is_connected(g):
            raise DisconnectedError("dynamics require a connected graph")
        state = initial_state
    sim = replace(cfg, h=_step_size(g, model, state, cfg))
    return run_trials(laplacian_sparse(g), [model], [state],
                      [aggregate_optimum(model)], sim)[0]


def run_trials(lap: sp.csr_matrix, models: list[CostModel],
               states: list[NodeState], optima: list[OptimumCertificate],
               cfg: SimConfig) -> list[TrialTrace]:
    """Integrate trials of one order and one cost family as one system.

    ``lap`` is the :func:`~clustopt.graphs.union_laplacian` of the trials'
    graphs, trial t on nodes ``t * n`` to ``t * n + n - 1``; trial t is that
    block, its cost model, initial state and aggregate optimum.  ``cfg.h``
    must be set.  Each Euler step is one :func:`_step` on the whole union,
    and a trial's sums reduce its own contiguous rows, so every trace is
    bit-identical to the trial run alone; each step's sums go straight into
    the running trials' maxima.  A trial whose state turns non-finite is
    flagged diverged, and one whose recorded gap reaches ``gap_tolerance``
    stops; either is frozen, maxima too, with that step's state as its
    final state.  Its rows stay in the stack, which never changes: a row
    product and a row sum read no other trial's rows.
    """
    cfg.validate()
    if cfg.h is None or not models \
            or {len(states), len(optima)} != {len(models)}:
        raise InvalidParamsError("need h and one model, state and optimum "
                                 "per trial")
    n, count = _check_trials(lap, models, states), len(models)

    model = type(models[0])(a=np.concatenate([mo.a for mo in models]),
                            b=np.concatenate([mo.b for mo in models]))
    x = np.concatenate([s.x for s in states])
    y = np.concatenate([s.y for s in states])
    gx = model.gradient_nodes(x)
    x_star, f_star = np.array([(c.x_star, c.f_star) for c in optima]).T
    grid = sorted({*range(0, cfg.steps + 1, cfg.record_stride), cfg.steps})
    rec = np.empty((count, 4, len(grid)))  # gap, lyapunov, consensus, tracking
    gsum = np.add.reduce(gx.reshape(count, n), axis=1)
    maxima = np.abs([np.add.reduce(y.reshape(count, n), axis=1) - gsum, gsum])
    r, running, m = 0, np.ones(count, dtype=bool), count  # r: records, m: running
    # per trial once it stops: records, diverged, final (x, y)
    taken, diverged = np.zeros(count, dtype=int), np.zeros(count, dtype=bool)
    final = np.empty((count, 2, n))

    def record(resid: np.ndarray) -> None:
        nonlocal r
        xs, ys = x.reshape(count, n), y.reshape(count, n)
        xbar = xs.mean(axis=1)
        gap = model.value_nodes(np.repeat(xbar, n)).reshape(count, n).sum(axis=1) \
            - f_star
        rec[:, 0, r], rec[:, 3, r] = gap, resid
        rec[:, 1, r] = 0.5 * (((xs - x_star[:, None]) ** 2).sum(axis=1)
                              + (ys ** 2).sum(axis=1))
        rec[:, 2, r] = ((xs - xbar[:, None]) ** 2).sum(axis=1)
        r += 1
        if cfg.gap_tolerance > 0:
            stop(gap <= cfg.gap_tolerance, False)

    def stop(mask: np.ndarray, failed: bool) -> None:
        """Freeze the running trials of ``mask`` as they are now."""
        nonlocal m
        mask = mask & running
        if mask.any():
            taken[mask], diverged[mask] = r, failed
            final[mask] = np.stack((x.reshape(count, n)[mask],
                                    y.reshape(count, n)[mask]), 1)
            running[mask], m = False, m - int(mask.sum())

    # frozen rows go on to inf or NaN, which no running trial reads
    with np.errstate(over="ignore", invalid="ignore"):
        record(maxima[0])
        for k in range(1, cfg.steps + 1):
            if not m:
                break
            x, y, gx, finite = _step(lap, model, x, y, gx, cfg.alpha, cfg.h)
            if not finite:
                stop(~(np.isfinite(x.reshape(count, n)).all(axis=1)
                       & np.isfinite(y.reshape(count, n)).all(axis=1)), True)
            gsum = np.add.reduce(gx.reshape(count, n), axis=1)
            sums = np.abs([np.add.reduce(y.reshape(count, n), axis=1) - gsum, gsum])
            np.fmax(maxima, sums, out=maxima, where=running)
            if k == grid[r]:
                record(sums[0])
        stop(running, False)
    return [TrialTrace(np.array(grid[:c], dtype=np.int64), *rec[t, :, :c].copy(),
                       diverged=bool(diverged[t]), h=cfg.h,
                       max_tracking_residual=float(maxima[0, t]),
                       max_abs_gradient_sum=float(maxima[1, t]),
                       final_state=NodeState(*final[t].copy()))
            for t, c in enumerate(taken)]
