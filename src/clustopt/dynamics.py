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
step on a block-diagonal Laplacian per time step, with the bits of each
trial integrated alone.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from .costs import CostModel, OptimumCertificate, aggregate_optimum
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


def _check_trials(laplacians, models, states) -> int:
    """The common node count of trials of one cost family."""
    n, family = models[0].n, (type(models[0]), models[0].a.shape[1:])
    if {(type(mo), mo.a.shape[1:], mo.n, lap.shape, np.shape(s.x),
         np.shape(s.y)) for lap, mo, s in zip(laplacians, models, states)} \
            != {(*family, n, (n, n), (n,), (n,))}:
        raise DimensionMismatchError(
            f"every trial needs a {n} x {n} Laplacian, a {n}-node model of "
            f"one cost family and {n}-node states")
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
        _check_trials([laplacian_sparse(g)], [model], [initial_state])
        if not is_connected(g):
            raise DisconnectedError("dynamics require a connected graph")
        state = initial_state
    sim = replace(cfg, h=_step_size(g, model, state, cfg))
    return run_trials([laplacian_sparse(g)], [model], [state],
                      [aggregate_optimum(model)], sim)[0]


def _stack(laplacians, models, trials):
    """Block-diagonal Laplacian, each row's entries in the trial's order, and
    the family's model over the concatenated parameters of some trials."""
    blocks = [laplacians[t] for t in trials]
    n, starts = blocks[0].shape[0], np.cumsum([0] + [b.nnz for b in blocks])
    indptr = [b.indptr[:-1] + int(s) for b, s in zip(blocks, starts)]
    lap = sp.csr_matrix(
        (np.concatenate([b.data for b in blocks]),
         np.concatenate([b.indices + j * n for j, b in enumerate(blocks)]),
         np.concatenate(indptr + [starts[-1:]])), shape=(len(blocks) * n,) * 2)
    return lap, type(models[trials[0]])(
        a=np.concatenate([models[t].a for t in trials]),
        b=np.concatenate([models[t].b for t in trials]))


def run_trials(laplacians: list[sp.csr_matrix], models: list[CostModel],
               states: list[NodeState], optima: list[OptimumCertificate],
               cfg: SimConfig) -> list[TrialTrace]:
    """Integrate trials of one order and one cost family as one system.

    Trial t is its CSR Laplacian, cost model, initial state and aggregate
    optimum; ``cfg.h`` must be set.  Each Euler step is one :func:`_step` on
    the disjoint union of the running trials, and a trial's sums reduce its
    own contiguous rows, so every trace is bit-identical to the trial run
    alone.  A trial whose state turns non-finite is flagged diverged, and
    one whose recorded gap reaches ``gap_tolerance`` stops; either leaves
    the stack with that step's state as its final state.
    """
    cfg.validate()
    if cfg.h is None or not models \
            or {len(laplacians), len(states), len(optima)} != {len(models)}:
        raise InvalidParamsError("need h and one Laplacian, model, state "
                                 "and optimum per trial")
    n, count = _check_trials(laplacians, models, states), len(models)

    live, m = np.arange(count), count  # the stacked trials, in trial order
    lap, model = _stack(laplacians, models, live)
    x = np.concatenate([s.x for s in states])
    y = np.concatenate([s.y for s in states])
    gx = model.gradient_nodes(x)
    x_star, f_star = np.array([(c.x_star, c.f_star) for c in optima]).T
    grid = sorted({*range(0, cfg.steps + 1, cfg.record_stride), cfg.steps})
    rec = np.empty((count, 4, len(grid)))  # gap, lyapunov, consensus, tracking
    gsum = np.add.reduce(gx.reshape(m, n), axis=1)
    maxima = np.abs([np.add.reduce(y.reshape(m, n), axis=1) - gsum, gsum])
    # each step's sums of y and of grad f, taken into the maxima at every
    # record and whenever the buffer is full; it has at most n rows
    sums = np.empty((2, min(cfg.record_stride, cfg.steps, n), m))
    r = pending = 0  # records taken, steps not yet in the maxima
    # per trial once it leaves: records, diverged, both maxima, final (x, y)
    taken, diverged = np.zeros(count, dtype=int), np.zeros(count, dtype=bool)
    last, final = np.empty((2, count)), np.empty((count, 2, n))

    def fold() -> np.ndarray:
        """Take the pending steps into the maxima; the last step's residual."""
        nonlocal pending
        ys, gs = sums[:, :pending]
        current = np.abs([ys - gs, gs])
        np.fmax(maxima, np.fmax.reduce(current, axis=1), out=maxima)
        pending = 0
        return current[0, -1]

    def record(resid: np.ndarray) -> None:
        nonlocal r
        xs, ys = x.reshape(m, n), y.reshape(m, n)
        xbar = xs.mean(axis=1)
        gap = model.value_nodes(np.repeat(xbar, n)).reshape(m, n).sum(axis=1) \
            - f_star[live]
        rec[live, 0, r], rec[live, 3, r] = gap, resid
        rec[live, 1, r] = 0.5 * (((xs - x_star[live, None]) ** 2).sum(axis=1)
                                 + (ys ** 2).sum(axis=1))
        rec[live, 2, r] = ((xs - xbar[:, None]) ** 2).sum(axis=1)
        r += 1
        if cfg.gap_tolerance > 0:
            leave(gap <= cfg.gap_tolerance, False)

    def leave(mask: np.ndarray, failed: bool) -> None:
        """Freeze the stacked trials of ``mask``; restack the others."""
        nonlocal live, m, lap, model, x, y, gx, maxima, sums
        if not mask.any():
            return
        if pending:
            fold()
        gone, keep = live[mask], ~mask
        taken[gone], diverged[gone], last[:, gone] = r, failed, maxima[:, mask]
        final[gone] = np.stack((x.reshape(m, n)[mask], y.reshape(m, n)[mask]), 1)
        x, y, gx = (v.reshape(m, n)[keep].ravel() for v in (x, y, gx))
        live, maxima, sums = live[keep], maxima[:, keep], sums[..., keep]
        m = live.size
        if m:
            lap, model = _stack(laplacians, models, live)

    record(maxima[0])
    for k in range(1, cfg.steps + 1):
        if not m:
            break
        x, y, gx, finite = _step(lap, model, x, y, gx, cfg.alpha, cfg.h)
        if not finite:
            leave(~(np.isfinite(x.reshape(m, n)).all(axis=1)
                    & np.isfinite(y.reshape(m, n)).all(axis=1)), True)
            if not m:
                break
        np.add.reduce(y.reshape(m, n), axis=1, out=sums[0, pending])
        np.add.reduce(gx.reshape(m, n), axis=1, out=sums[1, pending])
        pending += 1
        if k == grid[r]:
            record(fold())
        elif pending == sums.shape[1]:
            fold()
    leave(np.ones(m, dtype=bool), False)
    return [TrialTrace(np.array(grid[:c], dtype=np.int64), *rec[t, :, :c].copy(),
                       diverged=bool(diverged[t]), h=cfg.h,
                       max_tracking_residual=float(last[0, t]),
                       max_abs_gradient_sum=float(last[1, t]),
                       final_state=NodeState(*final[t].copy()))
            for t, c in enumerate(taken)]
