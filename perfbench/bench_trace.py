"""Spans around the clustopt layers, installed from outside the package.

Every public function of each layer module is wrapped at every name a caller
looks it up by (``clustopt.montecarlo.run``, ``clustopt.dynamics.is_connected``,
``clustopt.run``, ...), plus the ``gradient_nodes`` methods of both cost
families.  A span is ``[key, start, end, parent, op, info]`` with start and
end on the process CPU clock, the clock the gated end-to-end metrics use.
Spans stay in memory and are written out when the run ends.  ``uninstall``
restores every original binding, so an untraced op after it runs the
unmodified program.

A layer's self time is the time of its spans minus the time of their child
spans.  Functions that are not a named entry point (``GROUPS``) fold into the
group of the calling span when that span is in the same layer, so e.g. the
dense eigensolve inside ``convergence_rate`` counts as ``spectral.rate``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from time import process_time

LAYERS = ("generators", "graphs", "costs", "dynamics", "spectral",
          "montecarlo", "graph_io", "cli")

GROUPS = {
    "generators.generate_ba": "generators.grow",
    "generators.generate_hk": "generators.grow",
    "generators.rewire_increase_clustering": "generators.rewire",
    "graphs.global_clustering": "graphs.clustering",
    "graphs.local_clustering": "graphs.clustering",
    "graphs.is_connected": "graphs.connected",
    "graphs.connected_components": "graphs.connected",
    "graphs.assign_random_weights": "graphs.weights",
    "graphs.unit_weights": "graphs.weights",
    "spectral.convergence_rate": "spectral.rate",
    "dynamics.run": "dynamics.run",
    "dynamics.euler_step": "dynamics.run",
    "dynamics.initialize": "dynamics.init",
    "dynamics.stability_max_step": "dynamics.bound",
    "costs.QuarticModel.gradient_nodes": "costs.gradient",
    "costs.MlLossModel.gradient_nodes": "costs.gradient",
    "costs.sample_cost": "costs.sample",
    "costs.sample_quartic": "costs.sample",
    "costs.sample_mlloss": "costs.sample",
    "costs.aggregate_optimum": "costs.optimum",
    "montecarlo.run_mc": "montecarlo.run_mc",
    "montecarlo.scatter_report": "montecarlo.scatter",
}
LAMBDA2 = "spectral.lambda2_laplacian"  # grouped by path: sparse or dense


def _lambda2_info(spectral, args, kwargs, result):
    g = args[0] if args else kwargs["g"]
    return "sparse" if g.n > getattr(spectral, "DENSE_LIMIT", 2000) else "dense"


def _rewire_info(spectral, args, kwargs, result):
    report = result[1]
    return [report.swaps_attempted, report.swaps_accepted]


def _run_info(spectral, args, kwargs, result):
    return [int(result.recorded_steps[-1]), int(result.diverged)]


INFO = {LAMBDA2: _lambda2_info,
        "generators.rewire_increase_clustering": _rewire_info,
        "dynamics.run": _run_info}


class Tracer:
    """Span recorder; ``op`` is set by the caller before each op."""

    def __init__(self) -> None:
        self.spans: list = []
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, key, fn, spectral):
        spans, stack, info = self.spans, self._stack, INFO.get(key)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            result = None
            t0 = process_time()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = process_time()
                stack.pop()
                extra = None if info is None or result is None else \
                    info(spectral, args, kwargs, result)
                spans[idx] = [key, t0, t1, parent, self.op, extra]
        return traced

    def install(self) -> None:
        mods = {name: importlib.import_module(f"clustopt.{name}")
                for name in LAYERS}
        spaces = [m for n, m in sys.modules.items()
                  if n == "clustopt" or n.startswith("clustopt.")]
        spectral = mods["spectral"]
        for layer, mod in mods.items():
            for name, fn in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapper = self._wrap(f"{layer}.{name}", fn, spectral)
                for space in spaces:
                    for attr, value in list(vars(space).items()):
                        if value is fn:
                            self._restore.append((space, attr, fn))
                            setattr(space, attr, wrapper)
        costs = mods["costs"]
        for cls in (costs.QuarticModel, costs.MlLossModel):
            fn = cls.__dict__["gradient_nodes"]
            self._restore.append((cls, "gradient_nodes", fn))
            cls.gradient_nodes = self._wrap(
                f"costs.{cls.__name__}.gradient_nodes", fn, spectral)

    def uninstall(self) -> None:
        for space, attr, value in reversed(self._restore):
            setattr(space, attr, value)
        self._restore.clear()

    def write(self, path) -> None:
        """One JSON array per span: id, op, parent, name, start, end, info."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (key, t0, t1, parent, op, extra) in enumerate(self.spans):
                fh.write(json.dumps([i, op, parent, key, t0, t1, extra]) + "\n")


def span_cost_s(calls: int = 20000) -> float:
    """Measured cost of one span: a wrapped no-op call minus a bare one."""
    def noop():
        return None

    traced = Tracer()._wrap("calibration.noop", noop, None)
    walls = []
    for fn in (noop, traced):
        t0 = process_time()
        for _ in range(calls):
            fn()
        walls.append(process_time() - t0)
    return (walls[1] - walls[0]) / calls


def _groups(spans):
    """Metric group and self time of every span."""
    groups: list[str] = []
    self_time = [s[2] - s[1] for s in spans]
    for key, t0, t1, parent, op, extra in spans:
        if parent >= 0:
            self_time[parent] -= t1 - t0
        layer = key.split(".", 1)[0]
        if key == LAMBDA2:
            group = f"spectral.lambda2_{extra}"
        elif key in GROUPS:
            group = GROUPS[key]
        elif parent >= 0 and groups[parent].split(".", 1)[0] == layer:
            group = groups[parent]
        else:
            group = f"{layer}.other"
        groups.append(group)
    return groups, self_time


def layer_metrics(spans, op_walls: dict[int, float], count_ops: set[int],
                  trials_per_op: int) -> dict[str, tuple[float, str]]:
    """Per-op layer metrics.

    Times and rates average over every traced op in ``op_walls``; counts
    average over ``count_ops``, a fixed prefix of ops whose inputs depend
    only on the seed, so they repeat exactly for one seed.
    """
    groups, self_time = _groups(spans)
    n_all = len(op_walls)
    n_cnt = len(count_ops)
    t: dict[str, float] = {}
    calls: dict[str, int] = {}
    layer_t = {layer: 0.0 for layer in LAYERS}
    run_incl = steps_all = 0.0
    steps = diverged = proposals = accepted = 0
    prop_all = 0
    for span, group, st in zip(spans, groups, self_time):
        key, t0, t1, parent, op, extra = span
        if op not in op_walls:
            continue
        t[group] = t.get(group, 0.0) + st
        layer_t[group.split(".", 1)[0]] += st
        if key == "dynamics.run" and extra is not None:
            run_incl += t1 - t0
            steps_all += extra[0]
        if key == "generators.rewire_increase_clustering" and extra is not None:
            prop_all += extra[0]
        if op not in count_ops:
            continue
        if GROUPS.get(key) == group or key == LAMBDA2:
            calls[group] = calls.get(group, 0) + 1
        if key == "dynamics.run" and extra is not None:
            steps += extra[0]
            diverged += extra[1]
        if key == "generators.rewire_increase_clustering" and extra is not None:
            proposals += extra[0]
            accepted += extra[1]

    def per_op(group):
        return t.get(group, 0.0) / n_all

    def count(group):
        return calls.get(group, 0) / n_cnt

    wall = sum(op_walls.values())
    m = {
        "generators.grow_s": (per_op("generators.grow"), "s"),
        "generators.grow_calls": (count("generators.grow"), "count"),
        "generators.grow_calls_per_trial":
            (count("generators.grow") / trials_per_op, "ratio"),
        "generators.rewire_s": (per_op("generators.rewire"), "s"),
        "generators.rewire_proposals": (proposals / n_cnt, "count"),
        "generators.rewire_accepted": (accepted / n_cnt, "count"),
        "generators.rewire_accept_ratio":
            (accepted / proposals if proposals else 0.0, "ratio"),
        "generators.rewire_proposals_per_s":
            (prop_all / t["generators.rewire"] if prop_all else 0.0, "1/s"),
        "generators.self_s": (layer_t["generators"] / n_all, "s"),
        "graphs.clustering_s": (per_op("graphs.clustering"), "s"),
        "graphs.clustering_calls": (count("graphs.clustering"), "count"),
        "graphs.connected_s": (per_op("graphs.connected"), "s"),
        "graphs.connected_calls": (count("graphs.connected"), "count"),
        "graphs.weights_s": (per_op("graphs.weights"), "s"),
        "graphs.self_s": (layer_t["graphs"] / n_all, "s"),
        "spectral.lambda2_sparse_s": (per_op("spectral.lambda2_sparse"), "s"),
        "spectral.lambda2_dense_s": (per_op("spectral.lambda2_dense"), "s"),
        "spectral.lambda2_calls": (count("spectral.lambda2_sparse")
                                   + count("spectral.lambda2_dense"), "count"),
        "spectral.rate_s": (per_op("spectral.rate"), "s"),
        "spectral.rate_calls": (count("spectral.rate"), "count"),
        "spectral.self_s": (layer_t["spectral"] / n_all, "s"),
        "dynamics.run_s": (per_op("dynamics.run"), "s"),
        "dynamics.steps": (steps / n_cnt, "count"),
        "dynamics.step_us":
            (1e6 * run_incl / steps_all if steps_all else 0.0, "us"),
        "dynamics.init_s": (per_op("dynamics.init"), "s"),
        "dynamics.bound_s": (per_op("dynamics.bound"), "s"),
        "dynamics.diverged": (diverged / n_cnt, "count"),
        "dynamics.self_s": (layer_t["dynamics"] / n_all, "s"),
        "costs.gradient_s": (per_op("costs.gradient"), "s"),
        "costs.gradient_calls": (count("costs.gradient"), "count"),
        "costs.sample_s": (per_op("costs.sample"), "s"),
        "costs.optimum_s": (per_op("costs.optimum"), "s"),
        "costs.self_s": (layer_t["costs"] / n_all, "s"),
        "montecarlo.run_mc_s": (per_op("montecarlo.run_mc"), "s"),
        "montecarlo.scatter_s": (per_op("montecarlo.scatter"), "s"),
        "montecarlo.self_s": (layer_t["montecarlo"] / n_all, "s"),
        "graph_io.io_s": (layer_t["graph_io"] / n_all, "s"),
        "cli.self_s": (layer_t["cli"] / n_all, "s"),
        "trace.op_cpu_s": (wall / n_all, "s"),
        "trace.layer_self_frac": (sum(layer_t.values()) / wall, "ratio"),
        "trace.spans_per_op": (sum(1 for s in spans if s[4] in op_walls)
                               / n_all, "count"),
    }
    return m
