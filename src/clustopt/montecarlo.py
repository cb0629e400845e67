"""Seeded Monte-Carlo campaigns over topology families.

A campaign runs ``trials`` independent (graph, weights, cost, initial state)
samples for each labeled topology, averages the recorded traces in fixed
trial order, and reports per-label clustering/degree/connectivity statistics
next to the mean optimality-gap trajectory.  Every trial derives its own
seed from ``(base_seed, label_index, trial_index)`` through an integer
mixing function, so campaigns are bit-reproducible and trials are
independent of execution order.

Each trial is built once, whether or not the step size is set: a first
pass grows every label's trials, builds their weights, cost models and
initial states, and takes their stability bounds, optima and metrics; the
algebraic connectivity of all of a label's trials comes from one stacked
solve on the Laplacian of their disjoint union.  When the step size is
left unset, the campaign integrates with half the most conservative of
those bounds, so every label shares one step size.  Each label's built
trials then integrate as one stacked system on that union Laplacian.

The campaign config document is read here, next to :class:`McConfig`, by
the dataclass fields; :func:`clustopt.graph_io.to_plain` echoes it.
"""

from __future__ import annotations

import json
import logging
import os
from dataclasses import MISSING, dataclass, fields, is_dataclass, replace
from typing import ClassVar, NamedTuple, get_args, get_origin, get_type_hints

import numpy as np

from .costs import COST_FAMILIES, CostModel, OptimumCertificate, \
    aggregate_optimum, optimum_curvatures, sample_cost
from .dynamics import NodeState, SimConfig, TrialTrace, initialize, run_trials, \
    stability_max_step
from .errors import ClustoptError, DivergenceError, GraphParseError, IndexOutOfRangeError, \
    InvalidParamsError
from .generators import BaParams, HkParams, generate_ba, generate_hk
from .graph_io import read_graph, to_plain as config_to_dict
from .graphs import Graph, _check_int, _is_int, _is_real, assign_random_weights, \
    global_clustering, is_connected, union_laplacian
from .spectral import lambda2_blocks, spectral_report

logger = logging.getLogger(__name__)

_MASK64 = (1 << 64) - 1
_ONCE_STREAM = (1 << 63) - 1   # reserved trial index for shared cost models
_SHARED_LABEL = (1 << 63) - 1  # reserved label index: cost/init stream


# the fields each model takes besides label and model
_MODEL_FIELDS = {"ba": ("n", "links", "seed_size"),
                 "hk": ("n", "links", "triad_links", "seed_size"),
                 "file": ("path",)}


@dataclass(frozen=True)
class TopologySpec:
    """One labeled topology: a generator family or a graph file."""

    label: str
    model: str  # "ba" | "hk" | "file"
    n: int | None = None
    links: int | None = None
    triad_links: int = 0
    seed_size: int | None = None
    path: str | None = None
    # validate holds each field that the model does not take at its default,
    # so the config echo can leave out every field at its default
    echo_defaults: ClassVar[bool] = False

    def validate(self) -> None:
        if not isinstance(self.label, str) or set(self.label) & {"/", os.sep, "\0"}:
            raise InvalidParamsError(
                f"topology label {self.label!r} cannot be part of a file name")
        if self.model not in _MODEL_FIELDS:
            raise InvalidParamsError(
                f"topology {self.label!r}: unknown model {self.model!r}")
        for f in fields(self)[2:]:  # past label and model
            if f.name not in _MODEL_FIELDS[self.model] \
                    and getattr(self, f.name) != f.default:
                raise InvalidParamsError(
                    f"topology {self.label!r}: model {self.model!r} takes no {f.name}")
        if self.model == "file":
            if not self.path:
                raise InvalidParamsError(
                    f"topology {self.label!r}: file topology needs a path")
        else:  # ba is hk with triad_links 0, the only value it takes
            HkParams(self.n, self.links, self.triad_links, self.seed_size).validate()


@dataclass(frozen=True)
class CostSpec:
    family: str = "quartic"
    m: int = 20

    def validate(self) -> None:
        if self.family not in COST_FAMILIES:
            raise InvalidParamsError(
                f"cost_spec.family must be {' or '.join(sorted(COST_FAMILIES))}, "
                f"got {self.family!r}")
        _check_int("cost_spec.m", self.m, 1)


@dataclass(frozen=True)
class McConfig:
    topologies: tuple[TopologySpec, ...]
    cost_spec: CostSpec
    sim: SimConfig
    trials: int
    base_seed: int
    weight_range: tuple[float, float] = (0.5, 1.5)
    resample_cost: str = "per_trial"  # or "once"

    def validate(self) -> None:
        if not self.topologies:
            raise InvalidParamsError("topologies must list at least one topology")
        _check_int("trials", self.trials, 1)
        _check_int("base_seed", self.base_seed)
        w = self.weight_range
        if not (len(w) == 2 and all(map(_is_real, w)) and 0 < w[0] <= w[1]):
            raise InvalidParamsError(
                f"weight_range must be [low, high] with 0 < low <= high, got {list(w)}")
        labels = [t.label for t in self.topologies]
        if len(set(labels)) != len(labels):
            raise InvalidParamsError(f"duplicate topology labels in {labels}")
        if self.resample_cost not in ("per_trial", "once"):
            raise InvalidParamsError(
                f"resample_cost must be per_trial or once, got {self.resample_cost!r}")
        self.cost_spec.validate()
        if self.sim.gap_tolerance != 0.0:
            raise InvalidParamsError(
                "campaigns require gap_tolerance = 0 so all traces share one step grid")
        for t in self.topologies:
            t.validate()
        self.sim.validate()


_SCALARS = {int: ("an integer", _is_int), float: ("a finite number", _is_real),
            str: ("a string", lambda v: isinstance(v, str))}


def _read(hint, value, where: str):
    """``value`` as a field of type ``hint``: no bool where a number goes,
    no string for a number, and no integer rounded."""
    args = get_args(hint)
    if type(None) in args:  # ``X | None``
        return None if value is None else _read(args[0], value, where)
    if is_dataclass(hint):
        return _from_dict(hint, value, where)
    if get_origin(hint) is tuple:
        if not isinstance(value, (list, tuple)):
            raise InvalidParamsError(f"{where} must be a list, got {value!r}")
        items = args[:1] * len(value) if args[-1] is Ellipsis else args
        if len(value) != len(items):
            raise InvalidParamsError(f"{where} must list {len(items)} values, got {value!r}")
        return tuple(_read(t, v, f"{where}[{i}]")
                     for i, (t, v) in enumerate(zip(items, value)))
    kind, ok = _SCALARS[hint]
    if not ok(value):
        raise InvalidParamsError(f"{where} must be {kind}, got {value!r}")
    return hint(value)


def _from_dict(cls, doc, where: str = ""):
    """The config dataclass ``cls`` read from the JSON object ``doc``: each
    key names a field, and a field with a default, or a section of such
    fields, may be left out."""
    if not isinstance(doc, dict):
        raise InvalidParamsError(f"{where or 'config'} must be an object, got {doc!r}")
    prefix = f"{where}." if where else ""
    names = {f.name for f in fields(cls)}
    unknown = [key for key in doc if key not in names]
    if unknown:
        raise InvalidParamsError(f"unknown key {prefix}{unknown[0]}")
    hints = get_type_hints(cls)
    kwargs = {}
    for f in fields(cls):
        hint, path = hints[f.name], prefix + f.name
        if f.name in doc:
            kwargs[f.name] = _read(hint, doc[f.name], path)
        elif is_dataclass(hint) and all(g.default is not MISSING for g in fields(hint)):
            kwargs[f.name] = hint()
        elif f.default is MISSING:
            raise GraphParseError(f"malformed campaign config: missing key {path}")
    return cls(**kwargs)


def config_from_dict(doc: dict) -> McConfig:
    return _from_dict(McConfig, doc)


def read_config(path: str) -> McConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise GraphParseError(f"invalid config JSON: {exc}") from exc
    return config_from_dict(doc)


@dataclass
class LabelSummary:
    label: str
    recorded_steps: np.ndarray
    mean_gap: np.ndarray
    mean_lyapunov: np.ndarray
    mean_consensus_residual: np.ndarray
    mean_tracking_residual: np.ndarray
    final_gap_mean: float
    final_gap_std: float
    mean_clustering: float
    mean_avg_degree: float
    mean_lambda2: float
    trial_count: int
    diverged_count: int
    seeds: list[int]
    errors: list[tuple[int, str, str]]


@dataclass
class McSummary:
    h: float
    labels: list[LabelSummary]
    config: dict
    per_trial_gaps: dict[str, np.ndarray] | None = None


@dataclass(frozen=True)
class VerdictRow:
    label: str
    mean_gap: float
    mean_clustering: float


@dataclass(frozen=True)
class ScatterRow:
    label: str
    n: int
    avg_degree: float
    clustering: float
    lambda2: float | None
    rate: float | None


class _Trial(NamedTuple):
    """One built trial, held until its label integrates: no Graph, no CSR."""

    index: int
    edges: np.ndarray  # canonical (E, 2) int32: 8 bytes per edge
    weights: np.ndarray
    model: CostModel
    state: NodeState
    optimum: OptimumCertificate
    metrics: tuple[float, ...]  # clustering, mean degree, lambda2 once solved


def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def trial_seed(base_seed: int, label_index: int, trial_index: int) -> int:
    """Deterministic, collision-resistant 64-bit seed for one trial."""
    if label_index < 0 or trial_index < 0:
        raise InvalidParamsError("indices must be >= 0")
    s = _splitmix64(base_seed & _MASK64)
    s = _splitmix64(s ^ (label_index & _MASK64))
    s = _splitmix64(s ^ (trial_index & _MASK64))
    return s


def _generate_topology(topo: TopologySpec, rng: np.random.Generator,
                       file_cache: dict) -> Graph:
    if topo.model == "ba":
        return generate_ba(BaParams(topo.n, topo.links, topo.seed_size), rng)
    if topo.model == "hk":
        return generate_hk(
            HkParams(topo.n, topo.links, topo.triad_links, topo.seed_size), rng)
    if topo.path not in file_cache:
        file_cache[topo.path] = read_graph(topo.path)
    return file_cache[topo.path]


def _trial_graph(cfg: McConfig, topo: TopologySpec, label_index: int,
                 trial_index: int, file_cache: dict):
    """Unit-weight graph of one trial and its (label, trial) generator.

    The generator is left where growth left it, ready for the weight draws.
    """
    rng = np.random.default_rng(
        trial_seed(cfg.base_seed, label_index, trial_index))
    return _generate_topology(topo, rng, file_cache), rng


def _trial_inputs(cfg: McConfig, g: Graph, rng: np.random.Generator,
                  trial_index: int, shared_model: CostModel | None):
    """Weighted graph, cost model and initial state for one trial.

    The weights come from the (label, trial) stream ``rng``; the cost model
    and initial state come from a label-independent per-trial stream, so
    labels with equal node counts face identical costs and starting points
    and the label contrast isolates the topology effect (common random
    numbers).  Everything rebuilds bit-identically from the seeds alone.
    """
    wg = assign_random_weights(g, rng, *cfg.weight_range)
    rng_shared = np.random.default_rng(
        trial_seed(cfg.base_seed, _SHARED_LABEL, trial_index))
    if shared_model is not None:
        model = shared_model
    else:
        model = sample_cost(cfg.cost_spec.family, g.n, rng_shared,
                            cfg.cost_spec.m)
    state = initialize(wg, model, cfg.sim, rng_shared)
    return wg, model, state


def _shared_model(cfg: McConfig, topo: TopologySpec,
                  file_cache: dict) -> CostModel | None:
    """The one cost model of every trial and label of this order under
    ``resample_cost: "once"``, from a label-independent stream."""
    if cfg.resample_cost != "once":
        return None
    rng = np.random.default_rng(
        trial_seed(cfg.base_seed, _SHARED_LABEL, _ONCE_STREAM))
    g = _generate_topology(topo, np.random.default_rng(0), file_cache) \
        if topo.model == "file" else None
    n = g.n if g is not None else topo.n
    return sample_cost(cfg.cost_spec.family, n, rng, cfg.cost_spec.m)


def _label_rank(cfg: McConfig, label: str) -> int:
    """Seed index of a label: its lexicographic rank, not declaration order.

    Permuting the declaration order of topologies must permute summary rows
    without changing any mean, so seeds cannot depend on list position.
    """
    return sorted(t.label for t in cfg.topologies).index(label)


def _all_failed(cfg: McConfig, topo: TopologySpec, causes: list) -> ClustoptError:
    """A label none of whose trials succeeded fails with the class (by its
    code) and message of its first ``(trial, code, message)`` cause."""
    ti, code, msg = min(causes)
    cls = next((c for c in ClustoptError.__subclasses__() if c.code == code),
               ClustoptError)
    return cls(f"all {cfg.trials} trials of label {topo.label!r} failed: "
               f"trial {ti}: {msg}")


def _parts(trials: list[_Trial]) -> tuple[int, list]:
    """The order of the trials' graphs and each one's ``(edges, weights)``,
    in trial order."""
    return trials[0].model.n, [(t.edges, t.weights) for t in trials]


def _union(trials: list[_Trial]):
    """The :func:`union_laplacian` of the trials' graphs, in trial order."""
    return union_laplacian(*_parts(trials))


def _build_label(cfg: McConfig, topo: TopologySpec, label_index: int,
                 file_cache: dict) -> tuple[list[_Trial], list, float]:
    """Every trial of one label, built once, with the label's error ledger
    and the smallest stability bound over its trials.

    A trial's bound is taken once its inputs build, so a later failure of
    its optimum or a metric still counts toward ``h``.  The lambda2 of every
    built trial comes from one :func:`lambda2_blocks` call after the loop,
    handed their edges and weights, from which it builds (and cuts) the
    Laplacian of their disjoint union.  A :class:`ClustoptError` at
    any step goes to the ledger, in trial order; a label none of whose
    trials builds raises.
    """
    shared = _shared_model(cfg, topo, file_cache)
    trials: list[_Trial] = []
    errors: list[tuple[int, str, str]] = []
    bound = np.inf
    for ti in range(cfg.trials):
        try:
            g, rng = _trial_graph(cfg, topo, label_index, ti, file_cache)
            wg, model, state = _trial_inputs(cfg, g, rng, ti, shared)
            bound = min(bound, stability_max_step(wg, cfg.sim.alpha, model, state))
            trials.append(_Trial(
                ti, wg.edges.astype(np.int32), wg.weights, model, state,
                aggregate_optimum(model),
                (global_clustering(wg).global_mean, 2.0 * wg.edge_count / wg.n)))
        except ClustoptError as exc:
            errors.append((ti, exc.code, str(exc)))
    if trials:
        solved = zip(trials, lambda2_blocks(*_parts(trials)))
        trials = []
        for t, lam2 in solved:
            if isinstance(lam2, ClustoptError):
                errors.append((t.index, lam2.code, str(lam2)))
            else:
                trials.append(t._replace(metrics=(*t.metrics, lam2)))
        errors.sort(key=lambda e: e[0])
    if not trials:
        raise _all_failed(cfg, topo, errors)
    return trials, errors, bound


def run_mc(cfg: McConfig, keep_trial_gaps: bool = False) -> McSummary:
    """Run the full campaign and aggregate per-label statistics.

    Trials with non-finite states are excluded from every mean and counted
    as diverged; domain errors, also from a trial's metrics or optimum, go
    to the per-label error ledger.  A label where no trial succeeds aborts
    the campaign.

    Every label's trials are built first, each once and by the same code
    whether or not ``sim.h`` is set; with it unset, ``h`` is half the
    smallest stability bound over them.  A built trial keeps its int32
    edges (8 bytes per edge), weights, model, state, optimum and metrics,
    no graph and no CSR matrix.  A label's trials then integrate in one
    ``run_trials`` call on the union Laplacian of their graphs, rebuilt from
    those records by the routine that gave their lambda2, and the records
    are dropped once the label is done.
    """
    cfg.validate()
    file_cache: dict = {}
    ranks = [_label_rank(cfg, topo.label) for topo in cfg.topologies]
    built = {topo.label: _build_label(cfg, topo, li, file_cache)
             for topo, li in zip(cfg.topologies, ranks)}
    h = cfg.sim.h
    if h is None:
        bound = min(b for *_, b in built.values())
        if not np.isfinite(bound):
            raise InvalidParamsError(
                "stability bound is unbounded; set sim.h explicitly")
        h = 0.5 * bound
    sim = replace(cfg.sim, h=h)

    labels: list[LabelSummary] = []
    per_trial_gaps: dict[str, np.ndarray] = {}
    for topo, li in zip(cfg.topologies, ranks):
        trials, errors, _ = built.pop(topo.label)
        traces: list[TrialTrace] = []
        kept_metrics = []
        for t, trace in zip(trials, run_trials(  # the union lives for the call
                _union(trials), [t.model for t in trials],
                [t.state for t in trials], [t.optimum for t in trials], sim)):
            if trace.diverged:
                logger.warning("label %s trial %d diverged at h=%g",
                               topo.label, t.index, h)
                continue
            traces.append(trace)
            kept_metrics.append(t.metrics)
        if not traces:  # every built trial diverged
            raise _all_failed(cfg, topo, [*errors, (
                trials[0].index, DivergenceError.code, f"diverged at h={h:g}")])
        clusterings, avg_degrees, lambda2s = zip(*kept_metrics)
        gap_matrix = np.vstack([t.gap for t in traces])
        final = gap_matrix[:, -1]
        labels.append(LabelSummary(
            label=topo.label,
            recorded_steps=traces[0].recorded_steps.copy(),
            mean_gap=gap_matrix.mean(axis=0),
            mean_lyapunov=np.vstack([t.lyapunov for t in traces]).mean(axis=0),
            mean_consensus_residual=np.vstack(
                [t.consensus_residual for t in traces]).mean(axis=0),
            mean_tracking_residual=np.vstack(
                [t.tracking_residual for t in traces]).mean(axis=0),
            final_gap_mean=float(final.mean()),
            final_gap_std=float(final.std()),
            mean_clustering=float(np.mean(clusterings)),
            mean_avg_degree=float(np.mean(avg_degrees)),
            mean_lambda2=float(np.mean(lambda2s)),
            trial_count=len(traces),
            diverged_count=len(trials) - len(traces),
            seeds=[trial_seed(cfg.base_seed, li, ti)
                   for ti in range(cfg.trials)],
            errors=errors,
        ))
        if keep_trial_gaps:
            per_trial_gaps[topo.label] = gap_matrix
    return McSummary(h=h, labels=labels, config=config_to_dict(cfg),
                     per_trial_gaps=per_trial_gaps if keep_trial_gaps else None)


def compare_topologies(summary: McSummary, at_step: int) -> list[VerdictRow]:
    """Labels ordered fastest first by mean gap at one recorded step.

    ``at_step`` indexes the recorded trajectory; ties break on the label.
    """
    size = min(len(ls.mean_gap) for ls in summary.labels)
    if not -size <= at_step < size:
        raise IndexOutOfRangeError(
            f"record index {at_step} outside trajectory of length {size}")
    rows = [VerdictRow(label=ls.label,
                       mean_gap=float(ls.mean_gap[at_step]),
                       mean_clustering=ls.mean_clustering)
            for ls in summary.labels]
    return sorted(rows, key=lambda r: (r.mean_gap, r.label))


def scatter_report(graphs: list[tuple[str, Graph]], alpha: float,
                   cost_spec: CostSpec | None = None,
                   base_seed: int = 0) -> list[ScatterRow]:
    """Clustering-versus-spectrum table, one row per graph.

    The rate column evaluates the curvatures at the aggregate optimum of a
    cost model sampled per row.  Disconnected graphs keep their metric
    columns but carry no spectral values.
    """
    cost_spec = cost_spec or CostSpec()
    rows: list[ScatterRow] = []
    for idx, (label, g) in enumerate(graphs):
        cl = global_clustering(g).global_mean
        d = 2.0 * g.edge_count / g.n if g.n else 0.0
        if not is_connected(g):
            rows.append(ScatterRow(label, g.n, d, cl, None, None))
            continue
        rng = np.random.default_rng(trial_seed(base_seed, idx, 0))
        model = sample_cost(cost_spec.family, g.n, rng, cost_spec.m)
        report = spectral_report(g, alpha, optimum_curvatures(model))
        rows.append(ScatterRow(label, g.n, d, cl,
                               report.lambda2_laplacian, report.rate))
    return rows
