"""Graph serialization, edge-list ingestion, and CSV/JSON emitters.

The canonical graph document is

    {"version": 1, "n": <int>, "edges": [[i, j, w], ...]}

with ``i < j`` and rows sorted lexicographically — exactly the internal
canonical order, so write/read round-trips are byte-stable.

Edge-list ingestion accepts the KONECT conventions: ``%``-prefixed comment
lines, whitespace-separated ``u v [weight [timestamp]]`` rows, 0- or 1-based
ids.  Node ids are compacted to 0..n-1 in order of first appearance.

The scatter and campaign emitters read the result objects of
:mod:`clustopt.montecarlo` (``ScatterRow``, ``LabelSummary``, ``McSummary``)
by attribute and dataclass field only, so this module never imports it;
:func:`to_plain` writes them and the config dataclasses, whose reader lives
next to ``McConfig``.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from .dynamics import SimConfig, TrialTrace
from .errors import (
    EmptyGraphError,
    GraphParseError,
    IndexOutOfRangeError,
    MalformedLineError,
    SizeLimitError,
    VersionMismatchError,
)
from .graphs import DEFAULT_SIZE_CAP, Graph, _components, _is_int, _is_real, \
    laplacian_sparse

GRAPH_FORMAT_VERSION = 1
# an edge-list node id: ASCII decimal digits with an optional sign, where
# int() would also take digit separators ("1_0") and non-ASCII digits
_NODE_ID = re.compile(r"[+-]?[0-9]+")

TRACE_HEADER = "step,gap,lyapunov,consensus_residual,tracking_residual"
SCATTER_HEADER = "name,n,d,C,lambda2,rate"


# -- graph JSON ----------------------------------------------------------


def dumps_graph(g: Graph) -> str:
    edges = [[int(i), int(j), float(w)]
             for (i, j), w in zip(g.edges, g.weights)]
    return json.dumps({"version": GRAPH_FORMAT_VERSION, "n": g.n,
                       "edges": edges})


def loads_graph(text: str) -> Graph:
    """The graph of a document as written: the version, ``n`` and each row's
    ``i`` and ``j`` integers and ``w`` a finite number, or
    :class:`GraphParseError`; :class:`SizeLimitError` when ``n`` exceeds
    ``DEFAULT_SIZE_CAP``."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "version" not in doc:
        raise GraphParseError("graph document must be an object with a version")
    if not _is_int(doc["version"]):
        raise GraphParseError("graph document version must be an integer, "
                              f"got {doc['version']!r}")
    if doc["version"] != GRAPH_FORMAT_VERSION:
        raise VersionMismatchError(
            f"unsupported graph document version {doc['version']!r}")
    n, rows = doc.get("n"), doc.get("edges")
    if not (_is_int(n) and isinstance(rows, list)):
        raise GraphParseError(f"need an integer n and a list of edges, got n={n!r}")
    for k, r in enumerate(rows):
        if not (isinstance(r, list) and len(r) == 3 and _is_int(r[0])
                and _is_int(r[1]) and _is_real(r[2])):
            raise GraphParseError(f"edge row {k} is not [i, j, w] with integer "
                                  f"i, j and a finite weight w: {r!r}")
    try:  # an endpoint beyond int64
        g = Graph(n, [r[:2] for r in rows], [r[2] for r in rows])
    except OverflowError as exc:
        raise IndexOutOfRangeError(f"edge endpoint outside [0, {n})") from exc
    if g.n > DEFAULT_SIZE_CAP:
        raise SizeLimitError(f"node count {g.n} exceeds cap {DEFAULT_SIZE_CAP}")
    return g


def write_graph(g: Graph, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_graph(g))
        fh.write("\n")


def read_graph(path: str) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_graph(fh.read())


# -- edge-list ingestion ---------------------------------------------------


@dataclass(frozen=True)
class IngestOptions:
    largest_component_only: bool = True
    use_weights: bool = False


def parse_edge_list(text: str, opts: IngestOptions = IngestOptions()) -> Graph:
    """Parse a KONECT-style edge list into a simple undirected graph.

    Direction and timestamps are ignored; the weight column is used only
    when ``opts.use_weights`` is set, otherwise every edge gets weight 1.
    Self-loops are dropped, and duplicate pairs collapse to their first
    occurrence.
    """
    ids: dict[int, int] = {}
    edge_weight: dict[tuple[int, int], float] = {}  # in order of first appearance

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        parts = line.split()
        if len(parts) < 2 or len(parts) > 4:
            raise MalformedLineError(lineno, raw, "expected 2-4 columns")
        if not (_NODE_ID.fullmatch(parts[0]) and _NODE_ID.fullmatch(parts[1])):
            raise MalformedLineError(lineno, raw, "non-integer node id")
        u, v = int(parts[0]), int(parts[1])
        w = 1.0
        if opts.use_weights and len(parts) >= 3:
            try:
                w = float(parts[2])
            except ValueError:
                raise MalformedLineError(lineno, raw, "non-numeric weight")
        if u == v:
            continue
        for node in (u, v):
            if node not in ids:
                ids[node] = len(ids)
        a, b = ids[u], ids[v]
        edge_weight.setdefault((a, b) if a < b else (b, a), w)

    if not ids:
        raise EmptyGraphError("no nodes found in edge list")

    g = Graph(len(ids), list(edge_weight), list(edge_weight.values()))
    if opts.largest_component_only:
        g = largest_component(g)
    return g


def largest_component(g: Graph) -> Graph:
    """Subgraph on the largest connected component, ids compacted in order.

    Among equally large components, the one holding the lowest node wins.
    """
    if g.n == 0:
        raise EmptyGraphError("graph has no nodes")
    _, labels = _components(laplacian_sparse(g))
    keep = labels == labels[np.argmax(np.bincount(labels)[labels])]
    relabel = np.cumsum(keep) - 1
    mask = keep[g.edges[:, 0]]
    return Graph(int(keep.sum()), relabel[g.edges[mask]], g.weights[mask])


# -- CSV emitters -----------------------------------------------------------


def _trace_csv(steps, *columns) -> str:
    lines = [TRACE_HEADER]
    for k, step in enumerate(steps):
        lines.append(",".join([str(int(step))]
                              + [repr(float(c[k])) for c in columns]))
    return "\n".join(lines) + "\n"


def format_trace_csv(trace: TrialTrace) -> str:
    return _trace_csv(trace.recorded_steps, trace.gap, trace.lyapunov,
                      trace.consensus_residual, trace.tracking_residual)


def write_trace_csv(trace: TrialTrace, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_trace_csv(trace))


def write_trace_meta(path: str, cfg: SimConfig, trace: TrialTrace,
                     seed: int | None) -> None:
    doc = {**to_plain(cfg), "h": trace.h, "seed": seed,
           "diverged": trace.diverged,
           "max_tracking_residual": trace.max_tracking_residual}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True))
        fh.write("\n")


def format_mean_trace_csv(ls) -> str:
    return _trace_csv(ls.recorded_steps, ls.mean_gap, ls.mean_lyapunov,
                      ls.mean_consensus_residual, ls.mean_tracking_residual)


def format_scatter_csv(rows) -> str:
    lines = [SCATTER_HEADER]
    for r in rows:
        lam = "" if r.lambda2 is None else repr(float(r.lambda2))
        rate = "" if r.rate is None else repr(float(r.rate))
        lines.append(f"{r.label},{r.n},{float(r.avg_degree)!r},"
                     f"{float(r.clustering)!r},{lam},{rate}")
    return "\n".join(lines) + "\n"


def write_scatter_csv(rows, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_scatter_csv(rows))


# -- campaign summary ------------------------------------------------------


def to_plain(obj):
    """The JSON form of a dataclass, field by field, with tuples and arrays
    as lists; a class whose ``echo_defaults`` is false leaves out every field
    equal to its default."""
    if isinstance(obj, tuple):
        return [to_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if not is_dataclass(obj):
        return obj
    keep = getattr(obj, "echo_defaults", True)
    return {f.name: to_plain(getattr(obj, f.name)) for f in fields(obj)
            if keep or getattr(obj, f.name) != f.default}


def summary_to_dict(summary) -> dict:
    return {
        "h": summary.h,
        "config": summary.config,
        "labels": [to_plain(ls) for ls in summary.labels],
    }


def format_summary_json(summary) -> str:
    return json.dumps(summary_to_dict(summary), indent=2, sort_keys=True) + "\n"


def write_campaign_outputs(summary, outdir: str) -> None:
    """Emit ``summary.json`` plus one mean-trace CSV per label."""
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "summary.json"), "w", encoding="utf-8") as fh:
        fh.write(format_summary_json(summary))
    for ls in summary.labels:
        path = os.path.join(outdir, f"mean_trace_{ls.label}.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(format_mean_trace_csv(ls))
