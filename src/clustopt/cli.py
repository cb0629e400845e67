"""Command-line surface tying the modules into complete workflows.

Exit codes: 0 on success, 1 on a domain error (one machine-parsable line on
stderr), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import graph_io
from .costs import aggregate_optimum, sample_cost
from .dynamics import SimConfig, run
from .errors import ClustoptError, DisconnectedError
from .generators import BaParams, HkParams, RewireParams, generate_ba, generate_hk, \
    rewire_increase_clustering
from .graphs import assign_random_weights, degree_stats, global_clustering, \
    is_connected, unit_weights
from .montecarlo import CostSpec, read_config, run_mc, scatter_report
from .spectral import spectral_report


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clustopt",
        description="Scale-free graph clustering versus decentralized "
                    "optimization convergence.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a scale-free graph")
    p.add_argument("--model", choices=("ba", "hk"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, required=True, dest="links")
    p.add_argument("--l2", type=int, default=0, dest="triad_links")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("metrics", help="degree and clustering metrics")
    p.add_argument("--in", required=True, dest="infile")
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--csv", action="store_true")

    p = sub.add_parser("spectral", help="connectivity and rate measure")
    p.add_argument("--in", required=True, dest="infile")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--cost", choices=("quartic", "mlloss"))
    p.add_argument("--cost-seed", type=int, default=0)
    p.add_argument("--weights", choices=("unit", "random"), default="unit")
    p.add_argument("--wlow", type=float, default=0.5)
    p.add_argument("--whigh", type=float, default=1.5)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("optimize", help="run the gradient-tracking dynamics")
    p.add_argument("--in", required=True, dest="infile")
    p.add_argument("--cost", choices=("quartic", "mlloss"), required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--h", type=float)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("rewire", help="raise clustering, degrees fixed")
    p.add_argument("--in", required=True, dest="infile")
    p.add_argument("--target-c", type=float, required=True, dest="target_c")
    p.add_argument("--max-swaps", type=int, required=True, dest="max_swaps")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("mc", help="run a Monte-Carlo campaign")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("ingest", help="parse a real-network edge list")
    p.add_argument("--format", choices=("konect",), required=True)
    p.add_argument("--in", required=True, dest="infile")
    p.add_argument("--keep-all-components", action="store_true")
    p.add_argument("--use-weights", action="store_true")
    p.add_argument("--out", required=True)

    p = sub.add_parser("scatter", help="clustering vs spectrum table")
    p.add_argument("--inputs", nargs="+", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--out", required=True)

    return parser


def _cmd_generate(args) -> int:
    rng = np.random.default_rng(args.seed)
    if args.model == "ba":
        g = generate_ba(BaParams(args.n, args.links), rng)
    else:
        g = generate_hk(HkParams(args.n, args.links, args.triad_links), rng)
    graph_io.write_graph(g, args.out)
    return 0


def _cmd_metrics(args) -> int:
    g = graph_io.read_graph(args.infile)
    stats = degree_stats(g)
    report = global_clustering(g)
    doc = {
        "n": g.n,
        "edges": g.edge_count,
        "avg_degree": stats.average,
        "max_degree": stats.max,
        "clustering_global": report.global_mean,
        "connected": is_connected(g),
    }
    if args.csv:
        print(",".join(doc.keys()))
        print(",".join(json.dumps(v) for v in doc.values()))
    else:
        print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


def _cmd_spectral(args) -> int:
    g = graph_io.read_graph(args.infile)
    if not is_connected(g):
        raise DisconnectedError(
            "graph is disconnected; algebraic connectivity is 0 and the "
            "rate measure is undefined")
    if args.weights == "random":
        g = assign_random_weights(g, np.random.default_rng(args.seed),
                                  args.wlow, args.whigh)
    else:
        g = unit_weights(g)
    hdiag = None
    if args.cost:
        rng = np.random.default_rng(args.cost_seed)
        model = sample_cost(args.cost, g.n, rng)
        cert = aggregate_optimum(model)
        hdiag = model.hessian_nodes(np.full(g.n, cert.x_star))
    report = spectral_report(g, args.alpha, hdiag)
    name = os.path.splitext(os.path.basename(args.infile))[0]
    cl = global_clustering(g).global_mean
    d = 2.0 * g.edge_count / g.n
    print(graph_io.SCATTER_HEADER)
    print(f"{name},{g.n},{d!r},{cl!r},{report.lambda2_laplacian!r},"
          f"{report.rate!r}")
    return 0


def _cmd_optimize(args) -> int:
    g = graph_io.read_graph(args.infile)
    rng = np.random.default_rng(args.seed)
    model = sample_cost(args.cost, g.n, rng)
    cfg = SimConfig(alpha=args.alpha, steps=args.steps, h=args.h)
    trace = run(g, model, cfg, rng)
    graph_io.write_trace_csv(trace, args.out)
    graph_io.write_trace_meta(args.out + ".meta.json", cfg, trace, args.seed)
    return 0


def _cmd_rewire(args) -> int:
    g = graph_io.read_graph(args.infile)
    params = RewireParams(target_clustering=args.target_c,
                          max_swaps=args.max_swaps)
    out, report = rewire_increase_clustering(
        g, params, np.random.default_rng(args.seed))
    graph_io.write_graph(out, args.out)
    print(json.dumps(report.to_dict(), sort_keys=True))
    return 0


def _cmd_mc(args) -> int:
    cfg = read_config(args.config)
    summary = run_mc(cfg)
    graph_io.write_campaign_outputs(summary, args.out)
    return 0


def _cmd_ingest(args) -> int:
    with open(args.infile, "r", encoding="utf-8") as fh:
        text = fh.read()
    opts = graph_io.IngestOptions(
        largest_component_only=not args.keep_all_components,
        use_weights=args.use_weights)
    g = graph_io.parse_edge_list(text, opts)
    graph_io.write_graph(g, args.out)
    return 0


def _cmd_scatter(args) -> int:
    graphs = []
    for path in args.inputs:
        name = os.path.splitext(os.path.basename(path))[0]
        graphs.append((name, graph_io.read_graph(path)))
    rows = scatter_report(graphs, args.alpha, CostSpec(family="quartic"),
                          base_seed=0)
    graph_io.write_scatter_csv(rows, args.out)
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "metrics": _cmd_metrics,
    "spectral": _cmd_spectral,
    "optimize": _cmd_optimize,
    "rewire": _cmd_rewire,
    "mc": _cmd_mc,
    "ingest": _cmd_ingest,
    "scatter": _cmd_scatter,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except ClustoptError as exc:
        msg = " ".join(str(exc).split())
        print(f"error: {exc.code}: {msg}", file=sys.stderr)
        return 1
    except OSError as exc:
        msg = " ".join(str(exc).split())
        print(f"error: io-error: {msg}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
