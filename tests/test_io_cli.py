import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import clustopt
from clustopt.cli import main
from clustopt.dynamics import SimConfig, run
from clustopt.errors import (
    DuplicateEdgeError,
    EmptyGraphError,
    GraphParseError,
    MalformedLineError,
    VersionMismatchError,
)
from clustopt.generators import HkParams, generate_hk
from clustopt.graph_io import (
    IngestOptions,
    dumps_graph,
    format_scatter_csv,
    format_trace_csv,
    largest_component,
    loads_graph,
    parse_edge_list,
    read_graph,
    write_graph,
)
from clustopt.graphs import build_graph, global_clustering
from clustopt.montecarlo import ScatterRow
from clustopt.costs import sample_quartic
from clustopt.spectral import LOBPCG_MIN_ORDER
from helpers import complete_graph


class TestGraphJson:
    def test_triangle_round_trip(self):
        g = build_graph([(0, 1, 1.0), (0, 2, 0.75), (1, 2, 1.25)])
        assert loads_graph(dumps_graph(g)) == g

    def test_file_round_trip_bytes(self, tmp_path):
        g = complete_graph(5)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_graph(g, str(p1))
        write_graph(read_graph(str(p1)), str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_version_mismatch(self):
        with pytest.raises(VersionMismatchError):
            loads_graph('{"version": 2, "n": 1, "edges": []}')

    def test_malformed_document(self):
        with pytest.raises(GraphParseError):
            loads_graph("[1, 2, 3]")
        with pytest.raises(GraphParseError):
            loads_graph("{nope")
        with pytest.raises(GraphParseError):
            loads_graph('{"version": 1, "n": 2}')

    def test_generated_hk_round_trip(self):
        g = generate_hk(HkParams(n=10000, links=3, triad_links=1),
                        np.random.default_rng(4))
        assert loads_graph(dumps_graph(g)) == g


class TestEdgeListIngestion:
    def test_comment_and_triangle(self):
        g = parse_edge_list("% comment\n1 2\n2 3\n3 1\n")
        assert g.n == 3
        assert g.edge_count == 3
        assert (g.weights == 1.0).all()

    def test_self_loop_dropped_by_default(self):
        g = parse_edge_list("1 1\n1 2\n")
        assert g.n == 2
        assert g.edge_count == 1

    def test_self_loop_rejected_when_kept(self):
        with pytest.raises(MalformedLineError):
            parse_edge_list("1 1\n1 2\n",
                            IngestOptions(drop_self_loops=False))

    def test_duplicates_merge_to_first(self):
        g = parse_edge_list("1 2 5.0\n2 1 9.0\n",
                            IngestOptions(use_weights=True))
        assert g.edge_count == 1
        assert g.weights.tolist() == [5.0]

    def test_duplicates_rejected_when_merging_off(self):
        with pytest.raises(DuplicateEdgeError):
            parse_edge_list("1 2\n2 1\n",
                            IngestOptions(merge_duplicate_edges=False))

    def test_weight_and_timestamp_columns(self):
        g = parse_edge_list("1 2 2.5 1234567\n2 3 0.5 1234568\n",
                            IngestOptions(use_weights=True))
        assert g.weights.tolist() == [2.5, 0.5]
        unit = parse_edge_list("1 2 2.5 1234567\n")
        assert unit.weights.tolist() == [1.0]

    def test_zero_based_ids(self):
        g = parse_edge_list("0 1\n1 2\n")
        assert g.n == 3

    def test_first_appearance_compaction(self):
        g = parse_edge_list("7 3\n3 9\n")
        # 7 -> 0, 3 -> 1, 9 -> 2
        assert g.edges.tolist() == [[0, 1], [1, 2]]

    def test_malformed_lines_report_position(self):
        with pytest.raises(MalformedLineError) as exc:
            parse_edge_list("1 2\nx y\n")
        assert exc.value.line_number == 2
        with pytest.raises(MalformedLineError):
            parse_edge_list("1 2 3 4 5\n")

    def test_empty_input_rejected(self):
        with pytest.raises(EmptyGraphError):
            parse_edge_list("% only comments\n")

    def test_largest_component_extraction(self):
        text = "1 2\n2 3\n3 1\n10 11\n"
        g = parse_edge_list(text)
        assert g.n == 3
        both = parse_edge_list(text, IngestOptions(largest_component_only=False))
        assert both.n == 5

    def test_ingestion_idempotent_via_canonical_document(self):
        g = parse_edge_list("5 9\n9 2\n2 5\n4 5\n")
        assert loads_graph(dumps_graph(g)) == g

    def test_reingesting_rendered_edge_list_preserves_metrics(self):
        g = parse_edge_list("5 9\n9 2\n2 5\n4 5\n7 4\n")
        rendered = "\n".join(f"{i} {j}" for i, j in g.edges) + "\n"
        g2 = parse_edge_list(rendered)
        assert g2.n == g.n
        assert g2.edge_count == g.edge_count
        assert global_clustering(g2).global_mean == pytest.approx(
            global_clustering(g).global_mean, abs=1e-15)

    def test_largest_component_of_connected_graph_is_identity(self):
        g = complete_graph(4)
        assert largest_component(g) == g

    def test_largest_component_tie_goes_to_lowest_node(self):
        # two triangles of equal size; the one holding node 1 wins
        g = build_graph([(0, 5, 1.0), (1, 2, 2.0), (2, 3, 2.0), (1, 3, 2.0),
                         (4, 6, 3.0), (6, 7, 3.0), (4, 7, 3.0)])
        lcc = largest_component(g)
        assert lcc.n == 3
        assert lcc.edges.tolist() == [[0, 1], [0, 2], [1, 2]]
        assert (lcc.weights == 2.0).all()


class TestCsvEmitters:
    def test_trace_csv_schema(self):
        g = build_graph([(0, 1, 1.0)])
        model = sample_quartic(2, np.random.default_rng(0))
        trace = run(g, model, SimConfig(alpha=1.0, steps=10, h=1e-3,
                                        record_stride=5),
                    np.random.default_rng(1))
        text = format_trace_csv(trace)
        lines = text.strip().split("\n")
        assert lines[0] == "step,gap,lyapunov,consensus_residual,tracking_residual"
        assert len(lines) == 1 + len(trace.recorded_steps)
        first = lines[1].split(",")
        assert int(first[0]) == 0
        assert float(first[1]) == trace.gap[0]

    def test_scatter_csv_blank_cells_for_missing(self):
        rows = [ScatterRow("x", 4, 1.0, 0.0, None, None),
                ScatterRow("y", 3, 2.0, 1.0, 3.0, 2.5)]
        text = format_scatter_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == "name,n,d,C,lambda2,rate"
        assert lines[1] == "x,4,1.0,0.0,,"
        assert lines[2] == "y,3,2.0,1.0,3.0,2.5"


class TestCli:
    def test_generate_and_metrics(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        assert main(["generate", "--model", "ba", "--n", "100", "--l", "3",
                     "--seed", "7", "--out", str(out)]) == 0
        assert out.exists()
        assert main(["metrics", "--in", str(out), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n"] == 100
        assert doc["edges"] == 3 + 97 * 3
        assert doc["connected"] is True

    def test_generate_hk_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["generate", "--model", "hk", "--n", "50", "--l", "3",
                "--l2", "1", "--seed", "3"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_metrics_csv(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        write_graph(complete_graph(4), str(out))
        assert main(["metrics", "--in", str(out), "--csv"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0].startswith("n,edges,avg_degree")
        assert lines[1].split(",")[0] == "4"

    def test_spectral_happy_path(self, tmp_path, capsys):
        out = tmp_path / "k6.json"
        write_graph(complete_graph(6), str(out))
        assert main(["spectral", "--in", str(out), "--alpha", "0.001"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "name,n,d,C,lambda2,rate"
        fields = lines[1].split(",")
        assert fields[0] == "k6"
        assert float(fields[4]) == pytest.approx(6.0, abs=1e-8)

    def test_spectral_random_weights_deterministic(self, tmp_path, capsys):
        out = tmp_path / "k6.json"
        write_graph(complete_graph(6), str(out))
        args = ["spectral", "--in", str(out), "--alpha", "0.01",
                "--cost", "quartic", "--cost-seed", "4",
                "--weights", "random", "--wlow", "0.5", "--whigh", "1.5",
                "--seed", "9"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first
        lam2 = float(first.strip().split("\n")[1].split(",")[4])
        assert 0 < lam2 < 9.0  # perturbed away from the unit-weight value 6

    def test_spectral_disconnected_exits_1(self, tmp_path, capsys):
        out = tmp_path / "disc.json"
        write_graph(build_graph([(0, 1, 1), (2, 3, 1)], n=4), str(out))
        assert main(["spectral", "--in", str(out), "--alpha", "0.001"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: disconnected:")
        assert "connectivity" in err
        assert err.count("\n") == 1

    def test_optimize_writes_trace_and_sidecar(self, tmp_path):
        g = tmp_path / "g.json"
        write_graph(complete_graph(8), str(g))
        out = tmp_path / "trace.csv"
        assert main(["optimize", "--in", str(g), "--cost", "quartic",
                     "--alpha", "1.0", "--steps", "50", "--seed", "3",
                     "--out", str(out)]) == 0
        assert out.read_text().startswith("step,gap,lyapunov")
        meta = json.loads((tmp_path / "trace.csv.meta.json").read_text())
        assert meta["steps"] == 50
        assert meta["seed"] == 3
        assert meta["h"] > 0

    def test_rewire_roundtrip(self, tmp_path, capsys):
        g = tmp_path / "g.json"
        assert main(["generate", "--model", "hk", "--n", "120", "--l", "4",
                     "--l2", "1", "--seed", "1", "--out", str(g)]) == 0
        out = tmp_path / "rew.json"
        assert main(["rewire", "--in", str(g), "--target-c", "0.9",
                     "--max-swaps", "2000", "--seed", "2",
                     "--out", str(out)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report) == {"swaps_attempted", "swaps_accepted",
                               "swaps_rolled_back", "initial_c", "final_c",
                               "reached_target"}
        rew = read_graph(str(out))
        assert rew.edge_count == read_graph(str(g)).edge_count

    def test_ingest_konect(self, tmp_path):
        src = tmp_path / "net.tsv"
        src.write_text("% meta\n1 2\n2 3\n3 1\n9 9\n")
        out = tmp_path / "net.json"
        assert main(["ingest", "--format", "konect", "--in", str(src),
                     "--out", str(out)]) == 0
        assert read_graph(str(out)).n == 3

    def test_scatter_cli(self, tmp_path):
        g = tmp_path / "k5.json"
        write_graph(complete_graph(5), str(g))
        out = tmp_path / "scatter.csv"
        assert main(["scatter", "--inputs", str(g), "--alpha", "0.001",
                     "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "name,n,d,C,lambda2,rate"
        assert lines[1].startswith("k5,5,")

    def test_mc_end_to_end_and_reproducible(self, tmp_path):
        config = {
            "topologies": [
                {"label": "SF", "model": "ba", "n": 40, "links": 3},
                {"label": "CSF", "model": "hk", "n": 40, "links": 3,
                 "triad_links": 1},
            ],
            "cost_spec": {"family": "quartic", "m": 20},
            "sim": {"alpha": 1.0, "steps": 100, "h": None,
                    "record_stride": 25, "gap_tolerance": 0.0,
                    "x_init_range": [-5.0, 5.0]},
            "trials": 2,
            "base_seed": 11,
            "weight_range": [0.5, 1.5],
            "resample_cost": "per_trial",
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        assert main(["mc", "--config", str(cfg_path), "--out", str(out1)]) == 0
        assert main(["mc", "--config", str(cfg_path), "--out", str(out2)]) == 0
        s1 = (out1 / "summary.json").read_bytes()
        s2 = (out2 / "summary.json").read_bytes()
        assert s1 == s2
        assert (out1 / "mean_trace_SF.csv").exists()
        assert (out1 / "mean_trace_CSF.csv").read_bytes() \
            == (out2 / "mean_trace_CSF.csv").read_bytes()

    @pytest.mark.parametrize("path, value", [
        (("weight_range",), [0.5, 1, 2]),
        (("sim", "x_init_range"), [1.0]),
        (("topologies", 0, "n"), "30"),
        (("topologies",), []),
        (("trials",), 2.5),
        (("base_seed",), True),
        (("cost_spec", "m"), 20.5),
        (("sim", "steps"), 10.9),
        (("sim", "record_stride"), True),
        (("topologies", 0, "triad_links"), 1.7),
        (("topologies", 0, "n"), True),
        (("topologies", 0, "links"), True),
        (("cost_spec", "family"), "foo"),
        (("cost_spec", "m"), 0),
        # a bool or a string where a number goes is not coerced
        (("sim", "alpha"), True),
        (("sim", "alpha"), "1e0"),
        (("sim", "gap_tolerance"), "0"),
        (("weight_range",), [True, 2]),
        (("sim", "x_init_range"), [False, True]),
        (("topologies", 0, "label"), 5),
        # a key that names no field is not ignored
        (("resample_costs",), "once"),
        (("topologies", 0, "bogus"), 1),
        # a field its model does not take
        (("topologies", 0, "triad_links"), 2),
        # a label that cannot be part of mean_trace_<label>.csv
        (("topologies", 0, "label"), "a/b"),
        (("topologies", 0, "label"), "../escaped"),
        (("sim",), [1]),
        # a real that is not a finite float
        pytest.param(("sim", "alpha"), 10 ** 400, id="path26-10**400"),
        (("sim", "alpha"), float("inf")),
        (("sim", "alpha"), float("nan")),
        (("sim", "h"), float("inf")),
        (("sim", "x_init_range"), [-float("inf"), float("inf")]),
        (("weight_range",), [0.5, float("inf")]),
    ])
    def test_mc_malformed_config_exits_1(self, tmp_path, capsys, path, value):
        config = {
            "topologies": [{"label": "SF", "model": "ba", "n": 30, "links": 3}],
            "cost_spec": {"family": "quartic", "m": 20},
            "sim": {"alpha": 1.0, "steps": 10, "h": None, "record_stride": 5,
                    "gap_tolerance": 0.0, "x_init_range": [-5.0, 5.0]},
            "trials": 1,
            "base_seed": 3,
            "weight_range": [0.5, 1.5],
        }
        *parents, last = path
        target = config
        for key in parents:
            target = target[key]
        target[last] = value
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["mc", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid-params:")
        assert last in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", [
        ["optimize", "--in", "{g}", "--cost", "quartic", "--alpha", "1.0",
         "--steps", "5", "--out", "{d}/trace.csv"],
        ["scatter", "--inputs", "{g}", "--alpha", "1.0", "--out", "{d}/s.csv"],
        ["spectral", "--in", "{g}", "--alpha", "1.0", "--cost", "quartic"],
        ["mc", "--config", "{d}/per_trial.json", "--out", "{d}/out"],
        ["mc", "--config", "{d}/once.json", "--out", "{d}/out"],
    ], ids=["optimize", "scatter", "spectral", "mc-per_trial", "mc-once"])
    def test_empty_graph_exits_1(self, tmp_path, command):
        """A graph with no nodes gets no cost model: one error line from
        the command line, not a numpy traceback."""
        g = tmp_path / "empty.json"
        g.write_text('{"version": 1, "n": 0, "edges": []}')
        for resample in ("per_trial", "once"):
            (tmp_path / f"{resample}.json").write_text(json.dumps({
                "topologies": [{"label": "real", "model": "file",
                                "path": str(g)}],
                "sim": {"alpha": 1.0, "steps": 10},
                "trials": 1, "base_seed": 3, "resample_cost": resample}))
        src = os.path.dirname(os.path.dirname(clustopt.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-m", "clustopt.cli",
             *(arg.format(g=g, d=tmp_path) for arg in command)],
            env=env, capture_output=True, text=True)
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "Traceback" not in proc.stderr
        if command[0] == "mc":  # one fault, one code, under either setting
            assert lines[0].startswith("error: invalid-params: ")

    @pytest.mark.parametrize("n, edges, named", [
        ("3.9", "[[0, 1, 1.0]]", "n=3.9"),
        ('"3"', "[[0, 1, 1.0]]", "n='3'"),
        ("true", "[]", "n=True"),
        ("3", "[[0.7, 1, 1.0]]", "edge row 0"),
        ("3", "[[0, 1, 1.0], [0, 2.2, 1.0]]", "edge row 1"),
        ("3", '[[0, 1, "2"]]', "edge row 0"),
        ("3", "[[0, 1, 1, 5]]", "edge row 0"),
    ], ids=["n-float", "n-string", "n-bool", "endpoint-0.7", "endpoint-2.2",
            "weight-string", "four-items"])
    def test_malformed_graph_document_exits_1(self, tmp_path, capsys, n,
                                              edges, named):
        """A graph document is read as written or not at all: no field is
        truncated or converted, and the error names the field or row."""
        path = tmp_path / "g.json"
        path.write_text(f'{{"version": 1, "n": {n}, "edges": {edges}}}')
        assert main(["metrics", "--in", str(path)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: parse-error: ")
        assert named in lines[0]

    @pytest.mark.parametrize("command", [["metrics"],
                                         ["spectral", "--alpha", "1.0"]],
                             ids=["metrics", "spectral"])
    @pytest.mark.parametrize("n", [10 ** 30, 2 ** 63], ids=["1e30", "2^63"])
    def test_node_count_beyond_int64_exits_1(self, tmp_path, capsys, command,
                                             n):
        """A node count no int64 holds is refused when the graph is built,
        not met as an overflow at the first degree or Laplacian."""
        path = tmp_path / "g.json"
        path.write_text(f'{{"version": 1, "n": {n}, "edges": [[0, 1, 1.0]]}}')
        assert main([command[0], "--in", str(path), *command[1:]]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: index-out-of-range: ")

    @pytest.mark.parametrize("version", ["true", "1.0"])
    def test_non_integer_version_exits_1(self, tmp_path, capsys, version):
        """The version is the JSON integer 1, not a value equal to it."""
        path = tmp_path / "g.json"
        path.write_text(f'{{"version": {version}, "n": 2, '
                        '"edges": [[0, 1, 1.0]]}')
        assert main(["metrics", "--in", str(path)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: parse-error: ")

    @pytest.mark.parametrize("line", ["1_0 2", "١ 2"],
                             ids=["separator", "arabic-indic"])
    def test_non_decimal_node_id_exits_1(self, tmp_path, capsys, line):
        """An edge-list id is ASCII decimal digits: int() would read
        ``1_0`` as node 10 and an Arabic-Indic one as node 1."""
        path = tmp_path / "edges.txt"
        path.write_text(f"{line}\n2 3\n", encoding="utf-8")
        assert main(["ingest", "--format", "konect", "--in", str(path),
                     "--out", str(tmp_path / "g.json")]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: malformed-line: line 1: "
                                   "non-integer node id")

    def test_usage_errors_exit_2(self, capsys):
        assert main(["generate", "--model", "ba"]) == 2
        assert main(["nonsense"]) == 2
        capsys.readouterr()

    def test_missing_file_exits_1(self, tmp_path, capsys):
        assert main(["metrics", "--in", str(tmp_path / "nope.json")]) == 1
        assert capsys.readouterr().err.startswith("error: io-error:")


@pytest.mark.parametrize("n, trials, base_seed", [
    (500, 3, 3),
    (300, 6, 3),
    (60, 20, 3),
    (150, 20, 1),
    (300, 1, 1),  # one trial per label
])
def test_mc_summary_bytes_do_not_depend_on_blas_threads(tmp_path, n, trials,
                                                        base_seed):
    """From LOBPCG_MIN_ORDER up every campaign lambda2 is a stacked LOBPCG
    solve, whose bits do not depend on the OpenBLAS thread count, whatever
    the order and the number of trials.  Solved by dsyevr per graph, the
    n = 150 and the one-trial configs gave a mean_lambda2 that differed
    between 1 and 2 threads."""
    assert n >= LOBPCG_MIN_ORDER
    cfg = {
        "topologies": [
            {"label": "SF", "model": "ba", "n": n, "links": 6},
            {"label": "CSF", "model": "hk", "n": n, "links": 6,
             "triad_links": 1},
        ],
        "cost_spec": {"family": "quartic", "m": 20},
        "sim": {"alpha": 1.0, "steps": 10, "h": None, "record_stride": 5},
        "trials": trials,
        "base_seed": base_seed,
        "weight_range": [0.5, 1.5],
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    src = os.path.dirname(os.path.dirname(clustopt.__file__))
    digests = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       [src, os.environ.get("PYTHONPATH", "")]))
        subprocess.run([sys.executable, "-m", "clustopt.cli", "mc",
                        "--config", str(path), "--out", str(out)],
                       env=env, check=True, capture_output=True)
        digests.append(
            hashlib.sha256((out / "summary.json").read_bytes()).hexdigest())
    assert digests[0] == digests[1]
