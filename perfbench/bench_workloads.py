"""The three benchmark workloads: inputs from the seed, one op, its checks.

Each workload derives every graph seed and ``base_seed`` from the benchmark
seed and the op index, so op ``k`` of a seed is the same work in every run.
``min_ops`` is the fewest ops a run makes.  ``run`` is the timed op and
calls the program only through the public ``clustopt`` API, looked up at call
time so that traced runs see it wrapped.
``check`` runs after the timed loop against invariants and oracles that
share no code with the program; it returns a list of problems (empty = pass).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
from dataclasses import replace

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

import clustopt
import clustopt.cli


def derive_seed(seed: int, workload: str, op: int) -> int:
    tag = int.from_bytes(workload.encode(), "little")
    state = np.random.SeedSequence([seed, tag, op]).generate_state(2, np.uint32)
    return (int(state[0]) << 31) | (int(state[1]) >> 1)


def _adjacency(n: int, edges: np.ndarray) -> sp.csr_matrix:
    ones = np.ones(edges.shape[0])
    a = sp.coo_matrix((ones, (edges[:, 0], edges[:, 1])), shape=(n, n))
    return (a + a.T).tocsr()


def oracle_triangles(n: int, edges: np.ndarray) -> np.ndarray:
    """Triangles through each node: row sums of (A @ A) * A, halved."""
    a = _adjacency(n, edges)
    paths = np.asarray((a @ a).multiply(a).sum(axis=1)).ravel()
    return np.rint(paths / 2.0).astype(np.int64)


def oracle_clustering(n: int, edges: np.ndarray) -> float:
    tri = oracle_triangles(n, edges)
    deg = np.bincount(edges.ravel(), minlength=n).astype(np.float64)
    local = np.zeros(n)
    mask = deg >= 2
    local[mask] = 2.0 * tri[mask] / (deg[mask] * (deg[mask] - 1.0))
    return float(local.mean())


def oracle_connected(n: int, edges: np.ndarray) -> bool:
    return connected_components(_adjacency(n, edges), directed=False)[0] == 1


def oracle_lambda(n: int, edges: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Full spectrum of the weighted Laplacian by a dense symmetric solve."""
    lap = np.zeros((n, n))
    i, j = edges[:, 0], edges[:, 1]
    lap[i, j] -= weights
    lap[j, i] -= weights
    lap[np.diag_indices(n)] = -lap.sum(axis=1)
    return np.linalg.eigvalsh(lap)


class Campaign:
    """One in-process ``clustopt mc`` run of a criterion-5-shaped config."""

    name = "campaign"
    trials_per_op = 3 * 20
    min_ops = 2

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.dir = os.path.join(out_dir, "campaign")
        shutil.rmtree(self.dir, ignore_errors=True)
        # sha256 of summary.json per (program source, base_seed), kept across
        # runs in this checkout: a seed run again must give the same bytes
        self.digests_path = os.path.join(out_dir, "campaign_digests.json")
        self.program = _program_digest()

    def prepare(self, op: int, tag: str = "") -> dict:
        cfg = {
            "topologies": [
                {"label": "SF", "model": "ba", "n": 500, "links": 6},
                {"label": "CSF1", "model": "hk", "n": 500, "links": 6,
                 "triad_links": 1},
                {"label": "CSF2", "model": "hk", "n": 500, "links": 6,
                 "triad_links": 2},
            ],
            "cost_spec": {"family": "quartic", "m": 20},
            "sim": {"alpha": 1.0, "steps": 900, "h": None, "record_stride": 45,
                    "gap_tolerance": 0.0, "x_init_range": [-5.0, 5.0]},
            "trials": 20,
            "base_seed": derive_seed(self.seed, self.name, op),
            "weight_range": [0.5, 1.5],
            "resample_cost": "per_trial",
        }
        op_dir = os.path.join(self.dir, f"op{op}{tag}")
        os.makedirs(op_dir, exist_ok=True)
        path = os.path.join(op_dir, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        return {"config": cfg, "path": path, "out": os.path.join(op_dir, "out")}

    def run(self, inp: dict):
        return clustopt.cli.main(["mc", "--config", inp["path"],
                                  "--out", inp["out"]])

    def _summary_bytes(self, inp: dict) -> bytes:
        with open(os.path.join(inp["out"], "summary.json"), "rb") as fh:
            return fh.read()

    def check(self, inp: dict, rc) -> list[str]:
        if rc != 0:
            return [f"clustopt mc exited {rc}"]
        cfg = inp["config"]
        raw = self._summary_bytes(inp)
        doc = json.loads(raw)
        problems = self._check_digest(cfg["base_seed"], raw)
        if doc["config"]["base_seed"] != cfg["base_seed"]:
            problems.append("summary echoes another base_seed")
        clustering = {}
        for ls in doc["labels"]:
            label = ls["label"]
            if ls["trial_count"] != cfg["trials"]:
                problems.append(f"{label}: {ls['trial_count']} of "
                                f"{cfg['trials']} trials")
            if ls["diverged_count"] or ls["errors"]:
                problems.append(f"{label}: diverged {ls['diverged_count']}, "
                                f"errors {ls['errors']}")
            resid = max(abs(v) for v in ls["mean_tracking_residual"])
            if not resid <= 1e-8:
                problems.append(f"{label}: tracking residual {resid}")
            gap = ls["mean_gap"]
            if not (math.isfinite(gap[-1]) and 0 <= gap[-1] < gap[0]):
                problems.append(f"{label}: gap {gap[0]} -> {gap[-1]}")
            rows = _csv_rows(os.path.join(inp["out"], f"mean_trace_{label}.csv"))
            if rows != len(ls["recorded_steps"]):
                problems.append(f"{label}: mean trace has {rows} rows")
            clustering[label] = ls["mean_clustering"]
        if not clustering.get("SF", 1) < clustering.get("CSF1", 0) \
                < clustering.get("CSF2", -1):
            problems.append(f"clustering order broken: {clustering}")
        return problems

    def _check_digest(self, base_seed: int, raw: bytes) -> list[str]:
        digests = {}
        if os.path.exists(self.digests_path):
            with open(self.digests_path, "r", encoding="utf-8") as fh:
                digests = json.load(fh)
        key = f"{self.program}:{base_seed}"
        digest = hashlib.sha256(raw).hexdigest()
        if digests.setdefault(key, digest) != digest:
            return [f"summary.json for base_seed {base_seed} differs from an "
                    "earlier run of the same program"]
        with open(self.digests_path, "w", encoding="utf-8") as fh:
            json.dump(digests, fh)
        return []

    def same_output(self, inp: dict, out, inp2: dict, out2) -> bool:
        return self._summary_bytes(inp) == self._summary_bytes(inp2)


def _program_digest() -> str:
    """sha256 over the program's source files."""
    pkg = os.path.dirname(os.path.abspath(clustopt.__file__))
    h = hashlib.sha256()
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def _csv_rows(path: str) -> int:
    with open(path, "r", encoding="utf-8") as fh:
        return sum(1 for _ in fh) - 1


class Spectrum:
    """Grow one weighted graph at n = 3000 and analyse it; BA and HK alternate."""

    name = "spectrum"
    trials_per_op = 1
    min_ops = 2
    n, links = 3000, 6

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed

    def prepare(self, op: int, tag: str = "") -> dict:
        return {"seed": derive_seed(self.seed, self.name, op),
                "model": "ba" if op % 2 == 0 else "hk"}

    def run(self, inp: dict) -> dict:
        rng = np.random.default_rng(inp["seed"])
        if inp["model"] == "ba":
            g = clustopt.generate_ba(clustopt.BaParams(self.n, self.links), rng)
        else:
            g = clustopt.generate_hk(
                clustopt.HkParams(self.n, self.links, 1), rng)
        g = clustopt.assign_random_weights(g, rng)
        report = clustopt.global_clustering(g)
        return {"n": g.n, "edges": g.edges, "weights": g.weights,
                "triangles": report.triangles_per_node,
                "clustering": report.global_mean,
                "connected": clustopt.is_connected(g),
                "lambda2": clustopt.lambda2_laplacian(g)}

    def check(self, inp: dict, out: dict) -> list[str]:
        n, edges = out["n"], out["edges"]
        problems = []
        if not (out["connected"] and oracle_connected(n, edges)):
            problems.append(f"connected: program {out['connected']}, "
                            f"oracle {oracle_connected(n, edges)}")
        if not np.array_equal(out["triangles"], oracle_triangles(n, edges)):
            problems.append("triangle counts differ from the oracle")
        ref_c = oracle_clustering(n, edges)
        if not math.isclose(out["clustering"], ref_c, rel_tol=1e-12):
            problems.append(f"clustering {out['clustering']} vs {ref_c}")
        vals = oracle_lambda(n, edges, out["weights"])
        if not abs(out["lambda2"] - vals[1]) <= 1e-8 * vals[-1]:
            problems.append(f"lambda2 {out['lambda2']!r} vs dense {vals[1]!r}")
        return problems

    def same_output(self, inp: dict, out: dict, inp2: dict, out2: dict) -> bool:
        return all(np.array_equal(out[k], out2[k])
                   for k in ("edges", "weights", "triangles", "lambda2"))


class Rewire:
    """Clustering-vs-convergence study on one HK graph at n = 800."""

    name = "rewire"
    trials_per_op = 1
    min_ops = 3  # op time varies with the graph; a median of three is steadier
    n, links, steps, m = 800, 6, 3000, 20
    alpha_rate = 0.001
    max_proposals = 5_000_000

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed

    def prepare(self, op: int, tag: str = "") -> dict:
        return {"seed": derive_seed(self.seed, self.name, op)}

    def run(self, inp: dict) -> dict:
        rng = np.random.default_rng(inp["seed"])
        g = clustopt.generate_hk(clustopt.HkParams(self.n, self.links, 1), rng)
        target = 1.5 * clustopt.global_clustering(g).global_mean
        rewired, report = clustopt.rewire_increase_clustering(
            g, clustopt.RewireParams(target, self.max_proposals), rng)
        rows = clustopt.scatter_report(
            [("original", g), ("rewired", rewired)], self.alpha_rate,
            clustopt.CostSpec("mlloss", self.m), base_seed=inp["seed"])
        model = clustopt.sample_mlloss(self.n, self.m, rng)
        sim = clustopt.SimConfig(alpha=1.0, steps=self.steps, record_stride=100)
        state = clustopt.initialize(g, model, sim, rng)
        h = 0.5 * min(clustopt.stability_max_step(x, sim.alpha, model, state)
                      for x in (g, rewired))
        sim = replace(sim, h=h)
        traces = [clustopt.run(x, model, sim, rng, initial_state=state)
                  for x in (g, rewired)]
        return {"g": g, "rewired": rewired, "target": target, "report": report,
                "rows": rows, "traces": traces}

    def check(self, inp: dict, out: dict) -> list[str]:
        g, r, report = out["g"], out["rewired"], out["report"]
        problems = []
        if r.edge_count != g.edge_count or not np.array_equal(
                np.bincount(g.edges.ravel(), minlength=g.n),
                np.bincount(r.edges.ravel(), minlength=r.n)):
            problems.append("rewiring changed the degree sequence")
        if not oracle_connected(r.n, r.edges):
            problems.append("rewired graph is disconnected")
        if not (report.reached_target and report.final_c >= out["target"]):
            problems.append(f"final_c {report.final_c} below {out['target']}")
        c_prog = clustopt.global_clustering(r).global_mean
        c_ref = oracle_clustering(r.n, r.edges)
        if not (math.isclose(report.final_c, c_prog, rel_tol=1e-12)
                and math.isclose(c_prog, c_ref, rel_tol=1e-12)):
            problems.append(f"final_c {report.final_c} vs recomputed {c_prog}"
                            f" vs oracle {c_ref}")
        for row in out["rows"]:
            if not (row.rate is not None and math.isfinite(row.rate)
                    and row.rate > 0 and row.lambda2 and row.lambda2 > 0):
                problems.append(f"{row.label}: rate {row.rate}, "
                                f"lambda2 {row.lambda2}")
        for label, tr in zip(("original", "rewired"), out["traces"]):
            if tr.diverged or not tr.gap[-1] < tr.gap[0]:
                problems.append(f"{label}: diverged {tr.diverged}, "
                                f"gap {tr.gap[0]} -> {tr.gap[-1]}")
        return problems

    def same_output(self, inp: dict, out: dict, inp2: dict, out2: dict) -> bool:
        return (out["rewired"] == out2["rewired"]
                and out["report"] == out2["report"]
                and out["rows"] == out2["rows"])


WORKLOADS = {w.name: w for w in (Campaign, Spectrum, Rewire)}
