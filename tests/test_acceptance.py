"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  Criteria that need the
real-network edge lists live in test_real_networks.py and skip without data;
the long statistical reproductions carry the ``slow`` marker and are
deselected by default.
"""

import json
import os
import time

import numpy as np
import pytest

from clustopt.cli import main
from clustopt.costs import sample_mlloss, sample_quartic
from clustopt.dynamics import SimConfig, initialize, run, stability_max_step
from clustopt.generators import (
    BaParams,
    HkParams,
    RewireParams,
    generate_ba,
    generate_hk,
    rewire_increase_clustering,
)
from clustopt.graphs import (
    degree_stats,
    global_clustering,
    is_connected,
    laplacian,
    predicted_c_ba,
    predicted_c_hk,
)
from clustopt.montecarlo import (
    CostSpec,
    McConfig,
    TopologySpec,
    run_mc,
    trial_seed,
)
from clustopt.spectral import JacobianSpec, convergence_rate, lambda2_laplacian
from helpers import (
    brute_force_clustering,
    central_difference,
    complete_graph,
    cycle_graph,
    node_gradient,
    node_hessian,
    node_value,
    random_connected_graph,
    random_graph,
)


def verdict(criterion: str, passed: bool, detail: str) -> None:
    print(f"[acceptance] {criterion}: {'PASS' if passed else 'FAIL'} — {detail}",
          flush=True)
    assert passed, f"{criterion}: {detail}"


def test_criterion_01_clustering_oracle_equivalence():
    rng = np.random.default_rng(20260811)
    t0 = time.time()
    worst = 0.0
    for _ in range(100):
        g = random_graph(rng, int(rng.integers(2, 51)), 0.2)
        got = global_clustering(g).global_mean
        want = brute_force_clustering(g)
        worst = max(worst, abs(got - want))
    elapsed = time.time() - t0
    verdict("criterion 1 (clustering oracle, 100 graphs)",
            worst <= 1e-12 and elapsed < 5.0,
            f"max deviation {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_ba_clustering_prediction_desk():
    vals = []
    for s in range(20):
        g = generate_ba(BaParams(n=2000, links=10),
                        np.random.default_rng(trial_seed(2, 0, s)))
        vals.append(global_clustering(g).global_mean)
    mean = float(np.mean(vals))
    pred = predicted_c_ba(2000, 10)
    ok = abs(mean - pred) <= 0.5 * pred
    verdict("criterion 2 (analytic clustering, preferential attachment)",
            ok, f"mean C {mean:.4f} vs predicted {pred:.4f}")


@pytest.mark.slow
def test_criterion_02_ba_clustering_prediction_long():
    vals = []
    for s in range(20):
        g = generate_ba(BaParams(n=10000, links=30),
                        np.random.default_rng(trial_seed(2, 1, s)))
        vals.append(global_clustering(g).global_mean)
    mean = float(np.mean(vals))
    verdict("criterion 2 long (n=1e4, 30 links)",
            0.02 <= mean <= 0.045, f"mean C {mean:.4f}, window [0.02, 0.045]")


def test_criterion_03_hk_clustering_prediction_desk():
    means = []
    preds = []
    for l2 in (1, 2, 3):
        vals = []
        for s in range(20):
            g = generate_hk(HkParams(n=2000, links=10, triad_links=l2),
                            np.random.default_rng(trial_seed(3, l2, s)))
            vals.append(global_clustering(g).global_mean)
        d = 2.0 * g.edge_count / g.n
        means.append(float(np.mean(vals)))
        preds.append(predicted_c_hk(2000, 10, l2, d))
    increasing = means[0] < means[1] < means[2]
    within = [abs(m - p) <= 0.25 * p for m, p in zip(means, preds)]
    detail = ", ".join(
        f"L2={l2}: C {m:.4f} vs pred {p:.4f} ({'ok' if w else 'out'})"
        for l2, m, p, w in zip((1, 2, 3), means, preds, within))
    verdict("criterion 3 (triad-formation clustering vs analytic estimate)",
            increasing and all(within),
            detail + f"; increasing={increasing}")


@pytest.mark.slow
def test_criterion_03_hk_clustering_prediction_long():
    results = {}
    for l2, center, width in ((2, 0.102, 0.02), (4, 0.172, 0.03)):
        vals = []
        for s in range(10):
            g = generate_hk(HkParams(n=10000, links=30, triad_links=l2),
                            np.random.default_rng(trial_seed(3, 10 + l2, s)))
            vals.append(global_clustering(g).global_mean)
        results[l2] = (float(np.mean(vals)), center, width)
    ok = all(abs(m - c) <= w for m, c, w in results.values())
    verdict("criterion 3 long (n=1e4, 30 links)", ok,
            "; ".join(f"L2={k}: C {m:.4f} vs {c}±{w}"
                      for k, (m, c, w) in results.items()))


def test_criterion_04_degree_parity():
    d_ba, d_hk = [], []
    for s in range(20):
        ba = generate_ba(BaParams(n=2000, links=10),
                         np.random.default_rng(trial_seed(4, 0, s)))
        hk = generate_hk(HkParams(n=2000, links=10, triad_links=2),
                         np.random.default_rng(trial_seed(4, 1, s)))
        d_ba.append(degree_stats(ba).average)
        d_hk.append(degree_stats(hk).average)
    mba, mhk = float(np.mean(d_ba)), float(np.mean(d_hk))
    verdict("criterion 4 (average-degree parity)",
            abs(mhk - mba) <= 0.02 * mba,
            f"BA {mba:.3f} vs triad model {mhk:.3f}")


def test_criterion_05_topology_ordering_at_desk_scale():
    t0 = time.time()
    cfg = McConfig(
        topologies=(
            TopologySpec(label="SF", model="ba", n=500, links=6),
            TopologySpec(label="CSF1", model="hk", n=500, links=6,
                         triad_links=1),
            TopologySpec(label="CSF2", model="hk", n=500, links=6,
                         triad_links=2),
        ),
        cost_spec=CostSpec(family="quartic"),
        sim=SimConfig(alpha=1.0, steps=900, record_stride=45),
        trials=20,
        base_seed=2,
    )
    summary = run_mc(cfg)
    by_label = {ls.label: ls for ls in summary.labels}
    lyap = [float(by_label[k].mean_lyapunov[-1]) for k in ("SF", "CSF1", "CSF2")]
    clus = [by_label[k].mean_clustering for k in ("SF", "CSF1", "CSF2")]
    elapsed = time.time() - t0
    ordered = lyap[0] < lyap[1] < lyap[2]
    opposite = clus[0] < clus[1] < clus[2]
    verdict("criterion 5 (slower convergence on clustered topologies)",
            ordered and opposite and elapsed < 600,
            f"final optimality gap (Lyapunov) {lyap[0]:.3e} < {lyap[1]:.3e} "
            f"< {lyap[2]:.3e}; clustering {clus[0]:.3f} < {clus[1]:.3f} "
            f"< {clus[2]:.3f}; {elapsed:.0f}s")


def test_criterion_06_spectral_oracles():
    worst_complete = max(abs(lambda2_laplacian(complete_graph(n)) - n)
                         for n in range(4, 51))
    worst_cycle = max(
        abs(lambda2_laplacian(cycle_graph(n)) - (2 - 2 * np.cos(2 * np.pi / n)))
        for n in range(4, 51))
    rng = np.random.default_rng(606)
    worst_rate = 0.0
    for _ in range(20):
        g = random_connected_graph(rng, int(rng.integers(4, 40)))
        rate = convergence_rate(JacobianSpec(
            laplacian(g), alpha=1.0, hessian_diag=np.zeros(g.n)))
        worst_rate = max(worst_rate, abs(rate - lambda2_laplacian(g)))
    verdict("criterion 6 (spectral oracles)",
            worst_complete <= 1e-8 and worst_cycle <= 1e-8
            and worst_rate <= 1e-8,
            f"complete {worst_complete:.1e}, cycle {worst_cycle:.1e}, "
            f"curvature-free rate vs connectivity {worst_rate:.1e}")


REAL_NETWORK_ROWS = [
    # stem, n, d, C, lambda2, rate at alpha=1e-3 with quartic curvatures
    ("food_web", 127, 16.69, 0.0057, 0.669, 0.91),
    ("facebook_small", 247, 7.61, 0.0489, 0.207, 0.197),
    ("elegans", 453, 8.973, 0.124, 0.264, 0.241),
]


def _dataset_path(stem: str):
    root = os.environ.get("CLUSTOPT_DATA_DIR")
    if not root:
        return None
    for ext in (".txt", ".tsv", ".edges", ""):
        path = os.path.join(root, stem + ext)
        if os.path.isfile(path):
            return path
    return None


@pytest.mark.dataset
@pytest.mark.parametrize("stem,n,d,c,lam2,rate", REAL_NETWORK_ROWS)
def test_criterion_07_real_network_analytics(stem, n, d, c, lam2, rate):
    path = _dataset_path(stem)
    if path is None:
        pytest.skip(f"criterion 7: no edge list for {stem} "
                    "(set CLUSTOPT_DATA_DIR, see README)")
    from clustopt.graph_io import IngestOptions, parse_edge_list
    from clustopt.montecarlo import scatter_report

    with open(path, "r", encoding="utf-8") as fh:
        g = parse_edge_list(fh.read(), IngestOptions())
    row = scatter_report([(stem, g)], alpha=0.001)[0]
    checks = {
        "n": row.n == n,
        "d": abs(row.avg_degree - d) <= 0.005,
        "C": abs(row.clustering - c) <= 0.005,
        "lambda2": abs(row.lambda2 - lam2) <= 1e-3,
        "rate": abs(row.rate - rate) <= 0.25 * rate,
    }
    verdict(f"criterion 7 ({stem})", all(checks.values()),
            f"n={row.n}, d={row.avg_degree:.3f}, C={row.clustering:.4f}, "
            f"lambda2={row.lambda2:.4f}, rate={row.rate:.4f}; "
            f"failed={[k for k, v in checks.items() if not v]}")


def test_criterion_08_rewiring_and_convergence_penalty():
    rng = np.random.default_rng(trial_seed(8, 0, 0))
    g = generate_hk(HkParams(n=1788, links=7, triad_links=1), rng)
    d = 2.0 * g.edge_count / g.n
    c0 = global_clustering(g).global_mean
    rewired, report = rewire_increase_clustering(
        g, RewireParams(target_clustering=1.5 * c0, max_swaps=2_000_000), rng)

    degrees_equal = np.array_equal(degree_stats(rewired).degrees,
                                   degree_stats(g).degrees)
    raised = report.final_c >= 1.5 * c0
    structure_ok = (rewired.edge_count == g.edge_count
                    and is_connected(rewired) and 13.5 <= d <= 14.5)

    model = sample_quartic(g.n, np.random.default_rng(trial_seed(8, 1, 0)))
    cfg_probe = SimConfig(alpha=1.0, steps=1)
    state = initialize(g, model, cfg_probe, np.random.default_rng(trial_seed(8, 2, 0)))
    h = 0.5 * min(stability_max_step(g, 1.0, model, state),
                  stability_max_step(rewired, 1.0, model, state))
    cfg = SimConfig(alpha=1.0, steps=2500, h=h, record_stride=2500)
    from clustopt.dynamics import NodeState

    tr_orig = run(g, model, cfg, np.random.default_rng(0),
                  initial_state=NodeState(state.x.copy(), state.y.copy()))
    tr_rew = run(rewired, model, cfg, np.random.default_rng(0),
                 initial_state=NodeState(state.x.copy(), state.y.copy()))
    slower = tr_rew.lyapunov[-1] > tr_orig.lyapunov[-1]
    verdict("criterion 8 (rewiring raises clustering and slows convergence)",
            degrees_equal and raised and structure_ok and slower,
            f"C {c0:.3f} -> {report.final_c:.3f} (+{report.final_c / c0 - 1:.0%}), "
            f"d {d:.2f}, degrees preserved {degrees_equal}, "
            f"final gap (Lyapunov) {tr_orig.lyapunov[-1]:.3e} vs rewired "
            f"{tr_rew.lyapunov[-1]:.3e}")


def test_criterion_09_derivative_correctness():
    rng = np.random.default_rng(909)
    worst = 0.0
    for model in (sample_quartic(20, rng), sample_mlloss(20, 20, rng)):
        for _ in range(100):
            i = int(rng.integers(0, 20))
            x = float(rng.uniform(-8, 8))
            g_fd = central_difference(lambda t: node_value(model, i, t), x)
            h_fd = central_difference(lambda t: node_gradient(model, i, t), x)
            scale_g = max(abs(g_fd), 1e-3)
            scale_h = max(abs(h_fd), 1e-3)
            worst = max(worst,
                        abs(node_gradient(model, i, x) - g_fd) / scale_g,
                        abs(node_hessian(model, i, x) - h_fd) / scale_h)
    verdict("criterion 9 (derivatives vs finite differences)",
            worst < 1e-6, f"worst relative error {worst:.2e}")


def test_criterion_10_tracking_conservation():
    rng = np.random.default_rng(1010)
    worst = 0.0
    cases = []
    for family in ("quartic", "mlloss"):
        g = random_connected_graph(rng, 60, extra_p=0.05)
        model = (sample_quartic(60, rng) if family == "quartic"
                 else sample_mlloss(60, 20, rng))
        cfg = SimConfig(alpha=1.0, steps=3000, record_stride=500)
        trace = run(g, model, cfg, rng)
        bound = 1e-9 * (1 + trace.max_abs_gradient_sum)
        cases.append(trace.max_tracking_residual / bound)
        worst = max(worst, trace.max_tracking_residual / bound)
    verdict("criterion 10 (tracking conservation law)",
            worst <= 1.0, f"worst residual/bound ratio {worst:.2e}")


def test_criterion_11_integrator_order():
    g = random_connected_graph(np.random.default_rng(1111), 10)
    model = sample_quartic(10, np.random.default_rng(1112))
    horizon, h0 = 2.0, 0.002

    def final_state(h):
        steps = int(round(horizon / h))
        cfg = SimConfig(alpha=1.0, steps=steps, h=h, record_stride=steps)
        tr = run(g, model, cfg, np.random.default_rng(1113))
        return np.concatenate([tr.final_state.x, tr.final_state.y])

    ref = final_state(h0 / 10)
    ratio = (np.linalg.norm(final_state(h0) - ref)
             / np.linalg.norm(final_state(h0 / 2) - ref))
    verdict("criterion 11 (first-order step-size convergence)",
            1.6 <= ratio <= 2.4, f"error ratio h vs h/2 = {ratio:.3f}")


def test_criterion_12_bitwise_reproducible_campaigns(tmp_path):
    config = {
        "topologies": [
            {"label": "SF", "model": "ba", "n": 120, "links": 4},
            {"label": "CSF", "model": "hk", "n": 120, "links": 4,
             "triad_links": 1},
        ],
        "cost_spec": {"family": "quartic", "m": 20},
        "sim": {"alpha": 1.0, "steps": 400, "h": None, "record_stride": 100,
                "gap_tolerance": 0.0, "x_init_range": [-5.0, 5.0]},
        "trials": 5,
        "base_seed": 1212,
        "weight_range": [0.5, 1.5],
        "resample_cost": "per_trial",
    }
    cfg_path = tmp_path / "campaign.json"
    cfg_path.write_text(json.dumps(config))
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    rc1 = main(["mc", "--config", str(cfg_path), "--out", str(out1)])
    rc2 = main(["mc", "--config", str(cfg_path), "--out", str(out2)])
    identical = ((out1 / "summary.json").read_bytes()
                 == (out2 / "summary.json").read_bytes())
    verdict("criterion 12 (bit-identical campaign outputs)",
            rc1 == 0 and rc2 == 0 and identical,
            f"exit codes {rc1}/{rc2}, summary.json identical: {identical}")
