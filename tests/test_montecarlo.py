import json
import os
import pathlib
import re
from dataclasses import fields, replace

import numpy as np
import pytest

from clustopt.costs import sample_quartic
from clustopt.dynamics import SimConfig, run, run_trials
from clustopt.errors import ClustoptError, DivergenceError, GraphParseError, \
    IndexOutOfRangeError, InvalidParamsError
from clustopt.graph_io import format_summary_json
from clustopt.graphs import build_graph
from clustopt.montecarlo import (
    CostSpec,
    LabelSummary,
    McConfig,
    McSummary,
    TopologySpec,
    compare_topologies,
    config_from_dict,
    config_to_dict,
    run_mc,
    scatter_report,
    trial_seed,
)
from helpers import complete_graph


def small_config(base_seed=5, trials=3, labels=("A", "B")):
    topos = tuple(
        TopologySpec(label=lab, model="ba", n=40, links=3) for lab in labels)
    return McConfig(
        topologies=topos,
        cost_spec=CostSpec(family="quartic"),
        sim=SimConfig(alpha=1.0, steps=200, record_stride=50),
        trials=trials,
        base_seed=base_seed,
    )


class TestTrialSeed:
    def test_deterministic(self):
        assert trial_seed(9, 0, 0) == trial_seed(9, 0, 0)

    def test_argument_positions_matter(self):
        assert trial_seed(9, 0, 1) != trial_seed(9, 1, 0)

    def test_injective_on_probe_grid(self):
        seen = set()
        for li in range(100):
            for ti in range(100):
                seen.add(trial_seed(123456789, li, ti))
        assert len(seen) == 10000

    def test_base_seeds_disjoint_on_probe_grid(self):
        grid_a = {trial_seed(1, li, ti) for li in range(50) for ti in range(50)}
        grid_b = {trial_seed(2, li, ti) for li in range(50) for ti in range(50)}
        assert not (grid_a & grid_b)

    def test_negative_indices_rejected(self):
        with pytest.raises(InvalidParamsError):
            trial_seed(1, -1, 0)


def _campaign_doc():
    """A valid campaign config document with every section present."""
    return config_to_dict(McConfig(
        topologies=(TopologySpec(label="CSF", model="hk", n=30, links=3,
                                 triad_links=1),),
        cost_spec=CostSpec(), sim=SimConfig(alpha=1.0, steps=10),
        trials=1, base_seed=3))


class TestConfigReader:
    # where each config dataclass sits in a campaign config document
    SECTIONS = {McConfig: lambda doc: doc,
                TopologySpec: lambda doc: doc["topologies"][0],
                CostSpec: lambda doc: doc["cost_spec"],
                SimConfig: lambda doc: doc["sim"]}

    @pytest.mark.parametrize("cls", list(SECTIONS), ids=lambda c: c.__name__)
    def test_a_bool_is_valid_in_no_field(self, cls):
        config_from_dict(_campaign_doc()).validate()
        for f in fields(cls):
            doc = _campaign_doc()
            self.SECTIONS[cls](doc)[f.name] = True
            with pytest.raises(InvalidParamsError, match=f.name):
                config_from_dict(doc).validate()

    def test_missing_required_key_is_a_parse_error(self):
        doc = _campaign_doc()
        del doc["sim"]["steps"]
        with pytest.raises(GraphParseError, match="sim.steps"):
            config_from_dict(doc)

    def test_optional_keys_and_sections_may_be_left_out(self):
        doc = _campaign_doc()
        for key in ("cost_spec", "weight_range", "resample_cost"):
            del doc[key]
        doc["sim"] = {"alpha": 1.0, "steps": 10}
        doc["topologies"] = [{"label": "SF", "model": "ba", "n": 30, "links": 3}]
        cfg = config_from_dict(doc)
        assert cfg.cost_spec == CostSpec()
        assert cfg.sim == SimConfig(alpha=1.0, steps=10)
        assert cfg.topologies == (TopologySpec("SF", "ba", 30, 3),)

    def test_readme_example_round_trips(self):
        readme = pathlib.Path(__file__).parents[1] / "README.md"
        block = re.search(r"### Campaign config\n.*?```json\n(.*?)```",
                          readme.read_text(encoding="utf-8"), re.S)
        doc = json.loads(block.group(1))
        assert config_to_dict(config_from_dict(doc)) == doc

    @pytest.mark.parametrize("topo", [
        TopologySpec("SF", "ba", 30, 3, path="g.json"),
        TopologySpec("CSF", "hk", 30, 3, 1, path="g.json"),
        TopologySpec("F", "file", n=30, path="g.json"),
        TopologySpec("F", "file", links=3, path="g.json"),
        TopologySpec("F", "file", triad_links=1, path="g.json"),
        TopologySpec("F", "file", seed_size=3, path="g.json"),
    ])
    def test_field_foreign_to_the_model_rejected(self, topo):
        with pytest.raises(InvalidParamsError, match="takes no"):
            topo.validate()

    @pytest.mark.parametrize("label", [f"a{os.sep}b", "a\0b"])
    def test_label_that_is_no_file_name_part_rejected(self, label):
        with pytest.raises(InvalidParamsError, match="file name"):
            TopologySpec(label, "ba", 30, 3).validate()

    def test_bool_pairs_rejected_in_python_configs(self):
        with pytest.raises(InvalidParamsError, match="weight_range"):
            replace(small_config(), weight_range=(True, 2)).validate()
        with pytest.raises(InvalidParamsError, match="x_init_range"):
            SimConfig(alpha=1.0, steps=1, x_init_range=(False, True)).validate()

    @pytest.mark.parametrize("via", ["run", "run_mc"])
    @pytest.mark.parametrize("name, value", [("steps", 5.5),
                                             ("record_stride", 1.5)])
    def test_non_integer_sim_field_rejected_in_python_configs(self, via, name,
                                                               value):
        sim = replace(SimConfig(alpha=1.0, steps=5), **{name: value})
        rng = np.random.default_rng(0)
        with pytest.raises(InvalidParamsError, match=name):
            if via == "run":
                run(complete_graph(4), sample_quartic(4, rng), sim, rng)
            else:
                run_mc(replace(small_config(trials=1), sim=sim))

    @pytest.mark.parametrize("name, change", [
        ("cost_spec.m", {"cost_spec": CostSpec("mlloss", 2.5)}),
        ("cost_spec.m", {"cost_spec": CostSpec("mlloss", True)}),
        ("trials", {"trials": 2.5}),
        ("base_seed", {"base_seed": 1.5}),
    ])
    def test_non_integer_campaign_field_rejected_in_python_configs(self, name,
                                                                    change):
        with pytest.raises(InvalidParamsError, match=name):
            run_mc(replace(small_config(trials=1), **change))


class TestRunMc:
    def test_single_trial_summary_equals_trace(self):
        cfg = small_config(trials=1, labels=("only",))
        summary = run_mc(cfg, keep_trial_gaps=True)
        ls = summary.labels[0]
        single = summary.per_trial_gaps["only"]
        assert single.shape[0] == 1
        assert np.array_equal(ls.mean_gap, single[0])
        assert ls.final_gap_std == 0.0
        assert ls.trial_count == 1

    def test_bit_reproducible(self):
        s1 = run_mc(small_config())
        s2 = run_mc(small_config())
        assert format_summary_json(s1) == format_summary_json(s2)

    def test_label_order_permutation_preserves_means(self):
        fwd = run_mc(small_config(labels=("A", "B")))
        rev = run_mc(small_config(labels=("B", "A")))
        by_label_fwd = {ls.label: ls for ls in fwd.labels}
        by_label_rev = {ls.label: ls for ls in rev.labels}
        assert [ls.label for ls in rev.labels] == ["B", "A"]
        for lab in ("A", "B"):
            assert np.array_equal(by_label_fwd[lab].mean_gap,
                                  by_label_rev[lab].mean_gap)
            assert by_label_fwd[lab].mean_clustering \
                == by_label_rev[lab].mean_clustering

    def test_leave_one_out_mean_shift_bound(self):
        cfg = small_config(trials=6, labels=("X",))
        summary = run_mc(cfg, keep_trial_gaps=True)
        gaps = summary.per_trial_gaps["X"]
        mean = gaps.mean(axis=0)
        spread = gaps.max(axis=0) - gaps.min(axis=0)
        for i in range(gaps.shape[0]):
            rest = np.delete(gaps, i, axis=0).mean(axis=0)
            assert (np.abs(mean - rest) <= spread / gaps.shape[0] + 1e-15).all()

    def test_file_topology(self, tmp_path):
        from clustopt.graph_io import write_graph

        path = tmp_path / "g.json"
        write_graph(complete_graph(12), str(path))
        cfg = McConfig(
            topologies=(TopologySpec(label="K", model="file", path=str(path)),),
            cost_spec=CostSpec(family="mlloss", m=5),
            sim=SimConfig(alpha=1.0, steps=100, record_stride=25),
            trials=2,
            base_seed=3,
        )
        summary = run_mc(cfg)
        assert summary.labels[0].mean_clustering == 1.0
        assert summary.labels[0].trial_count == 2

    def test_gap_tolerance_rejected_in_campaigns(self):
        cfg = small_config()
        bad = McConfig(
            topologies=cfg.topologies, cost_spec=cfg.cost_spec,
            sim=SimConfig(alpha=1.0, steps=10, gap_tolerance=1e-3),
            trials=2, base_seed=1)
        with pytest.raises(InvalidParamsError):
            run_mc(bad)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(InvalidParamsError):
            run_mc(small_config(labels=("same", "same")))

    def test_all_trials_failing_label_raises(self, tmp_path):
        from clustopt.graph_io import write_graph

        path = tmp_path / "disc.json"
        write_graph(build_graph([(0, 1, 1), (2, 3, 1)], n=4), str(path))
        cfg = McConfig(
            topologies=(TopologySpec(label="D", model="file", path=str(path)),),
            cost_spec=CostSpec(family="quartic"),
            sim=SimConfig(alpha=1.0, steps=10, h=1e-3),
            trials=2,
            base_seed=1,
        )
        with pytest.raises(ClustoptError):
            run_mc(cfg)

    def test_diverged_trials_are_excluded_from_means(self, caplog):
        # h sits between the per-trial stability thresholds, so a fixed
        # subset of trials blows up and must be dropped from aggregation
        cfg = McConfig(
            topologies=(TopologySpec(label="A", model="ba", n=30, links=2),),
            cost_spec=CostSpec(family="quartic"),
            sim=SimConfig(alpha=1.0, steps=800, record_stride=200, h=0.06),
            trials=8,
            base_seed=99,
        )
        with caplog.at_level("WARNING", logger="clustopt.montecarlo"):
            summary = run_mc(cfg)
        ls = summary.labels[0]
        assert ls.diverged_count == 4
        assert ls.trial_count == 4
        assert np.isfinite(ls.mean_gap).all()
        assert sum("diverged" in r.message for r in caplog.records) == 4

    def test_label_whose_trials_all_diverge_raises_divergence(self):
        cfg = McConfig(
            topologies=(TopologySpec(label="A", model="ba", n=30, links=2),),
            cost_spec=CostSpec(family="quartic"),
            sim=SimConfig(alpha=1.0, steps=800, record_stride=200, h=1.0),
            trials=3,
            base_seed=99,
        )
        with pytest.raises(DivergenceError) as info:
            run_mc(cfg)
        assert str(info.value) == (
            "all 3 trials of label 'A' failed: trial 0: diverged at h=1")

    def test_resample_once_shares_model_across_trials(self):
        cfg = small_config(trials=2, labels=("A",))
        cfg_once = McConfig(
            topologies=cfg.topologies, cost_spec=cfg.cost_spec,
            sim=cfg.sim, trials=2, base_seed=5, resample_cost="once")
        summary = run_mc(cfg_once)
        assert summary.labels[0].trial_count == 2

    def test_resample_once_shares_model_across_labels(self, monkeypatch):
        """Under "once", every trial of both equal-order labels integrates
        on one cost model, as trial t of each does under "per_trial"."""
        from clustopt import montecarlo

        used = []

        def recording_run_trials(lap, models, *rest):
            used.extend(models)
            return run_trials(lap, models, *rest)

        monkeypatch.setattr(montecarlo, "run_trials", recording_run_trials)
        run_mc(replace(small_config(trials=2), resample_cost="once"))
        assert len(used) == 4
        for model in used:
            assert np.array_equal(model.a, used[0].a)
            assert np.array_equal(model.b, used[0].b)


def _with_h(cfg, h):
    return replace(cfg, sim=replace(cfg.sim, h=h))


def _assert_same_summary(a, b):
    assert a.h == b.h
    assert [ls.label for ls in a.labels] == [ls.label for ls in b.labels]
    for la, lb in zip(a.labels, b.labels):
        for name, value in vars(la).items():
            if isinstance(value, np.ndarray):
                assert np.array_equal(value, getattr(lb, name)), name
            else:
                assert value == getattr(lb, name), name
        assert np.array_equal(a.per_trial_gaps[la.label],
                              b.per_trial_gaps[lb.label])


class TestOneGrowthPerTrial:
    @pytest.mark.parametrize("h", [None, 0.01])
    def test_grows_labels_times_trials_graphs(self, monkeypatch, h):
        """Each trial's graph is grown, and its inputs are built, once."""
        from clustopt import generators, montecarlo

        calls, inits = [], []
        grow, initialize = generators._grow, montecarlo.initialize

        def counting_grow(*args):
            calls.append(args[0])
            return grow(*args)

        def counting_initialize(*args):
            inits.append(args[0])
            return initialize(*args)

        monkeypatch.setattr(generators, "_grow", counting_grow)
        monkeypatch.setattr(montecarlo, "initialize", counting_initialize)
        cfg = McConfig(
            topologies=(TopologySpec("BA", "ba", n=40, links=3),
                        TopologySpec("HK", "hk", n=40, links=3,
                                     triad_links=2)),
            cost_spec=CostSpec(family="quartic"),
            sim=SimConfig(alpha=1.0, steps=20, h=h, record_stride=10),
            trials=4,
            base_seed=8,
        )
        run_mc(cfg)
        assert len(calls) == 2 * 4
        assert len(inits) == 2 * 4

    @pytest.mark.parametrize("case", ["ba", "hk", "file", "once"])
    def test_derived_h_matches_the_same_h_given(self, tmp_path, case):
        """A campaign that derives ``h`` and one given that ``h`` agree bit
        for bit."""
        from clustopt.graph_io import write_graph
        from clustopt.generators import BaParams, generate_ba

        topo = {
            "ba": TopologySpec("T", "ba", n=60, links=3),
            "hk": TopologySpec("T", "hk", n=60, links=4, triad_links=2),
            "file": TopologySpec("T", "file", path=str(tmp_path / "g.json")),
            "once": TopologySpec("T", "hk", n=60, links=3, triad_links=1),
        }[case]
        write_graph(generate_ba(BaParams(60, 3), np.random.default_rng(4)),
                    str(tmp_path / "g.json"))
        cfg = McConfig(
            topologies=(topo, TopologySpec("SF", "ba", n=60, links=2)),
            cost_spec=CostSpec(family="quartic"),
            sim=SimConfig(alpha=1.0, steps=60, record_stride=20),
            trials=3,
            base_seed=17,
            resample_cost="once" if case == "once" else "per_trial",
        )
        derived = run_mc(cfg, keep_trial_gaps=True)
        fresh = run_mc(_with_h(cfg, derived.h), keep_trial_gaps=True)
        _assert_same_summary(derived, fresh)

    @pytest.mark.parametrize("h", [None, 1e-3])
    def test_failed_label_raises_the_same_error_for_any_h(
            self, tmp_path, monkeypatch, h):
        """``D`` is disconnected and raised.  Once every metric of ``A``,
        declared before it, fails too, ``A`` is the one raised."""
        from clustopt import montecarlo
        from clustopt.errors import ConvergenceError, DisconnectedError
        from clustopt.graph_io import write_graph

        def failing_lambda2(n, parts):
            return [ConvergenceError("no lambda2")] * len(parts)

        path = tmp_path / "disc.json"
        write_graph(build_graph([(0, 1, 1), (2, 3, 1)], n=4), str(path))
        cfg = McConfig(
            topologies=(TopologySpec("A", "ba", n=30, links=3),
                        TopologySpec("D", "file", path=str(path))),
            cost_spec=CostSpec(family="quartic"),
            sim=SimConfig(alpha=1.0, steps=10, h=h),
            trials=2,
            base_seed=1,
        )
        for failing, error, cause in (
                ("D", DisconnectedError, "dynamics require a connected graph"),
                ("A", ConvergenceError, "no lambda2")):
            if failing == "A":
                monkeypatch.setattr(montecarlo, "lambda2_blocks",
                                    failing_lambda2)
            with pytest.raises(error) as info:
                run_mc(cfg)
            assert info.value.code == error.code
            assert str(info.value) == (
                f"all 2 trials of label {failing!r} failed: trial 0: {cause}")

    def test_failed_trial_is_ledgered_once_and_left_out_of_h(
            self, monkeypatch):
        """Trial 1 of every label fails to initialize.  The derived ``h``
        is the bound over the other trials, and both settings of ``h``
        record the failure once per label."""
        from clustopt import montecarlo
        from clustopt.costs import sample_quartic
        from clustopt.errors import DisconnectedError

        cfg = small_config(base_seed=6, trials=3)
        unpatched_h = run_mc(cfg).h
        bad = sample_quartic(40, np.random.default_rng(
            trial_seed(6, montecarlo._SHARED_LABEL, 1))).a[0]
        initialize = montecarlo.initialize

        def failing_initialize(g, model, sim, rng):
            if model.a[0] == bad:
                raise DisconnectedError("trial 1 fails")
            return initialize(g, model, sim, rng)

        monkeypatch.setattr(montecarlo, "initialize", failing_initialize)
        derived = run_mc(cfg, keep_trial_gaps=True)
        fresh = run_mc(_with_h(cfg, derived.h), keep_trial_gaps=True)
        _assert_same_summary(derived, fresh)
        for ls in derived.labels:
            assert ls.errors == [(1, "disconnected", "trial 1 fails")]
            assert ls.trial_count == 2
        # a bound taken over fewer trials is no tighter
        assert derived.h >= unpatched_h

    def test_failed_lambda2_is_ledgered_in_trial_order_and_kept_in_h(
            self, monkeypatch):
        """Trial 2 of every label fails to initialize, and trial 1's lambda2
        fails in label SF, whose trial 1 has the smallest stability bound.
        Each failure is ledgered once, in trial order, the bound of trial 1
        still sets ``h``, and every other lambda2 is the lone one."""
        from clustopt import montecarlo
        from clustopt.costs import sample_quartic
        from clustopt.dynamics import stability_max_step
        from clustopt.errors import ConvergenceError, DisconnectedError
        from clustopt.spectral import DENSE_LIMIT, lambda2_laplacian

        cfg = McConfig(
            topologies=(TopologySpec("SF", "ba", n=500, links=3),
                        TopologySpec("CSF", "hk", n=500, links=3,
                                     triad_links=1)),
            cost_spec=CostSpec(family="quartic"),
            sim=SimConfig(alpha=1.0, steps=10, record_stride=5),
            trials=4,
            base_seed=6,
        )
        assert 500 > DENSE_LIMIT  # the labels' lambda2 are stacked LOBPCG
        bad = sample_quartic(500, np.random.default_rng(
            trial_seed(6, montecarlo._SHARED_LABEL, 2))).a[0]
        initialize, blocks = montecarlo.initialize, montecarlo.lambda2_blocks

        def failing_initialize(g, model, sim, rng):
            if model.a[0] == bad:
                raise DisconnectedError("trial 2 fails")
            return initialize(g, model, sim, rng)

        def failing_lambda2(n, parts):  # SF is built first: trials 0, 1, 3
            out = blocks(n, parts)
            if not calls:
                out[1] = ConvergenceError("no lambda2")
            calls.append(len(parts))
            return out

        monkeypatch.setattr(montecarlo, "initialize", failing_initialize)
        unpatched = run_mc(cfg)
        calls: list[int] = []
        monkeypatch.setattr(montecarlo, "lambda2_blocks", failing_lambda2)
        summary = run_mc(cfg)
        assert calls == [3, 3]  # one call per label
        sf, csf = summary.labels
        assert sf.errors == [(1, "convergence-failure", "no lambda2"),
                             (2, "disconnected", "trial 2 fails")]
        assert csf.errors == [(2, "disconnected", "trial 2 fails")]
        assert (sf.trial_count, csf.trial_count) == (2, 3)
        lone = {}
        for topo in cfg.topologies:
            li = montecarlo._label_rank(cfg, topo.label)
            for ti in (0, 1, 3):
                g, rng = montecarlo._trial_graph(cfg, topo, li, ti, {})
                wg, model, state = montecarlo._trial_inputs(cfg, g, rng, ti,
                                                            None)
                lone[topo.label, ti] = (lambda2_laplacian(wg),
                                        stability_max_step(wg, 1.0, model,
                                                           state))
        assert summary.h == unpatched.h == 0.5 * min(b for _, b in lone.values())
        assert summary.h == 0.5 * lone["SF", 1][1]
        assert sf.mean_lambda2 == float(np.mean([lone["SF", 0][0],
                                                 lone["SF", 3][0]]))
        assert csf.mean_lambda2 == unpatched.labels[1].mean_lambda2 == float(
            np.mean([lone["CSF", ti][0] for ti in (0, 1, 3)]))


class TestStackedIntegration:
    """Each label's trials are integrated as one stacked system."""

    def test_per_trial_gaps_match_one_trial_at_a_time(self):
        from clustopt import montecarlo
        from helpers import reference_run

        # h sits between the per-trial stability thresholds: four of the
        # eight trials diverge inside the stack
        cfg = McConfig(
            topologies=(TopologySpec(label="A", model="ba", n=30, links=2),
                        TopologySpec(label="B", model="hk", n=30, links=2,
                                     triad_links=1)),
            cost_spec=CostSpec(family="quartic"),
            sim=SimConfig(alpha=1.0, steps=800, record_stride=200, h=0.06),
            trials=8,
            base_seed=99,
        )
        summary = run_mc(cfg, keep_trial_gaps=True)
        for topo, ls in zip(cfg.topologies, summary.labels):
            li = montecarlo._label_rank(cfg, topo.label)
            rows = []
            for ti in range(cfg.trials):
                g, rng = montecarlo._trial_graph(cfg, topo, li, ti, {})
                wg, model, state = montecarlo._trial_inputs(
                    cfg, g, rng, ti, None)
                trace = reference_run(wg, model, cfg.sim, rng,
                                      initial_state=state)
                if not trace.diverged:
                    rows.append(trace.gap)
            assert ls.diverged_count == cfg.trials - len(rows)
            assert np.array_equal(summary.per_trial_gaps[topo.label],
                                  np.vstack(rows))
        assert summary.labels[0].diverged_count == 4

    @pytest.mark.parametrize("h", [None, 0.01])
    def test_failed_optimum_is_ledgered_once(self, monkeypatch, h):
        """Trial 1's aggregate optimum raises; the rest of each label still
        integrates, to the same bits as without the failure."""
        from clustopt import montecarlo
        from clustopt.costs import sample_quartic
        from clustopt.errors import BracketError

        cfg = _with_h(small_config(base_seed=6, trials=3), h)
        clean = run_mc(cfg, keep_trial_gaps=True)
        bad = sample_quartic(40, np.random.default_rng(
            trial_seed(6, montecarlo._SHARED_LABEL, 1))).a[0]
        aggregate_optimum = montecarlo.aggregate_optimum

        def failing_optimum(model):
            if model.a[0] == bad:
                raise BracketError("trial 1 has no bracket")
            return aggregate_optimum(model)

        monkeypatch.setattr(montecarlo, "aggregate_optimum", failing_optimum)
        summary = run_mc(cfg, keep_trial_gaps=True)
        assert summary.h == clean.h
        for ls in summary.labels:
            assert ls.errors == [(1, "bracket-failure", "trial 1 has no bracket")]
            assert ls.trial_count == 2
            assert np.array_equal(
                summary.per_trial_gaps[ls.label],
                np.delete(clean.per_trial_gaps[ls.label], 1, axis=0))


class TestCompareTopologies:
    def make_summary(self, rows):
        labels = [
            LabelSummary(
                label=lab, recorded_steps=np.array([0, 1]),
                mean_gap=np.array([1.0, gap]),
                mean_lyapunov=np.zeros(2),
                mean_consensus_residual=np.zeros(2),
                mean_tracking_residual=np.zeros(2),
                final_gap_mean=gap, final_gap_std=0.0,
                mean_clustering=c, mean_avg_degree=3.0, mean_lambda2=1.0,
                trial_count=1, diverged_count=0, seeds=[0], errors=[])
            for lab, gap, c in rows
        ]
        return McSummary(h=0.01, labels=labels, config={})

    def test_sorted_by_gap(self):
        summary = self.make_summary(
            [("slow", 0.5, 0.3), ("fast", 0.1, 0.05)])
        verdict = compare_topologies(summary, 1)
        assert [v.label for v in verdict] == ["fast", "slow"]
        assert verdict[0].mean_clustering == 0.05

    def test_tie_broken_lexicographically(self):
        summary = self.make_summary([("b", 0.5, 0.1), ("a", 0.5, 0.2)])
        verdict = compare_topologies(summary, 1)
        assert [v.label for v in verdict] == ["a", "b"]

    def test_singleton(self):
        summary = self.make_summary([("only", 0.5, 0.1)])
        assert len(compare_topologies(summary, 0)) == 1

    def test_index_out_of_range(self):
        summary = self.make_summary([("x", 0.5, 0.1)])
        with pytest.raises(IndexOutOfRangeError):
            compare_topologies(summary, 2)


class TestScatterReport:
    def test_complete_graph_row(self):
        rows = scatter_report([("K8", complete_graph(8))], alpha=0.001)
        row = rows[0]
        assert row.n == 8
        assert row.lambda2 == pytest.approx(8.0, abs=1e-8)
        assert row.clustering == 1.0
        assert row.rate is not None and row.rate > 0

    def test_disconnected_row_has_no_spectral_values(self):
        g = build_graph([(0, 1, 1), (2, 3, 1)], n=4)
        rows = scatter_report([("disc", g)], alpha=0.001)
        assert rows[0].lambda2 is None
        assert rows[0].rate is None
        assert rows[0].n == 4

    def test_empty_input(self):
        assert scatter_report([], alpha=0.001) == []

    def test_deterministic(self):
        g = complete_graph(6)
        r1 = scatter_report([("a", g)], alpha=0.01, base_seed=9)
        r2 = scatter_report([("a", g)], alpha=0.01, base_seed=9)
        assert r1 == r2
