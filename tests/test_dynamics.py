import math

import numpy as np
import pytest

from dataclasses import replace

from clustopt.costs import (
    QuarticModel,
    aggregate_optimum,
    sample_cost,
    sample_quartic,
)
from clustopt.dynamics import (
    NodeState,
    SimConfig,
    euler_step,
    initialize,
    run,
    run_trials,
    stability_max_step,
)
from clustopt.errors import DimensionMismatchError, DisconnectedError, InvalidParamsError
from clustopt.graphs import build_graph, laplacian, union_laplacian
from clustopt.spectral import JacobianSpec, convergence_rate
from helpers import complete_graph, random_connected_graph, reference_run, weighted_scale_free


def path2():
    return build_graph([(0, 1, 1.0)])


class TestInitialize:
    def test_tracker_equals_initial_gradient(self):
        g = build_graph([], n=1)
        model = QuarticModel(a=np.array([0.01]), b=np.array([0.0]))
        cfg = SimConfig(alpha=1.0, steps=1, x_init_range=(2.0, 2.0))
        state = initialize(g, model, cfg, np.random.default_rng(0))
        assert state.x.tolist() == [2.0]
        assert state.y.tolist() == [pytest.approx(0.32, abs=1e-15)]

    def test_stationary_start_gives_zero_tracker(self):
        g = path2()
        model = QuarticModel(a=np.array([0.02, 0.01]), b=np.array([1.5, 1.5]))
        cfg = SimConfig(alpha=1.0, steps=1, x_init_range=(1.5, 1.5))
        state = initialize(g, model, cfg, np.random.default_rng(0))
        assert state.y.tolist() == [0.0, 0.0]

    def test_seed_determinism(self):
        g = random_connected_graph(np.random.default_rng(0), 12)
        model = sample_quartic(12, np.random.default_rng(1))
        cfg = SimConfig(alpha=1.0, steps=1)
        s1 = initialize(g, model, cfg, np.random.default_rng(5))
        s2 = initialize(g, model, cfg, np.random.default_rng(5))
        assert np.array_equal(s1.x, s2.x)
        assert np.array_equal(s1.y, s2.y)

    def test_disconnected_rejected(self):
        g = build_graph([(0, 1, 1), (2, 3, 1)], n=4)
        model = sample_quartic(4, np.random.default_rng(0))
        with pytest.raises(DisconnectedError):
            initialize(g, model, SimConfig(alpha=1.0, steps=1),
                       np.random.default_rng(0))


class TestEulerStep:
    def test_pure_diffusion_on_path(self):
        g = path2()
        model = QuarticModel(a=np.array([0.01, 0.01]), b=np.array([0.0, 0.0]))
        state = NodeState(x=np.array([1.0, 0.0]), y=np.zeros(2))
        cfg = SimConfig(alpha=3.0, steps=1, h=0.1)
        out = euler_step(g, model, state, cfg)
        assert out.x.tolist() == [0.9, 0.1]

    def test_fixed_point_is_stationary(self):
        rng = np.random.default_rng(8)
        g = random_connected_graph(rng, 8)
        b = rng.uniform(-3, 3, 8)
        model = QuarticModel(a=np.full(8, 0.01), b=b)
        from clustopt.costs import aggregate_optimum

        x_star = aggregate_optimum(model).x_star
        state = NodeState(x=np.full(8, x_star), y=np.zeros(8))
        cfg = SimConfig(alpha=1.0, steps=1, h=0.01)
        out = euler_step(g, model, state, cfg)
        assert np.abs(out.x - x_star).max() <= 1e-13 * (1 + abs(x_star))
        assert np.abs(out.y).max() <= 1e-12

    def test_conservation_telescopes_exactly(self):
        rng = np.random.default_rng(3)
        g = random_connected_graph(rng, 10)
        model = sample_quartic(10, rng)
        cfg = SimConfig(alpha=2.0, steps=1, h=0.01)
        state = initialize(g, model, cfg, rng)
        before = state.y.sum() - model.gradient_nodes(state.x).sum()
        for _ in range(50):
            state = euler_step(g, model, state, cfg)
        after = state.y.sum() - model.gradient_nodes(state.x).sum()
        assert after == pytest.approx(before, abs=1e-12)


class TestStabilityBound:
    def test_k4_gershgorin(self):
        assert stability_max_step(complete_graph(4), 0.0, None, None) \
            == pytest.approx(0.3, abs=1e-15)

    def test_edgeless_is_unbounded(self):
        g = build_graph([], n=3)
        assert stability_max_step(g, 0.0, None, None) == math.inf

    def test_monotone_in_edges(self):
        g1 = build_graph([(0, 1, 1)], n=3)
        g2 = build_graph([(0, 1, 1), (1, 2, 1)], n=3)
        g3 = build_graph([(0, 1, 1), (1, 2, 1), (0, 2, 1)], n=3)
        b1 = stability_max_step(g1, 0.0, None, None)
        b2 = stability_max_step(g2, 0.0, None, None)
        b3 = stability_max_step(g3, 0.0, None, None)
        assert b1 >= b2 >= b3

    def test_curvature_term(self):
        g = complete_graph(4)
        model = QuarticModel(a=np.full(4, 0.01), b=np.zeros(4))
        probe = NodeState(x=np.full(4, 2.0), y=np.zeros(4))
        # rho = 6 + alpha * max(12 * 0.01 * 4)
        expected = 1.8 / (6.0 + 0.5 * 0.48)
        assert stability_max_step(g, 0.5, model, probe) \
            == pytest.approx(expected, rel=1e-12)


class TestRun:
    def test_symmetric_pair_converges_to_zero(self):
        g = path2()
        model = QuarticModel(a=np.array([0.01, 0.01]), b=np.array([-5.0, 5.0]))
        cfg = SimConfig(alpha=1.0, steps=40000, h=1e-3, record_stride=4000)
        trace = run(g, model, cfg, np.random.default_rng(2))
        assert not trace.diverged
        assert trace.gap[-1] <= 1e-6
        assert np.abs(trace.final_state.x).max() <= 1e-6

    def test_zero_steps_records_initial_state(self):
        g = path2()
        model = sample_quartic(2, np.random.default_rng(0))
        cfg = SimConfig(alpha=1.0, steps=0, h=1e-3)
        trace = run(g, model, cfg, np.random.default_rng(0))
        assert trace.recorded_steps.tolist() == [0]
        assert len(trace.gap) == 1

    def test_conservation_over_run(self):
        rng = np.random.default_rng(14)
        g = random_connected_graph(rng, 30)
        model = sample_quartic(30, rng)
        cfg = SimConfig(alpha=1.0, steps=2000, record_stride=100)
        trace = run(g, model, cfg, rng)
        assert trace.max_tracking_residual \
            <= 1e-9 * (1 + trace.max_abs_gradient_sum)

    def test_gap_tolerance_stops_early(self):
        g = path2()
        model = QuarticModel(a=np.array([0.01, 0.01]), b=np.array([-5.0, 5.0]))
        cfg = SimConfig(alpha=1.0, steps=40000, h=1e-3, record_stride=100,
                        gap_tolerance=1e-3)
        trace = run(g, model, cfg, np.random.default_rng(2))
        assert trace.recorded_steps[-1] < 40000
        assert trace.gap[-1] <= 1e-3

    def test_divergence_flagged_not_raised(self):
        g = complete_graph(4)
        model = QuarticModel(a=np.full(4, 0.025), b=np.full(4, 9.0))
        cfg = SimConfig(alpha=1.0, steps=500, h=50.0)  # far above stable
        trace = run(g, model, cfg, np.random.default_rng(0))
        assert trace.diverged

    def test_divergent_step_raises_from_euler_step(self):
        from clustopt.errors import DivergenceError

        g = complete_graph(4)
        model = QuarticModel(a=np.full(4, 0.025), b=np.full(4, 9.0))
        state = NodeState(x=np.full(4, 1e200), y=np.full(4, 1e200))
        with pytest.raises(DivergenceError):
            euler_step(g, model, state, SimConfig(alpha=1.0, steps=1, h=50.0))

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(33)
        g = random_connected_graph(rng, 9)
        model = sample_quartic(9, np.random.default_rng(4))
        cfg = SimConfig(alpha=1.0, steps=200, h=1e-3, record_stride=50)
        state = initialize(g, model, cfg, np.random.default_rng(7))

        perm = np.random.default_rng(8).permutation(9)
        inv = np.empty(9, dtype=np.int64)
        inv[perm] = np.arange(9)
        g_p = build_graph(
            [(int(inv[i]), int(inv[j]), float(w))
             for (i, j), w in zip(g.edges, g.weights)], n=9)
        model_p = QuarticModel(a=model.a[perm], b=model.b[perm])
        state_p = NodeState(x=state.x[perm].copy(), y=state.y[perm].copy())

        t = run(g, model, cfg, np.random.default_rng(0), initial_state=state)
        t_p = run(g_p, model_p, cfg, np.random.default_rng(0),
                  initial_state=state_p)
        assert t.gap == pytest.approx(t_p.gap.tolist(), rel=1e-10, abs=1e-12)
        assert t.final_state.x[perm] == pytest.approx(
            t_p.final_state.x.tolist(), rel=1e-10, abs=1e-12)

    def test_invalid_config_rejected(self):
        g = path2()
        model = sample_quartic(2, np.random.default_rng(0))
        with pytest.raises(InvalidParamsError):
            run(g, model, SimConfig(alpha=0.0, steps=1),
                np.random.default_rng(0))


class TestIntegratorOrder:
    def test_error_halves_with_step(self):
        rng = np.random.default_rng(6)
        g = random_connected_graph(rng, 10)
        model = sample_quartic(10, np.random.default_rng(11))
        horizon = 2.0
        h0 = 0.002

        def final_at(h):
            steps = int(round(horizon / h))
            cfg = SimConfig(alpha=1.0, steps=steps, h=h, record_stride=steps)
            tr = run(g, model, cfg, np.random.default_rng(42))
            return np.concatenate([tr.final_state.x, tr.final_state.y])

        ref = final_at(h0 / 10)
        err0 = np.linalg.norm(final_at(h0) - ref)
        err1 = np.linalg.norm(final_at(h0 / 2) - ref)
        assert err0 / err1 == pytest.approx(2.0, rel=0.2)


class TestLyapunovDecayMatchesSpectralRate:
    def test_late_phase_slope(self):
        rng = np.random.default_rng(10)
        g = random_connected_graph(rng, 12)
        model = sample_quartic(12, np.random.default_rng(3))
        cfg = SimConfig(alpha=0.5, steps=60000, record_stride=500)
        trace = run(g, model, cfg, np.random.default_rng(9))
        assert not trace.diverged

        from clustopt.costs import aggregate_optimum

        x_star = aggregate_optimum(model).x_star
        hdiag = model.hessian_nodes(np.full(12, x_star))
        rate = convergence_rate(JacobianSpec(laplacian(g), 0.5, hdiag))

        v = trace.lyapunov
        window = (v < 1e-8) & (v > 1e-16)
        assert window.sum() >= 4
        times = trace.recorded_steps[window] * trace.h
        slope = np.polyfit(times, np.log(v[window]), 1)[0]
        assert slope == pytest.approx(-2.0 * rate, rel=0.3)


def assert_same_trace(got, want):
    """Every field of two traces, bit for bit and of the same type."""
    for name in ("recorded_steps", "gap", "lyapunov", "consensus_residual",
                 "tracking_residual"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    for name in ("diverged", "h", "max_tracking_residual",
                 "max_abs_gradient_sum"):
        a, b = getattr(got, name), getattr(want, name)
        assert type(a) is type(b) and (a == b or a != a and b != b), name
    for name in ("x", "y"):
        a, b = getattr(got.final_state, name), getattr(want.final_state, name)
        assert np.array_equal(a, b, equal_nan=True), name


def scale_free_trials(family, topo, count, seed, n=60):
    """Weighted BA or HK graphs, cost models, initial states and a config
    whose h is half the most conservative bound over the trials."""
    rng = np.random.default_rng(seed)
    graphs = [weighted_scale_free(topo, n, rng) for _ in range(count)]
    models = [sample_cost(family, n, rng, 5) for _ in range(count)]
    cfg = SimConfig(alpha=1.0, steps=300, record_stride=7)
    states = [initialize(g, m, cfg, rng) for g, m in zip(graphs, models)]
    h = 0.5 * min(stability_max_step(g, cfg.alpha, m, s)
                  for g, m, s in zip(graphs, models, states))
    return graphs, models, states, replace(cfg, h=h)


def blow_up(models, states, t):
    """Make trial t diverge within a few steps at the trials' common h."""
    models[t] = QuarticModel(a=models[t].a * 1e4, b=models[t].b)
    states[t] = NodeState(states[t].x, models[t].gradient_nodes(states[t].x))


def stacked(graphs, models, states, cfg):
    union = union_laplacian(graphs[0].n, [(g.edges, g.weights) for g in graphs])
    return run_trials(union, models, states,
                      [aggregate_optimum(m) for m in models], cfg)


class TestRunTrials:
    @pytest.mark.parametrize("family", ["quartic", "mlloss"])
    @pytest.mark.parametrize("topo", ["ba", "hk"])
    @pytest.mark.parametrize("count", [1, 2, 7])
    def test_matches_one_trial_at_a_time(self, family, topo, count):
        graphs, models, states, cfg = scale_free_trials(
            family, topo, count, seed=count + 10 * len(family) + len(topo))
        blowup = count == 7 and family == "quartic"
        if blowup:  # trial 3 diverges; the other six must not notice
            models[3] = QuarticModel(a=models[3].a * 1e4, b=models[3].b)
            states[3] = NodeState(states[3].x,
                                  models[3].gradient_nodes(states[3].x))
        traces = stacked(graphs, models, states, cfg)
        assert [t.diverged for t in traces] == [blowup and i == 3
                                                for i in range(count)]
        for g, m, s, got in zip(graphs, models, states, traces):
            assert_same_trace(got, reference_run(g, m, cfg, None,
                                                 initial_state=s))

    @pytest.mark.parametrize("family", ["quartic", "mlloss"])
    # below and above n, and beyond steps: then only steps 0 and 500 are
    # recorded, and every maximum comes from a step that is not
    @pytest.mark.parametrize("stride", [10, 130, 1000])
    def test_run_matches_reference(self, family, stride):
        rng = np.random.default_rng(5)
        g = weighted_scale_free("hk", 80, rng)
        model = sample_cost(family, 80, rng, 5)
        cfg = SimConfig(alpha=1.0, steps=500, record_stride=stride)
        assert_same_trace(run(g, model, cfg, np.random.default_rng(3)),
                          reference_run(g, model, cfg,
                                        np.random.default_rng(3)))

    def test_gap_tolerance_stops_each_trial_at_its_own_record(self):
        graphs, models, states, cfg = scale_free_trials("quartic", "ba", 5, 4)
        refs = [reference_run(g, m, cfg, None, initial_state=s)
                for g, m, s in zip(graphs, models, states)]
        # a tolerance between the trials' final gaps stops some early
        tol = float(np.median([r.gap[-1] for r in refs]))
        cfg = replace(cfg, gap_tolerance=tol)
        traces = stacked(graphs, models, states, cfg)
        stops = {int(t.recorded_steps[-1]) for t in traces}
        assert len(stops) > 1 and cfg.steps in stops
        for g, m, s, got in zip(graphs, models, states, traces):
            assert_same_trace(got, reference_run(g, m, cfg, None,
                                                 initial_state=s))

    def test_frozen_trials_leave_the_others_alone(self):
        """One trial diverges and one stops on the gap tolerance; both stay
        in the stack, frozen, and every trace is the trial run alone."""
        graphs, models, states, cfg = scale_free_trials("quartic", "hk", 5, 1)
        blow_up(models, states, 3)
        # only trial 1 records a gap this small, near step 180 of 300
        cfg = replace(cfg, gap_tolerance=1e-4)
        traces = stacked(graphs, models, states, cfg)
        assert [t.diverged for t in traces] == [False] * 3 + [True, False]
        ends = [int(t.recorded_steps[-1]) for t in traces]
        assert ends[1] < cfg.steps and ends[0] == ends[2] == ends[4] == cfg.steps
        for g, m, s, got in zip(graphs, models, states, traces):
            assert_same_trace(got, reference_run(g, m, cfg, None,
                                                 initial_state=s))

    def test_all_but_one_trial_diverge(self):
        graphs, models, states, cfg = scale_free_trials("quartic", "ba", 5, 2)
        for t in range(4):
            blow_up(models, states, t)
        traces = stacked(graphs, models, states, cfg)
        assert [t.diverged for t in traces] == [True] * 4 + [False]
        assert traces[4].recorded_steps[-1] == cfg.steps
        for g, m, s, got in zip(graphs, models, states, traces):
            assert_same_trace(got, reference_run(g, m, cfg, None,
                                                 initial_state=s))

    def test_one_wrong_size_trial_is_rejected(self):
        graphs, models, states, cfg = scale_free_trials("quartic", "ba", 3, 1)
        short = states[:1] + [NodeState(states[1].x[:-1], states[1].y[:-1])] \
            + states[2:]
        # a state one node short, and a union of two graphs for three trials
        for g, s in ((graphs, short), (graphs[:2], states)):
            with pytest.raises(DimensionMismatchError):
                stacked(g, models, s, cfg)

    def test_families_cannot_mix(self):
        graphs, models, states, cfg = scale_free_trials("quartic", "ba", 2, 1)
        models[1] = sample_cost("mlloss", 60, np.random.default_rng(0), 5)
        with pytest.raises(DimensionMismatchError):
            stacked(graphs, models, states, cfg)

    def test_needs_a_step_size(self):
        graphs, models, states, cfg = scale_free_trials("quartic", "ba", 1, 1)
        with pytest.raises(InvalidParamsError):
            stacked(graphs, models, states, replace(cfg, h=None))


class TestRunInitialStateSizes:
    """``run(initial_state=...)`` checks sizes like ``initialize`` does."""

    @pytest.mark.parametrize("model_n, x_n, y_n", [(31, 30, 30), (30, 29, 29),
                                                   (30, 30, 29)])
    def test_mismatch_raises(self, model_n, x_n, y_n):
        g = random_connected_graph(np.random.default_rng(0), 30)
        model = sample_quartic(model_n, np.random.default_rng(1))
        state = NodeState(x=np.zeros(x_n), y=np.zeros(y_n))
        for h in (None, 1e-3):
            with pytest.raises(DimensionMismatchError):
                run(g, model, SimConfig(alpha=1.0, steps=5, h=h),
                    np.random.default_rng(0), initial_state=state)
