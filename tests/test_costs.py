from fractions import Fraction

import numpy as np
import pytest

from clustopt.cli import _build_parser
from clustopt.costs import (
    BISECTION,
    CLOSED_FORM,
    COST_FAMILIES,
    MlLossModel,
    QuarticModel,
    aggregate_optimum,
    sample_cost,
    sample_mlloss,
    sample_quartic,
)
from clustopt.errors import IndexOutOfRangeError, InvalidParamsError
from clustopt.montecarlo import CostSpec
from helpers import (
    aggregate_hessian,
    central_difference,
    model_from_dict,
    model_to_dict,
    node_gradient,
    node_hessian,
    node_value,
)


class TestMlLossSampler:
    def test_zero_sum_tiny_case(self):
        model = sample_mlloss(2, 1, np.random.default_rng(0))
        assert abs(model.a.sum()) <= 1e-12
        assert abs(model.b.sum()) <= 1e-12

    def test_constraints_at_paper_size(self):
        model = sample_mlloss(100, 20, np.random.default_rng(4))
        for arr in (model.a, model.b):
            assert abs(arr.sum()) <= 1e-12
            assert ((-1.0 < arr) & (arr < 1.0)).all()
            assert (arr != 0.0).all()

    def test_deterministic_per_seed(self):
        m1 = sample_mlloss(10, 20, np.random.default_rng(9))
        m2 = sample_mlloss(10, 20, np.random.default_rng(9))
        assert np.array_equal(m1.a, m2.a)
        assert np.array_equal(m1.b, m2.b)

    def test_too_small_rejected(self):
        with pytest.raises(InvalidParamsError):
            sample_mlloss(1, 1, np.random.default_rng(0))


class TestQuarticSampler:
    def test_parameter_ranges(self):
        model = sample_quartic(500, np.random.default_rng(5))
        assert ((0.0 < model.a) & (model.a <= 0.025)).all()
        assert ((-10.0 <= model.b) & (model.b <= 10.0)).all()
        assert (model.b != 0.0).all()

    def test_deterministic_per_seed(self):
        m1 = sample_quartic(50, np.random.default_rng(8))
        m2 = sample_quartic(50, np.random.default_rng(8))
        assert np.array_equal(m1.a, m2.a)
        assert np.array_equal(m1.b, m2.b)


class TestEvaluation:
    def test_quartic_at_its_minimum(self):
        model = QuarticModel(a=np.array([0.01]), b=np.array([2.0]))
        assert node_value(model, 0, 2.0) == 0.0
        assert node_gradient(model, 0, 2.0) == 0.0
        assert node_hessian(model, 0, 2.0) == 0.0

    def test_quartic_point_values(self):
        model = QuarticModel(a=np.array([0.01]), b=np.array([0.0]))
        assert node_value(model, 0, 1.0) == pytest.approx(0.01, abs=1e-15)
        assert node_gradient(model, 0, 1.0) == pytest.approx(0.04, abs=1e-15)
        assert node_hessian(model, 0, 1.0) == pytest.approx(0.12, abs=1e-15)

    def test_mlloss_single_term_origin(self):
        model = MlLossModel(a=np.array([[0.0]]), b=np.array([[0.0]]))
        assert node_value(model, 0, 0.0) == 0.0
        assert node_gradient(model, 0, 0.0) == 0.0
        assert node_hessian(model, 0, 0.0) == 10.0

    def test_index_out_of_range(self):
        model = QuarticModel(a=np.array([0.01]), b=np.array([1.0]))
        with pytest.raises(IndexOutOfRangeError):
            node_value(model, 3, 0.0)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(12)
        model = sample_mlloss(6, 4, rng)
        x = rng.uniform(-3, 3, 6)
        vals = model.value_nodes(x)
        for i in range(6):
            assert vals[i] == pytest.approx(node_value(model, i, x[i]), rel=1e-14)


class TestQuarticGradientKernel:
    def test_within_two_ulp_of_exact_arithmetic(self):
        """``gradient_nodes`` against exact rationals on 10^4 points.

        The reference is ``4·a·d³`` in exact arithmetic at the rounded
        difference ``d = x - b``; that subtraction is the one rounding the
        kernel shares with any float evaluation of the model, and its error
        is cubed, so an exact reference from ``x`` and ``b`` themselves
        would measure the input rounding, not the kernel.  The kernel then
        rounds three times (``d·d``, ``·d``, ``4a·``).
        """
        rng = np.random.default_rng(2024)
        model = sample_quartic(10_000, rng)
        x = rng.uniform(-15.0, 15.0, 10_000)
        got = model.gradient_nodes(x)
        d = x - model.b
        exact = np.array([float(4 * Fraction(a) * Fraction(di) ** 3)
                          for a, di in zip(model.a, d)])
        ulps = np.abs(got - exact) / np.spacing(np.abs(exact))
        assert ulps.max() <= 2.0


class TestDerivativeOracle:
    @pytest.mark.parametrize("family", ["quartic", "mlloss"])
    def test_matches_central_differences(self, family):
        rng = np.random.default_rng(31)
        if family == "quartic":
            model = sample_quartic(10, rng)
        else:
            model = sample_mlloss(10, 20, rng)
        for _ in range(100):
            i = int(rng.integers(0, 10))
            x = float(rng.uniform(-8, 8))
            g_fd = central_difference(lambda t: node_value(model, i, t), x)
            h_fd = central_difference(lambda t: node_gradient(model, i, t), x)
            g = node_gradient(model, i, x)
            h = node_hessian(model, i, x)
            assert g == pytest.approx(g_fd, rel=1e-6, abs=1e-6)
            assert h == pytest.approx(h_fd, rel=1e-6, abs=1e-6)


class TestAggregateOptimum:
    def test_mlloss_closed_form(self):
        model = sample_mlloss(20, 20, np.random.default_rng(2))
        cert = aggregate_optimum(model)
        assert cert.x_star == 0.0
        assert cert.f_star == 0.0
        assert cert.method == CLOSED_FORM
        assert cert.residual <= 1e-10 * (1 + abs(aggregate_hessian(model, 0.0)))

    def test_quartic_symmetric_pair(self):
        model = QuarticModel(a=np.array([0.02, 0.02]), b=np.array([-3.0, 3.0]))
        cert = aggregate_optimum(model)
        assert cert.x_star == pytest.approx(0.0, abs=1e-11)
        assert cert.method == BISECTION

    def test_quartic_single_node(self):
        model = QuarticModel(a=np.array([0.02]), b=np.array([3.0]))
        cert = aggregate_optimum(model)
        assert cert.x_star == pytest.approx(3.0, abs=1e-11)
        assert cert.f_star == pytest.approx(0.0, abs=1e-40)

    def test_quartic_residual_bound_over_random_models(self):
        rng = np.random.default_rng(77)
        for _ in range(100):
            model = sample_quartic(int(rng.integers(2, 40)), rng)
            cert = aggregate_optimum(model)
            assert cert.residual <= 1e-10 * (
                1 + abs(aggregate_hessian(model, cert.x_star)))

    @pytest.mark.parametrize("family", ["quartic", "mlloss"])
    def test_local_minimum_certificate(self, family):
        rng = np.random.default_rng(41)
        model = (sample_quartic(30, rng) if family == "quartic"
                 else sample_mlloss(30, 20, rng))
        cert = aggregate_optimum(model)
        for dx in (-0.01, 0.01):
            assert model.aggregate_value(cert.x_star + dx) > cert.f_star


class TestSerialization:
    def test_round_trip_both_families(self):
        rng = np.random.default_rng(6)
        for model in (sample_quartic(7, rng), sample_mlloss(4, 5, rng)):
            doc = model_to_dict(model)
            back = model_from_dict(doc)
            assert type(back) is type(model)
            assert np.array_equal(back.a, model.a)
            assert np.array_equal(back.b, model.b)

    def test_unknown_family_rejected(self):
        with pytest.raises(InvalidParamsError):
            model_from_dict({"family": "cubic", "a": [1], "b": [2]})


class TestFamilyTable:
    """One table names the cost families: the sampler dispatches on it, and
    the campaign config and both ``--cost`` options read it."""

    def test_sampler_dispatches_on_the_table(self):
        assert tuple(COST_FAMILIES) == ("quartic", "mlloss")
        for got, want in [
                (sample_cost("quartic", 5, np.random.default_rng(1)),
                 sample_quartic(5, np.random.default_rng(1))),
                (sample_cost("mlloss", 5, np.random.default_rng(1), m=3),
                 sample_mlloss(5, 3, np.random.default_rng(1)))]:
            assert type(got) is type(want)
            assert np.array_equal(got.a, want.a)
            assert np.array_equal(got.b, want.b)
        with pytest.raises(InvalidParamsError, match="unknown cost family 'cubic'"):
            sample_cost("cubic", 5, np.random.default_rng(1))

    def test_config_and_command_line_read_the_table(self):
        with pytest.raises(InvalidParamsError,
                           match="cost_spec.family must be mlloss or quartic, "
                                 "got 'cubic'"):
            CostSpec(family="cubic").validate()
        for name in COST_FAMILIES:
            CostSpec(family=name).validate()
        sub = next(a for a in _build_parser()._actions if a.choices
                   and "spectral" in a.choices).choices
        for command in ("spectral", "optimize"):
            (cost,) = [a for a in sub[command]._actions if a.dest == "cost"]
            assert tuple(cost.choices) == tuple(COST_FAMILIES)
