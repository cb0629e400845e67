"""Benchmark objective families for the decentralized optimization runs.

Two per-node cost families:

* ``MlLossModel`` — a locally nonconvex machine-learning style loss.  Node
  *i* holds ``m`` data points and minimizes
  ``sum_j 2x^2 + 3 sin^2(x) + a_ij cos(x) + b_ij x``.  The parameter arrays
  are sampled with grand totals of exactly zero, so the network-wide
  aggregate collapses to ``n*m*(2x^2 + 3 sin^2 x)`` with its global minimum
  at 0.
* ``QuarticModel`` — a convex resource-allocation style cost
  ``a_i (x - b_i)^4`` with ``a_i in (0, 0.025]`` and ``b_i in [-10, 10]``.

Models are immutable after sampling; every evaluation is pure.  Each family
defines only its parameters and three per-node kernels; the aggregate
evaluations are shared and go through those kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import BracketError, InvalidParamsError, SamplerError

CLOSED_FORM = "closed_form"
BISECTION = "bisection"

_BISECT_WIDTH = 1e-12
_BISECT_MAX_ITER = 200


@dataclass(frozen=True)
class OptimumCertificate:
    """Location and value of the aggregate minimum, with a residual bound."""

    x_star: float
    f_star: float
    method: str
    residual: float


class _CostFamily:
    """Aggregate evaluations through a family's per-node kernels.

    A family holds its parameter arrays, with ``a`` of leading dimension
    ``n``, and the three kernels ``value_nodes``, ``gradient_nodes`` and
    ``hessian_nodes``, which map one point per node to one value per node.
    """

    @property
    def n(self) -> int:
        return self.a.shape[0]

    def aggregate_value(self, x: float) -> float:
        return float(self.value_nodes(np.full(self.n, float(x))).sum())

    def aggregate_gradient(self, x: float) -> float:
        return float(self.gradient_nodes(np.full(self.n, float(x))).sum())


@dataclass(frozen=True)
class MlLossModel(_CostFamily):
    a: np.ndarray  # (n, m)
    b: np.ndarray  # (n, m)
    a_row: np.ndarray = field(init=False)
    b_row: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.a.shape != self.b.shape or self.a.ndim != 2:
            raise InvalidParamsError("a and b must share shape (n, m)")
        object.__setattr__(self, "a_row", self.a.sum(axis=1))
        object.__setattr__(self, "b_row", self.b.sum(axis=1))

    @property
    def m(self) -> int:
        return self.a.shape[1]

    def value_nodes(self, x: np.ndarray) -> np.ndarray:
        return (self.m * (2.0 * x * x + 3.0 * np.sin(x) ** 2)
                + self.a_row * np.cos(x) + self.b_row * x)

    def gradient_nodes(self, x: np.ndarray) -> np.ndarray:
        return (self.m * (4.0 * x + 3.0 * np.sin(2.0 * x))
                - self.a_row * np.sin(x) + self.b_row)

    def hessian_nodes(self, x: np.ndarray) -> np.ndarray:
        return (self.m * (4.0 + 6.0 * np.cos(2.0 * x))
                - self.a_row * np.cos(x))


@dataclass(frozen=True)
class QuarticModel(_CostFamily):
    a: np.ndarray  # (n,)
    b: np.ndarray  # (n,)

    def __post_init__(self):
        if self.a.shape != self.b.shape or self.a.ndim != 1:
            raise InvalidParamsError("a and b must share shape (n,)")

    def value_nodes(self, x: np.ndarray) -> np.ndarray:
        return self.a * (x - self.b) ** 4

    def gradient_nodes(self, x: np.ndarray) -> np.ndarray:
        # the integration hot path: products, not libm pow (up to 2 ulp apart)
        d = x - self.b
        return 4.0 * self.a * (d * d * d)

    def hessian_nodes(self, x: np.ndarray) -> np.ndarray:
        return 12.0 * self.a * (x - self.b) ** 2


CostModel = Union[MlLossModel, QuarticModel]


def sample_mlloss(n: int, m: int, rng: np.random.Generator) -> MlLossModel:
    """Sample zero-sum nonzero parameters in (-1, 1).

    Entries are drawn uniformly, then mean-centered so each array's grand
    total is zero; any entry pushed onto 0 or outside (-1, 1) is redrawn and
    the array re-centered.  In practice one round suffices.
    """
    if n * m < 2:
        raise InvalidParamsError("need n*m >= 2 to center a nonzero array")

    def centered(draws: np.ndarray) -> np.ndarray:
        arr = draws
        for _ in range(1000):
            arr = arr - arr.mean()
            arr = arr - arr.mean()  # second pass pushes the sum to ~eps
            bad = (arr <= -1.0) | (arr >= 1.0) | (arr == 0.0)
            if not bad.any():
                return arr
            arr[bad] = rng.uniform(-1.0, 1.0, int(bad.sum()))
        raise SamplerError("could not satisfy nonzero zero-sum constraints")

    a = centered(rng.uniform(-1.0, 1.0, (n, m)))
    b = centered(rng.uniform(-1.0, 1.0, (n, m)))
    return MlLossModel(a=a, b=b)


def sample_quartic(n: int, rng: np.random.Generator) -> QuarticModel:
    """Sample ``a_i`` uniform on (0, 0.025] and nonzero ``b_i`` on [-10, 10]."""
    if n < 1:
        raise InvalidParamsError(f"need n >= 1 nodes, got {n}")
    a = (1.0 - rng.uniform(0.0, 1.0, n)) * 0.025
    b = rng.uniform(-10.0, 10.0, n)
    for _ in range(1000):
        zero = b == 0.0
        if not zero.any():
            return QuarticModel(a=a, b=b)
        b[zero] = rng.uniform(-10.0, 10.0, int(zero.sum()))
    raise SamplerError("could not draw nonzero quartic centers")


def aggregate_optimum(model: CostModel) -> OptimumCertificate:
    """Minimizer of the network-wide aggregate cost.

    The ML loss aggregate reduces to ``n*m*(2x^2 + 3 sin^2 x)`` thanks to the
    zero-sum parameter constraints, so the optimum is x*=0 with value 0 in
    closed form.  The quartic aggregate has a strictly increasing gradient,
    so bisection over [min b, max b] isolates the unique root.
    """
    if isinstance(model, MlLossModel):
        return OptimumCertificate(
            x_star=0.0, f_star=0.0, method=CLOSED_FORM,
            residual=abs(model.aggregate_gradient(0.0)))

    lo = float(model.b.min())
    hi = float(model.b.max())
    if lo == hi:
        x = lo
    else:
        glo = model.aggregate_gradient(lo)
        ghi = model.aggregate_gradient(hi)
        if glo > 0 or ghi < 0:
            raise BracketError(
                f"gradient not bracketed on [{lo}, {hi}]: ({glo}, {ghi})")
        for _ in range(_BISECT_MAX_ITER):
            mid = 0.5 * (lo + hi)
            if model.aggregate_gradient(mid) <= 0:
                lo = mid
            else:
                hi = mid
            if hi - lo <= _BISECT_WIDTH:
                break
        x = 0.5 * (lo + hi)
    return OptimumCertificate(
        x_star=x, f_star=model.aggregate_value(x), method=BISECTION,
        residual=abs(model.aggregate_gradient(x)))


def optimum_curvatures(model: CostModel) -> np.ndarray:
    """Per-node curvatures at the minimizer of the aggregate cost."""
    return model.hessian_nodes(np.full(model.n, aggregate_optimum(model).x_star))


def sample_cost(family: str, n: int, rng: np.random.Generator,
                m: int = 20) -> CostModel:
    """Sampler dispatch used by campaign configs."""
    if family == "mlloss":
        return sample_mlloss(n, m, rng)
    if family == "quartic":
        return sample_quartic(n, rng)
    raise InvalidParamsError(f"unknown cost family {family!r}")
