"""The benchmark's workloads: seeded priors, the timed step and its check.

Every workload is one efficient prediction step on a freshly generated
prior: a new grid object with new weights, drawn from the seed, so no
cached grid property survives from one step to the next.  The grid
geometry and the model are fixed per workload, so every step does the
same work whatever the seed; the seed moves only the prior's mean offset
and covariance scale.

Priors are drawn in blocks.  Block ``b`` of a run with seed ``s`` uses
the generator ``default_rng([s, 0, b])``, and its checks
``default_rng([s, 1, b])``, so the prior of step ``i`` is the
same whatever the timing, even when a run ends inside a block.

Checks run outside the timed interval.  A check returns ``None`` when
the step is correct and a one-line reason when it is not.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from pointmass import (
    ContinuousDynamicsModel,
    DiscreteDynamicsModel,
    LatticeGrid,
    PointMassDensity,
    predict_cd,
    predict_dd,
)
from pointmass.cli import Scenario

DD_TOL = 1e-10  # efficient against dense oracle, relative to the largest weight
OU_TOL = 0.02  # moments against the Ornstein-Uhlenbeck closed form
MASS_TOL = 1e-12  # normalized output against unit mass


@dataclass(frozen=True)
class Step:
    """One timed step: the prior, the raw (pre-normalization) prediction
    and the normalized prediction, all as the library returned them."""

    prior: PointMassDensity
    raw: PointMassDensity
    out: PointMassDensity


@dataclass
class Workload:
    """A named workload: how to build it, draw priors and check a step."""

    name: str
    model: str
    points: int
    layers: tuple[str, ...]
    block: int
    mean_offset: float  # prior means are uniform in [-mean_offset, mean_offset] per axis
    scale_range: tuple[float, float]  # prior covariance is scale * I, scale uniform here
    build: Callable[[str], dict[str, Any]]
    check: Callable[[dict[str, Any], Step, np.random.Generator], str | None]
    module: Any

    def draw(self, ctx: dict[str, Any], rng: np.random.Generator, count: int
             ) -> list[PointMassDensity]:
        """Gaussian priors ``N(mean, scale I)``, each on a fresh copy of the
        workload's grid and rescaled to unit point mass."""
        template = ctx["grid"]
        means = rng.uniform(-self.mean_offset, self.mean_offset, size=(count, template.dim))
        scales = rng.uniform(*self.scale_range, size=count)
        d2 = ((template.points[None, :, :] - means[:, None, :]) ** 2).sum(axis=2)
        weights = np.exp(-0.5 * d2 / scales[:, None])
        weights /= weights.sum(axis=1, keepdims=True) * template.cell_volume
        return [
            PointMassDensity(LatticeGrid(template.counts, template.basis, template.center), w)
            for w in weights
        ]

    def priors(self, ctx: dict[str, Any], seed: int, block: int) -> list[PointMassDensity]:
        return self.draw(ctx, np.random.default_rng([seed, 0, block]), self.block)

    def check_rng(self, seed: int, block: int) -> np.random.Generator:
        return np.random.default_rng([seed, 1, block])

    def warmup_prior(self, ctx: dict[str, Any], seed: int) -> PointMassDensity:
        return self.draw(ctx, np.random.default_rng([seed, 2]), 1)[0]

    def step(self, ctx: dict[str, Any], prior: PointMassDensity) -> Step:
        """The timed operation, as ``pointmass predict`` runs it: predict
        without normalizing, then normalize."""
        raw = self.module.predict_efficient(prior, ctx["model"], normalized=False)
        return Step(prior, raw, raw.normalized())


def _normalization_error(step: Step) -> str | None:
    if step.out.grid != step.raw.grid:
        return "normalized output moved to another grid"
    if abs(step.out.mass - 1.0) > MASS_TOL:
        return f"normalized mass {step.out.mass!r} is not 1"
    raw = step.raw.weights
    if np.abs(step.out.weights * step.raw.mass - raw).max() > MASS_TOL * raw.max():
        return "normalized weights are not the raw weights over the raw mass"
    return None


def _transformed_grid_error(step: Step, F: np.ndarray) -> str | None:
    g, src = step.raw.grid, step.prior.grid
    if g.counts != src.counts or not (
        np.array_equal(g.basis, F @ src.basis) and np.array_equal(g.center, F @ src.center)
    ):
        return "predictive grid is not F times the source grid"
    return None


# -- dd1d-small ---------------------------------------------------------------


def _build_dd1d(root: str) -> dict[str, Any]:
    return {
        "model": DiscreteDynamicsModel.gaussian(np.array([[0.9]]), 0.25),
        "grid": LatticeGrid.spanning((257,), (0.0,), (6.0,)),
    }


def _check_dd1d(ctx, step, rng):
    """Dense oracle: the full transition matrix between the fixed source
    grid and its transformed grid, applied to each prior.  Every step has
    the same grids, so the matrix that ``predict_standard`` would rebuild
    per call (about four times the cost of the step) is built once."""
    err = _transformed_grid_error(step, ctx["model"].F) or _normalization_error(step)
    if err:
        return err
    if "oracle" not in ctx:
        template = ctx["grid"]
        ctx["oracle"] = predict_dd.transition_matrix(
            ctx["model"], template, predict_dd.transformed_grid(template, ctx["model"].F)
        )
    expected = ctx["oracle"] @ step.prior.weights
    diff = np.abs(step.raw.weights - expected).max() / expected.max()
    if not diff <= DD_TOL:
        return f"efficient differs from the dense oracle by {diff:.3g} (relative)"
    return None


# -- dd5d-conv ----------------------------------------------------------------

DD5D_ROWS = 16


def _build_dd5d(root: str) -> dict[str, Any]:
    scenario = Scenario.load(os.path.join(root, "scenarios", "dd_5d_bench.json"))
    return {"model": scenario.build_model(), "grid": scenario.build_grid()}


def _check_dd5d(ctx, step, rng):
    """Seeded rows of the dense transition matrix, each onto a one-point
    target grid at a predictive grid point, against the raw weights."""
    model = ctx["model"]
    err = _transformed_grid_error(step, model.F) or _normalization_error(step)
    if err:
        return err
    target = step.raw.grid
    scale = step.raw.weights.max()
    for j in rng.choice(target.size, DD5D_ROWS, replace=False):
        one = LatticeGrid((1,) * target.dim, target.basis, target.point(int(j)))
        row = predict_dd.transition_matrix(model, step.prior.grid, one)[0]
        diff = abs(step.raw.weights[j] - row @ step.prior.weights) / scale
        if not diff <= DD_TOL:
            return f"row {j}: efficient differs from the oracle row by {diff:.3g}"
    return None


# -- cd2d-ou ------------------------------------------------------------------


def _build_cd2d(root: str) -> dict[str, Any]:
    return {
        "model": ContinuousDynamicsModel(
            np.diag([-0.5, -0.2]), np.diag([0.4, 0.3]), sampling_period=1.0, substeps=None
        ),
        "grid": LatticeGrid.spanning((129, 129), (0.0, 0.0), (6.0, 6.0)),
    }


def _check_cd2d(ctx, step, rng):
    """Ornstein-Uhlenbeck closed form from the prior's own grid moments:
    mean ``Phi m`` and covariance ``Phi P Phi + diag(q (1 - e^{2aT}) / -2a)``
    for diagonal ``A = diag(a)`` and ``Phi = diag(e^{aT})``."""
    model = ctx["model"]
    if not 0.0 < step.raw.mass <= 1.0:
        return f"pre-normalization mass {step.raw.mass!r} is outside (0, 1]"
    err = _normalization_error(step)
    if err:
        return err
    a = np.diag(model.A)
    t = model.sampling_period
    phi = np.exp(a * t)
    m0, p0 = step.prior.moments()
    mean = phi * m0
    cov = phi[:, None] * p0 * phi[None, :] + np.diag(
        model.diffusion_diagonal * np.expm1(2.0 * a * t) / (2.0 * a)
    )
    got_mean, got_cov = step.out.moments()
    sd = np.sqrt(np.diag(cov))
    mean_err = (np.abs(got_mean - mean) / sd).max()
    cov_err = (np.abs(got_cov - cov) / np.outer(sd, sd)).max()
    if not (mean_err <= OU_TOL and cov_err <= OU_TOL):
        return f"moments off the closed form: mean {mean_err:.3%}, cov {cov_err:.3%} of sd"
    return None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("dd1d-small", "discrete, F=0.9, q=0.25", 257,
                 ("predict_dd", "transforms", "models", "grid"), 1000, 1.5, (0.5, 1.5),
                 _build_dd1d, _check_dd1d, predict_dd),
        Workload("dd5d-conv", "discrete, scenarios/dd_5d_bench.json", 9**5,
                 ("predict_dd", "transforms", "models", "grid", "cli"), 4, 0.5, (0.7, 1.3),
                 _build_dd5d, _check_dd5d, predict_dd),
        Workload("cd2d-ou", "continuous OU, A=diag(-0.5,-0.2), Q=diag(0.4,0.3), T=1", 129**2,
                 ("predict_cd", "transforms", "models", "grid"), 8, 1.5, (0.5, 1.5),
                 _build_cd2d, _check_cd2d, predict_cd),
    )
}
