"""The multi-step time update: one predictor applied step after step."""

from __future__ import annotations

import time
from typing import Callable, Iterator, NamedTuple

from . import _validate
from .grid import PointMassDensity
from .models import ContinuousDynamicsModel, DiscreteDynamicsModel

__all__ = ["PropagationStep", "propagate"]


class PropagationStep(NamedTuple):
    """One time update: the prediction before and after normalization,
    and the wall-clock seconds of the predictor call alone."""

    raw: PointMassDensity
    density: PointMassDensity
    seconds: float


def propagate(
    pmd: PointMassDensity,
    model: DiscreteDynamicsModel | ContinuousDynamicsModel,
    steps: int,
    predict: Callable[..., PointMassDensity],
) -> Iterator[PropagationStep]:
    """Apply ``predict`` ``steps`` times, starting from ``pmd``.

    ``predict`` is a predictor such as ``predict_dd.predict_efficient``,
    called as ``predict(density, model, normalized=False)``; each step
    starts from the previous step's normalized prediction.  Yields one
    :class:`PropagationStep` per step, and nothing when ``steps`` is 0.
    A bad ``steps`` raises here, before any step is drawn.
    """
    if not _validate.is_count(steps, 0):
        raise ValueError(f"steps must be a nonnegative integer, got {steps!r}")
    return _steps(pmd, model, int(steps), predict)


def _steps(
    pmd: PointMassDensity,
    model: DiscreteDynamicsModel | ContinuousDynamicsModel,
    steps: int,
    predict: Callable[..., PointMassDensity],
) -> Iterator[PropagationStep]:
    for _ in range(steps):
        start = time.perf_counter()
        raw = predict(pmd, model, normalized=False)
        seconds = time.perf_counter() - start
        pmd = raw.normalized()
        yield PropagationStep(raw, pmd, seconds)
