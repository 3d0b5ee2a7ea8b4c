import functools

import numpy as np
import pytest

from pointmass import (
    ContinuousDynamicsModel,
    DiscreteDynamicsModel,
    GaussianDensity,
    LatticeGrid,
    PointMassDensity,
    predict_cd,
    predict_dd,
    propagate,
)

DD_MODEL = DiscreteDynamicsModel.gaussian([[0.9, 0.1], [0.0, 0.8]], np.diag([0.3, 0.2]))
CD_MODEL = ContinuousDynamicsModel(np.diag([-0.5, -0.2]), [0.4, 0.3], substeps=40)

CASES = {
    "dd-standard": (DD_MODEL, predict_dd.predict_standard),
    "dd-efficient": (DD_MODEL, predict_dd.predict_efficient),
    "dd-inflated": (DD_MODEL, functools.partial(predict_dd.predict_inflated, coverage=2.0)),
    "cd-standard": (CD_MODEL, predict_cd.predict_standard),
    "cd-efficient": (CD_MODEL, predict_cd.predict_efficient),
}


def prior():
    grid = LatticeGrid.spanning((15, 13), (0.2, -0.1), (5.0, 4.0))
    return PointMassDensity.from_density(GaussianDensity(np.diag([1.0, 0.7])), grid)


@pytest.mark.parametrize("name", CASES)
def test_propagate_equals_hand_written_loop(name):
    model, predict = CASES[name]
    steps = list(propagate(prior(), model, 3, predict))
    assert len(steps) == 3

    pmd = prior()
    for step in steps:
        raw = predict(pmd, model, normalized=False)
        pmd = predict(pmd, model)
        assert step.raw.grid == raw.grid
        np.testing.assert_array_equal(step.raw.weights, raw.weights)
        assert step.density.grid == pmd.grid
        np.testing.assert_array_equal(step.density.weights, pmd.weights)
        assert step.seconds >= 0.0


def test_propagate_zero_steps_yields_nothing():
    calls = []
    assert list(propagate(prior(), DD_MODEL, 0, lambda *a, **k: calls.append(a))) == []
    assert calls == []
    with pytest.raises(ValueError, match="nonnegative"):
        list(propagate(prior(), DD_MODEL, -1, predict_dd.predict_efficient))


@pytest.mark.parametrize("steps", [-1, 2.5, float("nan"), "3"])
def test_propagate_rejects_bad_steps_when_called(steps):
    # the check runs on the call, not at the first step drawn, so a caller
    # that builds several runs before iterating them learns of it at once
    calls = []
    with pytest.raises(ValueError, match="nonnegative"):
        propagate(prior(), DD_MODEL, steps, lambda *a, **k: calls.append(a))
    assert calls == []
