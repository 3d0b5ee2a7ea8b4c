"""Input rules shared across modules, checked at every input that uses them."""

import numpy as np
import pytest

from pointmass import (
    ContinuousDynamicsModel,
    DiscreteDynamicsModel,
    LatticeGrid,
    PointMassDensity,
    predict_dd,
    propagate,
)
from pointmass.cli import Scenario

MODEL = DiscreteDynamicsModel.gaussian([[0.9]], 0.25)


def grid_counts(value):
    return LatticeGrid.axis_aligned([value], [0.5], [0.0]).counts[0]


def substeps(value):
    return ContinuousDynamicsModel([[0.0]], [0.1], substeps=value).substeps


def scenario_steps(value):
    data = {
        "kind": "dd",
        "grid": {"counts": [5], "steps": [1.0], "center": [0.0]},
        "initial": {"type": "uniform"},
        "steps": value,
        "predictor": "standard",
        "F": [[0.9]],
        "noise": {"type": "gaussian", "covariance": [[0.25]]},
    }
    return Scenario.from_dict(data).steps


def propagate_steps(value):
    pmd = PointMassDensity(LatticeGrid.axis_aligned([5], [1.0], [0.0]), np.ones(5))
    return len(list(propagate(pmd, MODEL, value, predict_dd.predict_efficient)))


@pytest.mark.parametrize(
    "count", [grid_counts, substeps, scenario_steps, propagate_steps]
)
def test_counts_accept_integral_floats_and_reject_the_rest(count):
    assert count(2.0) == 2
    # bool is an int: True must not pass as 1
    for value in (2.5, -1, True):
        with pytest.raises(ValueError, match="integer"):
            count(value)
