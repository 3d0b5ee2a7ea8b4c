"""Grid-based point-mass state prediction for linear stochastic models.

The package carries a probability density as one weight per point of an
affine lattice grid and propagates it through linear discrete-time or
continuous-time dynamics.  Each model family offers a standard
matrix-form predictor and an equivalent fast predictor (FFT convolution
for discrete dynamics, fast sine transform for continuous dynamics);
the standard form serves as the correctness reference for the fast one.
:func:`propagate` applies either predictor step after step.
"""

from . import predict_cd, predict_dd, transforms
from .grid import (
    LatticeGrid,
    PointMassDensity,
    load_pmd,
    reshape_linear,
    reshape_physical,
    save_pmd,
)
from .models import (
    ContinuousDynamicsModel,
    DiscreteDynamicsModel,
    GaussianDensity,
    LaplaceDensity,
    matrix_exponential,
)
from .predict_cd import LatticeShearWarning, StabilityError
from .propagation import PropagationStep, propagate

__all__ = [
    "LatticeGrid",
    "PointMassDensity",
    "reshape_physical",
    "reshape_linear",
    "save_pmd",
    "load_pmd",
    "GaussianDensity",
    "LaplaceDensity",
    "DiscreteDynamicsModel",
    "ContinuousDynamicsModel",
    "matrix_exponential",
    "StabilityError",
    "LatticeShearWarning",
    "propagate",
    "PropagationStep",
    "predict_dd",
    "predict_cd",
    "transforms",
]

__version__ = "0.1.0"
