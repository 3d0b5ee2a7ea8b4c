"""Prediction step for discrete-time linear dynamics.

Two interchangeable predictors propagate a point-mass density through
``x[k+1] = F x[k] + w[k]``:

* :func:`predict_standard` builds the full transition-probability matrix
  row by row and multiplies, costing O(N^2) density evaluations.
* :func:`predict_efficient` places the predictive grid at ``F`` times the
  current grid, which makes the transition matrix constant along index
  offsets, so only its middle row is needed and the update becomes a
  same-size FFT convolution, costing O(N log N).  A middle row exists
  only with an odd count on every axis, so this predictor requires
  one; the matrix path takes any count.

Both predictors put the predictive density on the transformed grid, so
their outputs are directly comparable; the matrix path is the
correctness reference for the convolution path.  Agreement holds to
rounding when the noise density is negligible beyond half the grid span
per axis (offsets the middle row cannot encode); the inflation helper
widens grids to keep that regime.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.typing import NDArray

from . import _validate
from .grid import LatticeGrid, PointMassDensity, _derived_grid, _predicted_density
from .models import DiscreteDynamicsModel, GaussianDensity, _exp_flushed
from .transforms import convolve_fft_nd

__all__ = [
    "transformed_grid",
    "transition_matrix",
    "middle_row_kernel",
    "predict_standard",
    "predict_efficient",
    "predict_inflated",
]

_BLOCK_BYTES = 256e6


def transformed_grid(grid: LatticeGrid, transition: NDArray) -> LatticeGrid:
    """Predictive grid: every point mapped through the transition matrix.

    Center and basis are premultiplied by ``F``; counts are unchanged, so
    the cell volume scales by ``|det F|``.  With ``F`` and the valid
    input grid nonsingular, only overflow or underflow of the products
    can make the result invalid, so only that is checked.
    """
    f = np.asarray(transition, dtype=float)
    _validate.nonsingular(f, "transition matrix")
    return _derived_grid(grid.counts, f @ grid.basis, f @ grid.center)


def _target_rows(
    model: DiscreteDynamicsModel, grid_from: LatticeGrid, targets: NDArray
) -> NDArray:
    """Transition values from every source point to one target ``(n,)``
    or to each of ``T`` targets ``(T, n)``.

    The differences ``target - F x`` are built coordinate-major, as an
    ``(n, N)`` or ``(n, T, N)`` array, so the noise density receives an
    ``(N, n)`` or ``(T, N, n)`` view whose coordinate columns are
    contiguous.  For a single target, as the kernel and one-point grids
    ask for, they overwrite the mapped points.
    """
    mapped = model.F @ grid_from.points.T
    if targets.ndim == 2:
        mapped = mapped[:, None, :]
    out = mapped if targets.size == model.dim else None
    diff = np.subtract(targets.T[..., None], mapped, out=out)
    points = diff.transpose(*range(1, diff.ndim), 0)
    return model.noise(points) * grid_from.cell_volume


def transition_matrix(
    model: DiscreteDynamicsModel,
    grid_from: LatticeGrid,
    grid_to: LatticeGrid,
) -> NDArray[np.float64]:
    """Dense transition-probability matrix between two grids.

    Entry ``(j, i)`` is the noise density at ``x_to[j] - F x_from[i]``
    times the source cell volume.  Intended for moderate sizes; the
    standard predictor streams the same rows without materializing them.
    """
    for grid in (grid_from, grid_to):
        _validate.same_dimension(model, grid, "grids")
    return _target_rows(model, grid_from, grid_to.points)


def middle_row_kernel(
    model: DiscreteDynamicsModel, grid: LatticeGrid
) -> NDArray[np.float64]:
    """Middle row of the implied transition matrix as a physical tensor.

    The entry at multi-index ``d`` is the transition density from source
    point ``d`` to the center of the predictive grid, times the source
    cell volume.  With odd counts this encodes every offset-dependent
    transition value the matrix form uses.  Computed exactly as
    :func:`transition_matrix` computes that row, so the two agree bit for
    bit.
    """
    _validate.odd_counts(grid.counts, "the convolution kernel")
    # The predictive center point is the predictive grid's center F c
    # plus a zero offset; adding 0.0 reproduces the same floats that grid
    # stores there.
    target = model.F @ grid.center + 0.0
    return _target_rows(model, grid, target).reshape(grid.counts)


def predict_standard(
    pmd: PointMassDensity,
    model: DiscreteDynamicsModel,
    *,
    normalized: bool = True,
) -> PointMassDensity:
    """Full matrix-form prediction onto the transformed grid.

    Streams row blocks of the transition matrix against the weight
    vector, so memory stays bounded for large grids.  Gaussian noise
    takes a whitened inner-product path whose exponentials go through
    the density's own underflow rule (0 below the smallest normal
    float); any other density is evaluated blockwise through its
    callable.
    """
    _validate.same_dimension(model, pmd.grid, "density")
    grid = pmd.grid
    new_grid = transformed_grid(grid, model.F)
    targets = new_grid.points
    weights = pmd.weights
    n = grid.size

    noise = model.noise
    if isinstance(noise, GaussianDensity):
        # |a - b|^2 is expanded as |a|^2 - 2 a.b + |b|^2, which cancels
        # badly far from the origin: measure both from the grid's center
        center = new_grid.center
        targets = targets - center
        scale = math.exp(noise.log_norm) * grid.cell_volume
        w_t = noise.whitener.T
        y_from = (grid.points @ model.F.T - center) @ w_t
        beta = (y_from * y_from).sum(axis=1)
        block = max(1, int(_BLOCK_BYTES / (16 * n)))
        out = np.empty(n)
        for lo in range(0, n, block):
            t = targets[lo : lo + block] - noise.mean
            y_to = t @ w_t
            alpha = (y_to * y_to).sum(axis=1)
            g = y_to @ y_from.T
            g *= -2.0
            g += alpha[:, None]
            g += beta
            g *= -0.5
            out[lo : lo + block] = _exp_flushed(g) @ weights
        out *= scale
    else:
        block = max(1, int(_BLOCK_BYTES / (24 * n * grid.dim)))
        out = np.empty(n)
        for lo in range(0, n, block):
            rows = _target_rows(model, grid, targets[lo : lo + block])
            out[lo : lo + block] = rows @ weights
    return _predicted_density(new_grid, out, normalized)


def predict_efficient(
    pmd: PointMassDensity,
    model: DiscreteDynamicsModel,
    *,
    normalized: bool = True,
) -> PointMassDensity:
    """Middle-row FFT-convolution prediction onto the transformed grid.

    Requires odd counts on every axis.  Tiny negative values from FFT
    rounding are clipped to zero before normalization.  Equal, bit for
    bit, to clipping ``convolve_fft_nd(middle_row_kernel(model, grid),
    pmd.physical)`` on :func:`transformed_grid`.
    """
    _validate.same_dimension(model, pmd.grid, "density")
    grid = pmd.grid
    kernel = middle_row_kernel(model, grid)
    new_grid = transformed_grid(grid, model.F)
    conv = convolve_fft_nd(kernel, pmd.weights.reshape(grid.counts))
    return _predicted_density(new_grid, np.clip(conv.reshape(-1), 0.0, None), normalized)


def predict_inflated(
    pmd: PointMassDensity,
    model: DiscreteDynamicsModel,
    *,
    coverage: float = 3.0,
    normalized: bool = True,
) -> PointMassDensity:
    """Efficient prediction after noise-driven grid enlargement.

    The source grid is inflated so that, after transformation, the
    predictive hull also covers ``coverage`` standard deviations of the
    state noise per axis; the weights are zero-padded onto the enlarged
    grid first.  Requires a noise density that exposes its covariance.
    """
    cov = model.noise_covariance
    if cov is None:
        raise ValueError(
            "noise-driven inflation needs a noise density with a "
            "'covariance' attribute"
        )
    f_inv = np.linalg.inv(model.F)
    source_cov = f_inv @ cov @ f_inv.T
    bigger = pmd.grid.inflated(source_cov, coverage)
    pad = [((m - n) // 2,) * 2 for m, n in zip(bigger.counts, pmd.grid.counts)]
    padded = PointMassDensity._trusted(bigger, np.pad(pmd.physical, pad).reshape(-1))
    return predict_efficient(padded, model, normalized=normalized)
