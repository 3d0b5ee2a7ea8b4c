"""Prediction step for continuous-time linear dynamics.

The density is propagated over one sampling period by ``l`` explicit
Euler substeps of the diffusion equation, while the grid itself is moved
through the state flow ``exp(A dt)``.  Moving the grid with the flow
removes the advection term from the scheme; what remains per substep is
a trace correction plus a per-axis second-difference diffusion operator.

* :func:`predict_standard` assembles the dense substep matrix and
  multiplies, substep by substep.
* :func:`predict_efficient` uses the closed-form eigendecomposition of
  the substep matrix in the (grid-independent) sine basis: all substep
  eigenvalue tensors are multiplied elementwise and applied between a
  forward and an inverse fast sine transform.

Both paths share the identical discretization, so they agree to
floating-point rounding.  The sine eigenbasis implies absorbing (zero
Dirichlet) boundaries: density reaching the grid edge is lost mass,
restored only by the final renormalization.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .grid import LatticeGrid, PointMassDensity, reshape_linear
from .models import ContinuousDynamicsModel, matrix_exponential
from .transforms import dst1_nd

__all__ = [
    "StabilityError",
    "LatticeShearWarning",
    "SpectralDiffusionOperator",
    "substep_grid",
    "diffusion_matrix",
    "diffusion_eigenvalues",
    "spectral_operator",
    "predict_standard",
    "predict_efficient",
    "stable_substep_count",
    "resolve_substeps",
]

_STABILITY_LIMIT = 0.5
_STABILITY_SLACK = 1e-12
_MAX_SUBSTEPS = 10_000_000


class StabilityError(ValueError):
    """Explicit-scheme stability violated: ``dt * Q_ii / step_i^2 > 1/2``."""

    def __init__(self, axis: int, substep: int, ratio: float):
        self.axis = axis
        self.substep = substep
        self.ratio = ratio
        super().__init__(
            f"explicit diffusion scheme unstable on axis {axis} at substep "
            f"{substep}: dt * Q / step^2 = {ratio:.6g} exceeds "
            f"{_STABILITY_LIMIT}; increase substeps or widen the grid"
        )


class LatticeShearWarning(UserWarning):
    """Lattice axes are not aligned with the state axes.

    The per-axis diffusion operator then only approximates the true
    axis-aligned diffusion in the moved frame.
    """


def substep_grid(grid: LatticeGrid, drift: NDArray, dt: float) -> LatticeGrid:
    """Grid moved through the state flow over one substep."""
    flow = matrix_exponential(np.asarray(drift, dtype=float), dt)
    return LatticeGrid(grid.counts, flow @ grid.basis, flow @ grid.center)


def _flow_powers(flow: NDArray, x: NDArray, substeps: int) -> NDArray:
    """``flow^s @ x`` for ``s = 0 .. substeps``, stacked along a new first axis.

    Each entry is the same ``flow @ previous`` product that
    :func:`substep_grid` applies, so stacked bases or centers equal those
    of a chain of moved grids bit for bit.
    """
    out = np.empty((substeps + 1, *x.shape))
    out[0] = x
    for s in range(substeps):
        np.matmul(flow, out[s], out=out[s + 1])
    return out


def _stability_ratios(
    model: ContinuousDynamicsModel, bases: NDArray, dt: float
) -> NDArray[np.float64]:
    """``dt * Q_ii / step_i^2`` per stacked basis (row) and axis (column)."""
    return dt * model.diffusion_diagonal / np.linalg.norm(bases, axis=-2) ** 2


def _check_stability(ratios: NDArray) -> None:
    """Raise for the first row (substep) of ``dt * Q_ii / step_i^2`` ratios
    whose worst axis exceeds the explicit-scheme limit."""
    worst = ratios.argmax(axis=1)
    peak = ratios[np.arange(len(ratios)), worst]
    over = np.flatnonzero(peak > _STABILITY_LIMIT + _STABILITY_SLACK)
    if over.size:
        s = over[0]
        raise StabilityError(int(worst[s]), int(s), float(peak[s]))


def _caller_stacklevel() -> int:
    """Warning stack level of the first frame outside this module, so a
    warning points at the user's call whichever public function it
    passed through."""
    frame, level = sys._getframe(1), 1
    while frame is not None and frame.f_globals.get("__name__") == __name__:
        frame, level = frame.f_back, level + 1
    return level


def _schedule(
    model: ContinuousDynamicsModel, grid: LatticeGrid, substeps: int, dt: float
) -> tuple[NDArray, NDArray, NDArray]:
    """Stacked bases and centers of the substep grids ``g_0 .. g_l`` with
    the flow applied cumulatively, and the stability ratios
    ``dt * Q_ii / step_i^2`` of ``g_0 .. g_{l-1}``, shape ``(l, n)``.

    Raises :class:`StabilityError` before any weight arithmetic if any
    substep violates the explicit-scheme limit.
    """
    if grid.dim != model.dim:
        raise ValueError("model and grid must share the state dimension")
    flow = matrix_exponential(model.A, dt)
    bases = _flow_powers(flow, grid.basis, substeps)
    ratios = _stability_ratios(model, bases[:-1], dt)
    _check_stability(ratios)
    magnitude = np.abs(bases)
    off_diagonal = np.where(np.eye(grid.dim, dtype=bool), 0.0, magnitude)
    if (off_diagonal.max(axis=(1, 2)) > 1e-9 * magnitude.max(axis=(1, 2))).any():
        warnings.warn(
            "lattice axes are not aligned with the state axes; the "
            "per-axis diffusion scheme is approximate in the moved frame",
            LatticeShearWarning,
            stacklevel=_caller_stacklevel(),
        )
    return bases, _flow_powers(flow, grid.center, substeps), ratios


def stable_substep_count(
    model: ContinuousDynamicsModel, grid: LatticeGrid, margin: float = 0.8
) -> int:
    """Smallest substep count keeping every substep within ``margin`` of
    the stability limit over one sampling period."""
    if not 0 < margin <= 1:
        raise ValueError("margin must be in (0, 1]")
    threshold = margin * _STABILITY_LIMIT

    def stable(substeps: int) -> bool:
        dt = model.sampling_period / substeps
        flow = matrix_exponential(model.A, dt)
        bases = _flow_powers(flow, grid.basis, substeps)
        ratios = _stability_ratios(model, bases[:-1], dt)
        return not (ratios.max(axis=1) > threshold).any()

    hi = 1
    while not stable(hi):
        hi *= 2
        if hi > _MAX_SUBSTEPS:
            raise ValueError(
                f"no substep count up to {_MAX_SUBSTEPS} satisfies the "
                "stability limit; widen the grid spacing or reduce diffusion"
            )
    lo = hi // 2 + 1 if hi > 1 else 1
    while lo < hi:
        mid = (lo + hi) // 2
        if stable(mid):
            hi = mid
        else:
            lo = mid + 1
    return hi


def resolve_substeps(model: ContinuousDynamicsModel, grid: LatticeGrid) -> int:
    """The model's substep count, or the smallest stable count if unset."""
    if model.substeps is not None:
        return model.substeps
    return stable_substep_count(model, grid)


def diffusion_matrix(
    model: ContinuousDynamicsModel, grid: LatticeGrid, dt: float
) -> NDArray[np.float64]:
    """Dense explicit-Euler substep matrix on the given grid.

    Identity scaled by ``1 - dt * trace(A)`` plus, per axis, the
    tridiagonal second-difference diffusion operator expanded over the
    full index space.  Symmetric; rows away from the boundary sum to
    ``1 - dt * trace(A)``.
    """
    ratios = _stability_ratios(model, grid.basis[None], dt)
    _check_stability(ratios)
    coeff = ratios[0]
    n = grid.size
    counts = grid.counts
    out = np.zeros((n, n))
    rows = np.arange(n)
    stride = n
    for axis, count in enumerate(counts):
        stride //= count
        has_next = (rows // stride) % count != count - 1
        r = rows[has_next]
        out[r, r + stride] += coeff[axis] / 2.0
        out[r + stride, r] += coeff[axis] / 2.0
    np.fill_diagonal(out, 1.0 - dt * model.trace_drift - coeff.sum())
    return out


def _axis_cosines(counts: tuple[int, ...]) -> list[NDArray[np.float64]]:
    """Per axis, ``cos(k pi / (N + 1))`` for frequencies ``k = 1 .. N``."""
    return [np.cos(np.arange(1, n + 1) * (np.pi / (n + 1))) for n in counts]


def _eigenvalues_into(
    out: NDArray, base: float, coeff: NDArray, cosines: list[NDArray]
) -> NDArray:
    """Fill ``out`` with ``base - sum(coeff) + sum_i coeff_i cos_i``.

    The axis terms are added one axis at a time, as outer sums whose
    last one is written into ``out``, so every entry is rounded in the
    same order whichever caller fills it.
    """
    acc = base - coeff.sum()
    last = len(cosines) - 1
    for axis, cos in enumerate(cosines):
        term = coeff[axis] * cos
        acc = np.add.outer(acc, term, out=out if axis == last else None)
    return out


def diffusion_eigenvalues(
    model: ContinuousDynamicsModel, grid: LatticeGrid, dt: float
) -> NDArray[np.float64]:
    """Eigenvalues of :func:`diffusion_matrix` arranged as a physical tensor.

    The substep matrix is a Kronecker sum of tridiagonal Toeplitz
    operators plus a scaled identity, so its spectrum is closed form:
    entry ``(i-1, j-1, ...)`` (1-based frequencies per axis) equals

        a + 2 b_1 cos(i pi / (N_1 + 1)) + 2 b_2 cos(j pi / (N_2 + 1)) + ...

    with ``a = 1 - dt trace(A) - sum_i 2 b_i`` and
    ``b_i = dt Q_ii / (2 step_i^2)``.
    """
    ratios = _stability_ratios(model, grid.basis[None], dt)
    _check_stability(ratios)
    return _eigenvalues_into(
        np.empty(grid.counts),
        1.0 - dt * model.trace_drift,
        ratios[0],
        _axis_cosines(grid.counts),
    )


@dataclass(frozen=True, eq=False)
class SpectralDiffusionOperator:
    """Accumulated substep eigenvalues diagonalizing the whole time update.

    ``lambda_pow`` is the elementwise product of the per-substep
    eigenvalue tensors; ``final_grid`` is the grid after the full flow.
    """

    lambda_pow: NDArray[np.float64]
    substeps: int
    final_grid: LatticeGrid


def spectral_operator(
    model: ContinuousDynamicsModel, grid: LatticeGrid
) -> SpectralDiffusionOperator:
    """Build the accumulated eigenvalue tensor over the substep schedule.

    Each substep's tensor equals :func:`diffusion_eigenvalues` on that
    substep's grid; it is filled into one reused buffer and multiplied
    into ``lambda_pow`` in substep order.
    """
    substeps = resolve_substeps(model, grid)
    dt = model.sampling_period / substeps
    bases, centers, ratios = _schedule(model, grid, substeps, dt)
    base = 1.0 - dt * model.trace_drift
    cosines = _axis_cosines(grid.counts)
    lam = np.empty(grid.counts)
    lam_pow = np.ones(grid.counts)
    for coeff in ratios:
        lam_pow *= _eigenvalues_into(lam, base, coeff, cosines)
    final_grid = LatticeGrid(grid.counts, bases[-1], centers[-1])
    return SpectralDiffusionOperator(lam_pow, substeps, final_grid)


def predict_standard(
    pmd: PointMassDensity,
    model: ContinuousDynamicsModel,
    *,
    normalized: bool = True,
) -> PointMassDensity:
    """Dense matrix substepping over one sampling period."""
    substeps = resolve_substeps(model, pmd.grid)
    dt = model.sampling_period / substeps
    bases, centers, _ = _schedule(model, pmd.grid, substeps, dt)
    counts = pmd.grid.counts
    weights = pmd.weights
    for basis, center in zip(bases[:-1], centers[:-1]):
        grid = LatticeGrid(counts, basis, center)
        weights = diffusion_matrix(model, grid, dt) @ weights
    final_grid = LatticeGrid(counts, bases[-1], centers[-1])
    out = PointMassDensity(final_grid, np.clip(weights, 0.0, None))
    return out.normalized() if normalized else out


def predict_efficient(
    pmd: PointMassDensity,
    model: ContinuousDynamicsModel,
    *,
    normalized: bool = True,
) -> PointMassDensity:
    """Sine-transform realization of the same substep schedule.

    The weights are transformed once, scaled by the accumulated
    eigenvalue tensor, and transformed back (the sine transform is its
    own inverse up to ``2 / (N_i + 1)`` per axis).
    """
    if not pmd.grid.all_counts_odd:
        raise ValueError(
            f"the spectral predictor requires odd counts, got {pmd.grid.counts}"
        )
    op = spectral_operator(model, pmd.grid)
    spectrum = op.lambda_pow * dst1_nd(pmd.physical)
    back = dst1_nd(spectrum)
    scale = math.prod(2.0 / (n + 1) for n in pmd.grid.counts)
    weights = np.clip(reshape_linear(back) * scale, 0.0, None)
    out = PointMassDensity(op.final_grid, weights)
    return out.normalized() if normalized else out
