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
  forward and an inverse fast sine transform.  The sine basis
  diagonalizes the substep matrix for any count, odd or even.

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

from . import _validate
from .grid import (
    LatticeGrid,
    PointMassDensity,
    _derived_grid,
    _predicted_density,
    reshape_linear,
)
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
#: Fraction of the stability limit a searched substep count may reach.
_SEARCH_MARGIN = 0.8
_MAX_SUBSTEPS = 10_000_000
_ACCUMULATION_CHUNK = 1 << 18  # stacked eigenvalue factors per batch


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
    of a chain of moved grids bit for bit.  A diagonal flow, which
    :func:`~pointmass.models.matrix_exponential` returns for a diagonal
    drift, scales row ``i`` by ``f_i`` once per substep: the matmul's other
    terms are exact zeros, so one cumulative product down the stacked axis
    rounds each entry exactly as the chain does.
    """
    out = np.empty((substeps + 1, *x.shape))
    out[0] = x
    factors = np.diag(flow)
    if not (flow - np.diag(factors)).any():
        out[1:] = factors.reshape(-1, *(1,) * (x.ndim - 1))
        np.multiply.accumulate(out, axis=0, out=out)
        out[1:] += 0.0  # the matmul's sum gives +0 where a lone product gives -0
        return out
    for s in range(substeps):
        np.matmul(flow, out[s], out=out[s + 1])
    return out


def _doubled_flow_powers(flow: NDArray, basis: NDArray, count: int) -> NDArray:
    """``flow^s @ basis`` for ``s = 0 .. count - 1`` by doubling, stacked
    along a new first axis like :func:`_flow_powers`.

    The products sit side by side, ``out[:, s]`` of an ``(n, count, n)``
    array, so each doubling ``flow^k @ [s < k]`` is one matrix product:
    ``O(log count)`` products instead of :func:`_flow_powers`' ``count``.
    The values differ from the sequential chain by rounding only.
    """
    n = basis.shape[0]
    out = np.empty((n, count, n))
    out[:, 0] = basis
    power, filled = flow, 1
    while filled < count:
        take = min(filled, count - filled)
        done = out[:, :take].reshape(n, take * n)
        out[:, filled : filled + take] = (power @ done).reshape(n, take, n)
        filled += take
        if filled < count:
            power = power @ power
    return out.transpose(1, 0, 2)


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


def stable_substep_count(model: ContinuousDynamicsModel, grid: LatticeGrid) -> int:
    """Smallest substep count keeping every substep within
    ``_SEARCH_MARGIN`` (0.8) of the stability limit over one sampling period.

    One substep is probed first.  Otherwise the search starts from the
    larger of the counts at which a single substep at either end of the
    period reaches the margin: on the grid's own basis, or on that basis
    moved by ``exp(A T)`` (ignored when not finite).  Offsets of 1, 2,
    4, ... from there bracket the answer, and bisection closes the
    bracket.  No count above ``_MAX_SUBSTEPS`` is probed, and none at all
    when the grid's own basis alone needs more.  A probe whose first or
    last substep alone breaks the margin is rejected without a chain;
    any other decides on the substep bases of
    :func:`_doubled_flow_powers`.  Those differ from the
    exact chain of :func:`_schedule` by rounding only, and the schedule
    still checks every substep of that chain against the limit itself.
    """
    _validate.same_dimension(model, grid, "grid")
    threshold = _SEARCH_MARGIN * _STABILITY_LIMIT
    period = model.sampling_period

    def stable(substeps: int) -> bool:
        dt = period / substeps
        # substep 0 runs on the grid's own basis: no flow needed to reject
        if _stability_ratios(model, grid.basis[None], dt).max() > threshold:
            return False
        if substeps == 1:
            return True
        flow = matrix_exponential(model.A, dt)
        # substep l - 1 alone costs O(log l) products: reject before the chain
        last = np.linalg.matrix_power(flow, substeps - 1) @ grid.basis
        if _stability_ratios(model, last[None], dt).max() > threshold:
            return False
        bases = _doubled_flow_powers(flow, grid.basis, substeps)
        return not (_stability_ratios(model, bases, dt) > threshold).any()

    def bound(basis: NDArray) -> float:
        """Count at which one substep on ``basis`` reaches the margin."""
        return _stability_ratios(model, basis[None], period).max() / threshold

    too_many = (
        f"no substep count up to {_MAX_SUBSTEPS} satisfies the "
        "stability limit; widen the grid spacing or reduce diffusion"
    )

    if stable(1):
        return 1
    first = bound(grid.basis)
    if not first <= _MAX_SUBSTEPS:
        raise ValueError(too_many)
    last = bound(matrix_exponential(model.A, period) @ grid.basis)
    guess = math.ceil(max(first, last) if math.isfinite(last) else first)
    guess = min(max(guess, 2), _MAX_SUBSTEPS)
    # bracket: ``lo`` is unstable, ``hi`` stable
    offset = 1
    if stable(guess):
        hi = guess
        while guess - offset > 1 and stable(guess - offset):
            hi = guess - offset
            offset *= 2
        lo = max(1, guess - offset)
    else:
        lo = guess
        while True:
            if lo == _MAX_SUBSTEPS:
                raise ValueError(too_many)
            hi = min(guess + offset, _MAX_SUBSTEPS)
            if stable(hi):
                break
            lo = hi
            offset *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if stable(mid):
            hi = mid
        else:
            lo = mid
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


def _eigenvalue_product(
    base: float, coeffs: NDArray, cosines: list[NDArray]
) -> NDArray[np.float64]:
    """Elementwise product, in row order, of the eigenvalue tensors
    ``base - sum(c) + sum_i c_i cos_i`` of the rows ``c`` of ``coeffs``.

    Every entry of a tensor is rounded in one order: the constant, then
    the axis terms one axis at a time.  The constants and the sums over
    all axes but the last are built for a batch of rows at once.  The
    last axis is added by one matrix product per row,
    ``[prefix, 1] @ [1, term]``: both of its products are exact, so each
    entry is the single rounded sum ``prefix + term`` that an outer sum
    gives, at about a third of the cost of numpy's broadcast outer sum.
    """
    counts = tuple(len(cos) for cos in cosines)
    lead = math.prod(counts[:-1])
    out = np.ones(counts)
    flat_out = out.reshape(lead, counts[-1])
    lam = np.zeros((lead, counts[-1]))
    chunk = max(1, _ACCUMULATION_CHUNK // (lead + counts[-1]))
    for first in range(0, len(coeffs), chunk):
        c = coeffs[first : first + chunk]
        prefix = base - c.sum(axis=1)
        for axis, cos in enumerate(cosines[:-1]):
            term = (c[:, axis, None] * cos).reshape(len(c), *(1,) * axis, -1)
            prefix = prefix[..., None] + term
        left = np.ones((len(c), 2, lead))
        left[:, 0] = prefix.reshape(len(c), lead)
        right = np.ones((len(c), 2, counts[-1]))
        np.multiply(c[:, -1, None], cosines[-1], out=right[:, 1])
        for row_left, row_right in zip(left, right):
            np.matmul(row_left.T, row_right, out=lam)
            flat_out *= lam
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
    return _eigenvalue_product(
        1.0 - dt * model.trace_drift, ratios, _axis_cosines(grid.counts)
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
    substep's grid; the tensors are multiplied into ``lambda_pow`` in
    substep order.
    """
    _validate.same_dimension(model, grid, "grid")
    substeps = resolve_substeps(model, grid)
    dt = model.sampling_period / substeps
    bases, centers, ratios = _schedule(model, grid, substeps, dt)
    lam_pow = _eigenvalue_product(
        1.0 - dt * model.trace_drift, ratios, _axis_cosines(grid.counts)
    )
    final_grid = _derived_grid(grid.counts, bases[-1].copy(), centers[-1].copy())
    return SpectralDiffusionOperator(lam_pow, substeps, final_grid)


def predict_standard(
    pmd: PointMassDensity,
    model: ContinuousDynamicsModel,
    *,
    normalized: bool = True,
) -> PointMassDensity:
    """Dense matrix substepping over one sampling period."""
    _validate.same_dimension(model, pmd.grid, "density")
    substeps = resolve_substeps(model, pmd.grid)
    dt = model.sampling_period / substeps
    bases, centers, _ = _schedule(model, pmd.grid, substeps, dt)
    counts = pmd.grid.counts
    weights = pmd.weights
    for basis, center in zip(bases[:-1], centers[:-1]):
        grid = LatticeGrid(counts, basis, center)
        weights = diffusion_matrix(model, grid, dt) @ weights
    final_grid = _derived_grid(counts, bases[-1].copy(), centers[-1].copy())
    return _predicted_density(final_grid, np.clip(weights, 0.0, None), normalized)


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
    _validate.same_dimension(model, pmd.grid, "density")
    op = spectral_operator(model, pmd.grid)
    spectrum = op.lambda_pow * dst1_nd(pmd.physical)
    back = dst1_nd(spectrum)
    scale = math.prod(2.0 / (n + 1) for n in pmd.grid.counts)
    weights = np.clip(reshape_linear(back) * scale, 0.0, None)
    return _predicted_density(op.final_grid, weights, normalized)
