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
_UNIT_ROUNDOFF = 2.0**-53
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
    of a chain of moved grids bit for bit.
    """
    out = np.empty((substeps + 1, *x.shape))
    out[0] = x
    for s in range(substeps):
        np.matmul(flow, out[s], out=out[s + 1])
    return out


def _doubled_flow_powers(flow: NDArray, basis: NDArray, count: int) -> NDArray:
    """``flow^s @ basis`` for ``s = 0 .. count - 1`` by doubling.

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


def _check_dim(model: ContinuousDynamicsModel, grid: LatticeGrid, what: str) -> None:
    if grid.dim != model.dim:
        raise ValueError(f"model and {what} must share the state dimension")


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


def _stable_by_bound(
    flow: NDArray, basis: NDArray, substeps: int, scaled_q: NDArray, threshold: float
) -> bool | None:
    """Decide whether the ratios ``scaled_q / step_i^2`` of substeps
    ``1 .. substeps - 1`` of the exact chain stay within ``threshold``,
    without running the chain; ``None`` if the bound cannot decide.

    The chain and :func:`_doubled_flow_powers` both evaluate a product
    tree of ``s`` copies of ``flow`` and ``basis`` with at most ``s + 1``
    products, so each lies within ``(1 + gamma_n)^(s+1) - 1`` times
    ``|flow|^s |basis|`` of the exact product, componentwise (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2nd ed., 3.5).
    Twice that, in the column norm, bounds the gap between the two step
    lengths; with the rounding of norm, square and quotient it bounds the
    gap between their ratios.  A ratio within that gap of the threshold,
    or a step length outside the range where the bound holds, leaves the
    decision to the chain.
    """
    n = basis.shape[0]
    abs_flow = np.abs(flow)
    # rho >= || |flow| ||_2, so || |flow|^s |b| ||_2 <= rho^s ||b||_2
    rho = math.sqrt(abs_flow.sum(axis=0).max() * abs_flow.sum(axis=1).max())
    log_rho = math.log(max(1.0, rho))
    if substeps * log_rho > 500.0:
        return None
    wide = _doubled_flow_powers(flow, basis, substeps)[:, 1:]
    squares = np.einsum("rsi,rsi->si", wide, wide)
    s = np.arange(1, substeps)[:, None]
    gamma = n * _UNIT_ROUNDOFF / (1.0 - n * _UNIT_ROUNDOFF)
    eps = np.expm1((s + 1) * math.log1p(gamma))  # (1 + gamma)^(s+1) - 1
    # subnormal products add up to n * 2**-1074 per entry and product,
    # which the relative bound misses
    floor = (
        2.0 * substeps * n**3 * np.finfo(float).smallest_subnormal
        * max(1.0, float(np.abs(basis).max()))
    )
    gap = np.exp(s * log_rho) * (2.0 * eps * np.linalg.norm(basis, axis=0) + floor)
    norms = np.sqrt(squares)
    rel = gap / norms
    # squares of both step lengths stay normal floats, and the first-order
    # tolerance below holds
    if not ((2.0**-490 <= norms) & (norms <= 2.0**490) & (rel <= 1e-3)).all():
        return None
    ratios = scaled_q / squares
    tol = ratios * (3.0 * rel + 8 * (n + 2) * _UNIT_ROUNDOFF)
    if (ratios - tol > threshold).any():
        return False
    if (ratios + tol > threshold).any():
        return None
    return True


def stable_substep_count(
    model: ContinuousDynamicsModel, grid: LatticeGrid, margin: float = 0.8
) -> int:
    """Smallest substep count keeping every substep within ``margin`` of
    the stability limit over one sampling period.

    Doubling, then bisection, over probes that each decide whether the
    exact substep chain of :func:`_schedule` stays within the margin.
    Substep 0 runs on the grid's own basis, so its ratios are the
    chain's; the rest are decided by :func:`_stable_by_bound`, and by the
    chain itself only when that bound cannot decide.
    """
    if not 0 < margin <= 1:
        raise ValueError("margin must be in (0, 1]")
    _check_dim(model, grid, "grid")
    threshold = margin * _STABILITY_LIMIT

    def stable(substeps: int) -> bool:
        dt = model.sampling_period / substeps
        if _stability_ratios(model, grid.basis[None], dt).max() > threshold:
            return False
        if substeps == 1:
            return True
        flow = matrix_exponential(model.A, dt)
        verdict = _stable_by_bound(
            flow, grid.basis, substeps, dt * model.diffusion_diagonal, threshold
        )
        if verdict is not None:
            return verdict
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
    _check_dim(model, grid, "grid")
    substeps = resolve_substeps(model, grid)
    dt = model.sampling_period / substeps
    bases, centers, ratios = _schedule(model, grid, substeps, dt)
    lam_pow = _eigenvalue_product(
        1.0 - dt * model.trace_drift, ratios, _axis_cosines(grid.counts)
    )
    final_grid = _moved_grid(grid.counts, bases[-1], centers[-1])
    return SpectralDiffusionOperator(lam_pow, substeps, final_grid)


def _moved_grid(counts: tuple[int, ...], basis: NDArray, center: NDArray) -> LatticeGrid:
    """Grid after the flow, built without a second validation.  The flow
    keeps the basis nonsingular, so only overflow or underflow of the
    products can make it invalid, and only that is checked."""
    if not (np.isfinite(basis).all() and np.isfinite(center).all()):
        raise ValueError("basis and center must be finite")
    grid = LatticeGrid._trusted(counts, basis.copy(), center.copy())
    if grid.cell_volume == 0.0:
        raise ValueError("basis matrix is singular")
    return grid


def _finish(
    grid: LatticeGrid, weights: NDArray, normalized: bool
) -> PointMassDensity:
    # clipped weights are nonnegative, but overflow or a NaN can still
    # make them non-finite
    if not np.isfinite(weights).all():
        raise ValueError("weights must be finite")
    pmd = PointMassDensity._trusted(grid, weights)
    return pmd.normalized() if normalized else pmd


def predict_standard(
    pmd: PointMassDensity,
    model: ContinuousDynamicsModel,
    *,
    normalized: bool = True,
) -> PointMassDensity:
    """Dense matrix substepping over one sampling period."""
    _check_dim(model, pmd.grid, "density")
    substeps = resolve_substeps(model, pmd.grid)
    dt = model.sampling_period / substeps
    bases, centers, _ = _schedule(model, pmd.grid, substeps, dt)
    counts = pmd.grid.counts
    weights = pmd.weights
    for basis, center in zip(bases[:-1], centers[:-1]):
        grid = LatticeGrid(counts, basis, center)
        weights = diffusion_matrix(model, grid, dt) @ weights
    final_grid = _moved_grid(counts, bases[-1], centers[-1])
    return _finish(final_grid, np.clip(weights, 0.0, None), normalized)


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
    _check_dim(model, pmd.grid, "density")
    op = spectral_operator(model, pmd.grid)
    spectrum = op.lambda_pow * dst1_nd(pmd.physical)
    back = dst1_nd(spectrum)
    scale = math.prod(2.0 / (n + 1) for n in pmd.grid.counts)
    weights = np.clip(reshape_linear(back) * scale, 0.0, None)
    return _finish(op.final_grid, weights, normalized)
