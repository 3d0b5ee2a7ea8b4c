"""Lattice grids and point-mass densities.

A lattice grid is an affine lattice in ``n`` dimensions: a center vector
``c`` and a nonsingular basis matrix ``B`` whose i-th column is the step
vector along lattice axis i.  The point with multi-index
``d = (d_1, ..., d_n)``, ``d_i in {0, ..., N_i - 1}``, sits at

    x(d) = c + B @ (d - d_mid),      d_mid_i = (N_i - 1) / 2

so grids with odd per-axis counts have a point exactly at the center.

A point-mass density attaches one nonnegative weight (a density value,
units 1/volume) to every grid point; the represented PDF is piecewise
constant on the cells of the lattice.  The mass of a cell is
``weight * cell_volume`` with ``cell_volume = |det B|``.

Linearization order is row major over the multi-index (axis 1 slowest,
axis n fastest), so the reshape between the linear weight vector and the
``N_1 x ... x N_n`` physical tensor is a pure reinterpretation of the
same buffer.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import IO, Callable, ContextManager, Sequence

import numpy as np
from numpy.typing import NDArray

from . import _validate

__all__ = [
    "LatticeGrid",
    "PointMassDensity",
    "reshape_physical",
    "reshape_linear",
    "save_pmd",
    "load_pmd",
]

#: Unit-mass check tolerance used by :meth:`PointMassDensity.normalized`.
MASS_TOL = 1e-12


def reshape_physical(values: NDArray, counts: Sequence[int]) -> NDArray:
    """Reshape a linear vector of length ``prod(counts)`` to the physical tensor.

    Bijective with :func:`reshape_linear`; no data is copied.
    """
    values = np.asarray(values)
    counts = tuple(int(n) for n in counts)
    n_total = math.prod(counts)
    if values.ndim != 1 or values.shape[0] != n_total:
        raise ValueError(
            f"expected a vector of length {n_total} for counts {counts}, "
            f"got shape {values.shape}"
        )
    return values.reshape(counts)


def reshape_linear(tensor: NDArray) -> NDArray:
    """Inverse of :func:`reshape_physical`: flatten a physical tensor."""
    return np.asarray(tensor).reshape(-1)


def _frozen(a: NDArray) -> NDArray:
    """Mark a freshly computed array read-only, in place."""
    a.flags.writeable = False
    return a


def _as_readonly(a: NDArray) -> NDArray:
    return _frozen(np.array(a, dtype=float))


@lru_cache(maxsize=8)
def _lattice_offsets(counts: tuple[int, ...]) -> NDArray[np.float64]:
    """Index offsets ``d - d_mid`` of every point, ``(N, n)`` read-only, in
    linear order.  They depend on the counts alone, which stay fixed over
    a run, so the last few are kept."""
    axes = [np.arange(n) - (n - 1) / 2.0 for n in counts]
    mesh = np.meshgrid(*axes, indexing="ij")
    return _frozen(np.stack([m.reshape(-1) for m in mesh], axis=-1))


def _checked_volume(basis: NDArray, center: NDArray) -> float:
    """Cell volume ``|det basis|`` of finite geometry with a nonsingular basis."""
    if not (np.isfinite(basis).all() and np.isfinite(center).all()):
        raise ValueError("basis and center must be finite")
    return _validate.nonsingular(basis, "basis matrix")


@dataclass(frozen=True, eq=False)
class LatticeGrid:
    """Affine lattice of ``prod(counts)`` points: center plus basis matrix.

    Parameters
    ----------
    counts:
        Points per dimension, all >= 1.
    basis:
        ``(n, n)`` nonsingular matrix; column i is the step along axis i.
    center:
        ``(n,)`` center of the lattice.

    ``cell_volume`` is the volume of one lattice cell, ``|det basis|``.
    """

    counts: tuple[int, ...]
    basis: NDArray[np.float64]
    center: NDArray[np.float64]
    cell_volume: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        counts = tuple(self.counts)
        if not counts or not all(_validate.is_count(n) for n in counts):
            raise ValueError(f"counts must be positive integers, got {counts}")
        counts = tuple(int(n) for n in counts)
        n = len(counts)
        basis = _as_readonly(self.basis)
        center = _as_readonly(self.center)
        if basis.shape != (n, n):
            raise ValueError(f"basis must be ({n}, {n}), got {basis.shape}")
        if center.shape != (n,):
            raise ValueError(f"center must be ({n},), got {center.shape}")
        # frozen: the fields go straight into the instance dict
        self.__dict__.update(
            counts=counts, basis=basis, center=center,
            cell_volume=_checked_volume(basis, center),
        )

    @classmethod
    def axis_aligned(
        cls,
        counts: Sequence[int],
        steps: Sequence[float],
        center: Sequence[float],
    ) -> LatticeGrid:
        """Grid with a diagonal basis built from per-axis step lengths."""
        steps = np.asarray(steps, dtype=float)
        return cls(tuple(counts), np.diag(steps), np.asarray(center, dtype=float))

    @classmethod
    def spanning(
        cls,
        counts: Sequence[int],
        center: Sequence[float],
        half_widths: Sequence[float],
    ) -> LatticeGrid:
        """Axis-aligned grid covering ``center +- half_widths`` per axis."""
        counts = tuple(counts)
        if any(n < 2 for n in counts):
            raise ValueError("spanning grids need at least 2 points per axis")
        half = np.asarray(half_widths, dtype=float)
        steps = 2.0 * half / (np.asarray(counts) - 1)
        return cls.axis_aligned(counts, steps, center)

    # -- geometry -----------------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.counts)

    @property
    def size(self) -> int:
        """Total number of grid points."""
        return math.prod(self.counts)

    @cached_property
    def step_lengths(self) -> NDArray[np.float64]:
        """Euclidean length of each basis column (read-only)."""
        return _as_readonly(np.linalg.norm(self.basis, axis=0))

    @cached_property
    def mid(self) -> NDArray[np.float64]:
        """Center multi-index ``(N_i - 1) / 2`` per axis (fractional if even)."""
        return _as_readonly((np.asarray(self.counts) - 1) / 2.0)

    @cached_property
    def points(self) -> NDArray[np.float64]:
        """All grid points as an ``(N, n)`` read-only array in linear order."""
        return _frozen(self.center + _lattice_offsets(self.counts) @ self.basis.T)

    def point(self, linear_index: int) -> NDArray[np.float64]:
        """Coordinates of the grid point at ``linear_index``."""
        if not 0 <= linear_index < self.size:
            raise IndexError(
                f"linear index {linear_index} out of range [0, {self.size})"
            )
        return self.center + self.basis @ _lattice_offsets(self.counts)[linear_index]

    def linear_index(self, multi_index: Sequence[int]) -> int:
        return int(np.ravel_multi_index(tuple(multi_index), self.counts))

    def multi_index(self, linear_index: int) -> tuple[int, ...]:
        return tuple(int(i) for i in np.unravel_index(linear_index, self.counts))

    def lattice_coordinates(self, x: NDArray | Sequence[float]) -> NDArray[np.float64]:
        """Map ``(..., n)`` state-space points to fractional multi-index
        coordinates of the same shape."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (self.dim,):
            raise ValueError(
                f"points must have shape (..., {self.dim}), got {x.shape}"
            )
        offsets = (x - self.center).reshape(-1, self.dim).T
        return (np.linalg.solve(self.basis, offsets).T + self.mid).reshape(x.shape)

    # -- derived grids ------------------------------------------------------

    def inflated(self, noise_cov: NDArray, coverage: float = 3.0) -> LatticeGrid:
        """Symmetrically add points so the half-span grows by ``coverage``
        noise standard deviations per axis, measured in lattice steps.

        Spacing and center are unchanged and counts stay odd, so the result
        is a strict superset of this grid.  ``noise_cov`` is mapped into
        lattice coordinates through the basis before reading off the
        per-axis standard deviations.
        """
        _validate.odd_counts(self.counts, "grid inflation")
        if not _validate.is_positive_finite(coverage):
            raise ValueError(f"coverage must be positive and finite, got {coverage}")
        cov = np.asarray(noise_cov, dtype=float)
        if cov.shape != (self.dim, self.dim):
            raise ValueError(f"noise covariance must be {(self.dim, self.dim)}")
        if not np.allclose(cov, cov.T, atol=1e-10):
            raise ValueError("noise covariance must be symmetric")
        if np.linalg.eigvalsh((cov + cov.T) / 2).min() < -1e-10:
            raise ValueError("noise covariance must be positive semidefinite")
        inv_basis = np.linalg.inv(self.basis)
        lattice_cov = inv_basis @ cov @ inv_basis.T
        sigmas = np.sqrt(np.clip(np.diag(lattice_cov), 0.0, None))
        extra = [math.ceil(coverage * s) for s in sigmas]
        new_counts = tuple(n + 2 * e for n, e in zip(self.counts, extra))
        return LatticeGrid(new_counts, self.basis, self.center)

    # -- equality -----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if other is self:  # exact: the arrays are validated finite, so never NaN
            return True
        if not isinstance(other, LatticeGrid):
            return NotImplemented
        return (
            self.counts == other.counts
            and np.array_equal(self.basis, other.basis)
            and np.array_equal(self.center, other.center)
        )


def _derived_grid(
    counts: tuple[int, ...], basis: NDArray, center: NDArray
) -> LatticeGrid:
    """Grid whose fresh basis and center arrays the library computed from a
    valid grid through a nonsingular linear map.  Only overflow or
    underflow of the products can make it invalid, so only that is
    checked; the arrays are marked read-only in place, not copied."""
    grid = object.__new__(LatticeGrid)
    grid.__dict__.update(
        cell_volume=_checked_volume(basis, center),
        counts=counts, basis=_frozen(basis), center=_frozen(center),
    )
    return grid


@dataclass(frozen=True, eq=False)
class PointMassDensity:
    """A lattice grid plus one nonnegative density weight per point."""

    grid: LatticeGrid
    weights: NDArray[np.float64]

    def __post_init__(self) -> None:
        weights = _as_readonly(self.weights)
        if weights.shape != (self.grid.size,):
            raise ValueError(
                f"weights must have shape ({self.grid.size},), got {weights.shape}"
            )
        if not np.isfinite(weights).all():
            raise ValueError("weights must be finite")
        if (weights < 0).any():
            raise ValueError("weights must be nonnegative")
        object.__setattr__(self, "weights", weights)

    @classmethod
    def _trusted(cls, grid: LatticeGrid, weights: NDArray) -> PointMassDensity:
        """Density from a freshly computed float vector of ``grid.size``
        weights that the caller has made finite and nonnegative.  It is
        marked read-only in place; nothing is copied or scanned."""
        pmd = object.__new__(cls)
        object.__setattr__(pmd, "grid", grid)
        object.__setattr__(pmd, "weights", _frozen(weights))
        return pmd

    @classmethod
    def from_density(
        cls,
        density: Callable[[NDArray], NDArray],
        grid: LatticeGrid,
        *,
        normalized: bool = True,
    ) -> PointMassDensity:
        """Sample an evaluable density on every grid point.

        ``density`` receives an ``(N, n)`` array of points and must return
        the ``(N,)`` nonnegative finite density values.
        """
        pmd = cls(grid, np.asarray(density(grid.points), dtype=float).reshape(-1))
        return pmd.normalized() if normalized else pmd

    @property
    def mass(self) -> float:
        """Total probability mass, ``cell_volume * sum(weights)``."""
        return float(self.grid.cell_volume * self.weights.sum())

    @property
    def physical(self) -> NDArray[np.float64]:
        """Weights reshaped to the ``N_1 x ... x N_n`` physical tensor."""
        return self.weights.reshape(self.grid.counts)

    def normalized(self) -> PointMassDensity:
        """Rescale so the total mass is one; idempotent.

        Raises ``ValueError`` when the mass is zero or not finite (weights
        whose sum overflows), or when the rescaled weights overflow.
        """
        mass = self.mass
        if not math.isfinite(mass):
            raise ValueError(f"cannot normalize a density with total mass {mass}")
        if mass <= 0.0:
            raise ValueError("cannot normalize a density with zero total mass")
        if abs(mass - 1.0) <= MASS_TOL:
            return self
        weights = self.weights / mass
        if not np.isfinite(weights).all():
            raise ValueError("normalized weights must be finite")
        return PointMassDensity._trusted(self.grid, weights)

    def moments(self) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
        """Midpoint-rule mean and covariance of the piecewise-constant PDF."""
        pts = self.grid.points
        masses = self.grid.cell_volume * self.weights
        mean = masses @ pts
        centered = pts - mean
        cov = (centered * masses[:, None]).T @ centered
        cov = (cov + cov.T) / 2.0
        return mean, cov

    def density_at(self, x: Sequence[float]) -> float:
        """Piecewise-constant evaluation: the weight of the cell containing ``x``.

        Cells are half open in lattice coordinates (lower boundary
        inclusive); points outside the grid hull evaluate to zero.
        """
        u = self.grid.lattice_coordinates(x)
        d = np.floor(u + 0.5).astype(int)
        if ((d < 0) | (d >= np.asarray(self.grid.counts))).any():
            return 0.0
        return float(self.weights[self.grid.linear_index(d)])

    def resampled_onto(
        self, target: LatticeGrid, *, normalized: bool = True
    ) -> PointMassDensity:
        """Multilinear interpolation of the weights at the target grid points.

        Targets outside the source hull get weight zero.  Target
        coordinates within 1e-9 of a source node are snapped to it, so
        resampling onto the same grid reproduces the weights exactly.
        """
        if target.dim != self.grid.dim:
            raise ValueError("target grid dimension mismatch")
        coords = self.grid.lattice_coordinates(target.points)
        near = np.rint(coords)
        snap = np.abs(coords - near) < 1e-9
        coords = np.where(snap, near, coords)

        counts = np.asarray(self.grid.counts)
        inside = ((coords >= 0.0) & (coords <= counts - 1)).all(axis=1)
        base = np.floor(coords).astype(int)
        # keep the upper hull boundary in the last interior cell
        base = np.minimum(base, np.maximum(counts - 2, 0))
        frac = coords - base

        tensor = self.physical
        values = np.zeros(target.size)
        for corner in np.ndindex(*(2,) * self.grid.dim):
            idx = base + np.asarray(corner)
            valid = ((idx >= 0) & (idx < counts)).all(axis=1)
            factor = np.where(
                np.asarray(corner, dtype=bool), frac, 1.0 - frac
            ).prod(axis=1)
            contrib = np.zeros(target.size)
            sel = valid & inside
            if sel.any():
                contrib[sel] = tensor[tuple(idx[sel].T)]
            values += factor * contrib
        pmd = PointMassDensity(target, np.clip(values, 0.0, None))
        return pmd.normalized() if normalized else pmd


def _predicted_density(
    grid: LatticeGrid, weights: NDArray, normalized: bool
) -> PointMassDensity:
    """A predictor's output from fresh weights built of nonnegative
    factors (or clipped at zero), normalized on request."""
    # overflow or a NaN can still make such weights non-finite
    if not np.isfinite(weights).all():
        raise ValueError("weights must be finite")
    pmd = PointMassDensity._trusted(grid, weights)
    return pmd.normalized() if normalized else pmd


# -- dump format --------------------------------------------------------------


def _opened(path_or_file: str | IO[str], mode: str) -> ContextManager[IO[str]]:
    """A path opened as an ASCII text file, closed on exit, or a file
    object lent as it is and left open."""
    if isinstance(path_or_file, str):
        return open(path_or_file, mode, encoding="ascii")
    return contextlib.nullcontext(path_or_file)


def save_pmd(pmd: PointMassDensity, path_or_file: str | IO[str]) -> None:
    """Write a point-mass density in the ASCII dump format.

    Header lines ``nx``, ``counts``, ``basis`` (row major), ``center``,
    then ``weights`` followed by the N weights in linear order.  Floats
    are written with 17 significant digits so the round trip is exact.
    """
    with _opened(path_or_file, "w") as fh:
        g = pmd.grid
        fh.write(f"nx {g.dim}\n")
        fh.write("counts " + " ".join(str(n) for n in g.counts) + "\n")
        fh.write("basis " + " ".join(f"{v:.17g}" for v in g.basis.reshape(-1)) + "\n")
        fh.write("center " + " ".join(f"{v:.17g}" for v in g.center) + "\n")
        fh.write("weights\n")
        for w in pmd.weights:
            fh.write(f"{w:.17g}\n")


def load_pmd(path_or_file: str | IO[str]) -> PointMassDensity:
    """Read a point-mass density written by :func:`save_pmd`."""
    with _opened(path_or_file, "r") as fh:
        def fields(expected: str) -> list[str]:
            line = fh.readline()
            parts = line.split()
            if not parts or parts[0] != expected:
                raise ValueError(f"malformed dump: expected '{expected}' line")
            return parts[1:]

        nx_fields = fields("nx")
        if len(nx_fields) != 1:
            raise ValueError("malformed dump: 'nx' line must hold one count")
        nx = int(nx_fields[0])
        counts = tuple(int(v) for v in fields("counts"))
        if len(counts) != nx:
            raise ValueError("malformed dump: counts length does not match nx")
        basis = np.array([float(v) for v in fields("basis")]).reshape(nx, nx)
        center = np.array([float(v) for v in fields("center")])
        if fields("weights"):
            raise ValueError("malformed dump: 'weights' line must be bare")
        weights = np.array([float(tok) for tok in fh.read().split()])
    return PointMassDensity(LatticeGrid(counts, basis, center), weights)
