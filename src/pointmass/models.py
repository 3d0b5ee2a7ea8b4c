"""Dynamics models and noise densities.

Two model families are supported: discrete-time linear dynamics
``x[k+1] = F x[k] + w[k]`` with an arbitrary evaluable white-noise
density, and continuous-time linear dynamics ``dx = A x dt + Q dW``
with Gaussian diffusion and a diagonal diffusion matrix.

Noise densities are callables mapping an ``(..., n)`` array of points to
the ``(...)`` array of density values.  The packaged Gaussian and
Laplace densities additionally expose a ``covariance`` attribute, which
grid inflation uses to size enlarged grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np
from numpy.typing import NDArray

from . import _validate

__all__ = [
    "matrix_exponential",
    "GaussianDensity",
    "LaplaceDensity",
    "DiscreteDynamicsModel",
    "ContinuousDynamicsModel",
]

_TAYLOR_ORDER = 18

# exp(q) is a normal float exactly when q >= _LOG_TINY
_LOG_TINY = math.log(np.finfo(float).tiny)


def matrix_exponential(a: NDArray, t: float = 1.0) -> NDArray[np.float64]:
    """Matrix exponential ``exp(a * t)`` by scaling and squaring.

    The scaled matrix is pushed below 1-norm 1/2 and a degree-18 Taylor
    series is evaluated, which leaves the truncation error far below
    double rounding for desk-scale inputs (``norm(a * t) <= 10``).
    """
    a = _validate.square_matrix(a, "matrix exponential input")
    if not math.isfinite(t):
        raise ValueError("matrix exponential time must be finite")
    m = a * t
    norm = np.linalg.norm(m, 1)
    squarings = max(0, math.ceil(math.log2(norm / 0.5))) if norm > 0.5 else 0
    m = m / (2.0**squarings)
    n = a.shape[0]
    result = np.eye(n)
    term = np.eye(n)
    for k in range(1, _TAYLOR_ORDER + 1):
        term = term @ m / k
        result = result + term
    for _ in range(squarings):
        result = result @ result
    return result


def _quadratic_form(pts: NDArray, whitener: NDArray) -> NDArray:
    """``|whitener @ p|^2`` per row of ``pts``, accumulated axis by axis.

    Accumulation order is fixed by explicit loops, so results are
    bit-identical regardless of the caller's array shape.  The points are
    read as contiguous coordinate columns (a coordinate-major view, as
    transition rows pass, needs no copy), and whitener entries that are
    exactly zero are skipped: the whitener ``inv(cholesky)`` is lower
    triangular, and diagonal for independent noise.  A skipped term can
    only flip the sign of a zero in ``z``, which squaring removes, so for
    finite input the result equals the sum over every entry bit for bit.
    The sum starts from the first square rather than from 0, which
    changes no bit: ``0 + s == s`` for a square ``s``.
    """
    cols = np.ascontiguousarray(pts.T)  # strided columns would reread every row
    q = z = np.empty(cols.shape[1])
    for row in whitener.tolist():
        (w, col), *rest = [(w, col) for w, col in zip(row, cols) if w != 0.0]
        np.multiply(col, w, out=z)
        for w, col in rest:
            z += w * col
        z *= z
        if z is q:
            z = np.empty_like(q)
        else:
            q += z
    return q


def _exp_flushed(exponent: NDArray) -> NDArray:
    """``exp`` in place, with 0 where the result would be subnormal.

    numpy's vectorized ``exp`` leaves its fast path for every input whose
    result underflows: on an AVX-512 Xeon core, about 170 ns for a
    subnormal result, 17 ns for a zero and 4 ns for ``exp(-inf)``,
    against about 1 ns for a normal one.  So the entries to flush go
    through the ``exp`` as zeros.
    """
    flush = exponent < _LOG_TINY
    np.copyto(exponent, 0.0, where=flush)
    np.exp(exponent, out=exponent)
    np.copyto(exponent, 0.0, where=flush)
    return exponent


class GaussianDensity:
    """Multivariate normal density with optional nonzero mean.

    ``cov`` may be a scalar (1-D), a length-n vector of variances, or a
    full symmetric positive-definite matrix.  Values below the smallest
    normal float (``numpy.finfo(float).tiny``) are returned as 0.
    """

    def __init__(self, cov: NDArray | float, mean: NDArray | None = None):
        cov = np.asarray(cov, dtype=float)
        if cov.ndim == 0:
            cov = cov.reshape(1, 1)
        elif cov.ndim == 1:
            cov = np.diag(cov)
        cov = _validate.square_matrix(cov, "covariance")
        if not np.allclose(cov, cov.T, atol=1e-12):
            raise ValueError("covariance must be symmetric")
        n = cov.shape[0]
        try:
            chol = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError as err:
            raise ValueError("covariance must be positive definite") from err
        self.dim = n
        self.covariance = cov
        self.mean = np.zeros(n) if mean is None else np.asarray(mean, dtype=float)
        if self.mean.shape != (n,):
            raise ValueError(f"mean must have shape ({n},)")
        if not np.isfinite(self.mean).all():
            raise ValueError("mean must be finite")
        # whitener W satisfies |W (x - mean)|^2 = (x - mean)' cov^-1 (x - mean)
        self.whitener = np.linalg.inv(chol)
        self.log_norm = -0.5 * (
            n * math.log(2.0 * math.pi) + 2.0 * np.log(np.diag(chol)).sum()
        )

    def __call__(self, pts: NDArray) -> NDArray:
        pts = np.asarray(pts, dtype=float)
        lead_shape = pts.shape[:-1]
        flat = pts.reshape(-1, self.dim)
        if self.mean.any():
            flat = flat - self.mean
        q = _quadratic_form(flat, self.whitener)
        # in place: each fresh array of this size faults its pages in anew
        q *= -0.5
        q += self.log_norm
        return _exp_flushed(q).reshape(lead_shape)


class LaplaceDensity:
    """Product of independent zero-mean Laplace densities, one per axis.

    Values below the smallest normal float are returned as 0.
    """

    def __init__(self, scales: NDArray | float):
        scales = np.atleast_1d(np.asarray(scales, dtype=float))
        if scales.ndim != 1 or not (np.isfinite(scales) & (scales > 0)).all():
            raise ValueError("scales must be a vector of positive finite reals")
        self.dim = scales.shape[0]
        self.scales = scales
        self.covariance = np.diag(2.0 * scales**2)
        self._log_norm = -np.log(2.0 * scales).sum()

    def __call__(self, pts: NDArray) -> NDArray:
        pts = np.asarray(pts, dtype=float)
        lead_shape = pts.shape[:-1]
        flat = pts.reshape(-1, self.dim)
        r = np.abs(flat[:, 0]) / self.scales[0]
        for j in range(1, self.dim):
            r += np.abs(flat[:, j]) / self.scales[j]
        np.negative(r, out=r)
        r += self._log_norm
        return _exp_flushed(r).reshape(lead_shape)


class _CheckedDensity:
    """Wrap a user callable, validating that returned values are densities."""

    def __init__(self, fn: Callable[[NDArray], NDArray], dim: int):
        self._fn = fn
        self.dim = dim
        self.covariance = getattr(fn, "covariance", None)

    def __call__(self, pts: NDArray) -> NDArray:
        pts = np.asarray(pts, dtype=float)
        out = np.asarray(self._fn(pts), dtype=float)
        if out.shape != pts.shape[:-1]:
            raise ValueError(
                f"noise density returned shape {out.shape}, "
                f"expected {pts.shape[:-1]}"
            )
        if not np.isfinite(out).all():
            raise ValueError("noise density returned non-finite values")
        if (out < 0).any():
            raise ValueError("noise density returned negative values")
        return out


@dataclass(frozen=True, eq=False)
class DiscreteDynamicsModel:
    """Linear discrete-time dynamics ``x[k+1] = F x[k] + w[k]``.

    ``noise`` evaluates the white-noise density; any nonnegative
    evaluable density is accepted.  Transition rows pass it a strided
    ``(..., N, n)`` view, not a C-contiguous array.  ``F`` must be
    nonsingular so the transformed grid remains a valid lattice.
    """

    F: NDArray[np.float64]
    noise: Callable[[NDArray], NDArray]

    def __post_init__(self) -> None:
        f = _validate.square_matrix(self.F, "F").copy()
        _validate.nonsingular(f, "F")
        f.flags.writeable = False
        object.__setattr__(self, "F", f)
        if not isinstance(self.noise, (GaussianDensity, LaplaceDensity)):
            object.__setattr__(
                self, "noise", _CheckedDensity(self.noise, f.shape[0])
            )

    @classmethod
    def gaussian(cls, F: NDArray, Q: NDArray | float) -> DiscreteDynamicsModel:
        """Model with zero-mean Gaussian noise of covariance ``Q``."""
        return cls(np.asarray(F, dtype=float), GaussianDensity(Q))

    @property
    def dim(self) -> int:
        return self.F.shape[0]

    @property
    def noise_covariance(self) -> NDArray[np.float64] | None:
        return getattr(self.noise, "covariance", None)


@dataclass(frozen=True, eq=False)
class ContinuousDynamicsModel:
    """Linear SDE ``dx = A x dt + Q dW`` with diagonal diffusion.

    ``Q`` must be diagonal positive semidefinite: the per-axis diffusion
    scheme reads only the diagonal, so off-diagonal diffusion is
    rejected up front.  ``sampling_period`` must be positive and finite.
    ``substeps`` is the number of explicit Euler steps per sampling
    period, an integral value of at least 1; ``None`` selects the
    smallest stable count at prediction time.
    """

    A: NDArray[np.float64]
    Q: NDArray[np.float64]
    sampling_period: float = 1.0
    substeps: int | None = None

    def __post_init__(self) -> None:
        a = _validate.square_matrix(self.A, "A").copy()
        q = np.array(self.Q, dtype=float)
        q = _validate.square_matrix(np.diag(q) if q.ndim == 1 else q, "Q")
        if q.shape != a.shape:
            raise ValueError(f"Q must have shape {a.shape}, got {q.shape}")
        if np.abs(q - np.diag(np.diag(q))).max() > 0.0:
            raise ValueError(
                "Q must be diagonal: off-diagonal diffusion is not supported"
            )
        if (np.diag(q) < 0).any():
            raise ValueError("Q diagonal entries must be nonnegative")
        period = self.sampling_period
        if not _validate.is_positive_finite(period):
            raise ValueError("sampling period must be positive and finite")
        substeps = self.substeps
        if substeps is not None:
            if not _validate.is_count(substeps):
                raise ValueError("substeps must be a positive integer")
            substeps = int(substeps)
        a.flags.writeable = False
        q.flags.writeable = False
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "Q", q)
        object.__setattr__(self, "sampling_period", float(period))
        object.__setattr__(self, "substeps", substeps)

    @property
    def dim(self) -> int:
        return self.A.shape[0]

    @cached_property
    def diffusion_diagonal(self) -> NDArray[np.float64]:
        return np.diag(self.Q)

    @cached_property
    def trace_drift(self) -> float:
        return float(np.trace(self.A))
