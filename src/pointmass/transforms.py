"""N-dimensional convolution and the type-I discrete sine transform.

Tensors are plain numpy arrays whose C-order flattening matches the grid
module's linearization, so reshaping between the linear weight vector
and the physical tensor never copies.

Kernel orientation: the kernel tensor element at multi-index ``d``
stores the transition value for the index offset ``o = mid - d`` where
``mid = (N_i - 1) / 2`` per axis.  With that convention the convolution
below applied to a reshaped middle transition-matrix row reproduces the
full matrix-vector product exactly (up to rounding), which is pinned by
the predictor tests.
"""

from __future__ import annotations

import threading
from functools import lru_cache

import numpy as np
import scipy.fft
from numpy.typing import NDArray

__all__ = [
    "convolve_direct_nd",
    "convolve_fft_nd",
    "dst1_1d",
    "dst1_nd",
]


@lru_cache(maxsize=64)
def _padded_length(count: int) -> int:
    """Fast transform length >= 2 * count - 1 for the linear convolution.

    Prefers even 5-smooth lengths: pocketfft's real transforms degrade on
    large odd radix-3 towers, and the next power of two bounds the search.
    """
    target = 2 * count - 1
    pow2 = 1 << (target - 1).bit_length()
    length = scipy.fft.next_fast_len(target, real=True)
    while length % 2 == 1 and length < pow2:
        length = scipy.fft.next_fast_len(length + 1, real=True)
    return min(length, pow2)


def _check_pair(kernel: NDArray, signal: NDArray) -> tuple[NDArray, NDArray]:
    kernel = np.asarray(kernel, dtype=float)
    signal = np.asarray(signal, dtype=float)
    if kernel.shape != signal.shape:
        raise ValueError(
            f"kernel shape {kernel.shape} != signal shape {signal.shape}"
        )
    if any(n % 2 == 0 for n in kernel.shape):
        raise ValueError(f"all counts must be odd, got {kernel.shape}")
    return kernel, signal


def convolve_direct_nd(kernel: NDArray, signal: NDArray) -> NDArray[np.float64]:
    """Same-size convolution by explicit summation over kernel entries.

    ``out[d] = sum_j kernel[j] * signal[d + (j - mid)]`` with out-of-range
    signal indices contributing zero.  Quadratic cost; this is the
    reference the FFT path is checked against.
    """
    kernel, signal = _check_pair(kernel, signal)
    mid = [(n - 1) // 2 for n in kernel.shape]
    out = np.zeros_like(signal)
    for j in np.ndindex(*kernel.shape):
        value = kernel[j]
        if value == 0.0:
            continue
        dst, src = [], []
        for ji, mi, n in zip(j, mid, kernel.shape):
            shift = ji - mi
            if shift >= 0:
                dst.append(slice(0, n - shift))
                src.append(slice(shift, n))
            else:
                dst.append(slice(-shift, n))
                src.append(slice(0, n + shift))
        out[tuple(dst)] += value * signal[tuple(src)]
    return out


_workspace = threading.local()


def _buffers(counts: tuple[int, ...], shape: tuple[int, ...]) -> tuple[NDArray, ...]:
    """Input pair, its spectra and the inverse output for one kernel
    shape, kept per thread and reused while the shape repeats.

    A run convolves one shape every step; fresh buffers of that size
    cost a page fault per 4 KiB on every call once the allocator has
    handed them back to the system.  The inputs are zero padded on every
    axis but the last, and only their embedded window is ever written,
    so the padding stays zero.  The last shape's buffers stay allocated,
    about four padded-size float arrays.
    """
    cached = getattr(_workspace, "buffers", None)
    if cached is None or cached[0] != counts:
        cached = (
            counts,
            np.zeros((2, *shape[:-1], counts[-1])),
            np.empty((2, *shape[:-1], shape[-1] // 2 + 1), dtype=complex),
            np.empty(shape),
        )
        _workspace.buffers = cached
    return cached[1:]


def convolve_fft_nd(kernel: NDArray, signal: NDArray) -> NDArray[np.float64]:
    """FFT realization of :func:`convolve_direct_nd`.

    Both inputs are zero padded per axis to a fast even length at or
    above ``2 * N_i - 1`` (full linear convolution), transformed in one
    real FFT call, multiplied, inverted, and cropped to the centered
    window.  The buffers and spectra are reused across calls of one
    shape; the result is a fresh array.
    """
    kernel, signal = _check_pair(kernel, signal)
    counts = kernel.shape
    ndim = len(counts)
    mid = tuple((n - 1) // 2 for n in counts)
    shape = tuple(_padded_length(n) for n in counts)

    buf, spectra, full = _buffers(counts, shape)
    embed = tuple(slice(0, n) for n in counts)
    buf[(0, *embed)] = kernel[tuple(slice(None, None, -1) for _ in counts)]
    buf[(1, *embed)] = signal
    # The transform pads the last axis itself, one row at a time; on a
    # pre-padded pair numpy transforms both rows together through
    # scratch of several padded sizes per call (about 4 MB at N = 65537).
    np.fft.rfftn(buf, s=shape, axes=tuple(range(1, ndim + 1)), out=spectra)
    product = spectra[0]
    product *= spectra[1]
    np.fft.irfftn(product, s=shape, axes=tuple(range(ndim)), out=full)
    return full[tuple(slice(m, m + n) for m, n in zip(mid, counts))].copy()


def dst1_1d(values: NDArray) -> NDArray[np.float64]:
    """Type-I discrete sine transform, ``out[i] = sum_k v[k] sin(ik pi / (N+1))``
    with 1-based ``i, k``.  Self inverse up to the factor ``2 / (N + 1)``.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise ValueError(f"expected a vector, got shape {values.shape}")
    return scipy.fft.dst(values, type=1) / 2.0


def dst1_nd(tensor: NDArray) -> NDArray[np.float64]:
    """Separable type-I sine transform along every axis."""
    tensor = np.asarray(tensor, dtype=float)
    return scipy.fft.dstn(tensor, type=1) / (2.0**tensor.ndim)
