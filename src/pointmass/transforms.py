"""N-dimensional convolution and the type-I discrete sine transform.

Both run on ``numpy.fft`` (pocketfft), the package's one FFT backend.

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

import math
import threading

import numpy as np
from numpy.typing import NDArray

from . import _validate

__all__ = [
    "convolve_direct_nd",
    "convolve_fft_nd",
    "dst1_1d",
    "dst1_nd",
]


def _next_smooth(n: int) -> int:
    """Smallest ``2^a 3^b 5^c >= n``, the lengths pocketfft's real
    transforms factor fully."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _padded_length(count: int) -> int:
    """Fast circular transform length for the same-size convolution.

    The linear convolution of two odd ``count``-point inputs has entries
    ``0 ... 4 h``, with ``h = (count - 1) / 2``, and the crop keeps
    ``h ... 3 h``.  On a circle of length ``L >= 3 h + 1 = count + h``
    the entries ``L ... 4 h`` wrap onto ``0 ... 4 h - L``, all below
    ``h``, so the crop is free of wrap-around.  The length is the next
    5-smooth one at or above ``count + h``.
    """
    return _next_smooth(count + (count - 1) // 2)


def _check_pair(kernel: NDArray, signal: NDArray) -> tuple[NDArray, NDArray]:
    kernel = np.asarray(kernel, dtype=float)
    signal = np.asarray(signal, dtype=float)
    if kernel.shape != signal.shape:
        raise ValueError(
            f"kernel shape {kernel.shape} != signal shape {signal.shape}"
        )
    _validate.odd_counts(kernel.shape, "the same-size convolution")
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


class _ConvolutionPlan:
    """Stage arrays of the pruned convolution for one kernel shape.

    The stages follow numpy's ``rfftn``/``irfftn`` axis order, so every
    lane gets the same 1-D transform as on the full padded buffer.
    Forward: ``rfft`` of the last axis of the unpadded pair, then ``fft``
    along axes ``n-2 ... 0``; each stage pads its own axis, so lanes of
    pure padding are never formed.  Inverse: ``ifft`` along axes
    ``0 ... n-2``, each reading only the crop of the axes before it, then
    ``irfft`` of the last axis.  Stage ``k`` writes into flat buffer
    ``k % 2`` (the pair sits in the real view of buffer 1), so each
    stage reads one buffer and writes the other, and a stage array is a
    reshaped prefix of its buffer.
    """

    def __init__(self, counts: tuple[int, ...]):
        ndim = len(counts)
        lengths = [_padded_length(n) for n in counts]
        crops = [slice((n - 1) // 2, (n - 1) // 2 + n) for n in counts]
        # (transform, transform length, axis, output shape) per stage
        shape = [2, *counts[:-1], lengths[-1] // 2 + 1]
        forward = [(np.fft.rfft, lengths[-1], ndim, tuple(shape))]
        for axis in range(ndim - 2, -1, -1):
            shape[axis + 1] = lengths[axis]
            forward.append((np.fft.fft, lengths[axis], axis + 1, tuple(shape)))
        shape = shape[1:]  # the product of the two spectra
        inverse = []
        for axis in range(ndim - 1):
            inverse.append((np.fft.ifft, lengths[axis], axis, tuple(shape)))
            shape[axis] = counts[axis]
        shape[-1] = lengths[-1]
        inverse.append((np.fft.irfft, lengths[-1], ndim - 1, tuple(shape)))

        # floats per stage output (only the last one is real), then per buffer
        floats = [2 * math.prod(out) for *_, out in forward + inverse[:-1]]
        floats.append(math.prod(shape))
        sizes = (max(floats[0::2]), max(floats[1::2] + [2 * math.prod(counts)]))
        buffers = [np.empty((size + 1) // 2, dtype=complex) for size in sizes]

        def view(k: int, shape: tuple[int, ...], real: bool) -> NDArray:
            flat = buffers[k % 2].view(float) if real else buffers[k % 2]
            return flat[: math.prod(shape)].reshape(shape)

        self.counts = counts
        self.flip = (slice(None, None, -1),) * ndim
        self.pair = view(1, (2, *counts), True)
        source = self.pair
        self.forward = []
        for k, (transform, length, axis, out_shape) in enumerate(forward):
            out = view(k, out_shape, False)
            self.forward.append((transform, source, length, axis, out))
            source = out
        self.product, self.factor = source[0], source[1]
        source = self.product
        self.inverse = []
        for k, (transform, length, axis, out_shape) in enumerate(inverse, len(forward)):
            out = view(k, out_shape, transform is np.fft.irfft)
            self.inverse.append((transform, source, length, axis, out))
            source = out[(slice(None),) * axis + (crops[axis],)]
        self.result = source


def _plan(kind: type, counts: tuple[int, ...]):
    """The calling thread's plan of class ``kind`` for ``counts``, rebuilt
    when they change.

    A run transforms one shape every step; fresh stage arrays of that
    size cost a page fault per 4 KiB on every call once the allocator has
    handed them back to the system.  Each kind keeps the last shape's
    buffers allocated: about three padded-size float arrays for the
    convolution, about four tensor-size ones for the sine transform.
    """
    plan = getattr(_workspace, kind.__name__, None)
    if plan is None or plan.counts != counts:
        plan = kind(counts)
        setattr(_workspace, kind.__name__, plan)
    return plan


def convolve_fft_nd(kernel: NDArray, signal: NDArray) -> NDArray[np.float64]:
    """FFT realization of :func:`convolve_direct_nd`.

    Both inputs are zero padded per axis to a fast length at or above
    ``N_i + (N_i - 1) / 2``, the shortest circular length whose
    wrap-around misses the centered window (see :func:`_padded_length`),
    transformed, multiplied, inverted, and cropped to that window.  The
    transforms are pruned: the forward stages transform only the lanes
    that hold data and the inverse stages invert only the lanes inside
    the crop, each lane exactly as ``numpy.fft.rfftn``/``irfftn`` would,
    so the result equals the full-buffer computation at that length bit
    for bit.  The stage arrays are reused across calls of one shape; the
    result is a fresh array.
    """
    kernel, signal = _check_pair(kernel, signal)
    plan = _plan(_ConvolutionPlan, kernel.shape)
    plan.pair[0] = kernel[plan.flip]
    plan.pair[1] = signal
    for transform, source, length, axis, out in plan.forward:
        transform(source, length, axis, out=out)
    np.multiply(plan.product, plan.factor, out=plan.product)
    for transform, source, length, axis, out in plan.inverse:
        transform(source, length, axis, out=out)
    return plan.result.copy()


class _SinePlan:
    """Stage arrays of the separable type-I sine transform for one shape.

    Stage ``k`` transforms axis ``k``, in scipy's ``dstn`` order
    ``0 ... n-1``, which fixes the rounding.  It writes the odd extension
    ``[0, x, 0, -x[::-1]]`` of every lane along that axis into the real
    buffer and takes its ``rfft`` of length ``2 (N_k + 1)`` into the
    complex buffer; the lane's transform is ``-imag[1 : N_k + 1]``, which
    the next stage reads as its input.  This is how pocketfft computes a
    DST-I itself, so the floats equal ``scipy.fft.dstn(type=1)``.  Every
    stage array is a reshaped prefix of one of the two buffers; as the
    stages share them, each call writes the extension's zeros again.
    """

    def __init__(self, counts: tuple[int, ...]):
        size = math.prod(counts)
        extensions = np.empty(max(size // n * 2 * (n + 1) for n in counts))
        spectra = np.empty(max(size // n * (n + 2) for n in counts), dtype=complex)
        self.counts = counts
        self.scale = -1.0 / 2.0 ** len(counts)
        self.stages = []
        for axis, n in enumerate(counts):
            lanes = (slice(None),) * axis
            shape = (*counts[:axis], 2 * (n + 1), *counts[axis + 1 :])
            extension = extensions[: math.prod(shape)].reshape(shape)
            shape = (*counts[:axis], n + 2, *counts[axis + 1 :])
            spectrum = spectra[: math.prod(shape)].reshape(shape)
            self.stages.append((
                extension[lanes + (slice(0, None, n + 1),)],  # entries 0 and n + 1
                extension[lanes + (slice(1, n + 1),)],
                extension[lanes + (slice(n + 2, None),)],
                lanes + (slice(None, None, -1),),
                extension,
                axis,
                spectrum,
                spectrum.imag[lanes + (slice(1, n + 1),)],
            ))


def dst1_1d(values: NDArray) -> NDArray[np.float64]:
    """Type-I discrete sine transform, ``out[i] = sum_k v[k] sin(ik pi / (N+1))``
    with 1-based ``i, k``.  Self inverse up to the factor ``2 / (N + 1)``.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise ValueError(f"expected a vector, got shape {values.shape}")
    return dst1_nd(values)


def dst1_nd(tensor: NDArray) -> NDArray[np.float64]:
    """Separable type-I sine transform along every axis.

    Equals ``scipy.fft.dstn(tensor, type=1) / 2**ndim`` bit for bit: the
    axes are transformed in the order ``0 ... n-1`` through the odd
    extension's ``numpy.fft.rfft`` (see :class:`_SinePlan`).  The stage
    arrays are reused across calls of one shape; the result is a fresh
    array.
    """
    tensor = np.asarray(tensor, dtype=float)
    if tensor.ndim == 0 or 0 in tensor.shape:
        raise ValueError(f"expected at least one entry per axis, got shape {tensor.shape}")
    plan = _plan(_SinePlan, tensor.shape)
    source, sign = tensor, 1.0
    for zeros, data, mirror, reverse, extension, axis, spectrum, imag in plan.stages:
        zeros.fill(0.0)
        np.multiply(source, sign, out=data)  # exact: the sign is +-1
        np.multiply(source[reverse], -sign, out=mirror)
        np.fft.rfft(extension, extension.shape[axis], axis, out=spectrum)
        source, sign = imag, -1.0
    return np.multiply(source, plan.scale)  # -imag / 2**ndim, one rounding
