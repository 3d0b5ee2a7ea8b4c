import os
import subprocess
import sys
import time

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from pointmass.transforms import (
    _padded_length,
    convolve_direct_nd,
    convolve_fft_nd,
    dst1_1d,
    dst1_nd,
)


def conv_oracle(kernel: np.ndarray, signal: np.ndarray) -> np.ndarray:
    """Literal double sum over the offset definition.

    out[d] = sum_e k_off(d - e) * s[e] where the kernel tensor element at
    index j carries the offset mid - j, i.e. k_off(o) = kernel[mid - o].
    """
    counts = kernel.shape
    mid = [(n - 1) // 2 for n in counts]
    out = np.zeros(counts)
    for d in np.ndindex(*counts):
        acc = 0.0
        for e in np.ndindex(*counts):
            idx = tuple(m - (di - ei) for m, di, ei in zip(mid, d, e))
            if all(0 <= i < n for i, n in zip(idx, counts)):
                acc += kernel[idx] * signal[e]
        out[d] = acc
    return out


def full_buffer_convolution(kernel: np.ndarray, signal: np.ndarray) -> np.ndarray:
    """The unpruned convolution: pad, transform the whole buffer, multiply,
    invert the whole buffer, crop."""
    shape, axes = [_padded_length(n) for n in kernel.shape], range(kernel.ndim)
    spectra = [np.fft.rfftn(x, s=shape, axes=axes) for x in (np.flip(kernel), signal)]
    full = np.fft.irfftn(spectra[0] * spectra[1], s=shape, axes=axes)
    return full[tuple(slice((n - 1) // 2, (n - 1) // 2 + n) for n in kernel.shape)]


def delta_kernel(counts):
    k = np.zeros(counts)
    k[tuple((n - 1) // 2 for n in counts)] = 1.0
    return k


def rel_max(a, b):
    return np.abs(a - b).max() / max(np.abs(b).max(), 1e-300)


def test_delta_kernel_is_identity():
    rng = np.random.default_rng(0)
    s = rng.random((5, 7))
    k = delta_kernel((5, 7))
    np.testing.assert_array_equal(convolve_direct_nd(k, s), s)
    assert rel_max(convolve_fft_nd(k, s), s) < 1e-12


def test_shift_kernel_moves_signal():
    s = np.array([0.0, 1.0, 0.0])
    # kernel value at index 0 carries offset +1: shifts content up one cell
    right = convolve_direct_nd(np.array([1.0, 0.0, 0.0]), s)
    np.testing.assert_array_equal(right, np.array([0.0, 0.0, 1.0]))
    left = convolve_direct_nd(np.array([0.0, 0.0, 1.0]), s)
    np.testing.assert_array_equal(left, np.array([1.0, 0.0, 0.0]))
    np.testing.assert_allclose(
        convolve_fft_nd(np.array([1.0, 0.0, 0.0]), s), right, atol=1e-12
    )


def test_direct_matches_brute_force_oracle():
    rng = np.random.default_rng(1)
    k = rng.random((3, 3))
    s = rng.random((3, 3))
    np.testing.assert_allclose(convolve_direct_nd(k, s), conv_oracle(k, s), rtol=1e-13)


@pytest.mark.parametrize(
    "counts", [(9,), (1,), (3, 5), (1, 5, 3), (5, 7, 3), (9999,), (99, 101)]
)
def test_fft_matches_direct(counts):
    rng = np.random.default_rng(sum(counts))
    k = rng.random(counts)
    s = rng.random(counts)
    direct = convolve_direct_nd(k, s)
    fft = convolve_fft_nd(k, s)
    assert rel_max(fft, direct) < 1e-10


@pytest.mark.parametrize(
    "counts",
    [(257,), (4097,), (65537,), (1, 9), (13, 15), (9, 7, 5), (3, 5, 7, 9), (9,) * 5],
)
def test_fft_bit_equal_to_full_buffer_convolution(counts):
    # pruning skips lanes of pure padding and lanes outside the crop; every
    # lane it keeps is transformed as on the full buffer
    rng = np.random.default_rng(len(counts))
    k = rng.random(counts)
    s = rng.random(counts)
    np.testing.assert_array_equal(convolve_fft_nd(k, s), full_buffer_convolution(k, s))


def test_fft_reused_buffers_keep_results_independent():
    # counts 27 and 25 pad to the same length, and the calls alternate
    # dimension (5-D -> 2-D -> 1-D -> 5-D); each call must see only its own
    # inputs, and a result must survive the next calls
    assert _padded_length(27) == _padded_length(25)
    rng = np.random.default_rng(3)
    counts = [(27,), (27,), (25,), (25, 27), (9,) * 5, (25, 27), (25,), (9,) * 5]
    pairs = [(rng.random(c), rng.random(c)) for c in counts]
    results = [convolve_fft_nd(k, s) for k, s in pairs]
    for (k, s), out in zip(pairs, results):
        np.testing.assert_array_equal(out, full_buffer_convolution(k, s))
    for (k, s), out in zip(pairs[:4], results[:4]):  # the direct sum takes seconds in 5-D
        assert rel_max(out, convolve_direct_nd(k, s)) < 1e-12
    np.testing.assert_array_equal(results[0], convolve_fft_nd(*pairs[0]))


def test_fft_warm_call_allocates_little_beyond_its_result():
    # the stage arrays are reused; a warm 9^5 call allocates its 0.45 MB
    # result, not padded-size (6.5 MB complex) temporaries
    import tracemalloc

    rng = np.random.default_rng(9)
    k, s = rng.random((9,) * 5), rng.random((9,) * 5)
    convolve_fft_nd(k, s)
    tracemalloc.start()
    try:
        convolve_fft_nd(k, s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20, f"peak {peak / 2**20:.2f} MB"


def assert_same_results_across_threads(function, inputs):
    """Four threads call ``function`` on ``inputs`` in staggered order, at a
    short switch interval; every call must return what a lone call did."""
    import threading

    expected = [function(*args) for args in inputs]
    mismatches = []

    def work(offset):
        for r in range(20):
            i = (offset + r) % len(inputs)
            if not np.array_equal(function(*inputs[i]), expected[i]):
                mismatches.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert mismatches == []


@pytest.mark.parametrize("counts", [(3,), (7,), (11,), (3, 11), (11, 3, 7), (7, 3, 11, 3)])
def test_fft_shortest_length_has_no_wrap_around(counts):
    # at these counts the circular length is exactly N + (N - 1) / 2, the
    # least that keeps the crop free of wrap-around; spikes at the kernel's
    # and the signal's corners put the most weight on the extreme offsets,
    # whose linear-convolution entries are the first to wrap
    assert [_padded_length(n) for n in counts] == [n + (n - 1) // 2 for n in counts]
    rng = np.random.default_rng(sum(counts))
    k = rng.uniform(0.5, 1.0, counts)  # full support: every offset is present
    s = rng.uniform(0.5, 1.0, counts)
    for corner in np.ndindex(*(2,) * len(counts)):
        index = tuple(c * (n - 1) for c, n in zip(corner, counts))
        k[index] += 1e3
        s[index] += 1e3
    assert rel_max(convolve_fft_nd(k, s), convolve_direct_nd(k, s)) < 1e-13


def test_fft_reused_buffers_are_per_thread():
    # the transforms release the interpreter lock, so threads convolving
    # the same shape at once must not share buffers
    rng = np.random.default_rng(4)
    pairs = [(rng.random(4097), rng.random(4097)) for _ in range(6)]
    assert_same_results_across_threads(convolve_fft_nd, pairs)


def test_fft_matches_oracle_constant_inputs():
    k = np.full((3, 3), 0.25)
    s = np.full((3, 3), 2.0)
    expected = conv_oracle(k, s)
    assert rel_max(convolve_fft_nd(k, s), expected) < 1e-12
    # the interior point sees every kernel entry
    assert expected[1, 1] == pytest.approx(0.25 * 9 * 2.0)


def test_convolution_preserves_sum_for_narrow_kernel():
    rng = np.random.default_rng(2)
    k = np.zeros(31)
    k[14:17] = rng.random(3)  # narrow support around the center
    s = np.zeros(31)
    s[10:21] = rng.random(11)  # signal well inside the window
    out = convolve_fft_nd(k, s)
    assert out.sum() == pytest.approx(k.sum() * s.sum(), rel=1e-12)


def test_convolution_shape_and_parity_validation():
    with pytest.raises(ValueError, match="odd"):
        convolve_direct_nd(np.zeros(4), np.zeros(4))
    with pytest.raises(ValueError, match="odd"):
        convolve_fft_nd(np.zeros((3, 4)), np.zeros((3, 4)))
    with pytest.raises(ValueError, match="shape"):
        convolve_fft_nd(np.zeros(3), np.zeros(5))


# -- sine transform ----------------------------------------------------------------


def dst_oracle(v: np.ndarray) -> np.ndarray:
    n = len(v)
    i = np.arange(1, n + 1)
    return np.sin(np.outer(i, i) * np.pi / (n + 1)) @ v


def test_dst1_first_basis_vector():
    n = 7
    k = np.arange(1, n + 1)
    v = np.sin(k * np.pi / (n + 1))
    out = dst1_1d(v)
    expected = np.zeros(n)
    expected[0] = (n + 1) / 2
    np.testing.assert_allclose(out, expected, atol=1e-12)


def test_dst1_self_inverse_scaling():
    rng = np.random.default_rng(3)
    v = rng.normal(0, 1, 17)
    back = dst1_1d(dst1_1d(v)) * (2.0 / (17 + 1))
    np.testing.assert_allclose(back, v, atol=1e-12)


def test_dst1_matches_direct_sine_sum():
    rng = np.random.default_rng(4)
    for n in (1, 2, 5, 16):
        v = rng.normal(0, 1, n)
        np.testing.assert_allclose(dst1_1d(v), dst_oracle(v), atol=1e-10)


@given(st.integers(min_value=1, max_value=64), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_dst1_involution_property(n, seed):
    v = np.random.default_rng(seed).normal(0, 1, n)
    back = dst1_1d(dst1_1d(v)) * (2.0 / (n + 1))
    np.testing.assert_allclose(back, v, atol=1e-11 * max(1.0, np.abs(v).max()))


def test_dstn_equals_axiswise_application_any_order():
    rng = np.random.default_rng(5)
    t = rng.normal(0, 1, (3, 5, 7))
    out = dst1_nd(t)
    for order in [(0, 1, 2), (2, 0, 1), (1, 2, 0)]:
        manual = t.copy()
        for axis in order:
            manual = np.apply_along_axis(dst1_1d, axis, manual)
        np.testing.assert_allclose(out, manual, atol=1e-12)


def test_dstn_rank_one_separability():
    rng = np.random.default_rng(6)
    u, v = rng.normal(0, 1, 5), rng.normal(0, 1, 9)
    np.testing.assert_allclose(
        dst1_nd(np.outer(u, v)), np.outer(dst1_1d(u), dst1_1d(v)), atol=1e-12
    )


def test_dstn_double_application_scaling():
    rng = np.random.default_rng(7)
    t = rng.normal(0, 1, (5, 3, 9))
    scale = np.prod([2.0 / (n + 1) for n in t.shape])
    np.testing.assert_allclose(dst1_nd(dst1_nd(t)) * scale, t, atol=1e-12)


@pytest.mark.parametrize("shape", [(), (0,), (3, 0)])
def test_dst1_rejects_tensors_without_entries(shape):
    with pytest.raises(ValueError):
        dst1_nd(np.zeros(shape))


def test_dst1_reused_buffers_are_per_thread():
    rng = np.random.default_rng(10)
    tensors = [(rng.normal(size=(129, 129)),) for _ in range(6)]
    assert_same_results_across_threads(dst1_nd, tensors)


# -- agreement with scipy (test-only import) ------------------------------------------
# numpy.fft and scipy.fft both run pocketfft; the sine transform takes the
# same odd-extension real FFT per lane and the same axis order as
# scipy.fft.dstn, so the floats are equal, not just close.  A numpy or scipy
# release that changes either library's FFT shows up here.


def scipy_dstn(tensor: np.ndarray) -> np.ndarray:
    return scipy.fft.dstn(tensor, type=1) / 2.0**tensor.ndim


@pytest.mark.parametrize("magnitude", [1.0, 1e300, 1e-300])
@pytest.mark.parametrize(
    "n", [1, 2, 3, 4, 5, 7, 8, 16, 31, 64, 101, 128, 129, 257, 1009, 4097, 65537]
)
def test_dst1_1d_bit_equal_to_scipy(n, magnitude):
    v = np.random.default_rng(n).normal(0, 1, n) * magnitude
    np.testing.assert_array_equal(dst1_1d(v), scipy.fft.dst(v, type=1) / 2.0)


@pytest.mark.parametrize(
    "shape",
    [(1, 1), (3, 5), (64, 33), (129, 129), (1, 7, 1), (5, 3, 7), (33, 17, 9),
     (2, 3, 4, 5), (9, 9, 9, 9)],
)
def test_dst1_nd_bit_equal_to_scipy(shape):
    t = np.random.default_rng(len(shape)).normal(0, 1, shape)
    np.testing.assert_array_equal(dst1_nd(t), scipy_dstn(t))
    np.testing.assert_array_equal(dst1_nd(t * 1e-300), scipy_dstn(t * 1e-300))


def test_dst1_reused_buffers_keep_results_independent():
    # successive calls change shape and dimension; each call must see only
    # its own input, and a result must survive the next calls
    rng = np.random.default_rng(11)
    shapes = [(129, 129), (65, 33), (65, 33), (7,), (5, 3, 7), (129, 129), (33, 65)]
    tensors = [rng.normal(0, 1, s) for s in shapes]
    results = [dst1_nd(t) for t in tensors]
    for t, out in zip(tensors, results):
        np.testing.assert_array_equal(out, scipy_dstn(t))


def test_padded_length_matches_scipy_rule():
    # the next length scipy's real transforms call fast at or above the
    # shortest alias-free circular length N + (N - 1) / 2
    mismatches = [
        n for n in range(1, 4097)
        if _padded_length(n) != scipy.fft.next_fast_len(n + (n - 1) // 2, real=True)
    ]
    assert mismatches == []


# -- runtime dependencies ---------------------------------------------------------


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency; scipy is for the tests
    import pointmass

    src = os.path.dirname(os.path.dirname(os.path.abspath(pointmass.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = (
        "import sys, pointmass, pointmass.cli\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# -- scaling ------------------------------------------------------------------------


def test_fft_convolution_log_linear_scaling():
    sizes = [2**k - 1 for k in range(8, 19)]  # odd counts spanning 2^8..2^18
    rng = np.random.default_rng(8)
    medians = []
    for n in sizes:
        k = rng.random(n)
        s = rng.random(n)
        convolve_fft_nd(k, s)
        reps = 7 if n < 2**14 else 3
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            convolve_fft_nd(k, s)
            times.append(time.perf_counter() - t0)
        medians.append(np.median(times))
    slope = np.polyfit(np.log(sizes), np.log(medians), 1)[0]
    assert 0.9 <= slope <= 1.3, f"fitted slope {slope:.3f}"
