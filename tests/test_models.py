import math

import numpy as np
import pytest
import scipy.linalg
import scipy.stats

from pointmass import (
    ContinuousDynamicsModel,
    DiscreteDynamicsModel,
    GaussianDensity,
    LaplaceDensity,
    matrix_exponential,
)
from pointmass.models import _LOG_TINY, _exp_flushed, _quadratic_form

TINY = np.finfo(float).tiny


def test_expm_zero_is_identity():
    np.testing.assert_array_equal(matrix_exponential(np.zeros((3, 3))), np.eye(3))


def test_expm_diagonal_closed_form():
    a = np.diag([0.3, -1.2, 2.0])
    t = 0.7
    np.testing.assert_allclose(
        matrix_exponential(a, t), np.diag(np.exp(np.diag(a) * t)), rtol=1e-14
    )


def test_expm_nilpotent_terminates():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    np.testing.assert_allclose(
        matrix_exponential(a, 1.0), [[1.0, 1.0], [0.0, 1.0]], atol=1e-15
    )


def test_expm_semigroup_property():
    rng = np.random.default_rng(5)
    a = rng.normal(0, 1, (4, 4))
    lhs = matrix_exponential(a, 0.4) @ matrix_exponential(a, 0.9)
    rhs = matrix_exponential(a, 1.3)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-10)


def test_expm_determinant_trace_identity():
    rng = np.random.default_rng(6)
    a = rng.normal(0, 0.8, (3, 3))
    t = 1.7
    det = np.linalg.det(matrix_exponential(a, t))
    assert det == pytest.approx(math.exp(t * np.trace(a)), rel=1e-10)


def test_expm_matches_scipy_for_desk_scale_matrices():
    rng = np.random.default_rng(7)
    for n in (2, 3, 6):
        a = rng.normal(0, 1.0, (n, n))
        a *= 10.0 / max(np.linalg.norm(a, 1), 1e-12)  # norm(a*t) == 10 at t=1
        ours = matrix_exponential(a, 1.0)
        ref = scipy.linalg.expm(a)
        np.testing.assert_allclose(ours, ref, rtol=1e-12, atol=1e-13)


def test_expm_rejects_non_finite():
    with pytest.raises(ValueError):
        matrix_exponential(np.array([[np.nan]]))
    for t in (math.nan, math.inf):
        with pytest.raises(ValueError, match="time must be finite"):
            matrix_exponential(np.eye(2), t)


# -- densities ------------------------------------------------------------------


def test_gaussian_density_scalar_values():
    g = GaussianDensity(1.0)
    assert g(np.array([0.0])) == pytest.approx(0.3989422804, abs=1e-10)
    assert g(np.array([1.0])) == pytest.approx(0.2419707245, abs=1e-10)


def test_gaussian_density_2d_center_value():
    g = GaussianDensity(np.eye(2))
    assert g(np.zeros(2)) == pytest.approx(1.0 / (2.0 * math.pi), abs=1e-12)


def test_gaussian_density_full_covariance_matches_scipy():
    cov = np.array([[2.0, 0.6], [0.6, 1.0]])
    mean = np.array([0.4, -1.0])
    g = GaussianDensity(cov, mean=mean)
    pts = np.random.default_rng(8).normal(0, 2, (50, 2))
    ref = scipy.stats.multivariate_normal(mean=mean, cov=cov).pdf(pts)
    np.testing.assert_allclose(g(pts), ref, rtol=1e-12)


def quadratic_form_loop(pts, whitener):
    """``|whitener @ p|^2`` per row, summing every whitener entry in order."""
    n = whitener.shape[0]
    q = np.zeros(pts.shape[0])
    for i in range(n):
        z = whitener[i, 0] * pts[:, 0]
        for j in range(1, n):
            z += whitener[i, j] * pts[:, j]
        q += z * z
    return q


def whitener_pattern(pattern, dim, rng):
    w = rng.normal(0, 1, (dim, dim)) + 3.0 * np.eye(dim)
    if pattern == "diagonal":
        return np.diag(np.diag(w))
    if pattern == "lower":
        return np.tril(w)
    w[(rng.random((dim, dim)) < 0.4) & ~np.eye(dim, dtype=bool)] = 0.0
    return w  # dense with zeros; a whitener is nonsingular, so no row is all zero


def signed_zero_points(shape, rng):
    """Normal points with exact zeros of both signs, so that skipped
    terms meet partial sums that are themselves zero."""
    pts = rng.normal(0, 2, shape)
    pts[rng.random(shape) < 0.2] = 0.0
    pts[rng.random(shape) < 0.2] = -0.0
    return pts


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("pattern", ["diagonal", "lower", "dense_with_zeros"])
def test_quadratic_form_bit_equal_to_full_loop(pattern, dim):
    rng = np.random.default_rng(10 * dim + len(pattern))
    w = whitener_pattern(pattern, dim, rng)
    pts = signed_zero_points((301, dim), rng)
    np.testing.assert_array_equal(_quadratic_form(pts, w), quadratic_form_loop(pts, w))


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("pattern", ["diagonal", "dense", "block_diagonal"])
def test_gaussian_density_bit_equal_to_full_loop(pattern, dim):
    # diagonal, full lower-triangular and lower-triangular-with-zeros
    # whiteners, with a nonzero mean and leading batch dimensions
    rng = np.random.default_rng(20 * dim + len(pattern))
    a = rng.normal(0, 1, (dim, dim))
    cov = a @ a.T + dim * np.eye(dim)
    if pattern == "diagonal":
        cov = np.diag(np.diag(cov))
    elif pattern == "block_diagonal":
        cov[: dim // 2, dim // 2 :] = cov[dim // 2 :, : dim // 2] = 0.0
    mean = rng.normal(0, 1, dim)
    g = GaussianDensity(cov, mean=mean)
    pts = signed_zero_points((4, 3, 7, dim), rng)
    q = quadratic_form_loop(pts.reshape(-1, dim) - mean, g.whitener)
    expected = np.exp(-0.5 * q + g.log_norm).reshape(4, 3, 7)
    np.testing.assert_array_equal(g(pts), expected)


def test_gaussian_density_integrates_to_one():
    g = GaussianDensity(np.diag([0.5, 2.0]))
    xs = np.linspace(-12, 12, 401)
    step = xs[1] - xs[0]
    grid = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1)
    total = g(grid).sum() * step**2
    assert total == pytest.approx(1.0, abs=1e-6)


def test_gaussian_density_rejects_singular():
    with pytest.raises(ValueError, match="positive definite"):
        GaussianDensity(np.zeros((2, 2)))


@pytest.mark.parametrize(
    "cov, mean",
    [([[math.inf]], None), ([[math.nan]], None), ([[1.0]], [math.nan]), ([[1.0]], [math.inf])],
)
def test_gaussian_density_rejects_non_finite(cov, mean):
    with pytest.raises(ValueError, match="finite"):
        GaussianDensity(cov, mean=mean)


@pytest.mark.parametrize("mean", [[0.0], [0.0, 0.0, 0.0], [[0.0, 0.0]]])
def test_gaussian_density_rejects_misshapen_mean(mean):
    with pytest.raises(ValueError, match=r"mean must have shape \(2,\)"):
        GaussianDensity(np.eye(2), mean=mean)


@pytest.mark.parametrize("scales", [[math.nan], [math.inf], [1.0, math.nan], [0.0], [-1.0]])
def test_laplace_density_rejects_bad_scales(scales):
    with pytest.raises(ValueError, match="scales"):
        LaplaceDensity(scales)


def test_laplace_density_matches_formula():
    d = LaplaceDensity([0.5, 2.0])
    pts = np.array([[0.3, -1.1], [0.0, 0.0]])
    expected = (
        np.exp(-np.abs(pts[:, 0]) / 0.5 - np.abs(pts[:, 1]) / 2.0) / (2 * 0.5 * 2 * 2.0)
    )
    np.testing.assert_allclose(d(pts), expected, rtol=1e-14)


def test_exp_flush_threshold_is_the_smallest_normal_result():
    # exponents around the threshold ulp by ulp, then across the whole
    # range where exp is subnormal or underflows
    near = [_LOG_TINY]
    for direction in (-np.inf, np.inf):
        x = _LOG_TINY
        for _ in range(50):
            x = np.nextafter(x, direction)
            near.append(x)
    exponents = np.concatenate([near, np.linspace(-800.0, 0.0, 80_001), [-np.inf]])
    expected = np.exp(exponents)
    assert ((expected > 0) & (expected < TINY)).sum() > 1000
    expected[expected < TINY] = 0.0
    assert np.exp(_LOG_TINY) >= TINY > np.exp(np.nextafter(_LOG_TINY, -np.inf))
    np.testing.assert_array_equal(_exp_flushed(exponents.copy()), expected)


def laplace_loop(pts, scales):
    """The Laplace density as ``exp(-sum |x_j| / s_j + log_norm)``, summed
    in axis order."""
    r = np.abs(pts[:, 0]) / scales[0]
    for j in range(1, len(scales)):
        r += np.abs(pts[:, j]) / scales[j]
    return np.exp(-r + -np.log(2.0 * scales).sum())


@pytest.mark.parametrize("kind", ["gaussian", "laplace"])
def test_packaged_densities_flush_only_subnormal_values(kind):
    # 0 where the unflushed formula gives a subnormal, its value bit for
    # bit everywhere else, on C-ordered points and on the coordinate-major
    # view that transition rows pass
    rng = np.random.default_rng(12)
    pts = rng.uniform(-14.0, 14.0, (20_000, 3))
    if kind == "gaussian":
        cov = np.array([[0.3, 0.05, 0.0], [0.05, 0.2, 0.0], [0.0, 0.0, 0.25]])
        density = GaussianDensity(cov, mean=[0.1, -0.2, 0.0])
        q = quadratic_form_loop(pts - density.mean, density.whitener)
        unflushed = np.exp(-0.5 * q + density.log_norm)
    else:
        scales = np.array([0.05, 0.04, 0.06])
        density = LaplaceDensity(scales)
        unflushed = laplace_loop(pts, scales)
    subnormal = (unflushed > 0) & (unflushed < TINY)
    assert subnormal.sum() > 100
    expected = np.where(subnormal, 0.0, unflushed)
    columns = np.ascontiguousarray(pts.T).T
    for points in (pts, columns):
        np.testing.assert_array_equal(density(points), expected)


def test_laplace_density_covariance():
    d = LaplaceDensity([0.5, 2.0])
    np.testing.assert_allclose(d.covariance, np.diag([0.5, 8.0]))


# -- model validation -------------------------------------------------------------


def test_dd_model_rejects_singular_transition():
    with pytest.raises(ValueError, match="nonsingular"):
        DiscreteDynamicsModel.gaussian(np.zeros((2, 2)), np.eye(2))


def test_dd_model_wraps_and_checks_custom_noise():
    model = DiscreteDynamicsModel(np.eye(1), lambda pts: pts[..., 0])
    with pytest.raises(ValueError, match="negative"):
        model.noise(np.array([[-1.0]]))
    for noise, message in [
        (lambda pts: pts, r"returned shape \(2, 1\), expected \(2,\)"),
        (lambda pts: np.full(pts.shape[:-1], math.inf), "non-finite"),
        (lambda pts: np.full(pts.shape[:-1], math.nan), "non-finite"),
    ]:
        model = DiscreteDynamicsModel(np.eye(1), noise)
        with pytest.raises(ValueError, match=message):
            model.noise(np.array([[0.5], [1.0]]))


def test_dd_model_noise_covariance_passthrough():
    model = DiscreteDynamicsModel.gaussian([[0.9]], 0.25)
    np.testing.assert_allclose(model.noise_covariance, [[0.25]])


def test_cd_model_rejects_offdiagonal_diffusion():
    with pytest.raises(ValueError, match="diagonal"):
        ContinuousDynamicsModel(np.eye(2), np.array([[1.0, 0.1], [0.1, 1.0]]))


@pytest.mark.parametrize("q", [[0.1], [0.1, 0.2, 0.3], np.eye(3)])
def test_cd_model_rejects_misshapen_diffusion(q):
    with pytest.raises(ValueError, match=r"Q must have shape \(2, 2\)"):
        ContinuousDynamicsModel(np.eye(2), q)


def test_cd_model_rejects_negative_diffusion():
    with pytest.raises(ValueError):
        ContinuousDynamicsModel(np.eye(2), np.diag([1.0, -0.5]))


def test_cd_model_accepts_diagonal_vector():
    m = ContinuousDynamicsModel(np.zeros((2, 2)), [0.3, 0.7])
    np.testing.assert_allclose(m.diffusion_diagonal, [0.3, 0.7])
    assert m.trace_drift == 0.0


def test_cd_model_rejects_bad_substeps():
    for substeps in (0, -3, 2.5, math.nan, math.inf, "30"):
        with pytest.raises(ValueError, match="substeps"):
            ContinuousDynamicsModel(np.zeros((1, 1)), [[0.1]], substeps=substeps)
    for period in (0.0, -1.0, math.inf, math.nan, True):
        with pytest.raises(ValueError, match="sampling period"):
            ContinuousDynamicsModel(np.zeros((1, 1)), [[0.1]], sampling_period=period)
    # integral values are accepted, as ints
    for substeps in (30, 30.0, np.int64(30)):
        model = ContinuousDynamicsModel(np.zeros((1, 1)), [[0.1]], substeps=substeps)
        assert model.substeps == 30 and type(model.substeps) is int
