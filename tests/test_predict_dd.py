import numpy as np
import pytest

from pointmass import (
    DiscreteDynamicsModel,
    GaussianDensity,
    LaplaceDensity,
    LatticeGrid,
    PointMassDensity,
)
from pointmass.predict_dd import (
    _target_rows,
    middle_row_kernel,
    predict_efficient,
    predict_inflated,
    predict_standard,
    transformed_grid,
    transition_matrix,
)
from pointmass.transforms import convolve_fft_nd


def rel_max(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


def rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def gaussian_pmd(grid, cov, mean=None):
    return PointMassDensity.from_density(GaussianDensity(cov, mean=mean), grid)


# -- grid transformation -----------------------------------------------------------


def test_transformed_grid_identity():
    g = LatticeGrid.spanning((9, 9), (0.5, -1.0), (3.0, 4.0))
    assert transformed_grid(g, np.eye(2)) == g


def test_transformed_grid_scaling():
    g = LatticeGrid.axis_aligned((5, 5), (1.0, 1.0), (1.0, 0.0))
    out = transformed_grid(g, 2.0 * np.eye(2))
    np.testing.assert_allclose(out.center, [2.0, 0.0])
    np.testing.assert_allclose(out.basis, 2.0 * np.eye(2))
    assert out.cell_volume == pytest.approx(4.0 * g.cell_volume)
    for i in range(g.size):
        np.testing.assert_allclose(out.point(i), 2.0 * g.point(i))


def test_transformed_grid_rotation_is_isometry():
    g = LatticeGrid.spanning((3, 3), (1.0, 2.0), (1.0, 1.0))
    out = transformed_grid(g, rotation(0.7))
    p0, p1 = g.points, out.points
    d0 = np.linalg.norm(p0[:, None] - p0[None, :], axis=-1)
    d1 = np.linalg.norm(p1[:, None] - p1[None, :], axis=-1)
    np.testing.assert_allclose(d1, d0, atol=1e-12)


def test_transformed_grid_rejects_singular():
    g = LatticeGrid.spanning((3,), (0.0,), (1.0,))
    with pytest.raises(ValueError, match="nonsingular"):
        transformed_grid(g, np.zeros((1, 1)))


# -- transition matrix structure ------------------------------------------------------


def test_tpm_random_walk_is_symmetric_toeplitz():
    g = LatticeGrid.spanning((7,), (0.0,), (3.0,))
    model = DiscreteDynamicsModel.gaussian([[1.0]], 1.0)
    t = transition_matrix(model, g, g)
    np.testing.assert_allclose(t, t.T, rtol=1e-14)
    for k in range(-6, 7):
        diag = np.diagonal(t, k)
        np.testing.assert_allclose(diag, diag[0], rtol=1e-12)


def test_tpm_moving_dynamics_without_grid_move_is_not_toeplitz():
    g = LatticeGrid.spanning((7,), (0.0,), (3.0,))
    model = DiscreteDynamicsModel.gaussian([[0.8]], 1.0)
    t = transition_matrix(model, g, g)
    spreads = [np.ptp(np.diagonal(t, k)) for k in range(-3, 4)]
    assert max(spreads) > 1e-3


def test_tpm_transformed_grid_restores_toeplitz():
    g = LatticeGrid.spanning((7,), (0.0,), (3.0,))
    model = DiscreteDynamicsModel.gaussian([[0.8]], 1.0)
    t = transition_matrix(model, g, transformed_grid(g, model.F))
    for k in range(-6, 7):
        diag = np.diagonal(t, k)
        np.testing.assert_allclose(diag, diag[0], rtol=1e-12)


def test_tpm_between_different_grids_is_rectangular():
    g_from = LatticeGrid.spanning((9,), (0.0,), (3.0,))
    g_to = LatticeGrid.spanning((15,), (0.5,), (4.0,))
    model = DiscreteDynamicsModel.gaussian([[0.9]], 0.5)
    t = transition_matrix(model, g_from, g_to)
    assert t.shape == (15, 9)
    assert (t >= 0).all()


def test_tpm_2d_depends_only_on_index_offset():
    g = LatticeGrid((3, 5), [[0.6, 0.1], [0.0, 0.5]], [0.2, -0.3])
    model = DiscreteDynamicsModel.gaussian(
        [[1.0, 0.2], [-0.1, 0.9]], np.diag([0.4, 0.3])
    )
    t = transition_matrix(model, g, transformed_grid(g, model.F))
    multis = list(np.ndindex(*g.counts))
    seen = {}
    for j in range(g.size):
        for i in range(g.size):
            key = tuple(np.subtract(multis[j], multis[i]))
            if key in seen:
                assert t[j, i] == pytest.approx(seen[key], rel=1e-12)
            else:
                seen[key] = t[j, i]


def asymmetric_noise(pts):
    """A skewed density, written for any strides: it indexes coordinates
    and never reshapes."""
    return np.exp(-np.abs(pts[..., 0] - 0.2) / 0.3 - (pts[..., 1] + 0.1) ** 2 / 0.4) / 2.0


class RecordingNoise:
    """``asymmetric_noise`` that records the layout of each input."""

    def __init__(self):
        self.contiguous = []

    def __call__(self, pts):
        self.contiguous.append(pts.flags.c_contiguous)
        return asymmetric_noise(pts)


@pytest.mark.parametrize("lead", [(), (1,), (6,)])
@pytest.mark.parametrize("kind", ["gaussian", "laplace", "custom", "recording"])
def test_target_rows_equal_in_test_formula(kind, lead):
    # one target as a vector (the kernel), as a one-point grid and several
    noise = {
        "gaussian": lambda: GaussianDensity([[0.16, 0.03], [0.03, 0.1]]),
        "laplace": lambda: LaplaceDensity([0.05, 0.08]),
        "custom": lambda: asymmetric_noise,
        "recording": RecordingNoise,
    }[kind]()
    model = DiscreteDynamicsModel([[1.0, 0.3], [-0.2, 0.9]], noise)
    # wide cells and narrow noise put flushed zeros into the packaged rows
    g = LatticeGrid((41, 37), [[1.1, 0.1], [0.0, 0.9]], [0.3, -0.4])
    rng = np.random.default_rng(len(lead))
    t = g.points[rng.choice(g.size, lead or None)] + rng.normal(0, 0.5, (*lead, 2))
    expected = model.noise(t[..., None, :] - g.points @ model.F.T) * g.cell_volume
    if kind == "recording":
        noise.contiguous.clear()
    rows = _target_rows(model, g, t)
    np.testing.assert_array_equal(rows, expected)
    if kind == "recording":
        assert noise.contiguous == [False]  # it received the coordinate-major view


# -- middle-row kernel ------------------------------------------------------------------


@pytest.mark.parametrize(
    "counts,f,cov",
    [
        ((9,), [[0.9]], [[0.25]]),
        ((5, 7), [[1.0, 0.3], [-0.2, 0.8]], [[0.3, 0.05], [0.05, 0.2]]),
        ((3, 3, 3), np.diag([1.1, 0.9, 1.0]), np.diag([0.2, 0.3, 0.25])),
    ],
)
def test_middle_row_kernel_bit_equal_to_tpm_row(counts, f, cov):
    n = len(counts)
    rng = np.random.default_rng(10)
    g = LatticeGrid(
        counts, np.eye(n) * 0.7 + rng.normal(0, 0.02, (n, n)), rng.normal(0, 0.5, n)
    )
    model = DiscreteDynamicsModel.gaussian(f, cov)
    t = transition_matrix(model, g, transformed_grid(g, model.F))
    row = t[(g.size - 1) // 2].reshape(counts)
    np.testing.assert_array_equal(middle_row_kernel(model, g), row)


def test_middle_row_kernel_centrally_symmetric_for_even_noise():
    g = LatticeGrid.spanning((7, 5), (0.3, -0.2), (3.0, 2.0))
    model = DiscreteDynamicsModel.gaussian(np.eye(2), np.diag([0.5, 0.8]))
    k = middle_row_kernel(model, g)
    np.testing.assert_allclose(k, k[::-1, ::-1], rtol=1e-12)


def test_middle_row_kernel_center_entry():
    g = LatticeGrid.axis_aligned((3, 3), (0.5, 0.5), (1.0, 1.0))
    model = DiscreteDynamicsModel.gaussian(np.eye(2) * 1.3, np.eye(2) * 0.4)
    k = middle_row_kernel(model, g)
    expected = model.noise(np.zeros(2)) * g.cell_volume
    assert k[1, 1] == pytest.approx(expected, rel=1e-14)


def test_middle_row_kernel_rejects_even_counts():
    g = LatticeGrid.axis_aligned((4,), (1.0,), (0.0,))
    model = DiscreteDynamicsModel.gaussian([[1.0]], 1.0)
    with pytest.raises(ValueError, match="odd"):
        middle_row_kernel(model, g)


# -- standard predictor ------------------------------------------------------------------


def test_standard_predict_matches_kalman_1d():
    m0, p0, f, q = 0.4, 1.0, 0.9, 0.3
    g = LatticeGrid.spanning((99,), (m0,), (6.0,))
    pmd = gaussian_pmd(g, p0, mean=[m0])
    model = DiscreteDynamicsModel.gaussian([[f]], q)
    mean, cov = predict_standard(pmd, model).moments()
    assert mean[0] == pytest.approx(f * m0, abs=0.02 * abs(f * m0))
    assert cov[0, 0] == pytest.approx(f * p0 * f + q, rel=0.02)


def test_standard_predict_tiny_noise_maps_weights():
    g = LatticeGrid.spanning((31,), (0.0,), (3.0,))
    pmd = gaussian_pmd(g, 1.0)
    step = g.step_lengths[0]
    model = DiscreteDynamicsModel.gaussian([[1.0]], (step / 100.0) ** 2)
    out = predict_standard(pmd, model)
    np.testing.assert_allclose(out.weights, pmd.weights, rtol=1e-10)


def test_standard_predict_uniform_wide_noise_contract():
    g = LatticeGrid.spanning((9, 9), (0.0, 0.0), (2.0, 2.0))
    pmd = PointMassDensity(g, np.ones(g.size)).normalized()
    model = DiscreteDynamicsModel.gaussian(rotation(0.4), np.eye(2) * 9.0)
    out = predict_standard(pmd, model)
    assert (out.weights >= 0).all()
    assert out.mass == pytest.approx(1.0, abs=1e-12)


def test_standard_predict_gaussian_fast_path_matches_generic():
    g = LatticeGrid.spanning((15, 13), (0.1, -0.4), (4.0, 4.0))
    pmd = gaussian_pmd(g, np.diag([1.0, 0.8]))
    cov = np.array([[0.3, 0.08], [0.08, 0.25]])
    fast = DiscreteDynamicsModel.gaussian([[0.9, 0.1], [0.0, 1.05]], cov)
    dens = GaussianDensity(cov)
    generic = DiscreteDynamicsModel(fast.F, lambda pts: dens(pts))
    a = predict_standard(pmd, fast)
    b = predict_standard(pmd, generic)
    assert rel_max(a.weights, b.weights) < 1e-12


# -- efficient predictor -----------------------------------------------------------------


def test_efficient_equals_standard_1d():
    g = LatticeGrid.spanning((99,), (0.0,), (6.0,))
    pmd = gaussian_pmd(g, 1.0)
    model = DiscreteDynamicsModel.gaussian([[0.9]], 0.5)
    a = predict_standard(pmd, model)
    b = predict_efficient(pmd, model)
    assert a.grid == b.grid
    assert rel_max(b.weights, a.weights) < 1e-10


def test_efficient_equals_standard_2d_shear():
    g = LatticeGrid.spanning((11, 11), (0.0, 0.0), (3.0, 3.0))
    pmd = gaussian_pmd(g, np.eye(2))
    model = DiscreteDynamicsModel.gaussian([[1.0, 0.1], [0.0, 1.0]], np.eye(2) * 0.1)
    a = predict_standard(pmd, model)
    b = predict_efficient(pmd, model)
    assert rel_max(b.weights, a.weights) < 1e-10


def test_efficient_equals_standard_rotation_laplace():
    g = LatticeGrid.spanning((21, 21), (0.2, -0.1), (6.0, 6.0))
    pmd = gaussian_pmd(g, np.eye(2))
    model = DiscreteDynamicsModel(rotation(0.5), LaplaceDensity([0.1, 0.08]))
    a = predict_standard(pmd, model)
    b = predict_efficient(pmd, model)
    assert rel_max(b.weights, a.weights) < 1e-10


def test_efficient_equals_standard_asymmetric_custom_noise():
    # density without any symmetry pins the convolution orientation
    def skewed(pts):
        w = pts[..., 0]
        return np.exp(-0.5 * ((w - 0.12) / 0.3) ** 2) * (1.0 + 0.4 * np.tanh(w))

    g = LatticeGrid.spanning((63,), (0.5,), (6.0,))
    pmd = gaussian_pmd(g, 1.0)
    model = DiscreteDynamicsModel(np.array([[0.95]]), skewed)
    a = predict_standard(pmd, model)
    b = predict_efficient(pmd, model)
    assert rel_max(b.weights, a.weights) < 1e-10


def test_efficient_multi_step_stays_consistent():
    g = LatticeGrid.spanning((33, 33), (0.0, 0.0), (5.0, 5.0))
    pmd = gaussian_pmd(g, np.eye(2))
    model = DiscreteDynamicsModel.gaussian(
        rotation(0.3) @ np.diag([0.95, 1.02]), np.eye(2) * 0.09
    )
    std, eff = pmd, pmd
    for _ in range(3):
        std = predict_standard(std, model)
        eff = predict_efficient(eff, model)
    assert std.grid == eff.grid
    assert rel_max(eff.weights, std.weights) < 1e-10


def test_efficient_mass_bound_and_leak_monotone_in_width():
    model = DiscreteDynamicsModel.gaussian([[1.0]], 0.5)
    leaks = []
    for half in (3.0, 4.5, 6.0):
        g = LatticeGrid.spanning((99,), (0.0,), (half,))
        pmd = gaussian_pmd(g, 0.5)
        raw = predict_efficient(pmd, model, normalized=False)
        assert raw.mass <= 1.0 + 1e-9
        leaks.append(1.0 - raw.mass)
    assert leaks[0] > leaks[1] > leaks[2] >= 0.0


def test_standard_gaussian_path_exact_far_from_origin():
    # the whitened path expands |a - b|^2 = |a|^2 - 2 a.b + |b|^2, which
    # cancels badly around 1000 unless it is measured from the grid center
    g = LatticeGrid.spanning((101,), (1000.0,), (6.0,))
    pmd = gaussian_pmd(g, 1.0, mean=[1000.0])
    model = DiscreteDynamicsModel.gaussian([[1.0]], 0.05)
    s = predict_standard(pmd, model, normalized=False)
    e = predict_efficient(pmd, model, normalized=False)
    dense = transition_matrix(model, g, s.grid) @ pmd.weights
    assert rel_max(s.weights, dense) < 1e-12
    assert rel_max(e.weights, s.weights) < 1e-12


def test_efficient_predict_rejects_even_counts():
    g = LatticeGrid.axis_aligned((4, 5), (1.0, 1.0), (0.0, 0.0))
    pmd = PointMassDensity(g, np.ones(20)).normalized()
    model = DiscreteDynamicsModel.gaussian(np.eye(2), np.eye(2))
    with pytest.raises(ValueError, match="odd"):
        predict_efficient(pmd, model)


def test_efficient_pinned_to_public_building_blocks():
    g = LatticeGrid((15, 11), [[0.4, 0.1], [-0.05, 0.5]], [0.3, -0.2])
    pmd = gaussian_pmd(g, np.diag([1.0, 0.8]), mean=[0.3, -0.2])
    model = DiscreteDynamicsModel.gaussian(
        [[1.0, 0.3], [-0.2, 0.8]], [[0.3, 0.05], [0.05, 0.2]]
    )
    raw = predict_efficient(pmd, model, normalized=False)
    expected = np.clip(
        convolve_fft_nd(middle_row_kernel(model, g), pmd.physical), 0.0, None
    )
    np.testing.assert_array_equal(raw.weights, expected.reshape(-1))
    assert raw.grid == transformed_grid(g, model.F)


def test_efficient_step_validates_only_its_inputs(monkeypatch):
    # inputs are checked once at the boundary; the grid and densities the
    # step builds itself are not validated again
    g = LatticeGrid.spanning((257,), (0.0,), (6.0,))
    pmd = PointMassDensity(g, np.exp(-0.5 * g.points[:, 0] ** 2))
    model = DiscreteDynamicsModel.gaussian([[0.9]], 0.25)
    calls = {LatticeGrid: 0, PointMassDensity: 0}
    for cls in calls:
        original = cls.__post_init__

        def counting(self, cls=cls, original=original):
            calls[cls] += 1
            original(self)

        monkeypatch.setattr(cls, "__post_init__", counting)
    out = predict_efficient(pmd, model, normalized=True)
    assert calls == {LatticeGrid: 0, PointMassDensity: 0}
    assert out.mass == pytest.approx(1.0, abs=1e-12)
    for array in (out.weights, out.grid.basis, out.grid.center):
        assert not array.flags.writeable

    even = PointMassDensity(LatticeGrid.axis_aligned((4,), (1.0,), (0.0,)), np.ones(4))
    with pytest.raises(ValueError, match="odd"):
        predict_efficient(even, model)
    with pytest.raises(ValueError, match="dimension"):
        predict_efficient(pmd, DiscreteDynamicsModel.gaussian(np.eye(2), np.eye(2)))


@pytest.mark.parametrize("predict", [predict_efficient, predict_standard])
def test_predictors_fail_loudly_on_overflow_and_underflow(predict):
    # the step builds its grid and density without validating them again,
    # so what floating point can break there is checked in the step
    model = DiscreteDynamicsModel.gaussian([[0.9]], 0.25)
    g = LatticeGrid.spanning((9,), (0.0,), (2.0,))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
        ValueError, match="finite"
    ):
        predict(PointMassDensity(g, np.full(9, 1e308)), model, normalized=False)
    for scale, match in ((1e200, "finite"), (1e-200, "singular")):
        with np.errstate(over="ignore", under="ignore"), pytest.raises(
            ValueError, match=match
        ):
            predict(
                PointMassDensity(LatticeGrid((9,), [[scale]], [0.0]), np.ones(9)),
                DiscreteDynamicsModel.gaussian([[scale]], 0.25),
                normalized=False,
            )


# -- noise-driven inflation ---------------------------------------------------------------


def test_inflated_with_zero_covariance_matches_efficient():
    dens = GaussianDensity(1e-4)

    def noise(pts):
        return dens(pts)

    noise.covariance = np.zeros((1, 1))
    g = LatticeGrid.spanning((31,), (0.0,), (4.0,))
    pmd = gaussian_pmd(g, 1.0)
    model = DiscreteDynamicsModel(np.array([[0.9]]), noise)
    a = predict_efficient(pmd, model)
    b = predict_inflated(pmd, model)
    assert a.grid == b.grid
    np.testing.assert_array_equal(a.weights, b.weights)


def test_inflation_recovers_offgrid_mass():
    # narrow grid relative to the noise spread: the plain efficient step
    # loses over 1% of the predictive mass off-grid, inflation keeps it
    g = LatticeGrid.spanning((31,), (0.0,), (3.0,))
    pmd = gaussian_pmd(g, 1.0)
    model = DiscreteDynamicsModel.gaussian([[1.0]], 1.5**2)

    lost_plain = 1.0 - predict_efficient(pmd, model, normalized=False).mass
    assert lost_plain >= 0.01

    lost_inflated = 1.0 - predict_inflated(pmd, model, normalized=False).mass
    assert lost_inflated <= 0.001

    # reference: on a much wider grid with the same spacing the step is
    # lossless, so the plain deficit really is off-grid leakage
    wide = LatticeGrid((311,), g.basis, g.center)
    lost_wide = 1.0 - predict_standard(
        pmd.resampled_onto(wide), model, normalized=False
    ).mass
    assert abs(lost_wide) < 1e-6


def sheared_inflation_case(dim, seed):
    """Seeded sheared grid off the origin, random positive weights that are
    not normalized, and a Gaussian model, with the grid inflation picks."""
    rng = np.random.default_rng(seed)
    basis = np.diag(rng.uniform(0.3, 0.6, dim)) + np.triu(rng.uniform(-0.1, 0.1, (dim, dim)), 1)
    grid = LatticeGrid((7,) * dim, basis, rng.uniform(-2.0, 2.0, dim))
    pmd = PointMassDensity(grid, rng.uniform(0.1, 3.0, grid.size))
    f = np.eye(dim) + rng.uniform(-0.1, 0.1, (dim, dim))
    root = rng.uniform(-0.2, 0.2, (dim, dim))
    cov = 0.3 * np.eye(dim) + root @ root.T
    model = DiscreteDynamicsModel.gaussian(f, cov)
    f_inv = np.linalg.inv(f)
    bigger = grid.inflated(f_inv @ cov @ f_inv.T, 3.0)
    return pmd, model, bigger


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_inflated_pads_the_weights_that_resampling_reproduces(dim):
    # the enlarged grid is a strict superset, so zero-padding puts every
    # weight on the point that interpolation would also give it
    pmd, model, bigger = sheared_inflation_case(dim, seed=40 + dim)
    assert bigger.counts != pmd.grid.counts
    expected = predict_efficient(pmd.resampled_onto(bigger, normalized=False), model)
    out = predict_inflated(pmd, model)
    assert out.grid == expected.grid
    np.testing.assert_array_equal(out.weights, expected.weights)


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_inflated_does_not_resample(dim, monkeypatch):
    pmd, model, bigger = sheared_inflation_case(dim, seed=dim)

    def refuse(*args, **kwargs):
        raise AssertionError("inflation must not resample")

    monkeypatch.setattr(PointMassDensity, "resampled_onto", refuse)
    out = predict_inflated(pmd, model)
    assert out.grid.counts == bigger.counts


def test_inflated_keeps_the_mass_of_an_unnormalized_input():
    g = LatticeGrid.spanning((31,), (0.5,), (3.0,))
    pmd = gaussian_pmd(g, 1.0)
    doubled = PointMassDensity(g, 2.0 * pmd.weights)
    model = DiscreteDynamicsModel.gaussian([[1.0]], 1.5**2)
    assert predict_inflated(doubled, model, normalized=False).mass == pytest.approx(2.0, rel=1e-3)


def test_inflation_keeps_counts_odd():
    g = LatticeGrid.spanning((31,), (0.0,), (3.0,))
    pmd = gaussian_pmd(g, 1.0)
    model = DiscreteDynamicsModel.gaussian([[1.0]], 1.5**2)
    out = predict_inflated(pmd, model)
    assert all(c % 2 == 1 for c in out.grid.counts)
    assert out.grid.counts[0] > 31


def test_inflated_requires_noise_covariance():
    g = LatticeGrid.spanning((9,), (0.0,), (3.0,))
    pmd = gaussian_pmd(g, 1.0)
    model = DiscreteDynamicsModel(np.array([[1.0]]), lambda pts: np.exp(-pts[..., 0] ** 2))
    with pytest.raises(ValueError, match="covariance"):
        predict_inflated(pmd, model)


# -- Kalman consistency -------------------------------------------------------------------


def test_efficient_runtime_is_overhead_plus_log_linear():
    # The per-call time at small N is dominated by a size-independent
    # dispatch floor.  Fitting t(N) = c + a*x with x = N log2 N must
    # explain the sweep far better than x = N^2; that pins the growth as
    # log-linear rather than quadratic once the floor is accounted for.
    # Minima over repeats are used because this measures a noise floor.
    import time

    model = DiscreteDynamicsModel.gaussian([[0.9]], 0.16)
    sizes = [1025, 4097, 16385, 65537]
    densities = [
        gaussian_pmd(LatticeGrid.spanning((n,), (0.0,), (6.0,)), 1.0) for n in sizes
    ]
    # Sizes take turns within each repeat, so a swing in host speed
    # reaches every size alike instead of bending the fit.  An untimed
    # call before each timed one refills the caches with that size's
    # data, which the previous size evicted.
    floors = [np.inf] * len(sizes)
    for _ in range(15):
        for i, pmd in enumerate(densities):
            predict_efficient(pmd, model)
            t0 = time.perf_counter()
            predict_efficient(pmd, model)
            floors[i] = min(floors[i], time.perf_counter() - t0)

    t = np.asarray(floors)

    def affine_residual(x):
        design = np.stack([np.ones_like(x), x], axis=1)
        coef, *_ = np.linalg.lstsq(design, t, rcond=None)
        return coef, np.linalg.norm(design @ coef - t)

    x_loglin = np.array([n * np.log2(n) for n in sizes], dtype=float)
    x_quad = np.array([float(n) ** 2 for n in sizes])
    (_, a_ll), res_loglin = affine_residual(x_loglin)
    (_, _), res_quad = affine_residual(x_quad)

    assert a_ll > 0
    assert res_loglin < 0.5 * res_quad, (
        f"log-linear residual {res_loglin:.2e} vs quadratic {res_quad:.2e}"
    )


def test_prediction_matches_kalman_2d():
    p0 = np.array([[1.0, 0.3], [0.3, 0.8]])
    f = np.array([[0.9, 0.2], [0.0, 1.1]])
    q = 0.25 * np.eye(2)
    mean0 = np.array([0.5, -0.3])
    g = LatticeGrid.spanning((33, 33), mean0, 6.0 * np.sqrt(np.diag(p0)))
    pmd = gaussian_pmd(g, p0, mean=mean0)
    model = DiscreteDynamicsModel.gaussian(f, q)

    kalman_mean = f @ mean0
    kalman_cov = f @ p0 @ f.T + q
    for predictor in (predict_standard, predict_efficient):
        mean, cov = predictor(pmd, model).moments()
        assert np.abs(mean - kalman_mean).max() <= 0.02 * np.abs(kalman_mean).max()
        rel = np.linalg.norm(cov - kalman_cov) / np.linalg.norm(kalman_cov)
        assert rel <= 0.02
