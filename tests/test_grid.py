import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointmass import (
    GaussianDensity,
    LatticeGrid,
    PointMassDensity,
    load_pmd,
    reshape_linear,
    reshape_physical,
    save_pmd,
)


def test_point_at_1d_symmetric_span():
    g = LatticeGrid((3,), [[1.0]], [0.0])
    assert g.point(1) == pytest.approx(0.0)
    assert g.point(0) == pytest.approx(-1.0)
    assert g.point(2) == pytest.approx(1.0)


def test_point_at_out_of_range():
    g = LatticeGrid((3,), [[1.0]], [0.0])
    with pytest.raises(IndexError):
        g.point(3)
    with pytest.raises(IndexError):
        g.point(-1)


@pytest.mark.parametrize("counts", [[20.7], [5.5, 7], [0], [float("nan")], [float("inf")]])
def test_grid_rejects_non_integral_counts(counts):
    # a fractional count is rejected, not truncated to fewer points
    steps, center = [0.5] * len(counts), [0.0] * len(counts)
    with pytest.raises(ValueError, match="counts must be positive integers"):
        LatticeGrid.axis_aligned(counts, steps, center)
    with pytest.raises(ValueError):
        LatticeGrid.spanning(counts, center, [1.0] * len(counts))


def test_grid_accepts_integral_counts():
    for counts in ([21], [21.0], [np.int64(21)]):
        grid = LatticeGrid.axis_aligned(counts, [0.5], [0.0])
        assert grid.counts == (21,) and type(grid.counts[0]) is int
    assert LatticeGrid.spanning([21.0], [0.0], [1.0]).counts == (21,)


def test_index_round_trip_2d():
    g = LatticeGrid.axis_aligned((3, 3), (1.0, 1.0), (0.0, 0.0))
    for lin in range(9):
        assert g.linear_index(g.multi_index(lin)) == lin


def test_points_match_point_at():
    g = LatticeGrid((3, 5), [[0.5, 0.1], [0.0, 0.4]], [1.0, -2.0])
    for i in range(g.size):
        np.testing.assert_array_equal(g.points[i], g.point(i))


def test_reshape_center_spike():
    v = np.array([1, 1, 1, 1, 3, 1, 1, 1, 1], dtype=float)
    expected = np.array([[1, 1, 1], [1, 3, 1], [1, 1, 1]], dtype=float)
    np.testing.assert_array_equal(reshape_physical(v, (3, 3)), expected)


def test_reshape_round_trip_3d():
    v = np.random.default_rng(0).random(27)
    np.testing.assert_array_equal(reshape_linear(reshape_physical(v, (3, 3, 3))), v)


def test_reshape_degenerate_counts():
    t = reshape_physical(np.array([4.2]), (1, 1, 1))
    assert t.shape == (1, 1, 1)
    assert t[0, 0, 0] == 4.2


def test_reshape_length_mismatch():
    with pytest.raises(ValueError):
        reshape_physical(np.zeros(8), (3, 3))


@given(
    st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=4).flatmap(
        lambda counts: st.tuples(
            st.just(tuple(counts)),
            st.lists(
                st.floats(-1e6, 1e6, allow_nan=False),
                min_size=math.prod(counts),
                max_size=math.prod(counts),
            ),
        )
    )
)
def test_reshape_bijection_property(case):
    counts, values = case
    v = np.asarray(values)
    np.testing.assert_array_equal(reshape_linear(reshape_physical(v, counts)), v)


# -- construction and normalization -------------------------------------------


def test_from_density_unit_mass():
    g = LatticeGrid.spanning((99,), (0.0,), (6.0,))
    pmd = PointMassDensity.from_density(GaussianDensity(1.0), g)
    assert abs(pmd.mass - 1.0) <= 1e-12


def test_from_density_uniform_weights():
    g = LatticeGrid.spanning((9, 9), (0.0, 0.0), (1.0, 2.0))
    pmd = PointMassDensity.from_density(lambda pts: np.ones(len(pts)), g)
    expected = 1.0 / (g.size * g.cell_volume)
    np.testing.assert_allclose(pmd.weights, expected, rtol=1e-14)


def test_from_density_rejects_negative():
    g = LatticeGrid.spanning((5,), (0.0,), (1.0,))
    with pytest.raises(ValueError, match="negative"):
        PointMassDensity.from_density(lambda pts: pts[:, 0], g)


def test_from_density_rejects_non_finite():
    g = LatticeGrid.spanning((5,), (0.0,), (1.0,))
    with pytest.raises(ValueError, match="finite"):
        PointMassDensity.from_density(lambda pts: np.full(len(pts), np.nan), g)


def test_from_density_gaussian_moments_vs_midpoint_oracle():
    g = LatticeGrid.spanning((99,), (0.0,), (6.0,))
    pmd = PointMassDensity.from_density(GaussianDensity(1.0), g)

    # independent midpoint-rule computation on the same lattice
    x = np.linspace(-6.0, 6.0, 99)
    step = x[1] - x[0]
    w = np.exp(-0.5 * x**2)
    w /= w.sum() * step
    mean_oracle = step * (w * x).sum()
    var_oracle = step * (w * (x - mean_oracle) ** 2).sum()

    mean, cov = pmd.moments()
    assert mean[0] == pytest.approx(mean_oracle, abs=1e-12)
    assert cov[0, 0] == pytest.approx(var_oracle, rel=1e-12)
    assert abs(mean[0]) < 1e-3
    assert abs(cov[0, 0] - 1.0) < 1e-3


def test_normalize_equal_weights():
    # unit-mass condition with cell volume 1 forces the weights to sum to 1
    g = LatticeGrid((3,), [[1.0]], [0.0])
    pmd = PointMassDensity(g, [2.0, 2.0, 2.0]).normalized()
    np.testing.assert_allclose(pmd.weights, [1 / 3, 1 / 3, 1 / 3], rtol=1e-15)


def test_normalize_half_volume_cells():
    g = LatticeGrid((2,), [[0.5]], [0.0])
    pmd = PointMassDensity(g, [1.0, 3.0]).normalized()
    np.testing.assert_allclose(pmd.weights, [0.5, 1.5], rtol=1e-15)


def test_normalize_idempotent():
    g = LatticeGrid.spanning((17,), (0.2,), (3.0,))
    pmd = PointMassDensity(g, np.random.default_rng(1).random(17)).normalized()
    again = pmd.normalized()
    np.testing.assert_allclose(again.weights, pmd.weights, rtol=1e-15)


def test_normalize_rejects_zero_mass():
    g = LatticeGrid((3,), [[1.0]], [0.0])
    with pytest.raises(ValueError, match="zero total mass"):
        PointMassDensity(g, np.zeros(3)).normalized()


def test_normalize_rejects_non_finite_mass_and_weights():
    # an overflowing weight sum must fail loudly, not normalize to zeros
    g = LatticeGrid((5,), [[1.0]], [0.0])
    overflowing = PointMassDensity(g, np.full(5, 1e308))
    with np.errstate(over="ignore"):
        assert overflowing.mass == math.inf
        with pytest.raises(ValueError, match="total mass inf"):
            overflowing.normalized()
    # densities the library builds itself skip validation; NaN must not
    # pass through normalization either
    with pytest.raises(ValueError, match="total mass nan"):
        PointMassDensity._trusted(g, np.full(5, np.nan)).normalized()
    # a finite mass on subnormal cells still overflows the rescaled weights
    tiny = LatticeGrid((3,), [[1e-310]], [0.0])
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
        PointMassDensity(tiny, np.ones(3)).normalized()


@given(
    st.lists(st.floats(1e-6, 1e3), min_size=2, max_size=30),
    st.floats(0.1, 10.0),
)
@settings(max_examples=50)
def test_normalize_preserves_ratios(weights, step):
    g = LatticeGrid((len(weights),), [[step]], [0.0])
    pmd = PointMassDensity(g, weights).normalized()
    assert abs(pmd.mass - 1.0) <= 1e-12
    ratios = np.asarray(weights) / weights[0]
    np.testing.assert_allclose(pmd.weights / pmd.weights[0], ratios, rtol=1e-12)


# -- moments and evaluation -----------------------------------------------------


def test_moments_symmetric_weights_mean_is_center():
    g = LatticeGrid.spanning((9,), (2.5,), (4.0,))
    w = np.array([1, 2, 3, 4, 9, 4, 3, 2, 1], dtype=float)
    pmd = PointMassDensity(g, w).normalized()
    mean, _ = pmd.moments()
    assert mean[0] == pytest.approx(2.5, abs=1e-14)


def test_moments_point_mass_zero_covariance():
    g = LatticeGrid.spanning((5, 5), (1.0, -1.0), (2.0, 2.0))
    w = np.zeros(25)
    w[12] = 1.0
    pmd = PointMassDensity(g, w).normalized()
    mean, cov = pmd.moments()
    np.testing.assert_allclose(mean, [1.0, -1.0], atol=1e-14)
    np.testing.assert_allclose(cov, 0.0, atol=1e-14)


def test_moments_gaussian_against_direct_sum_oracle():
    g = LatticeGrid.spanning((199,), (1.0,), (6.0 * math.sqrt(2.0),))
    pmd = PointMassDensity.from_density(GaussianDensity(2.0, mean=[1.0]), g)
    mean, cov = pmd.moments()
    assert mean[0] == pytest.approx(1.0, rel=5e-3)
    assert cov[0, 0] == pytest.approx(2.0, rel=5e-3)


def test_density_at_grid_point_and_outside():
    g = LatticeGrid.spanning((5,), (0.0,), (2.0,))
    pmd = PointMassDensity(g, [1.0, 2.0, 3.0, 4.0, 5.0]).normalized()
    for i in range(5):
        assert pmd.density_at(g.point(i)) == pmd.weights[i]
    assert pmd.density_at([100.0]) == 0.0
    assert pmd.density_at([-2.6]) == 0.0


def test_density_at_boundary_tie_break_lower_inclusive():
    g = LatticeGrid((3,), [[1.0]], [0.0])  # points at -1, 0, 1
    pmd = PointMassDensity(g, [1.0, 2.0, 3.0]).normalized()
    # -0.5 is the shared boundary of cells around -1 and 0; the cell whose
    # lower boundary it is wins
    assert pmd.density_at([-0.5]) == pmd.weights[1]
    assert pmd.density_at([0.5]) == pmd.weights[2]


def test_density_integrates_to_one():
    g = LatticeGrid((4, 3), [[0.7, 0.2], [0.0, 0.5]], [0.3, -0.4])
    pmd = PointMassDensity(
        g, np.random.default_rng(2).random(g.size)
    ).normalized()
    total = g.cell_volume * sum(pmd.density_at(g.point(i)) for i in range(g.size))
    assert total == pytest.approx(1.0, abs=1e-12)


# -- inflation and resampling ----------------------------------------------------


def test_inflation_zero_noise_unchanged():
    g = LatticeGrid.spanning((9,), (0.0,), (4.0,))
    assert g.inflated(np.zeros((1, 1))) == g


def hand_enumerated_inflation(count: int, sigma_steps: float, coverage: float) -> int:
    half = (count - 1) // 2
    candidate = count
    while (candidate - 1) // 2 < half + coverage * sigma_steps:
        candidate += 2
    return candidate


def test_inflation_1d_matches_hand_enumeration():
    g = LatticeGrid((9,), [[1.0]], [0.0])
    out = g.inflated(np.array([[1.0]]), coverage=3.0)
    assert out.counts == (hand_enumerated_inflation(9, 1.0, 3.0),)
    assert out.counts == (15,)
    np.testing.assert_array_equal(out.basis, g.basis)
    np.testing.assert_array_equal(out.center, g.center)


def test_inflation_2d_axes_independent():
    g = LatticeGrid.axis_aligned((9, 9), (1.0, 2.0), (0.0, 0.0))
    out = g.inflated(np.diag([1.0, 1.0]), coverage=3.0)
    expected = (
        hand_enumerated_inflation(9, 1.0, 3.0),
        hand_enumerated_inflation(9, 0.5, 3.0),
    )
    assert out.counts == expected
    assert all(c % 2 == 1 for c in out.counts)


def test_inflation_rejects_non_psd():
    g = LatticeGrid.spanning((9,), (0.0,), (4.0,))
    with pytest.raises(ValueError, match="semidefinite"):
        g.inflated(np.array([[-1.0]]))


def test_resample_same_grid_identical():
    g = LatticeGrid((7, 5), [[0.8, 0.1], [0.0, 0.6]], [0.4, -0.2])
    pmd = PointMassDensity(
        g, np.random.default_rng(3).random(g.size)
    ).normalized()
    out = pmd.resampled_onto(g)
    np.testing.assert_array_equal(out.weights, pmd.weights)


def test_resample_superset_preserves_interior():
    g = LatticeGrid.spanning((9,), (0.0,), (4.0,))
    pmd = PointMassDensity.from_density(GaussianDensity(1.0), g)
    big = g.inflated(np.array([[1.0]]), coverage=2.0)
    out = pmd.resampled_onto(big, normalized=False)
    pad = (big.counts[0] - 9) // 2
    np.testing.assert_array_equal(out.weights[pad : pad + 9], pmd.weights)
    assert (out.weights[:pad] == 0).all() and (out.weights[-pad:] == 0).all()


def test_resample_half_step_offset_gives_midpoint_averages():
    g = LatticeGrid((5,), [[1.0]], [0.0])
    pmd = PointMassDensity(g, [1.0, 2.0, 3.0, 4.0, 5.0])
    target = LatticeGrid((5,), [[1.0]], [0.5])
    out = pmd.resampled_onto(target, normalized=False)
    np.testing.assert_allclose(out.weights, [1.5, 2.5, 3.5, 4.5, 0.0], rtol=1e-14)


def test_resample_moment_shift_bounded_by_one_step():
    g = LatticeGrid.spanning((33,), (0.0,), (5.0,))
    pmd = PointMassDensity.from_density(GaussianDensity(1.0), g)
    big = LatticeGrid.spanning((67,), (0.1,), (7.0,))
    out = pmd.resampled_onto(big)
    m0, c0 = pmd.moments()
    m1, c1 = out.moments()
    step = g.step_lengths[0]
    assert abs(m1[0] - m0[0]) <= step
    assert abs(c1[0, 0] - c0[0, 0]) <= step**2


# -- validation and dump format ---------------------------------------------------


def test_grid_rejects_singular_basis():
    with pytest.raises(ValueError, match="singular"):
        LatticeGrid((3, 3), np.array([[1.0, 2.0], [0.5, 1.0]]), [0.0, 0.0])


def test_pmd_rejects_negative_weights():
    g = LatticeGrid((3,), [[1.0]], [0.0])
    with pytest.raises(ValueError, match="nonnegative"):
        PointMassDensity(g, [0.5, -0.1, 0.5])


def test_pmd_values_immutable():
    g = LatticeGrid((3,), [[1.0]], [0.0])
    pmd = PointMassDensity(g, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        pmd.weights[0] = 7.0
    with pytest.raises(ValueError):
        g.basis[0, 0] = 2.0


def test_dump_round_trip_exact():
    g = LatticeGrid((3, 5), [[0.1, 0.03], [0.0, 0.7]], [1 / 3, -2 / 7])
    pmd = PointMassDensity(
        g, np.random.default_rng(4).random(g.size)
    ).normalized()
    buf = io.StringIO()
    save_pmd(pmd, buf)
    assert not buf.closed
    buf.seek(0)
    back = load_pmd(buf)
    assert not buf.closed  # a lent file object stays open
    assert back.grid == pmd.grid
    np.testing.assert_array_equal(back.weights, pmd.weights)


def test_dump_round_trip_file(tmp_path):
    g = LatticeGrid.spanning((9,), (0.25,), (3.0,))
    pmd = PointMassDensity.from_density(GaussianDensity(1.0), g)
    path = str(tmp_path / "pmd.txt")
    save_pmd(pmd, path)
    back = load_pmd(path)
    assert back.grid == pmd.grid
    np.testing.assert_array_equal(back.weights, pmd.weights)


@pytest.mark.parametrize(
    "text, message",
    [
        ("nx\ncounts 1\n", "'nx' line must hold one count"),
        ("nx 1\nsteps 3\n", "expected 'counts' line"),
        ("nx 2\ncounts 3\n", "counts length does not match nx"),
        ("nx 1\ncounts 1\nbasis 1\ncenter 0\nweights 1\n1\n", "must be bare"),
    ],
    ids=["bare-nx", "wrong-header", "counts-length", "weights-not-bare"],
)
def test_load_rejects_malformed_dumps(text, message):
    with pytest.raises(ValueError, match=message):
        load_pmd(io.StringIO(text))


@pytest.mark.parametrize(
    "basis, center, message",
    [
        ([[1.0]], [0.0, 0.0], r"basis must be \(2, 2\)"),
        (np.eye(2), [0.0], r"center must be \(2,\)"),
    ],
    ids=["basis", "center"],
)
def test_grid_rejects_misshapen_basis_and_center(basis, center, message):
    with pytest.raises(ValueError, match=message):
        LatticeGrid((3, 3), basis, center)


def test_lattice_coordinates_of_stacked_points():
    g = LatticeGrid((7, 5), [[0.8, 0.1], [0.0, 0.6]], [0.4, -0.2])
    coords = g.lattice_coordinates(g.points)
    np.testing.assert_allclose(
        coords, [g.multi_index(k) for k in range(g.size)], rtol=0, atol=1e-12
    )
    stacked = g.points.reshape(5, 7, 2)
    np.testing.assert_array_equal(g.lattice_coordinates(stacked), coords.reshape(5, 7, 2))
    np.testing.assert_allclose(g.lattice_coordinates(g.points[3]), coords[3], rtol=1e-15)
    with pytest.raises(ValueError, match=r"\(\.\.\., 2\)"):
        g.lattice_coordinates([0.0, 0.0, 0.0])


def test_resample_rejects_a_grid_of_another_dimension():
    pmd = PointMassDensity(LatticeGrid((3,), [[1.0]], [0.0]), np.ones(3))
    with pytest.raises(ValueError, match="dimension"):
        pmd.resampled_onto(LatticeGrid((3, 3), np.eye(2), [0.0, 0.0]))


# -- equality ------------------------------------------------------------------------


def test_grid_equals_itself_without_comparing_arrays(monkeypatch):
    g = LatticeGrid((3, 5), [[0.1, 0.03], [0.0, 0.7]], [1 / 3, -2 / 7])
    pmd = PointMassDensity(g, np.ones(g.size))
    # normalized() keeps the grid object, so a check of ``out.grid != raw.grid``
    # compares a grid with itself
    assert pmd.normalized().grid is g
    with monkeypatch.context() as m:
        m.setattr(np, "array_equal", lambda *args, **kwargs: pytest.fail("compared"))
        assert g == g
        assert not g != g


def test_grid_equality_compares_counts_basis_and_center():
    counts, basis, center = (3, 5), [[0.1, 0.03], [0.0, 0.7]], [1 / 3, -2 / 7]
    g = LatticeGrid(counts, basis, center)
    same = LatticeGrid(counts, np.array(basis), np.array(center))
    assert same is not g and same == g and not same != g
    differing = [
        LatticeGrid((3, 7), basis, center),
        LatticeGrid(counts, [[0.1, 0.03], [0.0, np.nextafter(0.7, 1.0)]], center),
        LatticeGrid(counts, basis, [1 / 3, 2 / 7]),
    ]
    for other in differing:
        assert other != g and g != other and not other == g


def test_grid_equality_with_other_types():
    g = LatticeGrid((3,), [[1.0]], [0.0])
    for other in (None, 3, (3,), PointMassDensity(g, np.ones(3))):
        assert g != other and not g == other
    assert g.__eq__("grid") is NotImplemented
