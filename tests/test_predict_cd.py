import math
import time
import warnings
from contextlib import contextmanager

import numpy as np
import pytest

from pointmass import (
    ContinuousDynamicsModel,
    GaussianDensity,
    LatticeGrid,
    LatticeShearWarning,
    PointMassDensity,
    StabilityError,
)
from pointmass import predict_cd
from pointmass.models import matrix_exponential
from pointmass.predict_cd import (
    diffusion_eigenvalues,
    diffusion_matrix,
    predict_efficient,
    predict_standard,
    resolve_substeps,
    spectral_operator,
    stable_substep_count,
    substep_grid,
)


def rel_max(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


def gaussian_pmd(grid, cov, mean=None):
    return PointMassDensity.from_density(GaussianDensity(cov, mean=mean), grid)


def sine_matrix(n):
    i = np.arange(1, n + 1)
    return np.sin(np.outer(i, i) * np.pi / (n + 1))


# Reference: the substep chain, search and eigenvalue accumulation as one
# sequential product per substep, which the library must match bit for bit.


def chain_ratios(model, grid, substeps):
    """Stability ratios of substeps 0 .. l-1, their bases ``flow^s @ basis``
    built by sequential products."""
    dt = model.sampling_period / substeps
    flow = matrix_exponential(model.A, dt)
    bases = np.empty((substeps + 1, grid.dim, grid.dim))
    bases[0] = grid.basis
    for s in range(substeps):
        np.matmul(flow, bases[s], out=bases[s + 1])
    return dt * model.diffusion_diagonal / np.linalg.norm(bases[:-1], axis=-2) ** 2


def chain_search(model, grid, margin):
    def stable(substeps):
        ratios = chain_ratios(model, grid, substeps)
        return not (ratios.max(axis=1) > margin * 0.5).any()

    hi = 1
    while not stable(hi):
        hi *= 2
    lo = hi // 2 + 1 if hi > 1 else 1
    while lo < hi:
        mid = (lo + hi) // 2
        if stable(mid):
            hi = mid
        else:
            lo = mid + 1
    return hi


def chain_lambda_pow(model, grid, substeps):
    """Per substep: the constant, then one outer sum per axis, multiplied
    into the product in substep order."""
    dt = model.sampling_period / substeps
    ratios = chain_ratios(model, grid, substeps)
    base = 1.0 - dt * model.trace_drift
    cosines = [np.cos(np.arange(1, n + 1) * (np.pi / (n + 1))) for n in grid.counts]
    lam_pow = np.ones(grid.counts)
    for coeff in ratios:
        acc = base - coeff.sum()
        for axis, cos in enumerate(cosines):
            acc = np.add.outer(acc, coeff[axis] * cos)
        lam_pow *= acc
    return lam_pow


@contextmanager
def recorded_chains(monkeypatch):
    """Substep counts of the sequential product chains the library runs."""
    original = predict_cd._flow_powers
    counts = []

    def recording(flow, x, substeps):
        counts.append(substeps)
        return original(flow, x, substeps)

    monkeypatch.setattr(predict_cd, "_flow_powers", recording)
    yield counts
    monkeypatch.setattr(predict_cd, "_flow_powers", original)


def search_battery():
    """Seeded models and grids with substep counts of about 5 to 350."""
    rng = np.random.default_rng(20261018)
    cases = []
    for k in range(12):
        n = 1 + k % 3
        drift = rng.standard_normal((n, n)) * rng.uniform(0.1, 0.8)
        kind = k % 4
        if kind == 0:  # Ornstein-Uhlenbeck
            drift = -np.diag(np.abs(np.diag(drift)))
        elif kind == 1:  # rotating
            drift = drift - drift.T - 0.1 * np.eye(n)
        elif kind == 2:  # nonnormal
            drift = np.triu(drift)
        steps = rng.uniform(0.08, 0.5, n)
        basis = np.diag(steps)
        if kind == 3 and n > 1:  # sheared grid
            basis[0, 1:] = 0.3 * steps[0]
        grid = LatticeGrid((7,) * n, basis, rng.uniform(-1.0, 1.0, n))
        model = ContinuousDynamicsModel(
            drift, np.diag(rng.uniform(0.1, 1.0, n)),
            sampling_period=float(rng.uniform(0.5, 1.5)),
        )
        cases.append((model, grid))
    return cases


# -- substep grid movement -----------------------------------------------------------


def test_substep_grid_zero_drift_unchanged():
    g = LatticeGrid.spanning((9, 9), (1.0, -1.0), (3.0, 3.0))
    assert substep_grid(g, np.zeros((2, 2)), 0.1) == g


def test_substep_grid_uniform_dilation():
    g = LatticeGrid.spanning((5, 5), (1.0, 2.0), (2.0, 2.0))
    a, dt = 0.3, 0.25
    out = substep_grid(g, a * np.eye(2), dt)
    factor = math.exp(a * dt)
    np.testing.assert_allclose(out.basis, factor * g.basis, rtol=1e-13)
    np.testing.assert_allclose(out.center, factor * g.center, rtol=1e-13)
    assert out.cell_volume == pytest.approx(
        math.exp(2 * a * dt) * g.cell_volume, rel=1e-12
    )


def test_substep_grid_composition_semigroup():
    g = LatticeGrid.spanning((5,), (0.7,), (2.0,))
    a = np.array([[-0.4]])
    stepped = g
    for _ in range(4):
        stepped = substep_grid(stepped, a, 0.05)
    direct = substep_grid(g, a, 0.2)
    np.testing.assert_allclose(stepped.basis, direct.basis, rtol=1e-10)
    np.testing.assert_allclose(stepped.center, direct.center, rtol=1e-10)


# -- diffusion matrix -----------------------------------------------------------------


def test_diffusion_matrix_no_diffusion_is_scaled_identity():
    g = LatticeGrid.spanning((5,), (0.0,), (2.0,))
    model = ContinuousDynamicsModel([[0.7]], [[0.0]], substeps=4)
    out = diffusion_matrix(model, g, 0.25)
    np.testing.assert_allclose(out, (1.0 - 0.25 * 0.7) * np.eye(5), atol=1e-15)


def test_diffusion_matrix_1d_three_points_explicit():
    step = 1.5
    g = LatticeGrid.axis_aligned((3,), (step,), (0.0,))
    q, tr, dt = 0.4, 0.3, 0.5
    model = ContinuousDynamicsModel([[tr]], [[q]], substeps=2)
    c = dt * q / step**2
    a = 1.0 - dt * tr - c
    b = c / 2.0
    expected = np.array([[a, b, 0.0], [b, a, b], [0.0, b, a]])
    np.testing.assert_allclose(diffusion_matrix(model, g, dt), expected, rtol=1e-14)


def test_diffusion_matrix_interior_rows_conserve_mass():
    g = LatticeGrid.spanning((7, 7), (0.0, 0.0), (3.0, 3.0))
    model = ContinuousDynamicsModel(
        np.array([[0.2, 0.0], [0.0, -0.2]]), np.diag([0.3, 0.2]), substeps=10
    )
    fd = diffusion_matrix(model, g, 0.1)
    np.testing.assert_allclose(fd, fd.T, atol=1e-15)
    sums = fd.sum(axis=1).reshape(7, 7)
    np.testing.assert_allclose(sums[1:-1, 1:-1], 1.0, rtol=1e-12)


def test_diffusion_matrix_rejects_unstable_step():
    g = LatticeGrid.axis_aligned((5,), (0.1,), (0.0,))
    model = ContinuousDynamicsModel([[0.0]], [[1.0]], substeps=1)
    with pytest.raises(StabilityError, match="axis 0"):
        diffusion_matrix(model, g, 1.0)


# -- eigenvalues -----------------------------------------------------------------------


def test_eigenvalues_no_diffusion_all_equal():
    g = LatticeGrid.spanning((5, 3), (0.0, 0.0), (2.0, 2.0))
    model = ContinuousDynamicsModel(np.diag([0.4, 0.1]), np.zeros((2, 2)), substeps=1)
    lam = diffusion_eigenvalues(model, g, 0.2)
    np.testing.assert_allclose(lam, 1.0 - 0.2 * 0.5, atol=1e-15)


def test_eigenvalues_1d_three_points_closed_form():
    step = 1.5
    g = LatticeGrid.axis_aligned((3,), (step,), (0.0,))
    q, tr, dt = 0.4, 0.3, 0.5
    model = ContinuousDynamicsModel([[tr]], [[q]], substeps=2)
    c = dt * q / step**2
    a = 1.0 - dt * tr - c
    b = c / 2.0
    lam = diffusion_eigenvalues(model, g, dt)
    np.testing.assert_allclose(
        lam, [a + math.sqrt(2.0) * b, a, a - math.sqrt(2.0) * b], rtol=1e-13
    )


@pytest.mark.parametrize("counts", [(3,), (5,), (3, 5), (3, 3, 3)])
def test_eigenvalue_tensor_matches_dense_spectrum(counts):
    n = len(counts)
    g = LatticeGrid.spanning(counts, np.zeros(n), np.full(n, 2.5))
    model = ContinuousDynamicsModel(
        np.diag(np.linspace(-0.3, 0.2, n)), np.diag(np.linspace(0.2, 0.4, n)),
        substeps=5,
    )
    dt = 0.2
    dense = np.sort(np.linalg.eigvalsh(diffusion_matrix(model, g, dt)))
    formula = np.sort(diffusion_eigenvalues(model, g, dt).reshape(-1))
    np.testing.assert_allclose(formula, dense, atol=1e-10)


@pytest.mark.parametrize("counts", [(5,), (3, 5), (7, 7)])
def test_spectral_identity_reconstructs_dense_matrix(counts):
    # R diag(lambda) R^-1 assembled from the closed forms must equal the
    # dense matrix; R is the separable sine basis, R^-1 its 2/(N+1) scaling
    n = len(counts)
    g = LatticeGrid.spanning(counts, np.zeros(n), np.full(n, 2.0))
    model = ContinuousDynamicsModel(
        np.diag(np.linspace(-0.2, 0.3, n)), np.diag(np.linspace(0.15, 0.3, n)),
        substeps=5,
    )
    dt = 0.15
    r = np.array([[1.0]])
    r_inv = np.array([[1.0]])
    for c in counts:
        s = sine_matrix(c)
        r = np.kron(r, s)
        r_inv = np.kron(r_inv, 2.0 / (c + 1) * s)
    lam = diffusion_eigenvalues(model, g, dt).reshape(-1)
    rebuilt = r @ (lam[:, None] * r_inv)
    np.testing.assert_allclose(rebuilt, diffusion_matrix(model, g, dt), atol=1e-10)


# -- spectral operator --------------------------------------------------------------------


def test_spectral_operator_single_substep():
    g = LatticeGrid.spanning((9,), (0.0,), (3.0,))
    model = ContinuousDynamicsModel([[-0.1]], [[0.2]], substeps=1)
    op = spectral_operator(model, g)
    np.testing.assert_allclose(
        op.lambda_pow, diffusion_eigenvalues(model, g, 1.0), rtol=1e-14
    )
    assert op.substeps == 1


def test_spectral_operator_static_grid_is_elementwise_power():
    g = LatticeGrid.spanning((7,), (0.0,), (3.0,))
    model = ContinuousDynamicsModel([[0.0]], [[0.3]], substeps=6)
    op = spectral_operator(model, g)
    lam = diffusion_eigenvalues(model, g, 1.0 / 6.0)
    np.testing.assert_allclose(op.lambda_pow, lam**6, rtol=1e-12)


@pytest.mark.filterwarnings("ignore::pointmass.LatticeShearWarning")
def test_spectral_operator_accumulates_moving_substeps():
    # the schedule must reproduce the chain of moved grids bit for bit,
    # for a contracting 1-D flow and a rotating (non-diagonal) 2-D flow
    cases = [
        (
            LatticeGrid.spanning((9,), (0.5,), (4.0,)),
            ContinuousDynamicsModel([[-0.4]], [[0.25]], substeps=5),
        ),
        (
            LatticeGrid.spanning((9, 7), (0.5, -0.3), (4.0, 3.0)),
            ContinuousDynamicsModel(
                np.array([[-0.2, 0.5], [-0.5, -0.1]]), np.diag([0.25, 0.2]),
                substeps=6,
            ),
        ),
    ]
    for grid, model in cases:
        op = spectral_operator(model, grid)
        dt = model.sampling_period / model.substeps
        current = grid
        expected = np.ones(grid.counts)
        for _ in range(model.substeps):
            expected = expected * diffusion_eigenvalues(model, current, dt)
            current = substep_grid(current, model.A, dt)
        assert np.array_equal(op.lambda_pow, expected)
        assert op.final_grid == current


def test_unit_eigenvalues_round_trip_weights():
    # zero diffusion and traceless drift make every eigenvalue exactly one,
    # so the efficient step reduces to the sine-transform round trip
    g = LatticeGrid.spanning((9, 7), (0.0, 0.0), (3.0, 3.0))
    pmd = PointMassDensity(
        g, np.random.default_rng(11).random(g.size)
    ).normalized()
    model = ContinuousDynamicsModel(np.zeros((2, 2)), np.zeros((2, 2)), substeps=1)
    out = predict_efficient(pmd, model)
    np.testing.assert_allclose(out.weights, pmd.weights, atol=1e-12)


# -- predictors ----------------------------------------------------------------------------


def test_standard_predict_static_zero_model_is_identity():
    g = LatticeGrid.spanning((9,), (0.0,), (3.0,))
    pmd = gaussian_pmd(g, 1.0)
    model = ContinuousDynamicsModel([[0.0]], [[0.0]], substeps=3)
    out = predict_standard(pmd, model)
    assert out.grid == g
    np.testing.assert_allclose(out.weights, pmd.weights, rtol=1e-12)


def test_standard_predict_ou_closed_form_moments():
    a, q, t_end = 0.5, 0.4, 1.0
    m0, p0 = 1.0, 1.0
    g = LatticeGrid.spanning((81,), (m0,), (6.0,))
    pmd = gaussian_pmd(g, p0, mean=[m0])
    model = ContinuousDynamicsModel([[-a]], [[q]], substeps=100)
    mean, cov = predict_standard(pmd, model).moments()
    exact_mean = math.exp(-a * t_end) * m0
    exact_var = math.exp(-2 * a * t_end) * p0 + q * (1 - math.exp(-2 * a * t_end)) / (
        2 * a
    )
    assert mean[0] == pytest.approx(exact_mean, rel=0.02)
    assert cov[0, 0] == pytest.approx(exact_var, rel=0.02)


def test_standard_predict_mass_nearly_conserved_on_wide_grid():
    g = LatticeGrid.spanning((99,), (0.0,), (10.0,))
    pmd = gaussian_pmd(g, 1.0)
    model = ContinuousDynamicsModel([[0.0]], [[0.3]], substeps=20)
    raw = predict_standard(pmd, model, normalized=False)
    assert 0.99 <= raw.mass <= 1.001


@pytest.mark.parametrize("substeps", [1, 10, 100])
@pytest.mark.parametrize(
    "drift",
    [np.zeros((2, 2)), np.diag([-0.2, -0.3]), np.diag([0.3, -0.3])],
    ids=["zero", "diagonal", "traceless"],
)
def test_efficient_equals_standard_model_matrix(drift, substeps):
    g = LatticeGrid.spanning((11, 11), (0.0, 0.0), (6.0, 6.0))
    pmd = gaussian_pmd(g, np.eye(2))
    model = ContinuousDynamicsModel(drift, np.diag([0.2, 0.1]), substeps=substeps)
    s = predict_standard(pmd, model)
    e = predict_efficient(pmd, model)
    assert s.grid == e.grid
    assert rel_max(e.weights, s.weights) < 1e-8


def test_efficient_equals_standard_1d_contracting():
    g = LatticeGrid.spanning((99,), (0.0,), (10.5,))
    pmd = gaussian_pmd(g, 1.0)
    model = ContinuousDynamicsModel([[-0.5]], [[0.4]], substeps=50)
    s = predict_standard(pmd, model)
    e = predict_efficient(pmd, model)
    assert rel_max(e.weights, s.weights) < 1e-8


def test_efficient_requires_odd_counts():
    g = LatticeGrid.axis_aligned((4,), (1.0,), (0.0,))
    pmd = PointMassDensity(g, np.ones(4)).normalized()
    model = ContinuousDynamicsModel([[0.0]], [[0.1]], substeps=1)
    with pytest.raises(ValueError, match="odd"):
        predict_efficient(pmd, model)


def test_ou_moment_error_decreases_with_substeps():
    a, q = 0.5, 0.4
    exact_var = math.exp(-2 * a) + q * (1 - math.exp(-2 * a)) / (2 * a)
    g = LatticeGrid.spanning((81,), (1.0,), (6.0,))
    pmd = gaussian_pmd(g, 1.0, mean=[1.0])
    errors = []
    for substeps in (100, 200, 400):
        model = ContinuousDynamicsModel([[-a]], [[q]], substeps=substeps)
        _, cov = predict_efficient(pmd, model).moments()
        errors.append(abs(cov[0, 0] - exact_var))
    assert errors[0] > errors[1] > errors[2]


# -- stability guard and diagnostics ----------------------------------------------------


def test_stability_guard_rejects_before_computation():
    g = LatticeGrid.axis_aligned((5,), (0.1,), (0.0,))
    pmd = PointMassDensity(g, np.ones(5)).normalized()
    model = ContinuousDynamicsModel([[0.0]], [[1.0]], substeps=1)
    for predictor in (predict_standard, predict_efficient):
        with pytest.raises(StabilityError) as err:
            predictor(pmd, model)
        assert err.value.axis == 0
        assert "axis 0" in str(err.value)


def test_stability_guard_catches_late_substep_contraction():
    # stable on the initial grid, unstable once the flow has shrunk it
    g = LatticeGrid.spanning((99,), (0.0,), (6.0,))
    model = ContinuousDynamicsModel([[-0.5]], [[0.4]], substeps=60)
    pmd = gaussian_pmd(g, 1.0)
    errors = []
    for predictor in (predict_standard, predict_efficient):
        with pytest.raises(StabilityError) as err:
            predictor(pmd, model)
        errors.append((err.value.axis, err.value.substep, err.value.ratio))
    assert errors[0] == errors[1]
    axis, substep, ratio = errors[0]
    assert (axis, substep) == (0, 8)
    assert ratio == pytest.approx(0.50805, rel=1e-4)


def test_stable_substep_count_meets_margin():
    g = LatticeGrid.spanning((81,), (1.0,), (6.0,))
    model = ContinuousDynamicsModel([[-0.5]], [[0.4]])
    l = stable_substep_count(model, g)
    assert resolve_substeps(model, g) == l
    # the chosen count satisfies the margin, one fewer does not
    dt = 1.0 / l
    current = g
    worst = 0.0
    for _ in range(l):
        worst = max(
            worst, float((dt * 0.4 / current.step_lengths**2).max())
        )
        current = substep_grid(current, model.A, dt)
    assert worst <= 0.8 * 0.5 + 1e-12
    if l > 1:
        dt = 1.0 / (l - 1)
        current = g
        worst = 0.0
        for _ in range(l - 1):
            worst = max(
                worst, float((dt * 0.4 / current.step_lengths**2).max())
            )
            current = substep_grid(current, model.A, dt)
        assert worst > 0.8 * 0.5


@pytest.mark.parametrize("margin", [0.5, 0.8, 1.0])
def test_stable_substep_count_equals_sequential_chain_search(margin, monkeypatch):
    # 1-D to 3-D; Ornstein-Uhlenbeck, rotating and nonnormal drifts and a
    # sheared grid: the count equals the search over sequential chains,
    # none of which the library needs to run
    for model, grid in search_battery():
        expected = chain_search(model, grid, margin)
        with recorded_chains(monkeypatch) as chains:
            assert stable_substep_count(model, grid, margin) == expected
        assert chains == []


@pytest.mark.parametrize("dim", [1, 2])
def test_stable_substep_count_runs_chain_on_threshold_tie(dim, monkeypatch):
    # without drift every ratio is exactly dt * Q / h^2: at 8 substeps
    # 0.125 * 4 / 1 lies on the threshold, where only the chain can decide
    grid = LatticeGrid.axis_aligned((5,) * dim, (1.0,) * dim, (0.0,) * dim)
    model = ContinuousDynamicsModel(np.zeros((dim, dim)), np.diag([4.0] * dim))
    with recorded_chains(monkeypatch) as chains:
        assert stable_substep_count(model, grid, 1.0) == 8
    assert chains == [8]
    assert chain_search(model, grid, 1.0) == 8


@pytest.mark.filterwarnings("ignore::pointmass.LatticeShearWarning")
@pytest.mark.parametrize(
    "grid, model",
    [
        (
            LatticeGrid.spanning((99,), (0.5,), (6.0,)),
            ContinuousDynamicsModel([[-0.5]], [[0.4]]),
        ),
        (
            LatticeGrid.spanning((31, 25), (0.5, -0.3), (6.0, 5.0)),
            ContinuousDynamicsModel(
                np.array([[-0.2, 0.5], [-0.5, -0.1]]), np.diag([0.25, 0.2])
            ),
        ),
        (
            LatticeGrid.spanning((9, 7, 5), (0.0, 0.1, -0.1), (3.0, 3.0, 2.5)),
            ContinuousDynamicsModel(
                np.array([[-0.3, 0.2, 0.0], [0.0, -0.2, 0.3], [0.0, 0.0, -0.4]]),
                np.diag([0.2, 0.3, 0.25]),
            ),
        ),
    ],
    ids=["1d-ou", "2d-rotating", "3d-nonnormal"],
)
def test_spectral_operator_equals_per_substep_loop(grid, model):
    op = spectral_operator(model, grid)
    assert op.substeps == chain_search(model, grid, 0.8)
    assert np.array_equal(op.lambda_pow, chain_lambda_pow(model, grid, op.substeps))


def test_shear_warning_for_rotating_flow():
    g = LatticeGrid.spanning((9, 9), (0.0, 0.0), (4.0, 4.0))
    pmd = gaussian_pmd(g, np.eye(2))
    rotating = ContinuousDynamicsModel(
        np.array([[0.0, 0.4], [-0.4, 0.0]]), np.diag([0.1, 0.1]), substeps=4
    )
    aligned = ContinuousDynamicsModel(
        np.diag([-0.1, 0.1]), np.diag([0.1, 0.1]), substeps=4
    )
    for predictor in (predict_standard, predict_efficient):
        with pytest.warns(LatticeShearWarning) as record:
            predictor(pmd, rotating)
        # attributed to the caller's line, not to a frame inside the library
        assert [w.filename for w in record] == [__file__]

        with warnings.catch_warnings():
            warnings.simplefilter("error", LatticeShearWarning)
            predictor(pmd, aligned)


# -- runtime ------------------------------------------------------------------------------


def ou_65():
    g = LatticeGrid.spanning((65, 65), (0.0, 0.0), (6.0, 6.0))
    model = ContinuousDynamicsModel(np.diag([-0.5, -0.2]), np.diag([0.4, 0.3]))
    return gaussian_pmd(g, np.eye(2)), model


def test_efficient_builds_no_grid_per_substep(monkeypatch):
    # the substep schedule and its search run on stacked arrays, and the
    # step builds its output grid and density without validating them again
    pmd, model = ou_65()
    assert resolve_substeps(model, pmd.grid) > 50
    constructed = []
    for cls in (LatticeGrid, PointMassDensity):
        original = cls.__post_init__

        def counting_post_init(self, original=original):
            constructed.append(self)
            original(self)

        monkeypatch.setattr(cls, "__post_init__", counting_post_init)
    out = predict_efficient(pmd, model)
    assert constructed == []
    assert not out.weights.flags.writeable and not out.grid.basis.flags.writeable


def test_efficient_runs_sequential_chain_only_for_final_count(monkeypatch):
    # the substep search decides its probes without a product chain; the
    # step runs one chain each for the bases and centers of the final count
    pmd, model = ou_65()
    substeps = resolve_substeps(model, pmd.grid)
    with recorded_chains(monkeypatch) as chains:
        predict_efficient(pmd, model)
    assert chains == [substeps, substeps]


@pytest.mark.parametrize("predictor", [predict_standard, predict_efficient])
def test_predictors_check_dimensions_before_the_search(predictor):
    for model_dim, grid_dim in ((1, 2), (2, 1)):
        g = LatticeGrid.spanning((5,) * grid_dim, (0.0,) * grid_dim, (2.0,) * grid_dim)
        pmd = gaussian_pmd(g, np.eye(grid_dim))
        model = ContinuousDynamicsModel(-np.eye(model_dim), 0.2 * np.eye(model_dim))
        with pytest.raises(ValueError, match="model and density must share"):
            predictor(pmd, model)
        with pytest.raises(ValueError, match="model and grid must share"):
            stable_substep_count(model, g)
        with pytest.raises(ValueError, match="model and grid must share"):
            spectral_operator(model, g)


@pytest.mark.parametrize("predictor", [predict_standard, predict_efficient])
def test_predictors_fail_loudly_on_overflow(predictor):
    # the step builds its output without validating it again, so what
    # floating point can break there is checked in the step
    g = LatticeGrid.spanning((9,), (0.0,), (2.0,))
    # the contracting grid scales every weight by 1 - dt trace(A) = 2
    contracting = ContinuousDynamicsModel([[-1.0]], [[0.0]], substeps=1)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
        ValueError, match="weights must be finite"
    ):
        predictor(PointMassDensity(g, np.full(9, 1e308)), contracting, normalized=False)
    # exp(700) is finite; it moves a 1e10-wide grid past the float range
    wide = LatticeGrid((9,), [[1e10]], [0.0])
    exploding = ContinuousDynamicsModel([[700.0]], [[0.0]], substeps=1)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
        ValueError, match="basis and center must be finite"
    ):
        predictor(PointMassDensity(wide, np.ones(9)), exploding)


def test_efficient_cd_much_faster_than_dense():
    g = LatticeGrid.spanning((99, 99), (0.0, 0.0), (6.0, 6.0))
    pmd = gaussian_pmd(g, np.eye(2))
    model = ContinuousDynamicsModel(
        np.diag([-0.1, -0.1]), np.diag([0.2, 0.2]), substeps=50
    )
    t0 = time.perf_counter()
    e = predict_efficient(pmd, model)
    t_eff = time.perf_counter() - t0
    t0 = time.perf_counter()
    s = predict_standard(pmd, model)
    t_std = time.perf_counter() - t0
    assert rel_max(e.weights, s.weights) < 1e-8
    assert t_std >= 20.0 * t_eff, f"standard {t_std:.3f}s vs efficient {t_eff:.3f}s"
