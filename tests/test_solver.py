import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import bisect

from survkit import (
    CorrectedMoments,
    Dataset,
    ModelBounds,
    NoiseSpec,
    NoiseKind,
    RngSpec,
    SolverConfig,
    SolverDivergenceError,
    corrected_moments,
    moments_from_arrays,
    objective,
    privatize,
    project_l1,
    soft_threshold,
    solve,
    spectral_bound,
    validate_dataset,
)


def project_l1_bisection(v, radius):
    """Independent oracle: bisection on the shrink level solving
    sum_i max(|v_i| - level, 0) = radius."""
    v = np.asarray(v, dtype=float)
    a = np.abs(v)
    if a.sum() <= radius:
        return v.copy()
    f = lambda level: np.maximum(a - level, 0.0).sum() - radius
    level = bisect(f, 0.0, a.max(), xtol=1e-14)
    return np.sign(v) * np.maximum(a - level, 0.0)


def grid_search_1d(gamma, gvec, radius, resolution=1e-6):
    """Independent oracle: brute-force 1-d minimization over [-R, R]."""
    grid = np.linspace(-radius, radius, int(round(2 * radius / resolution)) + 1)
    vals = 0.5 * gamma * grid**2 - gvec * grid
    i = int(np.argmin(vals))
    return float(grid[i]), float(vals[i])


class TestCorrectedMoments:
    def test_hand_computed(self):
        m = moments_from_arrays(np.array([[1.0], [3.0]]), np.array([2.0, 6.0]), 2.0)
        np.testing.assert_allclose(m.gamma_mat, [[3.0]])  # (1+9)/2 - 2
        np.testing.assert_allclose(m.gamma_vec, [10.0])  # (2+18)/2

    def test_zero_correction_is_plain_moments(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(20, 3))
        y = rng.normal(size=20)
        m = moments_from_arrays(x, y, 0.0)
        np.testing.assert_allclose(m.gamma_mat, x.T @ x / 20)
        np.testing.assert_allclose(m.gamma_vec, x.T @ y / 20)

    def test_symmetrized_exactly(self):
        m = CorrectedMoments(np.array([[1.0, 2.0], [0.0, 1.0]]), np.zeros(2), 1)
        assert np.array_equal(m.gamma_mat, m.gamma_mat.T)

    def test_unbiased_for_clean_covariance(self):
        # Monte-Carlo oracle: standard-normal X (Sigma_x = I), Laplace noise
        # of variance 2; mean entrywise deviation over 50 seeds stays small.
        m, d = 100_000, 3
        bounds = ModelBounds(50.0, 50.0, 1.0)
        devs = []
        for seed in range(50):
            gen = np.random.default_rng(seed)
            x = gen.normal(size=(m, d))
            ds = Dataset(x, np.zeros(m), bounds)
            assert validate_dataset(ds).ok
            pds = privatize(ds, NoiseSpec(NoiseKind.LAPLACE, 1.0), None, RngSpec(seed))
            got = corrected_moments(pds)
            devs.append(np.abs(got.gamma_mat - np.eye(d)).mean())
        assert float(np.mean(devs)) <= 0.05


class TestProjectL1:
    def test_feasible_unchanged(self):
        v = np.array([0.3, -0.2])
        np.testing.assert_array_equal(project_l1(v, 1.0), v)

    def test_axis_point(self):
        np.testing.assert_allclose(project_l1([3.0, 0.0], 1.0),
                                   project_l1_bisection([3.0, 0.0], 1.0), atol=1e-10)
        np.testing.assert_allclose(project_l1([3.0, 0.0], 1.0), [1.0, 0.0], atol=1e-12)

    def test_interior_shrink_level(self):
        got = project_l1([2.0, 1.0], 2.0)
        np.testing.assert_allclose(got, [1.5, 0.5], atol=1e-12)
        np.testing.assert_allclose(got, project_l1_bisection([2.0, 1.0], 2.0), atol=1e-10)

    def test_matches_bisection_oracle_randomly(self):
        rng = np.random.default_rng(42)
        for i in range(1000):
            d = (2, 20, 200)[i % 3]
            v = rng.normal(size=d) * rng.uniform(0.1, 10)
            r = rng.uniform(0.1, 5)
            np.testing.assert_allclose(
                project_l1(v, r), project_l1_bisection(v, r), atol=1e-10
            )

    def test_feasibility_invariant(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            v = rng.normal(size=17) * 10
            r = rng.uniform(0.01, 3)
            assert np.abs(project_l1(v, r)).sum() <= r + 1e-12


class TestSoftThreshold:
    def test_identity_at_zero(self):
        np.testing.assert_array_equal(soft_threshold([1.0, -1.0], 0.0), [1.0, -1.0])

    def test_full_shrink(self):
        np.testing.assert_array_equal(soft_threshold([1.0, -1.0], 2.0), [0.0, 0.0])

    def test_per_coordinate(self):
        np.testing.assert_array_equal(soft_threshold([3.0, -0.5], 1.0), [2.0, 0.0])


class TestSpectralBound:
    def test_diagonal(self):
        assert 3.0 <= spectral_bound(np.diag([3.0, 1.0])) <= 3.03 + 1e-12

    def test_zero_matrix(self):
        assert spectral_bound(np.zeros((4, 4))) == 0.0

    def test_antidiagonal(self):
        # eigenvalues are +-2 by the characteristic polynomial
        assert 2.0 <= spectral_bound([[0.0, 2.0], [2.0, 0.0]]) <= 2.02 + 1e-12

    def test_upper_bounds_exact_norm(self):
        rng = np.random.default_rng(5)
        cases = []
        for _ in range(20):
            a = rng.normal(size=(8, 8))
            cases.append((a + a.T) / 2)
        # A mean-zero top eigenvector is invisible to a power iteration
        # started from the all-ones vector, which then settles on 0.93.
        a = rng.normal(size=(6, 6))
        a[:, 0] -= a[:, 0].mean()
        q, _ = np.linalg.qr(a)
        adversarial = q @ np.diag([1.0, 0.93, 0.5, 0.4, 0.3, 0.2]) @ q.T
        assert spectral_bound(adversarial) == pytest.approx(1.0, abs=1e-12)
        for g in cases + [adversarial]:
            exact = np.max(np.abs(np.linalg.eigvalsh(g)))
            assert spectral_bound(g) >= exact - 1e-9
            assert spectral_bound(g) == pytest.approx(exact, abs=1e-12)

    def test_start_vector_cancellation_still_upper_bounds(self):
        # the all-ones vector is orthogonal to the top eigenvector here, which
        # defeats a power iteration started from it; the bound must still
        # reach the norm (2), not 0
        g = np.array([[1.0, -1.0], [-1.0, 1.0]])
        bound = spectral_bound(g)
        assert bound >= 2.0
        # and solve still descends to the optimum on such instances
        m = CorrectedMoments(g, np.array([1.0, 0.0]), 1)
        res = solve(m, SolverConfig(mode="constrained", radius=1.0, tol=1e-14))
        grid = np.linspace(-1, 1, 2001)
        a, b = np.meshgrid(grid, grid)
        feasible = np.abs(a) + np.abs(b) <= 1.0
        obj = 0.5 * (a - b) ** 2 - a  # the quadratic written out for this g
        best = float(np.min(obj[feasible]))
        assert res.final_objective <= best + 1e-3
        assert res.final_objective == pytest.approx(-0.625, abs=1e-6)


class TestObjective:
    def test_zero_everywhere(self):
        m = CorrectedMoments(np.array([[5.0]]), np.array([7.0]), 1)
        assert objective(m, [0.0], 3.0) == 0.0

    def test_values(self):
        m = CorrectedMoments(np.array([[2.0]]), np.array([4.0]), 1)
        assert objective(m, [1.0], 0.0) == -3.0
        assert objective(m, [1.0], 1.0) == -2.0

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        h = 1e-6
        for _ in range(10):
            a = rng.normal(size=(4, 4))
            m = CorrectedMoments((a + a.T) / 2, rng.normal(size=4), 1)
            theta = rng.normal(size=4) + np.sign(rng.normal(size=4)) * 0.5
            grad = m.gamma_mat @ theta - m.gamma_vec
            for j in range(4):
                e = np.zeros(4)
                e[j] = h
                fd = (objective(m, theta + e) - objective(m, theta - e)) / (2 * h)
                assert fd == pytest.approx(grad[j], rel=1e-4, abs=1e-6)


class TestSolve:
    def test_interior_minimizer(self):
        m = CorrectedMoments(np.array([[2.0]]), np.array([4.0]), 1)
        res = solve(m, SolverConfig(mode="constrained", radius=10.0, tol=1e-14))
        assert res.theta_hat[0] == pytest.approx(2.0, abs=1e-6)
        assert res.final_objective == pytest.approx(-4.0, abs=1e-9)
        assert res.converged

    def test_active_constraint_matches_grid_search(self):
        m = CorrectedMoments(np.array([[2.0]]), np.array([4.0]), 1)
        res = solve(m, SolverConfig(mode="constrained", radius=1.0))
        t_star, obj_star = grid_search_1d(2.0, 4.0, 1.0)
        assert res.theta_hat[0] == pytest.approx(t_star, abs=1e-6)
        assert res.final_objective == pytest.approx(obj_star, abs=1e-6)
        assert res.final_objective == pytest.approx(-3.0, abs=1e-9)

    def test_indefinite_reaches_boundary(self):
        m = CorrectedMoments(np.array([[-1.0]]), np.array([0.0]), 1)
        res = solve(m, SolverConfig(mode="constrained", radius=1.0))
        _, obj_star = grid_search_1d(-1.0, 0.0, 1.0)
        assert abs(res.theta_hat[0]) == pytest.approx(1.0, abs=1e-9)
        assert res.final_objective == pytest.approx(obj_star, abs=1e-9)
        assert res.final_objective == pytest.approx(-0.5, abs=1e-9)

    def test_interior_psd_matches_linear_solve(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            d = int(rng.integers(2, 50))
            q, _ = np.linalg.qr(rng.normal(size=(d, d)))
            lam = np.exp(rng.uniform(0, math.log(100), size=d))
            gm = q @ np.diag(lam) @ q.T
            t_star = rng.normal(size=d) * 0.1
            m = CorrectedMoments(gm, gm @ t_star, 1)
            res = solve(
                m,
                SolverConfig(
                    mode="constrained",
                    radius=2 * np.abs(t_star).sum() + 1.0,
                    tol=1e-18,
                    max_iter=50_000,
                ),
            )
            direct = np.linalg.solve(gm, m.gamma_vec)
            assert np.max(np.abs(res.theta_hat - direct)) < 1e-6

    def test_recovers_ols_on_clean_overdetermined_data(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(300, 5))
        theta = rng.normal(size=5)
        y = x @ theta + 0.01 * rng.normal(size=300)
        m = moments_from_arrays(x, y, 0.0)
        ols, *_ = np.linalg.lstsq(x, y, rcond=None)
        res = solve(m, SolverConfig(mode="constrained", radius=1e6, tol=1e-18, max_iter=50_000))
        assert np.max(np.abs(res.theta_hat - ols)) < 1e-6

    def test_objective_monotone_non_increasing(self):
        rng = np.random.default_rng(13)
        a = rng.normal(size=(6, 6))
        m = CorrectedMoments(a @ a.T - 2 * np.eye(6), rng.normal(size=6), 1)
        trace = []
        solve(m, SolverConfig(mode="constrained", radius=2.0), trace=trace)
        diffs = np.diff(trace)
        assert np.all(diffs <= 1e-12)

    def test_lagrangian_closed_form_1d(self):
        # argmin 0.5*2*t^2 - 4t + 1*|t| = (4 - 1)/2
        m = CorrectedMoments(np.array([[2.0]]), np.array([4.0]), 100)
        res = solve(m, SolverConfig(mode="lagrangian", lambda_n=1.0, tol=1e-14))
        assert res.theta_hat[0] == pytest.approx(1.5, abs=1e-6)

    def test_lagrangian_radius_guard(self):
        m = CorrectedMoments(np.array([[2.0]]), np.array([40.0]), 100)
        res = solve(m, SolverConfig(mode="lagrangian", lambda_n=0.0, radius=1.0))
        assert np.abs(res.theta_hat).sum() <= 1.0 + 1e-10

    def test_default_lambda_rule(self):
        m = CorrectedMoments(np.eye(4), np.zeros(4), 25)
        res = solve(m, SolverConfig(mode="lagrangian", c_pen=2.0))
        assert res.converged  # lambda resolved to 2 sqrt(ln 4 / 25) without error

    def test_unguarded_indefinite_lagrangian_diverges(self):
        m = CorrectedMoments(np.array([[-1.0]]), np.array([1.0]), 1)
        with pytest.raises(SolverDivergenceError) as err:
            solve(m, SolverConfig(mode="lagrangian", lambda_n=0.0, max_iter=100_000))
        assert np.all(np.isfinite(err.value.last_iterate))

    def test_constrained_l1_invariant(self):
        rng = np.random.default_rng(14)
        a = rng.normal(size=(5, 5))
        m = CorrectedMoments((a + a.T) / 2, rng.normal(size=5), 1)
        res = solve(m, SolverConfig(mode="constrained", radius=0.7))
        assert np.abs(res.theta_hat).sum() <= 0.7 * (1 + 1e-10)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(mode="constrained")
        with pytest.raises(ValueError):
            SolverConfig(mode="lagrangian", lambda_n=-1.0)
        with pytest.raises(ValueError):
            SolverConfig(mode="nonsense", radius=1.0)


def _psd_instance(rng, d, cond):
    """Gamma with spectrum logspace(1, 1/cond) and an interior optimum."""
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    lam = np.logspace(0.0, -math.log10(cond), d)
    gm = (q * lam) @ q.T
    t_star = rng.normal(size=d) * 0.1
    return CorrectedMoments(gm, gm @ t_star, 1), t_star, float(lam[-1])


def _certified_gap(moments, config, theta, eta):
    """The stopping gap recomputed from its definition: the Frank-Wolfe gap
    (constrained) or the prox-gradient residual (Lagrangian)."""
    g = moments.gamma_mat @ theta - moments.gamma_vec
    if config.mode == "constrained":
        return float(g @ theta) + config.radius * float(np.max(np.abs(g)))
    v = soft_threshold(theta - eta * g, eta * config.lambda_n)
    if config.radius is not None and np.abs(v).sum() > config.radius:
        v = project_l1(v, config.radius)
    return float(np.max(np.abs(theta - v))) / eta


class TestCertifiedStop:
    def test_gap_bounds_suboptimality_and_error_on_psd(self):
        rng = np.random.default_rng(21)
        for _ in range(12):
            d = int(rng.integers(2, 31))
            m, t_star, lam_min = _psd_instance(rng, d, 10 ** rng.uniform(2, 4))
            config = SolverConfig(mode="constrained", radius=2 * np.abs(t_star).sum())
            res = solve(m, config)
            assert res.converged
            assert res.gap == pytest.approx(
                _certified_gap(m, config, res.theta_hat, res.step_size_used), abs=1e-15
            )
            assert objective(m, res.theta_hat) - objective(m, t_star) <= res.gap + 1e-15
            assert np.linalg.norm(res.theta_hat - t_star) <= math.sqrt(2 * res.gap / lam_min)

    def test_ill_conditioned_diagonal_converges_by_default(self):
        gm = np.diag([1.0, 1e-4])
        t_star = np.array([0.5, -0.5])
        res = solve(CorrectedMoments(gm, gm @ t_star, 1), SolverConfig(radius=2.0))
        assert res.converged and res.iterations < SolverConfig(radius=2.0).max_iter
        assert np.linalg.norm(res.theta_hat - t_star) <= math.sqrt(2 * res.gap / 1e-4)
        assert np.linalg.norm(res.theta_hat - t_star) < 1e-4

    @settings(max_examples=60)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(1, 12),
        lagrangian=st.booleans(),
        shift=st.sampled_from([0.0, 0.5, 2.0]),
        tol=st.sampled_from([1e-3, 1e-6, 1e-9, 1e-12]),
        max_iter=st.integers(1, 300),
    )
    def test_converged_only_within_tolerance(self, seed, d, lagrangian, shift, tol, max_iter):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(d, d))
        m = CorrectedMoments(a @ a.T / d - shift * np.eye(d), rng.normal(size=d), 1)
        radius = float(rng.uniform(0.1, 3.0))
        if lagrangian:
            config = SolverConfig(mode="lagrangian", lambda_n=0.1, radius=radius,
                                  tol=tol, max_iter=max_iter)
        else:
            config = SolverConfig(mode="constrained", radius=radius, tol=tol, max_iter=max_iter)
        trace = []
        res = solve(m, config, trace=trace)
        eta = res.step_size_used
        gap = _certified_gap(m, config, res.theta_hat, eta)
        gap0 = _certified_gap(m, config, np.zeros(d), eta)
        assert res.gap == pytest.approx(gap, rel=1e-9, abs=1e-14)
        if res.converged:
            assert gap <= tol * max(1.0, gap0) * (1 + 1e-9) + 1e-14
        assert np.abs(res.theta_hat).sum() <= radius * (1 + 1e-10)
        assert np.all(np.diff(trace) <= 1e-12 * np.maximum(1.0, np.abs(trace[1:])))
