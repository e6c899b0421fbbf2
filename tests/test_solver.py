import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
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
    SolveResult,
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
from survkit import solver as solver_module
from survkit import sweeps as sweeps_module
from survkit.solver import _checked_step, _resolve_lambda


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

    @pytest.mark.parametrize("value", [-1.0, math.inf, math.nan])
    def test_noise_variance_must_be_finite_and_non_negative(self, value):
        with pytest.raises(ValueError, match="^noise_variance must be non-negative$"):
            moments_from_arrays(np.ones((2, 1)), np.ones(2), value)

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


@pytest.mark.parametrize("call, message", [
    (lambda: CorrectedMoments(np.zeros((2, 3)), np.zeros(2), 1),
     r"gamma_mat must have shape \(2, 2\), got \(2, 3\)"),
    (lambda: CorrectedMoments(np.eye(2), np.zeros(3), 1),
     r"gamma_mat must have shape \(3, 3\), got \(2, 2\)"),
    (lambda: CorrectedMoments(np.eye(2), np.array([0.0, math.nan]), 1),
     "gamma_vec must be finite"),
    (lambda: CorrectedMoments(np.eye(2), np.zeros(2), 0), "m must be an integer >= 1"),
    (lambda: moments_from_arrays(np.zeros(3), np.zeros(3)),
     r"x must be 2-dimensional, got shape \(3,\)"),
    (lambda: moments_from_arrays(np.zeros((3, 2)), np.zeros(2)),
     r"y must have shape \(3,\), got \(2,\)"),
    (lambda: soft_threshold([1.0], -0.5), "level must be non-negative"),
    (lambda: project_l1([1.0], 0.0), "radius must be positive"),
    (lambda: project_l1([[1.0]], 1.0), "v must be a vector"),
    (lambda: spectral_bound(np.zeros((2, 3))),
     r"gamma_mat must have shape \(2, 2\), got \(2, 3\)"),
    (lambda: objective(CorrectedMoments(np.eye(2), np.zeros(2), 1), np.zeros(2), -1.0),
     "lambda_n must be non-negative"),
    (lambda: objective(CorrectedMoments(np.eye(2), np.zeros(2), 1), np.zeros(3)),
     r"theta must have shape \(2,\), got \(3,\)"),
])
def test_argument_checks(call, message):
    with pytest.raises(ValueError, match=message):
        call()


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

    @given(
        v=st.lists(
            st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, -2.5]),
                      st.floats(-100.0, 100.0)),
            min_size=1, max_size=30,
        ),
        radius=st.floats(1e-3, 1e3),
    )
    def test_feasible_idempotent_and_matches_bisection(self, v, radius):
        # Ties, zeros and -0.0 come from the sampled pool; d = 1 is allowed.
        v = np.array(v)
        p = project_l1(v, radius)
        assert p is not v
        scale = max(1.0, float(np.abs(v).max()))
        assert np.abs(p).sum() <= radius + 1e-12 * scale * v.size
        np.testing.assert_allclose(project_l1(p, radius), p, rtol=0, atol=1e-12 * scale)
        np.testing.assert_allclose(p, project_l1_bisection(v, radius), rtol=0, atol=1e-10 * scale)
        if np.abs(v).sum() <= radius:
            assert np.array_equal(p, v) and np.array_equal(np.signbit(p), np.signbit(v))


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
        res = solve(m, SolverConfig(mode="lagrangian"))
        assert res.converged  # lambda resolved to sqrt(ln 4 / 25) without error

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
        for lam in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="^lambda_n must be non-negative$"):
                SolverConfig(mode="lagrangian", lambda_n=lam)
        with pytest.raises(ValueError):
            SolverConfig(mode="nonsense", radius=1.0)
        for mode in ("constrained", "lagrangian"):
            for bad in (0.0, -1.0, math.nan, math.inf):
                with pytest.raises(ValueError, match="^radius must be positive$"):
                    SolverConfig(mode=mode, radius=bad)
                with pytest.raises(ValueError, match="^tol must be positive$"):
                    SolverConfig(mode=mode, radius=1.0, tol=bad)


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
    v = soft_threshold(theta - eta * g, eta * _resolve_lambda(config, moments))
    if config.radius is not None and np.abs(v).sum() > config.radius:
        v = project_l1(v, config.radius)
    return float(np.max(np.abs(theta - v))) / eta


def _start(moments):
    """theta_0: zero, or the tie-break start when gamma_vec = 0 and the
    diagonal has a negative entry."""
    theta = np.zeros(moments.dim)
    diag = np.diag(moments.gamma_mat)
    if not np.any(moments.gamma_vec) and np.min(diag) < 0:
        theta[int(np.argmin(diag))] = 1e-8
    return theta


def _reference_solve(moments, config, trace=None):
    """The FISTA loop as it was before its numpy calls were trimmed and
    before the polish: every prox through ``project_l1``, ``move`` on every
    iteration, ``new - theta`` twice and ``lam * sum|x|`` in both modes.
    ``solve`` must reproduce its iterates bit for bit up to a polish."""
    d = moments.dim
    gm, gv = moments.gamma_mat, moments.gamma_vec
    constrained = config.mode == "constrained"
    radius = config.radius
    lam = 0.0 if constrained else _resolve_lambda(config, moments)
    eta = 1.0 / max(spectral_bound(gm), 1e-12)

    def prox(v):
        if constrained:
            return project_l1(v, radius)
        v = soft_threshold(v, eta * lam)
        if radius is not None and np.sum(np.abs(v)) > radius:
            v = project_l1(v, radius)
        return v

    def gap_at(x, gx):
        g = gx - gv
        if constrained:
            return float(g @ x) + radius * float(np.max(np.abs(g)))
        return float(np.max(np.abs(x - prox(x - eta * g)))) / eta

    def step_from(y, gy):
        x = prox(y - eta * (gy - gv))
        gx = gm @ x
        f = 0.5 * float(x @ gx) - float(gv @ x) + lam * float(np.sum(np.abs(x)))
        if not math.isfinite(f):
            raise SolverDivergenceError(
                f"objective became non-finite at iteration {iterations}", theta
            )
        return x, gx, f

    theta = _start(moments)
    g_theta = gm @ theta
    obj = objective(moments, theta, lam)
    gap = gap_at(theta, g_theta)
    threshold = config.tol * max(1.0, gap)
    y, g_y, t, beta = theta, g_theta, 1.0, 0.0
    iterations, converged = 0, False
    with np.errstate(over="ignore", invalid="ignore"):
        for iterations in range(1, config.max_iter + 1):
            new, g_new, new_obj = step_from(y, g_y)
            restart = beta > 0 and new_obj > obj
            if restart:
                new, g_new, new_obj = step_from(theta, g_theta)
            if restart or float((y - new) @ (new - theta)) > 0:
                t = 1.0
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            beta = (t - 1.0) / t_next
            if beta > 0:
                y, g_y = new + beta * (new - theta), g_new + beta * (g_new - g_theta)
            else:
                y, g_y = new, g_new
            delta = abs(new_obj - obj)
            move = float(np.max(np.abs(new - theta)))
            theta, g_theta, obj, t = new, g_new, new_obj, t_next
            if trace is not None:
                trace.append(obj)
            gap = gap_at(theta, g_theta)
            converged = gap <= threshold
            if converged or (
                delta < 1e-14 and move < 1e-12 * max(1.0, float(np.max(np.abs(theta))))
            ):
                break

    return SolveResult(theta_hat=theta, iterations=iterations, final_objective=obj,
                       converged=converged, step_size_used=eta, gap=gap,
                       polished=False)


def _outcome(solver, moments, config):
    """Everything a solve shows, as bytes where it is a float."""
    trace = []
    try:
        r = solver(moments, config, trace=trace)
    except SolverDivergenceError as exc:
        return "diverged", str(exc), exc.last_iterate.tobytes(), np.array(trace).tobytes()
    floats = np.array([r.final_objective, r.gap, r.step_size_used]).tobytes()
    return (r.theta_hat.tobytes(), r.iterations, floats, r.converged, r.polished,
            np.array(trace).tobytes())


class TestMatchesReferenceLoop:
    @settings(max_examples=150)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(1, 60),
        shift=st.sampled_from([0.0, 0.5, 2.0]),
        lagrangian=st.booleans(),
        guard=st.booleans(),
        lambda_n=st.sampled_from([None, 0.0, 1e-3, 0.1]),
        tie_break=st.booleans(),
        max_iter=st.integers(1, 3000),
    )
    @example(seed=0, d=1, shift=2.0, lagrangian=True, guard=False, lambda_n=0.0,
             tie_break=False, max_iter=3000)  # diverges
    @example(seed=1, d=8, shift=0.0, lagrangian=False, guard=False, lambda_n=None,
             tie_break=True, max_iter=3000)
    @example(seed=2, d=1, shift=0.0, lagrangian=True, guard=True, lambda_n=None,
             tie_break=False, max_iter=1)
    # d = 64, the largest d solved with the exact step.
    @example(seed=3, d=64, shift=0.5, lagrangian=False, guard=False, lambda_n=None,
             tie_break=False, max_iter=3000)
    @example(seed=4, d=64, shift=0.0, lagrangian=True, guard=True, lambda_n=1e-3,
             tie_break=False, max_iter=3000)
    def test_equal_up_to_the_polish(self, seed, d, shift, lagrangian, guard, lambda_n,
                                    tie_break, max_iter):
        # PSD (shift 0) or indefinite Gamma; the tie-break start needs
        # gamma_vec = 0 and a negative diagonal entry.
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(d, d))
        gm = a @ a.T / d - shift * np.eye(d)
        gv = rng.normal(size=d) * 10 ** rng.uniform(-2, 1)
        if tie_break:
            gv[:] = 0.0
            gm[d // 2, d // 2] -= 3.0
        moments = CorrectedMoments(gm, gv, int(rng.integers(1, 1000)))
        radius = float(rng.uniform(0.1, 10.0))
        if lagrangian:
            config = SolverConfig(mode="lagrangian", lambda_n=lambda_n,
                                  radius=radius if guard else None, max_iter=max_iter)
        else:
            config = SolverConfig(mode="constrained", radius=radius, max_iter=max_iter)
        with mock.patch("numpy.linalg.solve", wraps=np.linalg.solve) as linear:
            got = _outcome(solve, moments, config)
        # Every free reduced system solved has a positive-definite Gamma_SS;
        # a bordered one ends in the row (s_S, 0) = radius.
        for (a, b), _ in linear.call_args_list:
            if not (a[-1, -1] == 0 and b[-1] == radius and np.all(np.abs(a[-1, :-1]) == 1)):
                np.linalg.cholesky(a)
        if got[0] == "diverged" or not got[4]:
            assert got == _outcome(_reference_solve, moments, config)
            return
        # Polished: the gradient steps are the reference's, bit for bit, and
        # the polished point certifies and is no worse than the reference's
        # iterate at that step.
        trace, ref_trace = [], []
        res = solve(moments, config, trace=trace)
        try:
            _reference_solve(moments, config, trace=ref_trace)
        except SolverDivergenceError:
            pass  # after the polish: the steps up to it were finite
        n = res.iterations
        assert np.array(trace[:n]).tobytes() == np.array(ref_trace[:n]).tobytes()
        assert len(trace) == n + 1 and trace[-1] == res.final_objective
        eta = res.step_size_used
        gap0 = _certified_gap(moments, config, _start(moments), eta)
        gap = _certified_gap(moments, config, res.theta_hat, eta)
        assert res.converged and gap <= config.tol * max(1.0, gap0)
        assert res.final_objective <= ref_trace[n - 1]


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


def _gate_instance(rng, d, cond):
    """Gamma with spectrum logspace(1, 1/cond) and an optimum whose
    components along the eigenvectors have equal size 0.1 / sqrt(d) and
    seeded signs; radius 2 ||theta||_1 leaves the constraint inactive."""
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    gm = (q * np.logspace(0.0, -math.log10(cond), d)) @ q.T
    theta = q @ (rng.choice([-1.0, 1.0], size=d) * (0.1 / math.sqrt(d)))
    moments = CorrectedMoments(gm, gm @ theta, 1)
    return moments, SolverConfig(radius=2.0 * float(np.abs(theta).sum()))


def _polish_instance(seed, d, indefinite, mode, active):
    """A seeded instance for the polish property: PSD or indefinite Gamma;
    constrained, Lagrangian or guarded Lagrangian; radius well above or
    below ||theta*||_1 of the unconstrained PSD optimum."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    eig = np.logspace(0.0, -rng.uniform(0.0, 3.0), d)
    if indefinite:
        eig = eig - rng.uniform(0.0, 0.5)
    gm = (q * eig) @ q.T
    theta = rng.normal(size=d) * 0.3
    moments = CorrectedMoments(gm, gm @ theta, 1)
    radius = float(np.abs(theta).sum()) * (0.5 if active else 2.0)
    if mode == "constrained":
        return moments, SolverConfig(radius=radius)
    lambda_n = float(rng.uniform(0.0, 0.05))
    guard = radius if mode == "guarded" else None
    return moments, SolverConfig(mode="lagrangian", lambda_n=lambda_n, radius=guard)


class TestPolish:
    def test_psd_instances_meet_the_1e6_gate(self):
        # ROADMAP item 2's solver gate: cond 1e2-1e4 PSD instances with an
        # inactive constraint reach 1e-6 of the exact optimum under the
        # default config, or say they did not converge.  Their optimum is
        # interior and dense, so the free system on the full support
        # certifies it.  That system has no signs in it: it is solved once
        # the support has held for the cost of one polish (d // 3
        # iterations), while the smallest coordinates may still change sign.
        rng = np.random.default_rng(7)
        for i in range(30):
            d = 2 + round(48 * i / 29)
            cond = 10.0 ** (2.0 + 2.0 * ((7 * i) % 30) / 29)
            moments, config = _gate_instance(rng, d, cond)
            res = solve(moments, config)
            exact = np.linalg.solve(moments.gamma_mat, moments.gamma_vec)
            err = float(np.max(np.abs(res.theta_hat - exact)))
            assert not res.converged or err <= 1e-6, (i, d, cond, err)
            assert res.polished and res.iterations <= max(1, d // 3) + 3, (i, d, cond, res)

    @pytest.mark.parametrize("seed, d", [(5, 3), (29, 5), (39, 6)])
    def test_a_support_free_system_is_solved_once(self, monkeypatch, seed, d):
        # Constrained mode, active radius: theta's signs change on a support
        # before a bordered system certifies.  The free system, which has no
        # signs in it, is solved at most once per support; the bordered one
        # once for each sign pattern, after the free one on its support.
        moments, config = _polish_instance(seed, d, False, "constrained", True)
        solve_linear, free, bordered = np.linalg.solve, [], []

        def spy(a, b):
            # A bordered system ends in the row (s_S, 0) = radius.
            if a.shape[0] > 1 and a[-1, -1] == 0 and b[-1] == config.radius:
                bordered.append((a[:-1, :-1].tobytes(), a[-1, :-1].tobytes()))
            else:
                free.append(a.tobytes())
            return solve_linear(a, b)

        monkeypatch.setattr(np.linalg, "solve", spy)
        res = solve(moments, config)
        assert res.polished and res.converged
        assert len(set(free)) == len(free)
        assert len(set(bordered)) == len(bordered)
        supports = [support for support, _ in bordered]
        assert set(supports) <= set(free)
        assert max(supports.count(support) for support in supports) >= 2

    def test_an_indefinite_free_system_is_skipped(self, monkeypatch):
        # Constrained, Gamma = diag(1, 0.01, -1e-4): at iteration 2 the
        # support {0, 1, 2} and the pattern (+, +, +) have both held for the
        # cost.  Gamma_SS is indefinite, so the free system, whose point
        # (1, 1, -1e-4) is an interior saddle with a zero gap, is not solved,
        # and the bordered system on (+, +, +) gives the minimum over the
        # ball, about (0.999, 0.919, 8.08) with f about -0.5082.
        solve_linear, shapes = np.linalg.solve, []

        def spy(a, b):
            shapes.append(a.shape)
            return solve_linear(a, b)

        monkeypatch.setattr(np.linalg, "solve", spy)
        gm = np.diag([1.0, 0.01, -1e-4])
        moments = CorrectedMoments(gm, np.array([1.0, 0.01, 1e-8]), 100)
        res = solve(moments, SolverConfig(radius=10.0))
        assert shapes == [(4, 4)]
        assert res.polished and res.converged
        assert abs(res.final_objective - -0.5082327305788515) <= 1e-9
        assert np.all(res.theta_hat > 0.9)
        assert abs(np.abs(res.theta_hat).sum() - 10.0) <= 1e-12

    def test_an_interior_saddle_is_not_returned(self, monkeypatch):
        # Privatized moments at small m (d = 4, m = 200, alpha = 0.5): Gamma
        # has eigenvalues from -10.1 to 2.5.  After 2 iterations the free
        # point on the settled support is an interior saddle with a zero gap:
        # f = -6.82 and ||theta||_1 = 4.45 against a radius of 22.6.  FISTA
        # alone reaches f = -1771.9 on the sphere; the solve does no worse.
        spec = sweeps_module.SweepSpec(
            experiment="error-vs-samples", trials=20, seed=7, d=4, m_grid=(200, 400, 800),
            alpha_grid=(0.5, 2.0), output_dir="unused",
        )
        seen = []

        def recording(moments, config):
            seen.append((moments, config))
            return solve(moments, config)

        monkeypatch.setattr(sweeps_module, "solve", recording)
        sweeps_module._error_vs_samples_trial(spec, 0.5, 200, sweeps_module._trial_rng(spec, 0, 14))
        [(moments, config)] = seen
        res = solve(moments, config)
        assert res.converged
        assert res.final_objective <= _reference_solve(moments, config).final_objective

    @settings(max_examples=120)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(1, 40),
        indefinite=st.booleans(),
        mode=st.sampled_from(["constrained", "lagrangian", "guarded"]),
        active=st.booleans(),
    )
    def test_a_polished_result_is_certified(self, seed, d, indefinite, mode, active):
        moments, config = _polish_instance(seed, d, indefinite, mode, active)
        trace = []
        try:
            res = solve(moments, config, trace=trace)
        except SolverDivergenceError:
            assert mode == "lagrangian" and indefinite
            return
        assert trace[-1] == res.final_objective
        assert len(trace) == res.iterations + res.polished
        if not res.polished:
            return
        eta = res.step_size_used
        gap0 = _certified_gap(moments, config, _start(moments), eta)
        assert res.converged
        assert _certified_gap(moments, config, res.theta_hat, eta) <= config.tol * max(1.0, gap0)
        if config.radius is not None:
            assert np.abs(res.theta_hat).sum() <= config.radius * (1 + 1e-10)
        assert np.all(np.diff(trace) <= 1e-12 * np.maximum(1.0, np.abs(trace[1:])))
        assert trace[-1] <= trace[-2]

    @pytest.mark.parametrize("mode,active", [
        ("constrained", False), ("constrained", True),
        ("lagrangian", False), ("guarded", False), ("guarded", True),
    ])
    def test_polish_is_reached_in_every_mode(self, mode, active):
        # The property above checks polished results; these PSD instances
        # show that each branch of the polish (free and bordered) is taken.
        moments, config = _polish_instance(3, 12, False, mode, active)
        res = solve(moments, config)
        assert res.polished and res.converged
        if config.radius is not None:
            off = abs(np.abs(res.theta_hat).sum() - config.radius)
            assert (off <= 1e-12 * config.radius) == active

    def test_a_singular_reduced_system_is_skipped(self, monkeypatch):
        # gamma_mat's first two rows are equal, so the reduced system on the
        # support {0, 1, 2} is singular, and so is the bordered one on the
        # pattern (+, +, +).  Cholesky rejects the free system before any
        # solve, the bordered solve fails, and FISTA certifies on its own.
        solve_linear, singular = np.linalg.solve, []

        def spy(a, b):
            try:
                return solve_linear(a, b)
            except np.linalg.LinAlgError:
                singular.append(a.shape)
                raise

        monkeypatch.setattr(np.linalg, "solve", spy)
        gm = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        moments = CorrectedMoments(gm, np.ones(3), 100)
        res = solve(moments, SolverConfig(mode="constrained", radius=10.0))
        assert singular == [(4, 4)]
        assert res.converged and not res.polished

    def test_a_fast_large_instance_is_not_polished(self):
        # d = 200, cond 10: FISTA certifies before the sign pattern has held
        # for the cost of one polish (|S|^3 / (3 d^2) ~ 66 iterations).
        moments, config = _gate_instance(np.random.default_rng(5), 200, 10.0)
        res = solve(moments, config)
        assert res.converged and not res.polished


def _large_instance(seed, d, indefinite, guarded, active):
    """A seeded instance above d = 64: PSD or indefinite Gamma with
    condition number up to 100, constrained or guarded Lagrangian with
    lambda_n = 0, radius well above or below ||theta*||_1; returns theta*,
    the optimum when Gamma is PSD and the constraint inactive."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    eig = np.logspace(0.0, -rng.uniform(0.0, 2.0), d)
    if indefinite:
        eig = eig - rng.uniform(0.1, 0.5)
    gm = (q * eig) @ q.T
    theta = rng.normal(size=d) * 0.3
    moments = CorrectedMoments(gm, gm @ theta, 1)
    radius = float(np.abs(theta).sum()) * (0.5 if active else 2.0)
    if guarded:
        return moments, SolverConfig(mode="lagrangian", lambda_n=0.0, radius=radius), theta
    return moments, SolverConfig(radius=radius), theta


class TestBacktracking:
    """Above d = 64 the step comes from backtracking on the descent
    inequality instead of an eigendecomposition."""

    @pytest.mark.parametrize("mode", ["constrained", "guarded"])
    def test_exact_step_at_d_64(self, mode):
        moments, config, _ = _large_instance(8, 64, True, mode == "guarded", False)
        res = solve(moments, config)
        assert res.step_size_used == 1.0 / max(spectral_bound(moments.gamma_mat), 1e-12)

    @pytest.mark.parametrize("config", [
        SolverConfig(radius=10.0),
        SolverConfig(mode="lagrangian", lambda_n=1e-3),
        SolverConfig(mode="lagrangian", lambda_n=1e-3, radius=10.0),
    ], ids=["constrained", "lagrangian", "guarded"])
    def test_no_eigendecomposition_above_d_64(self, monkeypatch, config):
        moments, _ = _gate_instance(np.random.default_rng(5), 200, 10.0)

        def forbidden(*args, **kwargs):
            raise AssertionError("eigendecomposition at d = 200")

        monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
        monkeypatch.setattr(solver_module, "spectral_bound", forbidden)
        assert solve(moments, config).converged

    @settings(max_examples=40)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(65, 160),
        indefinite=st.booleans(),
        guarded=st.booleans(),
        active=st.booleans(),
    )
    def test_accepted_steps_descend(self, seed, d, indefinite, guarded, active):
        moments, config, theta_star = _large_instance(seed, d, indefinite, guarded, active)
        gm = moments.gamma_mat
        checks = []

        def recorded(x, gx, y, gy, theta, eta, rows):
            checked = _checked_step(x, gx, y, gy, theta, eta, rows)
            checks.append((x, y, theta, eta, checked))
            return checked

        trace = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver_module, "_checked_step", recorded)
            res = solve(moments, config, trace=trace)
        norm = float(np.max(np.abs(np.linalg.eigvalsh(gm))))
        assert len(checks) >= res.iterations
        for x, y, theta, eta, checked in checks:
            if checked != eta:
                assert checked < eta
                continue
            # The descent inequality with G (x - y) recomputed, up to a
            # rounding allowance far below a real violation.
            dx = x - y
            scale = sum(float(np.linalg.norm(v)) for v in (x, y, theta))
            assert dx @ (gm @ dx) <= dx @ dx / eta + 1e-10 * norm * scale * np.linalg.norm(dx)
        assert res.step_size_used >= (1 - 1e-12) / norm
        assert len(trace) == res.iterations + res.polished
        assert np.all(np.diff(trace) <= 1e-12 * np.maximum(1.0, np.abs(trace[1:])))
        eta = res.step_size_used
        if res.converged:
            gap0 = _certified_gap(moments, config, _start(moments), eta)
            gap = _certified_gap(moments, config, res.theta_hat, eta)
            assert gap <= config.tol * max(1.0, gap0) * (1 + 1e-9) + 1e-14
        if not indefinite and not active:
            assert res.converged
            assert float(np.max(np.abs(res.theta_hat - theta_star))) <= 1e-6

    def test_rounding_allowance_at_a_near_optimal_point(self):
        # Restart at y = theta* + s v, v the top eigenvector, with the exact
        # step 1 / lambda_max: the plain step lands on theta*, and its
        # curvature equals ||x - y||^2 / eta up to the rounding of G x and
        # G y, which alone decides the raw inequality.  The allowance must
        # keep the step.
        moments, config = _gate_instance(np.random.default_rng(9), 100, 10.0)
        gm, gv = moments.gamma_mat, moments.gamma_vec
        theta_star = np.linalg.solve(gm, gv)
        lam, vecs = np.linalg.eigh(gm)
        eta = 1.0 / lam[-1]
        rows = float(np.sqrt(np.max(np.sum(gm * gm, axis=1))))
        rng = np.random.default_rng(10)
        raw_failures = 0
        for _ in range(200):
            s = 1e-8 * float(np.linalg.norm(theta_star)) * rng.uniform(0.5, 2.0)
            y = theta_star + s * vecs[:, -1] * rng.choice([-1.0, 1.0])
            gy = gm @ y
            x = project_l1(y - eta * (gy - gv), config.radius)
            gx = gm @ x
            dx = x - y
            raw_failures += bool(dx @ (gx - gy) > dx @ dx / eta)
            assert _checked_step(x, gx, y, gy, y, eta, rows) == eta
        assert raw_failures > 0
