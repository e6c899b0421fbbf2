"""Bias-corrected l1-constrained quadratic solver for noisy covariates.

Fitting a linear model on covariates observed through additive noise biases
the ordinary Gram matrix upward by the noise covariance.  The corrected
moments

    gamma_mat = Z^T Z / m - Sigma_w        (d x d, symmetrized)
    gamma_vec = Z^T Y / m                  (length d)

are unbiased estimates of the clean second moments, and the coefficients
are recovered by minimizing

    0.5 * theta^T gamma_mat theta - <gamma_vec, theta>  (+ lambda_n ||theta||_1)

either over the l1 ball of a given radius (constrained mode) or with the
l1 penalty (Lagrangian mode), by FISTA with adaptive restart, stopped on a
certified gap (Frank-Wolfe gap or proximal-gradient residual).  The step is
the exact 1 / ||gamma_mat||_2 up to d = 64; above that it comes from
backtracking on the descent inequality (Beck & Teboulle 2009), which needs
no eigendecomposition and never takes a shorter step.  Proximal gradient
finds the optimum's sign pattern after finitely many steps (Nutini, Schmidt
& Hare 2019), so once the iterates' support or signs have settled the solver
tries to finish with one linear solve of a reduced stationarity system
("polishing", as in OSQP; Stellato et al. 2020), off the l1 sphere only on a
positive-definite matrix, and keeps it when the same gap certifies it.  The
correction can make gamma_mat indefinite; the monotone iteration from zero
still converges to a stationary point, and for statistically sized radii all
such points carry equivalent estimation error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _check
from .core import _as_float_array
from .mechanisms import PrivateDataset

_ABS_OBJECTIVE_FLOOR = 1e-14
_STAGNATION_TOL = 1e-12
_TIE_BREAK_EPS = 1e-8
# Largest dimension solved with the exact step 1 / spectral_bound; above it
# the step comes from backtracking, which needs no eigendecomposition.
_EXACT_STEP_MAX_DIM = 64
_EPS = float(np.finfo(np.float64).eps)
_MODES = ("constrained", "lagrangian")


class SolverDivergenceError(RuntimeError):
    """The iteration produced a non-finite objective.

    Carries the last finite iterate as ``last_iterate``; possible for an
    indefinite quadratic in unguarded Lagrangian mode.
    """

    def __init__(self, message: str, last_iterate: np.ndarray):
        super().__init__(message)
        self.last_iterate = last_iterate


@dataclass(frozen=True)
class CorrectedMoments:
    """The pair (gamma_mat, gamma_vec) plus the sample count behind it.

    gamma_mat is exactly symmetric (symmetrized at construction) and may be
    indefinite; no positive-semidefiniteness is assumed anywhere.
    """

    gamma_mat: np.ndarray
    gamma_vec: np.ndarray
    m: int

    def __post_init__(self):
        gv = _as_float_array(self.gamma_vec, "gamma_vec", (None,)).copy()
        gm = _as_float_array(self.gamma_mat, "gamma_mat", gv.shape * 2)
        _check("an integer >= 1", m=self.m)
        gm = 0.5 * (gm + gm.T)
        gm.setflags(write=False)
        gv.setflags(write=False)
        object.__setattr__(self, "gamma_mat", gm)
        object.__setattr__(self, "gamma_vec", gv)

    @property
    def dim(self) -> int:
        return self.gamma_vec.shape[0]


def moments_from_arrays(x, y, noise_variance: float = 0.0) -> CorrectedMoments:
    """Build (Z^T Z / m - noise_variance * I, Z^T Y / m) from raw arrays.  A
    NaN or infinity in x or y reaches the moments, which CorrectedMoments checks."""
    x = _as_float_array(x, "x", (None, None), finite=False)
    y = _as_float_array(y, "y", x.shape[:1], finite=False)
    _check("non-negative", noise_variance=noise_variance)
    m = x.shape[0]
    with np.errstate(invalid="ignore", over="ignore"):
        gm = x.T @ x / m - noise_variance * np.eye(x.shape[1])
        gv = x.T @ y / m
    try:
        return CorrectedMoments(gm, gv, m)
    except ValueError:  # gm, gv and m are well formed: only an entry is not finite
        raise ValueError("x and y must give finite moments") from None


def corrected_moments(pds: PrivateDataset) -> CorrectedMoments:
    """Noise-corrected moments of a privatized survey."""
    return moments_from_arrays(pds.z, pds.y, pds.noise_variance)


def soft_threshold(v, level: float) -> np.ndarray:
    """Per-coordinate shrinkage sign(v_i) * max(|v_i| - level, 0)."""
    _check("non-negative", level=level)
    v = np.asarray(v, dtype=np.float64)
    return np.sign(v) * np.maximum(np.abs(v) - level, 0.0)


def project_l1(v, radius: float) -> np.ndarray:
    """Euclidean projection of v onto the l1 ball of the given radius.

    Sort-based exact algorithm: the projection equals the soft threshold of
    v at the level theta solving sum_i max(|v_i| - theta, 0) = radius, and
    theta is found in closed form from the sorted absolute values.  Returns
    v unchanged when it is already feasible.
    """
    _check("positive", radius=radius)
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError("v must be a vector")
    a = np.abs(v)
    l1 = a.sum()
    if not math.isfinite(l1):
        raise ValueError("v must be finite")
    if l1 <= radius:
        return v.copy()
    u = np.sort(a)[::-1]
    css = np.cumsum(u)
    k = np.arange(1, v.shape[0] + 1)
    rho = np.max(np.nonzero(u * k > css - radius)[0])
    level = (css[rho] - radius) / (rho + 1.0)
    return np.sign(v) * np.maximum(a - level, 0.0)


def spectral_bound(gamma_mat) -> float:
    """Spectral norm max |eigenvalue| of a symmetric matrix.

    Exact to rounding for symmetric input, which CorrectedMoments
    guarantees; only the lower triangle is read.  Returns exactly 0 for the
    zero matrix.
    """
    g = _as_float_array(gamma_mat, "gamma_mat", (None, None), finite=False)
    g = _as_float_array(g, "gamma_mat", g.shape[:1] * 2)  # square
    return float(np.max(np.abs(np.linalg.eigvalsh(g)), initial=0.0))


def _checked_step(x, gx, y, gy, theta, eta: float, rows: float) -> float:
    """The step size for the prox step y -> x taken with step eta.

    eta itself when the step meets the descent inequality
    d . (gx - gy) <= ||d||^2 / eta, d = x - y, up to an allowance for the
    rounding of gx and gy, the products of gamma_mat with x and y; gy may
    be extrapolated from products at x and theta.  Each entry of such a
    product is off by at most about d * eps * rows * ||x||_2, where rows,
    the largest row norm of gamma_mat, bounds the entries of
    |gamma_mat| |x| per unit ||x||_2.  Otherwise 1 / the step's Rayleigh
    quotient less that allowance: a shorter step, but no shorter than
    1 / lambda_max(gamma_mat).
    """
    dx = x - y
    dd = float(dx @ dx)
    curv = float(dx @ (gx - gy))
    norms = math.sqrt(x @ x) + math.sqrt(y @ y) + math.sqrt(theta @ theta)
    slack = 8 * x.shape[0] * _EPS * rows * norms * float(np.abs(dx).sum())
    if not curv > dd / eta + slack:
        return eta
    return dd / (curv - slack)


@dataclass(frozen=True)
class SolverConfig:
    """Optimization mode and iteration controls.

    mode "constrained" minimizes over ||theta||_1 <= radius; mode
    "lagrangian" adds lambda_n * ||theta||_1 to the objective instead, with
    ``radius`` acting as an optional feasibility guard (projection after
    every step) when set.  ``lambda_n=None`` in Lagrangian mode selects the
    default level sqrt(ln d / m).  The step is 1 / spectral_bound(gamma_mat)
    up to d = 64 and found by backtracking above (see :func:`solve`); it has
    no setting.  ``converged`` means the optimality gap at
    the returned iterate is at most tol * max(1, gap(theta_0)) (see
    :func:`solve`): relative to the starting gap when that exceeds 1, and the
    absolute threshold ``tol`` otherwise.  The same threshold decides whether
    a polished point is kept; polishing has no setting, and its one rule for
    keying and solving its systems is set out under "Polish" in :func:`solve`.
    """

    mode: str = "constrained"
    radius: float | None = None
    lambda_n: float | None = None
    max_iter: int = 10000
    tol: float = 1e-9

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError(f"unknown solver mode {self.mode!r}")
        if self.radius is None and self.mode == "constrained":
            raise ValueError("constrained mode requires a radius")
        if self.radius is not None:
            _check("positive", radius=self.radius)
        if self.lambda_n is not None:
            _check("non-negative", lambda_n=self.lambda_n)
        _check("an integer >= 1", max_iter=self.max_iter)
        _check("positive", tol=self.tol)


@dataclass(frozen=True)
class SolveResult:
    theta_hat: np.ndarray
    iterations: int
    final_objective: float
    converged: bool
    step_size_used: float
    gap: float
    polished: bool


def objective(moments: CorrectedMoments, theta, lambda_n: float = 0.0) -> float:
    """0.5 theta^T gamma_mat theta - <gamma_vec, theta> + lambda_n ||theta||_1."""
    _check("non-negative", lambda_n=lambda_n)
    t = _as_float_array(theta, "theta", moments.gamma_vec.shape)
    quad = 0.5 * float(t @ (moments.gamma_mat @ t)) - float(moments.gamma_vec @ t)
    return quad + lambda_n * float(np.sum(np.abs(t)))


def _resolve_lambda(config: SolverConfig, moments: CorrectedMoments) -> float:
    if config.lambda_n is not None:
        return config.lambda_n
    d = moments.dim
    return math.sqrt(math.log(d) / moments.m) if d > 1 else 0.0


def solve(
    moments: CorrectedMoments, config: SolverConfig, trace: list | None = None
) -> SolveResult:
    """Minimize the corrected quadratic by FISTA with adaptive restart.

    From theta_0 = 0, each step is x+ = prox(y - eta * grad(y)) at the
    momentum point y (Beck & Teboulle 2009); prox is project_l1 (constrained
    mode) or the soft threshold at eta * lambda_n plus the radius-guard
    projection when configured (Lagrangian mode).  Momentum restarts when
    <y - x+, x+ - x> > 0 (O'Donoghue & Candes 2015).  If the momentum step
    raises the objective, the plain step from x is taken and momentum
    restarts; with a step that meets the descent inequality below, that
    never raises the objective, even for indefinite gamma_mat.

    The step.  For d <= 64, eta = 1 / max(spectral_bound, 1e-12), fixed.
    For d > 64 no eigenvalue is computed: 1 / eta starts at the largest row
    norm of gamma_mat (floored at 1e-12), a lower bound on ||gamma_mat||_2,
    and every step, momentum or plain, must meet the descent inequality
    (x+ - y) . gamma_mat (x+ - y) <= ||x+ - y||^2 / eta up to an allowance
    for the rounding of the products.  A step that fails raises 1 / eta to
    its Rayleigh quotient less that allowance, at most lambda_max, and is
    taken again.  So 1 / eta never exceeds ||gamma_mat||_2 and no step is
    shorter than the exact one.  ``step_size_used`` is the final eta.

    ``converged`` certifies gap <= tol * max(1, gap(theta_0)), which is the
    absolute threshold ``tol`` whenever gap(theta_0) < 1.  The gap is the
    Frank-Wolfe gap <g, theta> + radius * ||g||_inf (constrained mode;
    Jaggi 2013), which bounds f(theta) - f* when gamma_mat is PSD, or the
    residual ||theta - prox(theta - eta * g)||_inf / eta (Lagrangian mode)
    at the current eta, so a backtrack recomputes the Lagrangian threshold;
    for indefinite gamma_mat both measure stationarity.  The run also ends,
    unconverged unless the gap test holds, when rounding stalls it
    (objective change < 1e-14 and move < 1e-12 * max(1, ||theta||_inf)) or
    at max_iter.  ``gap`` is the gap at the returned iterate.

    Tie-breaking on the measure-zero symmetric case: when the gradient at
    zero vanishes exactly and the corrected matrix has a negative diagonal
    entry, the start is perturbed by +1e-8 on the most negative diagonal
    coordinate so the iteration escapes the maximizer deterministically.

    Polish.  After an iteration whose gap does not certify, let s be the
    sign pattern of theta and S its support.  Two reduced systems set x = 0
    off S: the free one Gamma_SS x_S = gamma_S - lambda_n s_S (lambda_n = 0
    in constrained mode) and, when a radius is set, the one bordered by s_S
    and the radius, which puts x on the sphere ||x||_1 = radius.  Each is
    keyed on what its right side holds: the free one on S in constrained
    mode and on s in Lagrangian mode, the bordered one on s.  Once its key
    has held for max(1, |S|^3 // (3 d^2)) iterations (the cost of one polish
    in products with gamma_mat), a system not tried for that key before is
    tried, the free one first.  The free one is solved only if Cholesky finds
    Gamma_SS positive definite, so its point minimizes the quadratic on S,
    never a saddle.  A point is kept only if it is finite, keeps every
    sign of s_S (unless it is the free point in constrained mode), has
    ||x||_1 <= radius as computed, does not raise the objective and its gap
    meets the threshold above; the run then ends, converged, with
    ``polished`` true.  Otherwise the FISTA path goes on unchanged.  A
    dropped constrained free point would be dropped later too: it depends
    on S alone, the threshold is fixed and the objective only falls.

    ``iterations`` counts accepted gradient steps; a step taken again after
    a backtrack is not counted twice.  When ``trace`` is a list, the
    objective value after every iteration is appended to it, and the
    polished objective after that, so len(trace) == iterations + polished
    and trace[-1] == final_objective.  One iteration costs one product with
    gamma_mat plus O(d) vector work, and one more product per backtrack;
    the sort-based projection runs only when a gradient step leaves the l1
    ball.
    """
    d = moments.dim
    gm, gv = moments.gamma_mat, moments.gamma_vec
    constrained = config.mode == "constrained"
    radius = config.radius
    lam = 0.0 if constrained else _resolve_lambda(config, moments)
    backtrack = d > _EXACT_STEP_MAX_DIM
    if backtrack:
        # The largest row norm of gamma_mat is at most ||gamma_mat||_2, as
        # row i is gamma_mat e_i.
        rows = float(np.sqrt(np.einsum("ij,ij->i", gm, gm).max()))
        eta = 1.0 / max(rows, 1e-12)
    else:
        eta = 1.0 / max(spectral_bound(gm), 1e-12)

    def prox(v):
        # v is always a fresh temporary, so a feasible v is returned as is;
        # project_l1 runs only when v leaves the ball.
        if constrained:
            return v if np.abs(v).sum() <= radius else project_l1(v, radius)
        v = soft_threshold(v, eta * lam)
        if radius is not None and np.abs(v).sum() > radius:
            v = project_l1(v, radius)
        return v

    def gap_at(x, gx):
        g = gx - gv
        if constrained:
            return float(g @ x) + radius * float(np.abs(g).max())
        return float(np.abs(x - prox(x - eta * g)).max()) / eta

    def step_from(y, gy):
        # The new iterate, gamma_mat times it (reused for the objective, the
        # gap and the next gradient) and its objective.  Divergence (possible
        # for indefinite quadratics in unguarded Lagrangian mode) shows as a
        # non-finite objective.  Above _EXACT_STEP_MAX_DIM a step that fails
        # _checked_step is taken again at the shorter step it returns.
        nonlocal eta, threshold
        while True:
            x = prox(y - eta * (gy - gv))
            gx = gm @ x
            if not backtrack:
                break
            checked = _checked_step(x, gx, y, gy, theta, eta, rows)
            if checked == eta:
                break
            eta = checked
            if not constrained:
                threshold = config.tol * max(1.0, gap_at(*start))
        f = 0.5 * float(x @ gx) - float(gv @ x)
        if not constrained:
            f += lam * float(np.abs(x).sum())
        if not math.isfinite(f):
            raise SolverDivergenceError(
                f"objective became non-finite at iteration {iterations}", theta
            )
        return x, gx, f

    def polish(signs, due):
        # (x, f(x), gap(x)) for the first point of the due reduced systems on
        # the sign pattern (False: free, True: bordered) that passes every
        # check in the docstring of solve; None if none does.
        support = np.flatnonzero(signs)
        s = signs[support].astype(np.float64)
        k = support.shape[0]
        a, b = gm[support[:, None], support], gv[support] - lam * s
        for bordered in due:
            try:
                if bordered:
                    a = np.block([[a, s[:, None]], [s[None, :], np.zeros((1, 1))]])
                    b = np.append(b, radius)
                else:
                    np.linalg.cholesky(a)
                z = np.linalg.solve(a, b)[:k]
            except np.linalg.LinAlgError:
                continue
            signed = bordered or not constrained
            if not (np.all(np.isfinite(z)) and (not signed or np.array_equal(np.sign(z), s))):
                continue
            x = np.zeros(d)
            x[support] = z
            l1 = float(np.abs(x).sum())
            if bordered and l1 > radius:
                # s_S . x_S = radius holds only to rounding.
                x *= radius / l1
                l1 = float(np.abs(x).sum())
            if radius is not None and l1 > radius:
                continue
            gx = gm @ x
            f = 0.5 * float(x @ gx) - float(gv @ x) + lam * l1
            if f <= obj:
                g = gap_at(x, gx)
                if g <= threshold:
                    return x, f, g
        return None

    theta = np.zeros(d)
    diag = np.diag(gm)
    if not np.any(gv) and np.min(diag) < 0:
        theta[int(np.argmin(diag))] = _TIE_BREAK_EPS
    g_theta = gm @ theta
    start = theta, g_theta
    obj = objective(moments, theta, lam)
    gap = gap_at(theta, g_theta)
    threshold = config.tol * max(1.0, gap)
    y, g_y, t, beta = theta, g_theta, 1.0, 0.0
    iterations, converged, polished = 0, False, False
    # Per system (free, bordered): its key at theta, how long that has held,
    # and the keys tried, kept apart: a support's bytes are an all-positive pattern's.
    keys, held, tried = [None, None], [0, 0], (set(), set())
    systems = (False, True) if radius is not None else (False,)
    # numpy's transient overflow warnings on the divergent path carry no
    # information beyond the non-finite objective.
    with np.errstate(over="ignore", invalid="ignore"):
        for iterations in range(1, config.max_iter + 1):
            new, g_new, new_obj = step_from(y, g_y)
            restart = beta > 0 and new_obj > obj
            if restart:
                new, g_new, new_obj = step_from(theta, g_theta)
            step = new - theta
            if restart or float((y - new) @ step) > 0:
                t = 1.0
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            beta = (t - 1.0) / t_next
            if beta > 0:
                y, g_y = new + beta * step, g_new + beta * (g_new - g_theta)
            else:
                y, g_y = new, g_new
            delta = abs(new_obj - obj)
            theta, g_theta, obj, t = new, g_new, new_obj, t_next
            if trace is not None:
                trace.append(obj)
            gap = gap_at(theta, g_theta)
            converged = gap <= threshold
            if not converged:
                signs = np.sign(theta).astype(np.int8)
                size = int(np.count_nonzero(signs))
                cost = max(1, size**3 // (3 * d * d))
                due = []
                for bordered in systems:
                    free = constrained and not bordered
                    key = (signs != 0).tobytes() if free else signs.tobytes()
                    held[bordered] = held[bordered] + 1 if key == keys[bordered] else 0
                    keys[bordered] = key
                    if size and held[bordered] == cost and key not in tried[bordered]:
                        tried[bordered].add(key)
                        due.append(bordered)
                kept = polish(signs, due) if due else None
                if kept is not None:
                    theta, obj, gap = kept
                    if trace is not None:
                        trace.append(obj)
                    converged = polished = True
            if converged or (
                delta < _ABS_OBJECTIVE_FLOOR
                and np.abs(step).max() < _STAGNATION_TOL * max(1.0, np.abs(theta).max())
            ):
                break

    return SolveResult(
        theta_hat=theta,
        iterations=iterations,
        final_objective=obj,
        converged=converged,
        step_size_used=eta,
        gap=gap,
        polished=polished,
    )
