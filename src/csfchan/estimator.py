"""Blind recovery of channel taps from the received-signal ACF.

The receive-side ACF at integer lags 0..M is a quadratic function of the
unknown echo taps alpha_1..alpha_M (the main tap is pinned to 1) plus the
noise variance, which enters lag 0 only.  That gives M+1 equations in
M+1 unknowns; a damped Gauss-Newton (Levenberg-Marquardt) iteration with
the analytic Jacobian solves it.  Problem sizes are tiny (M of order 10),
so everything is dense numpy.

The equations pin down the autocorrelation of the tap sequence, whose
factorisation into taps is unique only up to the usual spectral
ambiguity.  Within the damped-attenuation operating regime (decay rates
of roughly 0.3 and up) the physical strongly-decaying tap vector is the
factor the linearised seed converges to; with near-unit echoes other
exact factorisations exist and the solver may legitimately return one of
them (converged, zero residual, different taps).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .acf import _expand, _lag_weights
from .waveform import _check_integer

__all__ = [
    "IdentificationProblem",
    "SolverOptions",
    "EstimationResult",
    "build_residuals",
    "residual_jacobian",
    "solve_channel",
    "solve_channels",
]


def _checked(measured, r_xx) -> tuple[np.ndarray, np.ndarray, int]:
    """measured and r_xx as float arrays, and the tap count M; ValueError
    unless measured is an (n, M+1) array of receive-ACF rows over lags
    0..M, r_xx a transmit ACF over lags 0..2M at least, and both finite."""
    measured, r_xx = np.asarray(measured, dtype=float), np.asarray(r_xx, dtype=float)
    if measured.ndim != 2 or not measured.shape[1]:
        raise ValueError(f"measured must be an (n, M+1) array of ACF rows, got shape {measured.shape}")
    m = measured.shape[1] - 1
    if r_xx.ndim != 1 or r_xx.size < 2 * m + 1:
        raise ValueError(f"r_xx must cover lags 0..{2 * m}")
    if not (np.all(np.isfinite(measured)) and np.all(np.isfinite(r_xx))):
        raise ValueError("ACF values must be finite")
    return measured, r_xx, m


@dataclass(frozen=True)
class IdentificationProblem:
    """Inputs of the tap-recovery system.

    r_rr  measured (or exact) received ACF at lags 0..M, for M candidate
          echo taps
    r_xx  known transmit ACF at lags 0..2M at least; the quadratic
          expansion references lag sums up to twice the delay span
    """

    r_rr: np.ndarray
    r_xx: np.ndarray

    def __post_init__(self):
        measured, r_xx, _ = _checked(np.asarray(self.r_rr, dtype=float)[None], self.r_xx)
        object.__setattr__(self, "r_rr", measured[0])
        object.__setattr__(self, "r_xx", r_xx)

    @property
    def max_delay(self) -> int:
        """The number of candidate echo taps M, read off r_rr."""
        return len(self.r_rr) - 1


def _shifted_acf(r_xx: np.ndarray, m: int) -> np.ndarray:
    """G[u + 2M, b] = r_xx[|u + b|] for u in -2M..M and b in 0..M."""
    return r_xx[np.abs(np.arange(-2 * m, m + 1)[:, None] + np.arange(m + 1))]


_STEP_TOL = 1e-12  # step 2-norm below which iteration stops
_DAMPING0 = 1e-3  # initial Levenberg-Marquardt damping
# rows iterated side by side: bounds the solver's batch arrays, so that
# its memory does not grow with the number of rows
_SOLVE_BLOCK = 128


@dataclass(frozen=True)
class SolverOptions:
    tol: float = 1e-10  # residual 2-norm declaring convergence
    max_iter: int = 200

    def __post_init__(self):
        # NaN or a negative tol converges nothing, inf everything
        real = isinstance(self.tol, numbers.Real) and not isinstance(self.tol, bool)
        if not (real and 0 <= self.tol < math.inf):
            raise ValueError(f"tol must be a finite real number >= 0, got {self.tol!r}")
        object.__setattr__(self, "max_iter", _check_integer("max_iter", self.max_iter, 1))


@dataclass(frozen=True)
class EstimationResult:
    """Solver output: echo taps, noise variance, and diagnostics.

    From solve_channels every field has a leading axis of one entry per
    measured row: alpha_hat (n, M) and the others (n,).  From
    solve_channel alpha_hat is (M,) and the others are Python scalars.
    """

    alpha_hat: np.ndarray
    noise_var_hat: np.ndarray | float
    residual_norm: np.ndarray | float
    iterations: np.ndarray | int
    converged: np.ndarray | bool

    def __post_init__(self):
        arr = np.asarray(self.alpha_hat, dtype=float)
        if not np.all(np.isfinite(arr)):
            raise ValueError("estimated taps must be finite")
        object.__setattr__(self, "alpha_hat", arr)


def _model_residuals(
    alpha: np.ndarray, noise_var, weights: np.ndarray, measured: np.ndarray
) -> np.ndarray:
    """build_residuals over any leading batch axes of alpha, noise_var and
    measured, for the lag weights W = _lag_weights(r_xx, M+1, M+1, 1)."""
    taps = np.concatenate((np.ones(alpha.shape[:-1] + (1,)), alpha), axis=-1)
    return _expand(taps, weights, noise_var) - measured


def _jacobian(alpha: np.ndarray, shifted: np.ndarray) -> np.ndarray:
    """residual_jacobian over any leading batch axes of alpha, for the
    shifted transmit ACF G (_shifted_acf)."""
    m = alpha.shape[-1]
    a = np.concatenate((np.ones(alpha.shape[:-1] + (1,)), alpha), axis=-1)
    # derivative of sum_{i,b} a_i a_b rxx[|k-i+b|] w.r.t. a_j splits into the
    # i=j and b=j terms: T(k-j) + T(-(k+j)) with T(v) = sum_b a_b rxx[|v+b|];
    # vecdot takes one dot per row, as np.dot does (G @ a rounds differently)
    T = np.vecdot(shifted, a[..., None, :])
    k = np.arange(m + 1)[:, None]
    j = np.arange(1, m + 1)
    jac = np.zeros(alpha.shape[:-1] + (m + 1, m + 1))
    jac[..., :m] = T[..., k - j + 2 * m] + T[..., 2 * m - k - j]
    jac[..., 0, m] = 1.0
    return jac


def build_residuals(alpha: np.ndarray, noise_var: float, prob: IdentificationProblem) -> np.ndarray:
    """Model-minus-measurement residual of each lag equation.

    Entry k is the quadratic expansion of the received ACF at lag k,
    evaluated at (alpha, noise_var) with the conventions a_0 = 1 and
    a_j = 0 beyond max_delay, minus r_rr[k].
    """
    m = prob.max_delay
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (m,):
        raise ValueError(f"alpha must have shape ({m},)")
    return _model_residuals(alpha, noise_var, _lag_weights(prob.r_xx, m + 1, m + 1, 1), prob.r_rr)


def residual_jacobian(alpha: np.ndarray, noise_var: float, prob: IdentificationProblem) -> np.ndarray:
    """Exact partials of the residuals w.r.t. (alpha_1..alpha_M, noise_var).

    The equations are quadratic in the taps, so every entry is linear in
    alpha; the noise-variance column is the unit vector at lag 0.
    """
    return _jacobian(np.asarray(alpha, dtype=float), _shifted_acf(prob.r_xx, prob.max_delay))


def _initial_guess(measured: np.ndarray, rxx0: float) -> np.ndarray:
    """Linearised seed of each row of measured ACFs: read each lag
    equation ignoring cross terms."""
    alpha0 = np.maximum(0.0, measured[:, 1:] / rxx0)
    nv0 = np.maximum(0.0, measured[:, 0] - rxx0 * (1.0 + np.sum(alpha0**2, axis=-1)))
    return np.concatenate([alpha0, nv0[:, None]], axis=-1)


def _solve_each(matrices: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.linalg.solve of each system of the stack, and which were not
    singular.  A stacked solve refuses the whole stack for one singular
    member, so then each member is solved on its own."""
    try:
        return np.linalg.solve(matrices, rhs), np.ones(len(matrices), dtype=bool)
    except np.linalg.LinAlgError:
        out = np.zeros_like(rhs)
        ok = np.ones(len(matrices), dtype=bool)
        for i in range(len(matrices)):
            try:
                out[i] = np.linalg.solve(matrices[i : i + 1], rhs[i : i + 1])[0]
            except np.linalg.LinAlgError:
                ok[i] = False
        return out, ok


def _solve_block(
    measured: np.ndarray, rxx0: float, weights: np.ndarray, shifted: np.ndarray, opts: SolverOptions
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The final iterate (alpha, noise_var), cost and iteration count of
    each row of measured, iterated side by side (solve_channels)."""
    m = measured.shape[1] - 1
    diagonal = np.eye(m + 1, dtype=bool)
    x = _initial_guess(measured, rxx0)
    r = _model_residuals(x[:, :m], x[:, m], weights, measured)
    cost = np.vecdot(r, r)
    lam = np.full(len(measured), _DAMPING0)
    iterations = np.zeros(len(measured), dtype=int)
    live = np.arange(len(measured))  # the rows still iterating
    for n_iter in range(1, opts.max_iter + 1):
        iterations[live] = n_iter
        live = live[~(np.sqrt(cost[live]) <= opts.tol)]
        if not live.size:
            break
        jac = _jacobian(x[live, :m], shifted)
        rhs = -(jac.mT @ r[live][..., None])
        hess = jac.mT @ jac
        scale = np.where(diagonal, np.maximum(np.diagonal(hess, axis1=-2, axis2=-1), 1e-12)[..., None], 0.0)
        searching = np.arange(live.size)  # positions in live with no accepted step yet
        step = np.zeros((live.size, m + 1))
        for _ in range(64):
            rows = live[searching]
            solved, ok = _solve_each(hess[searching] + lam[rows, None, None] * scale[searching], rhs[searching])
            tried = rows[ok]
            x_new = x[tried] + solved[ok, :, 0]
            r_new = _model_residuals(x_new[:, :m], x_new[:, m], weights, measured[tried])
            cost_new = np.vecdot(r_new, r_new)
            better = cost_new < cost[tried]
            won = tried[better]
            x[won], r[won], cost[won] = x_new[better], r_new[better], cost_new[better]
            lam[won] = np.maximum(lam[won] / 3.0, 1e-14)
            lam[rows[~ok]] *= 10.0  # a singular damped matrix counts as a rejected try
            lam[tried[~better]] *= 10.0
            accepted = searching[ok][better]
            step[accepted] = solved[ok][better, :, 0]
            searching = np.setdiff1d(searching, accepted, assume_unique=True)
            if not searching.size:
                break
        # a row stops when no damping lowered its cost in 64 tries or when
        # its accepted step fell below the step tolerance
        moving = ~(np.sqrt(np.vecdot(step, step)) <= _STEP_TOL)
        moving[searching] = False
        live = live[moving]
    return x, cost, iterations


def solve_channels(r_xx: np.ndarray, measured: np.ndarray, opts: SolverOptions = SolverOptions()) -> EstimationResult:
    """Levenberg-Marquardt solve of the lag-equation system of each row of
    measured, an (n, M+1) array of receive ACFs at lags 0..M, against the
    one transmit ACF r_xx at lags 0..2M.

    Damping increases on rejected steps (which also covers singular
    damped normal matrices) and relaxes on accepted ones.  Never raises on
    non-convergence: the best iterate comes back with converged=False.

    converged=False means the residual norm stayed above opts.tol when
    the iteration stopped, for one of three reasons: no damping lowered
    the cost in 64 tries, the accepted step fell below 1e-12, or max_iter
    ran out.  The result then holds the best iterate and its residual
    norm.

    The rows iterate side by side along a leading batch axis, in blocks
    of _SOLVE_BLOCK, each through the float operations of a solve on its
    own: the stacked matmul, solve and vecdot calls work member by
    member, so every row's result is bit-identical to a one-row batch,
    whatever the batch holds.  Zero rows give empty arrays.
    """
    measured, r_xx, m = _checked(measured, r_xx)
    weights, shifted = _lag_weights(r_xx, m + 1, m + 1, 1), _shifted_acf(r_xx, m)
    n = len(measured)
    x, cost, iterations = np.empty((n, m + 1)), np.empty(n), np.empty(n, dtype=int)
    for start in range(0, n, _SOLVE_BLOCK):
        block = slice(start, start + _SOLVE_BLOCK)
        x[block], cost[block], iterations[block] = _solve_block(measured[block], r_xx[0], weights, shifted, opts)
    residual_norm = np.sqrt(cost)
    return EstimationResult(
        alpha_hat=x[:, :m],
        noise_var_hat=x[:, m],
        residual_norm=residual_norm,
        iterations=iterations,
        converged=residual_norm <= opts.tol,
    )


def solve_channel(prob: IdentificationProblem, opts: SolverOptions = SolverOptions()) -> EstimationResult:
    """Levenberg-Marquardt solve of one lag-equation system: solve_channels
    of a one-row batch, its fields unpacked into Python scalars."""
    one = solve_channels(prob.r_xx, prob.r_rr[None], opts)
    return EstimationResult(
        alpha_hat=one.alpha_hat[0],
        noise_var_hat=float(one.noise_var_hat[0]),
        residual_norm=float(one.residual_norm[0]),
        iterations=int(one.iterations[0]),
        converged=bool(one.converged[0]),
    )
