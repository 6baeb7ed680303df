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

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .acf import AcfEstimate, _expand, _lag_weights

__all__ = [
    "IdentificationProblem",
    "SolverOptions",
    "EstimationResult",
    "build_residuals",
    "residual_jacobian",
    "solve_channel",
]


@dataclass(frozen=True)
class IdentificationProblem:
    """Inputs of the tap-recovery system.

    r_rr       measured (or exact) received ACF at lags 0..max_delay
    r_xx       known transmit ACF at lags 0..2*max_delay; the quadratic
               expansion references lag sums up to twice the delay span
    max_delay  number of candidate echo taps M
    """

    r_rr: AcfEstimate
    r_xx: np.ndarray
    max_delay: int

    def __post_init__(self):
        rxx = np.asarray(self.r_xx, dtype=float)
        m = self.max_delay
        if self.r_rr.max_lag != m:
            raise ValueError(f"r_rr must cover lags 0..{m}")
        if rxx.ndim != 1 or rxx.size < 2 * m + 1:
            raise ValueError(f"r_xx must cover lags 0..{2 * m}")
        if not np.all(np.isfinite(rxx)):
            raise ValueError("r_xx must be finite")
        object.__setattr__(self, "r_xx", rxx)

    @cached_property
    def lag_weights(self) -> np.ndarray:
        """W with the model ACF at lag k = sum_d c[d] W[d, k] for the tap
        correlation c: row 0 is r_xx[k], row d is r_xx[|k-d|] + r_xx[k+d]."""
        m = self.max_delay
        return _lag_weights(self.r_xx, m + 1, m + 1, 1)

    @cached_property
    def shifted_acf(self) -> np.ndarray:
        """G[u + 2M, b] = r_xx[|u + b|] for u in -2M..M and b in 0..M."""
        m = self.max_delay
        return self.r_xx[np.abs(np.arange(-2 * m, m + 1)[:, None] + np.arange(m + 1))]


_STEP_TOL = 1e-12  # step 2-norm below which iteration stops
_DAMPING0 = 1e-3  # initial Levenberg-Marquardt damping


@dataclass(frozen=True)
class SolverOptions:
    tol: float = 1e-10  # residual 2-norm declaring convergence
    max_iter: int = 200


@dataclass(frozen=True)
class EstimationResult:
    """Solver output: echo taps, noise variance, and diagnostics."""

    alpha_hat: np.ndarray
    noise_var_hat: float
    residual_norm: float
    iterations: int
    converged: bool

    def __post_init__(self):
        arr = np.asarray(self.alpha_hat, dtype=float)
        if not np.all(np.isfinite(arr)):
            raise ValueError("estimated taps must be finite")
        object.__setattr__(self, "alpha_hat", arr)


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
    return _expand(np.concatenate(([1.0], alpha)), prob.lag_weights, noise_var) - prob.r_rr.values


def residual_jacobian(alpha: np.ndarray, noise_var: float, prob: IdentificationProblem) -> np.ndarray:
    """Exact partials of the residuals w.r.t. (alpha_1..alpha_M, noise_var).

    The equations are quadratic in the taps, so every entry is linear in
    alpha; the noise-variance column is the unit vector at lag 0.
    """
    m = prob.max_delay
    alpha = np.asarray(alpha, dtype=float)
    a = np.concatenate(([1.0], alpha))
    # derivative of sum_{i,b} a_i a_b rxx[|k-i+b|] w.r.t. a_j splits into the
    # i=j and b=j terms: T(k-j) + T(-(k+j)) with T(v) = sum_b a_b rxx[|v+b|];
    # vecdot takes one dot per row, as np.dot does (G @ a rounds differently)
    T = np.vecdot(prob.shifted_acf, a)
    k = np.arange(m + 1)[:, None]
    j = np.arange(1, m + 1)
    jac = np.zeros((m + 1, m + 1))
    jac[:, :m] = T[k - j + 2 * m] + T[2 * m - k - j]
    jac[0, m] = 1.0
    return jac


def _initial_guess(prob: IdentificationProblem) -> np.ndarray:
    """Linearised seed: read each lag equation ignoring cross terms."""
    rxx0 = prob.r_xx[0]
    alpha0 = np.maximum(0.0, prob.r_rr.values[1:] / rxx0)
    nv0 = max(0.0, prob.r_rr.values[0] - rxx0 * (1.0 + float(np.sum(alpha0**2))))
    return np.concatenate([alpha0, [nv0]])


def solve_channel(prob: IdentificationProblem, opts: SolverOptions = SolverOptions()) -> EstimationResult:
    """Levenberg-Marquardt solve of the lag-equation system.

    Damping increases on rejected steps (which also covers near-singular
    normal matrices) and relaxes on accepted ones.  Never raises on
    non-convergence: the best iterate comes back with converged=False.

    converged=False means the residual norm stayed above opts.tol when
    the iteration stopped, for one of three reasons: no damping lowered
    the cost, the accepted step fell below 1e-12, or max_iter ran out.
    The first two mean the iterate sits at a local minimum with a nonzero
    residual, where the measured ACF has no exact solution near the seed;
    the taps are then a local least-squares fit, not a root.
    """
    m = prob.max_delay
    x = _initial_guess(prob)
    lam = _DAMPING0
    r = build_residuals(x[:m], x[m], prob)
    cost = float(r @ r)
    n_iter = 0
    for n_iter in range(1, opts.max_iter + 1):
        if np.sqrt(cost) <= opts.tol:
            break
        jac = residual_jacobian(x[:m], x[m], prob)
        grad = jac.T @ r
        hess = jac.T @ jac
        scale = np.diag(np.maximum(np.diag(hess), 1e-12))
        step = None
        for _ in range(64):
            try:
                step = np.linalg.solve(hess + lam * scale, -grad)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            x_new = x + step
            r_new = build_residuals(x_new[:m], x_new[m], prob)
            cost_new = float(r_new @ r_new)
            if cost_new < cost:
                x, r, cost = x_new, r_new, cost_new
                lam = max(lam / 3.0, 1e-14)
                break
            lam *= 10.0
        else:
            break  # no acceptable step at any damping: stuck
        if step is not None and float(np.linalg.norm(step)) <= _STEP_TOL:
            break
    residual_norm = float(np.sqrt(cost))
    return EstimationResult(
        alpha_hat=x[:m],
        noise_var_hat=float(x[m]),
        residual_norm=residual_norm,
        iterations=n_iter,
        converged=bool(residual_norm <= opts.tol),
    )
