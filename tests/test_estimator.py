"""Tap-recovery system: residuals, Jacobian, solver."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csfchan import (
    AcfEstimate,
    ChannelModel,
    CsfParams,
    EstimationResult,
    IdentificationProblem,
    SolverOptions,
    apply_multipath,
    authoritative_acf_table,
    build_residuals,
    empirical_acf,
    encode_waveform,
    predicted_rx_acf,
    random_symbols,
    residual_jacobian,
    sample_random_channel,
    solve_channel,
)

PARAMS = CsfParams()
M = 10

FIG2_CHANNEL = ChannelModel(
    paths=((0, 1.0), (2, math.exp(-1.2)), (7, math.exp(-4.2))),
    max_delay=M,
)


def exact_problem(ch: ChannelModel, noise_var: float) -> IdentificationProblem:
    return IdentificationProblem(
        r_rr=predicted_rx_acf(ch, noise_var, PARAMS, max_lag=ch.max_delay),
        r_xx=authoritative_acf_table(PARAMS, max_lag=2 * ch.max_delay),
        max_delay=ch.max_delay,
    )


def brute_force_residuals(alpha, noise_var, prob) -> np.ndarray:
    """Independent oracle: raw double loop over the tap double sum."""
    m = prob.max_delay
    a = np.concatenate(([1.0], alpha))
    out = np.empty(m + 1)
    for k in range(m + 1):
        total = 0.0
        for i in range(m + 1):
            for j in range(m + 1):
                total += a[i] * a[j] * prob.r_xx[abs(k - i + j)]
        out[k] = total - prob.r_rr.values[k]
    out[0] += noise_var
    return out


def loop_residuals(alpha, noise_var, prob) -> np.ndarray:
    """build_residuals as a loop over the tap correlation, one lag-weight
    row per pass: the oracle of the summed matrix form, bit for bit."""
    m = prob.max_delay
    a = np.concatenate(([1.0], alpha))
    c = np.array([np.dot(a[: m + 1 - d], a[d:]) for d in range(m + 1)])
    rxx = prob.r_xx
    k = np.arange(m + 1)
    model = c[0] * rxx[k]
    for d in range(1, m + 1):
        model += c[d] * (rxx[np.abs(k - d)] + rxx[k + d])
    model[0] += noise_var
    return model - prob.r_rr.values


def loop_jacobian(alpha, noise_var, prob) -> np.ndarray:
    """residual_jacobian with T as one np.dot per offset and an element
    loop for the fill: the oracle of the indexed form, bit for bit."""
    m = prob.max_delay
    a = np.concatenate(([1.0], alpha))
    offsets = np.arange(m + 1)
    T = np.array([np.dot(a, prob.r_xx[np.abs(u + offsets)]) for u in range(-2 * m, m + 1)])
    jac = np.zeros((m + 1, m + 1))
    for k in range(m + 1):
        for j in range(1, m + 1):
            jac[k, j - 1] = T[k - j + 2 * m] + T[2 * m - k - j]
    jac[0, m] = 1.0
    return jac


class TestProblemInvariants:
    def test_short_rxx_rejected(self):
        est = predicted_rx_acf(FIG2_CHANNEL, 0.0, PARAMS, max_lag=M)
        with pytest.raises(ValueError):
            IdentificationProblem(r_rr=est, r_xx=np.ones(M + 1), max_delay=M)

    def test_wrong_rr_span_rejected(self):
        est = predicted_rx_acf(FIG2_CHANNEL, 0.0, PARAMS, max_lag=5)
        with pytest.raises(ValueError):
            IdentificationProblem(r_rr=est, r_xx=np.ones(2 * M + 1), max_delay=M)


class TestBuildResiduals:
    def test_zero_at_ground_truth(self):
        for seed in range(10):
            ch = sample_random_channel(max_delay=M, path_count=6, seed=seed)
            nv = 0.05 * seed
            prob = exact_problem(ch, nv)
            res = build_residuals(ch.tap_vector(), nv, prob)
            assert float(np.max(np.abs(res))) <= 1e-12

    def test_identity_channel_zero_alpha(self):
        ch = ChannelModel(paths=((0, 1.0),), max_delay=M)
        prob = exact_problem(ch, 0.0)
        res = build_residuals(np.zeros(M), 0.0, prob)
        assert float(np.max(np.abs(res))) <= 1e-14

    def test_matches_brute_force(self):
        rng = np.random.default_rng(17)
        prob = exact_problem(FIG2_CHANNEL, 0.2)
        for _ in range(20):
            alpha = rng.uniform(-0.5, 1.0, size=M)
            nv = float(rng.uniform(0, 1))
            np.testing.assert_allclose(
                build_residuals(alpha, nv, prob),
                brute_force_residuals(alpha, nv, prob),
                atol=1e-12,
            )

    def test_small_perturbation_small_change(self):
        prob = exact_problem(FIG2_CHANNEL, 0.1)
        alpha = FIG2_CHANNEL.tap_vector()
        base = build_residuals(alpha, 0.1, prob)
        for delta in (1e-3, 1e-5):
            bumped = alpha.copy()
            bumped[3] += delta
            diff = np.linalg.norm(build_residuals(bumped, 0.1, prob) - base)
            assert diff <= 10.0 * delta  # local Lipschitz bound for these taps

    def test_wrong_alpha_shape_rejected(self):
        prob = exact_problem(FIG2_CHANNEL, 0.0)
        with pytest.raises(ValueError):
            build_residuals(np.zeros(M - 1), 0.0, prob)


class TestLoopOracles:
    @settings(max_examples=300, deadline=None)
    @given(
        m=st.integers(min_value=1, max_value=12),
        decay=st.floats(min_value=0.05, max_value=2.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_bit_identical_to_loops(self, m, decay, seed):
        rng = np.random.default_rng(seed)
        lags = np.arange(2 * m + 1)
        r_xx = rng.uniform(0.1, 2.0) * np.exp(-decay * lags) * rng.uniform(-1.0, 1.0, size=lags.size)
        r_xx[0] = abs(r_xx[0]) + 0.1
        r_rr = AcfEstimate(lags=np.arange(m + 1), values=rng.normal(size=m + 1))
        prob = IdentificationProblem(r_rr=r_rr, r_xx=r_xx, max_delay=m)
        alpha = rng.uniform(-1.0, 1.0, size=m)
        noise_var = float(rng.uniform(0.0, 2.0))
        np.testing.assert_array_equal(
            build_residuals(alpha, noise_var, prob), loop_residuals(alpha, noise_var, prob)
        )
        np.testing.assert_array_equal(
            residual_jacobian(alpha, noise_var, prob), loop_jacobian(alpha, noise_var, prob)
        )


class TestResidualJacobian:
    def test_noise_column_is_unit_lag0(self):
        prob = exact_problem(FIG2_CHANNEL, 0.1)
        jac = residual_jacobian(FIG2_CHANNEL.tap_vector(), 0.1, prob)
        np.testing.assert_array_equal(jac[:, M], np.eye(M + 1)[:, 0])

    def test_matches_central_differences(self):
        # the residuals are quadratic in the taps, so central differences
        # are exact up to roundoff; 1e-6 relative is loose
        rng = np.random.default_rng(3)
        prob = exact_problem(FIG2_CHANNEL, 0.3)
        step = 1e-6
        for _ in range(100):
            x = np.concatenate([rng.uniform(-0.5, 1.0, size=M), rng.uniform(0, 1, size=1)])
            jac = residual_jacobian(x[:M], x[M], prob)
            fd = np.empty_like(jac)
            for j in range(M + 1):
                hi, lo = x.copy(), x.copy()
                hi[j] += step
                lo[j] -= step
                fd[:, j] = (
                    build_residuals(hi[:M], hi[M], prob) - build_residuals(lo[:M], lo[M], prob)
                ) / (2 * step)
            err = np.abs(jac - fd) / np.maximum.reduce([np.abs(jac), np.abs(fd), np.ones_like(fd)])
            assert float(np.max(err)) <= 1e-6

    def test_zero_alpha_diagonal(self):
        prob = exact_problem(FIG2_CHANNEL, 0.0)
        jac = residual_jacobian(np.zeros(M), 0.0, prob)
        rxx = prob.r_xx
        for k in range(1, M + 1):
            assert jac[k, k - 1] == pytest.approx(rxx[0] + rxx[2 * k], rel=1e-12)


class TestSolveChannel:
    def test_fig2_exact_inversion(self):
        prob = exact_problem(FIG2_CHANNEL, 0.1)
        result = solve_channel(prob, SolverOptions(tol=1e-12))
        assert result.converged
        assert result.alpha_hat[1] == pytest.approx(math.exp(-1.2), abs=1e-9)
        assert result.alpha_hat[6] == pytest.approx(math.exp(-4.2), abs=1e-9)
        absent = np.delete(result.alpha_hat, [1, 6])
        assert float(np.max(np.abs(absent))) <= 1e-9
        assert result.noise_var_hat == pytest.approx(0.1, abs=1e-9)

    def test_roundtrip_random_suite(self):
        rng = np.random.default_rng(99)
        for trial in range(30):
            n_paths = int(rng.integers(2, 7))
            ch = sample_random_channel(max_delay=M, path_count=n_paths, seed=trial)
            nv = float(rng.uniform(0.0, 0.5))
            result = solve_channel(exact_problem(ch, nv), SolverOptions(tol=1e-12))
            assert result.converged, trial
            assert result.residual_norm <= 1e-10
            assert float(np.max(np.abs(result.alpha_hat - ch.tap_vector()))) <= 1e-6
            assert abs(result.noise_var_hat - nv) <= 1e-6

    def test_single_path_closed_form(self):
        ch = ChannelModel(paths=((0, 1.0),), max_delay=M)
        nv = 0.25
        prob = exact_problem(ch, nv)
        result = solve_channel(prob, SolverOptions(tol=1e-12))
        assert float(np.max(np.abs(result.alpha_hat))) <= 1e-9
        expected_nv = prob.r_rr.values[0] - prob.r_xx[0]
        assert result.noise_var_hat == pytest.approx(expected_nv, abs=1e-9)

    def test_noise_perturbation_moves_only_noise_estimate(self):
        prob = exact_problem(FIG2_CHANNEL, 0.1)
        bumped_rr = prob.r_rr.values.copy()
        bumped_rr[0] += 0.05
        from csfchan import AcfEstimate

        prob2 = IdentificationProblem(
            r_rr=AcfEstimate(lags=prob.r_rr.lags, values=bumped_rr),
            r_xx=prob.r_xx,
            max_delay=M,
        )
        a = solve_channel(prob, SolverOptions(tol=1e-12))
        b = solve_channel(prob2, SolverOptions(tol=1e-12))
        assert float(np.max(np.abs(a.alpha_hat - b.alpha_hat))) <= 1e-8
        assert b.noise_var_hat - a.noise_var_hat == pytest.approx(0.05, abs=1e-8)

    def test_nonconvergence_flagged_not_raised(self):
        bad = predicted_rx_acf(FIG2_CHANNEL, 0.0, PARAMS, max_lag=M)
        from csfchan import AcfEstimate

        prob = IdentificationProblem(
            r_rr=AcfEstimate(lags=bad.lags, values=bad.values + 0.5),
            r_xx=authoritative_acf_table(PARAMS, max_lag=2 * M),
            max_delay=M,
        )
        result = solve_channel(prob, SolverOptions(tol=1e-12, max_iter=3))
        assert isinstance(result, EstimationResult)
        assert not result.converged

    def test_deterministic(self):
        prob = exact_problem(FIG2_CHANNEL, 0.1)
        a = solve_channel(prob)
        b = solve_channel(prob)
        np.testing.assert_array_equal(a.alpha_hat, b.alpha_hat)
        assert (a.noise_var_hat, a.residual_norm, a.iterations, a.converged) == (
            b.noise_var_hat,
            b.residual_norm,
            b.iterations,
            b.converged,
        )

    def test_empirical_roundtrip_noiseless(self):
        n_sym = 2**15
        ch = sample_random_channel(max_delay=M, path_count=6, seed=12)
        stream = random_symbols(n_sym, seed=34)
        received = apply_multipath(encode_waveform(stream, PARAMS), ch)
        table = authoritative_acf_table(PARAMS, max_lag=2 * M)
        prob = IdentificationProblem(
            r_rr=empirical_acf(received, M), r_xx=table, max_delay=M
        )
        result = solve_channel(prob, SolverOptions(tol=1e-6 * table[0]))
        assert float(np.max(np.abs(result.alpha_hat - ch.tap_vector()))) <= 0.05
