"""Tap-recovery system: residuals, Jacobian, solver."""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import csfchan.estimator
import csfchan.experiments

from csfchan import (
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
    solve_channels,
)
from csfchan.acf import _lag_weights
from csfchan.estimator import _DAMPING0, _STEP_TOL, _jacobian, _model_residuals, _shifted_acf
from csfchan.experiments import _blind_taps, _snr_trial, _trial_channel, resolve_config

REPO = Path(__file__).resolve().parents[1]

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
        out[k] = total - prob.r_rr[k]
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
    return model - prob.r_rr


def loop_jacobian(alpha, prob) -> np.ndarray:
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


def exact_residuals(alpha, noise_var, prob) -> tuple[np.ndarray, np.ndarray]:
    """build_residuals as math.fsum over the terms of the quadratic
    expansion, sum_(i,j) a_i a_j r_xx[|k - i + j|] + noise_var [k = 0] -
    r_rr[k], and the sum of the terms' magnitudes, per lag k."""
    m = prob.max_delay
    a = np.concatenate(([1.0], alpha))
    sums, sizes = np.empty(m + 1), np.empty(m + 1)
    for k in range(m + 1):
        terms = [a[i] * a[j] * prob.r_xx[abs(k - i + j)] for i in range(m + 1) for j in range(m + 1)]
        terms += [noise_var if k == 0 else 0.0, -prob.r_rr[k]]
        sums[k], sizes[k] = math.fsum(terms), math.fsum(map(abs, terms))
    return sums, sizes


def exact_jacobian(alpha, prob) -> tuple[np.ndarray, np.ndarray]:
    """residual_jacobian as math.fsum over the terms of each partial in a_j,
    sum_b a_b (r_xx[|k - j + b|] + r_xx[|k + j - b|]), then the unit noise
    column, and the sum of the terms' magnitudes, per entry."""
    m = prob.max_delay
    a = np.concatenate(([1.0], alpha))
    sums, sizes = np.zeros((m + 1, m + 1)), np.zeros((m + 1, m + 1))
    for k in range(m + 1):
        for j in range(1, m + 1):
            terms = [a[b] * prob.r_xx[abs(k - j + b)] for b in range(m + 1)]
            terms += [a[b] * prob.r_xx[abs(k + j - b)] for b in range(m + 1)]
            sums[k, j - 1], sizes[k, j - 1] = math.fsum(terms), math.fsum(map(abs, terms))
    sums[0, m] = sizes[0, m] = 1.0
    return sums, sizes


def loop_seed(prob) -> np.ndarray:
    """The linearised seed (alpha, noise_var) of one problem."""
    rxx0 = prob.r_xx[0]
    alpha0 = np.maximum(0.0, prob.r_rr[1:] / rxx0)
    nv0 = max(0.0, prob.r_rr[0] - rxx0 * (1.0 + float(np.sum(alpha0**2))))
    return np.concatenate([alpha0, [nv0]])


def loop_solve(prob, opts) -> EstimationResult:
    """Levenberg-Marquardt as a scalar loop over one problem: the oracle
    of the batched solve_channels, bit for bit."""
    m = prob.max_delay
    x = loop_seed(prob)
    lam = _DAMPING0
    r = build_residuals(x[:m], x[m], prob)
    cost = float(r @ r)
    n_iter = 0
    for n_iter in range(1, opts.max_iter + 1):
        if np.sqrt(cost) <= opts.tol:
            break
        jac = residual_jacobian(x[:m], prob)
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


def assert_same_result(got: EstimationResult, expected: EstimationResult) -> None:
    np.testing.assert_array_equal(got.alpha_hat, expected.alpha_hat)
    assert (got.noise_var_hat, got.residual_norm, got.iterations, got.converged) == (
        expected.noise_var_hat,
        expected.residual_norm,
        expected.iterations,
        expected.converged,
    )


def solve_batch(problems, opts) -> list[EstimationResult]:
    """solve_channels of the problems' rows against their shared table,
    one result per row."""
    batch = solve_channels(problems[0].r_xx, np.stack([prob.r_rr for prob in problems]), opts)
    return [
        EstimationResult(*(getattr(batch, field.name)[i] for field in dataclasses.fields(batch)))
        for i in range(len(problems))
    ]


class TestProblemInvariants:
    @pytest.mark.parametrize("m", [0, 5, M])
    def test_max_delay_is_read_off_r_rr(self, m):
        est = predicted_rx_acf(FIG2_CHANNEL, 0.0, PARAMS, max_lag=m)
        prob = IdentificationProblem(r_rr=est, r_xx=np.ones(2 * M + 1))
        assert prob.max_delay == len(est) - 1 == m
        assert [field.name for field in dataclasses.fields(prob)] == ["r_rr", "r_xx"]


class TestSolverOptions:
    @pytest.mark.parametrize("tol", [0, 0.0, 1e-12, np.float64(1e-6), 5])
    def test_tol_taken_as_given(self, tol):
        assert SolverOptions(tol=tol).tol == tol

    def test_zero_tol_converges_an_exact_solve(self):
        prob = exact_problem(ChannelModel(paths=((0, 1.0),), max_delay=M), 0.0)
        assert solve_channel(prob, SolverOptions(tol=0.0)).converged


class TestBuildResiduals:
    def test_zero_at_ground_truth(self):
        for seed in range(10):
            ch = sample_random_channel(max_delay=M, path_count=6, seed=seed)
            nv = 0.05 * seed
            prob = exact_problem(ch, nv)
            res = build_residuals(ch.taps[1:], nv, prob)
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
        alpha = FIG2_CHANNEL.taps[1:]
        base = build_residuals(alpha, 0.1, prob)
        for delta in (1e-3, 1e-5):
            bumped = alpha.copy()
            bumped[3] += delta
            diff = np.linalg.norm(build_residuals(bumped, 0.1, prob) - base)
            assert diff <= 10.0 * delta  # local Lipschitz bound for these taps


def random_case(m, decay, seed):
    """A problem with a decaying random r_xx, and taps and a noise variance
    to evaluate it at."""
    rng = np.random.default_rng(seed)
    lags = np.arange(2 * m + 1)
    r_xx = rng.uniform(0.1, 2.0) * np.exp(-decay * lags) * rng.uniform(-1.0, 1.0, size=lags.size)
    r_xx[0] = abs(r_xx[0]) + 0.1
    r_rr = rng.normal(size=m + 1)
    prob = IdentificationProblem(r_rr=r_rr, r_xx=r_xx)
    return prob, rng.uniform(-1.0, 1.0, size=m), float(rng.uniform(0.0, 2.0))


class TestLoopOracles:
    @settings(max_examples=300, deadline=None)
    @given(
        m=st.integers(min_value=1, max_value=12),
        decay=st.floats(min_value=0.05, max_value=2.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_bit_identical_to_loops(self, m, decay, seed):
        prob, alpha, noise_var = random_case(m, decay, seed)
        r_rr = prob.r_rr
        np.testing.assert_array_equal(
            build_residuals(alpha, noise_var, prob), loop_residuals(alpha, noise_var, prob)
        )
        np.testing.assert_array_equal(residual_jacobian(alpha, prob), loop_jacobian(alpha, prob))
        # the batched forms the solver iterates with, row by row
        alphas = np.stack([alpha, -alpha, 0.5 * alpha])
        noise_vars = np.array([noise_var, 0.0, 2.0 * noise_var])
        measured = np.stack([r_rr] * 3)
        residuals = _model_residuals(alphas, noise_vars, _lag_weights(prob.r_xx, m + 1, m + 1, 1), measured)
        jacobians = _jacobian(alphas, _shifted_acf(prob.r_xx, m))
        for row, (a, nv) in enumerate(zip(alphas, noise_vars)):
            np.testing.assert_array_equal(residuals[row], loop_residuals(a, nv, prob))
            np.testing.assert_array_equal(jacobians[row], loop_jacobian(a, prob))

    @settings(max_examples=100, deadline=None)
    @given(
        m=st.integers(min_value=1, max_value=12),
        decay=st.floats(min_value=0.05, max_value=2.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_match_the_exact_sums(self, m, decay, seed):
        # every term is a product of inputs; a residual's terms pass at most
        # 2m + 5 roundings (m + 1 in the tap correlation's dot, two in its
        # lag weight and product, m in the sum over correlations, two for
        # the noise and the measurement) and the oracle's 2 per product and
        # 1 in fsum, so |error| <= (2m + 8) u sum|terms| = (m + 4) eps
        # sum|terms|; a partial's terms pass m + 2 (one dot, one sum) and the
        # oracle's 2, (m + 4) eps / 2 sum|terms|
        prob, alpha, noise_var = random_case(m, decay, seed)
        eps = np.finfo(float).eps
        alphas = np.stack([alpha, -alpha, 0.5 * alpha])
        noise_vars = np.array([noise_var, 0.0, 2.0 * noise_var])
        measured = np.stack([prob.r_rr] * 3)
        residuals = _model_residuals(alphas, noise_vars, _lag_weights(prob.r_xx, m + 1, m + 1, 1), measured)
        jacobians = _jacobian(alphas, _shifted_acf(prob.r_xx, m))
        cases = [(build_residuals(alpha, noise_var, prob), residual_jacobian(alpha, prob), alpha, noise_var)]
        cases += zip(residuals, jacobians, alphas, noise_vars)
        for res, jac, a, nv in cases:
            exact, sizes = exact_residuals(a, nv, prob)
            assert np.all(np.abs(res - exact) <= (m + 4) * eps * sizes)
            exact, sizes = exact_jacobian(a, prob)
            assert np.all(np.abs(jac - exact) <= (m + 4) * eps / 2 * sizes)


class TestResidualJacobian:
    def test_noise_column_is_unit_lag0(self):
        prob = exact_problem(FIG2_CHANNEL, 0.1)
        jac = residual_jacobian(FIG2_CHANNEL.taps[1:], prob)
        np.testing.assert_array_equal(jac[:, M], np.eye(M + 1)[:, 0])

    def test_matches_central_differences(self):
        # the residuals are quadratic in the taps, so central differences
        # are exact up to roundoff; 1e-6 relative is loose
        rng = np.random.default_rng(3)
        prob = exact_problem(FIG2_CHANNEL, 0.3)
        step = 1e-6
        for _ in range(100):
            x = np.concatenate([rng.uniform(-0.5, 1.0, size=M), rng.uniform(0, 1, size=1)])
            jac = residual_jacobian(x[:M], prob)
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
        jac = residual_jacobian(np.zeros(M), prob)
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
            assert float(np.max(np.abs(result.alpha_hat - ch.taps[1:]))) <= 1e-6
            assert abs(result.noise_var_hat - nv) <= 1e-6

    def test_single_path_closed_form(self):
        ch = ChannelModel(paths=((0, 1.0),), max_delay=M)
        nv = 0.25
        prob = exact_problem(ch, nv)
        result = solve_channel(prob, SolverOptions(tol=1e-12))
        assert float(np.max(np.abs(result.alpha_hat))) <= 1e-9
        expected_nv = prob.r_rr[0] - prob.r_xx[0]
        assert result.noise_var_hat == pytest.approx(expected_nv, abs=1e-9)

    def test_noise_perturbation_moves_only_noise_estimate(self):
        prob = exact_problem(FIG2_CHANNEL, 0.1)
        bumped_rr = prob.r_rr.copy()
        bumped_rr[0] += 0.05
        prob2 = IdentificationProblem(r_rr=bumped_rr, r_xx=prob.r_xx)
        a = solve_channel(prob, SolverOptions(tol=1e-12))
        b = solve_channel(prob2, SolverOptions(tol=1e-12))
        assert float(np.max(np.abs(a.alpha_hat - b.alpha_hat))) <= 1e-8
        assert b.noise_var_hat - a.noise_var_hat == pytest.approx(0.05, abs=1e-8)

    def test_nonconvergence_flagged_not_raised(self):
        bad = predicted_rx_acf(FIG2_CHANNEL, 0.0, PARAMS, max_lag=M)
        prob = IdentificationProblem(
            r_rr=bad + 0.5,
            r_xx=authoritative_acf_table(PARAMS, max_lag=2 * M),
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
        prob = IdentificationProblem(r_rr=empirical_acf(received, M), r_xx=table)
        result = solve_channel(prob, SolverOptions(tol=1e-6 * table[0]))
        assert float(np.max(np.abs(result.alpha_hat - ch.taps[1:]))) <= 0.05


@pytest.fixture(scope="module")
def reference_solves():
    """The blind problems of the reference sweep_snr config (seed 70, 100
    trials x 5 SNRs, trial-major) and the options the sweep solves them
    with, captured from the sweep's own solve_channels calls."""
    cfg = resolve_config(yaml.safe_load((REPO / "configs/snr_sweep_full.yaml").read_text()))
    cfg["sweep_snr"]["methods"] = ["blind_acf"]
    calls = []

    def recording(r_xx, measured, opts):
        calls.append(([IdentificationProblem(r_rr=row, r_xx=r_xx) for row in measured], opts))
        return solve_channels(r_xx, measured, opts)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(csfchan.experiments, "solve_channels", recording)
        params = CsfParams(**cfg["csf"])
        channels = [_trial_channel(cfg, "sweep_snr", trial) for trial in range(cfg["trials"])]
        acfs = np.array([_snr_trial((cfg, params, trial, ch))[0] for trial, ch in enumerate(channels)])
        _blind_taps(params, acfs)
    assert len({opts for _, opts in calls}) == 1
    return [prob for problems, _ in calls for prob in problems], calls[0][1]


# positions of the 6 stalled reference solves: trial 11 at every SNR,
# trial 21 at 0 dB (see test_experiments.TestReferenceNonConvergence)
STALLS = [55, 56, 57, 58, 59, 105]


def singular_first_steps(prob, lam_below):
    """np.linalg.solve, except that the damped matrix of prob's first
    iteration is singular while its damping lam is below lam_below: in
    the loop and for each member of a stacked solve alike.  The first
    iteration's right side -grad identifies the member, and the damped
    matrix holds 1 + lam on its noise diagonal, because the noise column
    of the Jacobian is the unit vector at lag 0."""
    m = prob.max_delay
    x = loop_seed(prob)
    jac = residual_jacobian(x[:m], prob)
    poisoned = (-(jac.T @ build_residuals(x[:m], x[m], prob))).tobytes()
    solve = np.linalg.solve

    def patched(a, b):
        matrices = np.reshape(a, (-1, m + 1, m + 1))
        for matrix, rhs in zip(matrices, np.reshape(b, (len(matrices), m + 1))):
            if rhs.tobytes() == poisoned and matrix[m, m] < 1.0 + lam_below:
                raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b)

    return patched


class TestSolveChannels:
    """solve_channels against the scalar loop, all five result fields
    array_equal: batches around the sweeps' block of 128, mixing members
    that converge, stall ("stuck" and "step"), run out of max_iter and
    meet a singular damped matrix."""

    @settings(max_examples=20, deadline=None)
    @given(
        size=st.sampled_from([1, 127, 128, 129]),
        max_iter=st.sampled_from([100, 26, 6]),
        singular_below=st.sampled_from([0.05, math.inf]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_matches_scalar_loop(self, reference_solves, size, max_iter, singular_below, seed):
        problems, opts = reference_solves
        opts = dataclasses.replace(opts, max_iter=max_iter)
        rng = np.random.default_rng(seed)
        picks = rng.choice(np.setdiff1d(np.arange(len(problems)), STALLS), size, replace=False)
        if size > len(STALLS):
            picks[rng.choice(size, len(STALLS), replace=False)] = STALLS
        batch = [problems[i] for i in picks]
        # one member singular at lam = 1e-3 and 1e-2 and then solved, or at
        # all 64 tries of its first iteration, where it ends stuck
        member = batch[rng.choice(np.flatnonzero(~np.isin(picks, STALLS)))]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(np.linalg, "solve", singular_first_steps(member, singular_below))
            expected = [loop_solve(prob, opts) for prob in batch]
            got = solve_batch(batch, opts)
        assert len(got) == size
        for g, e in zip(got, expected):
            assert_same_result(g, e)
        if size > len(STALLS) and max_iter == 26:
            # converged, stalled short of max_iter, and out of iterations
            kinds = {(e.converged, e.iterations == max_iter) for e in expected}
            assert {(True, False), (False, False), (False, True)} <= kinds

    def test_reference_problems_match_scalar_loop(self, reference_solves):
        problems, opts = reference_solves
        assert len(problems) == 500
        expected = [loop_solve(prob, opts) for prob in problems]
        assert [i for i, e in enumerate(expected) if not e.converged] == STALLS
        for g, e in zip(solve_batch(problems, opts), expected):
            assert_same_result(g, e)

    def test_stacked_solves_hold_at_most_one_block(self, reference_solves, monkeypatch):
        # the 500 reference rows iterate in blocks of 128: the stacked
        # Jacobian of an iteration never holds more rows than a block
        problems, opts = reference_solves
        sizes = []

        def recording(alpha, shifted):
            sizes.append(alpha.shape[0])
            return _jacobian(alpha, shifted)

        monkeypatch.setattr(csfchan.estimator, "_jacobian", recording)
        solve_batch(problems, opts)
        assert max(sizes) == 128

    def test_empty_batch(self):
        prob = exact_problem(FIG2_CHANNEL, 0.1)
        empty = solve_channels(prob.r_xx, np.empty((0, M + 1)))
        assert empty.alpha_hat.shape == (0, M)
        for field in (empty.noise_var_hat, empty.residual_norm, empty.iterations, empty.converged):
            assert field.shape == (0,)
