"""Empirical ACF estimation and receive-side ACF prediction tests."""

import ctypes
import math
import os
import subprocess
import sys
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import csfchan
from csfchan import (
    ChannelModel,
    CsfParams,
    IdentificationProblem,
    Waveform,
    apply_multipath,
    authoritative_acf_table,
    empirical_acf,
    empirical_acf_trace,
    encode_waveform,
    predicted_rx_acf,
    predicted_rx_acf_trace,
    pulse_acf,
    random_symbols,
    sample_random_channel,
    theoretical_acf,
)
from csfchan.acf import _lagged_products
from csfchan.experiments import interior_peak_lags

PARAMS = CsfParams()

FIG2_CHANNEL = ChannelModel(
    paths=((0, 1.0), (2, math.exp(-1.2)), (7, math.exp(-4.2))),
    max_delay=10,
)


def sampling_noise_std(ch: ChannelModel, n_symbols: int, lag: int, max_lag: int) -> float:
    """Std of the empirical received-ACF estimate at one integer lag.

    The dominant error term is the empirical symbol autocorrelation at
    shift d (std 1/sqrt(n_symbols)) leaking through the noiseless ACF
    shape G: e(k) = sum_{d != 0} rho_hat(d) G(|k-d|).
    """
    reach = 3 * max_lag
    g = predicted_rx_acf(ch, 0.0, PARAMS, max_lag=reach)
    total = 0.0
    for d in range(-reach, reach + 1):
        if d == 0:
            continue
        u = abs(lag - d)
        if u <= reach:
            total += g[u] ** 2
    return math.sqrt(total / n_symbols)


def edge_bias(ch: ChannelModel, n_symbols: int, value: float) -> float:
    """Bias of the fixed-divisor estimate from the tail/delay padding."""
    extra = PARAMS.pulse_tail + int(ch.delays[-1])
    return abs(value) * extra / (n_symbols + extra)


class TestMeasuredAcfInvariants:
    def test_values_must_be_finite(self):
        with pytest.raises(ValueError):
            IdentificationProblem(r_rr=np.array([1.0, np.inf]), r_xx=np.ones(3), max_delay=1)


class TestEmpiricalAcf:
    def test_zero_waveform(self):
        est = empirical_acf(Waveform(np.zeros(16 * 20), 16), 10)
        assert np.all(est == 0.0)

    def test_quadratic_scaling(self):
        wave = encode_waveform(random_symbols(128, seed=3), PARAMS)
        scaled = Waveform(2.5 * wave.samples, wave.samples_per_symbol)
        a = empirical_acf(wave, 10)
        b = empirical_acf(scaled, 10)
        np.testing.assert_allclose(b, 2.5**2 * a, rtol=1e-12)

    def test_insufficient_samples_rejected(self):
        with pytest.raises(ValueError):
            empirical_acf(Waveform(np.ones(16 * 11), 16), 10)

    def test_negative_max_lag_rejected(self):
        wave = Waveform(np.ones(16 * 20), 16)
        for acf in (empirical_acf, empirical_acf_trace):
            with pytest.raises(ValueError, match="max_lag must be nonnegative"):
                acf(wave, -1)

    @pytest.mark.parametrize("bad", [2.5, 2.0, True])
    def test_non_integer_max_lag_rejected(self, bad):
        wave = Waveform(np.ones(16 * 20), 16)
        for acf in (empirical_acf, empirical_acf_trace):
            with pytest.raises(ValueError, match="max_lag must be an integer"):
                acf(wave, bad)

    def test_single_path_matches_closed_form(self):
        # statistical agreement: the per-lag estimate fluctuates with std
        # about R(0)/sqrt(n_symbols), checked here at five sigma
        n_sym = 2**12
        wave = encode_waveform(random_symbols(n_sym, seed=21), PARAMS)
        est = empirical_acf(wave, 10)
        ref = theoretical_acf(np.arange(11.0), PARAMS)
        bound = 5.0 * ref[0] / math.sqrt(n_sym) + edge_bias(
            ChannelModel(paths=((0, 1.0),), max_delay=10), n_sym, ref[0]
        )
        assert float(np.max(np.abs(est - ref))) <= bound

    def test_trace_agrees_at_integer_lags(self):
        wave = encode_waveform(random_symbols(256, seed=14), PARAMS)
        grid, trace = empirical_acf_trace(wave, 5)
        est = empirical_acf(wave, 5)
        ns = wave.samples_per_symbol
        np.testing.assert_array_equal(trace[::ns], est)
        assert grid[ns] == 1.0

    @settings(max_examples=60, deadline=None)
    @given(
        ns=st.sampled_from([1, 8, 16, 32]),
        max_lag=st.integers(min_value=0, max_value=12),
        extra=st.integers(min_value=1, max_value=3000),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_one_reduction_for_both_grids(self, ns, max_lag, extra, seed):
        # the integer-lag ACF is the trace at multiples of Ns, bit for bit,
        # and both keep the per-lag dot product they were written with
        x = np.random.default_rng(seed).normal(size=(max_lag + 1) * ns + extra)
        wave = Waveform(x, ns)
        grid, trace = empirical_acf_trace(wave, max_lag)
        values = empirical_acf(wave, max_lag)
        np.testing.assert_array_equal(trace[::ns], values)
        n = len(x)
        np.testing.assert_array_equal(trace, [np.dot(x[j:], x[: n - j]) / n for j in range(max_lag * ns + 1)])
        np.testing.assert_array_equal(grid, np.arange(max_lag * ns + 1) / ns)

    @settings(max_examples=40, deadline=None)
    @given(
        ns=st.sampled_from([1, 8, 16]),
        max_lag=st.integers(min_value=0, max_value=10),
        n=st.integers(min_value=10001, max_value=200000),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_long_lags_sum_two_halves(self, ns, max_lag, n, seed):
        # a lag of more than 10000 products is the sum of the dot products
        # of its first ceil(m/2) products and of the rest, in that order
        x = np.random.default_rng(seed).normal(size=n)
        expected = []
        for j in range(max_lag * ns + 1):
            a, b = x[j:], x[: n - j]
            h = math.ceil(len(a) / 2)
            expected.append((np.dot(a[:h], b[:h]) + np.dot(a[h:], b[h:]) if len(a) > 10000 else np.dot(a, b)) / n)
        np.testing.assert_array_equal(empirical_acf_trace(Waveform(x, ns), max_lag)[1], expected)

    @pytest.mark.parametrize("n, halves", [(10000, False), (10001, True)])
    def test_split_starts_past_10000_products(self, n, halves):
        x = np.random.default_rng(n).normal(size=n)
        one = np.dot(x, x)
        two = np.dot(x[: (n + 1) // 2], x[: (n + 1) // 2]) + np.dot(x[(n + 1) // 2 :], x[(n + 1) // 2 :])
        assert one != two  # at these seeds the two orders round apart
        assert empirical_acf(Waveform(x, 1), 0)[0] == (two if halves else one) / n


class TestLaggedProducts:
    @settings(max_examples=200, deadline=None)
    @given(
        nx=st.integers(min_value=0, max_value=40),
        ny=st.integers(min_value=0, max_value=60),
        stride=st.integers(min_value=1, max_value=7),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_cross_products_over_the_overlap(self, nx, ny, stride, seed):
        # sum_n x[n] y[n + j] over 0 <= n < min(len(x), len(y) - j),
        # an empty sum (0) where the shift leaves no overlap
        rng = np.random.default_rng(seed)
        x, y = rng.normal(size=nx), rng.normal(size=ny)
        shifts = range(0, ny + 2 * stride, stride)
        expected = [math.fsum(x[n] * y[n + j] for n in range(max(0, min(nx, ny - j)))) for j in shifts]
        np.testing.assert_allclose(_lagged_products(x, y, shifts), expected, rtol=1e-12, atol=1e-12)


def _openblas_threads() -> int | None:
    """Thread count of numpy's bundled OpenBLAS in this process, None
    without one."""
    libs = Path(np.__file__).resolve().parents[1] / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so")):
        get = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_", None)
        if get is not None:
            get.restype = ctypes.c_int
            return get()
    return None


def test_import_pins_openblas_to_one_thread():
    threads = _openblas_threads()
    if threads is None:
        pytest.skip("numpy carries no bundled OpenBLAS")
    assert threads == 1
    with ProcessPoolExecutor(max_workers=1) as pool:  # as in a --threads run
        assert pool.submit(_openblas_threads).result(timeout=60) == 1


# minor page faults of three 65536-symbol frames (1.05M samples) after a
# first one has sized the heap
_FRAME_FAULTS = """
import resource
from csfchan import add_awgn, apply_multipath, encode_waveform, random_symbols, sample_random_channel

channel = sample_random_channel(max_delay=10, path_count=6, seed=0)


def frame(seed):
    add_awgn(apply_multipath(encode_waveform(random_symbols(65536, seed=seed)), channel), 10.0, seed)


frame(0)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for seed in (1, 2, 3):
    frame(seed)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def test_import_keeps_freed_frame_memory():
    # freed frame buffers stay in the heap for the next frame; returned to
    # the OS they would fault in again, some 30000 pages per three frames
    if getattr(ctypes.CDLL(None), "mallopt", None) is None:
        pytest.skip("libc has no mallopt")
    src = str(Path(csfchan.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    run = subprocess.run([sys.executable, "-c", _FRAME_FAULTS], env=env, capture_output=True, text=True, check=True)
    assert int(run.stdout) < 1000


def brute_force_rx_acf(ch: ChannelModel, noise_var: float, max_lag: int) -> np.ndarray:
    """Independent oracle: raw double sum over ordered path pairs."""
    lags = np.arange(-(max_lag + int(ch.delays[-1])), max_lag + int(ch.delays[-1]) + 1)
    rxx = {int(k): float(theoretical_acf(float(k), PARAMS)) for k in lags}
    out = np.zeros(max_lag + 1)
    for k in range(max_lag + 1):
        total = 0.0
        for di, ai in ch.paths:
            for dj, aj in ch.paths:
                total += ai * aj * rxx[k - di + dj]
        out[k] = total
    out[0] += noise_var
    return out


def loop_rx_acf(ch: ChannelModel, noise_var: float, params: CsfParams, max_lag: int) -> np.ndarray:
    """Oracle: predicted_rx_acf as a triple loop over paths, term by term."""
    table = authoritative_acf_table(params, max_lag=max_lag + int(ch.delays[-1]))

    def rxx(arg: int) -> float:
        return table[abs(arg)]

    alphas = ch.attenuations
    values = np.empty(max_lag + 1)
    for k in range(max_lag + 1):
        total = float(np.sum(alphas**2)) * rxx(k)
        for d, a in ch.paths[1:]:
            # main-path cross terms; the main tap is 1 by construction
            total += a * (rxx(k + d) + rxx(k - d))
        for i, (di, ai) in enumerate(ch.paths[1:], start=1):
            for j, (dj, aj) in enumerate(ch.paths[1:], start=1):
                if i != j:
                    total += ai * aj * rxx(k + di - dj)
        values[k] = total
    values[0] += noise_var
    return values


def loop_rx_acf_trace(ch: ChannelModel, noise_var: float, params: CsfParams, max_lag: int) -> np.ndarray:
    """Oracle: predicted_rx_acf_trace as a double loop over path pairs."""
    ns = params.oversampling
    grid = np.arange(max_lag * ns + 1) / ns
    full = pulse_acf(np.arange((max_lag + int(ch.delays[-1])) * ns + 1) / ns, params)
    out = np.zeros_like(grid)
    for di, ai in ch.paths:
        for dj, aj in ch.paths:
            out += ai * aj * full[np.rint(np.abs(grid - di + dj) * ns).astype(int)]
    out[0] += noise_var
    return out


# a random channel and a lag count below, at and above its max_delay
@st.composite
def channels(draw):
    path_count = draw(st.integers(min_value=1, max_value=11))
    max_delay = draw(st.integers(min_value=max(1, path_count - 1), max_value=12))
    low = draw(st.floats(min_value=0.05, max_value=2.0))
    ch = sample_random_channel(
        max_delay=max_delay,
        gamma_range=(low, low + draw(st.floats(min_value=0.0, max_value=1.0))),
        path_count=path_count,
        seed=draw(st.integers(min_value=0, max_value=2**32 - 1)),
    )
    return ch, max_delay + draw(st.integers(min_value=-max_delay, max_value=5))


NOISE_VARS = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=10.0))


class TestPredictionOracles:
    @settings(max_examples=150, deadline=None)
    @given(channel=channels(), noise_var=NOISE_VARS)
    def test_integer_lags_match_triple_loop(self, channel, noise_var):
        ch, max_lag = channel
        values = predicted_rx_acf(ch, noise_var, PARAMS, max_lag=max_lag)
        oracle = loop_rx_acf(ch, noise_var, PARAMS, max_lag)
        np.testing.assert_allclose(values, oracle, rtol=1e-12, atol=1e-14 * values[0])

    @settings(max_examples=40, deadline=None)
    @given(channel=channels(), noise_var=NOISE_VARS, ns=st.sampled_from([8, 16]))
    def test_trace_matches_double_loop(self, channel, noise_var, ns):
        ch, max_lag = channel
        params = CsfParams(oversampling=ns)
        grid, values = predicted_rx_acf_trace(ch, noise_var, params, max_lag=max_lag)
        np.testing.assert_array_equal(grid, np.arange(max_lag * ns + 1) / ns)
        oracle = loop_rx_acf_trace(ch, noise_var, params, max_lag)
        np.testing.assert_allclose(values, oracle, rtol=1e-12, atol=1e-14 * values[0])


class TestPredictedRxAcf:
    def test_single_path_reduces_to_pulse_acf(self):
        ch = ChannelModel(paths=((0, 1.0),), max_delay=10)
        pred = predicted_rx_acf(ch, 0.0, PARAMS, max_lag=10)
        np.testing.assert_allclose(pred, theoretical_acf(np.arange(11.0), PARAMS), rtol=1e-12)

    def test_matches_brute_force_double_sum(self):
        for seed in range(8):
            ch = sample_random_channel(max_delay=10, path_count=5, seed=seed)
            pred = predicted_rx_acf(ch, 0.3, PARAMS, max_lag=10)
            np.testing.assert_allclose(pred, brute_force_rx_acf(ch, 0.3, 10), rtol=1e-10)

    def test_noise_term_is_linear_and_lag0_only(self):
        base = predicted_rx_acf(FIG2_CHANNEL, 0.0, PARAMS, max_lag=10)
        for nv in (0.1, 0.7, 2.0):
            noisy = predicted_rx_acf(FIG2_CHANNEL, nv, PARAMS, max_lag=10)
            assert noisy[0] - base[0] == pytest.approx(nv, abs=1e-14)
            np.testing.assert_array_equal(noisy[1:], base[1:])

    @pytest.mark.parametrize("noise_var", [-0.1, math.nan, math.inf])
    def test_negative_noise_rejected(self, noise_var):
        # NaN passed a `< 0` guard and came back at lag 0, as did inf
        for predict in (predicted_rx_acf, predicted_rx_acf_trace):
            with pytest.raises(ValueError, match="noise variance must be finite and nonnegative"):
                predict(FIG2_CHANNEL, noise_var, PARAMS, max_lag=10)

    @staticmethod
    def refuse_work(monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("the transmit ACF was evaluated before max_lag was checked")

        monkeypatch.setattr(csfchan.acf, "authoritative_acf_table", unreachable)
        monkeypatch.setattr(csfchan.acf, "_trapezoid_pulse_acf", unreachable)

    def test_negative_max_lag_rejected(self, monkeypatch):
        self.refuse_work(monkeypatch)
        with pytest.raises(ValueError, match="max_lag must be nonnegative, got -1"):
            predicted_rx_acf(FIG2_CHANNEL, 0.0, PARAMS, max_lag=-1)

    def test_trace_negative_max_lag_rejected(self, monkeypatch):
        self.refuse_work(monkeypatch)
        with pytest.raises(ValueError, match="max_lag must be nonnegative, got -1"):
            predicted_rx_acf_trace(FIG2_CHANNEL, 0.0, PARAMS, max_lag=-1)

    @pytest.mark.parametrize("bad", [2.5, 2.0, True])
    def test_non_integer_max_lag_rejected(self, monkeypatch, bad):
        # int() would truncate 2.5 to lags 0..2
        self.refuse_work(monkeypatch)
        for predict in (predicted_rx_acf, predicted_rx_acf_trace):
            with pytest.raises(ValueError, match="max_lag must be an integer"):
                predict(FIG2_CHANNEL, 0.0, PARAMS, max_lag=bad)

    def test_numpy_integer_max_lag_accepted(self):
        np.testing.assert_array_equal(
            predicted_rx_acf(FIG2_CHANNEL, 0.0, PARAMS, max_lag=np.int64(10)),
            predicted_rx_acf(FIG2_CHANNEL, 0.0, PARAMS, max_lag=10),
        )

    def test_three_path_peak_lags(self):
        pred = predicted_rx_acf(FIG2_CHANNEL, 0.0, PARAMS, max_lag=10)
        assert interior_peak_lags(pred) == [2, 5, 7]

    def test_trace_hits_integer_values(self):
        grid, trace = predicted_rx_acf_trace(FIG2_CHANNEL, 0.25, PARAMS, max_lag=10)
        pred = predicted_rx_acf(FIG2_CHANNEL, 0.25, PARAMS, max_lag=10)
        ns = PARAMS.oversampling
        np.testing.assert_allclose(trace[::ns], pred, atol=1e-8)
        assert grid[-1] == 10.0

    def test_trace_cost_is_independent_of_beta(self, monkeypatch):
        # at beta = 1e-6 the pulse tail is 13.8M symbol periods, which the
        # sampled integral (pulse_acf) would hold at 256 points each
        def unreachable(*args, **kwargs):
            raise AssertionError("pulse_acf ran")

        monkeypatch.setattr(csfchan.waveform, "pulse_acf", unreachable)
        params = CsfParams(beta=1e-6)
        tracemalloc.start()
        try:
            grid, trace = predicted_rx_acf_trace(FIG2_CHANNEL, 0.0, params, max_lag=10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(trace))
        pred = predicted_rx_acf(FIG2_CHANNEL, 0.0, params, max_lag=10)
        np.testing.assert_allclose(trace[:: params.oversampling], pred, rtol=0, atol=1e-10)
        assert peak < 1 << 20


class TestSimulationConsistency:
    def test_received_acf_converges_to_prediction(self):
        # theorem-level check: measured ACF of a simulated noiseless frame
        # approaches the prediction; tolerance is a five-sigma sampling
        # bound computed per channel plus the finite-frame edge bias
        n_sym = 2**14
        for seed in (0, 1, 2):
            ch = sample_random_channel(max_delay=10, path_count=6, seed=seed)
            stream = random_symbols(n_sym, seed=1000 + seed)
            received = apply_multipath(encode_waveform(stream, PARAMS), ch)
            est = empirical_acf(received, 10)
            pred = predicted_rx_acf(ch, 0.0, PARAMS, max_lag=10)
            for k in range(11):
                bound = 5.0 * sampling_noise_std(ch, n_sym, k, 10) + edge_bias(
                    ch, n_sym, pred[k]
                ) + 1e-4
                assert abs(est[k] - pred[k]) <= bound, (seed, k)

    def test_symbol_independence_of_acf(self):
        # two different streams through the same channel: ACFs agree within
        # combined sampling noise, carrying no symbol information
        n_sym = 2**13
        ch = FIG2_CHANNEL
        acfs = []
        for seed in (5, 6):
            stream = random_symbols(n_sym, seed=seed)
            received = apply_multipath(encode_waveform(stream, PARAMS), ch)
            acfs.append(empirical_acf(received, 10))
        for k in range(11):
            bound = 5.0 * math.sqrt(2.0) * sampling_noise_std(ch, n_sym, k, 10) + 1e-4
            assert abs(acfs[0][k] - acfs[1][k]) <= bound
