"""Empirical ACF estimation and receive-side ACF prediction tests."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csfchan import (
    ChannelModel,
    CsfParams,
    IdentificationProblem,
    Waveform,
    apply_multipath,
    authoritative_acf_table,
    base_pulse,
    empirical_acf,
    empirical_acf_trace,
    encode_waveform,
    predicted_rx_acf,
    predicted_rx_acf_trace,
    random_symbols,
    sample_random_channel,
)
from csfchan.acf import _lagged_products, _pieces_acf_trace
from csfchan.experiments import interior_peak_lags
from csfchan.waveform import _amplitude_pieces, _encode_amplitudes

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
            IdentificationProblem(r_rr=np.array([1.0, np.inf]), r_xx=np.ones(3))


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

    def test_single_path_matches_closed_form(self):
        # statistical agreement: the per-lag estimate fluctuates with std
        # about R(0)/sqrt(n_symbols), checked here at five sigma
        n_sym = 2**12
        wave = encode_waveform(random_symbols(n_sym, seed=21), PARAMS)
        est = empirical_acf(wave, 10)
        ref = authoritative_acf_table(PARAMS, 10)
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

    @pytest.mark.parametrize("ns, max_lag, n", [(1, 10, 10001), (8, 2, 16704), (16, 1, 20000)])
    def test_long_lags_match_the_exact_sum(self, ns, max_lag, n):
        # each lag, summed in two halves past 10000 products, lies within
        # 4 eps sum|x[n + j] x[n]| / N of math.fsum over its products: the
        # dot's blocked partial sums keep the error near one ulp of the
        # lag-0 sum (1.4 ulp measured on a 1.05M-sample frame), and fsum's
        # products round once each
        x = np.random.default_rng(n).normal(size=n)
        products = [x[j:] * x[: n - j] for j in range(max_lag * ns + 1)]
        exact = np.array([math.fsum(p) for p in products]) / n
        bound = 4 * np.finfo(float).eps * np.array([math.fsum(np.abs(p)) for p in products]) / n
        _, trace = empirical_acf_trace(Waveform(x, ns), max_lag)
        assert np.all(np.abs(trace - exact) <= bound)
        assert np.all(np.abs(empirical_acf(Waveform(x, ns), max_lag) - exact[::ns]) <= bound[::ns])


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


def brute_force_rx_acf(ch: ChannelModel, noise_var: float, max_lag: int) -> np.ndarray:
    """Independent oracle: raw double sum over ordered path pairs."""
    lags = np.arange(-(max_lag + int(ch.delays[-1])), max_lag + int(ch.delays[-1]) + 1)
    table = authoritative_acf_table(PARAMS, int(lags[-1]))
    rxx = {int(k): float(table[abs(k)]) for k in lags}
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
    """Oracle: predicted_rx_acf_trace as a double loop over path pairs,
    with the pulse ACF the trapezoid of the sampled integrand (256 points
    per symbol period), lag by lag."""
    ns = params.oversampling
    grid = np.arange(max_lag * ns + 1) / ns
    dt = 1.0 / 256
    t = np.arange(-params.pulse_tail * 256, 256 + 1) * dt
    p0 = base_pulse(t, params)
    lags = np.arange((max_lag + int(ch.delays[-1])) * ns + 1) / ns
    full = np.array([np.trapezoid(p0 * base_pulse(t + e, params), dx=dt) for e in lags.tolist()])
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
        np.testing.assert_allclose(pred, authoritative_acf_table(PARAMS, 10), rtol=1e-12)

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

    @pytest.mark.parametrize("missing", ["params", "max_lag"])
    @pytest.mark.parametrize("predict", [predicted_rx_acf, predicted_rx_acf_trace], ids=lambda f: f.__name__)
    def test_params_and_max_lag_have_no_default(self, predict, missing):
        # the defaults went unused and disagreed: max_lag was ch.max_delay
        # in one and 10 in the other
        kwargs = {"params": PARAMS, "max_lag": 10}
        del kwargs[missing]
        with pytest.raises(TypeError, match=f"missing 1 required positional argument: '{missing}'"):
            predict(FIG2_CHANNEL, 0.0, **kwargs)

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

    def test_trace_cost_is_independent_of_beta(self):
        # at beta = 1e-6 the pulse tail is 13.8M symbol periods, which a
        # sampled integral would hold at 256 points each
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


class TestPiecesAcfTrace:
    """_pieces_acf_trace, the ACF of a frame taken from its symbol-rate
    pieces, against empirical_acf_trace of the frame _encode_amplitudes
    builds from the same pieces, at every sample lag.  The bound, 1e-13
    R(0) with R(0) the frame's measured lag-0 value, was set before
    measuring; the worst case measured is 3.0e-15 R(0), at 65536 symbols
    (1000 symbols: 1.8e-15, the all-ones stream at beta = ln 2)."""

    STREAMS = {
        "one symbol": np.array([-1.0]),
        "random": random_symbols(1000, seed=29),
        "all ones": np.ones(1000),
        # as run_fig2 builds them: the stream through the fig2 channel at symbol rate
        "fig2 channel": apply_multipath(Waveform(random_symbols(1000, seed=30), 1), FIG2_CHANNEL).samples,
    }

    @staticmethod
    def error(amplitudes, params: CsfParams, max_lag: int) -> float:
        """Largest difference from the oracle over all lags, over R(0)."""
        _, oracle = empirical_acf_trace(_encode_amplitudes(amplitudes, params), max_lag)
        trace = _pieces_acf_trace(_amplitude_pieces(amplitudes, params), max_lag)
        assert trace.shape == oracle.shape
        return float(np.max(np.abs(trace - oracle)) / oracle[0])

    @pytest.mark.parametrize("beta", [math.log(2.0), 0.05, 0.01, 1e-3])
    @pytest.mark.parametrize("stream", STREAMS)
    def test_matches_the_built_frame(self, beta, stream):
        assert self.error(self.STREAMS[stream], CsfParams(beta=beta), 10) <= 1e-13

    def test_matches_at_the_longest_sweep_frame(self):
        assert self.error(random_symbols(65536, seed=31), PARAMS, 10) <= 1e-13

    def test_shortest_frame(self):
        # one symbol and the 20-symbol pulse tail span 21 symbol periods,
        # the shortest frame the ACF check accepts at max_lag 19: the last
        # symbol-rate shift, 20, overlaps in one symbol period only
        stream = np.array([1.0])
        assert self.error(stream, PARAMS, 19) <= 1e-13
        with pytest.raises(ValueError, match="waveform too short for max_lag=20: 336 samples"):
            _pieces_acf_trace(_amplitude_pieces(stream, PARAMS), 20)
