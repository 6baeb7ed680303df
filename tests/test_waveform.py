"""Shaping pulse, waveform synthesis, and closed-form ACF tests."""

import math

import numpy as np
import pytest
import scipy.fft
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.signal import fftconvolve

import csfchan.waveform
from csfchan import (
    ChannelModel,
    CsfParams,
    Waveform,
    apply_multipath,
    authoritative_acf_table,
    base_pulse,
    encode_waveform,
    pulse_acf,
    random_symbols,
)
from csfchan.waveform import _amplitude_pieces, _encode_amplitudes, _next_fast_len, _pulse_spectrum

PARAMS = CsfParams()
LN2 = math.log(2.0)


def support_samples(params) -> np.ndarray:
    """The pulse sampled on its support [-pulse_tail, 1) at Ns samples per
    symbol, t = -pulse_tail + i/Ns: the samples both encodes shape with."""
    ns = params.oversampling
    return base_pulse(np.arange(-params.pulse_tail * ns, ns) / ns, params)


class TestBasePulse:
    def test_zero_branch(self):
        assert base_pulse(1.0, PARAMS) == 0.0
        assert np.all(base_pulse(np.linspace(1.0, 50.0, 200), PARAMS) == 0.0)

    def test_value_at_origin(self):
        # both branches give 1 - exp(-beta); for beta = ln2 that is 1/2
        assert base_pulse(0.0, PARAMS) == pytest.approx(0.5, abs=1e-15)

    def test_tail_value_exact(self):
        # at integer arguments the oscillatory factor is exactly cos(2*pi*k) = 1,
        # so p(-3) = (1 - e^-beta) e^{-3 beta} = 0.5 * 2^-3
        assert base_pulse(-3.0, PARAMS) == pytest.approx(0.0625, abs=1e-14)

    def test_tail_value_high_precision(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 50
        beta = mpmath.log(2)
        w = 2 * mpmath.pi
        t = mpmath.mpf(-3)
        exact = (1 - mpmath.e**-beta) * mpmath.e ** (beta * t) * (
            mpmath.cos(w * t) - beta / w * mpmath.sin(w * t)
        )
        assert base_pulse(-3.0, PARAMS) == pytest.approx(float(exact), abs=1e-13)

    def test_continuity_at_branch_boundaries(self):
        eps = 1e-13
        assert abs(base_pulse(-eps, PARAMS) - base_pulse(eps, PARAMS)) <= 1e-12
        assert abs(base_pulse(1.0 - eps, PARAMS)) <= 1e-12

    def test_tail_envelope_bound(self):
        beta, w = PARAMS.beta, 2.0 * math.pi
        t = np.linspace(0.01, 30.0, 1500)
        envelope = (1 - np.exp(-beta)) * (1 + beta / w) * np.exp(-beta * t)
        assert np.all(np.abs(base_pulse(-t, PARAMS)) <= envelope + 1e-15)

    def test_scalar_and_array_agree(self):
        ts = np.array([-2.5, -0.3, 0.0, 0.4, 0.99, 1.0, 3.0])
        arr = base_pulse(ts, PARAMS)
        assert arr.tolist() == [base_pulse(float(t), PARAMS) for t in ts]


class TestCsfParams:
    def test_default_tail_truncates_below_1e6(self):
        tail_amp = abs(base_pulse(-float(PARAMS.pulse_tail), PARAMS))
        assert tail_amp <= 1e-6

    def test_numpy_integer_oversampling_becomes_int(self):
        params = CsfParams(oversampling=np.int64(16))
        assert type(params.oversampling) is int
        assert params == CsfParams(oversampling=16)
        wave = encode_waveform(random_symbols(8, seed=1), params)
        np.testing.assert_array_equal(wave.samples, encode_waveform(random_symbols(8, seed=1), PARAMS).samples)


class TestEncodeWaveform:
    def test_single_symbol_is_pulse(self):
        wave = encode_waveform(np.array([1.0]), PARAMS)
        np.testing.assert_allclose(wave.samples, support_samples(PARAMS), atol=1e-12)

    def test_negation_linearity(self):
        stream = random_symbols(64, seed=5)
        flipped = -stream
        a = encode_waveform(stream, PARAMS).samples
        b = encode_waveform(flipped, PARAMS).samples
        np.testing.assert_array_equal(a, -b)

    def test_two_symbol_superposition(self):
        wave = encode_waveform(np.array([1.0, -1.0]), PARAMS)
        expected = base_pulse(0.5, PARAMS) - base_pulse(-0.5, PARAMS)
        # the grid starts at -pulse_tail
        idx = int((0.5 + PARAMS.pulse_tail) * wave.samples_per_symbol)
        assert wave.samples[idx] == pytest.approx(expected, abs=1e-12)

    def test_grid_covers_tail_and_symbols(self):
        n_sym = 17
        wave = encode_waveform(random_symbols(n_sym, seed=1), PARAMS)
        assert len(wave) == (n_sym + PARAMS.pulse_tail) * PARAMS.oversampling

    def test_deterministic(self):
        s = random_symbols(32, seed=9)
        np.testing.assert_array_equal(
            encode_waveform(s, PARAMS).samples, encode_waveform(s, PARAMS).samples
        )


def fftconvolve_encode(stream, params):
    """The scipy synthesis encode_waveform replaced, kept as its oracle."""
    ns = params.oversampling
    train = np.zeros(len(stream) * ns)
    train[::ns] = stream
    full = fftconvolve(train, support_samples(params))
    return full[: (len(stream) + params.pulse_tail) * ns]


class TestEncodeOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        # beta >= 0.02 bounds the pulse tail (ln(1e6)/beta symbols) to keep
        # examples small; the formula has no other dependence on its size
        beta=st.floats(min_value=0.02, max_value=LN2),
        oversampling=st.sampled_from([8, 12, 16, 32]),
        n_sym=st.integers(min_value=1, max_value=5000),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example(beta=LN2, oversampling=16, n_sym=26, seed=0)  # full length 751 pads to 768; 750 would pad to 750
    def test_bit_identical_to_fftconvolve(self, beta, oversampling, n_sym, seed):
        params = CsfParams(beta=beta, oversampling=oversampling)
        stream = random_symbols(n_sym, seed=seed)
        np.testing.assert_array_equal(
            encode_waveform(stream, params).samples, fftconvolve_encode(stream, params)
        )

    @pytest.mark.parametrize("n_sym", [8192, 65536])
    def test_bit_identical_at_sweep_lengths(self, n_sym):
        stream = random_symbols(n_sym, seed=n_sym)
        np.testing.assert_array_equal(
            encode_waveform(stream, PARAMS).samples, fftconvolve_encode(stream, PARAMS)
        )

    def test_fast_len_matches_scipy(self):
        sizes = list(range(1, 5001)) + [2**20 + 320, 10**6 + 1, 3 * 10**7 + 7, 123456789]
        assert [_next_fast_len(n) for n in sizes] == [scipy.fft.next_fast_len(n, True) for n in sizes]

    def test_cache_hit_is_bit_identical(self):
        _pulse_spectrum.cache_clear()
        stream = random_symbols(300, seed=4)
        first = encode_waveform(stream, PARAMS).samples
        hits = _pulse_spectrum.cache_info().hits
        second = encode_waveform(stream, PARAMS).samples
        assert _pulse_spectrum.cache_info().hits == hits + 1
        np.testing.assert_array_equal(first, second)
        np.testing.assert_array_equal(second, fftconvolve_encode(stream, PARAMS))
        encode_waveform(stream[:100], PARAMS)
        assert _pulse_spectrum.cache_info().currsize == 1  # the spectrum of one length at a time

    def test_cached_spectrum_is_read_only(self):
        spectrum = _pulse_spectrum(PARAMS, 1024)
        with pytest.raises(ValueError, match="^assignment destination is read-only$"):
            spectrum[0] = 0.0


def frame_error(stream, params, ch) -> float:
    """Largest difference of the symbol-rate frame from its oracle, the FFT
    encode followed by the sample-rate path sum, over max|oracle|."""
    oracle = apply_multipath(encode_waveform(stream, params), ch).samples
    frame = _encode_amplitudes(np.convolve(stream, ch.taps[: ch.delays[-1] + 1]), params).samples
    assert frame.size == oracle.size
    return float(np.max(np.abs(frame - oracle)) / np.max(np.abs(oracle)))


def superposition(amplitudes, params) -> np.ndarray:
    """The frame sum_k a_k p(t - k) on the grid t = -pulse_tail + i/Ns,
    with p from base_pulse and the sum taken in long double: phase r of
    symbol period q sums a_k p(q - k - pulse_tail + r/Ns), a convolution
    of the amplitudes with the pulse's samples at that phase."""
    ns, tail = params.oversampling, params.pulse_tail
    pulse = support_samples(params).astype(np.longdouble)
    amps = np.asarray(amplitudes, dtype=np.longdouble)
    frame = np.empty((amps.size + tail) * ns, dtype=np.longdouble)
    for r in range(ns):
        frame[r::ns] = np.convolve(amps, pulse[r::ns])
    return frame


class TestEncodeAmplitudes:
    """_encode_amplitudes, at symbol rate, against two oracles.

    The FFT encode followed by the sample-rate path sum, within 1e-13
    max|frame|: the worst case measured is 4.4e-14, the all-ones stream at
    beta = 1e-3 (random streams: 1.1e-14 at most).  And the direct
    superposition, summed in long double, within 5e-14 max|frame|: there
    the same all-ones case reads 4.4e-14 and the FFT encode 6.8e-16, so
    that error is _encode_amplitudes' own.  It grows with the length of a
    stream of nonzero mean (1.8e-14 at 400 symbols, 7.8e-14 at 2000); the
    +-1 and channel amplitudes read 8.9e-15 at most.  The FFT encode of the
    +-1 and all-ones streams is held to the same superposition within
    1e-14 max|frame|, the bound stated before it was measured.

    The +-1 and all-ones streams of 65536 symbols, the sweeps' longest
    frame, run at beta = ln 2 and 0.05 under the same two bounds: both
    encodes read 3.3e-15 max|frame| at most there.  Beta = 1e-3 stays out
    at that length, as its oracle takes about 1.4e10 long-double products."""

    CHANNELS = {
        "main path only": ChannelModel(((0, 1.0),), max_delay=0),
        "fig2": ChannelModel(((0, 1.0), (2, math.exp(-1.2)), (7, math.exp(-4.2))), max_delay=10),
        "zero-gain echo, echo at max_delay": ChannelModel(((0, 1.0), (3, 0.0), (10, 0.4)), max_delay=10),
    }
    STREAMS = {"one symbol": np.array([-1.0]), "all ones": np.ones(1000), "random": random_symbols(1000, seed=27)}

    @pytest.mark.parametrize("beta", [LN2, 0.3, 0.1, 0.05, 0.01, 1e-3])
    @pytest.mark.parametrize("stream", STREAMS)
    @pytest.mark.parametrize("channel", CHANNELS)
    def test_matches_fft_encode_and_path_sum(self, beta, stream, channel):
        assert frame_error(self.STREAMS[stream], CsfParams(beta=beta), self.CHANNELS[channel]) <= 1e-13

    @pytest.mark.parametrize("beta", [LN2, 1e-3])
    def test_matches_at_the_longest_sweep_frame(self, beta):
        stream = random_symbols(65536, seed=28)
        assert frame_error(stream, CsfParams(beta=beta), self.CHANNELS["fig2"]) <= 1e-13

    @pytest.mark.parametrize("beta", [LN2, 0.05, 0.01, 1e-3])
    def test_shapes_are_the_fft_encodes_pulse_samples(self, beta):
        # the FFT encode convolves with the support samples (TestEncodeOracle);
        # the symbol-rate shapes A and B e^-beta are its last two periods
        params = CsfParams(beta=beta)
        before, last = support_samples(params)[-2 * params.oversampling :].reshape(2, -1)
        _, _, (a, b) = _amplitude_pieces(np.ones(1), params)
        np.testing.assert_array_equal(a, last)
        np.testing.assert_array_max_ulp(b * math.exp(-beta), before, maxulp=1)

    LONG_STREAMS = {"+-1, 65536 symbols": random_symbols(65536, seed=28), "all ones, 65536 symbols": np.ones(65536)}

    @pytest.mark.parametrize(
        "amplitudes, beta",
        [(a, beta) for a in ("+-1", "all ones", "fig2 channel") for beta in (LN2, 0.05, 1e-3)]
        + [(a, beta) for a in LONG_STREAMS for beta in (LN2, 0.05)],
    )
    def test_matches_the_exact_sum(self, amplitudes, beta):
        stream = self.LONG_STREAMS.get(amplitudes, self.STREAMS["all ones" if amplitudes == "all ones" else "random"])
        if amplitudes == "fig2 channel":  # as run_fig2 builds them
            stream = apply_multipath(Waveform(stream, 1), self.CHANNELS["fig2"]).samples
        params = CsfParams(beta=beta)
        exact = superposition(stream, params)
        frame = _encode_amplitudes(stream, params).samples
        assert frame.size == exact.size
        assert np.max(np.abs(frame - exact)) <= 5e-14 * np.max(np.abs(exact))
        if amplitudes != "fig2 channel":  # the FFT encode takes +-1 symbols alone
            frame = encode_waveform(stream, params).samples
            assert frame.size == exact.size
            assert np.max(np.abs(frame - exact)) <= 1e-14 * np.max(np.abs(exact))


class TestRandomSymbols:
    def test_deterministic_for_seed(self):
        a = random_symbols(4, seed=7)
        b = random_symbols(4, seed=7)
        np.testing.assert_array_equal(a, b)

    def test_values_are_antipodal(self):
        s = random_symbols(1000, seed=2)
        assert set(np.unique(s)) == {-1.0, 1.0}

    def test_single_symbol(self):
        assert random_symbols(1, seed=0)[0] in (-1.0, 1.0)

    def test_float_array(self):
        s = random_symbols(5, seed=0)
        assert s.dtype == np.float64 and s.shape == (5,)

    def test_large_sample_mean(self):
        # binomial concentration: 0.02 is > 6 sigma at n = 1e5
        s = random_symbols(100_000, seed=123)
        assert abs(float(np.mean(s))) < 0.02


class TestWaveformInvariants:
    def test_numpy_integer_samples_per_symbol_becomes_int(self):
        wave = Waveform(np.ones(4), np.int64(16))
        assert type(wave.samples_per_symbol) is int
        assert wave.samples_per_symbol == 16


class TestTheoreticalAcf:
    def test_value_at_zero_lag(self):
        # frozen from the defining integral evaluated by high-resolution
        # trapezoid (oversampling 4096, tail 60)
        r0 = authoritative_acf_table(PARAMS, 0)[0]
        assert r0 == pytest.approx(1.3433272444214932, abs=1e-12)
        assert r0 == pytest.approx(1.34329, abs=1e-4)

    def test_value_at_unit_lag(self):
        # frozen from the same high-resolution integration oracle; equals
        # (1 - e^-beta)(1 - R(0))/2 exactly at unit lag
        r0, r1 = authoritative_acf_table(PARAMS, 1)
        assert r1 == pytest.approx(-0.08583181111, abs=1e-10)
        assert r1 == pytest.approx(0.5 * (1.0 - r0) / 2.0, rel=1e-12)

    @pytest.mark.parametrize("beta", [LN2, 0.5, 0.3, 0.1, 0.03, 0.01, 0.001])
    def test_matches_defining_integral_at_integer_lags(self, beta):
        # the closed form is the only source of the table the solver reads,
        # up to lag 2 * max_delay = 20; at beta = 1e-3 the integral is
        # pulse_acf's closed-form trapezoid, which
        # test_trapezoid_is_the_integral_at_beta_1e_3 holds to the sampled one
        params = CsfParams(beta=beta)
        lags = np.arange(21.0)
        closed = authoritative_acf_table(params, 20)
        integral = (pulse_acf if beta == 0.001 else per_lag_pulse_acf)(lags, params, 256)
        assert abs(closed[0] - integral[0]) <= 1e-4
        # the trapezoid rule carries a small absolute error, so values far
        # below the zero-lag power are measured against that floor; it
        # binds only past lag 13, at beta = ln 2
        floor = 1e-5 * abs(integral[0])
        rel = np.abs(closed - integral) / np.maximum(np.abs(integral), floor)
        assert np.max(rel) <= 0.01


class TestAuthoritativeTable:
    def test_never_integrates(self, monkeypatch):
        # at beta = 1e-5 the integral would sample a tail of 1.4M symbol
        # periods at 256 samples each; the closed form decays by e^-beta
        # per lag from (1 - e^-beta)(1 - R(0))/2 at lag 1, and R(0) tends
        # to 3/2 as beta tends to 0
        def no_integral(*args, **kwargs):
            raise AssertionError("pulse_acf ran")

        monkeypatch.setattr(csfchan.waveform, "pulse_acf", no_integral)
        beta = 1e-5
        table = authoritative_acf_table(CsfParams(beta=beta), 20)
        assert table[0] == pytest.approx(1.5, abs=1e-4)
        assert table[1] == pytest.approx(-math.expm1(-beta) * (1.0 - table[0]) / 2.0, rel=1e-10)
        np.testing.assert_allclose(table[1:], table[1] * np.exp(-beta * np.arange(20.0)), rtol=1e-12)

    @pytest.mark.parametrize("beta", [LN2, 0.5, 0.1, 0.01, 1e-3, 1e-5])
    def test_longer_tables_extend_shorter_ones(self, beta):
        # predicted_rx_acf and the solver read tables of different lengths:
        # their common lags must agree bit for bit
        params = CsfParams(beta=beta)
        longest = authoritative_acf_table(params, 40)
        for max_lag in (0, 1, 10, 20):
            table = authoritative_acf_table(params, max_lag)
            assert table.shape == (max_lag + 1,)
            assert table.tobytes() == longest[: max_lag + 1].tobytes()

    def test_returns_fresh_copy(self):
        a = authoritative_acf_table(PARAMS, max_lag=5)
        a[0] = -1.0
        b = authoritative_acf_table(PARAMS, max_lag=5)
        assert b[0] > 1.0


def per_lag_pulse_acf(lag, params, oversampling):
    """The pulse ACF as the trapezoid of the sampled integrand, lag by lag."""
    dt = 1.0 / oversampling
    xi = np.arange(-params.pulse_tail * oversampling, oversampling + 1) * dt
    p0 = base_pulse(xi, params)
    return np.array([np.trapezoid(p0 * base_pulse(xi + e, params), dx=dt) for e in np.atleast_1d(lag)])


class TestPulseAcfOracle:
    def test_far_apart_lags_sample_separately(self):
        assert_matches_trapezoid([0.0, 1e6, -1e6, 0.5, 1e300, -1e300, -0.0, 3.0], PARAMS, 256)

    def test_scalar_in_scalar_out(self):
        value = pulse_acf(1.5, PARAMS)
        assert isinstance(value, float)
        assert value == pulse_acf(1.5, PARAMS, 256)
        assert value == pulse_acf(np.array([1.5]), PARAMS)[0]
        assert_matches_trapezoid([1.5], PARAMS, 256)

    @pytest.mark.parametrize("lag", [np.float64(1.5), np.array(1.5)], ids=["numpy-scalar", "0-d-array"])
    def test_zero_dimensional_lag_gives_a_float(self, lag):
        value = pulse_acf(lag, PARAMS)
        assert type(value) is float
        assert value == pulse_acf(1.5, PARAMS)

    def test_numpy_integer_oversampling_accepted(self):
        lags = np.array([0.0, 1.5])
        np.testing.assert_array_equal(pulse_acf(lags, PARAMS, np.int64(64)), pulse_acf(lags, PARAMS, 64))


# lags on a CSF trace grid (k/ns), anywhere, at integers and far past
# either end of the pulse support
def closed_form_lags(ns):
    return st.lists(
        st.one_of(
            st.integers(-40 * ns, 40 * ns).map(lambda k: k / ns),
            st.floats(-40.0, 40.0, allow_nan=False),
            st.integers(-30, 30).map(float),
            st.sampled_from([1e6, -1e6, 1e300, -1e300, -0.0]),
        ),
        min_size=1,
        max_size=4,
    )


def assert_matches_trapezoid(lags, params, oversampling):
    # pulse_acf against the sampled integrand's trapezoid: the two sum the
    # same terms in different orders, so the error is measured against the
    # largest value, R(0) (closed form: within 1e-4)
    lags = np.array(lags)
    got = pulse_acf(lags, params, oversampling)
    want = per_lag_pulse_acf(lags, params, oversampling)
    assert np.max(np.abs(got - want)) <= 16 * np.finfo(float).eps * authoritative_acf_table(params, 0)[0]


def log_uniform_betas(low):
    # per_lag_pulse_acf's cost grows as 1/beta, so the draws spread over decades
    return st.floats(min_value=math.log(low), max_value=math.log(LN2)).map(lambda x: min(math.exp(x), LN2))


class TestTrapezoidPulseAcf:
    @settings(max_examples=15, deadline=None)
    @given(data=st.data(), beta=log_uniform_betas(1e-2), ns=st.sampled_from([8, 12, 16]))
    def test_matches_pulse_acf_at_256(self, data, beta, ns):
        assert_matches_trapezoid(data.draw(closed_form_lags(ns)), CsfParams(beta=beta, oversampling=ns), 256)

    @settings(max_examples=15, deadline=None)
    @given(
        data=st.data(),
        beta=log_uniform_betas(1e-4),
        ns=st.sampled_from([8, 12, 16]),
        oversampling=st.sampled_from([8, 16]),
    )
    def test_matches_pulse_acf_down_to_beta_1e_4(self, data, beta, ns, oversampling):
        lags = data.draw(closed_form_lags(ns))
        assert_matches_trapezoid(lags, CsfParams(beta=beta, oversampling=ns), oversampling)

    def test_trapezoid_is_the_integral_at_beta_1e_3(self):
        # the link from the closed form back to the sampled integral at the
        # smallest beta of test_matches_defining_integral_at_integer_lags
        assert_matches_trapezoid([0.0, 1.0, 20.0], CsfParams(beta=0.001), 256)

    @pytest.mark.parametrize("oversampling", [1, 2, 3, 100])
    def test_small_and_odd_oversampling(self, oversampling):
        # at 1 and 2 the phase steps 2 pi/os and 4 pi/os reduce to 0 or pi;
        # 3 and 100 are off the power-of-two grid
        lags = np.array([0.0, 0.25, 1.0, -2.5, 7.3, 19.0])
        assert_matches_trapezoid(lags, PARAMS, oversampling)
