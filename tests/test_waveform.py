"""Shaping pulse, waveform synthesis, and closed-form ACF tests."""

import math

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import fftconvolve

import csfchan.waveform
from csfchan import (
    CsfParams,
    Waveform,
    authoritative_acf_table,
    base_pulse,
    encode_waveform,
    pulse_acf,
    random_symbols,
    sample_base_pulse,
    theoretical_acf,
)
from csfchan.waveform import _next_fast_len, _pulse_spectrum, _trapezoid_pulse_acf

PARAMS = CsfParams()
LN2 = math.log(2.0)


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_rejected(self, bad):
        with pytest.raises(ValueError):
            base_pulse(bad, PARAMS)

    def test_scalar_and_array_agree(self):
        ts = np.array([-2.5, -0.3, 0.0, 0.4, 0.99, 1.0, 3.0])
        arr = base_pulse(ts, PARAMS)
        assert arr.tolist() == [base_pulse(float(t), PARAMS) for t in ts]


class TestCsfParams:
    def test_default_tail_truncates_below_1e6(self):
        tail_amp = abs(base_pulse(-float(PARAMS.pulse_tail), PARAMS))
        assert tail_amp <= 1e-6

    @pytest.mark.parametrize("beta", [0.0, -0.1, LN2 + 0.01])
    def test_beta_bounds(self, beta):
        with pytest.raises(ValueError):
            CsfParams(beta=beta)

    def test_oversampling_minimum(self):
        with pytest.raises(ValueError):
            CsfParams(oversampling=4)

    @pytest.mark.parametrize("oversampling", [16.0, np.float64(16.0), True, "16"])
    def test_non_integer_oversampling_rejected(self, oversampling):
        # encode_waveform needs an int: a float must fail here, not there
        with pytest.raises(ValueError, match="oversampling must be an integer"):
            CsfParams(oversampling=oversampling)

    def test_numpy_integer_oversampling_becomes_int(self):
        params = CsfParams(oversampling=np.int64(16))
        assert type(params.oversampling) is int
        assert params == CsfParams(oversampling=16)
        wave = encode_waveform(random_symbols(8, seed=1), params)
        np.testing.assert_array_equal(wave.samples, encode_waveform(random_symbols(8, seed=1)).samples)


class TestEncodeWaveform:
    def test_single_symbol_is_pulse(self):
        wave = encode_waveform(np.array([1.0]), PARAMS)
        pulse = sample_base_pulse(PARAMS)
        np.testing.assert_allclose(wave.samples, pulse.samples, atol=1e-12)

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
    full = fftconvolve(train, sample_base_pulse(params).samples)
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

    def test_cached_spectrum_is_read_only(self):
        spectrum = _pulse_spectrum(PARAMS, 1024)
        with pytest.raises(ValueError):
            spectrum[0] = 0.0


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

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            random_symbols(0, seed=1)

    def test_large_sample_mean(self):
        # binomial concentration: 0.02 is > 6 sigma at n = 1e5
        s = random_symbols(100_000, seed=123)
        assert abs(float(np.mean(s))) < 0.02


class TestSymbolStreamInvariants:
    """encode_waveform takes a nonempty 1-d stream of exact -1s and +1s."""

    def test_rejects_non_antipodal(self):
        with pytest.raises(ValueError):
            encode_waveform(np.array([1.0, 0.5]), PARAMS)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            encode_waveform(np.array([]), PARAMS)

    def test_rejects_two_dimensional(self):
        with pytest.raises(ValueError):
            encode_waveform(np.ones((2, 4)), PARAMS)


class TestWaveformInvariants:
    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Waveform(np.array([1.0, np.nan]), 16)

    def test_rejects_bad_oversampling(self):
        with pytest.raises(ValueError):
            Waveform(np.ones(4), 0)

    @pytest.mark.parametrize("samples", [np.array([]), np.ones((2, 4))], ids=["empty", "2-d"])
    def test_rejects_empty_or_multidimensional(self, samples):
        with pytest.raises(ValueError, match="samples must be a nonempty 1-d sequence"):
            Waveform(samples, 16)

    @pytest.mark.parametrize("ns", [16.0, np.float64(16.0), True, "16"])
    def test_non_integer_samples_per_symbol_rejected(self, ns):
        # CsfParams.oversampling's rule: apply_multipath and empirical_acf
        # slice and bound by it
        with pytest.raises(ValueError, match="samples_per_symbol must be a positive integer"):
            Waveform(np.ones(4), ns)

    def test_numpy_integer_samples_per_symbol_becomes_int(self):
        wave = Waveform(np.ones(4), np.int64(16))
        assert type(wave.samples_per_symbol) is int
        assert wave.samples_per_symbol == 16


class TestTheoreticalAcf:
    def test_value_at_zero_lag(self):
        # frozen from the defining integral evaluated by high-resolution
        # trapezoid (oversampling 4096, tail 60)
        assert theoretical_acf(0.0, PARAMS) == pytest.approx(1.3433272444214932, abs=1e-12)
        assert theoretical_acf(0.0, PARAMS) == pytest.approx(1.34329, abs=1e-4)

    def test_value_at_unit_lag(self):
        # frozen from the same high-resolution integration oracle; equals
        # (1 - e^-beta)(1 - R(0))/2 exactly at unit lag
        assert theoretical_acf(1.0, PARAMS) == pytest.approx(-0.08583181111, abs=1e-10)
        expected = 0.5 * (1.0 - theoretical_acf(0.0, PARAMS)) / 2.0
        assert theoretical_acf(1.0, PARAMS) == pytest.approx(expected, rel=1e-12)

    def test_even_symmetry(self):
        for eta in [0.5, 1.0, 2.25, 7.0]:
            assert theoretical_acf(eta, PARAMS) == theoretical_acf(-eta, PARAMS)

    @pytest.mark.parametrize("beta", [LN2, 0.5, 0.3, 0.1, 0.03, 0.01, 0.001])
    def test_matches_defining_integral_at_integer_lags(self, beta):
        # the closed form is the only source of the table the solver reads
        # (authoritative_acf_table), up to lag 2 * max_delay = 20
        params = CsfParams(beta=beta)
        lags = np.arange(21.0)
        closed = theoretical_acf(lags, params)
        integral = pulse_acf(lags, params, oversampling=256)
        assert abs(closed[0] - integral[0]) <= 1e-4
        # the trapezoid rule carries a small absolute error, so values far
        # below the zero-lag power are measured against that floor; it
        # binds only past lag 13, at beta = ln 2
        floor = 1e-5 * abs(integral[0])
        rel = np.abs(closed - integral) / np.maximum(np.abs(integral), floor)
        assert np.max(rel) <= 0.01

    def test_closed_form_invalid_off_grid(self):
        # the closed form only holds on integer lags; off the grid the
        # defining integral takes over (sign even flips at half-integers)
        eta = 1.5
        assert abs(theoretical_acf(eta, PARAMS) - pulse_acf(eta, PARAMS)) > 0.05

    def test_nonfinite_lag_rejected(self):
        with pytest.raises(ValueError):
            theoretical_acf(math.nan, PARAMS)


class TestAuthoritativeTable:
    def test_matches_closed_form_here(self):
        table = authoritative_acf_table(PARAMS, max_lag=10)
        np.testing.assert_allclose(table, theoretical_acf(np.arange(11.0), PARAMS), rtol=1e-12)

    def test_never_integrates(self, monkeypatch):
        # at beta = 1e-5 the integral would sample a tail of 1.4M symbol
        # periods at 256 samples each
        def no_integral(*args, **kwargs):
            raise AssertionError("pulse_acf ran")

        monkeypatch.setattr(csfchan.waveform, "pulse_acf", no_integral)
        params = CsfParams(beta=1e-5)
        table = authoritative_acf_table(params, 20)
        np.testing.assert_array_equal(table, theoretical_acf(np.arange(21.0), params))

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
        lags = np.array([0.0, 1e6, -1e6, 0.5, 1e300, -1e300, -0.0, 3.0])
        np.testing.assert_array_equal(pulse_acf(lags, PARAMS), per_lag_pulse_acf(lags, PARAMS, 256))

    def test_scalar_in_scalar_out(self):
        value = pulse_acf(1.5, PARAMS)
        assert isinstance(value, float)
        assert value == per_lag_pulse_acf(1.5, PARAMS, 256)[0]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_lag_rejected_before_work(self, monkeypatch, bad):
        def no_work(*args):
            raise AssertionError("pulse sampled")

        monkeypatch.setattr(csfchan.waveform, "base_pulse", no_work)
        with pytest.raises(ValueError, match="lag must be finite"):
            pulse_acf(np.array([0.0, bad]), PARAMS)
        with pytest.raises(ValueError, match="lag must be finite"):
            _trapezoid_pulse_acf(np.array([0.0, bad]), PARAMS)

    @pytest.mark.parametrize("acf", [pulse_acf, _trapezoid_pulse_acf], ids=lambda f: f.__name__)
    @pytest.mark.parametrize("bad", [0, 2.5, -4, True])
    def test_bad_oversampling_rejected_before_work(self, monkeypatch, acf, bad):
        # 0 divided by zero, 2.5 failed in a slice, -4 gave zeros and True
        # ran at oversampling 1
        def no_work(*args):
            raise AssertionError("pulse sampled")

        monkeypatch.setattr(csfchan.waveform, "base_pulse", no_work)
        with pytest.raises(ValueError, match="oversampling must be an integer >= 1"):
            acf(np.array([0.0, 1.5]), PARAMS, bad)

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
    # the two sum the same terms in different orders, so the error is
    # measured against the largest value, R(0) (closed form: within 1e-4)
    lags = np.array(lags)
    got = _trapezoid_pulse_acf(lags, params, oversampling)
    want = pulse_acf(lags, params, oversampling)
    assert np.max(np.abs(got - want)) <= 16 * np.finfo(float).eps * theoretical_acf(0.0, params)


def log_uniform_betas(low):
    # pulse_acf's cost grows as 1/beta, so the draws spread over decades
    return st.floats(min_value=math.log(low), max_value=math.log(LN2)).map(lambda x: min(math.exp(x), LN2))


class TestTrapezoidPulseAcf:
    @settings(max_examples=15, deadline=None)
    @given(data=st.data(), beta=log_uniform_betas(1e-3), ns=st.sampled_from([8, 12, 16]))
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

    @pytest.mark.parametrize("oversampling", [1, 2, 3, 100])
    def test_small_and_odd_oversampling(self, oversampling):
        # at 1 and 2 the phase steps 2 pi/os and 4 pi/os reduce to 0 or pi;
        # 3 and 100 are off the power-of-two grid
        lags = np.array([0.0, 0.25, 1.0, -2.5, 7.3, 19.0])
        assert_matches_trapezoid(lags, PARAMS, oversampling)
