"""Multipath channel and AWGN tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csfchan import (
    ChannelModel,
    CsfParams,
    Waveform,
    add_awgn,
    apply_multipath,
    attenuation_from_delay,
    empirical_acf,
    encode_waveform,
    random_symbols,
    sample_random_channel,
)
from csfchan.channel import awgn_law
from csfchan.experiments import _snr_trial, _trial_channel, derive_seed, resolve_config

PARAMS = CsfParams()

FIG2_CHANNEL = ChannelModel(
    paths=((0, 1.0), (2, math.exp(-1.2)), (7, math.exp(-4.2))),
    max_delay=10,
)


class TestAttenuationLaw:
    def test_zero_delay(self):
        assert attenuation_from_delay(0.37, 0.0) == 1.0

    def test_fig2_values(self):
        assert attenuation_from_delay(0.6, 2.0) == pytest.approx(0.30119, abs=1e-5)
        assert attenuation_from_delay(0.6, 7.0) == pytest.approx(0.01500, abs=1e-5)


class TestChannelModel:
    def test_tap_vector(self):
        # h = (alpha_0, ..., alpha_max_delay), the main tap first
        taps = FIG2_CHANNEL.taps
        assert taps.shape == (11,)
        assert taps[0] == 1.0
        assert taps[2] == math.exp(-1.2)
        assert taps[7] == math.exp(-4.2)
        assert np.count_nonzero(taps) == 3

    def test_taps_keep_a_zero_gain_path(self):
        ch = ChannelModel(paths=((0, 1.0), (2, 0.0), (4, 0.25)), max_delay=6)
        np.testing.assert_array_equal(ch.taps, [1.0, 0.0, 0.0, 0.0, 0.25, 0.0, 0.0])

    @settings(max_examples=50, deadline=None)
    @given(max_delay=st.integers(0, 30), path_count=st.integers(1, 31), seed=st.integers(0, 2**32 - 1))
    def test_taps_equal_a_per_path_fill(self, max_delay, path_count, seed):
        ch = sample_random_channel(max_delay, (0.3, 0.9), min(path_count, max_delay + 1), seed)
        filled = np.zeros(max_delay + 1)
        for d, a in ch.paths:
            filled[d] = a
        assert ch.taps.tobytes() == filled.tobytes()

    def test_numpy_integer_delays_accepted(self):
        ch = ChannelModel(paths=((np.int64(0), 1.0), (np.int32(2), 0.5)), max_delay=np.int64(4))
        assert ch.paths == ((0, 1.0), (2, 0.5))
        np.testing.assert_array_equal(ch.taps, [1.0, 0.0, 0.5, 0.0, 0.0])


class TestApplyMultipath:
    def test_identity_channel(self):
        wave = encode_waveform(random_symbols(32, seed=0), PARAMS)
        ch = ChannelModel(paths=((0, 1.0),), max_delay=10)
        out = apply_multipath(wave, ch)
        np.testing.assert_array_equal(out.samples, wave.samples)

    def test_impulse_response(self):
        ns = 16
        impulse = np.zeros(4 * ns)
        impulse[0] = 1.0
        ch = ChannelModel(paths=((0, 1.0), (2, 0.4)), max_delay=4)
        out = apply_multipath(Waveform(impulse, ns), ch)
        assert out.samples[0] == 1.0
        assert out.samples[2 * ns] == 0.4
        assert np.count_nonzero(out.samples) == 2
        assert len(out) == len(impulse) + 2 * ns

    def test_linearity(self):
        rng = np.random.default_rng(4)
        x = Waveform(rng.normal(size=256), 16)
        y = Waveform(rng.normal(size=256), 16)
        combo = Waveform(2.0 * x.samples - 3.0 * y.samples, 16)
        out = apply_multipath(combo, FIG2_CHANNEL).samples
        parts = 2.0 * apply_multipath(x, FIG2_CHANNEL).samples - 3.0 * apply_multipath(y, FIG2_CHANNEL).samples
        np.testing.assert_allclose(out, parts, atol=1e-12)

    def test_output_power_near_tap_power_sum(self):
        # cross terms do not vanish exactly (the delayed copies stay weakly
        # correlated) but contribute under 2% for this channel
        wave = encode_waveform(random_symbols(2**15, seed=11), PARAMS)
        out = apply_multipath(wave, FIG2_CHANNEL)
        ratio = float(np.mean(out.samples**2) / np.mean(wave.samples**2))
        tap_power = float(np.sum(FIG2_CHANNEL.attenuations ** 2))
        assert abs(ratio / tap_power - 1.0) < 0.02

    def test_negative_zero_main_path_sample_is_positive_zero(self):
        # 0.0 + 1.0 * -0.0 is +0.0: the path sum starts every sample at 0.0
        wave = Waveform(np.array([-0.0, 1.0, -0.0]), 1)
        ch = ChannelModel(paths=((0, 1.0), (1, 0.5)), max_delay=1)
        out = apply_multipath(wave, ch).samples
        np.testing.assert_array_equal(out, [0.0, 1.0, 0.5, 0.0])
        assert not np.any(np.signbit(out))


def sample_sum_multipath(wave: Waveform, ch: ChannelModel) -> np.ndarray:
    """Oracle: each output sample summed on its own in Python floats, from
    0.0, adding each path that reaches it, main path first, in path order."""
    ns = wave.samples_per_symbol
    x = wave.samples.tolist()
    n = len(x)
    out = []
    for i in range(n + int(ch.delays[-1]) * ns):
        value = 0.0
        for d, a in ch.paths:
            if 0 <= i - d * ns < n:
                value += x[i - d * ns] * a
        out.append(value)
    return np.array(out)


class TestPerSampleOracle:
    """apply_multipath adds each path in path order, so it agrees bit for
    bit with the per-sample sum, on frames from shorter than the largest
    echo offset to 49157 samples."""

    DENSE = ChannelModel(paths=tuple((d, 0.9**d) for d in range(11)), max_delay=10)
    MAIN_ONLY = ChannelModel(paths=((0, 1.0),), max_delay=10)
    ZERO_GAINS = ChannelModel(paths=((0, 1.0), (3, 0.0), (10, 0.0)), max_delay=10)

    @pytest.mark.parametrize("ns", [1, 16])
    @pytest.mark.parametrize(
        "ch", [MAIN_ONLY, FIG2_CHANNEL, DENSE, ZERO_GAINS], ids=["main-only", "fig2", "dense", "zero-gains"]
    )
    @pytest.mark.parametrize(
        "n, of_output",
        [
            (16383, False),
            (16384, False),
            (16385, False),
            (16383, True),
            (16384, True),
            (16385, True),
            (32768, True),
            (32769, True),
            (49157, False),
            (100, False),
            (3, False),  # shorter than the largest echo offset
        ],
    )
    def test_over_frame_lengths(self, ns, ch, n, of_output):
        # of_output: n is the output length, the frame that much shorter
        if of_output:
            n -= int(ch.delays[-1]) * ns
        wave = Waveform(np.random.default_rng(n).normal(size=n), ns)
        np.testing.assert_array_equal(apply_multipath(wave, ch).samples, sample_sum_multipath(wave, ch))

    @settings(max_examples=60, deadline=None)
    @given(
        ns=st.sampled_from([1, 16]),
        n=st.integers(min_value=1, max_value=300),
        max_delay=st.integers(min_value=1, max_value=12),
        data=st.data(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_matches_per_sample_sum(self, ns, n, max_delay, data, seed):
        delays = data.draw(st.sets(st.integers(min_value=1, max_value=max_delay)))
        gains = data.draw(st.lists(st.floats(0.0, 2.0), min_size=len(delays), max_size=len(delays)))
        ch = ChannelModel(paths=((0, 1.0), *zip(sorted(delays), gains)), max_delay=max_delay)
        wave = Waveform(np.random.default_rng(seed).normal(size=n), ns)
        np.testing.assert_array_equal(apply_multipath(wave, ch).samples, sample_sum_multipath(wave, ch))

    @settings(max_examples=60, deadline=None)
    @given(
        ns=st.sampled_from([1, 16]),
        n=st.integers(min_value=1, max_value=300),
        max_delay=st.integers(min_value=1, max_value=12),
        data=st.data(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_matches_exact_per_sample_sum(self, ns, n, max_delay, data, seed):
        # whatever the order of its additions: each sample within (k - 1)
        # eps times the sum of the absolute terms of its exact sum (math.fsum)
        # over the k paths that reach it, the rounding bound of k - 1
        # additions (Higham, Accuracy and Stability of Numerical Algorithms, 4.2)
        delays = data.draw(st.sets(st.integers(min_value=1, max_value=max_delay)))
        gains = data.draw(st.lists(st.floats(0.0, 2.0), min_size=len(delays), max_size=len(delays)))
        ch = ChannelModel(paths=((0, 1.0), *zip(sorted(delays), gains)), max_delay=max_delay)
        x = np.random.default_rng(seed).normal(size=n).tolist()
        out = apply_multipath(Waveform(x, ns), ch).samples
        assert out.size == n + max(delays, default=0) * ns
        for i, value in enumerate(out.tolist()):
            terms = [a * x[i - d * ns] for d, a in ch.paths if 0 <= i - d * ns < n]
            bound = (len(terms) - 1) * np.finfo(float).eps * math.fsum(map(abs, terms))
            assert abs(value - math.fsum(terms)) <= bound


class TestAddAwgn:
    def test_disabled_noise_passthrough(self):
        wave = Waveform(np.ones(64), 16)
        for snr in (None, math.inf):
            out, sigma2 = add_awgn(wave, snr, seed=1)
            np.testing.assert_array_equal(out.samples, wave.samples)
            assert sigma2 == 0.0

    @pytest.mark.parametrize(
        "once",
        [lambda snrs: (s for s in snrs), lambda snrs: map(float, map(str, snrs))],
        ids=["generator", "map"],
    )
    def test_snrs_from_an_iterator(self, once):
        # the SNRs are read once, so an iterator gives the list's law
        wave = Waveform(np.linspace(-1.0, 1.0, 64), 16)
        draw, sigma2s = awgn_law(wave, once([10.0, 20.0]), seed=1)
        expected_draw, expected = awgn_law(wave, [10.0, 20.0], seed=1)
        np.testing.assert_array_equal(draw, expected_draw)
        assert sigma2s == expected and len(sigma2s) == 2

    def test_deterministic_for_seed(self):
        wave = Waveform(np.ones(512), 16)
        a, _ = add_awgn(wave, 10.0, seed=42)
        b, _ = add_awgn(wave, 10.0, seed=42)
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_zero_db_noise_power(self):
        n = 2**16
        wave = Waveform(np.ones(n), 16)
        noisy, sigma2 = add_awgn(wave, 0.0, seed=3)
        noise = noisy.samples - wave.samples
        assert sigma2 == pytest.approx(1.0)
        assert float(np.mean(noise**2)) == pytest.approx(1.0, rel=0.02)

    def test_noise_whiteness(self):
        n = 2**16
        ns = 16
        wave = Waveform(np.ones(n), ns)
        noisy, sigma2 = add_awgn(wave, 0.0, seed=8)
        noise = Waveform(noisy.samples - wave.samples, ns)
        est = empirical_acf(noise, 10)
        assert est[0] == pytest.approx(sigma2, rel=0.05)
        normalized = np.abs(est[1:]) / est[0]
        assert np.max(normalized) <= 4.0 / math.sqrt(n)

    def test_common_draw_across_snr(self):
        # one seed yields one standard-normal draw; SNR only scales it
        wave = Waveform(np.ones(256), 16)
        a, sa = add_awgn(wave, 0.0, seed=5)
        b, sb = add_awgn(wave, 20.0, seed=5)
        na = (a.samples - wave.samples) / math.sqrt(sa)
        nb = (b.samples - wave.samples) / math.sqrt(sb)
        np.testing.assert_allclose(na, nb, atol=1e-12)

    def test_matches_normal_draw_oracle(self):
        # the per-call law add_awgn had before it shared the sweep's draw
        wave = encode_waveform(random_symbols(128, seed=2), PARAMS)
        power = float(np.mean(wave.samples**2))
        for snr in (-3000.0, -3.0, 0.0, 7.5, 20.0, 3082.5):
            sigma2 = power / 10.0 ** (snr / 10.0)
            rng = np.random.default_rng(11)
            expected = wave.samples + rng.normal(0.0, math.sqrt(sigma2), size=len(wave))
            noisy, noise_var = add_awgn(wave, snr, seed=11)
            np.testing.assert_array_equal(noisy.samples, expected)
            assert noise_var == sigma2

    def test_input_samples_untouched(self):
        # the noise is scaled in place in the draw, never in the input
        wave = encode_waveform(random_symbols(128, seed=4), PARAMS)
        before = wave.samples.copy()
        for snr in (0.0, 20.0, None):
            add_awgn(wave, snr, seed=12)
            np.testing.assert_array_equal(wave.samples, before)
        assert not np.shares_memory(add_awgn(wave, 10.0, seed=12)[0].samples, wave.samples)

    def test_sweep_equals_single_snr_calls(self):
        # the SNR sweep's blind rows scale one draw per SNR; each is the
        # ACF of add_awgn's frame at that SNR, bit for bit
        cfg = resolve_config({"seed": 3, "sweep_snr": {"symbols": 128, "methods": ["blind_acf"]}})
        snrs = [0.0, None, 5.0, math.inf, 20.0]
        cfg["sweep_snr"]["snr_db_list"] = snrs
        params, ch = CsfParams(**cfg["csf"]), _trial_channel(cfg, "sweep_snr", 0)
        acfs, _, _ = _snr_trial((cfg, params, 0, ch))
        symbols = random_symbols(128, seed=derive_seed(cfg["seed"], 0, 1))
        clean = apply_multipath(encode_waveform(symbols, params), ch)
        m = cfg["sweep_snr"]["max_delay"]
        for snr, acf in zip(snrs, acfs, strict=True):
            single, _ = add_awgn(clean, snr, seed=derive_seed(cfg["seed"], 0, 2))
            np.testing.assert_array_equal(acf, empirical_acf(single, m))


class TestSampleRandomChannel:
    def test_single_path(self):
        ch = sample_random_channel(max_delay=10, gamma_range=(0.3, 0.9), path_count=1, seed=0)
        assert ch.paths == ((0, 1.0),)

    def test_attenuations_decrease_with_delay(self):
        for seed in range(20):
            ch = sample_random_channel(max_delay=10, gamma_range=(0.3, 0.9), path_count=6, seed=seed)
            assert np.all(np.diff(ch.attenuations) < 0)

    def test_follows_exponential_law(self):
        # the damping recovered from each echo, -ln(a)/d, is the channel's one
        # gamma: the same for every echo and inside gamma_range
        for gamma_range, seed in (((0.3, 0.9), 77), ((0.3, 0.9), 5), ((1.5, 2.5), 77)):
            ch = sample_random_channel(max_delay=10, gamma_range=gamma_range, path_count=5, seed=seed)
            assert ch.paths[0] == (0, 1.0)
            damping = [-math.log(a) / d for d, a in ch.paths[1:]]
            assert damping == pytest.approx([damping[0]] * 4, rel=1e-12)
            assert gamma_range[0] <= damping[0] <= gamma_range[1]

    def test_gamma_mean(self):
        # gamma is uniform on gamma_range (0.3, 0.9): the one echo's damping
        # averages to the midpoint
        gammas = [
            -math.log(a) / d
            for s in range(10_000)
            for d, a in sample_random_channel(max_delay=10, gamma_range=(0.3, 0.9), path_count=2, seed=s).paths[1:]
        ]
        assert len(gammas) == 10_000
        assert abs(float(np.mean(gammas)) - 0.6) < 0.01

    def test_deterministic(self):
        a = sample_random_channel(max_delay=10, gamma_range=(0.3, 0.9), path_count=4, seed=5)
        b = sample_random_channel(max_delay=10, gamma_range=(0.3, 0.9), path_count=4, seed=5)
        assert a == b
