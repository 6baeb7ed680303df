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
    add_awgn_sweep,
    apply_multipath,
    attenuation_from_delay,
    empirical_acf,
    encode_waveform,
    random_symbols,
    sample_random_channel,
    theoretical_acf,
)
from csfchan.channel import _BLOCK, awgn_law

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

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            attenuation_from_delay(0.6, -1.0)

    def test_nonpositive_gamma_rejected(self):
        with pytest.raises(ValueError):
            attenuation_from_delay(0.0, 1.0)


class TestChannelModel:
    def test_tap_vector(self):
        taps = FIG2_CHANNEL.tap_vector()
        assert taps.shape == (10,)
        assert taps[1] == pytest.approx(math.exp(-1.2))
        assert taps[6] == pytest.approx(math.exp(-4.2))
        assert np.count_nonzero(taps) == 2

    def test_requires_main_path(self):
        with pytest.raises(ValueError):
            ChannelModel(paths=((1, 0.5),), max_delay=5)

    def test_requires_unit_main_gain(self):
        with pytest.raises(ValueError):
            ChannelModel(paths=((0, 0.9),), max_delay=5)

    def test_requires_increasing_delays(self):
        with pytest.raises(ValueError):
            ChannelModel(paths=((0, 1.0), (3, 0.5), (3, 0.2)), max_delay=5)

    def test_delay_beyond_max_rejected(self):
        with pytest.raises(ValueError):
            ChannelModel(paths=((0, 1.0), (6, 0.5)), max_delay=5)


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


def loop_multipath(wave: Waveform, ch: ChannelModel) -> np.ndarray:
    """Oracle: apply_multipath as one whole-array pass per path."""
    ns = wave.samples_per_symbol
    n = len(wave)
    out = np.empty(n + int(ch.delays[-1]) * ns)
    out[:n] = wave.samples
    out[n:] = 0.0
    scaled = np.empty(n)
    for d, a in ch.paths[1:]:
        out[d * ns : d * ns + n] += np.multiply(wave.samples, a, out=scaled)
    return out


class TestBlockedMultipath:
    """apply_multipath fills its output block by block with the float
    operations of the whole-array loop, so the two agree bit for bit."""

    DENSE = ChannelModel(paths=tuple((d, 0.9**d) for d in range(11)), max_delay=10)
    MAIN_ONLY = ChannelModel(paths=((0, 1.0),), max_delay=10)

    @pytest.mark.parametrize("ns", [1, 16])
    @pytest.mark.parametrize("ch", [MAIN_ONLY, FIG2_CHANNEL, DENSE], ids=["main-only", "fig2", "dense"])
    @pytest.mark.parametrize(
        "n, of_output",
        [
            (_BLOCK - 1, False),
            (_BLOCK, False),
            (_BLOCK + 1, False),
            (_BLOCK - 1, True),
            (_BLOCK, True),
            (_BLOCK + 1, True),
            (2 * _BLOCK, True),  # the last block takes up to two blocks
            (2 * _BLOCK + 1, True),
            (3 * _BLOCK + 5, False),
            (100, False),  # shorter than one block
            (3, False),  # shorter than the largest echo offset
        ],
    )
    def test_block_boundaries(self, ns, ch, n, of_output):
        # of_output: n is the output length, the frame that much shorter
        if of_output:
            n -= int(ch.delays[-1]) * ns
        wave = Waveform(np.random.default_rng(n).normal(size=n), ns)
        np.testing.assert_array_equal(apply_multipath(wave, ch).samples, loop_multipath(wave, ch))

    @settings(max_examples=60, deadline=None)
    @given(
        ns=st.sampled_from([1, 16]),
        n=st.integers(min_value=1, max_value=3 * _BLOCK + 2),
        max_delay=st.integers(min_value=1, max_value=12),
        data=st.data(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_matches_whole_array_loop(self, ns, n, max_delay, data, seed):
        delays = data.draw(st.sets(st.integers(min_value=1, max_value=max_delay)))
        gains = data.draw(st.lists(st.floats(0.0, 2.0), min_size=len(delays), max_size=len(delays)))
        ch = ChannelModel(paths=((0, 1.0), *zip(sorted(delays), gains)), max_delay=max_delay)
        wave = Waveform(np.random.default_rng(seed).normal(size=n), ns)
        np.testing.assert_array_equal(apply_multipath(wave, ch).samples, loop_multipath(wave, ch))


class TestAddAwgn:
    def test_disabled_noise_passthrough(self):
        wave = Waveform(np.ones(64), 16)
        for snr in (None, math.inf):
            out, sigma2 = add_awgn(wave, snr, seed=1)
            np.testing.assert_array_equal(out.samples, wave.samples)
            assert sigma2 == 0.0

    def test_minus_inf_snr_refused(self):
        # -inf dB is noise with no signal, not the noiseless frame of +inf
        wave = Waveform(np.ones(64), 16)
        with pytest.raises(ValueError, match="-inf"):
            awgn_law(wave, [0.0, -math.inf], seed=1)

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
        for snr in (-3.0, 0.0, 7.5, 20.0):
            sigma2 = power / 10.0 ** (snr / 10.0)
            rng = np.random.default_rng(11)
            expected = wave.samples + rng.normal(0.0, math.sqrt(sigma2), size=len(wave))
            noisy, noise_var = add_awgn(wave, snr, seed=11)
            np.testing.assert_array_equal(noisy.samples, expected)
            assert noise_var == sigma2

    def test_sweep_equals_single_snr_calls(self):
        wave = encode_waveform(random_symbols(128, seed=3), PARAMS)
        snrs = [0.0, None, 5.0, math.inf, 20.0]
        for snr, (noisy, sigma2) in zip(snrs, add_awgn_sweep(wave, snrs, seed=9)):
            single, single_sigma2 = add_awgn(wave, snr, seed=9)
            np.testing.assert_array_equal(noisy.samples, single.samples)
            assert sigma2 == single_sigma2


class TestSampleRandomChannel:
    def test_single_path(self):
        ch = sample_random_channel(max_delay=10, path_count=1, seed=0)
        assert ch.paths == ((0, 1.0),)

    def test_attenuations_decrease_with_delay(self):
        for seed in range(20):
            ch = sample_random_channel(max_delay=10, path_count=6, seed=seed)
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
        # gamma is uniform on the default (0.3, 0.9): the one echo's damping
        # averages to the midpoint
        gammas = [
            -math.log(a) / d
            for s in range(10_000)
            for d, a in sample_random_channel(max_delay=10, path_count=2, seed=s).paths[1:]
        ]
        assert len(gammas) == 10_000
        assert abs(float(np.mean(gammas)) - 0.6) < 0.01

    def test_too_many_paths_rejected(self):
        with pytest.raises(ValueError):
            sample_random_channel(max_delay=3, path_count=5, seed=0)

    def test_deterministic(self):
        a = sample_random_channel(max_delay=10, path_count=4, seed=5)
        b = sample_random_channel(max_delay=10, path_count=4, seed=5)
        assert a == b
