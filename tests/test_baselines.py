"""Non-blind least-squares baseline tests."""

import math

import numpy as np
import pytest

from csfchan import (
    ChannelModel,
    CsfParams,
    ProbeFrame,
    Waveform,
    apply_multipath,
    chaotic_probe_frame,
    encode_waveform,
    gaussian_probe,
    gaussian_probe_frame,
    ls_estimate,
    ls_sweep,
    random_symbols,
    sample_random_channel,
    symbol_instants,
)

PARAMS = CsfParams()
M = 10

CHANNEL = ChannelModel(
    paths=((0, 1.0), (2, math.exp(-1.2)), (7, math.exp(-4.2))),
    gamma=0.6,
    max_delay=M,
)


class TestProbeFrame:
    def test_grid_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ProbeFrame(probe=Waveform(np.ones(32), 16), received=Waveform(np.ones(32), 8))

    def test_short_received_rejected(self):
        with pytest.raises(ValueError):
            ProbeFrame(probe=Waveform(np.ones(32), 16), received=Waveform(np.ones(16), 16))


class TestLsEstimate:
    def test_noiseless_exact_recovery_gaussian(self):
        frame = gaussian_probe_frame(256, 16, CHANNEL, snr_db=None, seed=0)
        est = ls_estimate(frame, M)
        assert not est.degenerate
        expected = np.concatenate([[1.0], CHANNEL.tap_vector()])
        np.testing.assert_allclose(est.alpha_hat, expected, atol=1e-10)

    def test_noiseless_exact_recovery_chaotic(self):
        frame = chaotic_probe_frame(512, PARAMS, CHANNEL, snr_db=None, seed=1)
        est = ls_estimate(frame, M)
        assert not est.degenerate
        expected = np.concatenate([[1.0], CHANNEL.tap_vector()])
        np.testing.assert_allclose(est.alpha_hat, expected, atol=1e-8)

    def test_pure_delay_shift_identity(self):
        rng = np.random.default_rng(7)
        probe = Waveform(rng.normal(size=200 * 16), 16)
        ch = ChannelModel(paths=((0, 1.0), (4, 1.0)), gamma=0.5, max_delay=M)
        # drop the main path by subtraction: received = probe shifted by 4
        received = apply_multipath(probe, ch)
        received = Waveform(received.samples - np.concatenate([probe.samples, np.zeros(4 * 16)]), 16)
        est = ls_estimate(ProbeFrame(probe=probe, received=received), M)
        one_hot = np.zeros(M + 1)
        one_hot[4] = 1.0
        np.testing.assert_allclose(est.alpha_hat, one_hot, atol=1e-8)

    def test_scale_invariance(self):
        frame = gaussian_probe_frame(128, 16, CHANNEL, snr_db=20.0, seed=5)
        scaled = ProbeFrame(
            probe=Waveform(3.7 * frame.probe.samples, 16, frame.probe.t0),
            received=Waveform(3.7 * frame.received.samples, 16, frame.received.t0),
        )
        a = ls_estimate(frame, M)
        b = ls_estimate(scaled, M)
        np.testing.assert_allclose(a.alpha_hat, b.alpha_hat, atol=1e-10)

    def test_rank_deficiency_flagged(self):
        frame = ProbeFrame(
            probe=Waveform(np.zeros(64) + 0.0, 16), received=Waveform(np.zeros(64), 16)
        )
        # zero probe cannot be rank-deficient-free; flag, not crash
        est = ls_estimate(frame, 2)
        assert est.degenerate

    def test_relative_taps_normalise_main(self):
        frame = gaussian_probe_frame(256, 16, CHANNEL, snr_db=30.0, seed=9)
        est = ls_estimate(frame, M)
        rel = est.relative_taps()
        assert rel.shape == (M,)
        np.testing.assert_allclose(rel, est.alpha_hat[1:] / est.alpha_hat[0], rtol=1e-12)


class TestSnrSweepReuse:
    """The LS sweep, solved by linearity in the noise, equals ls_estimate on
    the single-SNR frame up to roundoff: the two sides sum the same noisy
    frame in a different order."""

    SNRS = [0.0, 5.0, 10.0, None, 20.0]

    def assert_matches_single_snr(self, estimates, single):
        assert len(estimates) == len(self.SNRS)
        for snr, est in zip(self.SNRS, estimates):
            expected = ls_estimate(single(snr), M)
            np.testing.assert_allclose(est.alpha_hat, expected.alpha_hat, rtol=1e-9, atol=1e-12)
            assert est.degenerate == expected.degenerate

    def test_gaussian(self):
        probe = gaussian_probe(128, 16, seed=21)
        self.assert_matches_single_snr(
            ls_sweep(probe, apply_multipath(probe, CHANNEL), self.SNRS, 21, M),
            lambda snr: gaussian_probe_frame(128, 16, CHANNEL, snr, seed=21),
        )

    def test_chaotic(self):
        probe = encode_waveform(random_symbols(256, seed=22), PARAMS)
        self.assert_matches_single_snr(
            ls_sweep(symbol_instants(probe), apply_multipath(probe, CHANNEL), self.SNRS, 22, M),
            lambda snr: chaotic_probe_frame(256, PARAMS, CHANNEL, snr, seed=22),
        )

    def test_noiseless_sweep_is_the_clean_solve(self):
        probe = gaussian_probe(64, 16, seed=23)
        clean = apply_multipath(probe, CHANNEL)
        estimates = ls_sweep(probe, clean, [None, math.inf], 23, M)
        expected = ls_estimate(ProbeFrame(probe=probe, received=clean), M).alpha_hat
        for est in estimates:
            np.testing.assert_array_equal(est.alpha_hat, expected)

    def test_degenerate_flag_from_the_design(self):
        probe = Waveform(np.zeros(64), 16)
        clean = Waveform(np.zeros(64 + 2 * 16), 16)
        assert all(est.degenerate for est in ls_sweep(probe, clean, [0.0, None], 0, 2))


class TestNoiseSensitivityOrdering:
    def test_chaotic_probe_worse_than_gaussian_at_low_snr(self):
        # the shaped probe carries its information at symbol rate, so its
        # regression sees far fewer effective samples than the full-rate
        # white probe and degrades much faster in noise
        errs = {"gauss": [], "chaos": []}
        for trial in range(10):
            ch = sample_random_channel(max_delay=M, path_count=6, seed=trial)
            truth = ch.tap_vector()
            g = ls_estimate(gaussian_probe_frame(1024, 16, ch, 0.0, seed=100 + trial), M)
            c = ls_estimate(chaotic_probe_frame(1024, PARAMS, ch, 0.0, seed=200 + trial), M)
            errs["gauss"].append(np.sum((g.relative_taps() - truth) ** 2))
            errs["chaos"].append(np.sum((c.relative_taps() - truth) ** 2))
        assert np.mean(errs["chaos"]) > 5.0 * np.mean(errs["gauss"])
