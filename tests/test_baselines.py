"""Non-blind least-squares baseline tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import csfchan.baselines
from csfchan import (
    ChannelModel,
    CsfParams,
    ProbeFrame,
    Waveform,
    add_awgn,
    apply_multipath,
    awgn_law,
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
    max_delay=M,
)


def probe_design(probe: Waveform, max_delay: int) -> np.ndarray:
    """The tall regression matrix X whose column k is the probe shifted by
    k symbol periods, over taps at delays 0..max_delay."""
    ns = probe.samples_per_symbol
    n = len(probe)
    design = np.zeros((n + max_delay * ns, max_delay + 1))
    for k in range(max_delay + 1):
        design[k * ns : k * ns + n, k] = probe.samples
    return design


def tall_lstsq(frame: ProbeFrame, max_delay: int) -> tuple[np.ndarray, bool]:
    """Oracle: numpy's SVD lstsq on the tall shifted-probe design itself,
    with its rank at lstsq's default cutoff (eps * rows); the received
    frame is zero-padded or cut to the design's rows."""
    design = probe_design(frame.probe, max_delay)
    rows = design.shape[0]
    received = np.zeros(rows)
    taken = frame.received.samples[:rows]
    received[: len(taken)] = taken
    solution, _, rank, _ = np.linalg.lstsq(design, received, rcond=None)
    return solution, bool(rank < max_delay + 1)


def wrapped_ls_sweep(probe: Waveform, clean: Waveform, snr_dbs, seed: int, max_delay: int) -> tuple[np.ndarray, bool]:
    """Oracle: the sweep as two ls_estimate calls, on ProbeFrames of the
    clean frame and of the unit-noise draw taken onto the probe's grid,
    the noise row scaled into each noisy SNR's row."""
    step = clean.samples_per_symbol // probe.samples_per_symbol

    def solve(samples: np.ndarray):
        received = Waveform(samples[::step], probe.samples_per_symbol)
        return ls_estimate(ProbeFrame(probe=probe, received=received), max_delay)

    draw, sigma2s = awgn_law(clean, snr_dbs, seed + 1)
    base = solve(clean.samples)
    taps = np.tile(base.alpha_hat, (len(sigma2s), 1))
    if draw is not None:
        unit = solve(draw).alpha_hat
        for row, sigma2 in zip(taps, sigma2s):
            if sigma2 is not None:
                row += math.sqrt(sigma2) * unit
    return taps, base.degenerate


class TestLsEstimate:
    def test_noiseless_exact_recovery_gaussian(self):
        frame = gaussian_probe_frame(256, 16, CHANNEL, snr_db=None, seed=0)
        est = ls_estimate(frame, M)
        assert not est.degenerate
        expected = CHANNEL.taps
        np.testing.assert_allclose(est.alpha_hat, expected, atol=1e-10)

    def test_noiseless_exact_recovery_chaotic(self):
        frame = chaotic_probe_frame(512, PARAMS, CHANNEL, snr_db=None, seed=1)
        est = ls_estimate(frame, M)
        assert not est.degenerate
        expected = CHANNEL.taps
        np.testing.assert_allclose(est.alpha_hat, expected, atol=1e-8)

    def test_pure_delay_shift_identity(self):
        rng = np.random.default_rng(7)
        probe = Waveform(rng.normal(size=200 * 16), 16)
        ch = ChannelModel(paths=((0, 1.0), (4, 1.0)), max_delay=M)
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
            probe=Waveform(3.7 * frame.probe.samples, 16),
            received=Waveform(3.7 * frame.received.samples, 16),
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


class TestNormalEquationsOracle:
    """ls_estimate solves the normal equations of the shifted-probe design
    from the probe's ACF and its cross-correlation with the frame; on this
    library's well-conditioned designs it matches lstsq on the tall design
    (the oracle) to rtol 1e-9, with the same degenerate flag."""

    @settings(max_examples=100, deadline=None)
    @given(
        # beta >= 0.02 bounds the pulse tail (ln(1e6)/beta symbols)
        beta=st.floats(min_value=0.02, max_value=math.log(2.0)),
        oversampling=st.sampled_from([8, 16, 32]),
        n_sym=st.integers(min_value=32, max_value=2048),
        chaotic=st.booleans(),
        snr_db=st.sampled_from([None, 0.0, 10.0, 30.0]),
        path_count=st.integers(min_value=1, max_value=M + 1),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        # received samples appended past the probe plus M symbol periods,
        # which no shifted probe reaches
        extension=st.integers(min_value=0, max_value=3 * M * 32),
    )
    def test_matches_tall_lstsq(self, beta, oversampling, n_sym, chaotic, snr_db, path_count, seed, extension):
        ch = sample_random_channel(max_delay=M, gamma_range=(0.3, 0.9), path_count=path_count, seed=seed)
        if chaotic:
            params = CsfParams(beta=beta, oversampling=oversampling)
            frame = chaotic_probe_frame(n_sym, params, ch, snr_db, seed=seed)
        else:
            frame = gaussian_probe_frame(n_sym, oversampling, ch, snr_db, seed=seed)
        tail = np.random.default_rng(seed).normal(size=extension)
        received = Waveform(np.concatenate([frame.received.samples, tail]), frame.received.samples_per_symbol)
        frame = ProbeFrame(probe=frame.probe, received=received)
        est = ls_estimate(frame, M)
        expected, degenerate = tall_lstsq(frame, M)
        scale = np.max(np.abs(expected))
        np.testing.assert_allclose(est.alpha_hat, expected, rtol=1e-9, atol=1e-12 * scale)
        assert est.degenerate == degenerate

    # a wide Gaussian bump sampled once per symbol: the 10th difference
    # nearly annihilates it, so cond(X) of the 11-column design grows as
    # its width to the 10th power
    @pytest.mark.parametrize("width, degenerate", [(3, False), (4, False), (8, True), (10, True)])
    def test_degenerate_threshold(self, width, degenerate):
        # documented cutoff: the Gram matrix's rank at lstsq's default
        # rcond, i.e. cond(X) above about 1 / sqrt(11 eps) ~ 2e7
        threshold = 1.0 / math.sqrt((M + 1) * np.finfo(float).eps)
        n = 12 * width + 1
        probe = Waveform(np.exp(-((np.arange(n) - n // 2) / width) ** 2), 1)
        frame = ProbeFrame(probe=probe, received=Waveform(np.concatenate([probe.samples, np.zeros(M)]), 1))
        cond = np.linalg.cond(probe_design(probe, M))
        # each case sits at least a factor 10 from the threshold
        assert (cond > threshold * 10) if degenerate else (cond < threshold / 10)
        assert ls_estimate(frame, M).degenerate == degenerate
        # the tall solve's cutoff, eps * rows on X, still counts 11 columns
        assert not tall_lstsq(frame, M)[1]

    # a probe no longer than M+1 symbol periods: the shifted copies overlap
    # little or not at all, so most of the probe's ACF lags are empty sums
    @pytest.mark.parametrize("ns, n", [(16, 1), (16, 16), (16, 100), (16, 176), (1, 11), (8, 40)])
    def test_short_probe_matches_tall_lstsq(self, ns, n):
        rng = np.random.default_rng(n)
        probe = Waveform(rng.normal(size=n), ns)
        received = apply_multipath(probe, CHANNEL)
        frame = ProbeFrame(probe=probe, received=Waveform(received.samples + 0.1 * rng.normal(size=len(received)), ns))
        est = ls_estimate(frame, M)
        expected, degenerate = tall_lstsq(frame, M)
        np.testing.assert_allclose(est.alpha_hat, expected, rtol=1e-9, atol=1e-12 * np.max(np.abs(expected)))
        assert est.degenerate == degenerate


class TestSnrSweepReuse:
    """The LS sweep, solved by linearity in the noise, equals ls_estimate on
    the single-SNR frame up to roundoff: the two sides sum the same noisy
    frame in a different order.  It equals two wrapped ls_estimate calls
    (clean frame, unit-noise frame) bit for bit, from one Gram matrix."""

    SNRS = [0.0, 5.0, 10.0, None, 20.0]

    def assert_matches_single_snr(self, sweep, single):
        taps, degenerate = sweep
        assert taps.shape == (len(self.SNRS), M + 1)
        for snr, row in zip(self.SNRS, taps):
            expected = ls_estimate(single(snr), M)
            np.testing.assert_allclose(row, expected.alpha_hat, rtol=1e-9, atol=1e-12)
            assert degenerate == expected.degenerate

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
        taps, _ = ls_sweep(probe, clean, [None, math.inf], 23, M)
        expected = ls_estimate(ProbeFrame(probe=probe, received=clean), M).alpha_hat
        for row in taps:
            np.testing.assert_array_equal(row, expected)

    @pytest.mark.parametrize(
        "once",
        [lambda snrs: (s for s in snrs), lambda snrs: map(float, map(str, snrs))],
        ids=["generator", "map"],
    )
    def test_snrs_from_an_iterator(self, once):
        # one row per SNR, as from the list, not zero rows
        probe = gaussian_probe(64, 16, seed=27)
        clean = apply_multipath(probe, CHANNEL)
        taps, degenerate = ls_sweep(probe, clean, once([10.0, 20.0]), 27, M)
        expected, expected_degenerate = ls_sweep(probe, clean, [10.0, 20.0], 27, M)
        assert taps.shape == (2, M + 1)
        np.testing.assert_array_equal(taps, expected)
        assert degenerate == expected_degenerate

    def test_degenerate_flag_from_the_design(self):
        probe = Waveform(np.zeros(64), 16)
        clean = Waveform(np.zeros(64 + 2 * 16), 16)
        assert ls_sweep(probe, clean, [0.0, None], 0, 2)[1]

    @staticmethod
    def probe_and_clean(kind: str) -> tuple[Waveform, Waveform]:
        if kind == "gaussian":
            probe = gaussian_probe(96, 16, seed=24)
            return probe, apply_multipath(probe, CHANNEL)
        if kind == "chaotic":
            full = encode_waveform(random_symbols(128, seed=25), PARAMS)
            return symbol_instants(full), apply_multipath(full, CHANNEL)
        return Waveform(np.zeros(64), 16), Waveform(np.zeros(64 + M * 16), 16)

    @pytest.mark.parametrize("kind", ["gaussian", "chaotic", "zero"])
    @pytest.mark.parametrize(
        "snr_dbs",
        [[0.0, 5.0, 10.0], [None, 3.0, math.inf, -2.0], [None, math.inf], []],
        ids=["noisy", "mixed", "noiseless", "empty"],
    )
    def test_bit_identical_to_two_wrapped_solves(self, kind, snr_dbs):
        probe, clean = self.probe_and_clean(kind)
        taps, degenerate = ls_sweep(probe, clean, snr_dbs, 26, M)
        expected, expected_degenerate = wrapped_ls_sweep(probe, clean, snr_dbs, 26, M)
        assert taps.shape == (len(snr_dbs), M + 1)
        np.testing.assert_array_equal(taps, expected)
        assert degenerate == expected_degenerate == (kind == "zero")

    @pytest.mark.parametrize("kind", ["gaussian", "chaotic", "zero"])
    @pytest.mark.parametrize(
        "snr_dbs",
        [[0.0, 5.0, 10.0], [None, 3.0, math.inf, -2.0], [None, math.inf]],
        ids=["noisy", "mixed", "noiseless"],
    )
    def test_rows_match_tall_lstsq(self, kind, snr_dbs):
        # each row is the tall solve of the frame built at its SNR,
        # add_awgn's at seed + 1 taken onto the probe's grid, to
        # TestNormalEquationsOracle's rtol
        probe, clean = self.probe_and_clean(kind)
        taps, degenerate = ls_sweep(probe, clean, snr_dbs, 26, M)
        step = clean.samples_per_symbol // probe.samples_per_symbol
        for snr_db, row in zip(snr_dbs, taps, strict=True):
            received = add_awgn(clean, snr_db, 27)[0].samples[::step]
            frame = ProbeFrame(probe=probe, received=Waveform(received, probe.samples_per_symbol))
            expected, expected_degenerate = tall_lstsq(frame, M)
            np.testing.assert_allclose(row, expected, rtol=1e-9, atol=1e-12 * np.max(np.abs(expected)))
            assert degenerate == expected_degenerate

    def test_one_gram_matrix_per_sweep(self, monkeypatch):
        grams = []
        lagged_products = csfchan.baselines._lagged_products

        def counted(x, y, shifts):
            if x is y:
                grams.append(len(shifts))
            return lagged_products(x, y, shifts)

        monkeypatch.setattr(csfchan.baselines, "_lagged_products", counted)
        probe, clean = self.probe_and_clean("gaussian")
        ls_sweep(probe, clean, [0.0, None, 10.0], 26, M)
        assert grams == [M + 1]


class TestNoiseSensitivityOrdering:
    def test_chaotic_probe_worse_than_gaussian_at_low_snr(self):
        # the shaped probe carries its information at symbol rate, so its
        # regression sees far fewer effective samples than the full-rate
        # white probe and degrades much faster in noise
        errs = {"gauss": [], "chaos": []}
        for trial in range(10):
            ch = sample_random_channel(max_delay=M, gamma_range=(0.3, 0.9), path_count=6, seed=trial)
            truth = ch.taps[1:]
            g = ls_estimate(gaussian_probe_frame(1024, 16, ch, 0.0, seed=100 + trial), M)
            c = ls_estimate(chaotic_probe_frame(1024, PARAMS, ch, 0.0, seed=200 + trial), M)
            errs["gauss"].append(np.sum((g.alpha_hat[1:] / g.alpha_hat[0] - truth) ** 2))
            errs["chaos"].append(np.sum((c.alpha_hat[1:] / c.alpha_hat[0] - truth) ** 2))
        assert np.mean(errs["chaos"]) > 5.0 * np.mean(errs["gauss"])
