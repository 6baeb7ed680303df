"""Non-blind least-squares channel estimation baselines.

Both baselines know the transmitted probe and regress the received
signal on integer-symbol-shifted copies of it.  The Gaussian probe is
white at the sample rate (the classical optimum under white noise); the
chaotic probe is a shaped waveform whose information lives at the symbol
rate, so its frame is taken at symbol-instant samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelModel, add_awgn_sweep, apply_multipath
from .waveform import CsfParams, Waveform, encode_waveform, random_symbols

__all__ = [
    "ProbeFrame",
    "LsEstimate",
    "probe_design",
    "ls_estimate",
    "gaussian_probe_frame",
    "gaussian_probe_sweep",
    "chaotic_probe_frame",
    "chaotic_probe_sweep",
]


@dataclass(frozen=True)
class ProbeFrame:
    """A known transmitted probe and the corresponding received frame."""

    probe: Waveform
    received: Waveform

    def __post_init__(self):
        if self.probe.samples_per_symbol != self.received.samples_per_symbol:
            raise ValueError("probe and received must share one sampling grid")
        if len(self.received) < len(self.probe):
            raise ValueError("received frame shorter than the probe")


@dataclass(frozen=True)
class LsEstimate:
    """Least-squares tap estimate.

    alpha_hat  raw taps alpha_0..alpha_M as solved
    degenerate True when the shifted-probe matrix was rank deficient
    """

    alpha_hat: np.ndarray
    degenerate: bool

    def relative_taps(self) -> np.ndarray:
        """Echo taps normalised by the solved main tap, for comparability
        with estimators that pin the main tap to 1."""
        return self.alpha_hat[1:] / self.alpha_hat[0]


def probe_design(probe: Waveform, max_delay: int) -> np.ndarray:
    """Regression matrix whose column k is the probe shifted by k symbol
    periods, over taps at delays 0..max_delay."""
    ns = probe.samples_per_symbol
    n = len(probe)
    design = np.zeros((n + max_delay * ns, max_delay + 1))
    for k in range(max_delay + 1):
        design[k * ns : k * ns + n, k] = probe.samples
    return design


def ls_estimate(frame: ProbeFrame, max_delay: int, design: np.ndarray | None = None) -> LsEstimate:
    """Solve min || received - X alpha ||_2 over taps at delays 0..max_delay.

    X holds the probe shifted by whole symbol periods; the solve goes
    through numpy's QR-based lstsq rather than explicit normal equations.
    design, when given, is probe_design(frame.probe, max_delay), built
    once for the frames of one probe.
    """
    if design is None:
        design = probe_design(frame.probe, max_delay)
    rows = design.shape[0]
    received = frame.received.samples
    if len(received) < rows:
        received = np.concatenate([received, np.zeros(rows - len(received))])
    else:
        received = received[:rows]
    solution, _, rank, _ = np.linalg.lstsq(design, received, rcond=None)
    return LsEstimate(alpha_hat=solution, degenerate=bool(rank < max_delay + 1))


def gaussian_probe_frame(
    n_symbols: int,
    samples_per_symbol: int,
    ch: ChannelModel,
    snr_db: float | None,
    seed: int,
) -> ProbeFrame:
    """White Gaussian probe at the sample rate through the channel."""
    return gaussian_probe_sweep(n_symbols, samples_per_symbol, ch, [snr_db], seed)[0]


def gaussian_probe_sweep(
    n_symbols: int,
    samples_per_symbol: int,
    ch: ChannelModel,
    snr_dbs,
    seed: int,
) -> list[ProbeFrame]:
    """gaussian_probe_frame at each SNR of a sweep: one probe, one pass
    through the channel and one noise draw, scaled to each SNR."""
    rng = np.random.default_rng(seed)
    probe = Waveform(rng.normal(size=n_symbols * samples_per_symbol), samples_per_symbol)
    noisy = add_awgn_sweep(apply_multipath(probe, ch), snr_dbs, seed + 1)
    return [ProbeFrame(probe=probe, received=received) for received, _ in noisy]


def chaotic_probe_frame(
    n_symbols: int,
    params: CsfParams,
    ch: ChannelModel,
    snr_db: float | None,
    seed: int,
) -> ProbeFrame:
    """Known-symbol shaped probe, framed at symbol-instant samples.

    The full-rate shaped waveform rides through the channel and noise;
    probe and received are then decimated to one sample per symbol
    period, which is where the shaped probe carries its information.  At
    that rate an integer-symbol shift is a one-sample shift.
    """
    probe_full = encode_waveform(random_symbols(n_symbols, seed=seed), params)
    return chaotic_probe_sweep(probe_full, apply_multipath(probe_full, ch), [snr_db], seed)[0]


def chaotic_probe_sweep(
    probe_full: Waveform,
    received_full: Waveform,
    snr_dbs,
    seed: int,
) -> list[ProbeFrame]:
    """chaotic_probe_frame at each SNR of a sweep, from the full-rate
    shaped probe (symbols drawn with seed) and its noiseless channel
    output: one noise draw, scaled to each SNR, then both decimated to
    symbol-instant samples."""
    ns = probe_full.samples_per_symbol
    probe = Waveform(probe_full.samples[::ns], 1, t0=probe_full.t0)
    return [
        ProbeFrame(probe=probe, received=Waveform(received.samples[::ns], 1, t0=received.t0))
        for received, _ in add_awgn_sweep(received_full, snr_dbs, seed + 1)
    ]
