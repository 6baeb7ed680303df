"""Multipath channel with exponential attenuation law plus AWGN.

The channel is a sparse FIR at integer-symbol delays: the main path at
delay 0 with unit gain, and up to max_delay echo paths whose gains follow
exp(-gamma * delay).  Noise is white Gaussian with variance set from an
SNR measured against the noiseless received signal power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .waveform import Waveform

__all__ = [
    "ChannelModel",
    "attenuation_from_delay",
    "apply_multipath",
    "add_awgn",
    "awgn_law",
    "sample_random_channel",
]


@dataclass(frozen=True)
class ChannelModel:
    """Sparse multipath channel.

    paths      tuple of (delay in symbol periods, attenuation), strictly
               increasing delays starting at (0, 1.0); each attenuation
               finite and nonnegative
    max_delay  largest delay the receiver searches for (tap count - 1)

    The attenuations are taken as given; sample_random_channel and fig2
    draw them from the law exp(-gamma * delay) with one gamma per channel.
    """

    paths: tuple[tuple[int, float], ...]
    max_delay: int

    def __post_init__(self):
        paths = tuple((int(d), float(a)) for d, a in self.paths)
        if not paths:
            raise ValueError("channel needs at least the main path")
        delays = [d for d, _ in paths]
        if delays[0] != 0:
            raise ValueError("main path must be at delay 0")
        if any(d2 <= d1 for d1, d2 in zip(delays, delays[1:])):
            raise ValueError("delays must be strictly increasing")
        if paths[0][1] != 1.0:
            raise ValueError("main-path attenuation must be 1")
        if not all(0.0 <= a < math.inf for _, a in paths):
            raise ValueError("attenuations must be finite and nonnegative")
        if delays[-1] > self.max_delay:
            raise ValueError(f"delay {delays[-1]} exceeds max_delay {self.max_delay}")
        object.__setattr__(self, "paths", paths)

    @property
    def delays(self) -> np.ndarray:
        return np.array([d for d, _ in self.paths], dtype=int)

    @property
    def attenuations(self) -> np.ndarray:
        return np.array([a for _, a in self.paths])

    def tap_vector(self) -> np.ndarray:
        """Dense echo-tap vector alpha_1..alpha_M (main path excluded)."""
        taps = np.zeros(self.max_delay)
        for d, a in self.paths:
            if d > 0:
                taps[d - 1] = a
        return taps


def attenuation_from_delay(gamma: float, tau: float) -> float:
    """Attenuation exp(-gamma * tau) of an echo delayed by tau."""
    if not 0 <= tau < math.inf:
        raise ValueError("delay must be finite and nonnegative")
    if not 0 < gamma < math.inf:
        raise ValueError("damping coefficient must be finite and positive")
    return math.exp(-gamma * tau)


# samples of output apply_multipath completes at a time: a block of
# 128 KiB of float64 and its scaled echo stay in cache while every path
# is added, where a whole 1.05M-sample frame takes 8.4 MB per pass
_BLOCK = 16384


def apply_multipath(wave: Waveform, ch: ChannelModel) -> Waveform:
    """Sum of delayed, attenuated copies; length grows by the largest delay.

    The output is filled one cache-sized block at a time; the last block
    takes the remainder, up to two blocks, so a short frame is one block.
    Each sample starts as the main path (delay 0, gain 1), or 0.0 past
    the frame's end, and then adds each echo's scaled sample in path
    order, the same float operations in the same order as one pass per
    path over the whole output.
    """
    ns = wave.samples_per_symbol
    x = wave.samples
    n = len(wave)
    out = np.empty(n + int(ch.delays[-1]) * ns)
    edges = [*range(0, max(out.size - _BLOCK, 1), _BLOCK), out.size]
    scaled = np.empty(min(out.size, 2 * _BLOCK))
    for lo, hi in zip(edges, edges[1:]):
        mid = min(max(n, lo), hi)  # the frame ends at n
        out[lo:mid] = x[lo:mid]
        out[mid:hi] = 0.0
        for d, a in ch.paths[1:]:
            start = d * ns  # the echo covers out[start : start + n]
            a0, a1 = max(lo, start), min(hi, start + n)
            if a0 < a1:
                out[a0:a1] += np.multiply(x[a0 - start : a1 - start], a, out=scaled[: a1 - a0])
    return Waveform(out, ns)


def add_awgn(wave: Waveform, snr_db: float | None, seed: int) -> tuple[Waveform, float]:
    """Add white Gaussian noise at the given SNR; returns the noisy
    waveform and the noise variance.

    The noise variance is mean(wave**2) / 10**(snr_db/10), i.e. the SNR is
    referenced to the power of the waveform being corrupted.  snr_db of
    None or +inf disables noise (variance 0.0).  Deterministic for a fixed
    seed, and the same seed yields the same underlying standard-normal
    draw at every SNR (awgn_law), so sweeping SNR with one seed varies
    only the noise scale.
    """
    draw, (sigma2,) = awgn_law(wave, [snr_db], seed)
    if sigma2 is None:
        return wave, 0.0
    draw *= math.sqrt(sigma2)
    draw += wave.samples
    return Waveform(draw, wave.samples_per_symbol), sigma2


def awgn_law(wave: Waveform, snr_dbs, seed: int) -> tuple[np.ndarray | None, list[float | None]]:
    """The noise law of add_awgn over the SNRs of a sweep.

    Returns the seeded standard-normal draw, one value per sample of wave,
    and the noise variance at each SNR, mean(wave**2) / 10**(snr_db/10);
    None marks a noiseless entry (snr_db None or +inf).  The noise at
    an SNR is sqrt(variance) * draw.  The draw is None, and nothing is
    drawn, when every entry is noiseless.  An snr_db of -inf, noise with
    no signal, raises ValueError.
    """
    if any(snr_db == -math.inf for snr_db in snr_dbs):
        raise ValueError("snr_db must not be -inf")
    snrs = [None if snr_db is None or math.isinf(snr_db) else float(snr_db) for snr_db in snr_dbs]
    if all(snr_db is None for snr_db in snrs):
        return None, snrs
    draw = np.square(wave.samples)
    power = float(np.mean(draw))
    np.random.default_rng(seed).standard_normal(out=draw)
    return draw, [None if snr_db is None else power / 10.0 ** (snr_db / 10.0) for snr_db in snrs]


def sample_random_channel(
    max_delay: int,
    gamma_range: tuple[float, float] = (0.3, 0.9),
    path_count: int = 6,
    seed: int = 0,
) -> ChannelModel:
    """Draw a random channel: uniform gamma, distinct random echo delays.

    path_count counts the main path, so path_count - 1 echo delays are
    drawn without replacement from 1..max_delay and attenuated by the
    exponential law.
    """
    if path_count > max_delay + 1:
        raise ValueError("path_count exceeds available delay slots")
    if path_count < 1:
        raise ValueError("need at least the main path")
    rng = np.random.default_rng(seed)
    gamma = float(rng.uniform(*gamma_range))
    paths = [(0, 1.0)]
    if path_count > 1:
        delays = np.sort(rng.choice(np.arange(1, max_delay + 1), size=path_count - 1, replace=False))
        paths += [(int(d), attenuation_from_delay(gamma, float(d))) for d in delays]
    return ChannelModel(paths=tuple(paths), max_delay=max_delay)
