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

from .waveform import Waveform, _check_integer

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
               increasing integer delays starting at (0, 1.0); each
               attenuation finite and nonnegative
    max_delay  largest integer delay the receiver searches (tap count - 1)

    The attenuations are taken as given; sample_random_channel and fig2
    draw them from the law exp(-gamma * delay) with one gamma per channel.
    """

    paths: tuple[tuple[int, float], ...]
    max_delay: int

    def __post_init__(self):
        max_delay = _check_integer("max_delay", self.max_delay, 0)
        paths = tuple((_check_integer("delay", d, 0), float(a)) for d, a in self.paths)
        delays = [d for d, _ in paths]
        if not paths:
            raise ValueError("channel needs at least the main path")
        if delays[0] != 0:
            raise ValueError("main path must be at delay 0")
        if any(d2 <= d1 for d1, d2 in zip(delays, delays[1:])):
            raise ValueError("delays must be strictly increasing")
        if paths[0][1] != 1.0:
            raise ValueError("main-path attenuation must be 1")
        if not all(0.0 <= a < math.inf for _, a in paths):
            raise ValueError("attenuations must be finite and nonnegative")
        if delays[-1] > max_delay:
            raise ValueError(f"delay {delays[-1]} exceeds max_delay {max_delay}")
        object.__setattr__(self, "paths", paths)
        object.__setattr__(self, "max_delay", max_delay)

    @property
    def delays(self) -> np.ndarray:
        return np.array([d for d, _ in self.paths], dtype=int)

    @property
    def attenuations(self) -> np.ndarray:
        return np.array([a for _, a in self.paths])

    @property
    def taps(self) -> np.ndarray:
        """Dense tap vector h = (alpha_0, ..., alpha_max_delay): each path's
        attenuation at its delay, 0 elsewhere, the main tap alpha_0 = 1 first."""
        h = np.zeros(self.max_delay + 1)
        h[self.delays] = self.attenuations
        return h


def attenuation_from_delay(gamma: float, tau: float) -> float:
    """Attenuation exp(-gamma * tau) of an echo delayed by tau."""
    if not 0 <= tau < math.inf:
        raise ValueError("delay must be finite and nonnegative")
    if not 0 < gamma < math.inf:
        raise ValueError("damping coefficient must be finite and positive")
    return math.exp(-gamma * tau)


def apply_multipath(wave: Waveform, ch: ChannelModel) -> Waveform:
    """The channel output, the sum over paths of gain times the frame delayed
    by the path's delay; length grows by the largest delay.  Each sample adds
    each path's scaled sample to 0.0 in path order, the main path first."""
    ns = wave.samples_per_symbol
    n = len(wave)
    out = np.zeros(n + int(ch.delays[-1]) * ns)
    for d, a in ch.paths:
        out[d * ns : d * ns + n] += a * wave.samples
    return Waveform(out, ns)


def _noisy(clean: np.ndarray, unit: np.ndarray, sigma2: float | None, out=None) -> np.ndarray:
    """clean + sqrt(sigma2) * unit, written into out (unit scales in place),
    the frame received at noise variance sigma2; clean when sigma2 is None."""
    if sigma2 is None:
        return clean
    noisy = np.multiply(unit, math.sqrt(sigma2), out=out)
    noisy += clean
    return noisy


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
    return Waveform(_noisy(wave.samples, draw, sigma2, out=draw), wave.samples_per_symbol), sigma2


def _snr_ratio(snr_db) -> float | None:
    """The power ratio 10**(snr_db/10) of an SNR in dB; None for the
    noiseless None or +inf.  A finite SNR whose ratio overflows a float or
    rounds to 0, so that it gives no noise variance, raises ValueError:
    the usable finite SNRs run from about -3236 to 3082.5 dB."""
    if snr_db is None or snr_db == math.inf:
        return None
    try:
        ratio = 10.0 ** (float(snr_db) / 10.0)
    except OverflowError:
        ratio = math.inf
    if not 0.0 < ratio < math.inf:
        raise ValueError(
            f"SNR {snr_db!r} dB gives no noise variance: 10**(snr_db/10) "
            f"{'overflows' if ratio else 'rounds to 0'}, usable SNRs run from -3236 to 3082.5 dB"
        )
    return ratio


def awgn_law(wave: Waveform, snr_dbs, seed: int) -> tuple[np.ndarray | None, list[float | None]]:
    """The noise law of add_awgn over the SNRs of a sweep.

    Returns the seeded standard-normal draw, one value per sample of wave,
    and the noise variance at each SNR, mean(wave**2) / 10**(snr_db/10);
    None marks a noiseless entry (snr_db None or +inf).  The noise at
    an SNR is sqrt(variance) * draw.  The draw is None, and nothing is
    drawn, when every entry is noiseless.  An snr_db of -inf, noise with
    no signal, or NaN raises ValueError, as does a finite SNR outside the
    usable range of _snr_ratio, and so does a seed that is no integer >= 0.
    """
    seed = _check_integer("seed", seed, 0)
    if not all(snr_db is None or snr_db > -math.inf for snr_db in snr_dbs):
        raise ValueError(f"snr_db must be a number above -inf, got {list(snr_dbs)}")
    ratios = [_snr_ratio(snr_db) for snr_db in snr_dbs]
    if all(ratio is None for ratio in ratios):
        return None, ratios
    draw = np.square(wave.samples)
    power = float(np.mean(draw))
    np.random.default_rng(seed).standard_normal(out=draw)
    return draw, [None if ratio is None else power / ratio for ratio in ratios]


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
    max_delay = _check_integer("max_delay", max_delay, 0)
    if _check_integer("path_count", path_count, 1) > max_delay + 1:
        raise ValueError("path_count exceeds available delay slots")
    rng = np.random.default_rng(_check_integer("seed", seed, 0))
    gamma = float(rng.uniform(*gamma_range))
    paths = [(0, 1.0)]
    if path_count > 1:
        delays = np.sort(rng.choice(np.arange(1, max_delay + 1), size=path_count - 1, replace=False))
        paths += [(int(d), attenuation_from_delay(gamma, float(d))) for d in delays]
    return ChannelModel(paths=tuple(paths), max_delay=max_delay)
