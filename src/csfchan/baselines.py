"""Non-blind least-squares channel estimation baselines.

Both baselines know the transmitted probe and regress the received
signal on integer-symbol-shifted copies of it.  The Gaussian probe is
white at the sample rate (the classical optimum under white noise); the
chaotic probe is a shaped waveform whose information lives at the symbol
rate, so its frame is taken at symbol-instant samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .acf import _lagged_products
from .channel import ChannelModel, add_awgn, apply_multipath, awgn_law
from .waveform import CsfParams, Waveform, encode_waveform, random_symbols

__all__ = [
    "ProbeFrame",
    "LsEstimate",
    "ls_estimate",
    "ls_sweep",
    "gaussian_probe",
    "gaussian_probe_frame",
    "symbol_instants",
    "chaotic_probe_frame",
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
    degenerate True when the probe's Gram matrix was rank deficient
    """

    alpha_hat: np.ndarray
    degenerate: bool


def _solve_normal(probe: Waveform, frames: list[np.ndarray], max_delay: int) -> tuple[list[np.ndarray], bool]:
    """ls_estimate's taps for each received array of frames, on the probe's grid, from one
    Gram matrix, and its degenerate flag.  One lstsq per array: a stacked right side moves bits."""
    if max_delay < 0:
        raise ValueError(f"max_delay must be nonnegative, got {max_delay}")
    x, ns = probe.samples, probe.samples_per_symbol
    shifts = range(0, (max_delay + 1) * ns, ns)
    k = np.arange(max_delay + 1)
    gram = _lagged_products(x, x, shifts)[np.abs(k[:, None] - k)]
    solves = [np.linalg.lstsq(gram, _lagged_products(x, y, shifts), rcond=None) for y in frames]
    return [solve[0] for solve in solves], bool(solves[0][2] < max_delay + 1)


def ls_estimate(frame: ProbeFrame, max_delay: int) -> LsEstimate:
    """Solve min || received - X alpha ||_2 over taps at delays 0..max_delay.

    X holds the probe shifted by whole symbol periods; it is never built.
    The solve goes through the normal equations (X^T X) alpha =
    X^T received.  X^T X is the Toeplitz matrix of the probe's
    full-overlap ACF at symbol lags, and X^T received the cross-correlation
    of the probe with the received frame at those lags; received samples
    past the probe plus max_delay symbol periods meet no shifted probe.
    numpy's SVD-based lstsq on the (max_delay+1)-square Gram matrix gives
    the minimum-norm solution and a rank.

    The normal equations square the condition number, so the relative
    error grows as cond(X)^2 eps rather than cond(X) eps (Golub & Van
    Loan, Matrix Computations, sec. 5.3).  The designs of this library
    are well conditioned: over beta in {0.02, 0.1, 0.3, ln 2},
    oversampling 8 and 16, 64 to 1024 symbols and both probes, cond(X)
    stays below 60 (largest for the chaotic probe at beta = 0.02), and
    the solution agrees with lstsq on X itself to a relative 2.1e-13.

    degenerate is the Gram matrix's rank below max_delay+1 at lstsq's
    default cutoff, eps * (max_delay+1) relative to its largest singular
    value: with the 11 taps of max_delay = 10 that flags
    cond(X) >~ 1 / sqrt(11 eps) ~ 2e7, where the normal equations have
    no correct digits left.
    """
    (solution,), degenerate = _solve_normal(frame.probe, [frame.received.samples], max_delay)
    return LsEstimate(alpha_hat=solution, degenerate=degenerate)


def ls_sweep(probe: Waveform, clean: Waveform, snr_dbs, seed: int, max_delay: int) -> tuple[np.ndarray, bool]:
    """ls_estimate at each SNR of a sweep, by linearity in the noise.

    probe is the known probe on the frame grid; clean is the noiseless
    full-rate channel output, which is taken onto the probe's grid (every
    clean.samples_per_symbol // probe.samples_per_symbol-th sample) as
    the frame functions take the received signal.  seed is the probe's
    seed as in gaussian_probe_frame and chaotic_probe_frame: the noise is
    add_awgn's at seed + 1 on the full-rate clean output.  The solve is
    linear in the received frame, pinv(X)(y + sigma n) = pinv(X) y +
    sigma pinv(X) n, so one Gram matrix with two right sides (clean
    frame, unit-noise frame) serves every SNR.  Returns the taps
    alpha_0..alpha_M per SNR, one row each (a noiseless row is the clean
    solve), and the degenerate flag, which depends on the probe alone.
    A probe grid that does not divide clean's, a clean frame shorter than
    the probe on its grid, or a negative max_delay raises ValueError.
    """
    ns, frame_ns = probe.samples_per_symbol, clean.samples_per_symbol
    if frame_ns % ns:
        raise ValueError(f"probe grid of {ns} samples per symbol does not divide the frame grid of {frame_ns}")
    step = frame_ns // ns
    frames = [clean.samples[::step]]
    if len(frames[0]) < len(probe):
        raise ValueError("received frame shorter than the probe")
    draw, sigma2s = awgn_law(clean, snr_dbs, seed + 1)
    if draw is not None:
        frames.append(draw[::step])
    (base, *unit), degenerate = _solve_normal(probe, frames, max_delay)
    rows = [base if sigma2 is None else base + math.sqrt(sigma2) * unit[0] for sigma2 in sigma2s]
    return np.array(rows).reshape(len(sigma2s), len(base)), degenerate


def gaussian_probe(n_symbols: int, samples_per_symbol: int, seed: int) -> Waveform:
    """White Gaussian probe at the sample rate."""
    rng = np.random.default_rng(seed)
    return Waveform(rng.normal(size=n_symbols * samples_per_symbol), samples_per_symbol)


def gaussian_probe_frame(
    n_symbols: int,
    samples_per_symbol: int,
    ch: ChannelModel,
    snr_db: float | None,
    seed: int,
) -> ProbeFrame:
    """White Gaussian probe at the sample rate through the channel."""
    probe = gaussian_probe(n_symbols, samples_per_symbol, seed)
    received, _ = add_awgn(apply_multipath(probe, ch), snr_db, seed + 1)
    return ProbeFrame(probe=probe, received=received)


def symbol_instants(wave: Waveform) -> Waveform:
    """The samples of wave at symbol instants: one sample per symbol period."""
    return Waveform(wave.samples[:: wave.samples_per_symbol], 1)


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
    received, _ = add_awgn(apply_multipath(probe_full, ch), snr_db, seed + 1)
    return ProbeFrame(probe=symbol_instants(probe_full), received=symbol_instants(received))
