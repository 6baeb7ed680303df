"""Chaotic shape-forming-filter (CSF) baseband waveforms.

A binary symbol stream drives a fixed shaping pulse whose support extends
backwards in time (an exponentially growing oscillatory tail) and ends
exactly one symbol period after the symbol instant.  The key property of
the resulting waveform is that its time-averaged autocorrelation equals
the autocorrelation of the shaping pulse itself, independent of the
encoded symbols.

All times are normalised: the base frequency is 1, so one symbol period
is one time unit, and delays/lags are expressed in symbol periods.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "CsfParams",
    "Waveform",
    "base_pulse",
    "sample_base_pulse",
    "encode_waveform",
    "random_symbols",
    "theoretical_acf",
    "pulse_acf",
    "authoritative_acf_table",
]

# amplitude below which the truncated pulse tail is considered negligible
_TAIL_AMPLITUDE = 1e-6


@dataclass(frozen=True)
class CsfParams:
    """Shaping-pulse parameters.

    beta         exponential decay rate per symbol period, 0 < beta <= ln 2
    oversampling samples per symbol period (>= 8)

    The t < 0 tail is truncated at pulse_tail symbol periods, the depth
    where its envelope drops below 1e-6; it grows as 1/beta.
    """

    beta: float = math.log(2.0)
    oversampling: int = 16

    def __post_init__(self):
        if not (0.0 < self.beta <= math.log(2.0) + 1e-12):
            raise ValueError(f"beta must satisfy 0 < beta <= ln2, got {self.beta}")
        ns = self.oversampling
        if isinstance(ns, bool) or not isinstance(ns, numbers.Integral) or ns < 8:
            raise ValueError(f"oversampling must be an integer >= 8, got {self.oversampling}")
        object.__setattr__(self, "oversampling", int(ns))  # the encode needs int.bit_length

    @property
    def pulse_tail(self) -> int:
        """Truncation depth of the t < 0 tail, in symbol periods."""
        return math.ceil(math.log(1.0 / _TAIL_AMPLITUDE) / self.beta)


@dataclass(frozen=True)
class Waveform:
    """Uniformly sampled real signal.

    Sample n sits n / samples_per_symbol symbol periods after the first.
    Where the first sits is not recorded: the grid of encode_waveform,
    and of the channel outputs built on it, starts at -pulse_tail.
    """

    samples: np.ndarray
    samples_per_symbol: int

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("samples must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(arr)):
            raise ValueError("samples must all be finite")
        ns = self.samples_per_symbol
        if isinstance(ns, bool) or not isinstance(ns, numbers.Integral) or ns < 1:
            raise ValueError(f"samples_per_symbol must be a positive integer, got {ns!r}")
        object.__setattr__(self, "samples", arr)
        object.__setattr__(self, "samples_per_symbol", int(ns))  # slice steps and bounds need int

    def __len__(self) -> int:
        return self.samples.size


def base_pulse(t, params: CsfParams = CsfParams()):
    """Evaluate the shaping pulse.

    Three branches: an exponentially growing oscillatory tail for t < 0,
    a plateau branch on 0 <= t < 1, and identically zero for t >= 1.
    Accepts scalars or arrays; raises ValueError on non-finite input.
    """
    t_arr = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t_arr)):
        raise ValueError("pulse argument must be finite")
    beta, w = params.beta, 2.0 * math.pi
    trig = np.cos(w * t_arr) - (beta / w) * np.sin(w * t_arr)
    # exp arguments clipped to the support; the t >= 1 branch is zero anyway
    t_clip = np.minimum(t_arr, 1.0)
    tail = (1.0 - np.exp(-beta)) * np.exp(beta * t_clip) * trig
    plateau = 1.0 - np.exp(beta * (t_clip - 1.0)) * trig
    out = np.where(t_arr < 0.0, tail, np.where(t_arr < 1.0, plateau, 0.0))
    if np.isscalar(t) or t_arr.ndim == 0:
        return float(out)
    return out


def sample_base_pulse(params: CsfParams = CsfParams()) -> Waveform:
    """Sample the truncated pulse on its support [-pulse_tail, 1) at
    params.oversampling samples per symbol period."""
    ns = params.oversampling
    idx = np.arange(-params.pulse_tail * ns, ns)
    return Waveform(base_pulse(idx / ns, params), ns)


def _next_fast_len(n: int) -> int:
    """Smallest 5-smooth integer (2^a 3^b 5^c) that is >= n, n >= 1.

    The padded length fftconvolve picks for real transforms, so the
    spectra below have exactly its sizes.
    """
    best = 1 << (n - 1).bit_length()
    f5 = 1
    while f5 < best:
        f35 = f5
        while f35 < best:
            # f35 * 2^k with the fewest doublings that reach n
            best = min(best, f35 << (-(-n // f35) - 1).bit_length())
            f35 *= 3
        f5 *= 5
    return best


@lru_cache(maxsize=1)
def _pulse_spectrum(params: CsfParams, n_fft: int) -> np.ndarray:
    """Real FFT of the sampled pulse zero-padded to n_fft (read-only).

    Each experiment encodes its frames in runs of one length: the length
    sweep runs its frames largest first, so unless two of its lengths lie
    within max_delay symbols of each other, one entry misses once per
    length, as more entries would, and holds no spectrum of a length
    already done.
    """
    spectrum = np.fft.rfft(sample_base_pulse(params).samples, n_fft)
    spectrum.flags.writeable = False
    return spectrum


def encode_waveform(stream, params: CsfParams = CsfParams()) -> Waveform:
    """Superpose one symbol-shifted shaping pulse per symbol of stream, a
    nonempty 1-d sequence of exact -1s and +1s (anything else: ValueError).

    The output grid covers [-pulse_tail, n_symbols) symbol periods at the
    configured oversampling, so it contains the leading tail of the first
    symbols and ends where the last pulse vanishes.  The convolution of
    the symbol impulse train with the sampled pulse runs in the frequency
    domain with fftconvolve's padding and product, so the samples equal
    scipy.signal.fftconvolve's bit for bit.
    """
    symbols = np.asarray(stream, dtype=float)
    if symbols.ndim != 1 or symbols.size < 1 or not np.all(np.abs(symbols) == 1.0):
        raise ValueError("symbols must be a nonempty 1-d sequence of exact -1s and +1s")
    ns = params.oversampling
    n_sym = symbols.size
    n_out = (n_sym + params.pulse_tail) * ns
    n_fft = _next_fast_len(n_out + ns - 1)  # full convolution length
    # the cached spectrum is built before the frame's buffers, so it sits
    # below them on the heap and their freed space stays one block
    pulse = _pulse_spectrum(params, n_fft)
    train = np.zeros(n_fft)
    train[: n_sym * ns : ns] = symbols
    spectrum = np.fft.rfft(train)
    spectrum *= pulse
    np.fft.irfft(spectrum, n_fft, out=train)  # the train becomes the output
    return Waveform(train[:n_out], ns)


def random_symbols(n: int, seed: int) -> np.ndarray:
    """n iid equiprobable +-1 symbols from a PCG64 generator, as floats."""
    if n < 1:
        raise ValueError("need at least one symbol")
    return np.random.default_rng(seed).choice((-1.0, 1.0), size=n)


def theoretical_acf(lag, params: CsfParams = CsfParams()):
    """Closed-form autocorrelation of the shaping pulse.

    Valid at integer lags only, where the tests check it against the
    defining integral (pulse_acf); even in the lag.  At lag 0 it gives
    the waveform power, elsewhere an exponentially decaying negative
    value.
    """
    beta, w = params.beta, 2.0 * math.pi
    eta = np.abs(np.asarray(lag, dtype=float))
    if not np.all(np.isfinite(eta)):
        raise ValueError("lag must be finite")
    i0 = 1.0 + (1.0 - np.exp(-beta)) * (w * w - 3.0 * beta * beta) / (
        2.0 * beta * (w * w + beta * beta)
    )
    side = np.exp((1.0 - eta) * beta) * (1.0 - np.exp(-beta)) * (1.0 - i0) / 2.0
    out = np.where(eta == 0.0, i0, side)
    if np.isscalar(lag) or np.asarray(lag).ndim == 0:
        return float(out)
    return out


def pulse_acf(lag, params: CsfParams = CsfParams(), oversampling: int = 256):
    """Autocorrelation of the shaping pulse by direct numerical integration.

    Trapezoidal rule over the truncated support at the given resolution.
    Works at arbitrary finite real lags; this is the route for the
    fractional lags of fig2's trace, where the closed form does not
    apply, and the defining integral the tests check the closed form
    against.  Its cost grows with the pulse tail, as 1/beta.

    The lagged pulse is not sampled per lag.  Lags that share the
    fractional part of lag*oversampling, and whose windows overlap, read
    slices of one sampling on the union of their windows.  At a
    power-of-two oversampling each grid point is the float sum a per-lag
    sampling rounds, so the values are those of the per-lag integral bit
    for bit; elsewhere they may differ in the last bits.
    """
    lag_arr = np.atleast_1d(np.asarray(lag, dtype=float))
    if not np.all(np.isfinite(lag_arr)):
        raise ValueError("lag must be finite")
    dt = 1.0 / oversampling
    lo, hi = -params.pulse_tail * oversampling, oversampling + 1
    n = hi - lo
    p0 = base_pulse(np.arange(lo, hi) * dt, params)
    lags = lag_arr.tolist()
    groups: dict[float, list[int]] = {}
    for i, frac in enumerate(np.modf(lag_arr * oversampling)[0].tolist()):
        groups.setdefault(frac, []).append(i)
    runs = []  # (lag index, grid offset) pairs that share one sampling
    for members in groups.values():
        members.sort(key=lags.__getitem__)
        run = [(members[0], 0)]
        runs.append(run)
        for i in members[1:]:
            # a whole step count, exact at a power-of-two oversampling
            steps = (lags[i] - lags[run[0][0]]) * oversampling
            if steps - run[-1][1] >= n:  # disjoint windows: sample afresh
                run = [(i, 0)]
                runs.append(run)
            else:
                run.append((i, round(steps)))
    vals = np.empty(lag_arr.shape)
    for run in runs:
        grid = base_pulse(np.arange(lo, hi + run[-1][1]) * dt + lags[run[0][0]], params)
        for i, offset in run:
            vals[i] = np.trapezoid(p0 * grid[offset : offset + n], dx=dt)
    if np.isscalar(lag) or np.asarray(lag).ndim == 0:
        return float(vals[0])
    return vals


def authoritative_acf_table(params: CsfParams = CsfParams(), max_lag: int = 10) -> np.ndarray:
    """Pulse ACF at integer lags 0..max_lag, from the closed form.

    The known transmit-side ACF that the identification equations
    consume: theoretical_acf at each integer lag, a fresh array per call.
    The tests hold it to the defining integral (pulse_acf) over
    0 < beta <= ln 2; no run evaluates the integral for it.
    """
    return theoretical_acf(np.arange(max_lag + 1.0), params)
