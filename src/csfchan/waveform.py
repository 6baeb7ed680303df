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
    "encode_waveform",
    "random_symbols",
    "pulse_acf",
    "authoritative_acf_table",
]

# amplitude below which the truncated pulse tail is considered negligible
_TAIL_AMPLITUDE = 1e-6


def _is_integer(value, low=-math.inf) -> bool:
    """Whether value is an integer of at least low; a bool is no integer."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= low


def _check_integer(name: str, value, low: int) -> int:
    """value as an int; ValueError naming the argument unless it is an
    integer of at least low."""
    if not _is_integer(value, low):
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


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
        ns = _check_integer("oversampling", self.oversampling, 8)
        object.__setattr__(self, "oversampling", ns)  # the encode needs int.bit_length

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
        ns = _check_integer("samples_per_symbol", self.samples_per_symbol, 1)
        arr = np.asarray(self.samples, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("samples must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(arr)):
            raise ValueError("samples must all be finite")
        object.__setattr__(self, "samples", arr)
        object.__setattr__(self, "samples_per_symbol", ns)  # slice steps and bounds need int

    def __len__(self) -> int:
        return self.samples.size


def base_pulse(t, params: CsfParams):
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
    """Real FFT of the pulse sampled on its support [-pulse_tail, 1) at
    params.oversampling samples per symbol, zero-padded to n_fft (read-only).

    encode_waveform reads it for the two sweeps alone, ls_chaos probes
    included, and each encodes its frames in runs of one length: the length
    sweep runs its frames largest first, so unless two of its lengths lie
    within max_delay symbols of each other, one entry misses once per
    length, as more entries would, and holds no spectrum of a length
    already done.
    """
    ns = params.oversampling
    spectrum = np.fft.rfft(base_pulse(np.arange(-params.pulse_tail * ns, ns) / ns, params), n_fft)
    spectrum.flags.writeable = False
    return spectrum


def encode_waveform(stream, params: CsfParams) -> Waveform:
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


def _amplitude_pieces(amplitudes, params: CsfParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The symbol-rate pieces (c, T, shapes) of encode_waveform's frame of
    any real symbol-rate amplitudes a: the pulse oscillates with a period of
    one symbol, so sample r of symbol period q, q over [-pulse_tail, n), is
    c_q A_r + T_q B_r.  c is a after pulse_tail zeros; shapes stacks A, the
    pulse's last period, and B, the one before it over e^-beta; the tail
    sum T_q = sum_{j=1..pulse_tail} e^(-beta j) c_(q+j) is one symbol-rate
    FFT at any beta.
    """
    amps = np.asarray(amplitudes, dtype=float)
    ns, tail = params.oversampling, params.pulse_tail
    before, last = base_pulse(np.arange(-ns, ns) / ns, params).reshape(2, ns)
    shapes = np.stack([last, before / math.exp(-params.beta)])  # A, B
    n_out = amps.size + tail
    n_fft = _next_fast_len(n_out)
    # the amplitudes over [-tail, n); the leading zeros take the wrap of the
    # circular correlation below
    padded = np.zeros(n_fft)
    padded[tail:n_out] = amps
    weights = np.exp(-params.beta * np.arange(tail + 1.0))
    weights[0] = 0.0
    spectrum = np.fft.rfft(padded)
    spectrum *= np.fft.rfft(weights, n_fft).conj()
    return padded[:n_out], np.fft.irfft(spectrum, n_fft)[:n_out], shapes


def _encode_amplitudes(amplitudes, params: CsfParams) -> Waveform:
    """encode_waveform's frame of any real symbol-rate amplitudes, built at
    symbol rate from _amplitude_pieces.  The tests hold it to
    encode_waveform within 1e-13 max|frame|.
    """
    c, tails, shapes = _amplitude_pieces(amplitudes, params)
    # one (n_out, 2) @ (2, ns) product writes the frame, with no temporary of its size
    return Waveform((np.stack([c, tails], 1) @ shapes).ravel(), params.oversampling)


def random_symbols(n: int, seed: int) -> np.ndarray:
    """n iid equiprobable +-1 symbols from a PCG64 generator, as floats."""
    n = _check_integer("n", n, 1)
    return np.random.default_rng(_check_integer("seed", seed, 0)).choice((-1.0, 1.0), size=n)


def pulse_acf(lag, params: CsfParams, oversampling: int = 256):
    """Autocorrelation of the shaping pulse at finite real lags: the
    trapezoid of its defining integral over the truncated support, at
    oversampling points per symbol period, summed in closed form.  A
    scalar lag gives a float, a 1-d array of lags an array.

    On the grid t_i = -tail + i/os, i = 0..N-1, each pulse branch is
    level + Re[X e^(s t_i)] with s = beta + 2 pi i: the tail (level 0)
    before the symbol instant, the plateau (level 1) for one symbol
    period, zero after.  Where both factors of the integrand are nonzero
    (at most four index ranges per lag) their product is a sum of
    geometric series in z = e^(s/os), z^2 and |z|^2, taken with expm1.
    Every phase is reduced exactly first (2 pi i/os from i mod os, the
    lag's from its fractional part).  The cost is one pass over the lags
    at any beta; the tests hold it to the sampled integrand's trapezoid.
    """
    _check_integer("oversampling", oversampling, 1)
    lags = np.atleast_1d(np.asarray(lag, dtype=float))
    if lags.ndim != 1:
        raise ValueError(f"lag must be a scalar or a 1-d array, got shape {lags.shape}")
    if not np.all(np.isfinite(lags)):
        raise ValueError("lag must be finite")
    beta, os_ = params.beta, oversampling
    tail = params.pulse_tail * os_  # index of the symbol instant t = 0
    shape = 1.0 + 1j * beta / (2.0 * math.pi)
    x = np.array([(1.0 - math.exp(-beta)) * shape, -math.exp(-beta) * shape])  # tail, plateau
    level = np.array([0.0, 1.0])

    def geometric(k, n):
        """sum_{j<n} z^(k j) for integers n >= 0."""
        return np.expm1(k * beta * n / os_ + 2j * math.pi * ((k * n) % os_) / os_) / np.expm1(
            k * beta / os_ + 2j * math.pi * (k % os_) / os_
        )

    # index ranges [lo, hi) per lag (axis 0), branch of p(t_i) (axis 1) and
    # branch of p(t_i + lag) (axis 2); the lagged plateau starts at index
    # start, clipped where the ranges stay as they are (empty or whole)
    start = np.clip(np.ceil(tail - lags * os_), -os_, tail + os_).astype(np.int64)
    lo = np.maximum(np.array([0, tail])[:, None], np.stack([np.zeros_like(start), start], axis=-1)[:, None])
    hi = np.minimum(np.array([tail, tail + os_])[:, None], np.stack([start, start + os_], axis=-1)[:, None])
    n = np.maximum(hi - lo, 0)
    t = (lo - tail) / os_  # t_i at the start of each range
    phase = 2.0 * math.pi * (lo % os_) / os_
    p = x[:, None] * np.exp(beta * t + 1j * phase)
    # the lagged pulse ends at t = 1: capping the exponent there leaves
    # every range with n > 0 as it is and keeps inf out of the empty ones
    lagged_phase = phase + 2.0 * math.pi * np.modf(lags)[0][:, None, None]
    q = x * np.exp(beta * np.minimum(t + lags[:, None, None], 1.0) + 1j * lagged_phase)
    g1 = geometric(1, n)
    h = np.expm1(2.0 * beta * n / os_) / np.expm1(2.0 * beta / os_)
    sums = (
        level[:, None] * level * n
        + level[:, None] * (q * g1).real
        + level * (p * g1).real
        + 0.5 * (p * q * geometric(2, n)).real
        + 0.5 * (p * q.conj()).real * h
    )
    # the trapezoid halves its end points: f_(N-1) = 0 as p(1) = 0
    t0 = -float(params.pulse_tail)
    f0 = base_pulse(t0, params) * base_pulse(t0 + lags, params)
    vals = (sums.sum(axis=(1, 2)) - 0.5 * f0) / os_
    return float(vals[0]) if np.ndim(lag) == 0 else vals


def authoritative_acf_table(params: CsfParams, max_lag: int) -> np.ndarray:
    """Pulse ACF at integer lags 0..max_lag, in closed form, a fresh array
    per call: the waveform power at lag 0, an exponentially decaying
    negative value elsewhere.

    The known transmit-side ACF that the identification equations
    consume.  The closed form holds at integer lags only; off the grid
    the trapezoid of the defining integral (pulse_acf) takes over, as in
    fig2's trace.  The tests hold the table to that integral over
    0 < beta <= ln 2.
    """
    max_lag = _check_integer("max_lag", max_lag, 0)
    beta, w = params.beta, 2.0 * math.pi
    i0 = 1.0 + (1.0 - np.exp(-beta)) * (w * w - 3.0 * beta * beta) / (2.0 * beta * (w * w + beta * beta))
    table = np.exp((1.0 - np.arange(max_lag + 1.0)) * beta) * (1.0 - np.exp(-beta)) * (1.0 - i0) / 2.0
    table[:1] = i0
    return table
