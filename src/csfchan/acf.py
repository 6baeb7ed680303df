"""Autocorrelation estimation and the receive-side ACF prediction.

empirical_acf measures the time-averaged autocorrelation of a sampled
waveform on the integer-lag grid; predicted_rx_acf evaluates what that
estimate converges to for a multipath channel, from the known transmit
ACF and the channel taps alone.
"""

from __future__ import annotations

import numpy as np

from .channel import ChannelModel
from .waveform import CsfParams, Waveform, _check_integer, authoritative_acf_table, pulse_acf

__all__ = [
    "empirical_acf",
    "empirical_acf_trace",
    "predicted_rx_acf",
    "predicted_rx_acf_trace",
]


# OpenBLAS's two-thread ddot splits a product of more terms than this into
# two halves; the reference outputs were summed that way
_DOT_SPLIT = 10000


def _lagged_products(x: np.ndarray, y: np.ndarray, shifts: range) -> np.ndarray:
    """sum_n x[n] y[n + j] over the overlap 0 <= n < min(len(x), len(y) - j)
    at each shift j >= 0 of shifts, along the last axis; 0 where x and y do
    not overlap.  Over any leading batch axes of x and y, with the shifts
    on a new last axis.

    A shift with m <= 10000 overlapping products is one dot product per
    row (np.vecdot takes each as np.dot does); a longer one is the sum of
    the dot products of its first ceil(m/2) terms and of the rest, the
    order of OpenBLAS's two-thread ddot.  On the one pinned BLAS thread the
    sums then depend neither on OPENBLAS_NUM_THREADS nor on the core count.
    """
    sums = np.empty(np.broadcast_shapes(x.shape[:-1], y.shape[:-1]) + (len(shifts),))
    for i, j in enumerate(shifts):
        yj = y[..., j : j + x.shape[-1]]  # the m overlapping samples of y
        m = yj.shape[-1]
        if m > _DOT_SPLIT:
            h = (m + 1) // 2
            sums[..., i] = np.vecdot(yj[..., :h], x[..., :h]) + np.vecdot(yj[..., h:], x[..., h:m])
        else:
            sums[..., i] = np.vecdot(yj, x[..., :m])
    return sums


def _check_acf_length(n_samples: int, ns: int, max_lag: int) -> None:
    _check_integer("max_lag", max_lag, 0)
    if n_samples <= (max_lag + 1) * ns:
        raise ValueError(f"waveform too short for max_lag={max_lag}: {n_samples} samples")


def empirical_acf(wave: Waveform, max_lag: int) -> np.ndarray:
    """Biased time-averaged ACF at integer lags 0..max_lag.

    acf[k] = (1/N) * sum_n x[n + k*Ns] x[n] with N the total sample
    count (fixed divisor, so the estimate is biased but low-variance).
    With one time unit per symbol period this estimates the per-unit-time
    autocorrelation, directly comparable to the pulse ACF.
    """
    _check_acf_length(len(wave), wave.samples_per_symbol, max_lag)
    ns, x = wave.samples_per_symbol, wave.samples
    return _lagged_products(x, x, range(0, max_lag * ns + 1, ns)) / len(x)


def empirical_acf_trace(wave: Waveform, max_lag: int) -> tuple[np.ndarray, np.ndarray]:
    """ACF at every sample lag 0..max_lag*Ns (fractional-lag plot trace)."""
    _check_acf_length(len(wave), wave.samples_per_symbol, max_lag)
    ns, x = wave.samples_per_symbol, wave.samples
    return np.arange(max_lag * ns + 1) / ns, _lagged_products(x, x, range(max_lag * ns + 1)) / len(x)


def _pieces_acf_trace(pieces: tuple[np.ndarray, np.ndarray, np.ndarray], max_lag: int) -> np.ndarray:
    """empirical_acf_trace's ACF values, at every sample lag 0..max_lag*Ns,
    of the frame _encode_amplitudes builds from pieces
    (waveform._amplitude_pieces), taken from the pieces with no frame built.

    Sample r of symbol period q of the frame is c_q A_r + T_q B_r, so at
    lag k*Ns + s, 0 <= s < Ns, its lagged sum is, over the pairs of (c, A)
    and (T, B) taken as (u, X) and (v, Y), sum G(s) C(k) + H(s) C(k+1):
    the symbol-rate sums C(j) = sum_q u_q v_(q+j) times the shape sums
    G(s) = sum_(r < Ns-s) X_r Y_(r+s) and H(s) = sum_(r >= Ns-s) X_r Y_(r+s-Ns).
    H(0) = 0, so each integer lag k is G(0) C(k) summed over the pairs.
    """
    c, tails, shapes = pieces
    ns = shapes.shape[1]
    _check_acf_length(c.size * ns, ns, max_lag)
    k, s = np.divmod(np.arange(max_lag * ns + 1), ns)
    acf = np.zeros(k.size)
    for u, x in zip((c, tails), shapes):
        for v, y in zip((c, tails), shapes):
            sums = _lagged_products(u, v, range(max_lag + 2))
            acf += _lagged_products(x, y, range(ns))[s] * sums[k]
            acf += _lagged_products(y, x, range(ns, 0, -1))[s] * sums[k + 1]
    return acf / (c.size * ns)


def _lag_weights(r_xx: np.ndarray, n_lags: int, n_taps: int, stride: int) -> np.ndarray:
    """W with the receive ACF at lag k = sum_d c[d] W[d, k] for the tap
    correlation c of taps one stride apart: row 0 is r_xx[k], row d is
    r_xx[|k - d*stride|] + r_xx[k + d*stride]."""
    k = np.arange(n_lags)
    shift = stride * np.arange(n_taps)[:, None]
    weights = r_xx[np.abs(k - shift)] + r_xx[k + shift]
    weights[0] = r_xx[k]
    return weights


def _expand(taps: np.ndarray, weights: np.ndarray, noise_var) -> np.ndarray:
    """sum_d c[d] weights[d] for the tap correlation c[d] = sum_i a_i a_{i+d}
    of the taps a_0..a_M, plus noise_var at lag 0; over any leading batch
    axes of taps and noise_var.  Each c[d] is one dot product of
    _lagged_products, and reducing the row axis adds the rows one by one,
    in order, as the loop model = c[0]*W[0]; model += c[d]*W[d] does."""
    c = _lagged_products(taps, taps, range(taps.shape[-1]))
    values = np.add.reduce(c[..., None] * weights, axis=-2)
    values[..., 0] += noise_var
    return values


def _rx_model(ch: ChannelModel, noise_var: float, transmit_acf, n_lags: int, stride: int) -> np.ndarray:
    """Receive ACF of ch at the first n_lags points of a lag grid of stride
    points per symbol period from lag 0: the transmit ACF on that grid,
    transmit_acf(n) at its first n points, taken past the largest delay and
    weighted by the tap correlation, plus noise_var at lag 0.  The noise
    variance is checked before the transmit ACF is built."""
    if not 0.0 <= noise_var < np.inf:
        raise ValueError(f"noise variance must be finite and nonnegative, got {noise_var!r}")
    taps = ch.taps[: int(ch.delays[-1]) + 1]
    r_xx = transmit_acf(n_lags + (taps.size - 1) * stride)
    return _expand(taps, _lag_weights(r_xx, n_lags, taps.size, stride), noise_var)


def predicted_rx_acf(ch: ChannelModel, noise_var: float, params: CsfParams, max_lag: int) -> np.ndarray:
    """Receive-side ACF at integer lags 0..max_lag implied by the channel taps.

    Sums, per lag eta: (i) the transmit ACF scaled by the total tap power,
    (ii) the noise variance at lag 0 only, (iii) main-path cross terms at
    eta +- delay, and (iv) echo-pair cross terms at eta + delay
    differences.  The transmit ACF is extended evenly to negative lags.
    """
    max_lag = _check_integer("max_lag", max_lag, 0)
    return _rx_model(ch, noise_var, lambda n: authoritative_acf_table(params, max_lag=n - 1), max_lag + 1, 1)


def predicted_rx_acf_trace(
    ch: ChannelModel, noise_var: float, params: CsfParams, max_lag: int
) -> tuple[np.ndarray, np.ndarray]:
    """Receive-side ACF on the fractional-lag grid.

    Same expansion as predicted_rx_acf but evaluated with the trapezoid
    of the defining integral (pulse_acf), summed in closed form at a cost
    independent of beta: the valid route off the integer grid.  The
    white-noise term contributes only at exactly lag 0.
    """
    max_lag = _check_integer("max_lag", max_lag, 0)
    ns = params.oversampling
    values = _rx_model(ch, noise_var, lambda n: pulse_acf(np.arange(n) / ns, params), max_lag * ns + 1, ns)
    return np.arange(max_lag * ns + 1) / ns, values
