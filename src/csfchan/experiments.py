"""Deterministic simulation experiments.

Four runnable experiments: the three-path ACF demonstration, the
MSE-vs-data-length sweep, the MSE-vs-SNR method comparison, and the
ACF-invariance demonstration.  Every experiment is a pure function of a
resolved configuration dict; per-trial randomness derives from the base
seed through a splitmix64 chain, so trials are independent,
parallel-safe, and reproducible regardless of the worker count.

Variance-reduction conventions baked into the sweeps: the same channel
suite is reused across sweep points and across methods, and SNR sweeps
reuse one noise draw per trial scaled to each SNR (common random
numbers), so curves differ only where the methods and operating points
genuinely differ.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass

import numpy as np

from .acf import _pieces_acf_trace, empirical_acf, empirical_acf_trace, predicted_rx_acf, predicted_rx_acf_trace
from .baselines import gaussian_probe, ls_sweep, symbol_instants
from .channel import (
    ChannelModel,
    _noisy,
    _snr_ratio,
    add_awgn,
    apply_multipath,
    attenuation_from_delay,
    awgn_law,
    sample_random_channel,
)
from .estimator import SolverOptions, solve_channels
from .waveform import CsfParams, Waveform, _amplitude_pieces, _encode_amplitudes, authoritative_acf_table
from .waveform import _TAIL_AMPLITUDE, _is_integer, encode_waveform, random_symbols

__all__ = [
    "ConfigError",
    "DEFAULT_CONFIG",
    "ExperimentResult",
    "derive_seed",
    "resolve_config",
    "interior_peak_lags",
    "expected_secondary_peaks",
    "run_fig2",
    "run_datalength_sweep",
    "run_snr_sweep",
    "run_invariance_demo",
]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(state: int) -> int:
    state = (state + _GOLDEN) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(base_seed: int, *indices: int) -> int:
    """Derive an independent child seed from a base seed and index path."""
    state = base_seed & _MASK64
    for ix in indices:
        state = _splitmix64(state ^ _splitmix64(ix & _MASK64))
    return state


def resolve_config(*layers: dict | None) -> dict:
    """Deep-merge user configuration layers, in order, over the defaults."""
    resolved = copy.deepcopy(DEFAULT_CONFIG)
    for layer in layers:
        if layer is not None:
            _merge(resolved, layer)
    return resolved


class ConfigError(ValueError):
    """User input or a resolved configuration that cannot run, raised before any work."""


def _merge(base: dict, extra, section: str | None = None) -> None:
    """Merge extra into base in place, refusing a key or shape base has no
    place for, or a value that JSON cannot hold (a YAML date, a set)."""
    if not isinstance(extra, dict):
        what = "document" if section is None else f"section {section!r}"
        raise ConfigError(f"config {what} must be a mapping, got {extra!r}")
    for key, value in extra.items():
        name = key if section is None else f"{section}.{key}"
        if key not in base:
            raise ConfigError(f"unknown config key: {name!r}")
        if isinstance(base[key], dict):
            _merge(base[key], value, name)
        elif isinstance(value, dict):
            raise ConfigError(f"config key {name!r} takes a value, not a mapping, got {value!r}")
        else:
            try:  # the recorded config is JSON: the hash and the sidecar hold every value
                json.dumps(value, sort_keys=True)
            except (TypeError, ValueError):
                raise ConfigError(f"config key {name!r} takes a value JSON can hold, got {value!r}") from None
            base[key] = value


_SNR_METHODS = ("blind_acf", "ls_gaussian", "ls_chaos")


def _is_count(value, low: int = 1) -> bool:
    return _is_integer(value, low)


def _is_real(value) -> bool:
    # NaN is no number at all
    return isinstance(value, (int, float)) and not isinstance(value, bool) and not math.isnan(value)


def _is_snr(value) -> bool:
    # +inf is a noiseless frame; -inf would be noise with no signal
    return _is_real(value) and value > -math.inf


def _is_positive(value) -> bool:
    return _is_real(value) and 0 < value < math.inf


def _is_gamma_range(g) -> bool:
    return isinstance(g, (list, tuple)) and len(g) == 2 and all(map(_is_positive, g)) and g[0] <= g[1]


# Every config key, per section ("" for the top level), in the order of
# DEFAULT_CONFIG: the key, its default, the test of its value (of each
# entry, when the key holds a nonempty list), what the value must be, and
# whether the key holds such a list.  A key whose check reads something
# else has the test None, and its words say where it is checked.
_CONFIG_KEYS = {
    "": (
        ("experiment", "fig2", None, "the command being run, checked by the CLI", False),
        ("seed", 1, _is_integer, "an integer", False),
        ("trials", 20, _is_count, "an integer >= 1", False),
        ("threads", 1, _is_count, "an integer >= 1", False),
        ("out", "results", lambda out: isinstance(out, str), "a string", False),
    ),
    "csf": (
        ("beta", float(np.log(2.0)), _is_real, "a number", False),
        ("oversampling", 16, _is_count, "an integer", False),
    ),
    "fig2": (
        ("delays", [0, 2, 7], lambda d: _is_count(d, 0), "nonnegative integers", True),
        ("gamma", 0.6, _is_positive, "a positive number", False),
        ("max_delay", 10, _is_count, "a positive integer", False),
        ("symbols", 65536, _is_count, "a positive integer", False),
        ("snr_db", None, lambda snr: snr is None or _is_snr(snr), "a number or null", False),
        ("agreement_tol", 0.03, lambda tol: _is_real(tol) and tol >= 0, "a nonnegative number", False),
    ),
    "sweep_length": (
        ("lengths", [1024, 2048, 4096, 8192, 16384, 32768, 65536], _is_count, "positive integers", True),
        ("snr_db", 10.0, _is_snr, "a number", False),
        ("path_count", 6, None, "in 1..max_delay+1, checked by _check_config", False),
        ("max_delay", 10, _is_count, "a positive integer", False),
        ("gamma_range", [0.3, 0.9], _is_gamma_range, "[low, high] with 0 < low <= high", False),
    ),
    "sweep_snr": (
        ("snr_db_list", [0.0, 5.0, 10.0, 15.0, 20.0], _is_snr, "numbers", True),
        ("symbols", 1024, _is_count, "a positive integer", False),
        ("path_count", 6, None, "in 1..max_delay+1, checked by _check_config", False),
        ("max_delay", 10, _is_count, "a positive integer", False),
        ("gamma_range", [0.3, 0.9], _is_gamma_range, "[low, high] with 0 < low <= high", False),
        ("methods", list(_SNR_METHODS), lambda meth: isinstance(meth, str), "method names", True),
    ),
    "invariance": (
        ("streams", 10, lambda n: _is_count(n, 2), "an integer >= 2", False),
        ("symbols", 4096, _is_count, "a positive integer", False),
        ("max_lag", 10, _is_count, "a positive integer", False),
        ("include_all_ones", False, lambda flag: isinstance(flag, bool), "true or false", False),
    ),
}

DEFAULT_CONFIG: dict = {key: default for key, default, *_ in _CONFIG_KEYS[""]} | {
    name: {key: default for key, default, *_ in keys} for name, keys in _CONFIG_KEYS.items() if name
}


def _check_config(cfg: dict, name: str) -> CsfParams:
    """The CSF parameters of an experiment config, the run's one build of
    them, once the config is known to run.  Refused before any work: a
    top-level, csf or experiment key that fails its test in _CONFIG_KEYS,
    an SNR that gives no noise variance (_snr_ratio), CSF parameters that
    CsfParams refuses, fig2 delays that are not 0 followed by increasing
    echo delays up to max_delay, an unknown method, a repeated sweep point
    (length, SNR or method), a path count outside 1..max_delay+1 (the main
    path plus one echo per delay slot), or received frames that cannot be
    built or measured (_check_frames)."""
    section = cfg[name]
    for where in ("", "csf", name):
        values, prefix = (cfg[where], f"{where}.") if where else (cfg, "")
        for key, _, valid, what, is_list in _CONFIG_KEYS[where]:
            value = values[key]
            if valid is None:
                continue
            if is_list and isinstance(value, (list, tuple)):
                if not value:
                    raise ConfigError(f"{prefix}{key} must not be empty")
                ok = all(map(valid, value))
            else:
                ok = not is_list and valid(value)
            if not ok:
                raise ConfigError(f"{prefix}{key} must be {what}, got {value!r}")
    for key in ("snr_db", "snr_db_list"):
        snrs = section.get(key)
        for snr_db in snrs if isinstance(snrs, (list, tuple)) else [snrs]:
            try:
                _snr_ratio(snr_db)
            except ValueError as exc:
                raise ConfigError(f"{name}.{key}: {exc}") from None
    try:
        params = CsfParams(**cfg["csf"])
    except ValueError as exc:
        raise ConfigError(f"csf: {exc}") from None
    # each experiment's received frames, as _check_frames reads them; the
    # power bound is a function called after the ACF check, as fig2's reads
    # the channel's dense taps, max_delay + 1 of them, which that check bounds
    if name == "fig2":
        ch = _fig2_channel(section)
        delay = int(ch.delays[-1])
        frames = ("symbols", "max_delay", delay, delay, lambda: predicted_rx_acf(ch, 0.0, params, 0)[0], None)
    elif name == "invariance":
        frames = ("symbols", "max_lag", 0, 0, None, None)
    else:  # the sweeps draw a random channel per trial
        methods = section.get("methods", [])
        unknown = [meth for meth in methods if meth not in _SNR_METHODS]
        if unknown:
            raise ConfigError(f"{name}.methods: unknown {unknown}, expected a subset of {list(_SNR_METHODS)}")
        # a repeated point would write its row twice and keep one in the summary
        for key, noun in (("lengths", "length"), ("snr_db_list", "SNR"), ("methods", "method")):
            values = section.get(key, [])
            repeated = sorted({value for value in values if values.count(value) > 1})
            if repeated:
                raise ConfigError(f"{name}.{key}: repeated {repeated}, name each {noun} once")
        paths, m = section["path_count"], section["max_delay"]
        if not (_is_count(paths) and paths <= m + 1):
            raise ConfigError(f"{name}.path_count must lie in 1..max_delay+1 = 1..{m + 1}, got {paths!r}")
        blind = name == "sweep_length" or "blind_acf" in methods  # the LS baselines take no ACF
        symbols_key, r0 = "lengths" if name == "sweep_length" else "symbols", authoritative_acf_table(params, 0)[0]
        # the largest of path_count - 1 distinct echo delays is at least
        # path_count - 1; every gain is at most 1 and the pulse ACF is
        # negative off lag 0, so no trial's clean frame has more expected
        # power than path_count times R(0)
        frames = (symbols_key, "max_delay" if blind else None, m, paths - 1, lambda: paths * r0, r0 if blind else None)
    _check_frames(name, section, params, frames)
    return params


# the largest received frame a run builds, in samples: about 64 times the
# reference sweep_length's largest (1049056), 512 MiB of floats
_FRAME_CAP = 1 << 26

# the received frame's sums of squared samples (the noise power, the ACF
# at lag 0) and the blind solver's cost stay at least this factor below
# the largest float; it also covers the sampling noise of the frame's
# power around its expectation
_SUM_MARGIN = 1e3


def _check_frames(name: str, section: dict, params: CsfParams, frames: tuple) -> None:
    """Refuse an experiment's received frames when they cannot be built or
    measured.  frames describes them as (symbols_key, lag_key, delay,
    least_delay, power, r0): each frame spans its symbols
    (section[symbols_key], one count or a list of them), the pulse tail
    ahead of them and echoes up to delay symbol periods late in the largest
    frame, at least least_delay in the shortest.  In this order:

    The cap: the largest frame must span at most _FRAME_CAP samples.  A
    tail past the cap is not rounded up to pulse_tail, whose integer
    overflows at the smallest beta.

    The ACF, measured to the lag section[lag_key] (no ACF when lag_key is
    None): empirical_acf needs the shortest frame to span more than
    max_lag + 1 symbol periods.

    The noise, when power() gives a bound on the frames' expected
    noise-free power (no noise when power is None).  A finite SNR below the
    lowest usable one is refused: the higher of two limits, each rounded up
    to 0.1 dB, and the refusal names the one that binds.  The sums: over
    the largest frame, of n_samples samples, n_samples * (power + power /
    10**(snr_db/10)) must stay _SUM_MARGIN below the largest float.  The
    blind solver, when it runs (r0 is the pulse ACF R(0)): its
    Levenberg-Marquardt seed reads each echo tap as r[j] / R(0), and the
    biased ACF has |r[j]| <= r[0], so with r[0] >= R(0) every tap, the
    main one included, is at most r[0] / R(0).  The M+1 taps' correlations
    then sum to at most ((M+1) r[0] / R(0))^2, each lag's weights are at
    most 2 R(0), and the seed noise and the measured r[j] at most r[0], so
    each of the M+1 residuals is at most 2 ((M+1)^2 + 1) r[0]^2 / R(0).
    Their cost, 4 (M+1) ((M+1)^2 + 1)^2 r[0]^4 / R(0)^2 at most, must stay
    _SUM_MARGIN below the largest float, at r[0] = power / 10**(snr_db/10)."""
    symbols_key, lag_key, delay, least_delay, power, r0 = frames
    counts = section[symbols_key] if symbols_key == "lengths" else [section[symbols_key]]
    longest, shortest = max(counts), min(counts)
    tail = math.log(1.0 / _TAIL_AMPLITUDE) / params.beta
    n_samples = (longest + (params.pulse_tail if tail < _FRAME_CAP else tail) + delay) * params.oversampling
    if n_samples > _FRAME_CAP:
        raise ConfigError(
            f"{name}: the largest received frame, {longest} symbols with a pulse tail of {tail:.4g} symbol "
            f"periods at csf.beta={params.beta!r} and echoes up to {delay} symbols late, spans {n_samples:.4g} "
            f"samples at csf.oversampling={params.oversampling}, above the cap of {_FRAME_CAP} samples"
        )
    span = shortest + params.pulse_tail + least_delay
    if lag_key is not None and span <= section[lag_key] + 1:
        max_lag = section[lag_key]
        raise ConfigError(
            f"{name}.{symbols_key}: a frame of {shortest} symbols spans {span} symbol periods with "
            f"its pulse tail and echoes, too short for the ACF to lag {name}.{lag_key}={max_lag}, "
            f"which needs more than {max_lag + 1}"
        )
    if power is None:
        return
    power = power()
    key = "snr_db_list" if name == "sweep_snr" else "snr_db"
    big = np.finfo(float).max
    lowest = math.ceil(100.0 * math.log10(_SUM_MARGIN * n_samples * power / big)) / 10.0
    what = f"the sums over a received frame of up to {n_samples} samples"
    if r0 is not None:
        lags = section["max_delay"] + 1
        cost = 4 * lags * (lags * lags + 1) ** 2 * power**4 / r0**2
        solver = math.ceil(25.0 * math.log10(_SUM_MARGIN * cost / big)) / 10.0
        if solver > lowest:
            lowest, what = solver, f"the blind solver's cost over {lags} lags of a received ACF"
    for snr_db in section[key] if name == "sweep_snr" else [section[key]]:
        if snr_db is not None and snr_db < lowest:
            raise ConfigError(
                f"{name}.{key}: SNR {snr_db!r} dB overflows {what} at a noise-free power up to {power:.4g}; "
                f"its lowest usable SNR is {lowest} dB"
            )


@dataclass
class ExperimentResult:
    """Table plus summary emitted by one experiment run; it passes when every summary["checks"] entry holds."""

    name: str
    columns: list
    rows: list
    summary: dict


def _fig2_channel(section: dict) -> ChannelModel:
    """The fixed channel of fig2: the main path at delay 0, then one echo
    per further delay with the attenuation law; ConfigError when the
    delays cannot form a channel."""
    gamma = float(section["gamma"])
    paths = tuple((d, attenuation_from_delay(gamma, d) if d > 0 else 1.0) for d in section["delays"])
    try:
        return ChannelModel(paths=paths, max_delay=section["max_delay"])
    except ValueError as exc:
        raise ConfigError(f"fig2.delays {section['delays']!r}: {exc}") from None


def _trial_channel(cfg: dict, name: str, trial: int) -> ChannelModel:
    """The random channel of one sweep trial, shared by all its points and methods."""
    section = cfg[name]
    return sample_random_channel(
        max_delay=int(section["max_delay"]),
        gamma_range=tuple(section["gamma_range"]),
        path_count=int(section["path_count"]),
        seed=derive_seed(cfg["seed"], trial, 0),
    )


def _blind_taps(params: CsfParams, acfs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The echo taps (..., M) and converged flags (...) of blind solves of ACF rows (..., M+1), in one batch."""
    m = acfs.shape[-1] - 1
    table = authoritative_acf_table(params, max_lag=2 * m)
    # empirical inputs never reach machine-precision residuals
    result = solve_channels(table, acfs.reshape(-1, m + 1), SolverOptions(tol=1e-6 * table[0], max_iter=100))
    return result.alpha_hat.reshape(acfs.shape[:-1] + (m,)), result.converged.reshape(acfs.shape[:-1])


def _tap_errors(taps: np.ndarray, channels: list) -> np.ndarray:
    """Each solve's squared echo-tap error, taps (trials, ..., M) against its trial's channel."""
    truths = np.array([ch.taps[1:] for ch in channels])
    return np.sum((taps - np.expand_dims(truths, tuple(range(1, taps.ndim - 1)))) ** 2, axis=-1)


def interior_peak_lags(values: np.ndarray) -> list[int]:
    """Strict local maxima over interior integer lags 1..len-2."""
    peaks = []
    for k in range(1, len(values) - 1):
        if values[k] > values[k - 1] and values[k] > values[k + 1]:
            peaks.append(k)
    return peaks


def expected_secondary_peaks(ch: ChannelModel) -> set[int]:
    """Echo delays plus pairwise delay differences: where ACF bumps sit."""
    delays = [d for d, _ in ch.paths]
    out = set(d for d in delays if d > 0)
    for i, di in enumerate(delays):
        for dj in delays[:i]:
            out.add(abs(di - dj))
    return out


# ---------------------------------------------------------------------------
# three-path ACF demonstration
# ---------------------------------------------------------------------------

def run_fig2(cfg: dict) -> ExperimentResult:
    """Simulate the fixed three-path channel and compare measured vs
    predicted receive ACF, checking the secondary-peak locations."""
    params = _check_config(cfg, "fig2")
    section = cfg["fig2"]
    ch = _fig2_channel(section)
    max_lag = section["max_delay"]

    stream_seed = derive_seed(cfg["seed"], 1)
    # echo delays are whole symbols, so the channel acts at symbol rate
    amplitudes = apply_multipath(Waveform(random_symbols(section["symbols"], seed=stream_seed), 1), ch).samples
    if _snr_ratio(section["snr_db"]) is None:
        # a noiseless frame's ACF follows from its symbol-rate pieces
        noise_var, emp_trace = 0.0, _pieces_acf_trace(_amplitude_pieces(amplitudes, params), max_lag)
    else:
        # noise has no symbol-rate form: the frame is built and measured
        received = _encode_amplitudes(amplitudes, params)
        received, noise_var = add_awgn(received, section["snr_db"], seed=derive_seed(cfg["seed"], 2))
        _, emp_trace = empirical_acf_trace(received, max_lag)
    grid, pred_trace = predicted_rx_acf_trace(ch, noise_var, params, max_lag)
    # the integer lags are every Ns-th lag of the trace, bit for bit
    emp = emp_trace[:: params.oversampling]
    pred = predicted_rx_acf(ch, noise_var, params, max_lag)

    predicted_peaks = interior_peak_lags(pred)
    empirical_peaks = interior_peak_lags(emp)
    expected = sorted(expected_secondary_peaks(ch))
    agreement = float(np.max(np.abs(emp - pred)))

    # the two dominant echoes must stand out even in the measured ACF; the
    # delay-difference bump is below the sampling noise at this frame length
    strong = {d for d, a in ch.paths[1:]}
    peaks_ok = predicted_peaks == expected
    strong_ok = strong.issubset(set(empirical_peaks))
    # how far each echo's measured ACF stands above its neighbours; a
    # margin <= 0 (or None, no right neighbour) is why strong_ok failed
    margins = {
        str(d): float(min(emp[d] - emp[d - 1], emp[d] - emp[d + 1])) if d < max_lag else None
        for d in sorted(strong)
    }
    agreement_ok = agreement <= float(section["agreement_tol"])

    rows = [(float(g), float(e), float(p)) for g, e, p in zip(grid, emp_trace, pred_trace)]
    summary = {
        "channel_delays": [int(d) for d, _ in ch.paths],
        "channel_attenuations": [float(a) for _, a in ch.paths],
        "expected_peak_lags": expected,
        "predicted_peak_lags": predicted_peaks,
        "empirical_peak_lags": empirical_peaks,
        "echo_peak_margins": margins,
        "max_abs_disagreement": agreement,
        "agreement_tol": float(section["agreement_tol"]),
        "noise_sigma2": noise_var,
        "checks": {
            "predicted_peaks_match": peaks_ok,
            "strong_echoes_in_empirical": strong_ok,
            "integer_lag_agreement": agreement_ok,
        },
    }
    return ExperimentResult(
        name="fig2",
        columns=["lag", "empirical_acf", "predicted_acf"],
        rows=rows,
        summary=summary,
    )


# ---------------------------------------------------------------------------
# MSE vs data length
# ---------------------------------------------------------------------------

def _length_frame(args: tuple) -> np.ndarray:
    """The measured receive ACF of one frame of the length sweep: frame li
    of the trial, encoded with params, through the trial's channel ch."""
    cfg, params, trial, li, ch = args
    section = cfg["sweep_length"]
    stream = random_symbols(int(section["lengths"][li]), seed=derive_seed(cfg["seed"], trial, 1, li))
    received = apply_multipath(encode_waveform(stream, params), ch)
    received, _ = add_awgn(received, float(section["snr_db"]), seed=derive_seed(cfg["seed"], trial, 2, li))
    return empirical_acf(received, int(section["max_delay"]))


def run_datalength_sweep(cfg: dict) -> ExperimentResult:
    params = _check_config(cfg, "sweep_length")
    section, trials = cfg["sweep_length"], cfg["trials"]
    lengths = [int(n_sym) for n_sym in section["lengths"]]
    channels = [_trial_channel(cfg, "sweep_length", trial) for trial in range(trials)]
    # One task per frame, the largest received frame (symbols plus the last
    # echo delay) first over the whole sweep: each frame's 8 MB buffers then
    # fit in the heap space that the frames before it freed, and only one
    # length's pulse spectrum is ever cached.
    frames = sorted(
        ((trial, li) for trial in range(trials) for li in range(len(lengths))),
        key=lambda frame: lengths[frame[1]] + int(channels[frame[0]].delays[-1]),
        reverse=True,
    )
    tasks = [(cfg, params, trial, li, channels[trial]) for trial, li in frames]
    measured = _fan_out(_length_frame, tasks, cfg["threads"])
    acfs = np.empty((trials, len(lengths), int(section["max_delay"]) + 1))
    for (trial, li), acf in zip(frames, measured):
        acfs[trial, li] = acf
    taps, converged = _blind_taps(params, acfs)
    errs = _tap_errors(taps, channels)

    path_count = int(section["path_count"])
    rows = []
    for li, n_sym in enumerate(section["lengths"]):
        mse = float(np.mean(errs[:, li])) / path_count
        rows.append((int(n_sym), int(n_sym) * params.oversampling, trials, mse, float(np.mean(converged[:, li]))))
    summary = {
        "snr_db": float(section["snr_db"]),
        "path_count": path_count,
        "mse_by_symbols": {str(n_sym): mse for n_sym, _, _, mse, _ in rows},
    }
    return ExperimentResult(
        name="sweep_length",
        columns=["n_symbols", "n_samples", "trials", "mse", "converged_rate"],
        rows=rows,
        summary=summary,
    )


# ---------------------------------------------------------------------------
# MSE vs SNR, method comparison
# ---------------------------------------------------------------------------

def _snr_trial(args: tuple) -> tuple[list, np.ndarray, list]:
    """One trial of the SNR sweep, encoded with the run's params through
    the trial's channel ch, both built by the caller: the blind method's
    measured receive ACF per SNR (none without blind_acf), and each LS
    method's taps alpha_0..alpha_M per SNR (ls_sweep) and full-rank flag.

    One channel and one symbol stream serve every method and SNR point;
    per-method noise seeds are fixed across SNR so only the noise scale
    changes along the sweep.  What does not depend on the SNR is done
    once per trial: the CSF encode and its channel output, the blind
    method's noise draw, and one Gram matrix per LS method (ls_sweep).
    """
    cfg, params, trial, ch = args
    section = cfg["sweep_snr"]
    m, n_sym = int(section["max_delay"]), int(section["symbols"])
    snr_list, methods = section["snr_db_list"], section["methods"]
    acfs, ls = [], []

    stream_seed, noise_seed, probe_seed = (derive_seed(cfg["seed"], trial, k) for k in (1, 2, 3))

    if "blind_acf" in methods or "ls_chaos" in methods:
        csf = encode_waveform(random_symbols(n_sym, seed=stream_seed), params)
        clean = apply_multipath(csf, ch)

    for method in methods:
        if method == "blind_acf":
            draw, sigma2s = awgn_law(clean, snr_list, noise_seed)  # add_awgn at each SNR, from one draw
            acfs = [empirical_acf(Waveform(_noisy(clean.samples, draw, v), params.oversampling), m) for v in sigma2s]
        elif method == "ls_gaussian":
            probe = gaussian_probe(n_sym, params.oversampling, seed=probe_seed)
            ls.append(ls_sweep(probe, apply_multipath(probe, ch), snr_list, probe_seed, m))
        else:  # ls_chaos
            ls.append(ls_sweep(symbol_instants(csf), clean, snr_list, stream_seed, m))
    return acfs, np.reshape([taps for taps, _ in ls], (len(ls), len(snr_list), m + 1)), [not deg for _, deg in ls]


def _snr_errors(params: CsfParams, section: dict, channels: list, acfs, ls_taps, full_rank) -> tuple:
    """Per-path squared tap errors and converged flags (trials, snrs, methods) of _snr_trial's returns, stacked."""
    methods = list(section["methods"])
    errs = np.empty((len(channels), len(section["snr_db_list"]), len(methods)))
    flags = np.empty(errs.shape, dtype=bool)
    if "blind_acf" in methods:
        blind = methods.index("blind_acf")
        taps, flags[:, :, blind] = _blind_taps(params, acfs)
        errs[:, :, blind] = _tap_errors(taps, channels)
    ls = [mi for mi, method in enumerate(methods) if method != "blind_acf"]
    # echo taps normalised by the solved main tap, as the blind solver pins it to 1
    errs[:, :, ls] = np.moveaxis(_tap_errors(ls_taps[..., 1:] / ls_taps[..., :1], channels), 1, 2)
    flags[:, :, ls] = full_rank[:, None]
    return errs / int(section["path_count"]), flags


def run_snr_sweep(cfg: dict) -> ExperimentResult:
    params = _check_config(cfg, "sweep_snr")
    section, trials = cfg["sweep_snr"], cfg["trials"]
    channels = [_trial_channel(cfg, "sweep_snr", trial) for trial in range(trials)]
    tasks = [(cfg, params, trial, ch) for trial, ch in enumerate(channels)]
    acfs, ls_taps, full_rank = map(np.array, zip(*_fan_out(_snr_trial, tasks, cfg["threads"])))
    errs, flags = _snr_errors(params, section, channels, acfs, ls_taps, full_rank)
    methods = list(section["methods"])
    rows = [
        (float(snr_db), method, float(np.mean(errs[:, si, mi])), float(np.mean(flags[:, si, mi])))
        for si, snr_db in enumerate(section["snr_db_list"])
        for mi, method in enumerate(methods)
    ]
    summary = {
        "symbols": int(section["symbols"]),
        "trials": trials,
        "mse": {method: {str(snr): mse for snr, meth, mse, _ in rows if meth == method} for method in methods},
    }
    return ExperimentResult(
        name="sweep_snr",
        columns=["snr_db", "method", "mse", "converged_rate"],
        rows=rows,
        summary=summary,
    )


# ---------------------------------------------------------------------------
# ACF invariance demonstration
# ---------------------------------------------------------------------------

def run_invariance_demo(cfg: dict) -> ExperimentResult:
    params = _check_config(cfg, "invariance")
    section = cfg["invariance"]
    max_lag = section["max_lag"]
    n_sym = section["symbols"]
    n_streams = section["streams"]

    reference = authoritative_acf_table(params, max_lag=max_lag)
    # one ACF row per stream, then the all-ones stream if asked for:
    # constant symbols break the independence assumption behind the
    # invariance, so it is shown for contrast, excluded from the statistics
    acfs = np.empty((n_streams + bool(section["include_all_ones"]), max_lag + 1))
    for s in range(len(acfs)):
        stream = random_symbols(n_sym, seed=derive_seed(cfg["seed"], s)) if s < n_streams else np.ones(n_sym)
        # the integer lags are every Ns-th lag of the trace
        acfs[s] = _pieces_acf_trace(_amplitude_pieces(stream, params), max_lag)[:: params.oversampling]
    deviations = np.abs(acfs - reference)

    rows = []
    for s, (acf, dev) in enumerate(zip(acfs, deviations)):
        label, excluded = (f"s{s:02d}", 0) if s < n_streams else ("all_ones", 1)
        rows += [
            (label, k, float(acf[k]), float(reference[k]), float(dev[k]), excluded) for k in range(max_lag + 1)
        ]
    max_vs_ref = float(np.max(deviations[:n_streams]))
    # rounding is monotone, so the largest spread per lag is the largest pairwise difference
    max_pairwise = float(np.max(np.ptp(acfs[:n_streams], axis=0)))
    summary = {
        "streams": n_streams,
        "symbols": n_sym,
        "max_abs_dev_vs_reference": max_vs_ref,
        "max_pairwise_abs_dev": max_pairwise,
        "sampling_noise_std": float(reference[0]) / float(np.sqrt(n_sym)),
    }
    return ExperimentResult(
        name="invariance",
        columns=["stream", "lag", "empirical_acf", "reference_acf", "abs_deviation", "excluded"],
        rows=rows,
        summary=summary,
    )


# ---------------------------------------------------------------------------
# task fan-out
# ---------------------------------------------------------------------------

def _fan_out(worker, tasks: list, threads: int) -> list:
    """worker(task) for each task, serially or across at most threads
    processes (no more than there are tasks), in task order."""
    workers = min(threads, len(tasks))
    if workers <= 1:
        return [worker(task) for task in tasks]
    # imported here: the pool machinery costs a serial run's start-up
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, tasks))
