"""How the library refuses input, tested once: a ValueError with its whole
message, raised before any work.  ARGUMENTS holds the one integer rule
(an integer, not a bool, of at least its lowest value), BAD_CALLS every
other refusal of acf, baselines, channel, estimator and waveform, and
ACCEPTED_CALLS the value just inside each range refusal.  REQUIRED holds
the arguments that take no default, whose omission is a TypeError."""

import ast
import math
import re
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import csfchan.acf
import csfchan.baselines
import csfchan.channel
import csfchan.estimator
import csfchan.waveform
from csfchan import (
    ChannelModel,
    CsfParams,
    EstimationResult,
    IdentificationProblem,
    ProbeFrame,
    SolverOptions,
    Waveform,
    add_awgn,
    attenuation_from_delay,
    authoritative_acf_table,
    awgn_law,
    base_pulse,
    build_residuals,
    empirical_acf,
    empirical_acf_trace,
    encode_waveform,
    gaussian_probe,
    gaussian_probe_frame,
    ls_estimate,
    ls_sweep,
    predicted_rx_acf,
    predicted_rx_acf_trace,
    pulse_acf,
    random_symbols,
    sample_random_channel,
    solve_channel,
    solve_channels,
)
from csfchan.acf import _pieces_acf_trace
from csfchan.waveform import _amplitude_pieces

PARAMS = CsfParams()
LN2 = math.log(2.0)
WAVE = Waveform(np.ones(16 * 20), 16)
CHANNEL = ChannelModel(((0, 1.0), (2, 0.5)), max_delay=4)
PROBE = Waveform(np.ones(16 * 64), 16)
M = 4  # the solver's echo taps: ACF rows over lags 0..M, r_xx over 0..2M
ROWS = np.ones((2, M + 1))
RXX = np.ones(2 * M + 1)
PROBLEM = IdentificationProblem(ROWS[0], RXX)
OPTS = SolverOptions(tol=1e-6, max_iter=100)
GAMMA_RANGE = (0.3, 0.9)
# one symbol and its pulse tail: 21 symbol periods
PIECES = _amplitude_pieces(np.ones(1), PARAMS)
NONFINITE = (math.nan, math.inf, -math.inf)
MEASURE, PREDICT = (empirical_acf, empirical_acf_trace), (predicted_rx_acf, predicted_rx_acf_trace)

# the call, the argument's name and its lowest value; every other argument is valid
ARGUMENTS = {
    "CsfParams.oversampling": (lambda v: CsfParams(oversampling=v), "oversampling", 8),
    "Waveform.samples_per_symbol": (lambda v: Waveform(np.ones(4), v), "samples_per_symbol", 1),
    "pulse_acf.oversampling": (lambda v: pulse_acf(0.5, PARAMS, v), "oversampling", 1),
    "authoritative_acf_table.max_lag": (lambda v: authoritative_acf_table(PARAMS, v), "max_lag", 0),
    "random_symbols.n": (lambda v: random_symbols(v, seed=0), "n", 1),
    "empirical_acf.max_lag": (lambda v: empirical_acf(WAVE, v), "max_lag", 0),
    "empirical_acf_trace.max_lag": (lambda v: empirical_acf_trace(WAVE, v), "max_lag", 0),
    "predicted_rx_acf.max_lag": (lambda v: predicted_rx_acf(CHANNEL, 0.0, PARAMS, v), "max_lag", 0),
    "predicted_rx_acf_trace.max_lag": (lambda v: predicted_rx_acf_trace(CHANNEL, 0.0, PARAMS, v), "max_lag", 0),
    "ChannelModel.delay": (lambda v: ChannelModel(((0, 1.0), (v, 0.5)), max_delay=4), "delay", 0),
    "ChannelModel.max_delay": (lambda v: ChannelModel(((0, 1.0),), max_delay=v), "max_delay", 0),
    "sample_random_channel.max_delay": (lambda v: sample_random_channel(v, GAMMA_RANGE, 1, 0), "max_delay", 0),
    "sample_random_channel.path_count": (lambda v: sample_random_channel(10, GAMMA_RANGE, v, 0), "path_count", 1),
    "gaussian_probe.n_symbols": (lambda v: gaussian_probe(v, 16, seed=0), "n_symbols", 1),
    "gaussian_probe.samples_per_symbol": (lambda v: gaussian_probe(64, v, seed=0), "samples_per_symbol", 1),
    "gaussian_probe_frame.n_symbols": (lambda v: gaussian_probe_frame(v, 16, CHANNEL, None, 0), "n_symbols", 1),
    "ls_estimate.max_delay": (lambda v: ls_estimate(ProbeFrame(PROBE, PROBE), v), "max_delay", 0),
    "ls_sweep.max_delay": (lambda v: ls_sweep(PROBE, PROBE, [0.0], 0, v), "max_delay", 0),
    "SolverOptions.max_iter": (lambda v: SolverOptions(1e-6, v), "max_iter", 1),
    "random_symbols.seed": (lambda v: random_symbols(8, seed=v), "seed", 0),
    "gaussian_probe.seed": (lambda v: gaussian_probe(64, 16, seed=v), "seed", 0),
    "sample_random_channel.seed": (lambda v: sample_random_channel(10, GAMMA_RANGE, 6, v), "seed", 0),
    "add_awgn.seed": (lambda v: add_awgn(WAVE, 10.0, v), "seed", 0),
    "awgn_law.seed": (lambda v: awgn_law(WAVE, [10.0], v), "seed", 0),
    "ls_sweep.seed": (lambda v: ls_sweep(PROBE, PROBE, [0.0], v, 4), "seed", 0),
}

# each call with one bad input, and the whole message of its ValueError
BAD_CALLS = {
    **{f"base_pulse-{bad}": (partial(base_pulse, bad, PARAMS), "pulse argument must be finite") for bad in NONFINITE},
    **{
        f"beta-{beta}": (partial(CsfParams, beta), f"beta must satisfy 0 < beta <= ln2, got {beta}")
        for beta in (0.0, -0.1, LN2 + 0.01)
    },
    "Waveform-empty": (partial(Waveform, [], 16), "samples must be a nonempty 1-d sequence"),
    "Waveform-2-d": (partial(Waveform, np.ones((2, 4)), 16), "samples must be a nonempty 1-d sequence"),
    "Waveform-nan": (partial(Waveform, [1.0, math.nan], 16), "samples must all be finite"),
    **{
        f"encode_waveform-{name}": (
            partial(encode_waveform, stream, PARAMS),
            "symbols must be a nonempty 1-d sequence of exact -1s and +1s",
        )
        for name, stream in (("0.5", [1.0, 0.5]), ("empty", []), ("2-d", np.ones((2, 4))))
    },
    # a 2x2 lag once read 0.094 at lag 0 instead of R(0) = 1.343, and a
    # column was flattened
    **{
        f"pulse_acf-{shape}": (
            partial(pulse_acf, np.zeros(shape), PARAMS), f"lag must be a scalar or a 1-d array, got shape {shape}"
        )
        for shape in ((2, 2), (3, 1), (1, 0))
    },
    **{f"pulse_acf-{bad}": (partial(pulse_acf, [0.0, bad], PARAMS), "lag must be finite") for bad in NONFINITE},
    **{
        f"{acf.__name__}-short": (partial(acf, Waveform(np.ones(176), 16), 10), "waveform too short for max_lag=10: 176 samples")
        for acf in MEASURE
    },
    # the 21 symbol periods of one symbol and its pulse tail take lags up to 19
    "pieces-short": (partial(_pieces_acf_trace, PIECES, 20), "waveform too short for max_lag=20: 336 samples"),
    # NaN passed a `< 0` guard and came back at lag 0, as did inf
    **{
        f"{predict.__name__}-noise-{v}": (
            partial(predict, CHANNEL, v, PARAMS, 4), f"noise variance must be finite and nonnegative, got {v!r}"
        )
        for predict in PREDICT
        for v in (-0.1, math.nan, math.inf)
    },
    **{
        f"ChannelModel-{name}": (partial(ChannelModel, paths, 5), message)
        for name, paths, message in (
            ("no-path", (), "channel needs at least the main path"),
            ("no-main-path", ((1, 0.5),), "main path must be at delay 0"),
            ("repeated-delay", ((0, 1.0), (3, 0.5), (3, 0.2)), "delays must be strictly increasing"),
            ("main-gain", ((0, 0.9),), "main-path attenuation must be 1"),
            ("late-delay", ((0, 1.0), (6, 0.5)), "delay 6 exceeds max_delay 5"),
            # a non-finite gain would make predicted_rx_acf all-NaN and
            # apply_multipath blame its samples, not the channel
            *((f"gain-{a}", ((0, 1.0), (3, a)), "attenuations must be finite and nonnegative") for a in (-0.5, *NONFINITE)),
        )
    },
    **{
        f"tau-{bad}": (partial(attenuation_from_delay, 0.6, bad), "delay must be finite and nonnegative")
        for bad in (-1.0, *NONFINITE)
    },
    **{
        f"gamma-{bad}": (partial(attenuation_from_delay, bad, 1.0), "damping coefficient must be finite and positive")
        for bad in (0.0, *NONFINITE)
    },
    # 10**(snr/10) must be a positive finite float for the variance
    **{
        f"{call.func.__name__}-snr-{snr}": (
            call,
            f"SNR {snr!r} dB gives no noise variance: 10**(snr_db/10) {how}, usable SNRs run from -3236 to 3082.5 dB",
        )
        for snr, how in ((3090.0, "overflows"), (3082.55, "overflows"), (-3300, "rounds to 0"))
        for call in (partial(awgn_law, WAVE, [0.0, snr, None], 1), partial(add_awgn, WAVE, snr, 1))
    },
    # -inf dB is noise with no signal, not the noiseless frame of +inf; NaN
    # is no SNR at all.  The SNRs are read once, so an iterator's refusal
    # names every entry
    **{
        f"{name}-snr": (call, f"snr_db must be a number above -inf, got {snrs}")
        for name, call, snrs in (
            *((f"awgn_law-{bad}", partial(awgn_law, WAVE, [0.0, bad], 1), f"[0.0, {bad}]") for bad in (-math.inf, math.nan)),
            *((f"add_awgn-{bad}", partial(add_awgn, WAVE, bad, 1), f"[{bad}]") for bad in (-math.inf, math.nan)),
            ("generator", lambda: awgn_law(WAVE, (snr for snr in (10.0, -math.inf)), 1), "[10.0, -inf]"),
            ("map", lambda: awgn_law(WAVE, map(float, ("10.0", "-inf")), 1), "[10.0, -inf]"),
        )
    },
    "path_count": (partial(sample_random_channel, 3, GAMMA_RANGE, 5, 0), "path_count exceeds available delay slots"),
    **{
        f"{call.func.__name__}-{name}": (call, message)
        for name, call, message in (
            ("1-d", partial(solve_channels, RXX, ROWS[0], OPTS), "measured must be an (n, M+1) array of ACF rows, got shape (5,)"),
            (
                "no-lag",
                partial(solve_channels, RXX, ROWS[:, :0], OPTS),
                "measured must be an (n, M+1) array of ACF rows, got shape (2, 0)",
            ),
            ("short-r_xx", partial(solve_channels, RXX[:-1], ROWS, OPTS), f"r_xx must cover lags 0..{2 * M}"),
            ("short-r_xx", partial(IdentificationProblem, ROWS[0], RXX[:-1]), f"r_xx must cover lags 0..{2 * M}"),
            ("nan-row", partial(solve_channels, RXX, ROWS * [[1.0], [math.nan]], OPTS), "ACF values must be finite"),
            ("inf-r_xx", partial(solve_channels, RXX * math.inf, ROWS, OPTS), "ACF values must be finite"),
            ("inf-r_rr", partial(IdentificationProblem, [1.0, math.inf], RXX), "ACF values must be finite"),
            ("alpha", partial(build_residuals, np.zeros(M - 1), 0.0, PROBLEM), f"alpha must have shape ({M},)"),
        )
    },
    # NaN or a negative tol would flag an exact solve unconverged, and inf
    # would flag every seed converged
    **{
        f"tol-{bad!r}": (partial(SolverOptions, bad, 100), f"tol must be a finite real number >= 0, got {bad!r}")
        for bad in (math.nan, -1.0, -1e-300, math.inf, -math.inf, True, False, "1e-6", 1j, None)
    },
    **{
        f"EstimationResult-{bad}": (partial(EstimationResult, [0.3, bad], 0.0, 0.0, 1, True), "estimated taps must be finite")
        for bad in NONFINITE
    },
    "ProbeFrame-grid": (partial(ProbeFrame, PROBE, Waveform(PROBE.samples, 8)), "probe and received must share one sampling grid"),
    "ProbeFrame-short": (partial(ProbeFrame, PROBE, Waveform(PROBE.samples[1:], 16)), "received frame shorter than the probe"),
    # 40 samples at 16 per symbol are 20 on the probe's grid of 8
    "ls_sweep-short": (
        partial(ls_sweep, Waveform(np.ones(24), 8), Waveform(np.ones(40), 16), [0.0], 0, 2),
        "received frame shorter than the probe",
    ),
    # 5 would take every 3rd sample of a 16-per-symbol frame, 32 a zero step
    **{
        f"ls_sweep-grid-{ns}": (
            partial(ls_sweep, Waveform(np.ones(8 * ns), ns), PROBE, [0.0], 0, 2),
            f"probe grid of {ns} samples per symbol does not divide the frame grid of 16",
        )
        for ns in (5, 32)
    },
}

# the inside edge of each range refusal: calls that are accepted and reach
# their work, each accepted value built inside the call
ACCEPTED_CALLS = {
    "beta-ln2+1e-12-one-symbol": lambda: encode_waveform([1.0], CsfParams(beta=LN2 + 1e-12)),
    "Waveform-one-sample": lambda: add_awgn(Waveform([1.0], 1), 10.0, 0),
    "pulse_acf-one-lag": partial(pulse_acf, [0.0], PARAMS),
    **{f"{acf.__name__}-shortest": lambda acf=acf: acf(Waveform(np.ones(177), 16), 10) for acf in MEASURE},
    "pieces-shortest": partial(_pieces_acf_trace, PIECES, 19),
    **{f"{predict.__name__}-noise-0": partial(predict, CHANNEL, 0.0, PARAMS, 4) for predict in PREDICT},
    **{
        f"echo-{name}": lambda gain=gain: predicted_rx_acf(ChannelModel(((0, 1.0), (4, gain())), 4), 0.0, PARAMS, 4)
        for name, gain in (
            ("zero-gain-at-max_delay", lambda: 0.0),
            ("tau-0", lambda: attenuation_from_delay(0.6, 0.0)),
            ("least-gamma", lambda: attenuation_from_delay(5e-324, 1.0)),
        )
    },
    **{f"snr-{snr}": partial(add_awgn, WAVE, snr, 0) for snr in (-3236.0, 3082.5)},
    "path_count-max_delay+1": partial(sample_random_channel, 3, GAMMA_RANGE, 4, 0),
    "tol-0-r_xx-of-2M+1-lags": lambda: solve_channels(RXX, ROWS, SolverOptions(tol=0, max_iter=100)),
    "IdentificationProblem-r_xx-of-2M+1-lags": lambda: build_residuals(np.zeros(M), 0.0, IdentificationProblem(ROWS[0], RXX)),
    "ProbeFrame-equal-lengths": lambda: ls_estimate(ProbeFrame(PROBE, PROBE), 4),
    "ls_sweep-equal-lengths": partial(ls_sweep, Waveform(np.ones(20), 8), Waveform(np.ones(40), 16), [0.0], 0, 2),
}


@pytest.fixture
def no_work(monkeypatch):
    """Make the first step of each function's work raise: a seeded draw,
    the pulse tail's depth, which pulse_acf and the encodes read right
    after their checks, the pulse samples and the encode's pulse FFT, the
    transmit ACF and the lagged dot products of the ACFs, the noise law and
    dot products of the baselines, and the solver's lag weights."""

    def work(*args, **kwargs):
        raise AssertionError("work ran")

    monkeypatch.setattr(np.random, "default_rng", work)
    monkeypatch.setattr(CsfParams, "pulse_tail", property(work))
    for name in ("base_pulse", "_pulse_spectrum"):
        monkeypatch.setattr(csfchan.waveform, name, work)
    for name in ("_lagged_products", "authoritative_acf_table", "pulse_acf"):
        monkeypatch.setattr(csfchan.acf, name, work)
    for name in ("_lagged_products", "awgn_law"):
        monkeypatch.setattr(csfchan.baselines, name, work)
    monkeypatch.setattr(csfchan.estimator, "_lag_weights", work)


# each argument that takes no default, where one would go unread by the
# package and could disagree with the value its caller passes: the call
# with every argument named, and the arguments it cannot do without
REQUIRED = {
    f"{function.__name__}.{missing}": (function, arguments, missing)
    for function, arguments, required in (
        (base_pulse, {"t": 0.5, "params": PARAMS}, ("params",)),
        (encode_waveform, {"stream": [1.0], "params": PARAMS}, ("params",)),
        # the integration's oversampling keeps its 256: fig2's trace reads it
        (pulse_acf, {"lag": 0.5, "params": PARAMS}, ("params",)),
        (authoritative_acf_table, {"params": PARAMS, "max_lag": 2}, ("params", "max_lag")),
        *((predict, {"ch": CHANNEL, "noise_var": 0.0, "params": PARAMS, "max_lag": 4}, ("params", "max_lag")) for predict in PREDICT),
        (
            sample_random_channel,
            {"max_delay": 10, "gamma_range": GAMMA_RANGE, "path_count": 6, "seed": 0},
            ("gamma_range", "path_count", "seed"),
        ),
        (SolverOptions, {"tol": 1e-6, "max_iter": 100}, ("tol", "max_iter")),
        (solve_channels, {"r_xx": RXX, "measured": ROWS, "opts": OPTS}, ("opts",)),
        (solve_channel, {"prob": PROBLEM, "opts": OPTS}, ("opts",)),
    )
    for missing in required
}


@pytest.mark.parametrize("row", REQUIRED)
def test_argument_has_no_default(row):
    function, arguments, missing = REQUIRED[row]
    with pytest.raises(TypeError, match=f"missing 1 required positional argument: '{missing}'$"):
        function(**{name: value for name, value in arguments.items() if name != missing})


@pytest.mark.parametrize("row", BAD_CALLS)
def test_bad_call_refused_before_work(no_work, row):
    call, message = BAD_CALLS[row]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("row", ACCEPTED_CALLS)
def test_accepted_call_reaches_work(no_work, row):
    with pytest.raises(AssertionError, match="^work ran$"):
        ACCEPTED_CALLS[row]()


def test_every_refusal_has_a_row():
    # each ValueError raised in the five modules, known by the longest
    # literal fragment of its message, is in at least one row's message;
    # _check_integer's is the integer rule of ARGUMENTS
    messages = [message for _, message in BAD_CALLS.values()]
    messages += [f"{name} must be an integer >= {low}" for _, name, low in ARGUMENTS.values()]
    raises, missing = 0, []
    for module in (csfchan.acf, csfchan.baselines, csfchan.channel, csfchan.estimator, csfchan.waveform):
        path = Path(module.__file__)
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and getattr(getattr(node.exc, "func", None), "id", None) == "ValueError":
                (text,) = node.exc.args
                parts = text.values if isinstance(text, ast.JoinedStr) else [text]
                fragment = max((part.value for part in parts if isinstance(part, ast.Constant)), key=len)
                raises += 1
                if not any(fragment in message for message in messages):
                    missing.append(f"{path.name}:{node.lineno} {fragment!r}")
    assert raises and not missing, f"no BAD_CALLS row for {missing}"


# each bad input, from the argument's lowest value; the integral float, the
# numpy float and the string are refused for their type alone
BAD = {
    "bool": lambda low: True,
    "fraction": lambda low: 2.5,
    "below": lambda low: low - 1,
    "integral float": float,
    "numpy float": np.float64,
    "string": str,
}


@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("argument", ARGUMENTS)
def test_refused_before_work(no_work, argument, bad):
    call, name, low = ARGUMENTS[argument]
    value = BAD[bad](low)
    with pytest.raises(ValueError, match=f"^{name} must be an integer >= {low}, got {re.escape(repr(value))}$"):
        call(value)


def test_every_checked_argument_has_a_row():
    # each argument that a public function or class passes to _check_integer,
    # named as its ARGUMENTS key
    checked = set()
    for path in Path(csfchan.waveform.__file__).parent.glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and not top.name.startswith("_"):
                checked |= {
                    f"{top.name}.{node.args[0].value}"
                    for node in ast.walk(top)
                    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_check_integer"
                }
    missing = checked - ARGUMENTS.keys()
    assert checked and not missing, f"no ARGUMENTS row for {sorted(missing)}"


@pytest.mark.parametrize("argument", ARGUMENTS)
def test_lowest_value_passes_the_rule(argument):
    # the lowest value, as a numpy integer, may fail a later check (an echo
    # at delay 0 is no echo), never the integer rule
    call, name, low = ARGUMENTS[argument]
    try:
        call(np.int64(low))
    except ValueError as exc:
        assert "must be an integer" not in str(exc)
