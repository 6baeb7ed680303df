"""Every public integer argument follows one rule: an integer, not a bool,
of at least its lowest value, or a ValueError naming the argument before
any work. This module is the one place that tests the rule."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

import csfchan.acf
import csfchan.baselines
import csfchan.waveform
from csfchan import (
    ChannelModel,
    CsfParams,
    SolverOptions,
    Waveform,
    add_awgn,
    authoritative_acf_table,
    awgn_law,
    empirical_acf,
    empirical_acf_trace,
    gaussian_probe,
    gaussian_probe_frame,
    ls_estimate,
    ls_sweep,
    predicted_rx_acf,
    predicted_rx_acf_trace,
    pulse_acf,
    random_symbols,
    sample_random_channel,
)
from csfchan.baselines import ProbeFrame

PARAMS = CsfParams()
WAVE = Waveform(np.ones(16 * 20), 16)
CHANNEL = ChannelModel(((0, 1.0), (2, 0.5)), max_delay=4)
PROBE = Waveform(np.ones(16 * 64), 16)

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
    "sample_random_channel.max_delay": (lambda v: sample_random_channel(v, path_count=1), "max_delay", 0),
    "sample_random_channel.path_count": (lambda v: sample_random_channel(10, path_count=v), "path_count", 1),
    "gaussian_probe.n_symbols": (lambda v: gaussian_probe(v, 16, seed=0), "n_symbols", 1),
    "gaussian_probe.samples_per_symbol": (lambda v: gaussian_probe(64, v, seed=0), "samples_per_symbol", 1),
    "gaussian_probe_frame.n_symbols": (lambda v: gaussian_probe_frame(v, 16, CHANNEL, None, 0), "n_symbols", 1),
    "ls_estimate.max_delay": (lambda v: ls_estimate(ProbeFrame(PROBE, PROBE), v), "max_delay", 0),
    "ls_sweep.max_delay": (lambda v: ls_sweep(PROBE, PROBE, [0.0], 0, v), "max_delay", 0),
    "SolverOptions.max_iter": (lambda v: SolverOptions(max_iter=v), "max_iter", 1),
    "random_symbols.seed": (lambda v: random_symbols(8, seed=v), "seed", 0),
    "gaussian_probe.seed": (lambda v: gaussian_probe(64, 16, seed=v), "seed", 0),
    "sample_random_channel.seed": (lambda v: sample_random_channel(10, seed=v), "seed", 0),
    "add_awgn.seed": (lambda v: add_awgn(WAVE, 10.0, v), "seed", 0),
    "awgn_law.seed": (lambda v: awgn_law(WAVE, [10.0], v), "seed", 0),
    "ls_sweep.seed": (lambda v: ls_sweep(PROBE, PROBE, [0.0], v, 4), "seed", 0),
}


@pytest.fixture
def no_work(monkeypatch):
    """Make the first step of each function's work raise."""

    def work(*args, **kwargs):
        raise AssertionError("work ran")

    monkeypatch.setattr(np.random, "default_rng", work)
    monkeypatch.setattr(csfchan.waveform, "base_pulse", work)
    for name in ("_lagged_products", "authoritative_acf_table", "pulse_acf"):
        monkeypatch.setattr(csfchan.acf, name, work)
    for name in ("_lagged_products", "awgn_law"):
        monkeypatch.setattr(csfchan.baselines, name, work)


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
