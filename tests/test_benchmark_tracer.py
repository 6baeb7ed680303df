"""The benchmark tracer's contract with the package.

benchmarks/tracing.py rebinds csfchan layer functions by name and reads
their arguments by position or keyword.  A rename or a reordered
signature in the package would leave a span or a counter silently at
zero; these tests catch that.  The tracer module is only imported here.
"""

import importlib
import importlib.util
import inspect
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import csfchan.acf
from csfchan import (
    ChannelModel,
    CsfParams,
    IdentificationProblem,
    ProbeFrame,
    Waveform,
    authoritative_acf_table,
    random_symbols,
)

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


@pytest.fixture
def tracing(monkeypatch):
    # read only: no bytecode cache is written next to the benchmark
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("csfchan_benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def layer_function(name):
    module, func = name.split(".")
    return getattr(importlib.import_module(f"csfchan.{module}"), func)


# the arguments each counter reads, by layer
READS = {
    "waveform.encode_waveform": {"stream"},
    "acf.empirical_acf": {"wave", "max_lag"},
    "acf.empirical_acf_trace": {"wave", "max_lag"},
    "estimator.solve_channel": {"prob"},
    "baselines.ls_estimate": {"frame", "max_delay"},
    "report.write_table": {"path"},
    "report.write_sidecar": {"path"},
}


class Result(list):
    """Stands in for any layer's return value: a sequence whose first
    element is a waveform, with a solver's and an LS estimate's fields."""

    iterations = 3
    converged = True
    degenerate = False


def test_every_layer_is_a_package_function(tracing):
    for name in {**tracing.LAYERS, **tracing.AT_SIZE}:
        fn = layer_function(name)
        assert inspect.isfunction(fn), name
        assert fn.__module__ == f"csfchan.{name.split('.')[0]}", name


def test_counters_read_arguments_the_signature_has(tracing, tmp_path, monkeypatch):
    path = tmp_path / "written.csv"
    path.write_text("x\n")
    wave = Waveform(np.ones(64), 4)
    table = authoritative_acf_table(CsfParams(), 20)
    values = {
        "stream": random_symbols(8, seed=0),
        "wave": wave,
        "max_lag": 2,
        "prob": IdentificationProblem(r_rr=table[:11], r_xx=table),
        "frame": ProbeFrame(probe=wave, received=wave),
        "max_delay": 2,
        "path": path,
    }
    reads = []

    def recorded(args, kwargs, index, name):
        reads.append((index, name))
        return values[name]

    monkeypatch.setattr(tracing, "_arg", recorded)
    result = Result([wave])
    for name, counter in tracing.LAYERS.items():
        reads.clear()
        if counter is not None:
            counter((), {}, result)
        if name in tracing.AT_SIZE:
            tracing.AT_SIZE[name][1]((), {})
        params = list(inspect.signature(layer_function(name)).parameters)
        assert {n for _, n in reads} == READS.get(name, set()), name
        for index, arg in reads:
            assert params[index] == arg, f"{name}: argument {index} is {params[index]!r}, the tracer reads {arg!r}"


def test_solve_size_is_read_off_a_problem(tracing):
    # call_s_m10 times the solves of problems with 10 candidate echo taps
    table = authoritative_acf_table(CsfParams(), 20)
    at_m10 = tracing.AT_SIZE["estimator.solve_channel"][1]
    assert at_m10((IdentificationProblem(r_rr=table[:11], r_xx=table),), {})
    assert not at_m10((), {"prob": IdentificationProblem(r_rr=table[:6], r_xx=table)})


def test_fig2_trace_prediction_feeds_the_pulse_acf_span(tracing, monkeypatch):
    # fig2's trace prediction reads the pulse ACF through the name
    # csfchan.acf binds, the one install() rebinds; without it the
    # waveform.pulse_acf metrics read 0 however long the call takes
    for name, module in list(sys.modules.items()):
        if name.startswith("csfchan."):
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value):
                    monkeypatch.setattr(module, attr, value)  # undone after the test
    tracer = tracing.Tracer()
    tracer.install()
    fig2_channel = ChannelModel(((0, 1.0), (2, math.exp(-1.2)), (7, math.exp(-4.2))), max_delay=10)
    csfchan.acf.predicted_rx_acf_trace(fig2_channel, 0.0, CsfParams(), 10)
    assert tracer.counts["waveform.pulse_acf.calls"] == 1
    assert tracer.metrics()["waveform.pulse_acf.self_s"] > 0.0
