"""Span tracing of the csfchan layers, installed from outside the package.

``Tracer.install()`` rebinds each public layer function named in ``LAYERS``
in every loaded csfchan module that holds it, the defining module included,
so calls a module makes to its own functions are traced too.  Every call
records a span (name, start, end, parent span) and bumps exact work
counters.  ``Tracer.metrics()`` turns the spans into per-layer self time:
the span's duration minus the part of it that child spans cover.  Nothing
in the package itself changes.

Only the process that installs the tracer reports: pool workers forked
from it inherit the wrappers, but their spans stay in the workers.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import defaultdict


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _correlation_work(n: int, shifts) -> dict:
    """Computed work of dot-product correlations of n samples at the given
    shifts: 2 flops and two float64 reads per overlapping sample pair."""
    pairs = sum(n - s for s in shifts)
    return {"lags": len(shifts), "flops_computed": 2 * pairs, "bytes_computed": 16 * pairs}


def _samples(args, kwargs, result):
    return {"samples": len(result)}


def _awgn(args, kwargs, result):
    return {"samples": len(result[0])}


def _empirical_acf(args, kwargs, result):
    wave = _arg(args, kwargs, 0, "wave")
    ns = wave.samples_per_symbol
    max_lag = int(_arg(args, kwargs, 1, "max_lag"))
    return _correlation_work(len(wave), [k * ns for k in range(max_lag + 1)])


def _empirical_acf_trace(args, kwargs, result):
    wave = _arg(args, kwargs, 0, "wave")
    max_lag = int(_arg(args, kwargs, 1, "max_lag"))
    return _correlation_work(len(wave), range(max_lag * wave.samples_per_symbol + 1))


def _solve(args, kwargs, result):
    return {"iterations": result.iterations, "converged": int(result.converged)}


def _ls_rows(args, kwargs):
    probe = _arg(args, kwargs, 0, "frame").probe
    return len(probe) + int(_arg(args, kwargs, 1, "max_delay")) * probe.samples_per_symbol


def _ls(args, kwargs, result):
    return {"rows": _ls_rows(args, kwargs), "degenerate": int(result.degenerate)}


def _written(args, kwargs, result):
    return {"bytes": _arg(args, kwargs, 0, "path").stat().st_size}


# span name -> work counter of one call (None: calls only); the function is
# csfchan.<module>.<function> for the span name <module>.<function>
LAYERS = {
    "waveform.encode_waveform": _samples,
    "waveform.pulse_acf": None,
    "waveform.authoritative_acf_table": None,
    "channel.apply_multipath": _samples,
    "channel.add_awgn": _awgn,
    "acf.empirical_acf": _empirical_acf,
    "acf.empirical_acf_trace": _empirical_acf_trace,
    "acf.predicted_rx_acf_trace": None,
    "estimator.solve_channel": _solve,
    "estimator.build_residuals": None,
    "estimator.residual_jacobian": None,
    "baselines.ls_estimate": _ls,
    "baselines.gaussian_probe_frame": None,
    "baselines.chaotic_probe_frame": None,
    "report.write_table": _written,
    "report.write_sidecar": _written,
}

# per-call medians at the fixed sizes the roadmap names, taken from traced
# calls of exactly that size: metric suffix and a test on the call
AT_SIZE = {
    "waveform.encode_waveform": (
        "call_s_65536sym",
        lambda args, kwargs: len(_arg(args, kwargs, 0, "stream")) == 65536,
    ),
    "acf.empirical_acf": (
        "call_s_1Msamples",
        lambda args, kwargs: 2**20 <= len(_arg(args, kwargs, 0, "wave")) < 2**20 + 2**12,
    ),
    "estimator.solve_channel": (
        "call_s_m10",
        lambda args, kwargs: _arg(args, kwargs, 0, "prob").max_delay == 10,
    ),
    "baselines.ls_estimate": (
        "call_s_16544x11",
        lambda args, kwargs: _ls_rows(args, kwargs) == 16544
        and int(_arg(args, kwargs, 1, "max_delay")) == 10,
    ),
}


class Tracer:
    """In-memory spans and counters for one traced CLI call."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, int] = defaultdict(int)
        self.sized: dict[str, list[float]] = defaultdict(list)
        self._stack: list[int] = []

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items()) if name.startswith("csfchan.")]
        for name, counter in LAYERS.items():
            module, func = name.split(".")
            original = getattr(sys.modules[f"csfchan.{module}"], func)
            wrapper = self._wrap(name, original, counter)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)

    def _wrap(self, name, fn, counter):
        at_size = AT_SIZE.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            self.counts[f"{name}.calls"] += 1
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    self.counts[f"{name}.{key}"] += value
            if at_size is not None and at_size[1](args, kwargs):
                self.sized[f"{name}.{at_size[0]}"].append(span[2] - span[1])
            return result

        return traced

    def metrics(self) -> dict[str, float]:
        """Exact counts, self seconds per layer, derived ratios and the
        per-call medians at fixed sizes."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, float] = {f"{name}.self_s": 0.0 for name in LAYERS}
        for (name, start, end, _), child in zip(self.spans, covered):
            out[f"{name}.self_s"] += end - start - child
        out.update(self.counts)
        for name, (suffix, _) in AT_SIZE.items():
            times = self.sized.get(f"{name}.{suffix}")
            out[f"{name}.{suffix}"] = statistics.median(times) if times else 0.0
        count = self.counts.get
        solves = count("estimator.solve_channel.calls", 0)
        trial_steps = count("estimator.build_residuals.calls", 0) - solves
        out["estimator.iterations"] = count("estimator.solve_channel.iterations", 0)
        out["estimator.converged_ratio"] = count("estimator.solve_channel.converged", 0) / solves if solves else 0.0
        out["estimator.step_accept_ratio"] = (
            count("estimator.residual_jacobian.calls", 0) / trial_steps if trial_steps else 0.0
        )
        out["report.bytes"] = count("report.write_table.bytes", 0) + count("report.write_sidecar.bytes", 0)
        return out
