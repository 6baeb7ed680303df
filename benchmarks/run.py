"""Benchmark of the csfchan CLI experiments at their reference configs.

    python3 benchmarks/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 benchmarks/run.py --workload all [--seconds <s>]

Closed loop with one client: a sample is one call of ``csfchan.cli.main``
in a fresh interpreter (``child.py``), and the next call starts when the
previous one has ended.  The package is imported from ``src/`` of the
checkout this file sits in.  ``--seed`` replaces the config's seed, except
for ``fig2``, which always runs at its config's seed.

``--trace 0`` calls the CLI untraced until ``--seconds`` have passed and
reports medians of the end-to-end metrics.  ``--trace 1`` makes one
untraced call, then traced calls (``tracing.py``) until ``--seconds`` have
passed, at least two, and reports the per-layer metrics.  Metric names and
units come from ``BENCHMARK.json``; README.md lists the workloads, the
output check and what each metric should move.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
NPROC = len(os.sched_getaffinity(0))
RUN_LIMIT_S = 170.0  # a run, untimed checks included, ends before this
MIN_SETUP_SAMPLES = 5
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    command: str
    config: str
    threads: int
    csv: str  # file the CLI writes, and its reference under reference/
    fans_out: bool = True  # runs trials through the process pool
    seeded: bool = True  # --seed replaces the config's seed

    def seed(self) -> int:
        import yaml

        return int(yaml.safe_load((ROOT / self.config).read_text())["seed"])

    def argv(self, seed: int, threads: int, out: Path) -> list[str]:
        return [self.command, "--config", str(ROOT / self.config), "--seed", str(seed),
                "--threads", str(threads), "--out", str(out)]


WORKLOADS = {
    # fig2's built-in echo-peak check is statistical and fails at some seeds
    # (201 is one), so this workload keeps the committed figure's seed
    "fig2": Workload("fig2", "configs/fig2.yaml", 1, "fig2.csv", fans_out=False, seeded=False),
    "sweep_length": Workload("sweep-length", "configs/length_sweep.yaml", 1, "sweep_length.csv"),
    "sweep_snr": Workload("sweep-snr", "configs/snr_sweep_full.yaml", 1, "sweep_snr.csv"),
    "sweep_snr_par": Workload("sweep-snr", "configs/snr_sweep_full.yaml", NPROC, "sweep_snr.csv"),
}


@dataclass
class Call:
    """One child interpreter: its exit status, JSON record and CSV bytes."""

    status: int
    record: dict | None
    csv: bytes | None
    setup_s: float
    stderr: str


class Runner:
    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH", "")) if p
        )
        # the sidecar's `git describe` stops at the checkout
        self.env["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)

    def child(self, args: list[str], csv: Path | None = None) -> Call:
        started = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), *args],
            cwd=WORK, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True,
        )
        try:
            stdout, stderr = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            stdout, stderr = "", f"killed after the run's time limit of {RUN_LIMIT_S:.0f} s"
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)  # pool workers share the group
                proc.communicate()
        lines = stdout.strip().splitlines()
        record = json.loads(lines[-1]) if lines else None
        setup = record["imported_at"] - started if record else math.nan
        data = csv.read_bytes() if csv is not None and csv.exists() else None
        return Call(proc.returncode, record, data, setup, stderr)

    def cli(self, wl: Workload, seed: int, threads: int, trace: bool = False) -> Call:
        # one output path for every call, so the sidecar (which records the
        # resolved config) has the same bytes each time; cleared so that a
        # call that writes nothing cannot pass on an earlier call's CSV
        out = WORK / "out"
        shutil.rmtree(out, ignore_errors=True)
        flags = ["--trace"] if trace else []
        return self.child([*flags, "--", *wl.argv(seed, threads, out)], out / wl.csv)

    def setup_only(self) -> float:
        return self.child(["--import-only"]).setup_s


def nonfinite(data: bytes) -> bool:
    """Any NaN or infinity in the CSV; the first column is the config hash."""
    for line in data.decode().splitlines()[1:]:
        for field in line.split(",")[1:]:
            try:
                if not math.isfinite(float(field)):
                    return True
            except ValueError:
                pass
    return False


def max_abs_diff(a: bytes, b: bytes) -> float:
    rows_a, rows_b = a.decode().splitlines(), b.decode().splitlines()
    if len(rows_a) != len(rows_b):
        return math.inf
    worst = 0.0
    for ra, rb in zip(rows_a, rows_b):
        fa, fb = ra.split(","), rb.split(",")
        if len(fa) != len(fb):
            return math.inf
        for x, y in zip(fa, fb):
            if x == y:
                continue
            try:
                worst = max(worst, abs(float(x) - float(y)))
            except ValueError:
                return math.inf
    return worst


def check(call: Call, expected: bytes | None, against: str) -> str | None:
    """Why the call failed its output check, or None if it passed."""
    if call.status != 0 or call.record is None:
        tail = call.stderr.strip().splitlines()[-1:] or ["no record"]
        return f"exit status {call.status}: {tail[0]}"
    if call.csv is None:
        return "no CSV written"
    if nonfinite(call.csv):
        return "NaN or infinity in the CSV"
    if expected is not None and call.csv != expected:
        return f"CSV differs from {against} (max abs diff {max_abs_diff(call.csv, expected):.3g})"
    return None


def tail(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return "no tail percentile (fewer than 11 samples)"
    return f"p{100 * (n - 10) / n:.0f} {sorted(values)[n - 11]:.6g}"


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": NPROC,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": metadata.version("scipy"),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        **{name: os.environ.get(name) for name in BLAS_VARIABLES},
    }


def run_untraced(runner: Runner, wl: Workload, seed: int, seconds: float, units: dict, lines: list):
    reference = HERE / "reference" / wl.csv
    at_reference = seed == wl.seed()
    runner.setup_only()  # warm-up: bytecode compiled and files cached for the timed calls
    calls = []
    start = time.monotonic()
    while not calls or time.monotonic() - start < seconds:
        calls.append(runner.cli(wl, seed, wl.threads))
    oracle_failure = None
    if at_reference:
        expected, against = reference.read_bytes(), f"reference/{wl.csv}"
    elif wl.threads > 1:
        serial = runner.cli(wl, seed, 1)
        oracle_failure = check(serial, None, "")
        expected, against = serial.csv, "the serial call"
    else:
        expected, against = calls[0].csv, "the first call of the run"
    failures = [check(c, expected, against) for c in calls]
    if oracle_failure:
        lines.append(f"check failed: serial call: {oracle_failure}")
    done = [c.record for c in calls if c.record is not None]
    if not done:
        raise SystemExit(f"no call of the CLI ran to the end: {failures[0]}")
    setups = [c.setup_s for c in calls if c.record is not None]
    while len(setups) < MIN_SETUP_SAMPLES:
        setups.append(runner.setup_only())
    samples = {
        "setup_s": setups,
        "wall_s": [r["wall_s"] for r in done],
        "cpu_s": [r["parent_cpu_s"] + r["workers_cpu_s"] for r in done],
        "peak_rss_mb": [r["peak_rss_mb"] for r in done],
    }
    failed = sum(f is not None for f in failures)
    lines += [f"check failed: {f}" for f in failures if f]
    lines.append(f"fail_rate = {failed / len(calls):.6g} ({failed} of {len(calls)} calls)")
    correct = failed == 0 and oracle_failure is None
    metrics = {}
    for name, unit in units.items():
        values = samples[name]
        metrics[name] = {"value": statistics.median(values), "unit": unit}
        lines.append(f"{name} = {statistics.median(values):.6g} {unit} (median of {len(values)}; {tail(values)})")
    return correct, len(calls), failed, metrics


def run_traced(runner: Runner, wl: Workload, seed: int, seconds: float, units: dict, lines: list):
    start = time.monotonic()
    plain = runner.cli(wl, seed, wl.threads)
    traced = []
    while len(traced) < 2 or time.monotonic() - start < seconds:
        traced.append(runner.cli(wl, seed, wl.threads, trace=True))
    expected = (HERE / "reference" / wl.csv).read_bytes() if seed == wl.seed() else None
    failures = [check(plain, expected, f"reference/{wl.csv}")]
    failures += [check(c, plain.csv, "the untraced call") for c in traced]
    attempted = 1 + len(traced)
    if wl.fans_out:
        other = 1 if wl.threads > 1 else NPROC
        failures.append(check(runner.cli(wl, seed, other), plain.csv, f"the call at --threads {wl.threads}"))
        attempted += 1
    done = [c.record for c in traced if c.record is not None]
    if plain.record is None or not done:
        raise SystemExit(f"no traced call of the CLI ran to the end: {[f for f in failures if f][0]}")
    counts = [r["counts"] for r in done]
    if any(c != counts[0] for c in counts):
        failures.append("work counters differ between traced calls of one input")
    lines += [f"check failed: {f}" for f in failures if f]
    samples = {
        "experiments.parent_cpu_s": [r["parent_cpu_s"] for r in done],
        "experiments.workers_cpu_s": [r["workers_cpu_s"] for r in done],
        "experiments.cores_busy": [(r["parent_cpu_s"] + r["workers_cpu_s"]) / r["wall_s"] for r in done],
        "trace.overhead_s": [r["wall_s"] - plain.record["wall_s"] for r in done],
    }
    metrics = {}
    for name, unit in units.items():
        # a layer the workload never calls has no counters
        values = samples.get(name) or [r["layers"].get(name, 0) for r in done]
        metrics[name] = {"value": statistics.median(values), "unit": unit}
        lines.append(f"{name} = {statistics.median(values):.6g} {unit} (median of {len(values)} traced calls)")
    failed = sum(f is not None for f in failures)
    return failed == 0, attempted, failed, metrics


def run(name: str, seed: int | None, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    wl = WORKLOADS[name]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    lines = [] if seed is None or wl.seeded else [f"--seed ignored: {name} runs at its config's seed"]
    seed = seed if seed is not None and wl.seeded else wl.seed()
    lines.append(f"workload {name}: csfchan {' '.join(wl.argv(seed, wl.threads, Path('<out>')))}")
    runner = Runner(time.monotonic() + RUN_LIMIT_S)
    measure = run_traced if trace else run_untraced
    correct, attempted, failed, metrics = measure(runner, wl, seed, seconds, units, lines)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=None, help="default: the config's own seed")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/csfchan/cli.py", "BENCHMARK.json") if not (ROOT / p).is_file()]
    if missing:
        print(f"not a csfchan checkout: {', '.join(missing)} missing under {ROOT}", file=sys.stderr)
        return 2
    shutil.rmtree(WORK, ignore_errors=True)  # left behind by a killed run
    WORK.mkdir()
    print("environment", json.dumps(environment(), sort_keys=True), flush=True)
    try:
        if args.workload != "all":
            result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
            print("\n".join(lines))
            print(json.dumps(result))
            return 0
        results = {}
        for name in WORKLOADS:
            for trace in (False, True):
                result, lines = run(name, args.seed, args.seconds, trace)
                print("\n".join(lines), flush=True)
                results[f"{name}/trace{int(trace)}"] = result
        print(json.dumps(results))
        return 0 if all(r["correct"] for r in results.values()) else 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
