"""Experiment harness: seeding, config handling, runners, CLI, determinism."""

import ast
import concurrent.futures
import copy
import dataclasses
import itertools
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml

import csfchan
import csfchan.cli
import csfchan.experiments
import csfchan.report
from csfchan.baselines import chaotic_probe_frame, gaussian_probe_frame, ls_estimate
from csfchan.acf import empirical_acf, empirical_acf_trace, predicted_rx_acf
from csfchan.channel import ChannelModel, add_awgn, apply_multipath, attenuation_from_delay, sample_random_channel
from csfchan.cli import main as cli_main
from csfchan.estimator import EstimationResult, IdentificationProblem, solve_channel, solve_channels
from csfchan.experiments import (
    DEFAULT_CONFIG,
    ConfigError,
    _blind_taps,
    _snr_errors,
    _snr_trial,
    _trial_channel,
    derive_seed,
    expected_secondary_peaks,
    interior_peak_lags,
    resolve_config,
    run_datalength_sweep,
    run_fig2,
    run_invariance_demo,
    run_snr_sweep,
)
from csfchan.waveform import CsfParams, Waveform, _encode_amplitudes, encode_waveform, random_symbols


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, 3, 1) == derive_seed(42, 3, 1)

    def test_index_sensitivity(self):
        seeds = {derive_seed(42, t) for t in range(1000)}
        assert len(seeds) == 1000

    def test_path_sensitivity(self):
        assert derive_seed(42, 1, 2) != derive_seed(42, 2, 1)

    def test_64bit_range(self):
        s = derive_seed(2**63, 7)
        assert 0 <= s < 2**64


class TestConfig:
    def test_defaults_resolve(self):
        cfg = resolve_config(None)
        assert cfg == DEFAULT_CONFIG
        assert cfg is not DEFAULT_CONFIG
        # the sweeps share their prior's rows, not its lists: a list set in
        # place changes one key only
        lists = [value for section in cfg.values() if isinstance(section, dict) for value in section.values()]
        lists = [value for value in lists if isinstance(value, list)]
        assert len({id(value) for value in lists}) == len(lists) == 6

    def test_nested_merge(self):
        cfg = resolve_config({"sweep_snr": {"symbols": 2048}})
        assert cfg["sweep_snr"]["symbols"] == 2048
        assert cfg["sweep_snr"]["path_count"] == DEFAULT_CONFIG["sweep_snr"]["path_count"]

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            resolve_config({"no_such_section": 1})

    def test_layers_merge_in_order(self):
        cfg = resolve_config({"seed": 3, "fig2": {"symbols": 64}}, None, {"fig2": {"symbols": 128, "gamma": 0.5}})
        assert (cfg["seed"], cfg["fig2"]["symbols"], cfg["fig2"]["gamma"]) == (3, 128, 0.5)
        assert resolve_config() == DEFAULT_CONFIG

    def test_readme_lists_the_defaults(self):
        readme = (REPO / "README.md").read_text()
        block = readme.split("### Configuration file", 1)[1].split("```yaml\n", 1)[1].split("```", 1)[0]
        assert csfchan.cli._load(block) == {k: v for k, v in DEFAULT_CONFIG.items() if k != "experiment"}


class TestPeakDetection:
    def test_interior_peaks(self):
        values = np.array([5.0, -1.0, 2.0, -0.5, -0.2, -0.4, 1.0, 0.0])
        assert interior_peak_lags(values) == [2, 4, 6]
        # lag 3 tops its right neighbour but not its left
        assert interior_peak_lags(np.array([0.0, 1.0, 2.0, 1.0, 0.0])) == [2]
        # lag 1 is interior, and a plateau is no peak
        assert interior_peak_lags(np.array([0.0, 1.0, 0.0, 2.0, 2.0, 0.0])) == [1]

    def test_expected_peaks_from_channel(self):
        ch = ChannelModel(paths=((0, 1.0), (2, 0.3), (7, 0.01)), max_delay=10)
        assert expected_secondary_peaks(ch) == {2, 5, 7}


class TestRunners:
    def test_invariance_demo(self):
        cfg = resolve_config(
            {"seed": 5, "invariance": {"streams": 3, "symbols": 512, "include_all_ones": True}}
        )
        result = run_invariance_demo(cfg)
        streams = {row[0] for row in result.rows}
        assert streams == {"s00", "s01", "s02", "all_ones"}
        excluded = {row[0] for row in result.rows if row[5]}
        assert excluded == {"all_ones"}
        # reference column is the closed-form table, identical on every stream
        refs = sorted({row[3] for row in result.rows if row[1] == 0})
        assert len(refs) == 1
        # the spread over every pair of random streams, lag by lag, and
        # R(0) / sqrt(symbols)
        acfs = np.array([row[2] for row in result.rows if not row[5]]).reshape(3, 11)
        pairwise = max(float(np.max(np.abs(a - b))) for a, b in itertools.combinations(acfs, 2))
        assert result.summary["max_pairwise_abs_dev"] == pairwise > 0.0
        assert result.summary["sampling_noise_std"] == pytest.approx(refs[0] / math.sqrt(512), rel=1e-15)

    def test_invariance_acf_is_the_unbuilt_frames(self, monkeypatch):
        # every stream's ACF comes from its symbol-rate pieces, building no
        # frame; it is empirical_acf of that frame within 1e-13 R(0)
        cfg = resolve_config({"seed": 5, "invariance": {"streams": 2, "symbols": 512, "include_all_ones": True}})
        streams = [random_symbols(512, seed=derive_seed(5, s)) for s in range(2)] + [np.ones(512)]
        oracles = [empirical_acf(_encode_amplitudes(stream, CsfParams(**cfg["csf"])), 10) for stream in streams]

        def no_frame(*args):
            raise AssertionError("a sample-rate frame was built or measured")

        for name in ("_encode_amplitudes", "empirical_acf"):
            monkeypatch.setattr(csfchan.experiments, name, no_frame)
        acfs = np.array([row[2] for row in run_invariance_demo(cfg).rows]).reshape(3, 11)
        for acf, oracle in zip(acfs, oracles):
            assert np.max(np.abs(acf - oracle)) <= 1e-13 * oracle[0]

    def test_fig2_small(self):
        cfg = resolve_config({"seed": 1, "fig2": {"symbols": 4096}})
        result = run_fig2(cfg)
        assert result.summary["predicted_peak_lags"] == [2, 5, 7]
        assert result.summary["channel_attenuations"][1] == pytest.approx(np.exp(-1.2))
        assert result.summary["channel_attenuations"][2] == pytest.approx(np.exp(-4.2))
        assert len(result.rows) == 161
        # empirical columns differ from predicted but stay in the same range
        emp = np.array([r[1] for r in result.rows])
        pred = np.array([r[2] for r in result.rows])
        assert np.max(np.abs(emp - pred)) < 0.2
        # the agreement bound is inclusive
        cfg["fig2"]["agreement_tol"] = result.summary["max_abs_disagreement"]
        assert run_fig2(cfg).summary["checks"]["integer_lag_agreement"]

    def test_length_sweep_rows(self):
        cfg = resolve_config(
            {"seed": 3, "trials": 2, "sweep_length": {"lengths": [256, 512]}}
        )
        result = run_datalength_sweep(cfg)
        assert [row[0] for row in result.rows] == [256, 512]
        assert all(row[4] >= 0 for row in result.rows)

    def test_snr_sweep_rows(self):
        cfg = resolve_config(
            {
                "seed": 3,
                "trials": 2,
                "sweep_snr": {"snr_db_list": [0.0, 10.0], "symbols": 256},
            }
        )
        result = run_snr_sweep(cfg)
        assert len(result.rows) == 2 * 3
        methods = {row[1] for row in result.rows}
        assert methods == {"blind_acf", "ls_gaussian", "ls_chaos"}


REPO = Path(__file__).resolve().parents[1]


def assert_reference_bytes(out_dir: Path, name: str, reference_dir: str = "benchmarks/reference") -> None:
    """The CSV written to out_dir is the committed reference, byte for byte;
    a failure names the first differing line and the OpenBLAS kernel."""
    written, reference = (out_dir / name).read_bytes(), (REPO / reference_dir / name).read_bytes()
    if written == reference:
        return
    # split on b"\n" alone, so that bytes which differ always differ in a line
    pairs = itertools.zip_longest(written.split(b"\n"), reference.split(b"\n"))
    line, (got, expected) = next((n, pair) for n, pair in enumerate(pairs, 1) if pair[0] != pair[1])
    pytest.fail(
        f"{name} differs from {reference_dir}/{name} first at line {line}: wrote {got!r}, "
        f"reference {expected!r} (OpenBLAS core {csfchan.report._openblas_core()})"
    )


class TestFig2:
    def test_integer_acf_is_empirical_acf(self):
        # run_fig2 reads the integer-lag ACF off its trace; every summary
        # field built from it must be what empirical_acf gives
        for delays in ([0, 2, 7], [0, 2, 3]):
            cfg = resolve_config({"seed": 3, "fig2": {"symbols": 4096, "snr_db": 10.0, "delays": delays}})
            result = run_fig2(cfg)
            params = CsfParams(**cfg["csf"])
            section = cfg["fig2"]
            paths = ((0, 1.0), *((d, attenuation_from_delay(0.6, d)) for d in delays[1:]))
            ch = ChannelModel(paths=paths, max_delay=10)
            stream = random_symbols(section["symbols"], seed=derive_seed(cfg["seed"], 1))
            received = _encode_amplitudes(apply_multipath(Waveform(stream, 1), ch).samples, params)
            received, noise_var = add_awgn(received, section["snr_db"], seed=derive_seed(cfg["seed"], 2))
            emp = empirical_acf(received, 10)
            pred = predicted_rx_acf(ch, noise_var, params, 10)
            np.testing.assert_array_equal([row[1] for row in result.rows[:: params.oversampling]], emp)
            assert result.summary["empirical_peak_lags"] == interior_peak_lags(emp)
            assert result.summary["max_abs_disagreement"] == float(np.max(np.abs(emp - pred)))
            left, right = ({str(d): float(emp[d] - emp[d + side]) for d in delays[1:]} for side in (-1, 1))
            assert result.summary["echo_peak_margins"] == {d: min(left[d], right[d]) for d in left}
        # the echo at 3 stands less above the echo before it than above the
        # lag after it: its margin is the left one
        assert left["3"] < right["3"]

    @pytest.mark.parametrize("snr_db", [None, math.inf])
    def test_noiseless_trace_is_the_unbuilt_frames(self, monkeypatch, snr_db):
        # a noiseless run takes its trace from the frame's symbol-rate
        # pieces, building no frame; it is the sample-rate trace of that
        # frame within test_acf's bound for the pieces, 1e-13 R(0)
        cfg = resolve_config({"seed": 3, "fig2": {"symbols": 4096, "snr_db": snr_db}})
        paths = ((0, 1.0), (2, attenuation_from_delay(0.6, 2)), (7, attenuation_from_delay(0.6, 7)))
        stream = random_symbols(4096, seed=derive_seed(3, 1))
        amplitudes = apply_multipath(Waveform(stream, 1), ChannelModel(paths, 10)).samples
        frame = _encode_amplitudes(amplitudes, CsfParams(**cfg["csf"]))
        _, oracle = empirical_acf_trace(frame, 10)

        def no_frame(*args):
            raise AssertionError("a sample-rate frame was built or measured")

        for name in ("_encode_amplitudes", "empirical_acf_trace", "add_awgn"):
            monkeypatch.setattr(csfchan.experiments, name, no_frame)
        result = run_fig2(cfg)
        trace = np.array([row[1] for row in result.rows])
        assert np.max(np.abs(trace - oracle)) <= 1e-13 * oracle[0]
        assert result.summary["noise_sigma2"] == 0.0

    def test_failed_echo_check_explains_itself(self):
        # seed 201 is one of the 7 seeds in 400 where the weak echo at
        # delay 7 is not a local peak of the measured ACF
        result = run_fig2(resolve_config({**yaml.safe_load((REPO / "configs/fig2.yaml").read_text()), "seed": 201}))
        assert result.summary["checks"]["strong_echoes_in_empirical"] is False
        margins = result.summary["echo_peak_margins"]
        assert margins["2"] > 0 >= margins["7"]
        assert 7 not in result.summary["empirical_peak_lags"]

    def test_echo_at_the_last_lag_has_no_margin(self):
        result = run_fig2(resolve_config({"fig2": {"symbols": 1024, "delays": [0, 2, 10]}}))
        assert result.summary["echo_peak_margins"]["10"] is None
        assert result.summary["checks"]["strong_echoes_in_empirical"] is False

    @pytest.mark.parametrize("snr_db, frames", [(None, 1), (10.0, 3)])
    def test_peak_memory_is_a_few_frames(self, snr_db, frames):
        # a noiseless run builds no frame, its ACF comes from the
        # symbol-rate pieces: measured 3.44 MB against an 8.39 MB frame; at
        # 10 dB the frame is built at symbol rate, so no sample-rate FFT
        # buffer sits beside it: 18.4 MB; the FFT encode and the
        # sample-rate path sum peak at 34.9 MB
        cfg = resolve_config(yaml.safe_load((REPO / "configs/fig2.yaml").read_text()), {"fig2": {"snr_db": snr_db}})
        params = CsfParams(**cfg["csf"])
        section = cfg["fig2"]
        frame_bytes = (section["symbols"] + params.pulse_tail + max(section["delays"])) * params.oversampling * 8
        tracemalloc.start()
        try:
            run_fig2(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= frames * frame_bytes

    def test_reference_csv_bytes(self, tmp_path):
        # the fig2 reference bytes hold for any BLAS thread count
        code = cli_main(["fig2", "--config", str(REPO / "configs/fig2.yaml"), "--out", str(tmp_path)])
        assert code == 0
        assert_reference_bytes(tmp_path, "fig2.csv")
        margins = json.loads((tmp_path / "fig2.json").read_text())["summary"]["echo_peak_margins"]
        assert margins.keys() == {"2", "7"} and all(m > 0 for m in margins.values())


def _reference_sweep(tmp_path_factory, command: str, config: str) -> tuple[int, Path, list]:
    """One reference sweep through the CLI: its exit code, its output
    directory and the solve_channels blocks recorded while it ran."""
    out = tmp_path_factory.mktemp(command)
    with pytest.MonkeyPatch.context() as mp:
        blocks = recorded_blocks(mp)
        code = cli_main([command, "--config", str(REPO / config), "--out", str(out)])
    return code, out, blocks


# each reference sweep runs once per module; its bytes and its solve
# blocks are checked on that one run
@pytest.fixture(scope="module")
def sweep_snr_run(tmp_path_factory):
    return _reference_sweep(tmp_path_factory, "sweep-snr", "configs/snr_sweep_full.yaml")


@pytest.fixture(scope="module")
def sweep_length_run(tmp_path_factory):
    return _reference_sweep(tmp_path_factory, "sweep-length", "configs/length_sweep.yaml")


def test_reference_sweep_snr_bytes(sweep_snr_run):
    # 500 blind solves through the lag weights the prediction shares
    code, out, _ = sweep_snr_run
    assert code == 0
    assert_reference_bytes(out, "sweep_snr.csv")


def test_reference_sweep_snr_solves_in_blocks(sweep_snr_run):
    # the 500 blind problems of the reference sweep go to the solver in
    # one batch, never one frame at a time; the solver blocks them itself
    # (test_estimator's test_stacked_solves_hold_at_most_one_block)
    assert sweep_snr_run[2] == [500]


def test_reference_sweep_length_bytes(sweep_length_run):
    # frames up to 65536 symbols: every ACF lag sums its two halves
    code, out, _ = sweep_length_run
    assert code == 0
    assert_reference_bytes(out, "sweep_length.csv")


def test_reference_sweep_length_solves_in_blocks(sweep_length_run):
    # the 140 blind problems (20 trials x 7 lengths) are solved after the
    # trials, across them, in one batch as the SNR sweep's are
    assert sweep_length_run[2] == [140]


def test_reference_invariance_bytes(tmp_path):
    # ten random streams and the all-ones stream at seed 1
    code = cli_main(["invariance", "--set", "invariance.include_all_ones=true", "--out", str(tmp_path)])
    assert code == 0
    assert_reference_bytes(tmp_path, "invariance.csv", "tests/reference")


@pytest.mark.parametrize(
    "name, override",
    [("beta0.1", "csf.beta=0.1"), ("beta0.01", "csf.beta=0.01"), ("snr10", "fig2.snr_db=10")],
    ids=["0.1", "0.01", "snr10"],
)
def test_reference_fig2_bytes_at_small_beta(tmp_path, name, override):
    # pulse tails of 139 and 1382 symbol periods under the fractional-lag
    # prediction, and the noisy route, which builds and measures the frame
    # (a noiseless run takes the trace from the frame's pieces); 8192
    # symbols are too few for the agreement checks, so the run exits 1,
    # but the bytes are the subject here
    args = ["--set", override, "--set", "fig2.symbols=8192", "--out", str(tmp_path)]
    code = cli_main(["fig2", "--config", str(REPO / "configs/fig2.yaml"), *args])
    assert code == 1
    (tmp_path / "fig2.csv").rename(tmp_path / f"fig2_{name}.csv")
    assert_reference_bytes(tmp_path, f"fig2_{name}.csv", "tests/reference")


@pytest.mark.parametrize("methods", [["ls_chaos", "blind_acf"], ["ls_gaussian"]])
def test_method_subset_rows_match_full_run(methods):
    # each (snr, method) row is that of the three-method run, in the
    # subset's order within each SNR
    cfg = resolve_config({"seed": 5, "trials": 3, "sweep_snr": {"symbols": 256}})
    full = {row[:2]: row for row in run_snr_sweep(cfg).rows}
    cfg["sweep_snr"]["methods"] = methods
    result = run_snr_sweep(cfg)
    snrs = [float(snr) for snr in cfg["sweep_snr"]["snr_db_list"]]
    assert result.rows == [full[(snr, method)] for snr in snrs for method in methods]


def per_snr_trial(cfg, trial):
    """The SNR-sweep trial with every frame rebuilt at each SNR through the
    single-SNR calls: the oracle of the once-per-trial form."""
    params = CsfParams(**cfg["csf"])
    section = cfg["sweep_snr"]
    m, n_sym, path_count = section["max_delay"], section["symbols"], section["path_count"]
    seeds = [derive_seed(cfg["seed"], trial, k) for k in range(4)]
    ch = sample_random_channel(m, tuple(section["gamma_range"]), path_count, seed=seeds[0])
    truth = ch.taps[1:]

    def err(taps):
        return float(np.sum((taps - truth) ** 2)) / path_count

    out = {}
    for snr in [float(s) for s in section["snr_db_list"]]:
        clean = apply_multipath(encode_waveform(random_symbols(n_sym, seed=seeds[1]), params), ch)
        acf = empirical_acf(add_awgn(clean, snr, seed=seeds[2])[0], m)
        taps, converged = _blind_taps(params, acf)
        out[(snr, "blind_acf")] = (err(taps), bool(converged))
        for method, frame in (
            ("ls_gaussian", gaussian_probe_frame(n_sym, params.oversampling, ch, snr, seed=seeds[3])),
            ("ls_chaos", chaotic_probe_frame(n_sym, params, ch, snr, seed=seeds[1])),
        ):
            est = ls_estimate(frame, m)
            out[(snr, method)] = (err(est.alpha_hat[1:] / est.alpha_hat[0]), not est.degenerate)
    return out


def snr_trial_errors(cfg, trial):
    """_snr_trial's (error, flag) per (snr_db, method), solved and scored
    by _snr_errors as run_snr_sweep solves and scores them."""
    section = cfg["sweep_snr"]
    params, ch = CsfParams(**cfg["csf"]), _trial_channel(cfg, "sweep_snr", trial)
    # stacked over this one trial as run_snr_sweep stacks the returns of all
    acfs, ls_taps, full_rank = map(np.array, zip(_snr_trial((cfg, params, trial, ch))))
    errs, flags = _snr_errors(params, section, [ch], acfs, ls_taps, full_rank)
    return {
        (float(snr_db), method): (float(errs[0, si, mi]), bool(flags[0, si, mi]))
        for si, snr_db in enumerate(section["snr_db_list"])
        for mi, method in enumerate(section["methods"])
    }


class TestSnrTrialReuse:
    def test_matches_per_snr_oracle(self):
        # the blind path and every flag are bit-identical; the LS errors come
        # from solves by linearity in the noise, which sum in another order
        # (max relative difference 3.6e-13 over 60 trials)
        cfg = resolve_config({"seed": 5, "sweep_snr": {"symbols": 256}})
        for trial in range(3):
            got, expected = snr_trial_errors(cfg, trial), per_snr_trial(cfg, trial)
            assert got.keys() == expected.keys()
            for key, (err, flag) in got.items():
                assert flag == expected[key][1]
                if key[1] == "blind_acf":
                    assert err == expected[key][0]
                else:
                    assert err == pytest.approx(expected[key][0], rel=1e-9, abs=0.0)


class TestReferenceNonConvergence:
    """The blind solves of the reference sweep_snr config (seed 70, 500
    solves) that end with converged=False: trial 11 at every SNR and
    trial 21 at 0 dB.  Each stops well short of max_iter, because no
    damping lowers the cost or the accepted step falls below the step
    tolerance, with a residual hundreds to thousands of times the
    tolerance; the taps are the best iterate."""

    # (trial, snr_db): iterations, residual norm, and how the solve stopped:
    # "stuck" when no damping lowers the cost, "step" when the accepted
    # step falls below the step tolerance of 1e-12
    EXPECTED = {
        (11, 0.0): (27, 1.198e-2, "step"),
        (11, 5.0): (21, 7.830e-3, "stuck"),
        (11, 10.0): (22, 4.289e-3, "stuck"),
        (11, 15.0): (19, 1.965e-3, "stuck"),
        (11, 20.0): (15, 5.610e-4, "step"),
        (21, 0.0): (25, 9.328e-3, "step"),
    }

    def test_trials_11_and_21(self, monkeypatch):
        solves = []

        def recording_solves(r_xx, measured, opts):
            results = solve_channels(r_xx, measured, opts)
            for i, row in enumerate(measured):
                prob = IdentificationProblem(r_rr=row, r_xx=r_xx)
                result = EstimationResult(*(getattr(results, field.name)[i] for field in dataclasses.fields(results)))
                solves.append((prob, opts, result))
            return results

        monkeypatch.setattr(csfchan.experiments, "solve_channels", recording_solves)
        cfg = resolve_config(yaml.safe_load((REPO / "configs/snr_sweep_full.yaml").read_text()))
        cfg["sweep_snr"]["methods"] = ["blind_acf"]
        snrs = cfg["sweep_snr"]["snr_db_list"]
        for trial in (11, 21):
            solves.clear()
            flags = snr_trial_errors(cfg, trial)
            assert len(solves) == len(snrs)
            for snr, (prob, opts, result) in zip(snrs, solves):
                assert flags[(snr, "blind_acf")][1] == result.converged
                if (trial, snr) not in self.EXPECTED:
                    assert result.converged
                    continue
                iterations, residual, stop = self.EXPECTED[(trial, snr)]
                assert not result.converged
                assert opts.tol == pytest.approx(1.34e-6, rel=1e-2) and opts.max_iter == 100
                assert result.iterations == iterations < opts.max_iter
                assert result.residual_norm == pytest.approx(residual, rel=1e-3)
                # one iteration fewer replays the solve up to the last iterate
                before = solve_channel(prob, dataclasses.replace(opts, max_iter=iterations - 1))
                moved = np.linalg.norm(
                    np.append(result.alpha_hat - before.alpha_hat, result.noise_var_hat - before.noise_var_hat)
                )
                if stop == "stuck":
                    assert moved == 0.0
                else:
                    assert 0.0 < moved <= 1e-12


def recorded_blocks(monkeypatch) -> list:
    """The row counts of the batches the experiments hand to
    solve_channels, filled in as they run; solve_channel called anywhere
    in the package fails the test."""

    def forbidden(*args, **kwargs):
        raise AssertionError("the sweep solves a frame on its own")

    for module in [m for name, m in sys.modules.items() if name == "csfchan" or name.startswith("csfchan.")]:
        for attr, value in list(vars(module).items()):
            if value is solve_channel:
                monkeypatch.setattr(module, attr, forbidden)
    blocks = []

    def recording_solves(r_xx, measured, opts):
        blocks.append(len(measured))
        return solve_channels(r_xx, measured, opts)

    monkeypatch.setattr(csfchan.experiments, "solve_channels", recording_solves)
    return blocks


def test_length_sweep_runs_largest_frame_first(monkeypatch):
    # one frame length is live at a time: across the whole sweep the
    # received frames never grow, each frame keeps the seeds of its
    # (trial, length) and its ACF lands in the row of the config's order;
    # at seed 2 the last delays are 4, 2 and 2, so trial 0's 255-symbol
    # frame outgrows the 256-symbol frames of trials 1 and 2
    cfg = resolve_config(
        {"seed": 2, "trials": 3, "sweep_length": {"lengths": [256, 1024, 512, 255], "max_delay": 4, "path_count": 3}}
    )
    lengths = cfg["sweep_length"]["lengths"]
    params = CsfParams(**cfg["csf"])
    channels = [csfchan.experiments._trial_channel(cfg, "sweep_length", trial) for trial in range(3)]
    expected = np.array(
        [
            [csfchan.experiments._length_frame((cfg, params, t, li, ch)) for li in range(4)]
            for t, ch in enumerate(channels)
        ]
    )
    seeds = {derive_seed(cfg["seed"], t, 1, li): (t, li) for t in range(3) for li in range(4)}
    frames, received, noise_seeds, measured = [], [], [], []

    def recording_symbols(n, seed):
        frames.append(seeds[seed])
        assert n == lengths[seeds[seed][1]]
        return random_symbols(n, seed)

    def recording_multipath(wave, ch):
        received.append(apply_multipath(wave, ch))
        return received[-1]

    def recording_awgn(wave, snr_db, seed):
        noise_seeds.append(seed)
        return add_awgn(wave, snr_db, seed)

    def recording_taps(params, acfs):
        measured.append(acfs)
        return _blind_taps(params, acfs)

    monkeypatch.setattr(csfchan.experiments, "random_symbols", recording_symbols)
    monkeypatch.setattr(csfchan.experiments, "apply_multipath", recording_multipath)
    monkeypatch.setattr(csfchan.experiments, "add_awgn", recording_awgn)
    monkeypatch.setattr(csfchan.experiments, "_blind_taps", recording_taps)
    result = run_datalength_sweep(cfg)
    sizes = [len(wave) for wave in received]
    assert sizes == sorted(sizes, reverse=True)
    assert sorted(frames) == sorted(seeds.values())
    assert noise_seeds == [derive_seed(cfg["seed"], t, 2, li) for t, li in frames]
    assert [row[0] for row in result.rows] == lengths
    assert np.array_equal(measured[0], expected)


@pytest.mark.parametrize(
    "runner, section",
    [(run_snr_sweep, {}), (run_datalength_sweep, {"sweep_length": {"lengths": [256]}})],
    ids=["sweep_snr", "sweep_length"],
)
def test_pool_never_outnumbers_tasks(monkeypatch, runner, section):
    # the pool forks all its workers at the first task, so --threads 5000
    # over two tasks must ask for two workers, not 5000
    sizes = []

    class SerialPool:
        """Stands in for ProcessPoolExecutor: records its size, runs in order."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    serial = runner(resolve_config({"trials": 2, **section}))
    assert runner(resolve_config({"trials": 2, "threads": 5000, **section})).rows == serial.rows
    assert sizes == [2]


SMALL_RUNS = {
    "fig2": (run_fig2, {"fig2": {"symbols": 1024}}),
    "invariance": (run_invariance_demo, {"invariance": {"streams": 2, "symbols": 512}}),
    "sweep_length": (run_datalength_sweep, {"trials": 2, "sweep_length": {"lengths": [256, 512]}}),
    "sweep_snr": (run_snr_sweep, {"trials": 3, "sweep_snr": {"symbols": 256}}),
}


@pytest.mark.parametrize("name", SMALL_RUNS)
def test_each_run_builds_its_csf_params_once(monkeypatch, name):
    # the config check builds the run's CsfParams and every task carries
    # them, so no runner, worker or scorer builds them again
    runner, layer = SMALL_RUNS[name]
    builds = []

    def counting(**csf):
        builds.append(csf)
        return CsfParams(**csf)

    monkeypatch.setattr(csfchan.experiments, "CsfParams", counting)
    runner(resolve_config({"threads": 1, **layer}))
    assert len(builds) == 1


@pytest.mark.parametrize("name", ["sweep_length", "sweep_snr"])
def test_sweep_workers_draw_no_channel(monkeypatch, name):
    # both sweeps draw every trial's channel in the parent, before the
    # fan-out; a task carries its channel to the worker
    runner, layer = SMALL_RUNS[name]
    fan_out = csfchan.experiments._fan_out

    def no_draw(*args, **kwargs):
        raise AssertionError("a worker drew a channel")

    def drawn_fan_out(worker, tasks, threads):
        monkeypatch.setattr(csfchan.experiments, "sample_random_channel", no_draw)
        return fan_out(worker, tasks, threads)

    monkeypatch.setattr(csfchan.experiments, "_fan_out", drawn_fan_out)
    runner(resolve_config({"threads": 1, **layer}))


def test_sweep_workers_read_no_true_taps(monkeypatch):
    # the workers only measure: the run scores every method's solved taps
    # against the channel's, so no task reads the true taps
    cfg = resolve_config({"trials": 1, "sweep_snr": {"symbols": 256}, "sweep_length": {"lengths": [256]}})
    params = CsfParams(**cfg["csf"])
    snr_channel, length_channel = (_trial_channel(cfg, name, 0) for name in ("sweep_snr", "sweep_length"))

    def no_taps(ch):
        raise AssertionError("a worker read the channel's true taps")

    monkeypatch.setattr(ChannelModel, "taps", property(no_taps))
    _snr_trial((cfg, params, 0, snr_channel))
    csfchan.experiments._length_frame((cfg, params, 0, 0, length_channel))


# The one table of refused configs: the command, the arguments after it and
# the start of the message that refuses them.  An argument is the body of a
# --config file when it holds a newline, flags when it starts with --, and a
# --set item otherwise; {tmp} stands for the test's directory.
BAD_CONFIGS = [
    pytest.param(
        "sweep-snr",
        "sweep_snr.methods=[blind_acf, nope]",
        "sweep_snr.methods: unknown ['nope'], expected a subset of ['blind_acf', 'ls_gaussian', 'ls_chaos']",
        id="unknown-method",
    ),
    pytest.param(
        "sweep-snr",
        "sweep_snr.methods=[blind_acf, ls_chaos, blind_acf]",
        "sweep_snr.methods: repeated ['blind_acf'], name each method once",
        id="repeated-method",
    ),
    pytest.param(
        "sweep-length",
        "sweep_length.lengths=[256, 256, 512]",
        "sweep_length.lengths: repeated [256], name each length once",
        id="repeated-length",
    ),
    pytest.param(
        "sweep-snr",
        "sweep_snr.snr_db_list=[10, 10.0, 5]",
        "sweep_snr.snr_db_list: repeated [10], name each SNR once",
        id="repeated-snr",
    ),
    pytest.param("sweep-snr", "sweep_snr.methods=[]", "sweep_snr.methods must not be empty", id="no-methods"),
    pytest.param("sweep-snr", "sweep_snr.snr_db_list=[]", "sweep_snr.snr_db_list must not be empty", id="no-snrs"),
    pytest.param(
        "sweep-snr",
        "sweep_snr.path_count=12",
        "sweep_snr.path_count must lie in 1..max_delay+1 = 1..11, got 12",
        id="snr-too-many-paths",
    ),
    pytest.param(
        "sweep-length", "sweep_length.path_count=12", "sweep_length.path_count must lie in", id="length-too-many-paths"
    ),
    pytest.param("sweep-length", "sweep_length.path_count=0", "sweep_length.path_count must lie in", id="length-no-paths"),
    pytest.param("sweep-length", "sweep_length.lengths=[]", "sweep_length.lengths must not be empty", id="no-lengths"),
    pytest.param(
        "sweep-snr", "sweep_snr.symbols=abc", "sweep_snr.symbols must be a positive integer, got 'abc'", id="symbols-text"
    ),
    pytest.param(
        "sweep-snr", "sweep_snr.snr_db_list=[a,5]", "sweep_snr.snr_db_list must be numbers, got ['a', 5]", id="snr-text"
    ),
    pytest.param(
        "sweep-length", "sweep_length.lengths=[0]", "sweep_length.lengths must be positive integers, got [0]", id="length-0"
    ),
    pytest.param(
        "sweep-length", "sweep_length.snr_db=null", "sweep_length.snr_db must be a number, got None", id="length-no-snr"
    ),
    pytest.param(
        "sweep-snr",
        "sweep_snr.gamma_range=[0,1]",
        "sweep_snr.gamma_range must be [low, high] with 0 < low <= high, got [0, 1]",
        id="gamma-zero",
    ),
    pytest.param(
        "sweep-length",
        "sweep_length.gamma_range=[0.3, .inf]",
        "sweep_length.gamma_range must be [low, high] with 0 < low <= high, got [0.3, inf]",
        id="gamma-inf",
    ),
    pytest.param(
        "sweep-snr",
        "sweep_snr.gamma_range=[0.9, 0.3]",
        "sweep_snr.gamma_range must be [low, high] with 0 < low <= high, got [0.9, 0.3]",
        id="gamma-reversed",
    ),
    pytest.param("sweep-length", "csf.oversampling=4", "csf: oversampling must be an integer >= 8, got 4", id="ns-4"),
    pytest.param("sweep-snr", "csf.oversampling=16.0", "csf.oversampling must be an integer, got 16.0", id="ns-float"),
    pytest.param("sweep-snr", "csf.beta=1.0", "csf: beta must satisfy 0 < beta <= ln2, got 1.0", id="beta-high"),
    pytest.param("sweep-length", "csf.beta=0", "csf: beta must satisfy 0 < beta <= ln2, got 0", id="beta-0"),
    pytest.param("sweep-length", "csf.beta=abc", "csf.beta must be a number, got 'abc'", id="beta-text"),
    pytest.param("invariance", "invariance.streams=1", "invariance.streams must be an integer >= 2, got 1", id="one-stream"),
    pytest.param(
        "invariance",
        "invariance.symbols=abc",
        "invariance.symbols must be a positive integer, got 'abc'",
        id="invariance-symbols-text",
    ),
    pytest.param(
        "invariance",
        "invariance.include_all_ones=maybe",
        "invariance.include_all_ones must be true or false, got 'maybe'",
        id="all-ones-text",
    ),
    pytest.param("invariance", "csf.oversampling=4", "csf: oversampling must be an integer >= 8, got 4", id="invariance-ns-4"),
    pytest.param(
        "fig2", "fig2.max_delay=5", "fig2.delays [0, 2, 7]: delay 7 exceeds max_delay 5", id="fig2-delay-past-max"
    ),
    pytest.param("fig2", "fig2.delays=[2, 7]", "fig2.delays [2, 7]: main path must be at delay 0", id="fig2-no-main"),
    pytest.param("fig2", "fig2.delays=[0, -2]", "fig2.delays must be nonnegative integers, got [0, -2]", id="fig2-negative"),
    pytest.param("fig2", "fig2.gamma=0", "fig2.gamma must be a positive number, got 0", id="fig2-gamma-0"),
    pytest.param("fig2", "fig2.gamma=.inf", "fig2.gamma must be a positive number, got inf", id="fig2-gamma-inf"),
    pytest.param("fig2", "fig2.snr_db=abc", "fig2.snr_db must be a number or null, got 'abc'", id="fig2-snr-text"),
    pytest.param("fig2", "fig2.symbols=0", "fig2.symbols must be a positive integer, got 0", id="fig2-no-symbols"),
    pytest.param(
        "fig2",
        "fig2.max_delay=70000",
        "fig2.symbols: a frame of 65536 symbols spans 65563 symbol periods with its pulse tail and echoes, "
        "too short for the ACF to lag fig2.max_delay=70000, which needs more than 70001",
        id="fig2-frame-short",
    ),
    pytest.param(
        "invariance",
        "invariance.max_lag=5000",
        "invariance.symbols: a frame of 4096 symbols spans 4116 symbol periods",
        id="invariance-frame-short",
    ),
    pytest.param(
        "sweep-length",
        "sweep_length.max_delay=2000",
        "sweep_length.lengths: a frame of 1024 symbols spans 1049 symbol periods",
        id="length-frame-short",
    ),
    pytest.param(
        "sweep-snr",
        "sweep_snr.max_delay=2000",
        "sweep_snr.symbols: a frame of 1024 symbols spans 1049 symbol periods",
        id="snr-frame-short",
    ),
]
# fig2 and invariance run no trials, but the count is part of every
# recorded config, so every experiment checks it with the other top-level keys
BAD_CONFIGS += [
    pytest.param(command, f"{key}={value}", f"{key} must be {what}, got {shown}", id=f"{command}-{key}-{value}")
    for command in csfchan.cli._RUNNERS
    for key, what, values in (
        ("trials", "an integer >= 1", (("0", "0"), ("-1", "-1"), ("2.5", "2.5"), ("true", "True"))),
        ("threads", "an integer >= 1", (("abc", "'abc'"), ("2.5", "2.5"), ("0", "0"), ("-3", "-3"))),
        ("seed", "an integer", (("abc", "'abc'"), ("1.5", "1.5"), ("true", "True"))),
        ("out", "a string", (("2024", "2024"), ("[1]", "[1]"))),
    )
    for value, shown in values
]
BAD_CONFIGS.append(pytest.param("sweep-snr", "--trials 0", "trials must be an integer >= 1, got 0", id="trials-flag"))

# every key: a bool where it takes something else, 1 where it takes a bool,
# under a command that reads its section (fig2 reads the top level and csf
# like every command); the rows above refuse trials and seed at true in full
BAD_CONFIGS += [
    pytest.param(
        command if command in csfchan.cli._RUNNERS else "fig2", f"{key}={value}", f"{key} ", id=f"{key}-{value}"
    )
    for name, default in DEFAULT_CONFIG.items()
    for key in ([f"{name}.{leaf}" for leaf in default] if isinstance(default, dict) else [name])
    if key not in ("trials", "seed")
    for command, value in [(name.replace("_", "-"), "1" if key == "invariance.include_all_ones" else "true")]
]

BAD_CONFIGS += [  # refused by the CLI or by the merge of the config layers, before the runner
    pytest.param("fig2", "fig2.nonsense=1", "unknown config key: 'fig2.nonsense'", id="unknown-key"),
    pytest.param("fig2", "nonsense=1", "unknown config key: 'nonsense'", id="unknown-key-set"),
    pytest.param("fig2", "fig2:\n  nonsense: 1\n", "unknown config key: 'fig2.nonsense'", id="unknown-key-file"),
    pytest.param("fig2", "csf: 5\n", "config section 'csf' must be a mapping, got 5", id="scalar-section"),
    pytest.param("fig2", "- 1\n- 2\n", "config document must be a mapping, got [1, 2]", id="list-document"),
    pytest.param(
        "fig2",
        "fig2.delays.x=1",
        "config key 'fig2.delays' takes a value, not a mapping, got {'x': 1}",
        id="mapping-for-value",
    ),
    pytest.param("fig2", "fig2.symbols", "--set expects key=value, got 'fig2.symbols'", id="set-no-value"),
    pytest.param("fig2", "fig2.delays=[0, 2", "--set fig2.delays=[0, 2: while parsing", id="yaml-error-set"),
    pytest.param("fig2", "fig2: [0, 2\n", "--config {tmp}/cfg.yaml: while parsing", id="yaml-error-file"),
    pytest.param("fig2", "--config {tmp}/missing.yaml", "--config {tmp}/missing.yaml: [Errno 2]", id="missing-file"),
    pytest.param(
        "invariance",
        ("invariance.symbols=64", "sweep_snr.symbols=2024-01-01"),
        "config key 'sweep_snr.symbols' takes a value JSON can hold, got datetime.date(2024, 1, 1)",
        id="date-in-unread-section",
    ),
    pytest.param(
        "sweep-snr",
        "experiment=2024-01-01",
        "config key 'experiment' takes a value JSON can hold, got datetime.date(2024, 1, 1)",
        id="date-experiment",
    ),
    pytest.param(
        "fig2", "fig2.delays=!!set {0, 2}", "config key 'fig2.delays' takes a value JSON can hold, got {0, 2}", id="set"
    ),
    pytest.param(
        "sweep-snr",
        "experiment=zzz",
        "experiment must be 'sweep-snr', the command being run, got 'zzz'",
        id="unknown-experiment",
    ),
    pytest.param(
        "fig2",
        "experiment=sweep-snr",
        "experiment must be 'fig2', the command being run, got 'sweep-snr'",
        id="other-experiment",
    ),
    pytest.param(
        "fig2",
        "experiment: invariance\n",
        "experiment must be 'fig2', the command being run, got 'invariance'",
        id="other-experiment-in-file",
    ),
    # the config file named as the output directory, or as one of its parents
    pytest.param(
        "invariance",
        ("seed: 1\n", "--out {tmp}/cfg.yaml"),
        "out {tmp}/cfg.yaml: {tmp}/cfg.yaml is not a directory",
        id="out-names-a-file",
    ),
    pytest.param(
        "invariance",
        ("seed: 1\n", "--out {tmp}/cfg.yaml/sub"),
        "out {tmp}/cfg.yaml/sub: {tmp}/cfg.yaml is not a directory",
        id="out-under-a-file",
    ),
]

BAD_CONFIGS += [  # -inf dB is noise with no signal; +inf, a noiseless frame, runs
    pytest.param("fig2", "fig2.snr_db=-.inf", "fig2.snr_db must be a number or null, got -inf", id="fig2-snr-minus-inf"),
    pytest.param(
        "sweep-length", "sweep_length.snr_db=-.inf", "sweep_length.snr_db must be a number, got -inf", id="length-minus-inf"
    ),
    pytest.param(
        "sweep-snr", "sweep_snr.snr_db_list=[-.inf, 0]", "sweep_snr.snr_db_list must be numbers, got [-inf, 0]",
        id="snr-minus-inf",
    ),
]

BAD_CONFIGS += [  # 10**(snr/10) overflows above about 3082.5 dB and rounds to 0 below about -3236 dB
    pytest.param(
        command,
        f"{key}={value}",
        f"{key}: SNR {snr} dB gives no noise variance: 10**(snr_db/10) {how}, usable SNRs run from -3236 to 3082.5 dB",
        id=f"{command}-snr-{snr}",
    )
    for command, key, listed in (
        ("fig2", "fig2.snr_db", False),
        ("sweep-length", "sweep_length.snr_db", False),
        ("sweep-snr", "sweep_snr.snr_db_list", True),
    )
    for snr, how in ((3090, "overflows"), (-3300, "rounds to 0"))
    for value in [f"[0, {snr}]" if listed else snr]
]

BAD_CONFIGS += [  # noise that overflows the sums over the received frame, known from the config alone
    pytest.param(
        command,
        overrides,
        f"{key}: SNR {snr} dB overflows the sums over a received frame of up to {n} samples at a noise-free "
        f"power up to {power}; its lowest usable SNR is {lowest} dB",
        id=f"{command}-noise-overflow-{snr}",
    )
    for command, key, overrides, snr, n, power, lowest in (
        ("fig2", "fig2.snr_db", "fig2.snr_db=-3030", -3030, 1049008, 1.44, -2990.7),
        # a limit 0.004 dB inside its 0.1 dB step: a margin of 1001, not 1e3, reads -3022.8
        ("fig2", "fig2.snr_db", ("fig2.symbols=13", "fig2.snr_db=-3040"), -3040, 640, 1.44, -3022.9),
        # without blind_acf no ACF is solved, and the sums' limit binds
        (
            "sweep-snr",
            "sweep_snr.snr_db_list",
            ("sweep_snr.methods=[ls_gaussian, ls_chaos]", "sweep_snr.snr_db_list=[-3100]"),
            -3100,
            16864,
            8.06,
            -3001.2,
        ),
    )
]

BAD_CONFIGS += [  # noise that overflows the blind solver's cost, from far above the sums' limit
    pytest.param(
        command,
        f"{key}={value}",
        f"{key}: SNR {snr} dB overflows the blind solver's cost over 11 lags of a received ACF at a noise-free "
        "power up to 8.06; its lowest usable SNR is -740.1 dB",
        id=f"{command}-solver-overflow-{snr}",
    )
    for command, key, value, snr in (
        ("sweep-length", "sweep_length.snr_db", "-3030", -3030),
        ("sweep-snr", "sweep_snr.snr_db_list", "[0, -3050]", -3050),
        ("sweep-snr", "sweep_snr.snr_db_list", "[-3100]", -3100),
        ("sweep-length", "sweep_length.snr_db", "-800", -800),
        ("sweep-snr", "sweep_snr.snr_db_list", "[-800]", -800),
    )
] + [  # two lags: a bound of ((M+1)^2 + 2)^2, not ((M+1)^2 + 1)^2, reads -756.3
    pytest.param(
        "sweep-snr",
        ("sweep_snr.max_delay=1", "sweep_snr.path_count=1", "sweep_snr.snr_db_list=[-800]"),
        "sweep_snr.snr_db_list: SNR -800 dB overflows the blind solver's cost over 2 lags of a received ACF at a "
        "noise-free power up to 1.343; its lowest usable SNR is -756.7 dB",
        id="sweep-snr-solver-overflow-2-lags",
    )
]

BAD_CONFIGS += [  # a tiny beta stretches the pulse tail past the frame cap of 2**26 samples
    pytest.param(
        command,
        overrides,
        f"{command.replace('-', '_')}: the largest received frame, {symbols} symbols with a pulse tail of {tail} "
        f"symbol periods at csf.beta={beta} and echoes up to {delay} symbols late, spans {samples} samples at "
        "csf.oversampling=16, above the cap of 67108864 samples",
        id=f"{command}-frame-cap-{beta}",
    )
    for command, overrides, symbols, beta, tail, delay, samples in (
        ("invariance", "csf.beta=5e-324", 4096, "5e-324", "inf", 0, "inf"),
        ("fig2", "csf.beta=1e-300", 65536, "1e-300", "1.382e+301", 7, "2.21e+302"),
        ("invariance", "csf.beta=1e-9", 4096, "1e-09", "1.382e+10", 0, "2.21e+11"),
        ("sweep-snr", ("csf.beta=1e-7", "sweep_snr.symbols=64"), 64, "1e-07", "1.382e+08", 10, "2.21e+09"),
    )
]

# the most symbols whose received frame fits the cap at the defaults: 2**26
# samples at 16 per symbol, less the pulse tail of 20 symbol periods and the
# latest echo's 10; one symbol more is refused
CAP_SYMBOLS = (1 << 26) // 16 - 20 - 10
BAD_CONFIGS.append(
    pytest.param(
        "sweep-snr",
        f"sweep_snr.symbols={CAP_SYMBOLS + 1}",
        f"sweep_snr: the largest received frame, {CAP_SYMBOLS + 1} symbols with a pulse tail of 19.93 symbol periods "
        "at csf.beta=0.6931471805599453 and echoes up to 10 symbols late, spans 6.711e+07 samples at "
        "csf.oversampling=16, above the cap of 67108864 samples",
        id="sweep-snr-frame-cap-one-symbol-past",
    )
)

BAD_CONFIGS += [  # two faults in one config: the frame cap first, then the ACF's length, then the noise
    pytest.param(
        "fig2",
        ("fig2.max_delay=70000", "fig2.snr_db=-3030"),
        "fig2.symbols: a frame of 65536 symbols spans 65563 symbol periods with its pulse tail and echoes, "
        "too short for the ACF to lag fig2.max_delay=70000, which needs more than 70001",
        id="fig2-frame-short-before-noise-overflow",
    ),
    pytest.param(
        "invariance",
        ("csf.beta=1e-9", "invariance.max_lag=5000"),
        "invariance: the largest received frame, 4096 symbols with a pulse tail of 1.382e+10 symbol periods at "
        "csf.beta=1e-09 and echoes up to 0 symbols late, spans 2.21e+11 samples at csf.oversampling=16, above "
        "the cap of 67108864 samples",
        id="invariance-frame-cap-before-frame-short",
    ),
]


# the longest lag of each experiment's default frame: one lag more is refused
FRAME_EDGES = (
    ("fig2", "fig2.max_delay", "fig2.symbols", 65536, 65561),
    ("invariance", "invariance.max_lag", "invariance.symbols", 4096, 4114),
    ("sweep-length", "sweep_length.max_delay", "sweep_length.lengths", 1024, 1047),
    ("sweep-snr", "sweep_snr.max_delay", "sweep_snr.symbols", 1024, 1047),
)
BAD_CONFIGS += [
    pytest.param(
        command,
        f"{key}={lag + 1}",
        f"{symbols}: a frame of {n} symbols spans {lag + 2} symbol periods with its pulse tail and echoes, too short "
        f"for the ACF to lag {key}={lag + 1}, which needs more than {lag + 2}",
        id=f"{command}-frame-one-lag-short",
    )
    for command, key, symbols, n, lag in FRAME_EDGES
]

# The inside edge of the refusals: configs that run, each a command and
# its arguments, read as in BAD_CONFIGS
ACCEPTED_CONFIGS = [(command, f"{key}={lag}") for command, key, _, _, lag in FRAME_EDGES]
ACCEPTED_CONFIGS.append(("sweep-snr", f"sweep_snr.symbols={CAP_SYMBOLS}"))
ACCEPTED_CONFIGS += [
    (command, arg)
    for command in csfchan.cli._RUNNERS
    for arg in (
        *("trials=1", "threads=1", "--trials 1", "seed=0", "seed=-1", "--seed -1", f"seed={2**64}", "--out {tmp}"),
        *("--out {tmp}/a/b", f"experiment={command}", "csf.oversampling=8", f"csf.beta={math.log(2)}"),
    )
]
ACCEPTED_CONFIGS += [
    (command, arg)
    for command, name in (("sweep-length", "sweep_length"), ("sweep-snr", "sweep_snr"))
    for arg in (
        *(f"{name}.{leaf}" for leaf in ("path_count=1", "path_count=11", "gamma_range=[0.5, 0.5]", "gamma_range=[1, 1]")),
        f"{name}:\n  max_delay: 1\n  path_count: 2\n",  # the fewest delay slots, each one a path
    )
]
ACCEPTED_CONFIGS += [
    (command, arg)
    for command, args in {
        "fig2": (
            "fig2.symbols=1", "fig2.snr_db=3082.5", "fig2.snr_db=.inf", "fig2.snr_db=10", "fig2.snr_db=null",
            "fig2.delays=[0]", "fig2.delays=[0, 10]", "fig2.delays=[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10]",
            "fig2.max_delay=7", "fig2.gamma=1", "fig2.gamma=1e-300", "fig2.gamma=1e300", "fig2.agreement_tol=0",
            "fig2:\n  symbols: 64\n", "{}\n", "csf: {}\n",
        ),
        "invariance": (
            "invariance.symbols=1", "invariance.streams=2", "invariance.max_lag=1", "invariance.include_all_ones=true",
            "sweep_snr.symbols=64",
        ),
        "sweep-length": (
            "sweep_length.lengths=[1]", "sweep_length.lengths=[2048, 1024]", "sweep_length.snr_db=3082.5",
            "sweep_length.snr_db=.inf", "sweep_length.snr_db=10",
        ),
        "sweep-snr": (
            "sweep_snr.symbols=1", "sweep_snr.snr_db_list=[3082.5]", "sweep_snr.snr_db_list=[.inf, 0, 5]",
            "sweep_snr.methods=[blind_acf]", "sweep_snr.methods=[ls_gaussian]", "sweep_snr.methods=[ls_chaos]",
            "sweep_snr.methods=[ls_chaos, ls_gaussian, blind_acf]",
        ),
    }.items()
    for arg in args
]


@pytest.fixture
def no_work(monkeypatch):
    """Make the first step of every experiment's work raise: the sweeps
    work in their trials, fig2 and invariance in the symbol-rate encode
    or, noiseless, its pieces."""

    def work(*args, **kwargs):
        raise AssertionError("work ran")

    for name in ("_fan_out", "encode_waveform", "_encode_amplitudes", "_amplitude_pieces"):
        monkeypatch.setattr(csfchan.experiments, name, work)


def row_argv(tmp_path: Path, command: str, args) -> list[str]:
    argv = [command, "--out", str(tmp_path / "out")]
    for arg in [args] if isinstance(args, str) else args:
        if "\n" in arg:
            (tmp_path / "cfg.yaml").write_text(arg)
            argv += ["--config", str(tmp_path / "cfg.yaml")]
        else:
            argv += arg.replace("{tmp}", str(tmp_path)).split() if arg.startswith("--") else ["--set", arg]
    return argv


@pytest.mark.parametrize("command, args, message", BAD_CONFIGS)
def test_refused_before_work(no_work, tmp_path, capsys, command, args, message):
    argv = row_argv(tmp_path, command, args)
    before = sorted(tmp_path.rglob("*"))
    assert cli_main(argv) == 2
    line = f"csfchan {command}: invalid configuration: {message}".replace("{tmp}", str(tmp_path))
    assert capsys.readouterr().err.startswith(line)
    # no output directory, nor anything else
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("command, args", ACCEPTED_CONFIGS)
def test_accepted_reaches_work(no_work, tmp_path, capsys, command, args):
    with pytest.raises(AssertionError, match="work ran"):
        cli_main(row_argv(tmp_path, command, args))
    assert capsys.readouterr().err == ""


def test_every_refusal_has_a_row():
    # each ConfigError raised in the CLI or the experiments, known by the
    # longest literal fragment of its message, is in at least one row's message
    messages = [row.values[2] for row in BAD_CONFIGS]
    calls, missing = 0, []
    for module in (csfchan.experiments, csfchan.cli):
        path = Path(module.__file__)
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "ConfigError":
                (text,) = node.args
                parts = text.values if isinstance(text, ast.JoinedStr) else [text]
                fragment = max((part.value for part in parts if isinstance(part, ast.Constant)), key=len)
                calls += 1
                if not any(fragment in message for message in messages):
                    missing.append(f"{path.name}:{node.lineno} {fragment!r}")
    assert calls and not missing, f"no BAD_CONFIGS row for {missing}"


def lowest_usable_snr(cfg: dict, name: str) -> float:
    """The lowest usable SNR that the refusal of a far lower one states."""
    key = "snr_db_list" if name == "sweep_snr" else "snr_db"
    cfg[name][key] = [-3200] if name == "sweep_snr" else -3200
    with pytest.raises(ConfigError, match="its lowest usable SNR is") as refused:
        csfchan.experiments._check_config(cfg, name)
    return float(re.search(r"lowest usable SNR is (\S+) dB", str(refused.value))[1])


@pytest.mark.parametrize(
    "name, override",
    [("fig2", {}), ("fig2", {"symbols": 64}), ("sweep_length", {}), ("sweep_snr", {"path_count": 1, "symbols": 8})],
)
def test_lowest_usable_snr_is_accepted(name, override):
    cfg = resolve_config({name: override})
    lowest = lowest_usable_snr(copy.deepcopy(cfg), name)
    key = "snr_db_list" if name == "sweep_snr" else "snr_db"
    for snr, accepted in ((lowest, True), (round(lowest - 0.1, 1), False)):
        cfg[name][key] = [snr] if name == "sweep_snr" else snr
        if accepted:
            csfchan.experiments._check_config(cfg, name)
        else:
            with pytest.raises(ConfigError, match=f"lowest usable SNR is {lowest} dB"):
                csfchan.experiments._check_config(cfg, name)


def test_fig2_runs_10_db_above_the_lowest_usable_snr(tmp_path):
    # every ACF of the frame stays finite; the checks fail at such noise
    cfg = resolve_config({"fig2": {"symbols": 512}})
    snr = lowest_usable_snr(cfg, "fig2") + 10.0
    code = cli_main(["fig2", "--set", "fig2.symbols=512", "--set", f"fig2.snr_db={snr}", "--out", str(tmp_path)])
    assert code == 1
    rows = (tmp_path / "fig2.csv").read_text().splitlines()[1:]
    values = np.array([row.split(",")[1:] for row in rows], dtype=float)
    assert values.shape == (161, 3) and np.all(np.isfinite(values))
    assert values[0, 1] > 1e290


@pytest.mark.parametrize(
    "command, name, sets",
    [
        ("sweep-length", "sweep_length", ["sweep_length.lengths=[1024, 4096]"]),
        ("sweep-snr", "sweep_snr", []),
    ],
)
def test_sweeps_run_at_the_lowest_usable_blind_snr(tmp_path, command, name, sets):
    # the blind solver's cost stays finite, with no overflow warning (an
    # error under this suite's filters), where the sums' limit lies far lower
    snr = lowest_usable_snr(resolve_config(), name)
    assert snr > -800
    setting = f"sweep_snr.snr_db_list=[{snr}]" if name == "sweep_snr" else f"sweep_length.snr_db={snr}"
    args = [arg for text in [*sets, setting] for arg in ("--set", text)]
    assert cli_main([command, "--trials", "2", *args, "--out", str(tmp_path)]) == 0
    rows = (tmp_path / f"{name}.csv").read_text().splitlines()[1:]
    assert rows and all(np.isfinite(float(row.split(",")[-2])) for row in rows)


class TestFrameLength:
    """The frame check is the test empirical_acf makes: more than
    max_lag + 1 symbol periods of received frame."""

    def test_frame_one_period_past_the_limit_runs(self, tmp_path):
        # 12 symbols and a 20-symbol pulse tail span 32 periods > 30 + 1
        code = cli_main(
            ["invariance", "--set", "invariance.max_lag=30", "--set", "invariance.symbols=12",
             "--set", "invariance.streams=2", "--out", str(tmp_path)]
        )
        assert code == 0

    def test_frame_at_the_limit_refused(self, capsys, tmp_path):
        code = cli_main(
            ["invariance", "--set", "invariance.max_lag=30", "--set", "invariance.symbols=11", "--out", str(tmp_path)]
        )
        assert code == 2
        assert "spans 31 symbol periods" in capsys.readouterr().err

    def test_shortest_sweep_channel_counts(self):
        # six paths put the last echo at least 5 symbols out: 1 + 20 + 5 > 24 + 1
        cfg = resolve_config({"sweep_length": {"lengths": [1], "max_delay": 24}})
        csfchan.experiments._check_config(cfg, "sweep_length")
        cfg["sweep_length"]["path_count"] = 5
        with pytest.raises(ConfigError, match="spans 25 symbol periods"):
            csfchan.experiments._check_config(cfg, "sweep_length")

    def test_ls_only_snr_sweep_takes_no_acf(self):
        cfg = resolve_config({"sweep_snr": {"max_delay": 2000, "methods": ["ls_gaussian", "ls_chaos"]}})
        csfchan.experiments._check_config(cfg, "sweep_snr")


def _run_cli(args: list[str], **env) -> subprocess.CompletedProcess:
    """One CLI call in a fresh interpreter importing csfchan from this tree."""
    src = str(Path(csfchan.__file__).resolve().parents[1])
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, check=True)


def test_cli_import_loads_no_scipy():
    # nor the process pool, which only a run with --threads > 1 uses, nor
    # importlib.metadata, which costs every call its email imports
    lazy = ("scipy", "concurrent.futures.process", "multiprocessing", "importlib.metadata")
    probe = f"import sys, csfchan.cli; print(sorted(m for m in sys.modules if m.startswith({lazy!r})))"
    assert _run_cli(["-c", probe]).stdout.strip() == "[]"


def test_bytes_do_not_depend_on_blas_threads():
    # 2048 symbols make 33056-sample frames, whose ACF lags split into
    # halves that a threaded BLAS would split again; the rows are printed
    # with every digit, past the CSV's 9
    layer = {"seed": 5, "trials": 3, "sweep_snr": {"symbols": 2048}}
    run = (
        "from csfchan.experiments import resolve_config, run_snr_sweep; "
        f"print(run_snr_sweep(resolve_config({layer!r})).rows)"
    )
    outputs = [
        _run_cli(["-c", run], **({} if threads is None else {"OPENBLAS_NUM_THREADS": threads})).stdout
        for threads in (None, "1", "2")
    ]
    assert outputs[0] == outputs[1] == outputs[2]


# the /proc/cpuinfo flag each forced OpenBLAS kernel needs (SSE3 shows as
# pni); SkylakeX is never forced, as it dies with SIGILL on a host without
# AVX-512, and the kernel OpenBLAS picks itself runs every other test
_KERNEL_FLAGS = {"Haswell": "avx2", "Sandybridge": "avx", "Prescott": "pni"}


def _cpu_flags() -> set[str]:
    try:
        lines = Path("/proc/cpuinfo").read_text().splitlines()
    except OSError:
        return set()
    return set(next((line.split(":", 1)[1].split() for line in lines if line.startswith("flags")), []))


@pytest.mark.parametrize("core", _KERNEL_FLAGS)
def test_symbol_rate_frames_hold_on_every_blas_kernel(tmp_path, core):
    # fig2 and invariance write their frames through one dgemm, whose
    # kernels use FMA differently; their reference bytes must not move
    if _KERNEL_FLAGS[core] not in _cpu_flags():
        pytest.skip(f"this CPU cannot run OpenBLAS's {core} kernel")
    fig2 = ["fig2", "--config", str(REPO / "configs/fig2.yaml")]
    for args in (fig2, ["invariance", "--set", "invariance.include_all_ones=true"]):
        _run_cli(["-m", "csfchan.cli", *args, "--out", str(tmp_path)], OPENBLAS_CORETYPE=core)
    assert_reference_bytes(tmp_path, "fig2.csv")
    assert_reference_bytes(tmp_path, "invariance.csv", "tests/reference")
    # the sidecar names the kernel that ran; OpenBLAS runs a forced
    # Prescott as an older kernel (Katmai), so that one only differs from
    # the kernel it picks itself
    for sidecar in ("fig2.json", "invariance.json"):
        ran = json.loads((tmp_path / sidecar).read_text())["openblas_core"]
        if core == "Prescott":
            assert ran != csfchan.report._openblas_core()
        else:
            assert ran == core


class TestCli:
    def run(self, tmp_path, *argv):
        return cli_main([*argv, "--out", str(tmp_path)])

    def test_invariance_writes_outputs(self, tmp_path, capsys):
        code = self.run(
            tmp_path,
            "invariance",
            "--seed",
            "4",
            "--set",
            "invariance.symbols=512",
            "--set",
            "invariance.streams=2",
        )
        assert code == 0
        # the table written, then each scalar field of the summary
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"invariance: wrote {tmp_path / 'invariance.csv'} (22 rows)"
        assert [line.split(": ")[0] for line in lines[1:]] == [
            "  max_abs_dev_vs_reference", "  max_pairwise_abs_dev", "  sampling_noise_std"
        ]
        table = (tmp_path / "invariance.csv").read_text().splitlines()
        assert table[0] == "config_hash,stream,lag,empirical_acf,reference_acf,abs_deviation,excluded"
        assert len(table) == 1 + 2 * 11
        sidecar = json.loads((tmp_path / "invariance.json").read_text())
        assert sidecar["config"]["seed"] == 4
        assert sidecar["config"]["invariance"]["symbols"] == 512

    def test_git_describe_names_the_package_checkout(self, tmp_path, monkeypatch):
        package = Path(csfchan.__file__).resolve().parent
        if shutil.which("git") is None:
            pytest.skip("git is not installed")
        expected = subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=package, capture_output=True, text=True, check=False
        )
        if expected.returncode != 0:
            pytest.skip("the package is not in a git checkout")
        monkeypatch.chdir(tmp_path)
        assert csfchan.report._git_describe() == expected.stdout.strip()

    def test_sidecar_reports_package_version(self, tmp_path):
        # the version of the source that ran, also when it runs from src/
        assert self.run(tmp_path, "invariance", "--set", "invariance.symbols=64", "--set", "invariance.streams=2") == 0
        sidecar = json.loads((tmp_path / "invariance.json").read_text())
        assert sidecar["package_version"] == csfchan.__version__

    @pytest.mark.parametrize(
        "command, override, summary",
        [
            (
                "fig2",
                "fig2.symbols=256",
                {"channel_attenuations", "expected_peak_lags", "predicted_peak_lags", "empirical_peak_lags",
                 "echo_peak_margins", "max_abs_disagreement", "noise_sigma2", "checks"},
            ),
            ("sweep-length", "sweep_length.lengths=[256]", set()),
            ("sweep-snr", "sweep_snr.symbols=256", set()),
            ("invariance", "invariance.symbols=256", {"max_abs_dev_vs_reference", "max_pairwise_abs_dev", "sampling_noise_std"}),
        ],
        ids=["fig2", "sweep-length", "sweep-snr", "invariance"],
    )
    def test_sidecar_copies_neither_table_nor_config(self, tmp_path, command, override, summary):
        # the CSV holds the rows and "config" every setting, the seed too;
        # the summary holds only what the run derives beside them
        self.run(tmp_path, command, "--trials", "1", "--set", override)
        sidecar = json.loads((tmp_path / f"{command.replace('-', '_')}.json").read_text())
        assert sidecar.keys() == {
            "config", "config_hash", "git_describe", "package_version", "numpy_version", "openblas_core", "summary", "passed"
        }
        assert sidecar["summary"].keys() == summary

    def test_sidecar_reports_numpy_version(self, tmp_path):
        # a Generator stream is fixed only within one numpy version (NEP 19)
        csfchan.report.write_sidecar(tmp_path / "run.json", {}, {}, True)
        assert json.loads((tmp_path / "run.json").read_text())["numpy_version"] == np.__version__

    @pytest.mark.parametrize(
        "command, override",
        [("sweep-length", "sweep_length.lengths=[256,512]"), ("sweep-snr", "sweep_snr.symbols=256")],
        ids=["sweep-length", "sweep-snr"],
    )
    def test_threads_do_not_change_bytes(self, tmp_path, command, override):
        # the trials send their ACF arrays back from the pool; the parent solves
        base = (command, "--seed", "2", "--trials", "4", "--set", override)
        self.run(tmp_path / "serial", *base, "--threads", "1")
        self.run(tmp_path / "parallel", *base, "--threads", "2")
        table = command.replace("-", "_") + ".csv"
        assert (tmp_path / "serial" / table).read_bytes() == (tmp_path / "parallel" / table).read_bytes()

    def test_failing_check_exits_nonzero(self, tmp_path, capsys):
        code = self.run(
            tmp_path,
            "fig2",
            "--seed",
            "1",
            "--set",
            "fig2.symbols=4096",
            "--set",
            "fig2.agreement_tol=1e-9",
        )
        assert code == 1
        # the verdict is read from the summary's checks, and the sidecar records it
        assert "fig2: FAILED checks: strong_echoes_in_empirical, integer_lag_agreement" in capsys.readouterr().err
        sidecar = json.loads((tmp_path / "fig2.json").read_text())
        assert sidecar["passed"] is False
        assert sidecar["summary"]["checks"] == {
            "predicted_peaks_match": True,
            "strong_echoes_in_empirical": False,
            "integer_lag_agreement": False,
        }

    @pytest.mark.parametrize(
        "text, value",
        [("1e1", 10.0), ("1e-9", 1e-9), ("-2E+3", -2000.0), (".5e3", 500.0), ("1.0e1", 10.0), ("10", 10),
         ("1e", "1e"), ("[1e1, 2]", [10.0, 2])],
    )
    def test_exponents_are_numbers(self, text, value):
        loaded = csfchan.cli._load(text)
        assert loaded == value and type(loaded) is type(value)

    def test_exponent_in_override_and_config_file(self, tmp_path):
        cfg_file = tmp_path / "cfg.yaml"
        cfg_file.write_text("trials: 1\nsweep_length:\n  lengths: [64]\n  gamma_range: [3e-1, 9e-1]\n")
        code = cli_main(
            ["sweep-length", "--config", str(cfg_file), "--set", "sweep_length.snr_db=1e1", "--out", str(tmp_path)]
        )
        assert code == 0
        section = json.loads((tmp_path / "sweep_length.json").read_text())["config"]["sweep_length"]
        assert (section["snr_db"], section["gamma_range"]) == (10.0, [0.3, 0.9])

    def test_sidecar_records_the_command(self, tmp_path):
        # naming the experiment being run is allowed, in the file or by --set
        (tmp_path / "cfg.yaml").write_text("experiment: invariance\n")
        args = ["invariance", "--config", str(tmp_path / "cfg.yaml"), "--set", "experiment=invariance"]
        assert self.run(tmp_path, *args, "--set", "invariance.symbols=64", "--set", "invariance.streams=2") == 0
        text = (tmp_path / "invariance.json").read_text()
        assert json.loads(text)["config"]["experiment"] == "invariance"
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"

    def test_precedence_keeps_the_config_hash(self, tmp_path):
        # the file, then the flags, then each --set in order; the hash is
        # the one every earlier release wrote for this command line
        cfg_file = tmp_path / "cfg.yaml"
        cfg_file.write_text("seed: 8\ninvariance:\n  symbols: 256\n  streams: 3\n")
        code = cli_main(
            ["invariance", "--config", str(cfg_file), "--seed", "9", "--threads", "2", "--out", str(tmp_path / "out/"),
             "--set", "seed=10", "--set", "invariance.symbols=64", "--set", "invariance.streams=2"]
        )
        assert code == 0
        sidecar = json.loads((tmp_path / "out/invariance.json").read_text())
        config = sidecar["config"]
        assert (config["seed"], config["invariance"]["symbols"], config["threads"]) == (10, 64, 2)
        assert sidecar["config_hash"] == "90620358f131"
        assert (tmp_path / "out/invariance.csv").read_text().splitlines()[1].startswith("90620358f131,")

    def test_config_file_round_trip(self, tmp_path):
        cfg_file = tmp_path / "cfg.yaml"
        cfg_file.write_text("invariance:\n  symbols: 256\n  streams: 2\nseed: 8\n")
        code = cli_main(
            ["invariance", "--config", str(cfg_file), "--out", str(tmp_path / "out")]
        )
        assert code == 0
        sidecar = json.loads((tmp_path / "out/invariance.json").read_text())
        assert sidecar["config"]["invariance"]["symbols"] == 256
        assert sidecar["config"]["seed"] == 8
