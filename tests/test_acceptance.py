"""Acceptance suite: one test per project acceptance criterion.

Every test prints one ``ACCEPTANCE <n>: PASS|FAIL`` line with measured
numbers (run pytest with ``-s`` to stream them; failures always show
them).

Status notes, determined analytically and verified by measurement:

* Criterion 1 pins a 0.03 absolute tolerance on empirical ACFs of 2^12
  symbols.  The estimator's per-lag sampling noise at that frame length
  is sigma ~= R(0)/sqrt(4096) ~= 0.021 (the dominant error term is the
  empirical symbol autocorrelation leaking through the pulse ACF), so
  0.03 sits at ~1.4 sigma while the criterion takes a max over ~550
  draws.  The probability that any seed passes is below 1e-7.  The
  criterion is implemented faithfully and fails; the underlying
  invariance property itself is real and demonstrated at sound
  tolerances in tests/test_acf.py.

* Criterion 3 pins the same 0.03 on received frames of 2^14 symbols,
  where the per-lag noise scales with the channel's ACF profile and
  reaches ~0.02-0.04 for dense low-damping channels; the max over 220
  draws exceeds 0.03 for essentially every seed.  Also implemented
  faithfully; expected to fail.

All other criteria pass.
"""

import math
import time

import numpy as np
import pytest

from csfchan import (
    ChannelModel,
    CsfParams,
    IdentificationProblem,
    SolverOptions,
    apply_multipath,
    authoritative_acf_table,
    build_residuals,
    empirical_acf,
    encode_waveform,
    predicted_rx_acf,
    pulse_acf,
    random_symbols,
    residual_jacobian,
    sample_random_channel,
    solve_channel,
)
from csfchan.cli import main as cli_main
from csfchan.experiments import interior_peak_lags, resolve_config, run_datalength_sweep, run_snr_sweep

PARAMS = CsfParams()  # beta = ln 2, 16 samples per symbol
M = 10

FIG2_CHANNEL = ChannelModel(
    paths=((0, 1.0), (2, math.exp(-1.2)), (7, math.exp(-4.2))),
    max_delay=M,
)


def report(criterion: int, passed: bool, detail: str) -> str:
    line = f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}"
    print(line)
    return line


def test_criterion_1_acf_invariance():
    """Empirical ACFs of ten 2^12-symbol streams agree pairwise and with
    the reference table within 0.03 at lags 0..10, in under 10 s."""
    start = time.perf_counter()
    n_streams, n_sym = 10, 2**12
    reference = authoritative_acf_table(PARAMS, max_lag=M)
    acfs = []
    for s in range(n_streams):
        wave = encode_waveform(random_symbols(n_sym, seed=1000 + s), PARAMS)
        acfs.append(empirical_acf(wave, M))
    max_vs_table = max(float(np.max(np.abs(a - reference))) for a in acfs)
    max_pairwise = max(
        float(np.max(np.abs(acfs[i] - acfs[j])))
        for i in range(n_streams)
        for j in range(i)
    )
    elapsed = time.perf_counter() - start
    worst = max(max_vs_table, max_pairwise)
    sigma = reference[0] / math.sqrt(n_sym)
    passed = worst <= 0.03 and elapsed < 10.0
    line = report(
        1,
        passed,
        f"max dev vs table {max_vs_table:.4f}, max pairwise {max_pairwise:.4f}, "
        f"tolerance 0.03, elapsed {elapsed:.1f}s",
    )
    assert passed, (
        f"{line}\nThe tolerance sits at {0.03 / sigma:.2f} sigma of the estimator's "
        f"sampling noise (sigma = R(0)/sqrt(n_sym) = {sigma:.4f}) while the criterion "
        f"maximises over {n_streams * (M + 1) + n_streams * (n_streams - 1) // 2 * (M + 1)} "
        "draws; no seed can pass.  The invariance itself holds: deviations shrink as "
        "1/sqrt(n_sym) and pass at five-sigma tolerances (see test_acf.py)."
    )


def test_criterion_2_closed_form_cross_check():
    """Closed-form pulse ACF matches the defining integral: 1e-4 at lag 0,
    1 percent at lags 1..10."""
    integral = pulse_acf(np.arange(11.0), PARAMS, oversampling=256)
    table = authoritative_acf_table(PARAMS, max_lag=M)
    dev0 = abs(table[0] - integral[0])
    rel = np.abs(table[1:] - integral[1:]) / np.abs(integral[1:])
    passed = dev0 <= 1e-4 and float(np.max(rel)) <= 0.01
    line = report(
        2,
        passed,
        f"lag-0 dev {dev0:.2e} (tol 1e-4), worst relative dev at lags 1..10 "
        f"{float(np.max(rel)):.2e} (tol 1e-2)",
    )
    assert passed, line


def test_criterion_3_rx_acf_decomposition():
    """Measured ACF of noiseless 2^14-symbol received frames matches the
    prediction within 0.03 at lags 0..10 for 20 random channels."""
    start = time.perf_counter()
    n_sym = 2**14
    rng = np.random.default_rng(777)
    devs = []
    for trial in range(20):
        n_paths = int(rng.integers(2, 7))
        ch = sample_random_channel(max_delay=M, path_count=n_paths, seed=3000 + trial)
        stream = random_symbols(n_sym, seed=4000 + trial)
        received = apply_multipath(encode_waveform(stream, PARAMS), ch)
        est = empirical_acf(received, M)
        pred = predicted_rx_acf(ch, 0.0, PARAMS, max_lag=M)
        devs.append(float(np.max(np.abs(est - pred))))
    worst = max(devs)
    elapsed = time.perf_counter() - start
    passed = worst <= 0.03 and elapsed < 60.0
    line = report(
        3,
        passed,
        f"worst |measured - predicted| {worst:.4f} over 20 channels (tol 0.03), "
        f"median {float(np.median(devs)):.4f}, elapsed {elapsed:.1f}s",
    )
    assert passed, (
        f"{line}\nPer-lag sampling noise of the received-frame ACF scales with the "
        "channel's ACF profile divided by sqrt(n_sym); for dense low-damping channels "
        f"it reaches 0.02-0.04 at n_sym = 2^14, so a 0.03 max-abs bound over 220 draws "
        "fails for essentially every seed.  The decomposition itself is exact: the "
        "same comparison passes at per-channel five-sigma bounds (test_acf.py)."
    )


def test_criterion_4_fig2_reproduction():
    """Three-path channel: secondary ACF peaks exactly at lags {2,5,7} and
    exact-ACF inversion recovers the two echo taps."""
    pred = predicted_rx_acf(FIG2_CHANNEL, 0.0, PARAMS, max_lag=M)
    peaks = interior_peak_lags(pred)

    prob = IdentificationProblem(
        r_rr=predicted_rx_acf(FIG2_CHANNEL, 0.1, PARAMS, max_lag=M),
        r_xx=authoritative_acf_table(PARAMS, max_lag=2 * M),
    )
    result = solve_channel(prob, SolverOptions(tol=1e-12))
    err2 = abs(result.alpha_hat[1] - math.exp(-1.2))
    err7 = abs(result.alpha_hat[6] - math.exp(-4.2))
    absent = float(np.max(np.abs(np.delete(result.alpha_hat, [1, 6]))))
    passed = peaks == [2, 5, 7] and err2 <= 1e-6 and err7 <= 1e-6 and absent <= 1e-8
    line = report(
        4,
        passed,
        f"peaks {peaks} (want [2, 5, 7]), tap errors {err2:.1e}/{err7:.1e} (tol 1e-6), "
        f"largest absent tap {absent:.1e} (tol 1e-8)",
    )
    assert passed, line


def test_criterion_5_roundtrip_identifiability():
    """100 random (channel, noise) pairs invert exactly from their predicted
    ACFs, and the analytic Jacobian matches finite differences, in < 30 s."""
    start = time.perf_counter()
    rng = np.random.default_rng(52)
    table = authoritative_acf_table(PARAMS, max_lag=2 * M)
    worst_tap = worst_res = worst_jac = 0.0
    all_converged = True
    for trial in range(100):
        n_paths = int(rng.integers(2, 7))
        ch = sample_random_channel(max_delay=M, path_count=n_paths, seed=5000 + trial)
        nv = float(rng.uniform(0.0, 0.5))
        prob = IdentificationProblem(r_rr=predicted_rx_acf(ch, nv, PARAMS, max_lag=M), r_xx=table)
        result = solve_channel(prob, SolverOptions(tol=1e-12))
        all_converged &= result.converged
        worst_res = max(worst_res, result.residual_norm)
        worst_tap = max(
            worst_tap,
            float(np.max(np.abs(result.alpha_hat - ch.taps[1:]))),
            abs(result.noise_var_hat - nv),
        )
        # Jacobian vs central differences at a random point near the solution
        x = np.concatenate([rng.uniform(-0.5, 1.0, size=M), rng.uniform(0.0, 1.0, size=1)])
        jac = residual_jacobian(x[:M], prob)
        step = 1e-6
        fd = np.empty_like(jac)
        for j in range(M + 1):
            hi, lo = x.copy(), x.copy()
            hi[j] += step
            lo[j] -= step
            fd[:, j] = (
                build_residuals(hi[:M], hi[M], prob) - build_residuals(lo[:M], lo[M], prob)
            ) / (2 * step)
        denom = np.maximum.reduce([np.abs(jac), np.abs(fd), np.ones_like(fd)])
        worst_jac = max(worst_jac, float(np.max(np.abs(jac - fd) / denom)))
    elapsed = time.perf_counter() - start
    passed = (
        all_converged
        and worst_res <= 1e-10
        and worst_tap <= 1e-6
        and worst_jac <= 1e-6
        and elapsed < 30.0
    )
    line = report(
        5,
        passed,
        f"all converged {all_converged}, worst residual {worst_res:.1e} (tol 1e-10), "
        f"worst tap error {worst_tap:.1e} (tol 1e-6), worst Jacobian dev {worst_jac:.1e} "
        f"(tol 1e-6), elapsed {elapsed:.1f}s (budget 30s)",
    )
    assert passed, line


def test_criterion_6_datalength_trend():
    """At 10 dB and 6 paths, MSE over doubling data lengths is non-increasing
    (single-step upticks of at most 10 percent allowed) and the improvement
    from 2048 to 32768 symbols dwarfs the one from 32768 to 65536."""
    start = time.perf_counter()
    cfg = resolve_config({"seed": 60, "trials": 20})
    result = run_datalength_sweep(cfg)
    mse_by_symbols = {row[0]: row[3] for row in result.rows}
    core = [1024, 2048, 4096, 8192, 16384, 32768]
    upticks = [
        mse_by_symbols[b] / mse_by_symbols[a] - 1.0 for a, b in zip(core, core[1:])
    ]
    monotone_ok = all(u <= 0.10 for u in upticks)
    knee_ok = (mse_by_symbols[2048] - mse_by_symbols[32768]) > (
        mse_by_symbols[32768] - mse_by_symbols[65536]
    )
    elapsed = time.perf_counter() - start
    passed = monotone_ok and knee_ok and elapsed < 300.0
    line = report(
        6,
        passed,
        "MSE " + " ".join(f"{mse_by_symbols[n]:.2e}" for n in core + [65536])
        + f", worst uptick {max(upticks):+.1%} (allow +10%), knee ok {knee_ok}, "
        f"elapsed {elapsed:.0f}s (budget 300s)",
    )
    assert passed, line


def test_criterion_7_snr_ordering():
    """100 random channel sets at 1024*16 samples: the Gaussian-probe LS
    lower-bounds the blind method at every SNR, the blind method beats the
    chaotic-probe LS at 0 and 5 dB, and blind MSE is non-increasing in SNR."""
    start = time.perf_counter()
    cfg = resolve_config({"seed": 70, "trials": 100})
    result = run_snr_sweep(cfg)
    mse = {}
    for snr_db, method, value, _ in result.rows:
        mse[(method, snr_db)] = value
    snrs = [0.0, 5.0, 10.0, 15.0, 20.0]
    gauss_ok = all(mse[("ls_gaussian", s)] <= mse[("blind_acf", s)] for s in snrs)
    chaos_ok = all(mse[("blind_acf", s)] <= mse[("ls_chaos", s)] for s in (0.0, 5.0))
    blind = [mse[("blind_acf", s)] for s in snrs]
    monotone_ok = all(b <= a for a, b in zip(blind, blind[1:]))
    elapsed = time.perf_counter() - start
    passed = gauss_ok and chaos_ok and monotone_ok and elapsed < 600.0
    line = report(
        7,
        passed,
        f"blind {['%.2e' % v for v in blind]}, "
        f"gauss<=blind {gauss_ok}, blind<=chaos at 0/5dB {chaos_ok} "
        f"(chaos {mse[('ls_chaos', 0.0)]:.2e}/{mse[('ls_chaos', 5.0)]:.2e}), "
        f"blind non-increasing {monotone_ok}, elapsed {elapsed:.0f}s (budget 600s)",
    )
    assert passed, line


def test_criterion_8_determinism(tmp_path):
    """Reruns with the same config and seed produce byte-identical tables."""
    checked = []
    for name, args in {
        "invariance": ["invariance", "--seed", "8", "--set", "invariance.symbols=512"],
        "sweep_snr": [
            "sweep-snr",
            "--seed",
            "8",
            "--trials",
            "3",
            "--set",
            "sweep_snr.symbols=256",
        ],
        "fig2": ["fig2", "--seed", "8", "--set", "fig2.symbols=8192",
                 "--set", "fig2.agreement_tol=1.0"],
    }.items():
        cli_main([*args, "--out", str(tmp_path / f"{name}_a")])
        cli_main([*args, "--out", str(tmp_path / f"{name}_b")])
        a = (tmp_path / f"{name}_a" / f"{name}.csv").read_bytes()
        b = (tmp_path / f"{name}_b" / f"{name}.csv").read_bytes()
        checked.append(a == b)
    passed = all(checked)
    line = report(8, passed, f"byte-identical reruns for invariance/sweep_snr/fig2: {checked}")
    assert passed, line
