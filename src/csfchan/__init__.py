"""Chaotic shape-forming-filter waveforms and ACF-based blind channel identification."""

__version__ = "0.1.0"  # set before the submodules import: report reads it

from .acf import empirical_acf, empirical_acf_trace, predicted_rx_acf, predicted_rx_acf_trace
from .baselines import (
    LsEstimate,
    ProbeFrame,
    chaotic_probe_frame,
    gaussian_probe,
    gaussian_probe_frame,
    ls_estimate,
    ls_sweep,
    symbol_instants,
)
from .channel import (
    ChannelModel,
    add_awgn,
    add_awgn_sweep,
    apply_multipath,
    attenuation_from_delay,
    awgn_law,
    sample_random_channel,
)
from .estimator import (
    EstimationResult,
    IdentificationProblem,
    SolverOptions,
    build_residuals,
    residual_jacobian,
    solve_channel,
    solve_channels,
)
from .experiments import derive_seed, resolve_config
from .waveform import (
    CsfParams,
    SymbolStream,
    Waveform,
    authoritative_acf_table,
    base_pulse,
    encode_waveform,
    pulse_acf,
    random_symbols,
    sample_base_pulse,
    theoretical_acf,
)

__all__ = [
    "ChannelModel",
    "CsfParams",
    "EstimationResult",
    "IdentificationProblem",
    "LsEstimate",
    "ProbeFrame",
    "SolverOptions",
    "SymbolStream",
    "Waveform",
    "add_awgn",
    "add_awgn_sweep",
    "apply_multipath",
    "attenuation_from_delay",
    "authoritative_acf_table",
    "awgn_law",
    "base_pulse",
    "build_residuals",
    "chaotic_probe_frame",
    "derive_seed",
    "empirical_acf",
    "empirical_acf_trace",
    "encode_waveform",
    "gaussian_probe",
    "gaussian_probe_frame",
    "ls_estimate",
    "ls_sweep",
    "predicted_rx_acf",
    "predicted_rx_acf_trace",
    "pulse_acf",
    "random_symbols",
    "resolve_config",
    "residual_jacobian",
    "sample_base_pulse",
    "sample_random_channel",
    "solve_channel",
    "solve_channels",
    "symbol_instants",
    "theoretical_acf",
]
