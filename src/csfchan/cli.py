"""Command-line entry point for the simulation experiments.

Subcommands: fig2, sweep-length, sweep-snr, invariance.  Configuration
comes from a YAML file (--config), with every key overridable from the
command line via --set section.key=value; the common knobs also have
dedicated flags.  Each run writes <name>.csv and <name>.json into the
output directory and exits nonzero when the experiment's built-in checks
fail; a configuration that cannot run, or an output path that names a
file or lies under one, is rejected with exit status 2 before any work is
done.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

import yaml

from .experiments import (
    ConfigError,
    resolve_config,
    run_datalength_sweep,
    run_fig2,
    run_invariance_demo,
    run_snr_sweep,
)
from .report import config_hash, write_sidecar, write_table

_RUNNERS = {
    "fig2": run_fig2,
    "sweep-length": run_datalength_sweep,
    "sweep-snr": run_snr_sweep,
    "invariance": run_invariance_demo,
}


class _Loader(yaml.SafeLoader):
    """YAML 1.1 with 1e-9 and 1e1 read as numbers: YAML 1.1 reads an
    exponent as a float only with a dot and a sign (1.0e-9), and leaves
    the rest strings."""


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9_]+)[eE][-+]?[0-9]+$"),
    list("-+.0123456789"),
)


def _load(text: str):
    return yaml.load(text, Loader=_Loader)


def _config(args: argparse.Namespace) -> dict:
    """Merge over the defaults the experiment, the config file, the flags
    and each --set a.b=v as the mapping {"a": {"b": v}}, in that order;
    a later layer may not name another experiment."""
    try:
        layers = [{"experiment": args.command}, None if args.config is None else _load(args.config.read_text())]
    except (OSError, UnicodeDecodeError, yaml.YAMLError) as exc:
        raise ConfigError(f"--config {args.config}: {exc}") from None
    flags = {"seed": args.seed, "out": args.out and str(args.out), "trials": args.trials, "threads": args.threads}
    layers.append({flag: value for flag, value in flags.items() if value is not None})
    for text in args.overrides:
        key, eq, raw = text.partition("=")
        if not eq:
            raise ConfigError(f"--set expects key=value, got {text!r}")
        try:
            value = _load(raw)
        except yaml.YAMLError as exc:
            raise ConfigError(f"--set {text}: {exc}") from None
        for part in reversed(key.split(".")):
            value = {part: value}
        layers.append(value)
    cfg = resolve_config(*layers)
    if cfg["experiment"] != args.command:
        raise ConfigError(f"experiment must be {args.command!r}, the command being run, got {cfg['experiment']!r}")
    return cfg


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csfchan",
        description="Chaotic-waveform ACF experiments and blind channel identification",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _RUNNERS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", type=Path, default=None, help="YAML configuration file")
        p.add_argument("--seed", type=int, default=None, help="base seed (overrides config)")
        p.add_argument("--out", type=Path, default=None, help="output directory")
        p.add_argument("--trials", type=int, default=None, help="Monte-Carlo trial count")
        p.add_argument(
            "--threads",
            type=int,
            default=None,
            help="worker processes for a sweep's tasks: an SNR-sweep trial or a length-sweep frame",
        )
        p.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            dest="overrides",
            help="override any config key, e.g. --set sweep_snr.symbols=2048",
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    try:
        cfg = _config(args)
        out = cfg["out"]
        if isinstance(out, str):  # the runner's config check refuses any other type
            existing = next(path for path in (Path(out), *Path(out).parents) if path.exists())
            if not existing.is_dir():
                raise ConfigError(f"out {out}: {existing} is not a directory")
        result = _RUNNERS[args.command](cfg)
    except ConfigError as exc:
        print(f"csfchan {args.command}: invalid configuration: {exc}", file=sys.stderr)
        return 2

    failed = [key for key, ok in result.summary.get("checks", {}).items() if not ok]
    out_dir = Path(cfg["out"])
    write_table(out_dir / f"{result.name}.csv", result.columns, result.rows, config_hash(cfg))
    write_sidecar(out_dir / f"{result.name}.json", cfg, result.summary, not failed)

    print(f"{result.name}: wrote {out_dir / (result.name + '.csv')} ({len(result.rows)} rows)")
    for key, value in result.summary.items():
        if not isinstance(value, (dict, list)):
            print(f"  {key}: {value}")
    if failed:
        print(f"{result.name}: FAILED checks: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
