"""Machine-readable experiment output: CSV tables plus a JSON sidecar.

Tables are deterministic byte-for-byte for a fixed (config, seed): fixed
column order, floats at 9 significant digits, no timestamps.  Every row
carries the hash of the resolved configuration for provenance; the
sidecar stores the full resolved config, seed, and environment strings,
among them the numpy version, as numpy keeps a `Generator` stream fixed
only within one version, and the OpenBLAS kernel, as a blind solve that
stalls can end at another point on another kernel.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
from pathlib import Path

import numpy as np

from . import __version__, _openblas

__all__ = ["config_hash", "format_value", "write_table", "write_sidecar"]


def config_hash(resolved_config: dict) -> str:
    """Hash of the result-determining part of the configuration.

    Execution-only keys (worker count, output directory) do not change
    any emitted number, so they stay out of the hash.
    """
    hashed = {k: v for k, v in resolved_config.items() if k not in ("threads", "out")}
    canonical = json.dumps(hashed, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def format_value(value) -> str:
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def write_table(path: Path, columns: list, rows: list, cfg_hash: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(["config_hash"] + [str(c) for c in columns])]
    for row in rows:
        lines.append(",".join([cfg_hash] + [format_value(v) for v in row]))
    path.write_text("\n".join(lines) + "\n")


def _git_describe() -> str:
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            check=False,
        )
        return out.stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def _openblas_core() -> str | None:
    """The kernel numpy's bundled OpenBLAS runs (SkylakeX, Haswell, ...),
    None without one."""
    return None if _openblas is None else _openblas.scipy_openblas_get_corename64_().decode()


def write_sidecar(path: Path, resolved_config: dict, summary: dict, passed: bool) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "config": resolved_config,
        "config_hash": config_hash(resolved_config),
        "seed": resolved_config.get("seed"),
        "git_describe": _git_describe(),
        "package_version": __version__,
        "numpy_version": np.__version__,
        "openblas_core": _openblas_core(),
        "summary": summary,
        "passed": passed,
    }
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
