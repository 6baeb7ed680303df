"""What importing csfchan gives and does: every exported name resolves (a
name deleted from a module but left in an export list would otherwise only
fail on a star import), and the process set-up of csfchan/__init__.py
holds: one OpenBLAS thread and a heap that keeps freed frame memory."""

import ast
import ctypes
import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import csfchan

MODULES = ["csfchan"] + [f"csfchan.{info.name}" for info in pkgutil.iter_modules(csfchan.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])  # the cli module exports nothing
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names what the module lacks: {missing}"


def _sets_up_process(node: ast.AST) -> bool:
    """An import of ctypes, or an assignment to or deletion from os.environ."""
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "ctypes" for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return (node.module or "").split(".")[0] == "ctypes"
    return (
        isinstance(node, (ast.Attribute, ast.Subscript))
        and isinstance(node.ctx, (ast.Store, ast.Del))
        and ast.unparse(node).startswith("os.environ")
    )


def test_only_init_sets_up_the_process():
    # __init__ is where a reader looks for what importing csfchan does to
    # the process; no other module loads a C library or edits the environment
    package = Path(csfchan.__file__).parent
    trees = {path.name: ast.parse(path.read_text()) for path in package.glob("*.py")}
    assert {name for name, tree in trees.items() if any(map(_sets_up_process, ast.walk(tree)))} == {"__init__.py"}


def _openblas_threads() -> int | None:
    """Thread count of numpy's bundled OpenBLAS in this process, None
    without one."""
    return None if csfchan._openblas is None else csfchan._openblas.scipy_openblas_get_num_threads64_()


def test_import_pins_openblas_to_one_thread():
    # numpy's wheels bundle scipy-openblas; there csfchan must find it
    if np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"] != "scipy-openblas":
        pytest.skip("numpy carries no bundled OpenBLAS")
    assert _openblas_threads() == 1
    with ProcessPoolExecutor(max_workers=1) as pool:  # as in a --threads run
        assert pool.submit(_openblas_threads).result(timeout=60) == 1


def _run_python(code: str, env) -> str:
    """Standard output of code run in a fresh interpreter with env,
    importing csfchan from this tree."""
    src = str(Path(csfchan.__file__).resolve().parents[1])
    env = dict(env, PYTHONPATH=os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout


# the threads of a fresh interpreter once csfchan.cli is imported, then the
# thread count of its OpenBLAS and OPENBLAS_NUM_THREADS as it reads then
_BLAS_THREADS = f"""
import json, os

import csfchan.cli

tasks = len(os.listdir("/proc/self/task"))

{inspect.getsource(_openblas_threads)}

print(json.dumps([tasks, _openblas_threads(), os.environ.get("OPENBLAS_NUM_THREADS")]))
"""


@pytest.mark.parametrize("variable", [None, "2"], ids=["unset", "2"])
def test_openblas_loads_with_one_thread(variable):
    # unset, the variable is 1 while numpy loads OpenBLAS, which then starts
    # no worker thread, and is gone again after; a value set before the
    # import stays, and the pin takes OpenBLAS down to one thread
    if not Path("/proc/self/task").is_dir():
        pytest.skip("no /proc/self/task")
    if _openblas_threads() is None:
        pytest.skip("numpy carries no bundled OpenBLAS")
    env = {name: value for name, value in os.environ.items() if name != "OPENBLAS_NUM_THREADS"}
    if variable is not None:
        env["OPENBLAS_NUM_THREADS"] = variable
    tasks, threads, after = json.loads(_run_python(_BLAS_THREADS, env))
    assert (threads, after) == (1, variable)
    if variable is None:
        assert tasks == 1


# the mallopt calls importing csfchan makes, each as [param, value]
_MALLOPT_CALLS = """
import ctypes, json
calls = []


class Recording(ctypes.CDLL):
    def mallopt(self, param, value):
        calls.append([param, value])
        return self.__getattr__("mallopt")(param, value)


ctypes.CDLL = Recording
import csfchan
print(json.dumps(calls))
"""


def test_import_sets_the_heap_thresholds():
    # frames of up to 32 MiB come from the heap, and up to 64 MiB of freed
    # heap stays mapped (M_MMAP_THRESHOLD = -3, M_TRIM_THRESHOLD = -1)
    if getattr(ctypes.CDLL(None), "mallopt", None) is None:
        pytest.skip("libc has no mallopt")
    assert json.loads(_run_python(_MALLOPT_CALLS, os.environ)) == [[-3, 32 << 20], [-1, 64 << 20]]


# minor page faults of three 65536-symbol frames (1.05M samples) after a
# first one has sized the heap
_FRAME_FAULTS = """
import resource
from csfchan import CsfParams, add_awgn, apply_multipath, encode_waveform, random_symbols, sample_random_channel

channel = sample_random_channel(max_delay=10, gamma_range=(0.3, 0.9), path_count=6, seed=0)


def frame(seed):
    add_awgn(apply_multipath(encode_waveform(random_symbols(65536, seed=seed), CsfParams()), channel), 10.0, seed)


frame(0)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for seed in (1, 2, 3):
    frame(seed)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def test_import_keeps_freed_frame_memory():
    # freed frame buffers stay in the heap for the next frame; returned to
    # the OS they would fault in again, some 30000 pages per three frames
    if getattr(ctypes.CDLL(None), "mallopt", None) is None:
        pytest.skip("libc has no mallopt")
    assert int(_run_python(_FRAME_FAULTS, os.environ)) < 1000
