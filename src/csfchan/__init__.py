"""Chaotic shape-forming-filter waveforms and ACF-based blind channel identification.

Importing csfchan sets two things for the whole process, here and
nowhere else.

It runs numpy's bundled OpenBLAS on one thread.  Every correlation of
the package, the empirical ACF and the LS baselines' probe correlations
alike, sums its dot products in a fixed order (acf._lagged_products) that
a threaded BLAS would change, and a second thread spin-waits through the
package's short calls, doubling their CPU time.  OpenBLAS starts one
worker thread per extra core when it loads, and each spins about 0.1 s of
CPU before it sleeps; setting one thread afterwards does not stop that
spin.  So numpy is imported with OPENBLAS_NUM_THREADS=1 when the variable
is unset, and OpenBLAS starts no worker; the variable is removed again,
so that no child process inherits it, and a value set before the import
stays.  The pin then sets one thread where numpy was imported before
csfchan or the variable was set to another count.  _openblas is the
handle to numpy's bundled OpenBLAS, None when numpy carries none.

It fixes glibc's malloc thresholds, so that the heap keeps the memory
that frees hand back, for reuse.  By default glibc serves a block above a
dynamic threshold from a fresh mapping and gives heap memory above
another back to the OS, so the 8 MB spectrum and FFT scratch buffers of a
65536-symbol frame go back on every free and the next frame faults them
in again, page by page.  A fixed mmap threshold of 32 MiB, the largest
glibc accepts, puts every frame buffer on the heap, and a trim threshold
of 64 MiB keeps it there once freed.  Nothing is set when libc has no
mallopt.
"""

__version__ = "0.1.0"  # set before the submodules import: report reads it

import ctypes
import os
from pathlib import Path

if "OPENBLAS_NUM_THREADS" in os.environ:
    import numpy
else:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]


def _find_openblas() -> ctypes.CDLL | None:
    """The OpenBLAS that numpy loaded from numpy.libs, None without one."""
    for lib in sorted((Path(numpy.__file__).parents[1] / "numpy.libs").glob("libscipy_openblas*.so")):
        try:
            handle = ctypes.CDLL(str(lib), mode=os.RTLD_NOLOAD)
            handle.scipy_openblas_get_corename64_.restype = ctypes.c_char_p
        except (OSError, AttributeError):
            continue
        return handle
    return None


_openblas = _find_openblas()  # set before the submodules import: report reads it
if _openblas is not None:
    _openblas.scipy_openblas_set_num_threads64_(1)

try:
    _mallopt = ctypes.CDLL(None).mallopt
except (OSError, AttributeError):
    pass
else:
    _mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD, from <malloc.h>
    _mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD

from . import acf, baselines, channel, estimator, waveform
from .acf import *  # noqa: F403
from .baselines import *  # noqa: F403
from .channel import *  # noqa: F403
from .estimator import *  # noqa: F403
from .experiments import derive_seed, resolve_config
from .waveform import *  # noqa: F403

# each module's __all__ is the one list of its public names
__all__ = [
    *acf.__all__,
    *baselines.__all__,
    *channel.__all__,
    *estimator.__all__,
    *waveform.__all__,
    "derive_seed",
    "resolve_config",
]
