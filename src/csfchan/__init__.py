"""Chaotic shape-forming-filter waveforms and ACF-based blind channel identification."""

__version__ = "0.1.0"  # set before the submodules import: report reads it

import os

# Loaded with OPENBLAS_NUM_THREADS=1, numpy's OpenBLAS starts no worker
# thread to spin idle (acf._pin_blas_to_one_thread says why that matters);
# the variable is removed again so that no child process inherits it.  A
# value set before the import stays.
if "OPENBLAS_NUM_THREADS" in os.environ:
    import numpy
else:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

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
