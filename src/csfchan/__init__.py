"""Chaotic shape-forming-filter waveforms and ACF-based blind channel identification."""

__version__ = "0.1.0"  # set before the submodules import: report reads it

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
