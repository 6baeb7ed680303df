"""The numpy Generator streams behind every random draw of the package.

numpy keeps its bit generators stable across versions, but not the
Generator methods built on them (its random compatibility policy, NEP 19),
so pyproject.toml pins the numpy 2.4 series.  Each draw below is one the
package makes, in the call form it makes it, with its first values at two
seeds held as literals taken on numpy 2.4.6.  A numpy whose streams move
fails here by name, ahead of every reference CSV at once.
"""

import numpy as np
import pytest

# a small seed, and a full 64-bit one as derive_seed gives
SEEDS = (0, 0x9E3779B97F4A7C15)


def symbols(rng):
    # waveform.random_symbols
    return rng.choice((-1.0, 1.0), size=12)


def unit_noise(rng):
    # channel.awgn_law, which draws into the buffer of the squared frame
    out = np.empty(6)
    rng.standard_normal(out=out)
    return out


def probe(rng):
    # baselines.gaussian_probe
    return rng.normal(size=6)


def channel(rng):
    # channel.sample_random_channel: gamma, then the echo delays unsorted
    return [rng.uniform(0.3, 0.9), *rng.choice(np.arange(1, 11), size=5, replace=False)]


STREAMS = {
    "symbols": (
        symbols,
        [1.0, 1.0, 1.0, -1.0, -1.0, -1.0, -1.0, -1.0, -1.0, 1.0, 1.0, 1.0],
        [1.0, -1.0, -1.0, -1.0, -1.0, -1.0, 1.0, 1.0, 1.0, 1.0, 1.0, -1.0],
    ),
    "unit_noise": (
        unit_noise,
        [0.1257302210933933, -0.1321048632913019, 0.6404226504432821,
         0.10490011715303971, -0.535669373161111, 0.36159505490948474],
        [0.21994546631452447, 1.0405204743456606, 1.571171969035783,
         -1.628726843458816, 0.6330669098616353, 0.3356308997542356],
    ),
    "probe": (
        probe,
        [0.1257302210933933, -0.1321048632913019, 0.6404226504432821,
         0.10490011715303971, -0.535669373161111, 0.36159505490948474],
        [0.21994546631452447, 1.0405204743456606, 1.571171969035783,
         -1.628726843458816, 0.6330669098616353, 0.3356308997542356],
    ),
    "channel": (
        channel,
        [0.6821770123928727, 1, 2, 3, 10, 4],
        [0.3137792283454783, 3, 7, 1, 8, 4],
    ),
}


@pytest.mark.parametrize("name", STREAMS)
@pytest.mark.parametrize("seed_index", range(len(SEEDS)))
def test_first_values_hold(name, seed_index):
    draw, *expected = STREAMS[name]
    got = draw(np.random.default_rng(SEEDS[seed_index]))
    assert [float(value) for value in got] == expected[seed_index]
