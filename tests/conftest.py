"""Shared helpers: random but reproducible problem instances.

The random RaInstance family assigns every CH to exactly one serving UAV
(dwell drawn uniformly, rescaled to respect each UAV's slot budget), with
per-link gains from random distances in 300..800 m at the default radio
numerology. At its 1 W cap the power constraints are slack; tests of the
binding-cap regime lower `pmax` below the optimum's peak link power.
`split_ch_instance` adds the case the greedy scheduler produces in nearly
every plan: one CH served by two UAVs.

Property tests run under a derandomized hypothesis profile, so every run of
the suite draws the same examples; each test keeps its own `max_examples`.
"""

import numpy as np
import pytest
from hypothesis import settings

from uavm2m import channel
from uavm2m.model import DwellMatrix, RadioParams
from uavm2m.raopt import RaInstance

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")

WAVELENGTH = 3e8 / 2e9
BETA = channel.snr_gap(1e-7)


def random_instance(rng, max_uavs=3, max_chs=6, max_rbs=24, packet_bits=100.0,
                    min_dwell=0.1):
    n_u = int(rng.integers(1, max_uavs + 1))
    n_g = int(rng.integers(1, max_chs + 1))
    total = int(rng.integers(n_u, max_rbs + 1))
    dwell = np.zeros((n_u, n_g))
    for g in range(n_g):
        u = int(rng.integers(0, n_u))
        dwell[u, g] = rng.uniform(min_dwell, 1.0)
    for u in range(n_u):
        load = dwell[u].sum()
        if load > 1:
            dwell[u] *= 0.95 / load
    dist = rng.uniform(300.0, 800.0, size=(n_g, n_u))
    gains = (4 * np.pi * dist / WAVELENGTH) ** -2.5
    return RaInstance(
        dwell=DwellMatrix(entries=dwell), gains=gains,
        packet_bits=packet_bits, rb_bandwidth=15e3, total_rbs=total,
        noise_psd=1e-20, beta=BETA, pmax=1.0,
    )


def split_ch_instance(total_rbs=12):
    """Three UAVs over three CHs; CH 0 is split between UAVs 0 and 1."""
    dwell = np.array([[0.5, 0.0, 0.0],
                      [0.3, 0.6, 0.0],
                      [0.0, 0.0, 0.8]])
    dist = np.array([[400.0, 650.0, 500.0],
                     [520.0, 450.0, 700.0],
                     [600.0, 380.0, 550.0]])
    return RaInstance(
        dwell=DwellMatrix(entries=dwell), gains=(4 * np.pi * dist / WAVELENGTH) ** -2.5,
        packet_bits=100.0, rb_bandwidth=15e3, total_rbs=total_rbs,
        noise_psd=1e-20, beta=BETA, pmax=1.0,
    )


def single_link_instance(total_rbs=6, dwell=1.0, altitude=500.0):
    gain = channel.path_gain(altitude, WAVELENGTH, 2.5)
    return RaInstance(
        dwell=DwellMatrix(entries=np.array([[dwell]])),
        gains=np.array([[gain]]),
        packet_bits=100.0, rb_bandwidth=15e3, total_rbs=total_rbs,
        noise_psd=1e-20, beta=BETA, pmax=1.0,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture
def default_radio():
    return RadioParams()
