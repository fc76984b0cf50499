"""Sampling oracles that the tests compare the library's exact routes against."""

import numpy as np

from braidgate.entangling_power import _det_sq, _qubit_states
from braidgate.matrix_core import _as_two_qubit


def entangling_power_monte_carlo(r, samples: int = 1_000_000, seed: int = 0) -> float:
    """Monte Carlo cross-check of the Bloch-sphere average (about 1% at 1e6)."""
    r = _as_two_qubit(r)
    rng = np.random.default_rng(seed)
    phi1 = rng.uniform(-np.pi, 0, samples)
    phi2 = rng.uniform(-np.pi, 0, samples)
    # u = cos(2 theta) uniform on [-1, 1] realizes the sin cos measure
    th1 = np.arccos(rng.uniform(-1, 1, samples)) / 2
    th2 = np.arccos(rng.uniform(-1, 1, samples)) / 2
    q1, q2 = _qubit_states(phi1, th1), _qubit_states(phi2, th2)
    states = (q1[:, :, None] * q2[:, None, :]).reshape(-1, 4)
    return float(np.mean(_det_sq(r @ states.T)))
