"""Oracles that the tests compare the library's routes against: sampling ones
for the exact routes, and per-call constructions for the constant tables."""

import itertools

import numpy as np

from braidgate.entangling_power import _det_sq, _qubit_states
from braidgate.matrix_core import (I2, PAULI_X, PAULI_Y, PAULI_Z, RANK_TOL, _as_two_qubit,
                                   partial_trace)


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


def enhancement_system_oracle(r, r_inv, norm):
    """The enhancement solver's system built per call, one Pauli pair at a
    time, as ``enhancement._system(r, r_inv, norm)`` returns it: the 16
    quadrics of [R, mu x mu] and the 12 cubic minors B_i mu_j - B_j mu_i and
    C_i mu_j - C_j mu_i (i < j) of B = tr_2 R (mu x mu) and C = tr_2 R^-1
    (mu x mu) against mu, in the Pauli coefficients c of mu, each scaled to
    unit norm or zeroed at or below RANK_TOL * norm; and the (16, 8) table
    whose row 4 k + l holds B, then C, at mu x mu = P_k x P_l.  Monomials of
    one degree are sorted index tuples in lexicographic order."""
    paulis = (I2, PAULI_X, PAULI_Y, PAULI_Z)
    quadratic = {m: i for i, m in enumerate(itertools.combinations_with_replacement(range(4), 2))}
    cubic = {m: i for i, m in enumerate(itertools.combinations_with_replacement(range(4), 3))}
    quadrics = np.zeros((16, 10), dtype=complex)
    traces = np.zeros((2, 4, 10), dtype=complex)  # B, then C, by entry and monomial
    table = np.zeros((16, 8), dtype=complex)
    for k, l in itertools.product(range(4), repeat=2):
        mm = np.kron(paulis[k], paulis[l])
        b, c = partial_trace(r @ mm, 2).ravel(), partial_trace(r_inv @ mm, 2).ravel()
        monomial = quadratic[tuple(sorted((k, l)))]
        quadrics[:, monomial] += (r @ mm - mm @ r).ravel()
        traces[0, :, monomial] += b
        traces[1, :, monomial] += c
        table[4 * k + l] = np.concatenate([b, c])
    cubics = np.zeros((12, 20), dtype=complex)
    minors = itertools.product(traces, itertools.combinations(range(4), 2))
    for row, (t, (i, j)) in enumerate(minors):
        for m, monomial in quadratic.items():
            for n, p in enumerate(paulis):  # mu.ravel()[j] = sum_n c_n P_n.ravel()[j]
                cubics[row, cubic[tuple(sorted(m + (n,)))]] += (
                    t[i, monomial] * p.flat[j] - t[j, monomial] * p.flat[i])
    polys = []
    for poly in [*quadrics, *cubics]:
        size = np.linalg.norm(poly)
        polys.append(poly / size if size > RANK_TOL * norm else np.zeros_like(poly))
    return np.concatenate(polys), table
