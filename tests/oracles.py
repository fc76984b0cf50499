"""Oracles that the tests compare the library's routes against: sampling ones
for the exact routes, and per-call constructions for the constant tables."""

import itertools

import numpy as np

from braidgate.enhancement import _MONOMIAL_INDEX
from braidgate.entangling_power import _det_sq, _qubit_states
from braidgate.matrix_core import (DEFAULT_TOL, I2, PAULI_X, PAULI_Y, PAULI_Z, RANK_TOL,
                                   _as_two_qubit, max_norm, partial_trace)
from braidgate.yang_baxter import braid_rep


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


def macaulay_oracle(polys, degree: int) -> np.ndarray:
    """The degree-``degree`` Macaulay matrix of the system
    ``enhancement._system`` returns, written out: one row for each of the 16
    quadrics and 12 cubics times each monomial that lifts it to ``degree``,
    with a column for each monomial of ``degree`` (``_MONOMIAL_INDEX``).  At
    degree 4 it is 208 x 35, at degree 3 76 x 20."""
    monomials = [list(itertools.combinations_with_replacement(range(4), d))
                 for d in range(degree + 1)]
    system = [(polys[10 * k:10 * k + 10], 2) for k in range(16)]
    system += [(polys[160 + 20 * k:180 + 20 * k], 3) for k in range(12)]
    rows = []
    for coeffs, d in system:
        for lift in monomials[degree - d]:
            row = np.zeros(len(monomials[degree]), dtype=complex)
            for term, coeff in zip(monomials[d], coeffs, strict=True):
                row[_MONOMIAL_INDEX[tuple(sorted(term + lift))]] += coeff
            rows.append(row)
    return np.array(rows)


def bmw_witness_oracle(r, scale, l, m, tol: float = DEFAULT_TOL) -> tuple[dict, bool]:
    """The BMW relations as ``enhancement.bmw_witness`` checks them, written
    out: e = (g + g^-1) / m - 1 with a dense inverse on two strands and on
    three, where g_i = scale * braid_rep(R, i, 3), and the skein cubic as
    an explicit polynomial.  Returns the residuals and the verdict."""
    r = _as_two_qubit(r)

    def e_of(g):
        return (g + np.linalg.inv(g)) / m - np.eye(len(g))

    g = scale * r
    e = e_of(g)
    g1, g2 = scale * braid_rep(r, 1, 3), scale * braid_rep(r, 2, 3)
    e1, e2 = e_of(g1), e_of(g2)
    res = {
        "e_squared": max_norm(e @ e - ((l + 1 / l) / m - 1) * e),
        "eg_left": max_norm(e @ g - e / l),
        "eg_right": max_norm(g @ e - e / l),
        "skein_cubic": max_norm(g @ g - (m + 1 / l) * g + (1 + m / l) * np.eye(4)
                                - np.linalg.inv(g) / l),
        "ege_up": max_norm(e1 @ g2 @ e1 - l * e1),
        "ege_down": max_norm(e2 @ g1 @ e2 - l * e2),
    }
    return res, all(v <= tol * max_norm(g) for v in res.values())


def hecke_witness_oracle(r, scale, q, tol: float = DEFAULT_TOL) -> tuple[dict, bool]:
    """The Hecke quadratic sigma^2 - (q-1) sigma - q and the braid relation
    s1 s2 s1 = s2 s1 s2 with s_i = scale * braid_rep(R, i, 3), as
    ``enhancement.hecke_witness`` checks them.  Returns the residuals and the
    verdict."""
    r = _as_two_qubit(r)
    sigma = scale * r
    s1, s2 = scale * braid_rep(r, 1, 3), scale * braid_rep(r, 2, 3)
    res = {"quadratic": max_norm(sigma @ sigma - (q - 1) * sigma - q * np.eye(4)),
           "braid": max_norm(s1 @ s2 @ s1 - s2 @ s1 @ s2)}
    size = max_norm(sigma)
    return res, res["quadratic"] <= tol * size**2 and res["braid"] <= tol * size**3


def jordan_witness_oracle(r, coeffs: dict, tol: float = DEFAULT_TOL) -> tuple[dict, bool]:
    """sum_k c_k R^k with each power taken by ``np.linalg.matrix_power`` of R
    or of its dense inverse, as ``enhancement.jordan_witness`` checks it.
    Returns the residual and the verdict."""
    r = _as_two_qubit(r)
    total = sum(c * np.linalg.matrix_power(r if k >= 0 else np.linalg.inv(r), abs(k))
                for k, c in coeffs.items())
    res = {"identity": max_norm(total)}
    return res, res["identity"] <= tol * max_norm(r) ** max(abs(k) for k in coeffs)
