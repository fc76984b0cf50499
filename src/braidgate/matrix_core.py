"""Dense complex matrix primitives for small qubit operators.

Everything here works on plain ``numpy`` complex arrays.  Operators on two
qubits are 4x4 with rows/columns labelled by the pair index (i1 i2) in the
order 00, 01, 10, 11; ``braid`` representations grow them to 2^n x 2^n.
All functions are pure, and every threshold of the package is named here.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "DEFAULT_TOL",
    "SINGULAR_TOL",
    "RANK_TOL",
    "DRAW_MIN_DET",
    "CLUSTER_TOL",
    "IMAGINARY_TOL",
    "I2",
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "PAULIS",
    "PAULI_PAIRS",
    "SingularMatrixError",
    "as_matrix",
    "tensor_product",
    "partial_trace",
    "partial_transpose",
    "invert",
    "eigenvalues_xtype",
    "max_norm",
    "is_xtype",
    "numerical_rank",
    "XTYPE_SUPPORT",
    "LOCAL_PAULIS",
]

# Comparison tolerance, judged against the scale each comparison states.
DEFAULT_TOL = 1e-9

# A matrix is singular when its 1-norm condition number exceeds 1 / SINGULAR_TOL,
# which scaling the matrix does not change: the package's one singularity rule.
SINGULAR_TOL = 1e-12

# Singular values at or below RANK_TOL times the largest count as zero.
RANK_TOL = 1e-8

# Random draws with |det| <= DRAW_MIN_DET are rejected; absolute, as it picks the draws.
DRAW_MIN_DET = 1e-6

# Eigenvalues within CLUSTER_TOL times the largest, by single linkage, are one
# multiple root: measured, a root's lie at most 10^-4 apart, distinct roots' 10^-2.
CLUSTER_TOL = 1e-3

# z counts as imaginary when |Re z| <= IMAGINARY_TOL * |z|.
IMAGINARY_TOL = 1e-9

I2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_EPS = np.array([[0, 1], [-1, 0]], dtype=complex)

# The X pattern: diagonal plus anti-diagonal.  Row-major order of the True
# cells is h1..h8, so r[XTYPE_SUPPORT] reads and writes the eight slots.
XTYPE_SUPPORT = np.array(
    [
        [True, False, False, True],
        [False, True, True, False],
        [False, True, True, False],
        [True, False, False, True],
    ]
)


class SingularMatrixError(ValueError):
    """Raised when a matrix is singular within the detection threshold."""


def as_matrix(m) -> np.ndarray:
    """Coerce to a square complex ndarray, rejecting non-finite entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def max_norm(m) -> float:
    """Entrywise max-abs norm used for all residual reporting."""
    return float(np.max(np.abs(m))) if np.asarray(m).size else 0.0


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two square arrays with the (i*dim_b + k) row
    convention, unchecked.

    One broadcast product of the entries, each formed once as a[i, j] * b[k, l],
    so the result is bit-identical to ``np.kron`` (9 us for three 2x2 pairs,
    ``np.kron`` 63 us).
    """
    n = len(a) * len(b)
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(n, n)


def tensor_product(a, b) -> np.ndarray:
    """Kronecker product of two square matrices, checked by :func:`as_matrix`
    (see :func:`_kron`)."""
    return _kron(as_matrix(a), as_matrix(b))


# The one Pauli basis: P_0..P_3 = I, X, Y, Z, and the sixteen two-qubit words
# P_k x P_l at index 4 k + l.
PAULIS = np.array([I2, PAULI_X, PAULI_Y, PAULI_Z])
PAULI_PAIRS = np.array([_kron(p, q) for p in PAULIS for q in PAULIS])

# The six one-qubit generators of the local algebra: X, Y, Z on qubit 1, then
# on qubit 2, each a 4x4 operator.
LOCAL_PAULIS = PAULI_PAIRS[[4, 8, 12, 1, 2, 3]]


def _as_two_qubit(r) -> np.ndarray:
    r = as_matrix(r)
    if r.shape != (4, 4):
        raise ValueError(f"expected a 4x4 two-qubit operator, got {r.shape}")
    return r


def partial_trace(r, qubit: int) -> np.ndarray:
    """Trace a 4x4 operator over one qubit, returning a 2x2 matrix.

    ``qubit=1`` sums over the first factor, ``qubit=2`` over the second:
    (tr2 R)[i, j] = sum_k R[(i k), (j k)].
    """
    r4 = _as_two_qubit(r).reshape(2, 2, 2, 2)
    if qubit == 1:
        return np.einsum("kikj->ij", r4)
    if qubit == 2:
        return np.einsum("ikjk->ij", r4)
    raise ValueError("qubit index must be 1 or 2")


def partial_transpose(r, qubit: int) -> np.ndarray:
    """Transpose the row/column indices of one qubit factor.

    (Theta_1 R)[(i1 i2), (j1 j2)] = R[(j1 i2), (i1 j2)], and Theta_2
    analogously; Theta_1 composed with Theta_2 is the full transpose.
    """
    r4 = _as_two_qubit(r).reshape(2, 2, 2, 2)
    if qubit == 1:
        return np.einsum("ikjl->jkil", r4).reshape(4, 4)
    if qubit == 2:
        return np.einsum("kilj->kjli", r4).reshape(4, 4)
    raise ValueError("qubit index must be 1 or 2")


def _checked_inverse(a: np.ndarray) -> tuple[np.ndarray | None, float]:
    """The inverse of ``a`` and its 1-norm condition number |a|_1 |a^-1|_1.

    ``a`` counts as singular, and the inverse is None, when the condition
    number exceeds 1 / SINGULAR_TOL; it is then infinite if LU finds an exact
    zero pivot.
    """
    try:
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        return None, np.inf
    # each 1-norm is the largest column abs-sum, as np.linalg.norm(., 1) takes it
    norm_a, norm_inv = np.abs(np.array([a, inv])).sum(axis=1).max(axis=1)
    cond = float(norm_a * norm_inv)
    # a NaN from an overflowed inverse fails the comparison too
    return (inv if cond <= 1 / SINGULAR_TOL else None), cond


def invert(m) -> np.ndarray:
    """Matrix inverse with an explicit singularity check (see _checked_inverse)."""
    inv, cond = _checked_inverse(as_matrix(m))
    if inv is None:
        raise SingularMatrixError(
            f"matrix is singular (1-norm condition number {cond:.3e} > {1 / SINGULAR_TOL:.0e})")
    return inv


def eigenvalues_xtype(h) -> tuple[complex, complex, complex, complex]:
    """Closed-form eigenvalues of an X-patterned operator.

    Returns (lam1_plus, lam1_minus, lam2_plus, lam2_minus) where the first
    pair comes from the outer (h1, h2, h7, h8) block and the second from the
    inner (h3, h4, h5, h6) block.  Square roots take the numpy principal
    branch, which fixes the +/- labels.
    """
    h1, h2, h3, h4, h5, h6, h7, h8 = (complex(v) for v in h)
    d1 = np.sqrt(complex((h1 - h8) ** 2 + 4 * h2 * h7))
    d2 = np.sqrt(complex((h3 - h6) ** 2 + 4 * h4 * h5))
    return (
        (h1 + h8 + d1) / 2,
        (h1 + h8 - d1) / 2,
        (h3 + h6 + d2) / 2,
        (h3 + h6 - d2) / 2,
    )


def is_xtype(r, tol: float = DEFAULT_TOL) -> bool:
    """True when all eight off-pattern entries of a 4x4 matrix vanish.

    An entry vanishes when |entry| <= tol * max_norm(R): the scale is the
    largest entry of R, so scaling R does not change the verdict.
    """
    a = np.abs(_as_two_qubit(r))
    return bool(np.all(a[~XTYPE_SUPPORT] <= tol * a.max()))


def numerical_rank(m) -> int:
    """Number of singular values of ``m`` above RANK_TOL times the largest."""
    svals = np.linalg.svd(m, compute_uv=False)
    return int(np.sum(svals > RANK_TOL * (svals[0] if svals.size else 0.0)))
