"""Local invariants of two-qubit operators under unit-determinant local actions.

A 4x4 operator R has one linear invariant (its trace) and ten quadratic
invariants built by contracting two copies of R with the epsilon and delta
tensors.  Six linear identities reduce those ten to five independent ones.
:func:`quadratic_invariants` evaluates all ten through one constant
contraction table, the one production route; :func:`contraction_oracle` is
the literal index sum that the tests and the benchmark check it against.

Invariance caveat: I1 and I2_1..I2_8 contract both copies of R on the same
two qubits and are invariant under independent (Q1, Q2).  The two-copy pair
I2_9, I2_10 places the second copy on qubits 2 and 3, so the contraction
pairs a Q2-transforming slot with a Q1-transforming one: individually they
are invariant only under the diagonal action Q1 = Q2, while their sum equals
I1^2 identically and is therefore fully invariant.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .matrix_core import (
    DEFAULT_TOL,
    DRAW_MIN_DET,
    _EPS,
    _as_two_qubit,
    at_scale,
    max_norm,
)
from .yang_baxter import CatalogEntry, assemble, evaluate_expr

__all__ = [
    "InvariantSet",
    "EigenReport",
    "linear_invariant",
    "quadratic_invariants",
    "contraction_oracle",
    "check_identities",
    "identity_scale",
    "xtype_closed_forms",
    "reconstruct_params",
    "class_eigen_report",
    "random_sl2",
    "INDEPENDENT_COUNTS",
]

@dataclass(frozen=True)
class InvariantSet:
    """The linear invariant I1 and quadratic invariants I2_1 .. I2_10."""

    I1: complex
    I2: tuple[complex, ...]

    def __post_init__(self):
        if len(self.I2) != 10:
            raise ValueError("expected ten quadratic invariants")

    def q(self, r: int) -> complex:
        """The r-th quadratic invariant (1-based)."""
        return self.I2[r - 1]

    def to_json(self) -> dict:
        out = {"I1": [self.I1.real, self.I1.imag]}
        for r, v in enumerate(self.I2, start=1):
            out[f"I2_{r}"] = [v.real, v.imag]
        return out


# Each I2_k is a bilinear form in the 16 entries of R: one copy is
# r4[p, q, r, s] = R[(p q), (r s)], the other r4[t, u, v, w], and W_k[(pqrs),
# (tuvw)] is a product of four delta or epsilon factors over pairs of these
# indices, so every entry is -1, 0 or 1.  The patterns are those of
# :func:`contraction_oracle`; W_9 and W_10 are not symmetric, since the two
# copies of R sit on different qubit pairs.
_D, _E = np.eye(2), _EPS.real
_W = np.stack([np.einsum(spec + "->pqrstuvw", *ops).reshape(16, 16) for spec, ops in (
    ("pv,rt,qw,su", (_D, _D, _D, _D)),  # I2_1
    ("pv,rt,qs,uw", (_D, _D, _D, _D)),  # I2_2
    ("pr,tv,qw,su", (_D, _D, _D, _D)),  # I2_3
    ("pt,rv,qw,su", (_E, _E, _D, _D)),  # I2_4
    ("pv,rt,qu,sw", (_D, _D, _E, _E)),  # I2_5
    ("pt,rv,qs,uw", (_E, _E, _D, _D)),  # I2_6
    ("pr,tv,qu,sw", (_D, _D, _E, _E)),  # I2_7
    ("pt,rv,qu,sw", (_E, _E, _E, _E)),  # I2_8
    ("pr,uw,qv,st", (_D, _D, _D, _D)),  # I2_9
    ("pr,uw,qt,sv", (_D, _D, _E, _E)),  # I2_10
)])


def linear_invariant(r) -> complex:
    """I1 = Tr R."""
    return complex(np.trace(_as_two_qubit(r)))


def quadratic_invariants(r) -> InvariantSet:
    """All ten quadratic invariants through one constant contraction table:
    I2_k = v^T W_k v with v = R.reshape(16) (see :data:`_W`)."""
    r = _as_two_qubit(r)
    v = r.reshape(16)
    vals = (_W.reshape(160, 16) @ v).reshape(10, 16) @ v
    return InvariantSet(I1=linear_invariant(r), I2=tuple(vals.tolist()))


# Literal contraction patterns.  Index order of one R copy is
# (row1, row2, col1, col2); the one-copy constructions pair two copies of R
# on the two-qubit space, the two-copy ones (9, 10) attach the second R to
# qubits 2 and 3.
def contraction_oracle(r, which: str) -> complex:
    """Evaluate one invariant as the literal sum over all index assignments."""
    r4 = _as_two_qubit(r).reshape(2, 2, 2, 2)
    rng2 = (0, 1)

    def eps(a, b):
        return complex(_EPS[a, b])

    def delta(a, b):
        return 1.0 + 0j if a == b else 0j

    if which == "I1":
        return complex(sum(r4[i1, i2, i1, i2] for i1, i2 in itertools.product(rng2, rng2)))

    single = {
        "I2_1": lambda i1, i2, ti1, ti2, j1, j2, tj1, tj2: delta(i1, tj1) * delta(ti1, j1) * delta(i2, tj2) * delta(ti2, j2),
        "I2_2": lambda i1, i2, ti1, ti2, j1, j2, tj1, tj2: delta(i1, tj1) * delta(ti1, j1) * delta(i2, ti2) * delta(j2, tj2),
        "I2_3": lambda i1, i2, ti1, ti2, j1, j2, tj1, tj2: delta(i1, ti1) * delta(j1, tj1) * delta(i2, tj2) * delta(ti2, j2),
        "I2_4": lambda i1, i2, ti1, ti2, j1, j2, tj1, tj2: eps(i1, j1) * eps(ti1, tj1) * delta(i2, tj2) * delta(ti2, j2),
        "I2_5": lambda i1, i2, ti1, ti2, j1, j2, tj1, tj2: delta(i1, tj1) * delta(ti1, j1) * eps(i2, j2) * eps(ti2, tj2),
        "I2_6": lambda i1, i2, ti1, ti2, j1, j2, tj1, tj2: eps(i1, j1) * eps(ti1, tj1) * delta(i2, ti2) * delta(j2, tj2),
        "I2_7": lambda i1, i2, ti1, ti2, j1, j2, tj1, tj2: delta(i1, ti1) * delta(j1, tj1) * eps(i2, j2) * eps(ti2, tj2),
        "I2_8": lambda i1, i2, ti1, ti2, j1, j2, tj1, tj2: eps(i1, j1) * eps(ti1, tj1) * eps(i2, j2) * eps(ti2, tj2),
    }
    if which in single:
        weight = single[which]
        total = 0j
        for idx in itertools.product(rng2, repeat=8):
            i1, i2, ti1, ti2, j1, j2, tj1, tj2 = idx
            w = weight(*idx)
            if w:
                total += r4[i1, i2, ti1, ti2] * r4[j1, j2, tj1, tj2] * w
        return complex(total)

    if which in ("I2_9", "I2_10"):
        total = 0j
        for i1, i2, ti2, j2, j3, tj2, tj3 in itertools.product(rng2, repeat=7):
            if j3 != tj3:
                continue
            if which == "I2_9":
                w = delta(i2, tj2) * delta(ti2, j2)
            else:
                w = eps(i2, j2) * eps(ti2, tj2)
            if w:
                total += r4[i1, i2, i1, ti2] * r4[j2, j3, tj2, tj3] * w
        return complex(total)

    raise ValueError(f"unknown invariant id {which!r}")


def identity_scale(r) -> float:
    """16 max(1, max|R|)^2, the scale of the :func:`check_identities`
    residuals (each invariant sums at most 16 products of two entries of R),
    floored at 1: they hold for every R, and the floor absorbs underflow."""
    return 16 * max(1.0, max_norm(r)) ** 2


def check_identities(inv: InvariantSet) -> tuple[float, ...]:
    """Residuals of the six linear relations among I1^2 and the I2_r."""
    q = inv.q
    vals = (
        inv.I1**2 - q(9) - q(10),
        q(1) + q(6) + q(7) - q(8) - q(9) - q(10),
        q(2) + q(6) - q(9) - q(10),
        q(3) + q(7) - q(9) - q(10),
        q(4) - q(6) + q(8),
        q(5) - q(7) + q(8),
    )
    return tuple(abs(v) for v in vals)


def xtype_closed_forms(h) -> dict[str, complex]:
    """The six X-type closed forms: I1 and I2_{4,5,8,9,10} in terms of h."""
    h1, h2, h3, h4, h5, h6, h7, h8 = h
    return {
        "I1": h1 + h3 + h6 + h8,
        "I2_4": 2 * (h1 * h6 - h4 * h5 - h2 * h7 + h3 * h8),
        "I2_5": 2 * (h1 * h3 - h4 * h5 - h2 * h7 + h6 * h8),
        "I2_8": 2 * (h4 * h5 + h3 * h6 + h2 * h7 + h1 * h8),
        "I2_9": h1**2 + h8**2 + (h1 + h8) * (h3 + h6) + 2 * h3 * h6,
        "I2_10": h3**2 + h6**2 + (h1 + h8) * (h3 + h6) + 2 * h1 * h8,
    }


def reconstruct_params(inv: InvariantSet, eigenvalues, tol: float = DEFAULT_TOL) -> dict[str, complex]:
    """Recover X-type parameter combinations from invariants and eigenvalues.

    ``eigenvalues`` is the labeled tuple (lam1+, lam1-, lam2+, lam2-).  The
    square roots introduce the inherent {h1, h8} and {h3, h6} pair
    ambiguities: callers should compare the returned pairs as unordered sets.
    ``h2*h7`` and ``h4*h5`` are branch-free.

    Raises ValueError when the invariants and eigenvalues cannot come from a
    common source: both must give the trace, to ``tol`` max(|I1|, sum |lam|).
    """
    l1p, l1m, l2p, l2m = (complex(v) for v in eigenvalues)
    lam_sum = l1p + l1m + l2p + l2m
    scale = max(abs(inv.I1), abs(l1p) + abs(l1m) + abs(l2p) + abs(l2m))
    if not abs(inv.I1 - lam_sum) <= tol * scale:  # NaN is inconsistent too
        raise ValueError(
            "inconsistent inputs: eigenvalue sum does not reproduce the trace "
            f"({lam_sum} vs {inv.I1})"
        )
    q = inv.q
    half_sum45 = (q(4) + q(5)) / 2
    s1 = np.sqrt(q(9) - q(8) - half_sum45)
    s2 = np.sqrt(q(10) - q(8) - half_sum45)
    return {
        "h1": (l1p + l1m + s1) / 2,
        "h8": (l1p + l1m - s1) / 2,
        "h3": (l2p + l2m + s2) / 2,
        "h6": (l2p + l2m - s2) / 2,
        "h2h7": ((l1p - l1m) ** 2 - q(9) + q(8) + half_sum45) / 4,
        "h4h5": ((l2p - l2m) ** 2 - q(10) + q(8) + half_sum45) / 4,
    }


def random_sl2(rng: np.random.Generator) -> np.ndarray:
    """Random 2x2 complex matrix rescaled to unit determinant (draws with
    |det| <= DRAW_MIN_DET are rejected)."""
    while True:
        q = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        det = np.linalg.det(q)
        if abs(det) > DRAW_MIN_DET:
            return q / np.sqrt(det)


# ---------------------------------------------------------------------------
# Per-class eigenvalue formulas for I2_{4,5,8,9,10}
# ---------------------------------------------------------------------------

INDEPENDENT_COUNTS = {1: 3, 2: 2, 3: 2, 4: 2, 5: 2, 6: 2, 7: 2, 8: 1, 9: 1, 10: 1, 11: 1, 12: 1}

# Per class, the five quadratic invariants as expressions over the named
# eigenvalue combinations of the class's catalog entries (``eigen_named``).
# Classes 3 and 5 share one shape.
_C3_LIKE = {"I2_4": "2*lamp*(lamp+2*lamm)", "I2_5": "2*lamm*(2*lamp+lamm)", "I2_8": "0j",
            "I2_9": "2*(lamp**2+lamm**2+lamp*lamm)", "I2_10": "2*(lamp**2+lamm**2+3*lamp*lamm)"}

_CLASS_FORMULAS: dict[int, dict[str, str]] = {
    1: {"I2_4": "-2*lam2sq", "I2_5": "-2*lam2sq", "I2_8": "2*(lam1p*lam1m+lam2sq)",
        "I2_9": "lam1p**2+lam1m**2", "I2_10": "2*lam1p*lam1m"},
    2: {"I2_4": "-2*lam1sq", "I2_5": "-2*lam1sq", "I2_8": "2*(lam1sq+lam2**2)",
        "I2_9": "2*lam2**2", "I2_10": "2*lam2**2"},
    3: _C3_LIKE,
    4: {"I2_4": "2*lam1*(lam1+2*lam2)", "I2_5": "2*lam1*(lam1+2*lam2)",
        "I2_8": "2*lam1*(lam1-lam2)", "I2_9": "2*lam1*(2*lam1+lam2)",
        "I2_10": "5*lam1**2+4*lam1*lam2+lam2**2"},
    5: _C3_LIKE,
    # symmetric in lam+-, written via e1 = lam+ + lam-, e2 = lam+ lam-
    6: {"I2_4": "2*e2", "I2_5": "2*e2", "I2_8": "2*e1**2", "I2_9": "2*(e1**2-e2)",
        "I2_10": "2*(e1**2+e2)"},
    7: {"I2_4": "-2*lamm**2", "I2_5": "-2*lamm**2", "I2_8": "2*(lamp**2+lamm**2)",
        "I2_9": "2*lamp**2", "I2_10": "2*lamp**2"},
    8: {"I2_4": "2*lamsum**2", "I2_5": "2*lamsum**2", "I2_8": "0j", "I2_9": "2*lamsum**2",
        "I2_10": "2*lamsum**2"},
    9: {"I2_4": "-2*lam**2", "I2_5": "-2*lam**2", "I2_8": "4*lam**2", "I2_9": "2*lam**2",
        "I2_10": "2*lam**2"},
    10: {"I2_4": "-2*lam**2", "I2_5": "-2*lam**2", "I2_8": "0j", "I2_9": "2*lam**2",
         "I2_10": "-2*lam**2"},
    11: {"I2_4": "6*lam**2", "I2_5": "6*lam**2", "I2_8": "0j", "I2_9": "6*lam**2",
         "I2_10": "10*lam**2"},
    12: {"I2_4": "2*lam**2", "I2_5": "2*lam**2", "I2_8": "8*lam**2", "I2_9": "6*lam**2",
         "I2_10": "10*lam**2"},
}

# Per class, the dependence relations among the directly evaluated
# invariants: expressions over I2_4 .. I2_10 that vanish on the class.
# Classes 1 and 2 share one set, and so do classes 3 and 5; in the latter,
# (2 lam+^2)(2 lam-^2) = 4 (lam+ lam-)^2 with the stated substitutions.
_C1_LIKE_DEPS = ("I2_8-(I2_10-I2_4)",)
_C3_LIKE_DEPS = ("I2_8", "(I2_4-I2_10+I2_9)*(I2_5-I2_10+I2_9)-(I2_10-I2_9)**2/4")
_DEPENDENCE_RELATIONS: dict[int, tuple[str, ...]] = {
    1: _C1_LIKE_DEPS,
    2: _C1_LIKE_DEPS,
    3: _C3_LIKE_DEPS,
    # lam1^2 = (I28+I29)/6 and lam2^2 = (I29-2 I28)^2 / (6 (I28+I29));
    # I24 and I210 then follow, written squared to stay branch-free.
    4: ("I2_4-I2_5",
        "(I2_4-2*((I2_8+I2_9)/6))**2-16*((I2_8+I2_9)/6)*((I2_9-2*I2_8)**2/(6*(I2_8+I2_9)))",
        "I2_10-I2_4-3*((I2_8+I2_9)/6)-(I2_9-2*I2_8)**2/(6*(I2_8+I2_9))"),
    5: _C3_LIKE_DEPS,
    6: ("I2_4-I2_5",),
    7: ("I2_8-(I2_9-I2_4)",),
    8: ("I2_8", "I2_4-I2_9", "I2_9-I2_10"),
    9: ("I2_8+2*I2_4", "I2_9-I2_10"),
    10: ("I2_8", "I2_4-I2_10", "I2_9+I2_4"),
    11: ("I2_8", "I2_4-I2_9", "5*I2_4-3*I2_10"),
    12: ("4*I2_4-I2_8", "3*I2_4-I2_9", "5*I2_4-I2_10"),
}


def _degree(expr: str) -> int:
    """A homogeneous relation's degree in the invariants, log2 of its growth
    when they all double at a generic point: 2 for the second of classes 3-5."""
    point = {f"I2_{k}": complex(k, 1) for k in (4, 5, 8, 9, 10)}
    grown = evaluate_expr(expr, {k: 2 * v for k, v in point.items()}) / evaluate_expr(expr, point)
    return round(math.log2(abs(grown)))


_DEGREES = {expr: _degree(expr) for exprs in _DEPENDENCE_RELATIONS.values() for expr in exprs}


@dataclass(frozen=True)
class EigenReport:
    """Comparison of per-class eigenvalue formulas against direct evaluation."""

    entry_id: str
    eigenvalues: dict[str, complex]
    closed: dict[str, complex]
    direct: dict[str, complex]
    independent_count: int
    max_diff: float
    dependence_residuals: tuple[float, ...]
    passed: bool


def class_eigen_report(entry: CatalogEntry, params: dict, tol: float = DEFAULT_TOL) -> EigenReport:
    """Evaluate the class's invariant-vs-eigenvalue formulas at given params.

    Judged on the invariants times 2^-2e, e the ``frexp`` exponent of max|R|
    (exact, and no product underflows): the formula difference passes at most
    ``tol`` s, s the largest scaled invariant, a relation of degree d at most
    ``tol`` s^d.  Both are reported at R's scale, where a relation's residual
    of degree d is its scaled value times 2^(2ed): one that leaves the float
    range there (max|R| near 1e100 or more) is reported as inf."""
    h = entry.fill(params)
    inv = quadratic_invariants(assemble(h))
    direct = {f"I2_{k}": inv.q(k) for k in (4, 5, 8, 9, 10)}
    eig = entry.eigen_values(params)
    closed = {k: evaluate_expr(expr, eig) for k, expr in _CLASS_FORMULAS[entry.class_id].items()}
    max_diff = max(abs(closed[k] - direct[k]) for k in closed)
    e = math.frexp(max(map(abs, h)))[1]  # max|R|, read off the slots
    unit = {k: complex(math.ldexp(v.real, -2 * e), math.ldexp(v.imag, -2 * e))
            for k, v in direct.items()}
    size = max(map(abs, unit.values()))
    relations = [(abs(evaluate_expr(x, unit)), _DEGREES[x])
                 for x in _DEPENDENCE_RELATIONS[entry.class_id]]
    passed = (math.ldexp(max_diff, -2 * e) <= tol * size
              and all(v <= tol * size**d for v, d in relations))
    return EigenReport(entry_id=entry.entry_id, eigenvalues=eig, closed=closed, direct=direct,
                       independent_count=INDEPENDENT_COUNTS[entry.class_id], max_diff=max_diff,
                       dependence_residuals=tuple(at_scale(v, 2 * e * d) for v, d in relations),
                       passed=passed)
