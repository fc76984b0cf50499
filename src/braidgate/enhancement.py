"""Turaev enhancement of braiding operators and the induced link evaluations.

An enhancement of an invertible 4x4 braiding operator R is a triple
(mu, x, y) with

    (a)  [R, mu x mu] = 0
    (b)  tr_2[ R     (mu x mu) ] = x y   mu
    (c)  tr_2[ R^-1  (mu x mu) ] = y / x mu

which makes

    L(w) = x^(-writhe(w)) * y^(-n) * Tr[ rho(w) mu^(x n) ]

invariant under the Markov moves for braid words w on n strands.

The module carries the recipe catalog for all twelve operator classes (keyed
"C<class>.<name>"), an exact solver that finds all (mu, x, y) with mu in
the Pauli span from a Macaulay-matrix null space, and witnesses for the
quotient-algebra relations (BMW, Hecke, and the odd-one-out Jordan-type
identities).

A recipe is plain data in the package's one table format: its mu, x and y
are expression strings, evaluated by :func:`~braidgate.yang_baxter.evaluate_expr`
like the catalog's.  Square roots are named once, as the record's ``let``
intermediates shared by a class's recipes, so each printed +/- family lands
on one definite member; the partner is always the simultaneous sign flip
(x, y) -> (-x, -y).
"""

from __future__ import annotations

import cmath
import functools
import itertools
from dataclasses import InitVar, dataclass, field
from typing import NamedTuple

import numpy as np

from .matrix_core import (
    CLUSTER_TOL,
    DEFAULT_TOL,
    I2,
    IMAGINARY_TOL,
    PAULI_PAIRS,
    PAULIS,
    RANK_TOL,
    SINGULAR_TOL,
    _as_two_qubit,
    _kron,
    invert,
    max_norm,
    tensor_product,
)
from .yang_baxter import (
    BraidWord,
    assemble,
    bind,
    catalog_entry,
    check_ybe,
    closed_traces,
    evaluate_expr,
    letter_powers,
)

__all__ = [
    "EnhancedOperator",
    "EnhancementRecipe",
    "RECIPES",
    "instantiate_recipe",
    "verify_enhancement",
    "solve_enhancement",
    "POINT_OUTCOMES",
    "link_polynomial",
    "markov_check",
    "AlgebraWitness",
    "bmw_witness",
    "hecke_witness",
    "jordan_witness",
    "class_bmw_params",
    "class_hecke_params",
    "class_jordan_coeffs",
    "InvalidEnhancementError",
]

# mu.ravel() = c @ _MU_ROWS for the Pauli coefficients c of mu
_MU_ROWS = PAULIS.reshape(4, 4)


class InvalidEnhancementError(ValueError):
    """The quadruple does not satisfy the enhancement conditions."""


@dataclass(frozen=True)
class EnhancedOperator:
    """Quadruple (R, mu, x, y) with the residuals of conditions (a)-(c).

    R and mu are held as read-only complex copies.  Making the quadruple
    inverts R, or takes ``r_inv``, which must be invert(R) of this R, and
    computes once the max-norm ``residuals`` of (a)-(c) and the ``scales``
    each is judged against (see :func:`verify_enhancement`).  An R that is
    not 4x4 or a mu that is not 2x2 raises ``ValueError``, a singular R
    ``SingularMatrixError`` here, and a zero x or y, of any numeric
    type, ``InvalidEnhancementError``: condition (c) divides by x, and a
    link value by y^n.
    :func:`dataclasses.replace` makes a new quadruple, so it inverts its R
    again.
    """

    R: np.ndarray
    mu: np.ndarray
    x: complex
    y: complex
    recipe_id: str | None = None
    # the maker's R^-1, an argument only: the operator holds it as _r_inv
    r_inv: InitVar[np.ndarray | None] = None
    _r_inv: np.ndarray = field(init=False, repr=False, compare=False)
    residuals: tuple[float, float, float] = field(init=False, repr=False, compare=False)
    scales: tuple[float, float, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self, r_inv):
        if self.x == 0:
            raise InvalidEnhancementError("an enhancement needs x != 0: condition (c) takes y / x")
        if self.y == 0:
            raise InvalidEnhancementError("an enhancement needs y != 0: a link value takes y^-n")
        for name in ("R", "mu"):
            a = np.array(getattr(self, name), dtype=complex)
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        if self.R.shape != (4, 4) or self.mu.shape != (2, 2):
            raise ValueError(f"an enhancement needs a 4x4 R and a 2x2 mu, got shapes "
                             f"{self.R.shape} and {self.mu.shape}")
        r_inv = invert(self.R) if r_inv is None else r_inv
        r_inv.flags.writeable = False
        residuals, scales = _conditions(self.R, r_inv, self.mu, self.x, self.y)
        object.__setattr__(self, "_r_inv", r_inv)
        object.__setattr__(self, "residuals", residuals)
        object.__setattr__(self, "scales", scales)

    def mu_coeffs(self) -> tuple[complex, complex, complex, complex]:
        """Pauli coefficients (alpha, beta, gamma, delta) of mu: tr(P_k mu) / 2."""
        return tuple((_MU_ROWS @ self.mu.T.ravel() / 2).tolist())


def _condition_terms(rs, mm):
    """The terms of conditions (a)-(c) at mu x mu = mm: [R, mm], and tr_2 R mm
    stacked on tr_2 R^-1 mm, for rs = [R, R^-1] of shape (2, ..., 4, 4) and a
    4x4 mm or a stack of them, broadcast against R."""
    products = rs @ mm  # R mm, R^-1 mm
    blocks = products.reshape(*products.shape[:-2], 2, 2, 2, 2)
    return products[0] - mm @ rs[0], blocks[..., 0, :, 0] + blocks[..., 1, :, 1]


# where [R, mu x mu], the (b) and (c) rests, R, R^-1 and mu start in the
# flat terms of _conditions
_CONDITION_SPANS = np.array([0, 16, 20, 24, 40, 56])


def _conditions(r, r_inv, mu, x, y):
    """Max-norm residuals of conditions (a)-(c) for (mu, x, y), and their
    scales, the sizes of their terms: max|R| max|mu|^2 for (a), that or
    |x y| max|mu| for (b), and max(max|R^-1| max|mu|^2, |y / x| max|mu|) for
    (c), as two float triples.  The terms are :func:`_condition_terms` at mm = mu x mu.
    """
    rs = np.array([r, r_inv])
    comm, traces = _condition_terms(rs, tensor_product(mu, mu))
    lam, nu = x * y, y / x
    rest = traces - np.array([lam, nu])[:, None, None] * mu  # (b), (c)
    terms = np.abs(np.concatenate([comm.ravel(), rest.ravel(), rs.ravel(), mu.ravel()]))
    res_a, res_b, res_c, r_n, r_inv_n, mu_n = np.maximum.reduceat(terms, _CONDITION_SPANS).tolist()
    return (
        (res_a, res_b, res_c),
        (r_n * mu_n**2, max(r_n * mu_n**2, abs(lam) * mu_n),
         max(r_inv_n * mu_n**2, abs(nu) * mu_n)),
    )


def verify_enhancement(e: EnhancedOperator, tol: float = DEFAULT_TOL):
    """Residuals of conditions (a), (b), (c) in max-norm, plus the verdict.

    Residuals are reported raw; each passes at most ``tol`` times its
    condition's scale (``e.scales``), the size of its terms, so the verdict
    does not depend on the scale of R, x or mu.  Both were computed when
    ``e`` was made, so verifying again, at any ``tol``, computes nothing.
    """
    return e.residuals, all(v <= tol * s for v, s in zip(e.residuals, e.scales))


def _require_enhancement(e: EnhancedOperator, tol: float) -> None:
    residuals, ok = verify_enhancement(e, tol)
    if not ok:
        raise InvalidEnhancementError(
            f"enhancement conditions fail with residuals {residuals}"
        )


def _link_values(e: EnhancedOperator, words) -> list[complex]:
    """L(w) for each of ``words`` of a verified ``e``: x^-writhe y^-n times the
    trace :func:`~braidgate.yang_baxter.closed_traces` takes with the R^-1
    ``e`` holds.  A value that leaves the float64 range raises
    ``ValueError``."""
    values = []
    for word, trace in zip(words, closed_traces(e.R, e.mu, words, e._r_inv)):
        # Python scalars x and y raise out of range; the solver's numpy ones
        # give inf or nan, checked below with the value
        try:
            with np.errstate(all="ignore"):
                value = complex(e.x ** (-word.writhe()) * e.y ** (-word.strands) * trace)
        except (OverflowError, ZeroDivisionError):
            value = complex("nan")
        if not cmath.isfinite(value):
            raise ValueError(
                f"the link value of this {word.strands}-strand word leaves the float64 range"
            )
        values.append(value)
    return values


def link_polynomial(e: EnhancedOperator, word: BraidWord, tol: float = DEFAULT_TOL) -> complex:
    """Evaluate L(w) = x^-w(xi) y^-n Tr[rho(xi) mu^(x n)].

    The trace is :func:`~braidgate.yang_baxter.closed_traces` of the word
    with mu as the site, so a word whose contraction would exceed its
    bounds raises ``ValueError`` before anything is allocated, and so does
    a value that leaves the float64 range, for Python or numpy x and y.
    The quadruple must pass :func:`verify_enhancement` at ``tol``.
    """
    _require_enhancement(e, tol)
    return _link_values(e, [word])[0]


def _inverse_word(word: BraidWord) -> BraidWord:
    return BraidWord(word.strands, tuple((g, -k) for g, k in reversed(word.letters)))


def markov_check(
    e: EnhancedOperator,
    word: BraidWord,
    conjugator: BraidWord | None = None,
    rng: np.random.Generator | None = None,
) -> tuple[float, float]:
    """Residuals of the two Markov moves for one word.

    Conjugation compares L(c w c^-1) with L(w) for the supplied (or random)
    conjugator c; stabilization compares L on n+1 strands of w * s_n^(+-1)
    with L(w) on n strands.  The quadruple is verified first, as by
    :func:`link_polynomial`; the three traces are then one call of
    :func:`~braidgate.yang_baxter.closed_traces`, so every word is bounded
    before any is evaluated.
    """
    _require_enhancement(e, DEFAULT_TOL)
    n = word.strands
    if conjugator is None:
        rng = np.random.default_rng(0) if rng is None else rng
        letters = tuple(
            (int(rng.integers(1, n)), int(rng.choice([-2, -1, 1, 2]))) for _ in range(3)
        )
        conjugator = BraidWord(n, letters)
    conjugated = BraidWord(
        n, conjugator.letters + word.letters + _inverse_word(conjugator).letters
    )
    sign = 1 if (rng is None or rng.random() < 0.5) else -1
    widened = BraidWord(n + 1, word.letters + ((n, sign),))
    base, conj, wide = _link_values(e, [word, conjugated, widened])
    return abs(conj - base), abs(wide - base)


# ---------------------------------------------------------------------------
# Recipe catalog
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnhancementRecipe:
    """A closed-form (mu, x, y) family for one operator class.

    ``constraints`` pins class parameters the recipe requires (e.g. h8 = h1);
    ``free_params`` is what remains.  ``let`` names intermediates, each an
    expression over the free parameters and the names before it; ``mu``
    holds the Pauli coefficients (alpha, beta, gamma, delta) and ``x`` and
    ``y`` the scalars, all expressions over the free parameters and the
    ``let`` names.  ``link_behavior`` records what the two-strand closures
    evaluate to: "formula" (nontrivial), "constant", or "vanish".
    """

    recipe_id: str
    class_id: int
    mu_label: str
    free_params: tuple[str, ...]
    mu: tuple[str, str, str, str]
    x: str
    y: str
    link_behavior: str
    constraints: dict[str, str] = field(default_factory=dict)
    let: dict[str, str] = field(default_factory=dict)

    @property
    def entry_id(self) -> str:
        return f"C{self.class_id}.0"


# Roots shared by the recipes of one class, so each lands on one definite
# branch.  A sign s = +-1 of a +- pair is written "1*" or "-1*" in front of
# the term it multiplies, as the product it is: "-w" and "-1*w" differ in
# the sign of a zero.
_C3_W = {"w": "sqrt((h8-h1)/h7)"}
_C45_ROOTS = {"s1": "sqrt(h1)", "sd": "sqrt(h1-h6)"}
_C6_ROOTS = {"s": "sqrt(2*(h1**2+h8**2))", "lp": "(h1+h8+s)/2", "lm": "(h1+h8-s)/2"}
_C6_LOW = {**_C6_ROOTS, "den": "sqrt(-2*h2*lm)"}
_C6_HIGH = {**_C6_ROOTS, "den": "sqrt(2*h2*lp)"}
_C10_W = {"w": "1j*sqrt(2*h1/h7)"}
# the four I-type families come in X/Y coefficient pairs (a, b) over the
# shared denominator sqrt(2 (1+i) h1 h2)
_C12_AB = {"den": "sqrt(2*(1+1j)*h1*h2)", "a": "(h1+(1+1j)*h2)/den",
           "b": "(h1-(1+1j)*h2)/den"}

# the Pauli coefficients of the four constant mu
_I = ("1", "0", "0", "0")
_Z = ("0", "0", "0", "1")
_I_PLUS_Z = ("1", "0", "0", "1")
_I_MINUS_Z = ("1", "0", "0", "-1")

RECIPES: dict[str, EnhancementRecipe] = {r.recipe_id: r for r in (
    # Class 1: diagonal corners h1, h8 with anti-diagonal middle block
    EnhancementRecipe("C1.I", 1, "I", ("h1", "h4", "h5"), _I, "h1", "1", "formula",
                      constraints={"h8": "h1"}),
    EnhancementRecipe("C1.Z", 1, "Z", ("h1", "h4", "h5"), _Z, "h1", "1", "formula",
                      constraints={"h8": "-h1"}),
    EnhancementRecipe("C1.I+Z", 1, "I+Z", ("h1", "h4", "h5", "h8"), _I_PLUS_Z, "h1", "2",
                      "constant"),
    EnhancementRecipe("C1.I-Z", 1, "I-Z", ("h1", "h4", "h5", "h8"), _I_MINUS_Z, "h8", "2",
                      "constant"),
    EnhancementRecipe("C2.I", 2, "I", ("h2", "h3", "h7"), _I, "h3", "1", "formula"),
    EnhancementRecipe("C3.Z", 3, "Z", ("h1", "h7", "h8"), _Z, "1j*s1*s8", "-1j*s1/s8",
                      "vanish", let={"s1": "sqrt(h1)", "s8": "sqrt(h8)"}),
    EnhancementRecipe("C3.mu2", 3, "-wI+X-iY+wZ", ("h1", "h7", "h8"),
                      ("-1*w", "1", "-1j", "1*w"), "h8", "-1*2*w", "constant", let=_C3_W),
    EnhancementRecipe("C3.mu3", 3, "+wI+X-iY-wZ", ("h1", "h7", "h8"),
                      ("1*w", "1", "-1j", "-1*w"), "h8", "1*2*w", "constant", let=_C3_W),
    EnhancementRecipe("C4.I", 4, "I", ("h1", "h4"), _I, "h1", "1", "constant",
                      constraints={"h6": "0"}),
    EnhancementRecipe("C4.Z", 4, "Z", ("h1", "h4"), _Z, "1j*h1", "-1j", "vanish",
                      constraints={"h6": "2*h1"}),
    EnhancementRecipe("C4.I+Z", 4, "I+Z", ("h1", "h4", "h6"), _I_PLUS_Z, "h1", "2", "constant"),
    EnhancementRecipe("C4.I-Z", 4, "I-Z", ("h1", "h4", "h6"), _I_MINUS_Z, "h1", "2", "constant"),
    EnhancementRecipe("C4.mu5", 4, "I+h6/(2h1-h6) Z", ("h1", "h4", "h6"),
                      ("1", "0", "0", "h6/(2*h1-h6)"), "s1**3/sd", "2*s1*sd/(2*h1-h6)",
                      "formula", let=_C45_ROOTS),
    EnhancementRecipe("C5.Z", 5, "Z", ("h1", "h4", "h6"), _Z, "s1*sd", "s1/sd", "vanish",
                      let=_C45_ROOTS),
    EnhancementRecipe("C5.I+Z", 5, "I+Z", ("h1", "h4", "h6"), _I_PLUS_Z, "h1", "2", "constant"),
    EnhancementRecipe("C5.I-Z", 5, "I-Z", ("h1", "h4", "h6"), _I_MINUS_Z, "h1-h6", "-2",
                      "constant"),
    EnhancementRecipe("C6.Z", 6, "Z", ("h1", "h2", "h8"), _Z, "(h1-h8)/2", "1", "vanish"),
    EnhancementRecipe("C6.mu2", 6, "I+..X+..Y-(2lam+/(h1-h8))Z", ("h1", "h2", "h8"),
                      ("1", "1*0.5j*(h1+2*h2+h8)/den", "1*0.5*(h1-2*h2+h8)/den",
                       "-2*lp/(h1-h8)"), "lm", "2", "constant", let=_C6_LOW),
    EnhancementRecipe("C6.mu3", 6, "I-..X-..Y-(2lam+/(h1-h8))Z", ("h1", "h2", "h8"),
                      ("1", "-1*0.5j*(h1+2*h2+h8)/den", "-1*0.5*(h1-2*h2+h8)/den",
                       "-2*lp/(h1-h8)"), "lm", "2", "constant", let=_C6_LOW),
    EnhancementRecipe("C6.mu4", 6, "I+..X+..Y+(2lam-/(h1-h8))Z", ("h1", "h2", "h8"),
                      ("1", "1*0.5j*(h1-2*h2+h8)/den", "1*0.5*(h1+2*h2+h8)/den",
                       "2*lm/(h1-h8)"), "lm", "2", "constant", let=_C6_HIGH),
    EnhancementRecipe("C6.mu5", 6, "I-..X-..Y+(2lam-/(h1-h8))Z", ("h1", "h2", "h8"),
                      ("1", "-1*0.5j*(h1-2*h2+h8)/den", "-1*0.5*(h1+2*h2+h8)/den",
                       "2*lm/(h1-h8)"), "lm", "2", "constant", let=_C6_HIGH),
    EnhancementRecipe("C7.I", 7, "I", ("h1", "h2", "h3"), _I, "h1+h3", "1", "formula"),
    EnhancementRecipe("C8.I", 8, "I", ("h1", "h2"), _I, "sqrt(2)*h1", "sqrt(2)", "constant"),
    EnhancementRecipe("C9.I", 9, "I", ("h1", "h7"), _I, "h1", "1", "constant"),
    EnhancementRecipe("C10.Z", 10, "Z", ("h1", "h7"), _Z, "h1", "1", "vanish"),
    EnhancementRecipe("C10.mu2", 10, "-wI+X-iY+wZ", ("h1", "h7"),
                      ("-1*w", "1", "-1j", "1*w"), "h1", "1*2*w", "constant", let=_C10_W),
    EnhancementRecipe("C10.mu3", 10, "+wI+X-iY-wZ", ("h1", "h7"),
                      ("1*w", "1", "-1j", "-1*w"), "h1", "-1*2*w", "constant", let=_C10_W),
    EnhancementRecipe("C11.Z", 11, "Z", ("h7", "h8"), _Z, "1j*h8", "1j", "vanish"),
    EnhancementRecipe("C12.Z", 12, "Z", ("h1", "h2"), _Z, "(1+1j)/2*h1", "1", "vanish"),
    EnhancementRecipe("C12.mu2", 12, "I-AX+iBY+iZ", ("h1", "h2"),
                      ("1", "-1*a", "1*1j*b", "1j"), "(1-1j)/2*h1", "2", "constant",
                      let=_C12_AB),
    EnhancementRecipe("C12.mu3", 12, "I+AX-iBY+iZ", ("h1", "h2"),
                      ("1", "1*a", "-1*1j*b", "1j"), "(1-1j)/2*h1", "2", "constant",
                      let=_C12_AB),
    EnhancementRecipe("C12.mu4", 12, "I+iBX+AY-iZ", ("h1", "h2"),
                      ("1", "1*1j*b", "1*a", "-1j"), "(1-1j)/2*h1", "2", "constant",
                      let=_C12_AB),
    EnhancementRecipe("C12.mu5", 12, "I-iBX-AY-iZ", ("h1", "h2"),
                      ("1", "-1*1j*b", "-1*a", "-1j"), "(1-1j)/2*h1", "2", "constant",
                      let=_C12_AB),
)}


def instantiate_recipe(recipe_id: str, params: dict, tol: float = DEFAULT_TOL) -> EnhancedOperator:
    """Build the enhanced operator for a recipe at given class parameters.

    R is the class representative filled at the free parameters and the
    recipe's ``constraints``.  The ``let`` intermediates are evaluated in
    order, then the four Pauli coefficients of mu, x and y, each through
    :func:`~braidgate.yang_baxter.evaluate_expr`.  The quadruple is verified
    at ``tol``: ``InvalidEnhancementError`` is raised when the recipe's
    formulas divide by zero there or the quadruple fails conditions (a)-(c).
    Its square roots are the shared ``let`` names, so the recipe lands on one
    branch; the (-x, -y) partner is valid whenever the returned quadruple is.
    """
    recipe = RECIPES[recipe_id]
    entry = catalog_entry(recipe.entry_id)
    env = bind(f"recipe {recipe_id}", recipe.free_params, params)
    class_params = dict(env)
    for slot, expr in recipe.constraints.items():
        class_params[slot] = evaluate_expr(expr, env)
    r = assemble(entry.fill(class_params))
    try:
        *c, x, y = _evaluate_row(env, recipe.let, (*recipe.mu, recipe.x, recipe.y))
    except ZeroDivisionError:
        raise InvalidEnhancementError(
            f"{recipe_id} is undefined at {params}: its formulas divide by zero"
        ) from None
    candidate = EnhancedOperator(R=r, mu=(np.array(c) @ _MU_ROWS).reshape(2, 2), x=x, y=y,
                                 recipe_id=recipe_id)
    residuals, ok = verify_enhancement(candidate, tol)
    if not ok:
        raise InvalidEnhancementError(
            f"{recipe_id} fails conditions (a)-(c) at {params}: residuals {residuals}"
        )
    return candidate


# ---------------------------------------------------------------------------
# Enhancement solver
# ---------------------------------------------------------------------------

# mu x mu = sum_kl c_k c_l P_k x P_l, so conditions (a)-(c) are quadratic in
# the Pauli coefficients c of mu: each is outer(c, c).ravel() @ (its table).
def _condition_tables(r, r_inv) -> np.ndarray:
    """(..., 16, 24) table T of each R of a stack: row (k, l) holds, for
    mu x mu = P_k x P_l (``PAULI_PAIRS``), the entries of [R, mu x mu] (16),
    then tr_2 R (mu x mu) (4), then tr_2 R^-1 (mu x mu) (4)."""
    comm, traces = _condition_terms(np.array([r, r_inv])[..., None, :, :], PAULI_PAIRS)
    lead = comm.shape[:-2]
    return np.concatenate([comm.reshape(*lead, 16), np.moveaxis(traces, 0, -3).reshape(*lead, 8)],
                          axis=-1)


# Eliminating x y = lambda and y / x = nu leaves a system in c alone: (a) is
# 16 quadrics, and since mu(c) != 0 for c != 0, (b) holds for some lambda
# exactly when the 2x2 minors B_i mu_j - B_j mu_i of [B(c); mu(c)] vanish,
# B = tr_2 R (mu x mu) holding 4 quadrics; likewise (c) with C = tr_2 R^-1
# (mu x mu).  Those 16 quadrics and 12 cubics are solved in c in P^3 from the
# null space of their Macaulay matrix (Cox, Little & O'Shea, Using Algebraic
# Geometry, ch. 2; Telen, Mourrain & Van Barel, SIAM J. Matrix Anal. Appl. 39
# (2018) 1421).  Monomials of one degree are sorted index tuples.

def _monomials(degree: int) -> list[tuple[int, ...]]:
    return list(itertools.combinations_with_replacement(range(4), degree))


_MONOMIAL_INDEX = {m: i for d in range(5) for i, m in enumerate(_monomials(d))}


def _product_index(da: int, db: int) -> np.ndarray:
    """(n_da, n_db) column of each product of a degree-da and a degree-db monomial."""
    return np.array([[_MONOMIAL_INDEX[tuple(sorted(a + b))] for b in _monomials(db)]
                     for a in _monomials(da)])


def _sum_matrix(index: np.ndarray, size: int) -> np.ndarray:
    """0/1 matrix adding entry k of a flattened array into column index.flat[k]."""
    out = np.zeros((index.size, size))
    out[np.arange(index.size), index.ravel()] = 1.0
    return out


# quadric coefficients = _QUADRICS @ table: c_k c_l and c_l c_k are one monomial
_QUADRICS = _sum_matrix(_product_index(1, 1), 10).T
# cubic coefficients = (quadric x linear coefficients).ravel() @ _CUBICS
_CUBICS = _sum_matrix(_product_index(2, 1), 20)
_MINOR_I, _MINOR_J = np.triu_indices(4, 1)
_QUADRIC_COUNT, _CUBIC_COUNT = 16, 2 * len(_MINOR_I)
# the polynomial of each coefficient of the system: quadrics, then cubics
_TERM_POLY = np.repeat(np.arange(_QUADRIC_COUNT + _CUBIC_COUNT),
                       [10] * _QUADRIC_COUNT + [20] * _CUBIC_COUNT)
_SYSTEM_END = len(_TERM_POLY)


def _macaulay_layout() -> tuple[np.ndarray, np.ndarray]:
    """The flat (target, source) indices that place every monomial multiple
    of the 16 quadrics and 12 cubics in the 76 x 20 degree-3 Macaulay matrix:
    each quadric times c_0..c_3, then each cubic.  Sources index the
    concatenated (16, 10) quadric and (12, 20) cubic coefficients; no two
    sources share a target."""
    target, source = [], []
    rows = 0
    for count, d, offset in ((_QUADRIC_COUNT, 2, 0), (_CUBIC_COUNT, 3, _QUADRIC_COUNT * 10)):
        product = _product_index(d, 3 - d)
        terms, shifts = product.shape
        for poly in range(count):
            for shift in range(shifts):
                target.append(rows * 20 + product[:, shift])
                source.append(offset + poly * terms + np.arange(terms))
                rows += 1
    return np.concatenate(target), np.concatenate(source)


_MACAULAY_TARGET, _MACAULAY_SOURCE = _macaulay_layout()
# degree-4 column of each degree-3 monomial times c_k: (20, 4)
_SHIFT = _product_index(3, 1)
# flat index of the (4, 20, 35) degree-4 placement: entry (k, i, _SHIFT[j, k])
# takes R3[i, j], so row (k, i) is row i of R3 shifted by c_k
_PLACE = (np.arange(4)[:, None, None] * 20 + np.arange(20)[:, None]) * 35 + _SHIFT.T[:, None, :]
# fixed generic linear forms h0, h1: M_k multiplies by c_k / h0(c), h1(M) by h1(c) / h0(c)
_FORMS = np.array([[0.61 + 0.23j, -0.37 + 0.52j, 0.83 - 0.19j, 0.29 + 0.71j],
                   [-0.44 + 0.67j, 0.91 + 0.13j, 0.17 - 0.58j, -0.72 - 0.31j]])


def _macaulay(polys: np.ndarray) -> np.ndarray:
    """The 76 x 20 degree-3 Macaulay matrix of the scaled system."""
    out = np.zeros(76 * 20, dtype=complex)
    out[_MACAULAY_TARGET] = polys[_MACAULAY_SOURCE]
    return out.reshape(76, 20)


def _linear_table() -> np.ndarray:
    """(32, 528) table L with concat(R.ravel(), R^-1.ravel()) @ L = the
    unscaled coefficients of the 16 quadrics (160), then the 12 cubics (240),
    in c, then the (16, 8) columns of B and C of the condition table (128).
    (a) and B are linear in R and C in R^-1, so row i is all of that for the
    i-th basis pair: R = E_i and R^-1 = 0 for i < 16, then R = 0 and
    R^-1 = E_(i-16).  Its entries are small Gaussian integers."""
    basis = np.eye(32, dtype=complex).reshape(32, 2, 4, 4)
    table = _condition_tables(basis[:, 0], basis[:, 1])  # (32, 16, 24)
    quad = np.swapaxes(_QUADRICS @ table, 1, 2)  # (32, 24, 10): (a), then B, then C
    traces = quad[:, 16:].reshape(32, 2, 4, 10, 1)  # B, then C, by entry
    linear = _MU_ROWS.T[:, None, :]  # entry of mu by coefficient of c
    # minor (i, j) by quadric monomial m and linear one n: B_im mu_jn - B_jm mu_in
    minors = (traces[:, :, _MINOR_I] * linear[_MINOR_J]
              - traces[:, :, _MINOR_J] * linear[_MINOR_I])
    cubics = minors.reshape(32, _CUBIC_COUNT, 40) @ _CUBICS
    return np.concatenate([quad[:, :16].reshape(32, -1), cubics.reshape(32, -1),
                           table[:, :, 16:].reshape(32, -1)], axis=1)


_LINEAR = _linear_table()


def _system(r, r_inv, norm) -> tuple[np.ndarray, np.ndarray]:
    """Concatenated coefficients of the 16 quadrics and 12 cubics in c, each
    scaled to unit norm, and the (16, 8) table of B and C, row (k, l) for
    mu x mu = P_k x P_l, of an operator R with max|R| = max|R^-1| =
    ``norm``: one product with :data:`_LINEAR`.  A polynomial at or below
    RANK_TOL * norm is rounding of an identically zero one and is zeroed:
    scaled up, it would cut the null space."""
    linear = np.concatenate([r.ravel(), r_inv.ravel()]) @ _LINEAR
    polys = linear[:_SYSTEM_END]
    norms = np.sqrt(np.bincount(_TERM_POLY, polys.real**2 + polys.imag**2))
    scale = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > RANK_TOL * norm)
    return polys * scale[_TERM_POLY], linear[_SYSTEM_END:].reshape(16, 8)


def _null_space(polys) -> tuple[int, np.ndarray]:
    """The degree-3 Macaulay nullity of the scaled system :func:`_system`
    returns, and an orthonormal basis of the degree-4 null space, one vector
    per column, both cut at RANK_TOL.

    The system has no quartics, so every degree-4 row is a degree-3 row times
    some c_k.  With M3 = Q R3, Q orthonormal, M4 v = 0 exactly when
    R3 v[_SHIFT[:, k]] = 0 for k = 0..3: R3 placed at the four shifts, 80 rows,
    has the null space of the 208-row degree-4 matrix.  One QR of M3 gives
    both nullities, since the singular values of R3 are M3's."""
    r3 = np.linalg.qr(_macaulay(polys), mode="r")
    s3 = np.linalg.svd(r3, compute_uv=False)
    placed = np.zeros(80 * 35, dtype=complex)
    placed[_PLACE] = r3
    # the R factor keeps the row space of the 80 x 35 placement; its SVD is 35 x 35
    _, s, vh = np.linalg.svd(np.linalg.qr(placed.reshape(80, 35), mode="r"))
    nullity = int(np.sum(s <= RANK_TOL * s[0]))
    return int(np.sum(s3 <= RANK_TOL * s3[0])), vh[len(s) - nullity:].conj().T


def _roots(polys) -> tuple[np.ndarray, np.ndarray]:
    """Unit-norm c of each root of the scaled system :func:`_system` returns,
    one row per root, and the multiplicities, which sum to the Macaulay nullity.
    Raises ``ValueError`` when the roots are not isolated points."""
    degree3, null = _null_space(polys)
    nullity = null.shape[1]
    if nullity != degree3:
        raise ValueError(
            "the enhancement conditions of this operator have a positive-dimensional "
            f"solution set: Macaulay nullity {degree3} at degree 3, {nullity} at degree 4")
    if nullity == 0:
        return np.zeros((0, 4), dtype=complex), np.zeros(0, dtype=int)
    shifted = null[_SHIFT]  # (20, 4, nullity): rows c_k * m3
    # mult[:, k] is the multiplication matrix M_k of c_k / h0(c): (h0 * m3) M_k = c_k * m3
    mult, *_ = np.linalg.lstsq(_FORMS[0] @ shifted, shifted.reshape(20, -1), rcond=None)
    mult = mult.reshape(nullity, 4, nullity)
    pencil = _FORMS[1] @ mult
    w = np.linalg.eigvals(pencil)
    # clusters by single linkage at CLUSTER_TOL * max|w|; a pass doubles the path length
    linked = np.abs(w[:, None] - w) <= CLUSTER_TOL * np.max(np.abs(w))
    for _ in range(nullity.bit_length()):
        linked = linked @ linked
    members = linked[np.argmax(linked, axis=1) == np.arange(nullity)]  # a row per cluster
    counts = np.sum(members, axis=1)
    # a cluster's invariant subspace is the null space of prod (pencil - w_i)
    # over its members; the trace of M_k there is count times c_k / h0(c)
    factors = pencil - w[:, None, None] * np.eye(nullity)
    products = np.array([functools.reduce(np.matmul, factors[mask]) for mask in members])
    _, _, basis = np.linalg.svd(products)  # null vectors are the last rows
    q = basis * (np.arange(nullity) >= nullity - counts[:, None])[:, :, None]
    c = np.einsum("pai,ikj,paj->pk", q, mult, q.conj())  # tr(Q^H M_k Q)
    return c / np.linalg.norm(c, axis=1, keepdims=True), counts


# What can become of one root.
POINT_OUTCOMES = (
    "family",  # a verified family
    "degenerate",  # lambda nu = 0 at the root
    "rejected_verification",  # the normalized quadruple fails verify_enhancement
)


def _root_operator(r, r_inv, scale, coeffs, lam, nu) -> EnhancedOperator:
    """The quadruple of one root of R / scale, from its Pauli coefficients,
    the first nonzero one scaled to 1, and lambda and nu at that scale, with
    x scaled back to R, made with the R^-1 ``r_inv`` already held."""
    x = np.sqrt(lam / nu)
    y = lam / x
    # the sign of (x, y) is free: the principal root has Re x >= 0, but an
    # imaginary x is judged by Im x, so rounding in Re x cannot split a family
    if abs(x.real) <= IMAGINARY_TOL * abs(x) and x.imag < 0:
        x, y = -x, -y
    return EnhancedOperator(R=r, mu=(coeffs @ _MU_ROWS).reshape(2, 2), x=scale * x, y=y,
                            r_inv=r_inv)


def _solve(r, tol) -> tuple[list[EnhancedOperator], list[dict]]:
    """The solver behind :func:`solve_enhancement`, plus one record per root:
    its Pauli coefficients (the first nonzero one scaled to 1), lambda and nu
    at that scale, its multiplicity, its outcome (:data:`POINT_OUTCOMES`) and
    the residuals and scales of its verification, None for a degenerate
    root, in the order :func:`solve_enhancement` states.  Every other root's
    quadruple is made with the R^-1 the system was built from, so R is
    inverted once."""
    r = _as_two_qubit(r)
    r_inv = invert(r)
    # (mu, x, y) enhances R exactly when (mu, x / s, y) enhances R / s, so
    # the roots are found and judged for R / s with max|R / s| = max|s R^-1|:
    # the outcome of a root does not depend on the scale of R
    r_n, r_inv_n = max_norm(r), max_norm(r_inv)
    if r_inv_n == 0:  # every entry of R^-1 is below the float64 range
        raise ValueError(f"R^-1 underflows a float64 at max|R| = {r_n:.3g}")
    # a ratio of square roots: the ratio itself overflows past max|R| ~ 1e154
    scale = np.sqrt(r_n) / np.sqrt(r_inv_n)
    norm = r_n / scale
    polys, table = _system(r / scale, r_inv * scale, norm)
    roots, counts = _roots(polys)
    # c has unit norm; its first nonzero coefficient is the pivot
    pivots = roots[np.arange(len(roots)), np.argmax(np.abs(roots) > RANK_TOL, axis=1)]
    coeffs = roots / pivots[:, None]
    # the pencil's eigenvalue order is not canonical, since rounding permutes
    # it; the coefficients at max modulus 1, rounded, as (Re, Im) pairs, are
    keys = np.round(coeffs / np.max(np.abs(coeffs), axis=1, keepdims=True), 6).view(float)
    order = sorted(range(len(keys)), key=keys.tolist().__getitem__)
    mus = roots @ _MU_ROWS
    traces = np.einsum("pk,pl->pkl", roots, roots).reshape(-1, 16) @ table
    norms = np.sum(np.abs(mus) ** 2, axis=1)
    lams = np.sum(mus.conj() * traces[:, :4], axis=1) / norms
    nus = np.sum(mus.conj() * traces[:, 4:], axis=1) / norms
    families, points = [], []
    for k in order:
        mu, lam, nu, pivot = mus[k], lams[k], nus[k], pivots[k]
        point = {"mu": tuple(coeffs[k]), "lambda": scale * lam / pivot,
                 "nu": nu / (scale * pivot), "multiplicity": int(counts[k]),
                 "outcome": "degenerate", "residuals": None, "scales": None}
        if min(abs(lam), abs(nu)) > SINGULAR_TOL * norm * max_norm(mu):
            e = _root_operator(r, r_inv, scale, coeffs[k], lam / pivot, nu / pivot)
            residuals, ok = verify_enhancement(e, tol)
            point.update(outcome="family" if ok else "rejected_verification",
                         residuals=list(residuals), scales=list(e.scales))
            if ok:
                families.append(e)
        points.append(point)
    return families, points


def solve_enhancement(
    r, tol: float = DEFAULT_TOL, starts=None, seed=None
) -> list[EnhancedOperator]:
    """Find all enhancements with mu in the Pauli span.

    Eliminating x y and y / x leaves 16 quadrics and 12 cubics in the Pauli
    coefficients c of mu, solved exactly in projective space: every root comes
    from the null space of their degree-4 Macaulay matrix, whose nullity must
    equal the degree-3 one (otherwise the solution set is positive-dimensional
    and ``ValueError`` is raised).  The system has no quartics, so one QR of
    the degree-3 matrix gives both: its R factor, placed at the four shifts
    by c_0..c_3, has the degree-4 matrix's null space in 80 rows instead of
    208.  A root of multiplicity k, a cluster of k
    eigenvalues, is read off the cluster's invariant subspace, and judged with
    x = sqrt(lambda / nu) and y = lambda / x as in :data:`POINT_OUTCOMES`.
    Solutions are reported normalized: the first nonzero Pauli coefficient of
    mu (scan order I, X, Y, Z) is scaled to one, and the simultaneous sign of
    (x, y) is canonicalized.  An empty list means that no root is a family.

    The coefficients of the 16 quadrics and 12 cubics are linear in (R, R^-1),
    so the system is one product of concat(R.ravel(), R^-1.ravel()) with a
    constant table built at import; an R that is not 4x4 raises
    ``ValueError``.  Roots, and so families, come in one order: by the Pauli
    coefficients of mu, normalized as above and divided by their largest
    modulus, each rounded to 6 decimals and compared as (Re, Im) in the
    order I, X, Y, Z.  Rounding in the last bits permutes the eigenvalues
    the roots are read from, but moves this order only if it carries a
    coefficient across a 6-decimal boundary.

    ``starts`` and ``seed`` belonged to the former multi-start search.  They
    are accepted and ignored only because the benchmark's enhance_solve
    workload (``bench/workloads.py``) still passes them.
    """
    return _solve(r, tol)[0]


# ---------------------------------------------------------------------------
# Algebra witnesses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AlgebraWitness:
    """The max-norm residual of each relation, by name, and the verdict."""

    residuals: dict[str, float]
    realized: bool


def _relation_residual(g, coeffs: dict[int, complex], g_inv=None) -> float:
    """max|sum_k c_k g^k| over ``coeffs`` (k -> c_k, g^0 = I), the powers from
    :func:`~braidgate.yang_baxter.letter_powers`, which takes ``g_inv`` as R^-1."""
    powers = letter_powers(g, coeffs, g_inv)
    return max_norm(sum(c * powers[k] for k, c in coeffs.items()))


def bmw_witness(r, scale, l, m, tol: float = DEFAULT_TOL) -> AlgebraWitness:
    """Check the BMW relations for g = scale * R and e = (g + g^-1) / m - 1 on
    two strands, and e_i g_j e_i = l e_i on three, with g_1 = g x I, g_2 = I x g,
    against ``tol`` max|g|."""
    if l == 0 or m == 0:  # the relations divide by both
        raise ValueError("BMW witness requires l != 0 and m != 0")
    r = _as_two_qubit(r)
    scale, l, m = complex(scale), complex(l), complex(m)
    g = scale * r
    g_inv = invert(g)
    e = (g + g_inv) / m - np.eye(4)
    skein = {2: 1, 1: -(m + 1 / l), 0: 1 + m / l, -1: -1 / l}
    g1, g2, e1, e2 = _kron(g, I2), _kron(I2, g), _kron(e, I2), _kron(I2, e)
    res = {
        "e_squared": max_norm(e @ e - ((l + 1 / l) / m - 1) * e),
        "eg_left": max_norm(e @ g - e / l),
        "eg_right": max_norm(g @ e - e / l),
        "skein_cubic": _relation_residual(g, skein, g_inv),
        "ege_up": max_norm(e1 @ g2 @ e1 - l * e1),
        "ege_down": max_norm(e2 @ g1 @ e2 - l * e2),
    }
    return AlgebraWitness(res, all(v <= tol * max_norm(g) for v in res.values()))


def hecke_witness(r, scale, q, tol: float = DEFAULT_TOL) -> AlgebraWitness:
    """Check sigma^2 = (q-1) sigma + q and the braid relation, the residual of
    :func:`~braidgate.yang_baxter.check_ybe`, for sigma = scale * R, against
    ``tol`` max|sigma|^2 and ``tol`` max|sigma|^3."""
    r = _as_two_qubit(r)
    sigma, q = complex(scale) * r, complex(q)
    res = {"quadratic": _relation_residual(sigma, {2: 1, 1: -(q - 1), 0: -q}),
           "braid": check_ybe(sigma)[0]}
    s = max_norm(sigma)
    return AlgebraWitness(res, res["quadratic"] <= tol * s**2 and res["braid"] <= tol * s**3)


def jordan_witness(r, coeffs: dict[int, complex], tol: float = DEFAULT_TOL) -> AlgebraWitness:
    """Check sum_k c_k R^k = 0 (k = -1 allowed) against ``tol`` max|R|^max|k|."""
    r = _as_two_qubit(r)
    res = {"identity": _relation_residual(r, coeffs)}
    degree = max(map(abs, coeffs), default=1)
    return AlgebraWitness(res, res["identity"] <= tol * max_norm(r) ** degree)


class _Row(NamedTuple):
    """One class's algebra parameters: the names it takes, its ``let``
    intermediates and its expressions, keyed by what they are."""

    names: tuple[str, ...]
    exprs: dict
    let: dict[str, str] = {}


def _evaluate_row(env: dict[str, complex], let: dict[str, str], exprs) -> list[complex]:
    """Evaluate the ``let`` intermediates in order into the bound parameters
    ``env``, then the expressions ``exprs``."""
    for name, expr in let.items():
        env[name] = evaluate_expr(expr, env)
    return [evaluate_expr(expr, env) for expr in exprs]


def _class_row(kind: str, rows: dict, key, params: dict) -> dict:
    """The expressions of ``rows[key]`` at ``params``, keyed as in the row;
    ``ValueError`` for a class with no ``kind``."""
    if key not in rows:
        raise ValueError(f"no {kind} recorded for class {key}")
    row = rows[key]
    env = bind(f"the class-{key} {kind}", row.names, params)
    return dict(zip(row.exprs, _evaluate_row(env, row.let, row.exprs.values())))


# Class 7's m follows the (lam+ - lam-)/sqrt(lam+ lam-) pattern of classes 1
# and 2; with lam+- = h1 +- h3 that difference is 2 h3.
_BMW_ROWS = {
    1: _Row(("h1", "h4", "h5"), {"scale": "-1j/(s1*s2)", "l": "1j*s1/s2",
                                 "m": "-1j*(h1-lam2)/(s1*s2)"},
            {"lam2": "sqrt(h4*h5)", "s1": "sqrt(h1)", "s2": "sqrt(lam2)"}),
    2: _Row(("h2", "h3", "h7"), {"scale": "-1j/(s1*s2)", "l": "1j*s2/s1",
                                 "m": "-1j*(h3-lam1)/(s1*s2)"},
            {"lam1": "sqrt(h2*h7)", "s1": "sqrt(lam1)", "s2": "sqrt(h3)"}),
    7: _Row(("h1", "h2", "h3"), {"scale": "1j/(sp*sm)", "l": "-1j*sp/sm", "m": "2j*h3/(sp*sm)"},
            {"sp": "sqrt(h1+h3)", "sm": "sqrt(h1-h3)"}),
}

_HECKE_ROWS = {
    3: _Row(("h1", "h7", "h8"), {"scale": "-1/h1", "q": "-h8/h1"}),
    4: _Row(("h1", "h4", "h6"), {"scale": "1/(h1-h6)", "q": "h1/(h1-h6)"}),
    5: _Row(("h1", "h4", "h6"), {"scale": "-1/h1", "q": "(h1-h6)/h1"}),
    6: _Row(("h1", "h2", "h8"), {"scale": "-1/lp", "q": "-lm/lp"}, _C6_ROOTS),
    8: _Row(("h1", "h2"), {"scale": "-(1-1j)/(2*h1)", "q": "1j"}),
    10: _Row(("h1", "h7"), {"scale": "1/h1", "q": "1"}),
    11: _Row(("h7", "h8"), {"scale": "-1/h8", "q": "-1"}),
    12: _Row(("h1", "h2"), {"scale": "-(1+1j)/h1", "q": "-1"}),
}

# Coefficients c_k of the identities sum_k c_k R^k = 0, keyed by class or
# "<class>.<variant>"
_JORDAN_ROWS = {
    9: _Row(("h1", "h7"), {2: "1", 1: "-h1", 0: "-(h1**2)", -1: "h1**3"}),
    "1.muZ": _Row(("h1", "h4", "h5"), {3: "1", 1: "-(h1**2+prod)", -1: "h1**2*prod"},
                  {"prod": "h4*h5"}),
    1: _Row(("h1", "h4", "h5", "h8"), {3: "1", 2: "-(h1+h8)", 1: "h1*h8-prod",
                                       0: "(h1+h8)*prod", -1: "-h1*h8*prod"},
            {"prod": "h4*h5"}),
}


def class_bmw_params(class_id: int, params: dict) -> tuple[complex, complex, complex]:
    """(scale, l, m) realizing the BMW algebra for classes 1, 2, and 7.

    Class 1 realizes it at h8 = h1 only, so it takes (h1, h4, h5), as recipe
    C1.I does.  Square roots share intermediates, so the returned triple is
    one member of the valid simultaneous sign orbit (scale, l, m) ->
    (-scale, -l, -m).
    """
    return tuple(_class_row("BMW realization", _BMW_ROWS, class_id, params).values())


def class_hecke_params(class_id: int, params: dict) -> tuple[complex, complex]:
    """(scale, q) realizing the Hecke algebra for classes 3, 4, 5, 6, 8, 10, 11, 12."""
    return tuple(_class_row("Hecke realization", _HECKE_ROWS, class_id, params).values())


def class_jordan_coeffs(class_id: int, params: dict, variant: str = "") -> dict[int, complex]:
    """Coefficients of the operator identities replacing the algebra relations.

    Class 9 satisfies R^2 - h1 R - h1^2 + h1^3 R^-1 = 0.  Class 1 satisfies a
    cubic identity at h8 = -h1 ("muZ"), which takes (h1, h4, h5) as recipe
    C1.Z does, and a quartic one in general.
    """
    key = f"{class_id}.{variant}" if variant else class_id
    return _class_row("operator identity", _JORDAN_ROWS, key, params)
