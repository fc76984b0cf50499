"""The ten-family classification of constant 4x4 braiding operators.

Covers the family matrices ("H" forms), the moves that relate solutions
(transpose, index negation, factor swap, scaled conjugation by Q x Q or
Q1 x Q2), the verified per-variant equivalence recipes connecting every
catalog family to its H form, and the closed-form analyses of the two
non-X-patterned families H1,3 and H2,3.

Recipe semantics: assemble the source at ``source_params`` (expressions over
the recipe's base parameters), apply the steps in order, and compare with
the target assembled at ``target_params``.  Recipes form chains (variant ->
variant -> representative -> H form); :func:`classify` follows them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .enhancement import EnhancedOperator, verify_enhancement
from .matrix_core import (DEFAULT_TOL, PAULI_X, SingularMatrixError, _as_two_qubit, as_matrix,
                          invert, max_norm, tensor_product)
from .yang_baxter import CATALOG, assemble, bind, catalog_entry, evaluate_expr

__all__ = [
    "HIETARINTA_FORMS",
    "hietarinta_assemble",
    "permutation_convert",
    "discrete_transform",
    "conjugate",
    "conjugate_split",
    "EquivalenceRecipe",
    "RECIPE_TABLE",
    "verify_recipe",
    "classify",
    "rh_extras_report",
    "PERMUTATION",
]

PERMUTATION = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)

# family name -> (ordered parameter names, matrix builder)
HIETARINTA_FORMS: dict[str, tuple[tuple[str, ...], callable]] = {
    "H3,1": (("k", "p", "q", "s"), lambda k, p, q, s: np.array(
        [[k, 0, 0, 0], [0, 0, p, 0], [0, q, 0, 0], [0, 0, 0, s]], dtype=complex)),
    "H2,1": (("k", "p", "q"), lambda k, p, q: np.array(
        [[k * k, 0, 0, 0], [0, k * k - p * q, k * p, 0], [0, k * q, 0, 0],
         [0, 0, 0, k * k]], dtype=complex)),
    "H2,2": (("k", "p", "q"), lambda k, p, q: np.array(
        [[k * k, 0, 0, 0], [0, k * k - p * q, k * p, 0], [0, k * q, 0, 0],
         [0, 0, 0, -p * q]], dtype=complex)),
    "H2,3": (("k", "p", "q", "s"), lambda k, p, q, s: np.array(
        [[k, p, q, s], [0, 0, k, p], [0, k, 0, q], [0, 0, 0, k]], dtype=complex)),
    "H2,3'": (("k", "s"), lambda k, s: np.array(
        [[k, 0, 0, s], [0, 0, k, 0], [0, k, 0, 0], [0, 0, 0, k]], dtype=complex)),
    "H1,1": (("p", "q"), lambda p, q: np.array(
        [[p * p + 2 * p * q - q * q, 0, 0, p * p - q * q],
         [0, p * p - q * q, p * p + q * q, 0],
         [0, p * p + q * q, p * p - q * q, 0],
         [p * p - q * q, 0, 0, p * p - 2 * p * q - q * q]], dtype=complex)),
    "H1,2": (("k", "p", "q"), lambda k, p, q: np.array(
        [[p, 0, 0, k], [0, p - q, p, 0], [0, q, 0, 0], [0, 0, 0, -q]], dtype=complex)),
    "H1,3": (("k", "p", "q"), lambda k, p, q: np.array(
        [[k * k, -k * p, k * p, p * q], [0, 0, k * k, k * q],
         [0, k * k, 0, -k * q], [0, 0, 0, k * k]], dtype=complex)),
    "H1,4": (("k", "p", "q"), lambda k, p, q: np.array(
        [[0, 0, 0, p], [0, k, 0, 0], [0, 0, k, 0], [q, 0, 0, 0]], dtype=complex)),
    "H0,1": ((), lambda: np.array(
        [[1, 0, 0, 1], [0, 0, -1, 0], [0, -1, 0, 0], [0, 0, 0, 1]], dtype=complex)),
    "H0,2": ((), lambda: np.array(
        [[1, 0, 0, 1], [0, 1, 1, 0], [0, -1, 1, 0], [-1, 0, 0, 1]], dtype=complex)),
}


def hietarinta_assemble(name: str, params: dict | None = None) -> np.ndarray:
    """Build one of the family matrices at the given parameter values."""
    if name not in HIETARINTA_FORMS:
        raise KeyError(f"unknown family {name!r}; known: {sorted(HIETARINTA_FORMS)}")
    names, builder = HIETARINTA_FORMS[name]
    return builder(*bind(name, names, params or {}).values())


def permutation_convert(r) -> np.ndarray:
    """P R converts algebraic-equation solutions to braided ones and back:
    P is an involution, so one product serves both directions."""
    return PERMUTATION @ as_matrix(r)


# Moves 3b and 3c conjugate by constant involutions: X x X negates every
# index, and PERMUTATION swaps the two tensor factors.
_INVOLUTIONS = {"3b": tensor_product(PAULI_X, PAULI_X), "3c": PERMUTATION}


def discrete_transform(r, which: str) -> np.ndarray:
    """One of the three discrete solution-to-solution moves.

    "3a" transposes, "3b" negates all indices (conjugation by X x X), and
    "3c" swaps the two tensor factors on rows and columns simultaneously
    (conjugation by :data:`PERMUTATION`).
    """
    r = _as_two_qubit(r)
    if which == "3a":
        return r.T.copy()
    if which in _INVOLUTIONS:
        s = _INVOLUTIONS[which]
        return s @ r @ s
    raise ValueError(f"unknown transform {which!r} (expected 3a, 3b, or 3c)")


def conjugate(r, kappa, q) -> np.ndarray:
    """kappa (Q x Q) R (Q x Q)^-1, the continuous solution-preserving move."""
    return complex(kappa) * conjugate_split(r, q, q)


def conjugate_split(r, q1, q2) -> np.ndarray:
    """(Q1 x Q2) R (Q1 x Q2)^-1 with independent one-qubit factors; an R that
    is not 4x4 or a factor that is not 2x2 raises ``ValueError``."""
    if np.shape(q1) != (2, 2) or np.shape(q2) != (2, 2):
        raise ValueError(
            f"expected 2x2 one-qubit factors, got shapes {np.shape(q1)} and {np.shape(q2)}")
    qq = tensor_product(q1, q2)
    return qq @ _as_two_qubit(r) @ invert(qq)


# ---------------------------------------------------------------------------
# Equivalence recipes (the appendix table, one record per printed relation)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EquivalenceRecipe:
    """One verified equivalence: steps(source(params)) == target(params).

    ``base_params`` names the independent parameters, exactly the ones
    :meth:`run` takes: the free parameters of the catalog side (the source
    if it is a catalog entry, else the target), derived once when the record
    is made.  ``source_params`` and ``target_params`` give each
    side's parameters as expressions over them; ``None`` passes the base
    parameters through unchanged.  Steps are tuples:
    ("3a",), ("3b",), ("3c",), ("conj", kappa_expr, ((q11, q12), (q21, q22))),
    or ("conj2", q1_rows, q2_rows), with all entries expressions over the
    base parameters.
    """

    source: str
    target: str
    steps: tuple[tuple, ...] = ()
    source_params: dict[str, str] | None = None
    target_params: dict[str, str] | None = None
    base_params: tuple[str, ...] = field(init=False)

    def __post_init__(self):
        side = self.source if self.source in CATALOG else self.target
        object.__setattr__(self, "base_params", catalog_entry(side).free_params)

    def _materialize(self, side: str, exprs: dict[str, str] | None, base: dict):
        name = self.source if side == "source" else self.target
        values = (
            {k: evaluate_expr(v, base) for k, v in exprs.items()}
            if exprs is not None
            else dict(base)
        )
        if name in HIETARINTA_FORMS:
            return hietarinta_assemble(name, values)
        return assemble(catalog_entry(name).fill(values))

    def run(self, base: dict) -> tuple[np.ndarray, np.ndarray]:
        """Return (transformed source, target) matrices at the base values."""
        base = bind(f"the {self.source} -> {self.target} recipe", self.base_params, base)
        m = self._materialize("source", self.source_params, base)
        for step in self.steps:
            kind = step[0]
            if kind in ("3a", "3b", "3c"):
                m = discrete_transform(m, kind)
            elif kind in ("conj", "conj2"):
                # ("conj", kappa, Q) is kappa times ("conj2", Q, Q)
                kappa = evaluate_expr(step[1], base) if kind == "conj" else 1
                qs = [np.array([[evaluate_expr(e, base) for e in row] for row in rows])
                      for rows in step[1 + (kind == "conj"):]]
                m = kappa * conjugate_split(m, qs[0], qs[-1])
            else:
                raise ValueError(f"unknown step {step!r}")
        return m, self._materialize("target", self.target_params, base)


def verify_recipe(recipe: EquivalenceRecipe, base: dict) -> float:
    """Elementwise max-norm difference after executing all steps."""
    got, want = recipe.run(base)
    return max_norm(got - want)


# lam+ of class 6, in both the conjugation and the H1,1 parameters below
_C6_LAM_P = "(h1+h8+sqrt(2*(h1**2+h8**2)))/2"

RECIPE_TABLE: tuple[EquivalenceRecipe, ...] = (
    EquivalenceRecipe("C1.0", "H3,1", target_params={"k": "h1", "p": "h4", "q": "h5", "s": "h8"}),
    EquivalenceRecipe("C2.0", "H1,4", target_params={"k": "h3", "p": "h2", "q": "h7"}),

    EquivalenceRecipe("C3.0", "H1,2", steps=(("3b",),),
                      target_params={"k": "h7", "p": "h8", "q": "-h1"}),
    EquivalenceRecipe("C3.1", "C3.0", steps=(("3b",), ("3c",), ("3a",)),
                      target_params={"h1": "h8", "h8": "h1", "h7": "h7"}),
    EquivalenceRecipe("C3.2", "C3.0", steps=(("3b",), ("3c",)),
                      target_params={"h1": "h8", "h8": "h1", "h7": "h2"}),
    EquivalenceRecipe("C3.3", "C3.0", steps=(("3a",),),
                      target_params={"h1": "h1", "h8": "h8", "h7": "h2"}),
    # the printed step for C3.4 is (3b); only (3c) lands on C3.3
    EquivalenceRecipe("C3.4", "C3.3", steps=(("3c",),)),
    EquivalenceRecipe("C3.5", "C3.1", steps=(("3a",), ("3c",)),
                      target_params={"h1": "h1", "h8": "h8", "h7": "h2"}),
    EquivalenceRecipe("C3.6", "C3.1", steps=(("3c",),)),
    EquivalenceRecipe("C3.7", "C3.0", steps=(("3c",),)),

    EquivalenceRecipe("C4.0", "H2,1", steps=(("3c",),),
                      target_params={"k": "sqrt(h1)", "p": "sqrt(h1)/h4*(h1-h6)",
                                     "q": "h4/sqrt(h1)"}),
    EquivalenceRecipe("C4.1", "C4.0", steps=(("3a",), ("3c",)),
                      target_params={"h1": "h1", "h4": "h4", "h6": "h3"}),
    EquivalenceRecipe("C5.0", "H2,2", steps=(("3c",),),
                      target_params={"k": "sqrt(h1)", "p": "sqrt(h1)/h4*(h1-h6)",
                                     "q": "h4/sqrt(h1)"}),
    EquivalenceRecipe("C5.1", "C5.0", steps=(("3a",), ("3c",)),
                      target_params={"h1": "h1", "h4": "h4", "h6": "h3"}),

    # Class 6 <- H1,1 at p = (h1-h8)/2, q = -lam+ (the printed p = (h1+h8)/2
    # fails the diagonal equations; see the project notes)
    EquivalenceRecipe("H1,1", "C6.0",
                      steps=(("conj", f"-1/(2*({_C6_LAM_P}))",
                              (("sqrt(2*h2)", "0"), ("0", "sqrt(h1+h8)"))),),
                      source_params={"p": "(h1-h8)/2", "q": f"-({_C6_LAM_P})"}),
    EquivalenceRecipe("C6.1", "C6.0",
                      steps=(("conj", "-1", (("1", "0"), ("0", "1"))),),
                      target_params={"h1": "-h1", "h2": "-h2", "h8": "-h8"}),

    EquivalenceRecipe("H1,4", "C7.0",
                      steps=(("conj", "1",
                              (("I*sqrt(h2)", "-I*sqrt(h2)"), ("sqrt(h3)", "sqrt(h3)"))),),
                      source_params={"k": "h1+h3", "p": "h1-h3", "q": "h1-h3"}),
    EquivalenceRecipe("H3,1", "C7.1",
                      steps=(("conj", "1",
                              (("sqrt(h2)", "-sqrt(h2)"), ("sqrt(h3)", "sqrt(h3)"))),),
                      source_params={"k": "h1+h3", "p": "h1-h3", "q": "h1-h3", "s": "h1+h3"}),
    EquivalenceRecipe("C7.0", "C7.1",
                      steps=(("conj2", (("1", "0"), ("0", "-I")), (("1", "0"), ("0", "I"))),)),

    EquivalenceRecipe("H0,2", "C8.0",
                      steps=(("conj", "h1", (("0", "I*sqrt(h2)"), ("sqrt(h1)", "0"))),),
                      source_params={}),
    EquivalenceRecipe("C8.1", "C8.0", steps=(("3c",),)),

    EquivalenceRecipe("H0,1", "C9.0",
                      steps=(("conj", "h1", (("sqrt(h7)", "0"), ("0", "sqrt(h1)"))),
                             ("3a",)),
                      source_params={}),
    EquivalenceRecipe("C9.1", "C9.0", steps=(("3a",),), target_params={"h1": "h1", "h7": "h2"}),
    EquivalenceRecipe("C9.2", "H2,3'", steps=(("3a",),), target_params={"k": "h1", "s": "h7"}),
    EquivalenceRecipe("C9.3", "C9.2", steps=(("3a",),), target_params={"h1": "h1", "h7": "h2"}),
    EquivalenceRecipe("C9.0", "C9.2",
                      steps=(("conj2", (("1", "0"), ("0", "-I")), (("1", "0"), ("0", "I"))),)),

    EquivalenceRecipe("C10.0", "H1,2", steps=(("3b",),),
                      target_params={"k": "h7", "p": "-h1", "q": "-h1"}),
    EquivalenceRecipe("C10.1", "C10.0", steps=(("3a",),), target_params={"h1": "h1", "h7": "h2"}),
    EquivalenceRecipe("C10.2", "C10.0", steps=(("3b",), ("3a",)),
                      target_params={"h1": "-h1", "h7": "h7"}),
    EquivalenceRecipe("C10.3", "C10.2", steps=(("3a",),), target_params={"h1": "h1", "h7": "h2"}),

    EquivalenceRecipe("C11.0", "H1,2", steps=(("3a",),),
                      target_params={"k": "h7", "p": "h8", "q": "-h8"}),
    EquivalenceRecipe("C11.1", "C11.0", steps=(("3b",), ("3c",)),
                      target_params={"h8": "h8", "h7": "h2"}),
    EquivalenceRecipe("C11.2", "C11.1", steps=(("3a",),), target_params={"h8": "h8", "h2": "h7"}),
    EquivalenceRecipe("C11.3", "C11.0", steps=(("3a",),), target_params={"h8": "h8", "h7": "h2"}),
    EquivalenceRecipe("C11.4", "C11.2", steps=(("3c",),), target_params={"h8": "h1", "h7": "h7"}),
    EquivalenceRecipe("C11.5", "C11.3", steps=(("3c",),), target_params={"h8": "h1", "h2": "h2"}),
    EquivalenceRecipe("C11.6", "C11.0", steps=(("3c",),), target_params={"h8": "h1", "h7": "h7"}),
    EquivalenceRecipe("C11.7", "C11.1", steps=(("3c",),), target_params={"h8": "h1", "h2": "h2"}),

    EquivalenceRecipe("H1,1", "C12.0",
                      steps=(("conj", "h1/(2*(1+I))",
                              (("sqrt((1+I)*h2)", "0"), ("0", "-sqrt(h1)"))),),
                      source_params={"p": "1", "q": "I"}),
    # direction-consistent relabel: transforming the variant gives the
    # representative at h1 -> i h1
    EquivalenceRecipe("C12.1", "C12.0", steps=(("3a",), ("3b",)),
                      target_params={"h1": "I*h1", "h2": "h2"}),
)


def _family_steps() -> dict[str, tuple[str, tuple[str, str, tuple[str, ...]]]]:
    """Each catalog entry's next step toward its H family, as (next name,
    (source, target, moves)).  A recipe from a family into the entry,
    reversed, wins; otherwise the entry's first recipe with no split
    (Q1 x Q2) conjugation, which relates operators across H families and is
    not a family-preserving move."""
    steps = {}
    for r_ in RECIPE_TABLE:
        if r_.source in HIETARINTA_FORMS:
            steps[r_.target] = (r_.source, (r_.source, r_.target, ("conjugation (reversed)",)))
        elif all(step[0] != "conj2" for step in r_.steps):
            steps.setdefault(r_.source, (r_.target, (r_.source, r_.target,
                                                     tuple(step[0] for step in r_.steps))))
    return steps


_FAMILY_STEPS = _family_steps()


def classify(entry_id: str) -> dict:
    """Resolve a catalog entry to its H family by following recipe chains."""
    current = catalog_entry(entry_id).entry_id  # validates the id
    chain: list[dict] = []
    while current not in HIETARINTA_FORMS:
        if current not in _FAMILY_STEPS:
            raise KeyError(f"no stored recipe covers {current}")
        if len(chain) == len(_FAMILY_STEPS):  # a longer chain repeats an entry
            raise RuntimeError(f"the recipe chain from {entry_id} does not terminate")
        current, (source, target, moves) = _FAMILY_STEPS[current]
        chain.append({"source": source, "target": target, "moves": list(moves)})
    return {"entry": entry_id, "family": current, "chain": chain}


# ---------------------------------------------------------------------------
# The two non-X families (closed-form report)
# ---------------------------------------------------------------------------

def rh_extras_report(which: str, params: dict, tol: float = DEFAULT_TOL) -> dict:
    """Closed-form invariants, enhancement, link values, and entangling power
    for the families H1,3 and H2,3, ready to compare against direct module
    computation.

    ``SingularMatrixError`` is raised when R is singular by the condition
    number rule of :func:`~braidgate.matrix_core.invert`; det R is -k^8
    (H1,3) or -k^4 (H2,3), so that is k = 0 relative to the other entries,
    and a scaled-down operator is accepted as it is at scale 1.
    """
    if which not in ("H1,3", "H2,3"):
        raise ValueError("which must be 'H1,3' or 'H2,3'")
    p = bind(which, HIETARINTA_FORMS[which][0], params)
    r = hietarinta_assemble(which, p)
    try:
        r_inv = invert(r)
    except SingularMatrixError as exc:
        raise SingularMatrixError(f"{which} requires k != 0: {exc}") from None
    # both families have class 9's spectrum: lam three times and -lam once
    if which == "H1,3":
        k, pp, q = p.values()
        lam = k**2
        mu = np.eye(2, dtype=complex) - (pp + q) / (2 * k) * np.array(
            [[0, 2], [0, 0]], dtype=complex)  # X + iY = [[0, 2], [0, 0]]
        extras = {"entangling_power": abs(k) ** 4 * abs(pp + q) ** 2
                  * (abs(k) ** 2 + abs(q) ** 2) / 9,
                  "hecke": {"scale": 1 / lam, "q": 1.0}}
    else:
        k, pp, q, s = p.values()
        lam = k
        mu = np.eye(2, dtype=complex)
        extras = {"entangling_power": abs(k * s - pp * q) ** 2 / 9,
                  "jordan": {2: 1, 1: -k, 0: -(k**2), -1: k**3}}
    out = {
        "family": which,
        "matrix": r,
        "invariants": {"I1": 2 * lam, "I2_4": -2 * lam**2, "I2_5": -2 * lam**2,
                       "I2_8": 4 * lam**2, "I2_9": 2 * lam**2, "I2_10": 2 * lam**2},
        "eigenvalues": {"value": lam, "multiplicities": (3, 1)},
        **extras,
    }
    # enhanceable exactly when (mu, x = lam, y = 1) passes verify_enhancement
    # at tol, which judges each condition against its own scale
    candidate = EnhancedOperator(R=r, mu=mu, x=lam, y=1.0, r_inv=r_inv)
    out["enhanceable"] = verify_enhancement(candidate, tol)[1]
    if out["enhanceable"]:
        out["enhanced"] = candidate
        out["link_values"] = {"even": 4.0, "odd": 2.0}
    return out
