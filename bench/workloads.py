"""The four benchmark workloads: input generators, operations and checks.

Every input is generated here from ``numpy`` random streams keyed by
``(seed, op index)``, so braidgate receives only finished inputs and the same
seed always gives the same operations.  Each operation calls public
functions of the six library modules through their module objects (never
through names bound at import time), so the tracer's rebinding reaches them.

Checks run outside the timed region and recompute what they compare with
the benchmark's own numpy code (or with the library's independent literal
oracle), never by calling the timed function again.  Tolerances are relative
to a stated scale of the quantity compared.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from braidgate import (
    enhancement,
    entangling_power,
    hietarinta,
    invariants,
    matrix_core,
    yang_baxter,
)

TOL = 1e-9
# The library judges enhancements at 1e-9 with its own rounding; the
# benchmark recomputes the conditions in another order, so it allows 10x.
ENH_TOL = 1e-8
WARMUP_SEED = 2**32 - 1
HERE = os.path.dirname(os.path.abspath(__file__))
LINK_REFERENCE = os.path.join(HERE, "link_eval_reference.json")
DEFAULT_SEED = 0

I2 = np.eye(2, dtype=complex)
EPS = np.array([[0, 1], [-1, 0]], dtype=complex)


class CheckFailed(Exception):
    """An operation's output disagrees with the benchmark's own computation."""


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _rng(seed: int, i: int) -> np.random.Generator:
    return np.random.default_rng([seed, i])


def _cnormal(rng: np.random.Generator, names) -> dict[str, complex]:
    return {k: complex(rng.normal(), rng.normal()) for k in names}


def _maxabs(m) -> float:
    return float(np.max(np.abs(m)))


@dataclass(frozen=True)
class Workload:
    name: str
    cycle: int  # ops per cycle; timed runs stop on a whole cycle
    make_input: Callable[[int, int], dict]
    run: Callable[[dict], dict]
    check: Callable[[int, int, dict, dict], None]
    warmup_ops: tuple[int, ...]  # op indices run (at WARMUP_SEED) before timing
    trace_ops: int  # fixed op count of a traced run, so call counts repeat


# ---------------------------------------------------------------------------
# Own reference computations
# ---------------------------------------------------------------------------

def own_partial_trace2(m4: np.ndarray) -> np.ndarray:
    """tr_2 of a 4x4 operator: out[i, j] = sum_k m[(i k), (j k)]."""
    return np.trace(m4.reshape(2, 2, 2, 2), axis1=1, axis2=3)


def check_enhancement(e, what: str) -> None:
    """Conditions (a)-(c) of a Turaev enhancement, judged like the library.

    Scales: |R| |mu|^2 for (a), plus |x y| |mu| for (b) and |y / x| |mu| for
    (c), each at least 1.
    """
    r = np.asarray(e.R)
    mu = np.asarray(e.mu)
    x, y = complex(e.x), complex(e.y)
    _require(np.isfinite(x) and np.isfinite(y) and x != 0 and y != 0, f"{what}: x or y degenerate")
    r_inv = np.linalg.inv(r)
    mm = np.kron(mu, mu)
    mu_n = _maxabs(mu)
    res_a = _maxabs(r @ mm - mm @ r)
    res_b = _maxabs(own_partial_trace2(r @ mm) - x * y * mu)
    res_c = _maxabs(own_partial_trace2(r_inv @ mm) - y / x * mu)
    scale_a = max(1.0, _maxabs(r) * mu_n**2)
    scale_b = max(scale_a, abs(x * y) * mu_n)
    scale_c = max(1.0, _maxabs(r_inv) * mu_n**2, abs(y / x) * mu_n)
    _require(res_a <= ENH_TOL * scale_a, f"{what}: condition (a) residual {res_a:.3e}")
    _require(res_b <= ENH_TOL * scale_b, f"{what}: condition (b) residual {res_b:.3e}")
    _require(res_c <= ENH_TOL * scale_c, f"{what}: condition (c) residual {res_c:.3e}")


def _apply(g: np.ndarray, t: np.ndarray, gen: int) -> np.ndarray:
    """Apply a 4x4 operator to the row axes of strands gen, gen + 1 of t."""
    out = np.tensordot(g.reshape(2, 2, 2, 2), t, axes=([2, 3], [gen - 1, gen]))
    return np.moveaxis(out, [0, 1], [gen - 1, gen])


def own_link_value(r, mu, x, y, letters, strands) -> tuple[complex, float]:
    """L(w) by applying each letter's 4x4 power locally to mu^(x n), and the
    tolerance for comparing it with another float64 evaluation.

    The tolerance is TOL times |x^-writhe y^-n| times the sum of the moduli of
    the diagonal terms the trace adds up, plus the first-order rounding bound
    of a dense evaluation: (sum of |exponents| + 2) 2^(n+1) eps times the same trace
    taken over the entrywise moduli of every factor.  The second term is what
    an ill-conditioned draw (a small x, a nearly singular R) needs.
    """
    r = np.asarray(r)
    mu = np.asarray(mu)
    r_inv = np.linalg.inv(r)
    mun, mun_abs = mu, np.abs(mu)
    for _ in range(strands - 1):
        mun, mun_abs = np.kron(mun, mu), np.kron(mun_abs, np.abs(mu))
    shape = (2,) * strands + (2**strands,)
    t, t_abs = mun.reshape(shape), mun_abs.reshape(shape)
    for gen, exp in reversed(letters):
        base = r if exp > 0 else r_inv
        t = _apply(np.linalg.matrix_power(base, abs(exp)), t, gen)
        t_abs = _apply(np.linalg.matrix_power(np.abs(base), abs(exp)), t_abs, gen)
    dim = 2**strands
    diag = np.diagonal(t.reshape(dim, dim))
    diag_abs = np.diagonal(t_abs.reshape(dim, dim))
    pref = complex(x) ** (-sum(e for _, e in letters)) * complex(y) ** (-strands)
    factors = sum(abs(e) for _, e in letters) + 2
    rounding = factors * 2 * dim * np.finfo(float).eps * diag_abs.sum()
    tol = abs(pref) * (TOL * np.abs(diag).sum() + rounding)
    return complex(pref * diag.sum()), float(tol)


def haar_epower(r: np.ndarray) -> tuple[float, float]:
    """Entangling power as a Haar fourth moment, and its scale.

    M = R^T (eps x eps) R; e_P = (2 |M|_F^2 + 2 Re <M, M^G>) / 144, where G
    swaps the second-qubit row and column indices.  The scale |R|_F^4 / 36
    bounds e_P from above.
    """
    m = r.T @ np.kron(EPS, EPS) @ r
    m_g = m.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
    value = (2 * np.vdot(m, m).real + 2 * np.vdot(m, m_g).real) / 144
    return float(value), float(np.linalg.norm(r) ** 4 / 36)


# ---------------------------------------------------------------------------
# catalog_report: the report-all pipeline on one catalog entry per op
# ---------------------------------------------------------------------------

CATALOG_IDS = tuple(yang_baxter.CATALOG)
INVARIANT_IDS = ("I1",) + tuple(f"I2_{k}" for k in range(1, 11))
# the equivalence recipe the `classify --params` command checks for each entry
ENTRY_RECIPE = {
    eid: next(r for r in hietarinta.RECIPE_TABLE if r.source == eid or r.target == eid)
    for eid in CATALOG_IDS
}


def catalog_input(seed: int, i: int) -> dict:
    return {"entry": CATALOG_IDS[i % len(CATALOG_IDS)], "rng": _rng(seed, i)}


def catalog_run(inp: dict) -> dict:
    entry = yang_baxter.CATALOG[inp["entry"]]
    params = entry.random_params(inp["rng"])
    r = yang_baxter.assemble(entry.fill(params))
    out = {"params": params, "r": r, "ybe": yang_baxter.check_ybe(r)}
    inv = invariants.quadratic_invariants(r)
    out["invariants"] = inv
    out["identities"] = invariants.check_identities(inv)
    out["eigen"] = invariants.class_eigen_report(entry, params)
    if entry.variant_id == 0:
        out["epower"] = entangling_power.class_epower(entry, params)
        out["enhanced"] = [
            enhancement.instantiate_recipe(
                rid, {k: params[k] for k in enhancement.RECIPES[rid].free_params})
            for rid in entry.enhancement_refs
        ]
    out["family"] = hietarinta.classify(entry.entry_id)["family"]
    recipe = ENTRY_RECIPE[entry.entry_id]
    out["recipe_residual"] = hietarinta.verify_recipe(
        recipe, {k: params[k] for k in recipe.base_params})
    return out


def catalog_check(seed: int, i: int, inp: dict, out: dict) -> None:
    r = out["r"]
    rmax = max(1.0, _maxabs(r))
    a, b = np.kron(r, I2), np.kron(I2, r)
    ybe = _maxabs(a @ b @ a - b @ a @ b)
    _require(ybe <= TOL * rmax**3, f"own YBE residual {ybe:.3e}")
    _require(bool(out["ybe"][1]), "check_ybe verdict false")
    inv = out["invariants"]
    values = (inv.I1,) + tuple(inv.I2)
    # each quadratic invariant sums at most 16 products of two entries
    scale2 = 16 * rmax**2
    for name, value in zip(INVARIANT_IDS, values):
        ref = invariants.contraction_oracle(r, name)
        scale = 4 * rmax if name == "I1" else scale2
        _require(abs(value - ref) <= TOL * scale, f"{name} differs from the contraction oracle")
    _require(max(out["identities"]) <= TOL * scale2, "invariant identity residual")
    _require(bool(out["eigen"].passed), "class eigen report failed")
    if "epower" in out:
        _require(bool(out["epower"]["passed"]), "class entangling power failed")
        for e in out["enhanced"]:
            check_enhancement(e, f"recipe {e.recipe_id}")
    _require(out["family"] in hietarinta.HIETARINTA_FORMS, f"unknown family {out['family']}")
    _require(out["recipe_residual"] <= TOL * rmax, f"recipe residual {out['recipe_residual']:.3e}")


# ---------------------------------------------------------------------------
# enhance_solve: multi-start enhancement solver
# ---------------------------------------------------------------------------

SOLVER_STARTS = 2
SOLVER_TARGETS = ("C2.0", "C6.0", "C11.0", "H2,3")
H23_PARAMS = ("k", "p", "q", "s")


def enhance_input(seed: int, i: int) -> dict:
    rng = _rng(seed, i)
    target = SOLVER_TARGETS[i % len(SOLVER_TARGETS)]
    names = H23_PARAMS if target == "H2,3" else yang_baxter.CATALOG[target].free_params
    return {"target": target, "params": _cnormal(rng, names),
            "solver_seed": int(rng.integers(2**31))}


def enhance_run(inp: dict) -> dict:
    if inp["target"] == "H2,3":
        r = hietarinta.hietarinta_assemble("H2,3", inp["params"])
    else:
        r = yang_baxter.assemble(yang_baxter.CATALOG[inp["target"]].fill(inp["params"]))
    families = enhancement.solve_enhancement(r, starts=SOLVER_STARTS, seed=inp["solver_seed"])
    return {"r": r, "families": families}


def enhance_check(seed: int, i: int, inp: dict, out: dict) -> None:
    if inp["target"] == "H2,3":
        # generic H2,3 (p + q != 0) has no enhancement
        _require(not out["families"], "enhancement reported for generic H2,3")
    for k, e in enumerate(out["families"]):
        _require(np.array_equal(e.R, out["r"]), f"family {k} carries another operator")
        check_enhancement(e, f"family {k}")


# ---------------------------------------------------------------------------
# link_eval: link polynomials and Markov checks of random braid words
# ---------------------------------------------------------------------------

FORMULA_RECIPES = tuple(rid for rid, rc in enhancement.RECIPES.items()
                        if rc.link_behavior == "formula")
# One cycle visits 3..9 strands.  Markov checks take the 3- and 5-strand
# slots: stabilization adds a strand, so they stay at 6 strands or fewer, and
# with one op per slot the median falls inside the 5-strand Markov group and
# p90 inside the 9-strand group, never on a boundary between two groups.
LINK_SLOTS = ((3, "markov"), (4, "link"), (5, "markov"), (6, "link"),
              (7, "link"), (8, "link"), (9, "link"))
REFERENCE_OPS = 2 * len(LINK_SLOTS)


def random_word(rng: np.random.Generator, strands: int) -> tuple[tuple[int, int], ...]:
    """3 letters per strand with |exponent| pattern 1, 1, 2 in random order.

    Adjacent letters use different generators, so no letters merge and the
    cost depends only on the strand count.
    """
    mags = np.array([1, 1, 2] * strands)
    rng.shuffle(mags)
    letters, prev = [], 0
    for mag in mags:
        gen = prev
        while gen == prev:
            gen = int(rng.integers(1, strands))
        prev = gen
        letters.append((gen, int(mag) * int(rng.choice([-1, 1]))))
    return tuple(letters)


def link_input(seed: int, i: int) -> dict:
    rng = _rng(seed, i)
    strands, kind = LINK_SLOTS[i % len(LINK_SLOTS)]
    rid = FORMULA_RECIPES[i % len(FORMULA_RECIPES)]
    inp = {"kind": kind, "recipe": rid, "strands": strands,
           "params": _cnormal(rng, enhancement.RECIPES[rid].free_params),
           "word": yang_baxter.BraidWord(strands, random_word(rng, strands))}
    if kind == "markov":
        conj = tuple((int(rng.integers(1, strands)), int(rng.choice([-2, -1, 1, 2])))
                     for _ in range(3))
        inp["conjugator"] = yang_baxter.BraidWord(strands, conj)
        inp["sign_seed"] = int(rng.integers(2**31))
        inp["sign_rng"] = np.random.default_rng(inp["sign_seed"])
    return inp


def link_run(inp: dict) -> dict:
    e = enhancement.instantiate_recipe(inp["recipe"], inp["params"])
    if inp["kind"] == "link":
        return {"e": e, "value": enhancement.link_polynomial(e, inp["word"])}
    residuals = enhancement.markov_check(e, inp["word"], conjugator=inp["conjugator"],
                                         rng=inp["sign_rng"])
    return {"e": e, "residuals": residuals}


def _load_reference() -> dict:
    with open(LINK_REFERENCE) as fh:
        return json.load(fh)


def link_check(seed: int, i: int, inp: dict, out: dict) -> None:
    e = out["e"]
    check_enhancement(e, inp["recipe"])
    n = inp["strands"]
    word = inp["word"].letters
    value, tol = own_link_value(e.R, e.mu, e.x, e.y, word, n)
    if inp["kind"] == "link":
        got = out["value"]
        _require(abs(got - value) <= tol, f"link value differs by {abs(got - value):.3e}")
    else:
        # each residual compares two library evaluations, so both tolerances add
        conj = inp["conjugator"].letters
        inverse = tuple((g, -k) for g, k in reversed(conj))
        _, conj_tol = own_link_value(e.R, e.mu, e.x, e.y, conj + word + inverse, n)
        sign = 1 if np.random.default_rng(inp["sign_seed"]).random() < 0.5 else -1
        _, wide_tol = own_link_value(e.R, e.mu, e.x, e.y, word + ((n, sign),), n + 1)
        res_conj, res_stab = out["residuals"]
        _require(res_conj <= tol + conj_tol, f"conjugation residual {res_conj:.3e}")
        _require(res_stab <= tol + wide_tol, f"stabilization residual {res_stab:.3e}")
    if seed == DEFAULT_SEED and i < REFERENCE_OPS:
        # link ops compare the library's value; Markov ops the base word's
        # value under the enhancement the library instantiated
        got = out["value"] if inp["kind"] == "link" else value
        ref = complex(*_load_reference()["values"][i])
        _require(abs(got - ref) <= tol, f"op {i} differs from the recorded reference")


# ---------------------------------------------------------------------------
# epower_scan: what `braidgate epower` computes
# ---------------------------------------------------------------------------

def epower_input(seed: int, i: int) -> dict:
    rng = _rng(seed, i)
    if i % 2 == 0:
        return {"kind": "dense",
                "matrix": rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))}
    if i % 4 == 1:
        eid = CATALOG_IDS[int(rng.integers(len(CATALOG_IDS)))]
        return {"kind": "catalog", "entry": eid,
                "params": _cnormal(rng, yang_baxter.CATALOG[eid].free_params)}
    return {"kind": "unitary", "radii": tuple(rng.uniform(size=2)),
            "phases": tuple(rng.uniform(0, 2 * np.pi, size=6))}


def epower_run(inp: dict) -> dict:
    if inp["kind"] == "dense":
        r = inp["matrix"]
    elif inp["kind"] == "catalog":
        r = yang_baxter.assemble(yang_baxter.CATALOG[inp["entry"]].fill(inp["params"]))
    else:
        r = yang_baxter.assemble(entangling_power.unitary_xtype(*inp["radii"], *inp["phases"]))
    out = {"r": r, "quadrature": entangling_power.entangling_power_quadrature(r)}
    if matrix_core.is_xtype(r):
        out["closed"] = entangling_power.entangling_power_closed(r)
        out["difference"] = abs(out["closed"] - out["quadrature"])
    return out


def epower_check(seed: int, i: int, inp: dict, out: dict) -> None:
    value, scale = haar_epower(np.asarray(out["r"]))
    quad = out["quadrature"]
    _require(abs(quad - value) <= TOL * scale, f"quadrature differs by {abs(quad - value):.3e}")
    _require(("closed" in out) == (inp["kind"] != "dense"), "X-type detection")
    if "closed" in out:
        _require(abs(out["closed"] - value) <= TOL * scale, "closed form differs")
        _require(out["difference"] <= TOL * scale, "closed-vs-quadrature difference")


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("catalog_report", len(CATALOG_IDS), catalog_input, catalog_run,
                 catalog_check, tuple(range(len(CATALOG_IDS))), 30 * len(CATALOG_IDS)),
        Workload("enhance_solve", len(SOLVER_TARGETS), enhance_input, enhance_run,
                 enhance_check, (0,), 15 * len(SOLVER_TARGETS)),
        Workload("link_eval", len(LINK_SLOTS), link_input, link_run, link_check,
                 (0, 1), 6 * len(LINK_SLOTS)),
        Workload("epower_scan", 4, epower_input, epower_run, epower_check,
                 (0, 1, 2, 3), 60 * 4),
    )
}
