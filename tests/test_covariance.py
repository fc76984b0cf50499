"""Verdicts are covariant: one table of (check, scaling) rows and one of
(check, symmetry) rows over the catalog.

Every catalog entry's constraints are homogeneous of degree one in its free
parameters, so scaling them by t scales R by t, and each recipe's x by t.
Every check below judges a residual against the size of its own terms, so a
verdict on one seeded draw of each entry (or recipe) holds at every t.  At
t = 10^100 and above a reported value (a residual, an invariant, the
entangling power) may leave the float range: there the check may raise
``OverflowError`` instead, except ``check_ybe`` and ``class_eigen_report``,
which report such a value as inf and so must keep their verdicts at every t.

The paper's symmetries, local Q x Q conjugation and the discrete moves 3a,
3b and 3c, map solutions to solutions and enhancements to enhancements, so
no verdict on a well-conditioned draw of an entry may change under them.
"""

import functools
import zlib

import numpy as np
import pytest

from braidgate.enhancement import RECIPES, _solve, instantiate_recipe
from braidgate.entangling_power import class_epower
from braidgate.hietarinta import conjugate, discrete_transform
from braidgate.invariants import (check_identities, class_eigen_report, identity_scale,
                                  quadratic_invariants, random_sl2)
from braidgate.matrix_core import DEFAULT_TOL
from braidgate.yang_baxter import CATALOG, assemble, check_ybe, lie_orbit_rank


def _params(entry_id: str, t: float, names=None) -> dict:
    """One seeded draw of the entry's free parameters, ``names`` of them
    (all by default), scaled by t."""
    entry = CATALOG[entry_id]
    draw = entry.random_params(np.random.default_rng(zlib.crc32(entry_id.encode())))
    return {k: t * draw[k] for k in names or entry.free_params}


def _ybe(entry_id, t):
    return check_ybe(assemble(CATALOG[entry_id].fill(_params(entry_id, t))))[1]


def _eigen(entry_id, t):
    return class_eigen_report(CATALOG[entry_id], _params(entry_id, t)).passed


def _epower(entry_id, t):
    return class_epower(CATALOG[entry_id], _params(entry_id, t))["passed"]


def _recipe(recipe_id, t):
    """The recipe at its entry's draw scaled by t; ``instantiate_recipe``
    raises unless the quadruple verifies."""
    recipe = RECIPES[recipe_id]
    instantiate_recipe(recipe_id, _params(recipe.entry_id, t, recipe.free_params))
    return True


_REPRESENTATIVES = [eid for eid, entry in CATALOG.items() if entry.variant_id == 0]
CHECKS = {
    "ybe": (_ybe, list(CATALOG)),
    "eigen_report": (_eigen, list(CATALOG)),
    "class_epower": (_epower, _REPRESENTATIVES),
    "recipe": (_recipe, sorted(RECIPES)),
}
IN_RANGE = (-150, -100, -50, -12, 0, 12, 50)
OUT_OF_RANGE = (100, 150)
# checks that report an out-of-range value as inf and never raise
NEVER_OVERFLOW = {"eigen_report", "ybe"}


@pytest.mark.parametrize("exponent", IN_RANGE + OUT_OF_RANGE)
@pytest.mark.parametrize("check", sorted(CHECKS))
def test_verdict_is_scale_free(check, exponent):
    run, items = CHECKS[check]
    failures = []
    for item in items:
        try:
            verdict = run(item, 10.0**exponent)
        except OverflowError:
            verdict = (exponent in OUT_OF_RANGE and check not in NEVER_OVERFLOW
                       or "OverflowError")
        except Exception as exc:  # a refusal of a valid input is a failure too
            verdict = f"{type(exc).__name__}: {exc}"
        if verdict is not True:
            failures.append((item, verdict))
    assert not failures, f"{check} at 1e{exponent}: {failures}"


def test_every_verdict_is_a_bool():
    entry_id = "C6.0"
    assert type(_ybe(entry_id, 1.0)) is bool
    assert type(_eigen(entry_id, 1.0)) is bool
    assert type(_epower(entry_id, 1.0)) is bool


@functools.cache
def _well_conditioned(entry_id: str) -> np.ndarray:
    """R at the entry's first seeded draw with 1-norm condition number < 10^3."""
    entry = CATALOG[entry_id]
    rng = np.random.default_rng(zlib.crc32(entry_id.encode()))
    for _ in range(1000):
        r = assemble(entry.fill(entry.random_params(rng)))
        if np.linalg.cond(r, 1) < 1e3:
            return r
    raise RuntimeError(f"no draw of {entry_id} has condition number < 1e3")


def _identities(r):
    scale = identity_scale(r)
    return all(v <= DEFAULT_TOL * scale for v in check_identities(quadratic_invariants(r)))


def _solver_points(r):
    return sorted((p["multiplicity"], p["outcome"]) for p in _solve(r, DEFAULT_TOL)[1])


SYMMETRY_CHECKS = {
    "ybe": lambda r: check_ybe(r)[1],
    "identities": _identities,
    "orbit_rank": lambda r: lie_orbit_rank(r)[0],
    "solver": _solver_points,
}
_Q = random_sl2(np.random.default_rng(0))
MOVES = {
    "conjugation": lambda r: conjugate(r, 1, _Q),
    **{move: functools.partial(discrete_transform, which=move) for move in ("3a", "3b", "3c")},
}


@pytest.mark.parametrize("move", sorted(MOVES))
@pytest.mark.parametrize("check", sorted(SYMMETRY_CHECKS))
def test_verdict_is_invariant_under_symmetry(check, move):
    run = SYMMETRY_CHECKS[check]
    failures = []
    for entry_id in CATALOG:
        r = _well_conditioned(entry_id)
        before, after = run(r), run(MOVES[move](r))
        if before != after:
            failures.append((entry_id, before, after))
    assert not failures, f"{check} under {move}: {failures}"
