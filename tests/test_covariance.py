"""Verdicts are scale-free: one table of (check, scaling) rows over the catalog.

Every catalog entry's constraints are homogeneous of degree one in its free
parameters, so scaling them by t scales R by t, and each recipe's x by t.
Every check below judges a residual against the size of its own terms, so a
verdict on one seeded draw of each entry (or recipe) holds at every t.  At
t = 10^100 and above a reported value (a residual, an invariant, the
entangling power) may leave the float range: there the check may raise
``OverflowError`` instead, except ``class_eigen_report``, which reports such
a dependence residual as inf and so must keep its verdict at every t.
"""

import zlib

import numpy as np
import pytest

from braidgate.enhancement import RECIPES, instantiate_recipe
from braidgate.entangling_power import class_epower
from braidgate.invariants import class_eigen_report
from braidgate.yang_baxter import CATALOG, assemble, check_ybe


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
NEVER_OVERFLOW = {"eigen_report"}


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
