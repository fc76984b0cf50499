"""Acceptance suite: one test per criterion, printed as a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Two textbook-adjacent claims are provably unattainable (each xfail reason
states the obstruction); they are carried as strict xfails right below the
criterion they belong to, so the suite records them without faking green.
README's "Corrections" section collects the arguments.
"""

import numpy as np
import pytest

from braidgate.enhancement import (
    RECIPES,
    bmw_witness,
    class_bmw_params,
    class_hecke_params,
    class_jordan_coeffs,
    hecke_witness,
    instantiate_recipe,
    jordan_witness,
    link_polynomial,
    markov_check,
    solve_enhancement,
    verify_enhancement,
)
from braidgate.entangling_power import (
    class_epower,
    entangling_power_closed,
    entangling_power_quadrature,
    state_action_rank,
    unitary_xtype,
)
from braidgate.hietarinta import (
    HIETARINTA_FORMS,
    RECIPE_TABLE,
    hietarinta_assemble,
    rh_extras_report,
    verify_recipe,
)
from braidgate.invariants import (
    check_identities,
    class_eigen_report,
    contraction_oracle,
    quadratic_invariants,
    random_sl2,
)
from braidgate.matrix_core import tensor_product
from braidgate.yang_baxter import (
    BraidWord,
    CATALOG,
    XTypeParams,
    assemble,
    check_ybe,
    lie_orbit_rank,
)

TOL = 1e-9


def report(n, message):
    print(f"\nACCEPTANCE {n}: PASS - {message}")


def form_draw(name, rng):
    return {p: complex(rng.normal(), rng.normal())
            for p in HIETARINTA_FORMS[name][0]}


def test_criterion_01_ybe_validity():
    """All 38 catalog variants and 11 families pass the YBE at 100 draws each."""
    rng = np.random.default_rng(1)
    checks = 0
    for entry in CATALOG.values():
        for _ in range(100):
            h = entry.fill(entry.random_params(rng))
            residual, ok = check_ybe(assemble(h), TOL)
            assert ok, (entry.entry_id, residual)
            checks += 1
    for name in HIETARINTA_FORMS:
        done = 0
        while done < 100:
            m = hietarinta_assemble(name, form_draw(name, rng))
            if abs(np.linalg.det(m)) < 1e-6:
                continue
            residual, ok = check_ybe(m, TOL)
            assert ok, (name, residual)
            done += 1
            checks += 1
    report(1, f"{checks} Yang-Baxter checks, residuals < 1e-9")


def test_criterion_02_identity_suite():
    """Six linear identities and oracle equivalence on 1000 dense matrices."""
    rng = np.random.default_rng(2)
    for i in range(1000):
        r = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        inv = quadratic_invariants(r)
        assert max(check_identities(inv)) < TOL
        assert abs(contraction_oracle(r, "I1") - inv.I1) < TOL
        for k in range(1, 11):
            assert abs(contraction_oracle(r, f"I2_{k}") - inv.q(k)) < TOL, (i, k)
    report(2, "six identities and ten-fold oracle agreement on 1000 matrices")


def test_criterion_03_local_invariance():
    """Invariance under 1000 random unit-determinant local conjugations.

    I1 and I2_1..I2_8 are invariant under independent (Q1, Q2); the two-copy
    pair I2_9, I2_10 is invariant through its sum (= I1^2) and individually
    under the diagonal action -- the literal all-ten claim is recorded as an
    xfail below.
    """
    rng = np.random.default_rng(3)
    for _ in range(1000):
        r = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        q = tensor_product(random_sl2(rng), random_sl2(rng))
        a = quadratic_invariants(r)
        b = quadratic_invariants(q @ r @ np.linalg.inv(q))
        scale = max(max(abs(v) for v in a.I2), abs(a.I1), 1.0)
        assert abs(a.I1 - b.I1) < 1e-8 * scale
        for k in range(1, 9):
            assert abs(a.q(k) - b.q(k)) < 1e-8 * scale, k
        assert abs((a.q(9) + a.q(10)) - (b.q(9) + b.q(10))) < 1e-8 * scale
    report(3, "I1, I2_1..I2_8 and the two-copy sum invariant over 1000 conjugations"
              " (individual I2_9/I2_10 need the diagonal action; see xfail)")


@pytest.mark.xfail(
    strict=True,
    reason="I2_9 alone is not invariant under independent (Q1, Q2): the second"
           " copy's qubit-2 slot transforms with Q1; deviations reach ~170x"
           " scale. Only the sum I2_9 + I2_10 (= I1^2) is fully invariant.",
)
def test_criterion_03_literal_two_copy_invariance():
    rng = np.random.default_rng(3)
    for _ in range(50):
        r = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        q = tensor_product(random_sl2(rng), random_sl2(rng))
        a = quadratic_invariants(r)
        b = quadratic_invariants(q @ r @ np.linalg.inv(q))
        scale = max(max(abs(v) for v in a.I2), 1.0)
        assert abs(a.q(9) - b.q(9)) < 1e-8 * scale


def test_criterion_04_per_class_eigen_formulas():
    """Every class report passes at 50 random draws per catalog entry."""
    rng = np.random.default_rng(4)
    for entry in CATALOG.values():
        for _ in range(50):
            rep = class_eigen_report(entry, entry.random_params(rng), TOL)
            assert rep.passed, (entry.entry_id, rep.max_diff, rep.dependence_residuals)
    report(4, "eigenvalue formulas and dependence relations, 50 draws x 38 entries")


def test_criterion_05_enhancement_catalog():
    """All 33 recipes validate at 20 draws; solver recovers the families."""
    rng = np.random.default_rng(5)
    for rid, recipe in RECIPES.items():
        for _ in range(20):
            params = {k: complex(rng.normal(), rng.normal())
                      for k in recipe.free_params}
            e = instantiate_recipe(rid, params, TOL)
            residuals, ok = verify_enhancement(e, TOL)
            assert ok, (rid, residuals)
    expected_counts = {"C2.0": 1, "C6.0": 5, "C11.0": 1}
    for entry_id, count in expected_counts.items():
        entry = CATALOG[entry_id]
        r = assemble(entry.fill(entry.random_params(rng)))
        sols = solve_enhancement(r, TOL)
        assert len(sols) == count, (entry_id, len(sols))
    report(5, "33 recipes x 20 draws valid; solver family counts C2:1, C6:5, C11:1")


def _conditioned_draw(recipe_id, rng, mu_cap=6.0):
    """Draw recipe params where 1e-9 value checks stay honest (see tests)."""
    recipe = RECIPES[recipe_id]
    for _ in range(200):
        params = {k: complex(rng.normal(), rng.normal())
                  for k in recipe.free_params}
        e = instantiate_recipe(recipe_id, params)
        if (np.max(np.abs(e.mu)) < mu_cap and np.linalg.cond(e.R) < 25
                and 0.2 < abs(e.x) < 5 and abs(e.y) < 10):
            return params, e
    raise RuntimeError(f"no well-conditioned draw for {recipe_id}")


def test_criterion_06_link_polynomial_closed_forms():
    """Closed-form link values, vanishing claims, and constants."""
    rng = np.random.default_rng(6)

    def w(*letters, strands=None):
        strands = strands or (max(g for g, _ in letters) + 1 if letters else 2)
        return BraidWord(strands, tuple(letters))

    # Class 1, mu = I and mu = Z, k in [-6, 6]
    params, e = _conditioned_draw("C1.I", rng)
    s = np.sqrt(params["h4"] * params["h5"])
    sign = e.x / params["h1"]
    for k in range(-6, 7):
        expected = 2 + 2 * (s / params["h1"]) ** k if k % 2 == 0 else 2 * sign**k
        assert abs(link_polynomial(e, w((1, k))) - expected) < TOL * max(1, abs(expected))
    params, e = _conditioned_draw("C1.Z", rng)
    s = np.sqrt(params["h4"] * params["h5"])
    for k in range(-6, 7):
        expected = (1 - (s / params["h1"]) ** k) * (1 + (-1) ** k)
        assert abs(link_polynomial(e, w((1, k))) - expected) < TOL * max(1, abs(expected))
    # Class 2
    params, e = _conditioned_draw("C2.I", rng)
    s = np.sqrt(params["h2"] * params["h7"])
    sign = e.x / params["h3"]
    for k in range(-6, 7):
        expected = 2 + 2 * (s / params["h3"]) ** k if k % 2 == 0 else 2 * sign**k
        assert abs(link_polynomial(e, w((1, k))) - expected) < TOL * max(1, abs(expected))
    # Class 4 item 5, two- and three-strand closed forms, exponents in [-4, 4]
    params, e = _conditioned_draw("C4.mu5", rng)
    h1, h6 = params["h1"], params["h6"]
    poly = 3 * h1**2 - 3 * h1 * h6 + h6**2

    def bracket4(k):
        return -h1 * (-h1 + h6) ** (1 + k) + h1**k * poly

    for k in range(-4, 5):
        expected = e.x ** (-k) * bracket4(k) / (h1 * (h1 - h6))
        assert abs(link_polynomial(e, w((1, k))) - expected) < TOL * max(1, abs(expected))
    for k1 in range(-4, 5):
        for k2 in range(-4, 5):
            expected = (e.x ** (-k1 - k2 + 1) * bracket4(k1) * bracket4(k2)
                        / (h1**3 * (2 * h1**2 - 3 * h1 * h6 + h6**2)))
            got = link_polynomial(e, w((1, k1), (2, k2)))
            assert abs(got - expected) < TOL * max(1, abs(expected))
    # Class 7, two- and three-strand forms
    params, e = _conditioned_draw("C7.I", rng)
    h1, h3 = params["h1"], params["h3"]
    sign = e.x / (h1 + h3)
    ratio = (h1 - h3) / (h1 + h3)

    def bracket7(k):
        return 1 + (1 + (-1) ** k) / 2 * ratio**k

    for k in range(-4, 5):
        expected = sign**k * 2 * bracket7(k)
        assert abs(link_polynomial(e, w((1, k))) - expected) < TOL * max(1, abs(expected))
    for k in range(-3, 4):
        for el in range(-3, 4):
            expected = sign ** (k + el + 1) * 2 * bracket7(k) * bracket7(el)
            got = link_polynomial(e, w((1, k), (2, el)))
            assert abs(got - expected) < TOL * max(1, abs(expected))
    # vanishing claims
    for rid in ("C3.Z", "C4.Z", "C5.Z", "C6.Z", "C10.Z", "C11.Z", "C12.Z"):
        _, e = _conditioned_draw(rid, rng)
        for k in (-3, -2, -1, 1, 2, 3):
            assert abs(link_polynomial(e, w((1, k)))) < TOL, (rid, k)
    _, e = _conditioned_draw("C5.Z", rng)
    assert abs(link_polynomial(e, w((1, 2), (2, -1)))) < TOL
    assert abs(link_polynomial(e, w((1, 1), (2, 2), (1, -1), (2, 1)))) < TOL
    # constant claims
    constants = {
        "C1.I+Z": lambda p, e: (e.x / p["h1"]),
        "C1.I-Z": lambda p, e: (e.x / p["h8"]),
        "C3.mu2": lambda p, e: (e.x / p["h8"]),
        "C3.mu3": lambda p, e: (e.x / p["h8"]),
        "C4.I+Z": lambda p, e: (e.x / p["h1"]),
        "C4.I-Z": lambda p, e: (e.x / p["h1"]),
        "C5.I+Z": lambda p, e: (e.x / p["h1"]),
        "C12.mu2": lambda p, e: (e.x / ((1 - 1j) / 2 * p["h1"])),
        "C12.mu3": lambda p, e: (e.x / ((1 - 1j) / 2 * p["h1"])),
        "C12.mu4": lambda p, e: (e.x / ((1 - 1j) / 2 * p["h1"])),
        "C12.mu5": lambda p, e: (e.x / ((1 - 1j) / 2 * p["h1"])),
    }
    for rid, signer in constants.items():
        params, e = _conditioned_draw(rid, rng)
        sgn = signer(params, e)
        for k in range(-4, 5):
            assert abs(link_polynomial(e, w((1, k))) - sgn**k) < 1e-8, (rid, k)
    for rid in ("C6.mu2", "C6.mu3", "C6.mu4", "C6.mu5"):
        params, e = _conditioned_draw(rid, rng)
        lam_m = (params["h1"] + params["h8"]
                 - np.sqrt(2 * (params["h1"] ** 2 + params["h8"] ** 2))) / 2
        sgn = e.x / lam_m
        for k in range(-4, 5):
            assert abs(link_polynomial(e, w((1, k))) - sgn**k) < 1e-8, (rid, k)
    # Class 4 mu=I and Class 9: 4 / +-2; Class 5 I-Z anti-correlated sign;
    # Class 8 cosine constants; Class 10 I-type families
    params, e = _conditioned_draw("C4.I", rng)
    sgn = e.x / params["h1"]
    for k in range(-4, 5):
        expected = 4 if k % 2 == 0 else 2 * sgn**k
        assert abs(link_polynomial(e, w((1, k))) - expected) < TOL
    params, e = _conditioned_draw("C9.I", rng)
    sgn = e.x / params["h1"]
    for k in range(-4, 5):
        expected = 4 if k % 2 == 0 else 2 * sgn**k
        assert abs(link_polynomial(e, w((1, k))) - expected) < TOL
    params, e = _conditioned_draw("C5.I-Z", rng)
    sgn = e.x / (params["h1"] - params["h6"])
    for k in range(-4, 5):
        assert abs(link_polynomial(e, w((1, k))) - (-sgn) ** k) < TOL
    params, e = _conditioned_draw("C8.I", rng)
    sgn = e.x / (np.sqrt(2) * params["h1"])
    for k in range(-6, 7):
        expected = sgn**k * 2 * np.cos(np.pi * k / 4)
        assert abs(link_polynomial(e, w((1, k))) - expected) < TOL
    for rid in ("C10.mu2", "C10.mu3"):
        params, e = _conditioned_draw(rid, rng)
        sgn = e.x / params["h1"]
        for k in range(-4, 5):
            expected = 1 if k % 2 == 0 else (-sgn) ** k
            assert abs(link_polynomial(e, w((1, k))) - expected) < 1e-8, (rid, k)
    report(6, "closed-form link values, vanishing and constant claims reproduced")


def test_criterion_07_markov_moves():
    """Conjugation and stabilization residuals < 1e-9, words up to 4 strands."""
    rng = np.random.default_rng(7)
    for rid, recipe in RECIPES.items():
        # draw a well-conditioned instance so the 1e-9 threshold stays honest
        # (inverse powers and x^-writhe amplify roundoff near degeneracy)
        for _ in range(200):
            params = {k: complex(rng.normal(), rng.normal())
                      for k in recipe.free_params}
            e = instantiate_recipe(rid, params)
            if (np.max(np.abs(e.mu)) < 6.0 and np.linalg.cond(e.R) < 25
                    and 0.2 < abs(e.x) < 5 and abs(e.y) < 10):
                break
        for strands in (2, 3, 4):
            letters = tuple(
                (int(rng.integers(1, strands)),
                 int(rng.integers(1, 4)) * int(rng.choice([-1, 1])))
                for _ in range(3)
            )
            word = BraidWord(strands, letters)
            scale = max(1.0, abs(link_polynomial(e, word)))
            res_conj, res_stab = markov_check(e, word, rng=rng)
            assert res_conj < TOL * scale, (rid, strands)
            assert res_stab < TOL * scale, (rid, strands)
    report(7, "Markov conjugation/stabilization for all 33 recipes, n <= 4")


def test_criterion_08_algebra_witnesses():
    """BMW (1, 2, 7), Hecke (3, 4, 5, 6, 8, 10, 11, 12), Jordan identity (9)."""
    rng = np.random.default_rng(8)

    def rc():
        return complex(rng.normal(), rng.normal())

    for class_id, free in ((1, ("h1", "h4", "h5")), (2, ("h2", "h3", "h7")),
                           (7, ("h1", "h2", "h3"))):
        params = {k: rc() for k in free}
        fill = dict(params)
        if class_id == 1:
            fill["h8"] = params["h1"]  # BMW needs the enhanceable point
        r = assemble(CATALOG[f"C{class_id}.0"].fill(fill))
        witness = bmw_witness(r, *class_bmw_params(class_id, params), tol=TOL)
        assert witness.realized, (class_id, witness.residuals)
    for class_id in (3, 4, 5, 6, 8, 10, 11, 12):
        entry = CATALOG[f"C{class_id}.0"]
        params = entry.random_params(rng)
        r = assemble(entry.fill(params))
        scale, q = class_hecke_params(class_id, params)
        witness = hecke_witness(r, scale, q, tol=TOL)
        assert witness.realized, (class_id, witness.residuals)
    params = {"h1": rc(), "h7": rc()}
    r = assemble(CATALOG["C9.0"].fill(params))
    witness = jordan_witness(r, class_jordan_coeffs(9, params), tol=TOL)
    assert witness.realized, witness.residuals
    report(8, "BMW, Hecke, and the Class 9 Jordan identity all realized")


def test_criterion_09_entangling_power():
    """Quadrature vs closed form, special values, per-class formulas.

    The invariant cross term carries 1/36 (not the printed 1/6), fixing the
    special Class 1 point at 1/9 -- the unitary X-type maximum, tying the
    Bell matrix.  The printed 2/3 is recorded as an xfail below.
    """
    rng = np.random.default_rng(9)
    for _ in range(1000):
        h = XTypeParams(*(complex(rng.normal(), rng.normal()) for _ in range(8)))
        closed = entangling_power_closed(assemble(h))
        quad = entangling_power_quadrature(assemble(h))
        assert abs(closed - quad) < TOL * max(1.0, closed)
    bell = XTypeParams(
        h1=2**-0.5, h2=2**-0.5, h3=2**-0.5, h4=2**-0.5,
        h5=-(2**-0.5), h6=2**-0.5, h7=-(2**-0.5), h8=2**-0.5,
    )
    assert abs(entangling_power_closed(assemble(bell)) - 1 / 9) < 1e-10
    assert abs(entangling_power_quadrature(assemble(bell)) - 1 / 9) < 1e-10
    swap = XTypeParams(h1=1, h4=1, h5=1, h8=1)
    assert entangling_power_closed(assemble(swap)) < 1e-14
    assert entangling_power_quadrature(assemble(swap)) < 1e-12
    special = XTypeParams(h1=1, h4=1j, h5=1j, h8=1)  # h4 h5 = -h1 h8
    assert abs(entangling_power_closed(assemble(special)) - 1 / 9) < 1e-10
    assert abs(entangling_power_quadrature(assemble(special)) - 1 / 9) < 1e-10
    for _ in range(300):
        h = unitary_xtype(rng.uniform(), rng.uniform(), *rng.uniform(0, 2 * np.pi, 6))
        assert entangling_power_closed(assemble(h)) <= 1 / 9 + 1e-12
    for class_id in range(1, 13):
        entry = CATALOG[f"C{class_id}.0"]
        for _ in range(20):
            rep = class_epower(entry, entry.random_params(rng), TOL)
            assert rep["passed"], rep
    hc4 = CATALOG["C4.0"].fill({"h1": np.exp(0.2j), "h4": np.exp(0.9j), "h6": 0})
    assert entangling_power_closed(assemble(hc4)) < 1e-12
    hc9 = CATALOG["C9.0"].fill({"h1": np.exp(0.5j), "h7": 0})
    assert entangling_power_closed(assemble(hc9)) < 1e-15
    report(9, "quadrature == closed form (1000 draws); Bell 1/9; swap 0; special"
              " Class 1 point = 1/9 (unitary maximum; printed 2/3 in xfail);"
              " per-class formulas match; unitary Classes 4/9 not entanglers")


@pytest.mark.xfail(
    strict=True,
    reason="the value 2/3 exceeds the pointwise bound |det t|^2 <= 1/4 for"
           " unitary outputs; the exact Bloch average at this point is 1/9,"
           " the unitary X-type maximum",
)
def test_criterion_09_printed_two_thirds():
    special = XTypeParams(h1=1, h4=1j, h5=1j, h8=1)
    assert abs(entangling_power_quadrature(assemble(special)) - 2 / 3) < 1e-10


def test_criterion_10_orbit_ranks():
    """Operator orbit rank 6; state-action rank 3."""
    rng = np.random.default_rng(10)
    for _ in range(20):
        h = XTypeParams(*(complex(rng.normal(), rng.normal()) for _ in range(8)))
        rank, _ = lie_orbit_rank(assemble(h))
        assert rank == 6
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        assert state_action_rank(psi) == 3
    report(10, "operator orbit rank 6 and state-action rank 3 at generic draws")


def test_criterion_11_appendix_a_recipes():
    """Every stored equivalence recipe verifies to < 1e-9."""
    rng = np.random.default_rng(11)
    split = 0
    for recipe in RECIPE_TABLE:
        for _ in range(10):
            base = {k: complex(rng.normal(), rng.normal()) for k in recipe.base_params}
            residual = verify_recipe(recipe, base)
            assert residual < TOL, (recipe.source, recipe.target, residual)
        if any(step[0] == "conj2" for step in recipe.steps):
            split += 1
    assert split == 2  # the two split-conjugation equivalences
    report(11, f"{len(RECIPE_TABLE)} equivalence recipes verified, incl. both splits")


def test_criterion_12_appendix_b():
    """Family reports match direct computation; enhancement only at q = -p."""
    rng = np.random.default_rng(12)

    def rc():
        return complex(rng.normal(), rng.normal())

    for _ in range(5):
        rep = rh_extras_report("H1,3", {"k": rc(), "p": rc(), "q": rc()})
        inv = quadratic_invariants(rep["matrix"])
        for key, value in rep["invariants"].items():
            direct = inv.I1 if key == "I1" else inv.q(int(key.split("_")[1]))
            assert abs(value - direct) < TOL * max(1, abs(value))
        _, ok = verify_enhancement(rep["enhanced"], TOL)
        assert ok
        for n in (-3, -2, -1, 1, 2, 3, 4):
            got = link_polynomial(rep["enhanced"], BraidWord(2, ((1, n),)))
            assert abs(got - (4 if n % 2 == 0 else 2)) < TOL
        quad = entangling_power_quadrature(rep["matrix"])
        assert abs(rep["entangling_power"] - quad) < TOL * max(1, quad)
        witness = hecke_witness(rep["matrix"], rep["hecke"]["scale"], rep["hecke"]["q"])
        assert witness.realized
    for _ in range(5):
        k, p, s = rc(), rc(), rc()
        rep = rh_extras_report("H2,3", {"k": k, "p": p, "q": -p, "s": s})
        assert rep["enhanceable"]
        _, ok = verify_enhancement(rep["enhanced"], TOL)
        assert ok
        for n in (-2, -1, 1, 2, 3):
            got = link_polynomial(rep["enhanced"], BraidWord(2, ((1, n),)))
            assert abs(got - (4 if n % 2 == 0 else 2)) < TOL
        inv = quadratic_invariants(rep["matrix"])
        for key, value in rep["invariants"].items():
            direct = inv.I1 if key == "I1" else inv.q(int(key.split("_")[1]))
            assert abs(value - direct) < TOL * max(1, abs(value))
        quad = entangling_power_quadrature(rep["matrix"])
        assert abs(rep["entangling_power"] - quad) < TOL * max(1, quad)
        assert jordan_witness(rep["matrix"], rep["jordan"]).realized
    generic = rh_extras_report("H2,3", {"k": rc(), "p": rc(), "q": rc(), "s": rc()})
    assert not generic["enhanceable"]
    sols = solve_enhancement(generic["matrix"], TOL)
    assert sols == []
    report(12, "H1,3 and H2,3 reports match direct computation; enhancement"
               " exists only at q = -p (the exact solver finds none elsewhere)")
