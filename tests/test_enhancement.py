import dataclasses
import itertools
import re
import warnings
import zlib

import numpy as np
import pytest
from numpy.testing import assert_allclose

from braidgate import enhancement
from braidgate.enhancement import (
    EnhancedOperator,
    InvalidEnhancementError,
    POINT_OUTCOMES,
    RECIPES,
    _LINEAR,
    _MU_ROWS,
    _condition_tables,
    _conditions,
    _null_space,
    _root_operator,
    _solve,
    _system,
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
from braidgate.hietarinta import hietarinta_assemble
from braidgate.matrix_core import (
    DEFAULT_TOL, I2, PAULI_X, PAULI_Y, PAULI_Z, RANK_TOL, XTYPE_SUPPORT, max_norm, numerical_rank,
    partial_trace, tensor_product,
)
from braidgate.yang_baxter import (BraidWord, CATALOG, assemble, catalog_entry, compile_expr,
                                   evaluate_expr)
from oracles import (bmw_witness_oracle, enhancement_system_oracle, hecke_witness_oracle,
                     jordan_witness_oracle, macaulay_oracle)

RNG = np.random.default_rng(55)


def rand_complex(rng=RNG):
    return complex(rng.normal(), rng.normal())


def recipe_draw(recipe_id, rng=RNG):
    recipe = RECIPES[recipe_id]
    return {k: rand_complex(rng) for k in recipe.free_params}


def well_conditioned_draw(recipe_id, rng=None, mu_cap=6.0):
    """Params and instance at a draw where 1e-9 value checks stay honest.

    Rejects draws with large mu, an ill-conditioned operator, or a tiny |x|
    (inverse powers and x^-writhe amplify roundoff otherwise).  Seeded per
    recipe id by default, so tests are independent of execution order.
    """
    if rng is None:
        rng = np.random.default_rng(zlib.crc32(recipe_id.encode()))
    for _ in range(200):
        params = recipe_draw(recipe_id, rng)
        e = instantiate_recipe(recipe_id, params)
        if (np.max(np.abs(e.mu)) < mu_cap and np.linalg.cond(e.R) < 25
                and 0.2 < abs(e.x) < 5 and abs(e.y) < 10):
            return params, e
    raise RuntimeError(f"no well-conditioned draw found for {recipe_id}")


def word(*letters, strands=None):
    strands = strands or (max(g for g, _ in letters) + 1 if letters else 2)
    return BraidWord(strands, tuple(letters))


class TestVerifyEnhancement:
    def test_trivial_quadruple(self):
        e = EnhancedOperator(np.eye(4, dtype=complex), I2, 1, 2)
        residuals, ok = verify_enhancement(e)
        assert ok and max(residuals) < 1e-14

    def test_class1_mu_identity(self):
        e = instantiate_recipe("C1.I", {"h1": 1 + 0.5j, "h4": 2, "h5": -1j})
        assert e.x == 1 + 0.5j and e.R[3, 3] == 1 + 0.5j  # h8 = h1 enforced
        _, ok = verify_enhancement(e)
        assert ok

    def test_class3_mu_z(self):
        params = {"h1": rand_complex(), "h7": rand_complex(), "h8": rand_complex()}
        e = instantiate_recipe("C3.Z", params)
        assert_allclose(e.mu, PAULI_Z)
        # x = +- i sqrt(h1 h8) up to the simultaneous sign pairing
        assert abs(e.x**2 + params["h1"] * params["h8"]) < 1e-12

    @pytest.mark.parametrize("x", [0, np.complex128(0)], ids=["int", "complex128"])
    def test_zero_x_is_refused_when_made(self, x):
        # condition (c) takes y / x: neither a ZeroDivisionError nor numpy's
        # warnings and a NaN residual
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidEnhancementError, match="x != 0"):
                EnhancedOperator(np.eye(4, dtype=complex), I2, x, 1)

    @pytest.mark.parametrize("y", [0, np.complex128(0)], ids=["int", "complex128"])
    def test_zero_y_is_refused_when_made(self, y):
        # a link value takes y^-n, which used to raise ZeroDivisionError
        with pytest.raises(InvalidEnhancementError, match="y != 0"):
            EnhancedOperator(np.eye(4, dtype=complex), I2, 1, y)

    @pytest.mark.parametrize("r,mu", [(np.eye(4), np.eye(3)), (np.eye(2), np.eye(2)),
                                      (np.eye(4), np.ones(4))])
    def test_wrong_shapes_are_refused_when_made(self, r, mu):
        want = f"an enhancement needs a 4x4 R and a 2x2 mu, got shapes {r.shape} and {mu.shape}"
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            EnhancedOperator(R=r, mu=mu, x=1, y=1)

    @pytest.mark.parametrize("t", [1.0, 1e-4, 1e-8, 1e-10, 1e-12])
    def test_scaled_down_non_enhancement_is_refused(self, t):
        # M with tr_2 M = I and R = t M^-1: (c) holds at every t and (b)
        # misses by about t, which a scale floored at 1 would pass from
        # t = 1e-10 down
        rng = np.random.default_rng(0)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m -= tensor_product(partial_trace(m, 2) - I2, I2) / 2
        e = EnhancedOperator(t * np.linalg.inv(m), I2, t, 1)
        residuals, ok = verify_enhancement(e)
        assert not ok and residuals[1] > 0.1 * t and residuals[2] <= 1e-9 * e.scales[2]

    def test_broken_quadruple_rejected(self):
        e = EnhancedOperator(np.eye(4, dtype=complex), PAULI_Z + 0.3 * I2, 1, 1)
        with pytest.raises(InvalidEnhancementError):
            link_polynomial(e, word((1, 1)))

    @pytest.mark.parametrize("recipe_id", sorted(RECIPES))
    def test_every_recipe_validates(self, recipe_id):
        for _ in range(5):
            e = instantiate_recipe(recipe_id, recipe_draw(recipe_id))
            residuals, ok = verify_enhancement(e)
            assert ok, f"{recipe_id}: {residuals}"

    @pytest.mark.parametrize("recipe_id", sorted(RECIPES))
    def test_mu_coeffs_are_the_recipe_coefficients(self, recipe_id):
        # X and Y parts included: mu_coeffs() inverts the Pauli sum the
        # recipe's (alpha, beta, gamma, delta) build
        params, e = well_conditioned_draw(recipe_id)
        recipe = RECIPES[recipe_id]
        env = dict(params)
        for name, expr in recipe.let.items():
            env[name] = evaluate_expr(expr, env)
        want = np.array([evaluate_expr(expr, env) for expr in recipe.mu])
        got = np.array(e.mu_coeffs())
        assert np.abs(got - want).max() <= 4 * np.finfo(float).eps * np.abs(want).max()

    def test_failing_recipe_raises(self):
        # near h1 = h8 the class-6 formulas cancel, and the instance fails
        with pytest.raises(InvalidEnhancementError, match="C6.mu2 fails conditions"):
            instantiate_recipe("C6.mu2", {"h1": 1, "h2": 1, "h8": 1.0001})

    def test_recipe_registry_matches_catalog_refs(self):
        for class_id in range(1, 13):
            refs = CATALOG[f"C{class_id}.0"].enhancement_refs
            assert set(refs) == {rid for rid, r in RECIPES.items() if r.class_id == class_id}


def _reference_conditions(r, mu, x, y):
    """Residuals and scales of (a)-(c) for one quadruple, formed one 4x4
    product at a time with tensor_product, partial_trace and max_norm."""
    r_inv = np.linalg.inv(r)
    mm = tensor_product(mu, mu)
    mu_n = max_norm(mu)
    residuals = (max_norm(r @ mm - mm @ r),
                 max_norm(partial_trace(r @ mm, 2) - x * y * mu),
                 max_norm(partial_trace(r_inv @ mm, 2) - y / x * mu))
    scales = (max_norm(r) * mu_n**2,
              max(max_norm(r) * mu_n**2, abs(x * y) * mu_n),
              max(max_norm(r_inv) * mu_n**2, abs(y / x) * mu_n))
    return residuals, scales


class TestConditionKernel:
    @pytest.mark.parametrize("draw", range(7))
    def test_random_quadruples_match_reference(self, draw):
        # far from any enhancement the residuals are large, and still equal
        # the reference bit for bit
        rng = np.random.default_rng(70 + draw)
        r = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        mu = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        x, y = rng.normal(size=2) + 1j * rng.normal(size=2)
        want = _reference_conditions(r, mu, x, y)
        assert _conditions(r, np.linalg.inv(r), mu, x, y) == want
        # the fields an operator fills when it is made, failing or not
        e = EnhancedOperator(r, mu, x, y)
        assert (e.residuals, e.scales) == want

    @pytest.mark.parametrize("recipe_id", sorted(RECIPES))
    def test_verify_matches_reference(self, recipe_id):
        # residuals and scales are those of the one-product-at-a-time
        # reference bit for bit
        rng = np.random.default_rng(zlib.crc32(recipe_id.encode()))
        params = recipe_draw(recipe_id, rng)
        for factor in (1e-3, 1.0, 1e3):
            e = instantiate_recipe(recipe_id, {k: factor * v for k, v in params.items()})
            want, want_scales = _reference_conditions(e.R, e.mu, e.x, e.y)
            assert e.residuals == want and e.scales == want_scales
            for tol in (DEFAULT_TOL, 1e-15):
                residuals, ok = verify_enhancement(e, tol)
                assert residuals == want
                assert ok == all(v <= tol * s for v, s in zip(want, want_scales))


@pytest.fixture
def inversions(monkeypatch):
    """A list that grows by one for every np.linalg.inv call."""
    calls = []
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: calls.append(1) or inv(a))
    return calls


class TestInvertsOnce:
    def test_solve(self, inversions):
        r = assemble(CATALOG["C6.0"].fill({"h1": 1, "h2": 1, "h8": 2}))
        families, _ = _solve(r, DEFAULT_TOL)
        assert len(families) == 5 and len(inversions) == 1
        # the families hold their residuals: verifying them again is free
        assert all(verify_enhancement(e)[1] for e in families) and len(inversions) == 1

    def test_replace_inverts_the_new_r(self):
        # (mu, 2x, y) enhances 2R; replace makes a new quadruple, so its
        # condition (c) is judged with (2R)^-1, not the R^-1 of the old one
        r = assemble(CATALOG["C6.0"].fill({"h1": 1, "h2": 1, "h8": 2}))
        for fam in solve_enhancement(r):
            doubled = dataclasses.replace(fam, R=2 * fam.R, x=2 * fam.x)
            fresh = EnhancedOperator(2 * fam.R, fam.mu, 2 * fam.x, fam.y)
            assert verify_enhancement(doubled) == (fresh.residuals, True)
            assert doubled.scales == fresh.scales

    def test_recipe_then_link_values(self, inversions):
        e = instantiate_recipe("C4.mu5", {"h1": 2, "h4": 1, "h6": 1})
        w = word((1, 2), (2, -1), (1, -3), (3, 1))
        link_polynomial(e, w)
        markov_check(e, w)
        assert len(inversions) == 1


class _Radicals:
    """Table strings evaluated over sympy symbols, each square root a symbol.

    A new radicand z gets a symbol t with t**2 = z.  A radicand q * z with q
    a positive number is sqrt(q) * t, as the principal root satisfies: so the
    catalog's sqrt((h1**2+h8**2)/2) is half the C6 recipes' sqrt(2*(h1**2+h8**2)),
    and the proof keeps the branches the tables share.
    """

    def __init__(self, sympy):
        self.sympy = sympy
        self.roots = []  # (symbol, radicand), in the order made

    def sqrt(self, z):
        sp = self.sympy
        z = sp.nsimplify(z, rational=True)
        if z.is_number:
            return sp.sqrt(z)
        for t, radicand in self.roots:
            q = sp.cancel(z / radicand)
            if q.is_number and q.is_positive:
                return sp.sqrt(q) * t
        t = sp.Symbol(f"t{len(self.roots)}")
        self.roots.append((t, z))
        return t

    def value(self, expr, names):
        env = {"__builtins__": {}, "sqrt": self.sqrt, "I": self.sympy.I}
        # rational=True turns complex literals such as 0.5j exact
        return self.sympy.nsimplify(eval(compile_expr(expr), env, dict(names)), rational=True)

    def vanishes(self, expr):
        """Whether expr is zero given every t**2 = z: the pseudo-remainder of
        its numerator by each relation, the last root first, is zero."""
        sp = self.sympy
        num = sp.numer(sp.together(expr))
        for t, z in reversed(self.roots):
            zn, zd = sp.fraction(sp.together(z))
            num = sp.prem(sp.expand(num), sp.expand(zd * t**2 - zn), t)
        return sp.expand(num) == 0


class TestRecipeProofs:
    @pytest.mark.parametrize("recipe_id", sorted(RECIPES))
    def test_recipe_enhances_symbolically(self, recipe_id):
        # conditions (a)-(c) hold identically in the free parameters, for
        # the R of the class representative at the recipe's constraints
        sympy = pytest.importorskip("sympy")
        recipe = RECIPES[recipe_id]
        rad = _Radicals(sympy)
        env = {k: sympy.Symbol(k) for k in recipe.free_params}
        params = dict(env)
        params.update((slot, rad.value(e, env)) for slot, e in recipe.constraints.items())
        h = dict(params)
        h.update((slot, rad.value(e, params))
                 for slot, e in CATALOG[recipe.entry_id].constraints.items())
        r = sympy.zeros(4, 4)
        for (i, j), k in zip(np.argwhere(XTYPE_SUPPORT), range(1, 9)):
            r[i, j] = h[f"h{k}"]
        for name, e in recipe.let.items():
            env[name] = rad.value(e, env)
        a, b, c, d, x, y = (rad.value(e, env) for e in (*recipe.mu, recipe.x, recipe.y))
        i = sympy.I
        mu = sympy.Matrix([[a + d, b - i * c], [b + i * c, a - d]])  # aI + bX + cY + dZ
        mm = sympy.kronecker_product(mu, mu)

        def tr2(m):
            return sympy.Matrix(2, 2, lambda p, q: m[2 * p, 2 * q] + m[2 * p + 1, 2 * q + 1])

        conditions = {"a": r * mm - mm * r, "b": tr2(r * mm) - x * y * mu,
                      "c": tr2(r.inv() * mm) - y / x * mu}
        for name, residual in conditions.items():
            assert all(rad.vanishes(v) for v in residual), (recipe_id, name)


class TestLinkValuesClass1:
    def test_spec_value(self):
        e = instantiate_recipe("C1.I", {"h1": 1, "h4": 2, "h5": 2})
        assert_allclose(link_polynomial(e, word((1, 2))), 10)

    def test_mu_identity_formula(self):
        params = {"h1": rand_complex(), "h4": rand_complex(), "h5": rand_complex()}
        e = instantiate_recipe("C1.I", params)
        s = np.sqrt(params["h4"] * params["h5"])
        sign = e.x / params["h1"]
        for k in range(-6, 7):
            got = link_polynomial(e, word((1, k)))
            if k % 2 == 0:
                expected = 2 + 2 * (s / params["h1"]) ** k
            else:
                expected = 2 * sign**k
            assert abs(got - expected) < 1e-9 * max(1, abs(expected)), k

    def test_mu_z_formula(self):
        params = {"h1": rand_complex(), "h4": rand_complex(), "h5": rand_complex()}
        e = instantiate_recipe("C1.Z", params)
        s = np.sqrt(params["h4"] * params["h5"])
        for k in range(-6, 7):
            got = link_polynomial(e, word((1, k)))
            expected = (1 - (s / params["h1"]) ** k) * (1 + (-1) ** k)
            assert abs(got - expected) < 1e-9 * max(1, abs(expected)), k

    def test_mu_z_not_locally_invariant(self):
        # conjugating the operator (mu fixed) rescales the even-k values by
        # the product of (a d + b c) factors of the local actions
        from braidgate.invariants import random_sl2
        from braidgate.matrix_core import tensor_product

        rng = np.random.default_rng(2)
        params = {"h1": rand_complex(rng), "h4": rand_complex(rng), "h5": rand_complex(rng)}
        e = instantiate_recipe("C1.Z", params)
        q1, q2 = random_sl2(rng), random_sl2(rng)
        qq = tensor_product(q1, q2)
        r2 = qq @ e.R @ np.linalg.inv(qq)
        e2 = EnhancedOperator(r2, e.mu, e.x, e.y)
        s = np.sqrt(params["h4"] * params["h5"])
        factor = (q1[0, 0] * q1[1, 1] + q1[0, 1] * q1[1, 0]) * (
            q2[0, 0] * q2[1, 1] + q2[0, 1] * q2[1, 0]
        )
        for k in (2, 4):
            base = (1 - (s / params["h1"]) ** k) * 2
            transformed = _trace_value(e2, word((1, k)))
            assert abs(transformed - factor * base / 2 * 2) < 1e-9 * max(1, abs(base))
            assert abs(transformed - base) > 1e-3 * max(1, abs(base))

    def test_mu_i_plus_minus_z_constants(self):
        for rid, ref in (("C1.I+Z", "h1"), ("C1.I-Z", "h8")):
            params = {k: rand_complex() for k in RECIPES[rid].free_params}
            e = instantiate_recipe(rid, params)
            sign = e.x / params[ref]
            for k in range(-5, 6):
                got = link_polynomial(e, word((1, k)))
                assert abs(got - sign**k) < 1e-9, (rid, k)


def _trace_value(e, w):
    # raw x^-w y^-n Tr[rho mu x mu] without the validity gate (used to probe
    # deliberately non-enhanced, conjugated operators)
    from braidgate.yang_baxter import rep_of_word
    from braidgate.matrix_core import tensor_product

    rho = rep_of_word(e.R, w)
    mun = e.mu
    for _ in range(w.strands - 1):
        mun = tensor_product(mun, e.mu)
    return complex(e.x ** (-w.writhe()) * e.y ** (-w.strands) * np.trace(rho @ mun))


class TestLinkValuesOtherClasses:
    def test_class2_formula(self):
        params = {"h2": rand_complex(), "h3": rand_complex(), "h7": rand_complex()}
        e = instantiate_recipe("C2.I", params)
        s = np.sqrt(params["h2"] * params["h7"])
        sign = e.x / params["h3"]
        for k in range(-6, 7):
            got = link_polynomial(e, word((1, k)))
            if k % 2 == 0:
                expected = 2 + 2 * (s / params["h3"]) ** k
            else:
                expected = 2 * sign**k
            assert abs(got - expected) < 1e-9 * max(1, abs(expected)), k

    def test_class4_item5_two_strand(self):
        e = instantiate_recipe("C4.mu5", {"h1": 2, "h4": rand_complex(), "h6": 1})
        assert_allclose(link_polynomial(e, word((1, 2))), 15 / 8, atol=1e-12)

    def test_class4_item5_formulas(self):
        params = {"h1": rand_complex(), "h4": rand_complex(), "h6": rand_complex()}
        h1, h6 = params["h1"], params["h6"]
        e = instantiate_recipe("C4.mu5", params)
        x = e.x
        poly = 3 * h1**2 - 3 * h1 * h6 + h6**2

        def bracket(k):
            return -h1 * (-h1 + h6) ** (1 + k) + h1**k * poly

        for k in range(-4, 5):
            got = link_polynomial(e, word((1, k)))
            expected = x ** (-k) * bracket(k) / (h1 * (h1 - h6))
            assert abs(got - expected) < 1e-9 * max(1, abs(expected)), k
        for k1 in range(-4, 5):
            for k2 in range(-4, 5):
                got = link_polynomial(e, word((1, k1), (2, k2)))
                expected = (
                    x ** (-k1 - k2 + 1)
                    * bracket(k1) * bracket(k2)
                    / (h1**3 * (2 * h1**2 - 3 * h1 * h6 + h6**2))
                )
                assert abs(got - expected) < 1e-9 * max(1, abs(expected)), (k1, k2)

    def test_class4_item5_generator_order(self):
        # sigma1^k sigma2^l and sigma2^l sigma1^k are conjugate words
        params = {"h1": rand_complex(), "h4": rand_complex(), "h6": rand_complex()}
        e = instantiate_recipe("C4.mu5", params)
        for k, el in ((2, 3), (-1, 2), (3, -2)):
            a = link_polynomial(e, word((1, k), (2, el)))
            b = link_polynomial(e, word((2, el), (1, k)))
            assert abs(a - b) < 1e-9 * max(1, abs(a))

    def test_class7_formulas(self):
        params = {"h1": rand_complex(), "h2": rand_complex(), "h3": rand_complex()}
        h1, h3 = params["h1"], params["h3"]
        e = instantiate_recipe("C7.I", params)
        sign = e.x / (h1 + h3)
        ratio = (h1 - h3) / (h1 + h3)

        def bracket(k):
            return 1 + (1 + (-1) ** k) / 2 * ratio**k

        for k in range(-5, 6):
            got = link_polynomial(e, word((1, k)))
            expected = sign**k * 2 * bracket(k)
            assert abs(got - expected) < 1e-9 * max(1, abs(expected)), k
        for k in range(-3, 4):
            for el in range(-3, 4):
                got = link_polynomial(e, word((1, k), (2, el)))
                expected = sign ** (k + el + 1) * 2 * bracket(k) * bracket(el)
                assert abs(got - expected) < 1e-9 * max(1, abs(expected)), (k, el)

    def test_class8_constants(self):
        params = {"h1": rand_complex(), "h2": rand_complex()}
        e = instantiate_recipe("C8.I", params)
        sign = e.x / (np.sqrt(2) * params["h1"])
        for k in range(-6, 7):
            got = link_polynomial(e, word((1, k)))
            expected = sign**k * 2 * np.cos(np.pi * k / 4)
            assert abs(got - expected) < 1e-9, k

    def test_class9_constants(self):
        params = {"h1": rand_complex(), "h7": rand_complex()}
        e = instantiate_recipe("C9.I", params)
        sign = e.x / params["h1"]
        for k in range(-5, 6):
            got = link_polynomial(e, word((1, k)))
            expected = 4 if k % 2 == 0 else 2 * sign**k
            assert abs(got - expected) < 1e-9, k

    VANISHING = ("C3.Z", "C4.Z", "C5.Z", "C6.Z", "C10.Z", "C11.Z", "C12.Z")

    @pytest.mark.parametrize("recipe_id", VANISHING)
    def test_vanishing_claims(self, recipe_id):
        _, e = well_conditioned_draw(recipe_id)
        for k in range(-4, 5):
            if k == 0:
                continue
            assert abs(link_polynomial(e, word((1, k)))) < 1e-9, (recipe_id, k)

    def test_class5_mu_z_three_strand_vanishing(self):
        _, e = well_conditioned_draw("C5.Z")
        for k, el in ((1, 2), (-2, 3), (2, 2)):
            assert abs(link_polynomial(e, word((1, k), (2, el)))) < 1e-9
        assert abs(link_polynomial(e, word((1, 2), (2, -1), (1, 1), (2, 3)))) < 1e-9

    CONSTANT_PM = {
        # recipe -> reference scale whose sign pairs with the printed +-1
        "C3.mu2": "h8", "C3.mu3": "h8",
        "C4.I+Z": "h1", "C4.I-Z": "h1",
        "C5.I+Z": "h1",
        "C12.mu2": None, "C12.mu3": None, "C12.mu4": None, "C12.mu5": None,
        "C6.mu2": None, "C6.mu3": None, "C6.mu4": None, "C6.mu5": None,
    }

    @pytest.mark.parametrize("recipe_id", sorted(CONSTANT_PM))
    def test_plus_minus_one_constants(self, recipe_id):
        params, e = well_conditioned_draw(recipe_id)
        ref = self.CONSTANT_PM[recipe_id]
        if ref is not None:
            sign = e.x / params[ref]
        elif recipe_id.startswith("C6"):
            h1, h8 = params["h1"], params["h8"]
            lam_m = (h1 + h8 - np.sqrt(2 * (h1**2 + h8**2))) / 2
            sign = e.x / lam_m
        else:
            sign = e.x / ((1 - 1j) / 2 * params["h1"])
        assert abs(abs(sign) - 1) < 1e-9
        for k in range(-4, 5):
            got = link_polynomial(e, word((1, k)))
            assert abs(got - sign**k) < 1e-8, (recipe_id, k, got)

    def test_class4_mu_identity_constants(self):
        params = {"h1": rand_complex(), "h4": rand_complex()}
        e = instantiate_recipe("C4.I", params)
        sign = e.x / params["h1"]
        for k in range(-4, 5):
            got = link_polynomial(e, word((1, k)))
            expected = 4 if k % 2 == 0 else 2 * sign**k
            assert abs(got - expected) < 1e-9, k

    def test_class5_mu_i_minus_z_constants(self):
        # sign anti-correlates with x here: x = +-(h1-h6) gives L = (-+1)^k
        params = recipe_draw("C5.I-Z")
        e = instantiate_recipe("C5.I-Z", params)
        sign = e.x / (params["h1"] - params["h6"])
        for k in range(-4, 5):
            got = link_polynomial(e, word((1, k)))
            assert abs(got - (-sign) ** k) < 1e-9, k

    def test_class10_mu_families_constants(self):
        for rid in ("C10.mu2", "C10.mu3"):
            params, e = well_conditioned_draw(rid)
            sign = e.x / params["h1"]
            for k in range(-4, 5):
                got = link_polynomial(e, word((1, k)))
                expected = 1 if k % 2 == 0 else (-sign) ** k
                assert abs(got - expected) < 1e-8, (rid, k, got)


class TestWordInvariances:
    def test_braid_relation_rewrite(self):
        e = instantiate_recipe("C7.I", recipe_draw("C7.I"))
        w1 = BraidWord(3, ((1, 2), (1, 1), (2, 1), (1, 1), (2, -1)))
        w2 = BraidWord(3, ((1, 2), (2, 1), (1, 1), (2, 1), (2, -1)))
        assert abs(link_polynomial(e, w1) - link_polynomial(e, w2)) < 1e-9

    def test_mu_rescaling_covariance(self):
        e = instantiate_recipe("C2.I", recipe_draw("C2.I"))
        c = rand_complex()
        e2 = EnhancedOperator(e.R, c * e.mu, e.x, c * e.y)
        for w in (word((1, 2)), word((1, 1), (2, -2))):
            assert abs(link_polynomial(e, w) - link_polynomial(e2, w)) < 1e-9

    @pytest.mark.parametrize("recipe_id", sorted(RECIPES))
    def test_markov_moves(self, recipe_id):
        # crc32 keeps the seed stable across processes (hash() is salted)
        rng = np.random.default_rng(zlib.crc32(recipe_id.encode()))
        _, e = well_conditioned_draw(recipe_id, rng=rng)
        for strands in (2, 3):
            letters = tuple(
                (int(rng.integers(1, strands)), int(rng.integers(1, 4)) * int(rng.choice([-1, 1])))
                for _ in range(3)
            )
            w = BraidWord(strands, letters)
            res_conj, res_stab = markov_check(e, w, rng=rng)
            scale = max(1.0, abs(link_polynomial(e, w)))
            assert res_conj < 1e-9 * scale, recipe_id
            assert res_stab < 1e-9 * scale, recipe_id


def _catalog_draw(entry_id, draw):
    entry = CATALOG[entry_id]
    rng = np.random.default_rng([zlib.crc32(entry_id.encode()), draw])
    return assemble(entry.fill(entry.random_params(rng)))


def _assert_scale_free(r, factor):
    """(mu, x, y) enhances R exactly when (mu, s x, y) enhances s R: the
    families of factor * R are those of R, x scaled.  Returns their count."""
    base = solve_enhancement(r)
    scaled = solve_enhancement(factor * r)
    assert len(scaled) == len(base)
    for e in scaled:
        key = _canonical(EnhancedOperator(r, e.mu, e.x / factor, e.y))
        assert any(_same_family(key, _canonical(b)) for b in base)
    return len(base)


class TestSolver:
    def test_class2_only_identity_family(self):
        entry = CATALOG["C2.0"]
        r = assemble(entry.fill(entry.random_params(RNG)))
        sols = solve_enhancement(r)
        assert len(sols) == 1
        coeffs = sols[0].mu_coeffs()
        assert abs(coeffs[0] - 1) < 1e-8
        assert max(abs(c) for c in coeffs[1:]) < 1e-8

    def test_class11_only_z_family(self):
        entry = CATALOG["C11.0"]
        r = assemble(entry.fill(entry.random_params(RNG)))
        sols = solve_enhancement(r)
        assert len(sols) == 1
        coeffs = sols[0].mu_coeffs()
        assert max(abs(c) for c in coeffs[:3]) < 1e-8 and abs(coeffs[3] - 1) < 1e-8

    @pytest.mark.parametrize("draw", range(3))
    def test_class6_five_families(self, draw):
        entry = CATALOG["C6.0"]
        params = entry.random_params(np.random.default_rng(600 + draw))
        r = assemble(entry.fill(params))
        sols = solve_enhancement(r)
        assert len(sols) == 5
        # they match the cataloged recipes up to normalization and sign
        expected = []
        for rid in CATALOG["C6.0"].enhancement_refs:
            e = instantiate_recipe(rid, params)
            expected.append(_canonical(e))
        got = [_canonical(s) for s in sols]
        for key in expected:
            assert any(np.allclose(key, g, atol=1e-6) for g in got), key

    def test_outcome_counts(self):
        entry = CATALOG["C6.0"]
        r = assemble(entry.fill(entry.random_params(np.random.default_rng(61))))
        families, points = _solve(r, DEFAULT_TOL)
        outcomes = [p["outcome"] for p in points]
        assert set(outcomes) <= set(POINT_OUTCOMES)
        assert outcomes.count("family") == len(families) == 5

    def test_start_keywords_are_ignored(self):
        entry = CATALOG["C6.0"]
        r = assemble(entry.fill(entry.random_params(np.random.default_rng(62))))
        plain = [_canonical(e) for e in solve_enhancement(r)]
        keyed = [_canonical(e) for e in solve_enhancement(r, starts=1, seed=9)]
        assert np.array_equal(plain, keyed)

    @pytest.mark.parametrize("entry_id,draw,factor", [("C6.1", 10, 1e3), ("C9.3", 12, 1e-3)])
    def test_families_do_not_depend_on_the_scale_of_r(self, entry_id, draw, factor):
        # judged at the given scale, C6.1 lost two families and C9.3 gained
        # two near-nilpotent ones
        count = _assert_scale_free(_catalog_draw(entry_id, draw), factor)
        assert count == {"C6.1": 5, "C9.3": 1}[entry_id]

    @pytest.mark.parametrize("entry_id", sorted(CATALOG))
    def test_small_operators_are_not_singular(self, entry_id):
        # whether R counts as singular is judged by its condition number, so
        # 1e-3 R, with |det| down by 1e-12, has the families of R, x scaled
        for draw in range(2):
            _assert_scale_free(_catalog_draw(entry_id, draw), 1e-3)

    def test_ill_conditioned_operator(self):
        # condition number 5.9e6 and |det| 1.6e-8: not singular, and all five
        # families are found, though four have |lambda| down to 5e-6 at R's
        # scale; |mu| reaches 700, so recipe and root agree to about 1e-6
        r = assemble(CATALOG["C6.0"].fill(C6_ILL_CONDITIONED))
        families = solve_enhancement(r)
        assert len(families) == 5
        assert all(verify_enhancement(e)[1] for e in families)
        for rid in CATALOG["C6.0"].enhancement_refs:
            key = _canonical(instantiate_recipe(rid, C6_ILL_CONDITIONED))
            assert any(_same_family(key, _canonical(e), 1e-5) for e in families), rid

    @pytest.mark.parametrize("entry_id", ["C9.2", "C9.3"])
    def test_jordan_cluster_is_not_a_family(self, entry_id):
        # the degree-4 nullity is 6: one family plus a root of multiplicity 5
        # at the nilpotent mu = X + iY, where the pencil has a Jordan block;
        # its eigenvalues form one cluster, which is one degenerate point
        assert "rejected_cost" not in POINT_OUTCOMES
        for draw in range(3):
            r = _catalog_draw(entry_id, draw)
            for factor in (1.0, 1e3, 1e-3):
                families, points = _solve(factor * r, DEFAULT_TOL)
                records = sorted((p["multiplicity"], p["outcome"]) for p in points)
                assert records == [(1, "family"), (5, "degenerate")]
                assert len(families) == 1
                for p in points:
                    if p["outcome"] == "family":
                        x = np.sqrt(p["lambda"] / p["nu"])
                        mu = (np.array(p["mu"]) @ _MU_ROWS).reshape(2, 2)
                        e = EnhancedOperator(factor * r, mu, x, p["lambda"] / x)
                        assert verify_enhancement(e)[1]

    @pytest.mark.parametrize("r", [np.eye(2), np.eye(8)])
    def test_wrong_shapes_are_refused(self, r):
        want = f"expected a 4x4 two-qubit operator, got {r.shape}"
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            solve_enhancement(r)

    def test_identity_is_positive_dimensional(self):
        # for R = I every mu with tr mu = x y is an enhancement, and every
        # monomial is in the null space; diag(1, 2, 2, 1) has a curve of
        # roots whose degree-3 nullity is not the whole space
        for r, degree3, degree4 in ((np.eye(4), 20, 35), (np.diag([1, 2, 2, 1]), 7, 8)):
            want = ("positive-dimensional solution set: "
                    f"Macaulay nullity {degree3} at degree 3, {degree4} at degree 4")
            with pytest.raises(ValueError, match=f"{re.escape(want)}$"):
                solve_enhancement(r)

    def test_double_roots_are_one_family_each(self):
        # C10.1 has three recipes; two of its roots are double, and each
        # double root's pair of eigenvalues is one cluster, so one point
        r = assemble(CATALOG["C10.1"].fill(C10_DOUBLE_ROOTS))
        families, points = _solve(r, DEFAULT_TOL)
        assert len(families) == 3
        assert sorted((p["multiplicity"], p["outcome"]) for p in points) == [
            (1, "family"), (2, "family"), (2, "family")]

    @pytest.mark.parametrize("seed", range(3))
    def test_dense_operator_has_no_roots(self, seed):
        # a generic dense operator has Macaulay nullity 0: no root at all
        rng = np.random.default_rng(seed)
        r = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        assert _solve(r, DEFAULT_TOL) == ([], [])

    def test_imaginary_x_sign_is_canonical(self):
        # C11.0 at h8 = 2 has mu = Z, x = 2i, y = i, so lambda / nu = -4;
        # the principal root of -4 +- 1e-17 i is about +-2i, and both signs
        # must give x = 2i and one family
        r = assemble(CATALOG["C11.0"].fill({"h7": 1, "h8": 2}))
        coeffs = np.array([0, 0, 0, 1], dtype=complex)
        for sign in (1, -1):
            lam = complex(-2, sign * 5e-18)  # nu = 1/2
            assert np.sign(np.sqrt(lam / 0.5).imag) == sign
            e = _root_operator(r, np.linalg.inv(r), 1.0, coeffs, lam, 0.5)
            assert verify_enhancement(e)[1]
            assert abs(e.x - 2j) < 1e-15 and abs(e.y - 1j) < 1e-15

    def test_generic_h23_root_is_degenerate(self):
        # the one root is the nilpotent mu = X + iY, where x y = y / x = 0
        r, _ = _kernel_operator("H2,3")
        families, points = _solve(r, DEFAULT_TOL)
        assert families == []
        assert points and all(p["outcome"] == "degenerate" for p in points)
        for p in points:
            assert_allclose(np.array(p["mu"]) / p["mu"][1], [0, 1, 1j, 0], atol=1e-6)


# The damped Gauss-Newton kernel of the former multi-start solver, kept
# for the oracle gauss_newton_families and checked by TestSolverKernel.

def _residual(table, v):
    """Real residual of conditions (a)-(c) and the gauge |mu|^2 = 2 at v.

    ``v`` holds (Re, Im) of alpha, beta, gamma, delta, x, y.  The layout is
    [Re of 24 condition entries, gauge, Im of the 24, 0].
    """
    z = v[0::2] + 1j * v[1::2]
    c, x, y = z[:4], z[4], z[5]
    mu = c @ _MU_ROWS
    f = np.outer(c, c).ravel() @ table
    f[16:20] -= x * y * mu
    f[20:] -= y / x * mu
    # conditions are homogeneous in mu, so mu = 0 solves them trivially;
    # pinning |mu|^2 = 2 keeps the search on the nonzero gauge orbits
    gauge = 2 * np.vdot(c, c).real - 2.0
    return np.concatenate([f.real, [gauge], f.imag, [0.0]])


def _jacobian(table, v):
    """Exact (50, 12) Jacobian of :func:`_residual`.

    The 24 condition entries are holomorphic in z = (c, x, y), so the real
    Jacobian is [[Re J, -Im J], [Im J, Re J]] of the complex (24, 6) one.
    """
    z = v[0::2] + 1j * v[1::2]
    c, x, y = z[:4], z[4], z[5]
    mu = c @ _MU_ROWS
    tab = table.reshape(4, 4, 24)
    jac = np.zeros((24, 6), dtype=complex)
    # d(c_k c_l)/dc_m reaches both the (m, l) and the (l, m) rows
    jac[:, :4] = (c @ (tab + tab.transpose(1, 0, 2))).T
    jac[16:20, :4] -= x * y * _MU_ROWS.T
    jac[20:, :4] -= y / x * _MU_ROWS.T
    jac[16:20, 4] = -y * mu
    jac[16:20, 5] = -x * mu
    jac[20:, 4] = y / x**2 * mu
    jac[20:, 5] = -mu / x
    out = np.zeros((50, 12))
    out[:24, 0::2] = jac.real
    out[:24, 1::2] = -jac.imag
    out[25:49, 0::2] = jac.imag
    out[25:49, 1::2] = jac.real
    out[24, 0:8:2] = 4 * c.real
    out[24, 1:8:2] = 4 * c.imag
    return out


def _gauss_newton(table, v0, max_iter=80, converge=1e-12):
    v = np.array(v0, dtype=float)
    f = _residual(table, v)
    cost = np.linalg.norm(f)
    for _ in range(max_iter):
        if cost < converge:
            break
        try:
            step, *_ = np.linalg.lstsq(_jacobian(table, v), f, rcond=None)
        except np.linalg.LinAlgError:
            break
        damping = 1.0
        while damping > 1e-6:
            trial = v - damping * step
            if abs(trial[8]) + abs(trial[9]) < 1e-8:
                trial[8] += 1e-4  # keep x away from the pole
            ft = _residual(table, trial)
            ct = np.linalg.norm(ft)
            if ct < cost:
                v, f, cost = trial, ft, ct
                break
            damping /= 2
        else:
            break
    return v, cost


def _residual_oracle(r, r_inv, v):
    """The solver's residual by dense products: mu x mu by np.kron and the
    conditions through partial_trace, in the solver's [Re, gauge, Im, 0]
    layout."""
    alpha, beta, gamma, delta, x, y = v[0::2] + 1j * v[1::2]
    mu = alpha * I2 + beta * PAULI_X + gamma * PAULI_Y + delta * PAULI_Z
    mm = np.kron(mu, mu)
    parts = [
        (r @ mm - mm @ r).ravel(),
        (partial_trace(r @ mm, 2) - x * y * mu).ravel(),
        (partial_trace(r_inv @ mm, 2) - y / x * mu).ravel(),
        np.array([np.vdot(mu, mu).real - 2.0]),
    ]
    c = np.concatenate(parts)
    return np.concatenate([c.real, c.imag]), mu


KERNEL_OPERATORS = ("C2.0", "C6.0", "C11.0", "H2,3")


def _kernel_operator(name):
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    if name == "H2,3":
        return hietarinta_assemble("H2,3", {k: rand_complex(rng) for k in "kpqs"}), rng
    entry = CATALOG[name]
    return assemble(entry.fill(entry.random_params(rng))), rng


class TestSolverKernel:
    """The table residual and its exact Jacobian against independent routes."""

    @pytest.mark.parametrize("name", KERNEL_OPERATORS)
    def test_residual_matches_dense_oracle(self, name):
        r, rng = _kernel_operator(name)
        r_inv = np.linalg.inv(r)
        table = _condition_tables(r, r_inv)
        for _ in range(20):
            v = rng.normal(size=12) * rng.choice([0.3, 1.0, 3.0])
            want, mu = _residual_oracle(r, r_inv, v)
            scale = max(1.0, np.max(np.abs(r)) * np.max(np.abs(mu)) ** 2)
            got = _residual(table, v)
            assert got.shape == (50,)
            assert np.max(np.abs(got - want)) < 1e-13 * scale, name

    @pytest.mark.parametrize("name", KERNEL_OPERATORS)
    def test_jacobian_matches_central_differences(self, name):
        r, rng = _kernel_operator(name)
        table = _condition_tables(r, np.linalg.inv(r))
        h = 1e-6
        for _ in range(10):
            v = rng.normal(size=12)
            jac = _jacobian(table, v)
            assert jac.shape == (50, 12)
            numeric = np.empty_like(jac)
            for k in range(12):
                dv = np.zeros(12)
                dv[k] = h
                numeric[:, k] = (_residual(table, v + dv) - _residual(table, v - dv)) / (2 * h)
            assert np.max(np.abs(jac - numeric)) < 1e-7 * np.max(np.abs(jac)), name


def _operator(name):
    """A KERNEL_OPERATORS entry, or "dense<seed>", a seeded dense complex R."""
    if name.startswith("dense"):
        rng = np.random.default_rng(int(name.removeprefix("dense")))
        return rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    return _kernel_operator(name)[0]


def _monomial_values(c, degree):
    return np.array([np.prod(c[list(m)])
                     for m in itertools.combinations_with_replacement(range(4), degree)])


class TestLinearTable:
    """The solver's system, one product with _LINEAR, against the per-call
    oracle and against dense products at points c."""

    @pytest.mark.parametrize("factor", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("name", KERNEL_OPERATORS + ("dense0", "dense1", "dense2"))
    def test_system_matches_per_call_oracle(self, name, factor):
        r = factor * _operator(name)
        r_inv = np.linalg.inv(r)
        norm = max(np.max(np.abs(r)), np.max(np.abs(r_inv)))
        polys, table = _system(r, r_inv, norm)
        want_polys, want_table = enhancement_system_oracle(r, r_inv, norm)
        # every polynomial has unit norm or is zeroed in both, so this is
        # relative per polynomial, and a polynomial zeroed in one only fails
        assert polys.shape == want_polys.shape == (400,)
        assert np.max(np.abs(polys - want_polys)) <= 1e-14, name
        assert np.count_nonzero(polys) > 0
        for part in (slice(0, 4), slice(4, 8)):  # B at R's scale, then C at R^-1's
            want = want_table[:, part]
            assert np.max(np.abs(table[:, part] - want)) <= 1e-14 * np.max(np.abs(want)), name

    @pytest.mark.parametrize("name", KERNEL_OPERATORS + ("dense0",))
    def test_unscaled_system_is_the_conditions_at_c(self, name):
        # at random c the quadrics are [R, mu x mu], the cubics the minors
        # B_i mu_j - B_j mu_i, then C_i mu_j - C_j mu_i, and the table gives
        # B and C, with B = tr_2 R (mu x mu) and C = tr_2 R^-1 (mu x mu)
        r = _operator(name)
        r_inv = np.linalg.inv(r)
        linear = np.concatenate([r.ravel(), r_inv.ravel()]) @ _LINEAR
        quadrics, cubics = linear[:160].reshape(16, 10), linear[160:400].reshape(12, 20)
        table = linear[400:].reshape(16, 8)
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        for _ in range(5):
            c = rng.normal(size=4) + 1j * rng.normal(size=4)
            mu = (c @ _MU_ROWS).reshape(2, 2)
            mm = np.kron(mu, mu)
            b = partial_trace(r @ mm, 2).ravel()
            c_trace = partial_trace(r_inv @ mm, 2).ravel()
            m = mu.ravel()
            minors = [t[i] * m[j] - t[j] * m[i]
                      for t in (b, c_trace) for i, j in itertools.combinations(range(4), 2)]
            scale = max(np.max(np.abs(r)), np.max(np.abs(r_inv))) * np.max(np.abs(mu)) ** 2
            tol = 1e-13 * scale
            assert_allclose(quadrics @ _monomial_values(c, 2), (r @ mm - mm @ r).ravel(),
                            rtol=0, atol=tol)
            assert_allclose(cubics @ _monomial_values(c, 3), minors,
                            rtol=0, atol=tol * np.max(np.abs(mu)))
            assert_allclose(np.outer(c, c).ravel() @ table, np.concatenate([b, c_trace]),
                            rtol=0, atol=tol)


def _canonical(e):
    coeffs = np.array(e.mu_coeffs())
    pivot = next(c for c in coeffs if abs(c) > 1e-6)
    coeffs = coeffs / pivot
    x, y = e.x, e.y / pivot
    if x.real < 0 or (abs(x.real) < 1e-12 and x.imag < 0):
        x, y = -x, -y
    return np.concatenate([coeffs, [x, y]])


def gauss_newton_families(r, starts, seed=0):
    """Families the former multi-start solver finds, canonicalized: damped
    Gauss-Newton from the normal start drawn at seed + 1000 * start, each end
    point kept under that solver's filters.  It finds only what its starts
    reach, so it checks that the exact enumeration misses nothing."""
    r = np.asarray(r, dtype=complex)
    table = _condition_tables(r, np.linalg.inv(r))
    found = []
    for start in range(starts):
        v0 = np.random.default_rng(seed + 1000 * start).normal(size=12)
        v, cost = _gauss_newton(table, v0)
        z = v[0::2] + 1j * v[1::2]
        coeffs, x, y = z[:4], z[4], z[5]
        mu_scale = np.max(np.abs(coeffs))
        if (cost > 1e-9 or mu_scale < 1e-8 or abs(x) < 1e-5
                or abs(y) / mu_scale < 1e-4 * (1 + abs(x))):
            continue
        mu = coeffs[0] * I2 + coeffs[1] * PAULI_X + coeffs[2] * PAULI_Y + coeffs[3] * PAULI_Z
        e = EnhancedOperator(R=r, mu=mu, x=x, y=y)
        if verify_enhancement(e)[1]:
            found.append(_canonical(e))
    return found


def _same_family(a, b, tol=1e-6):
    """Canonical keys equal up to the (x, y) -> (-x, -y) sign pair."""
    flipped = np.concatenate([b[:4], -b[4:]])
    scale = max(1.0, np.max(np.abs(a)))
    return min(np.max(np.abs(a - b)), np.max(np.abs(a - flipped))) < tol * scale


def _assert_includes_oracle(r, starts, seed=0):
    exact = [_canonical(e) for e in solve_enhancement(r)]
    oracle = gauss_newton_families(r, starts, seed)
    missed = [o for o in oracle if not any(_same_family(o, g) for g in exact)]
    assert missed == []
    return oracle


C6_ILL_CONDITIONED = {"h1": 1.7542572626457837 - 1.1579199401531195j,
                      "h2": -0.16029849480925135 - 0.00679052399149432j,
                      "h8": 1.7415135206979793 - 1.1392194199075927j}
C10_DOUBLE_ROOTS = {"h1": -0.009371273325325004 + 0.598379178802324j,
                    "h2": 0.4824090158347269 + 0.15585777321063388j}


def _point_residual(r, p):
    """Largest residual of (a), tr_2 R (mu x mu) = lambda mu and tr_2 R^-1
    (mu x mu) = nu mu at one record, by dense products, each over its scale
    max|R| max|mu|^2 (max|R^-1| max|mu|^2 for the last)."""
    r_inv = np.linalg.inv(r)
    c = p["mu"]
    mu = c[0] * I2 + c[1] * PAULI_X + c[2] * PAULI_Y + c[3] * PAULI_Z
    mm = np.kron(mu, mu)
    scale = np.max(np.abs(mu)) ** 2
    return max(np.max(np.abs(r @ mm - mm @ r)) / (np.max(np.abs(r)) * scale),
               np.max(np.abs(partial_trace(r @ mm, 2) - p["lambda"] * mu))
               / (np.max(np.abs(r)) * scale),
               np.max(np.abs(partial_trace(r_inv @ mm, 2) - p["nu"] * mu))
               / (np.max(np.abs(r_inv)) * scale))


@pytest.mark.parametrize("name", KERNEL_OPERATORS + ("C10.1",))
def test_every_root_solves_the_conditions(name):
    # each record's mu, lambda and nu satisfy (a), tr_2 R (mu x mu) = lambda
    # mu and tr_2 R^-1 (mu x mu) = nu mu, by dense products
    if name == "C10.1":
        r = assemble(CATALOG[name].fill(C10_DOUBLE_ROOTS))
    else:
        r, _ = _kernel_operator(name)
    _, points = _solve(r, DEFAULT_TOL)
    assert points
    for p in points:
        assert _point_residual(r, p) < 1e-12


def _scaled_system(r):
    """The scaled system the solver builds for R, at its scale."""
    r_inv = np.linalg.inv(r)
    s = np.sqrt(np.max(np.abs(r)) / np.max(np.abs(r_inv)))
    return _system(r / s, r_inv * s, np.max(np.abs(r)) / s)[0]


def _macaulay_nullity(r):
    """Nullity of the written-out degree-4 Macaulay matrix of the solver's system for R."""
    m4 = macaulay_oracle(_scaled_system(r), 4)
    return m4.shape[1] - numerical_rank(m4)


# Sorted (multiplicity, outcome) of the roots of each class, the same at
# every draw and scale of the catalog sweep below; C7.1 is not C7.0.
_F, _D = "family", "degenerate"
_SWEEP_RECORDS = {
    1: [(1, _F)] * 2, 2: [(1, _F)], 3: [(1, _F)] * 3, 4: [(1, _D)] * 2 + [(1, _F)] * 3,
    5: [(1, _F)] * 3, 6: [(1, _F)] * 5, 7: [(1, _F)], "C7.1": [(1, _D)] * 2 + [(1, _F)] * 3,
    8: [(1, _D), (1, _F)], 9: [(1, _D), (1, _F)], "C9.2": [(1, _F), (5, _D)],
    "C9.3": [(1, _F), (5, _D)], 10: [(1, _F), (2, _F), (2, _F)], 11: [(1, _F), (2, _D)],
    12: [(1, _F)] * 5,
}


@pytest.mark.parametrize("entry_id", sorted(CATALOG))
def test_catalog_points_count_every_root(entry_id):
    # the multiplicities of the points sum to the Macaulay nullity, and each
    # point that is not degenerate solves (a)-(c) by dense products; the
    # outcomes are those of _SWEEP_RECORDS, and each family's record holds
    # the residuals and scales of a fresh verification
    want = _SWEEP_RECORDS.get(entry_id, _SWEEP_RECORDS[CATALOG[entry_id].class_id])
    for draw in range(2):
        for factor in (1.0, 1e3, 1e-3):
            r = factor * _catalog_draw(entry_id, draw)
            families, points = _solve(r, DEFAULT_TOL)
            assert sum(p["multiplicity"] for p in points) == _macaulay_nullity(r)
            assert sorted((p["multiplicity"], p["outcome"]) for p in points) == want
            for p in points:
                if p["outcome"] != "degenerate":
                    assert _point_residual(r, p) < 1e-10, p
            checked = [p for p in points if p["outcome"] == "family"]
            for e, p in zip(families, checked):
                fresh = EnhancedOperator(e.R, e.mu, e.x, e.y)
                assert verify_enhancement(fresh) == (tuple(p["residuals"]), True)
                assert fresh.scales == tuple(p["scales"])


def _sweep_operators():
    """Five draws of each catalog entry, 20 generic H2,3 and 20 dense complex R."""
    for entry_id in sorted(CATALOG):
        for draw in range(5):
            yield _catalog_draw(entry_id, draw)
    for draw in range(20):
        rng = np.random.default_rng([zlib.crc32(b"H2,3"), draw])
        yield hietarinta_assemble("H2,3", {k: rand_complex(rng) for k in "kpqs"})
    for draw in range(20):
        rng = np.random.default_rng([zlib.crc32(b"dense"), draw])
        yield rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))


def _order_key(coeffs):
    """The order solve_enhancement documents: the coefficients over their
    largest modulus, rounded to 6 decimals, as (Re, Im) pairs."""
    unit = np.round(np.array(coeffs) / np.max(np.abs(coeffs)), 6)
    return [v for z in unit for v in (z.real, z.imag)]


def test_root_order_is_canonical(monkeypatch):
    # the per-call oracle's system differs from the _LINEAR product in its
    # last bits, which permutes the pencil's eigenvalues for some operators;
    # both routes give every operator's roots in the one documented order,
    # with the same records and families
    new = [_solve(r, DEFAULT_TOL) for r in _sweep_operators()]
    monkeypatch.setattr(enhancement, "_system", enhancement_system_oracle)
    per_call = [_solve(r, DEFAULT_TOL) for r in _sweep_operators()]
    assert len(new) == 230 and sum(len(points) for _, points in new) > 230
    for (families, points), (want_families, want_points) in zip(new, per_call):
        assert ([(p["multiplicity"], p["outcome"]) for p in points]
                == [(p["multiplicity"], p["outcome"]) for p in want_points])
        keys = [_order_key(p["mu"]) for p in points]
        assert keys == [_order_key(p["mu"]) for p in want_points]
        assert keys == sorted(keys)
        for e, want in zip(families, want_families, strict=True):
            got = np.concatenate([e.mu.ravel(), [e.x, e.y]])
            expected = np.concatenate([want.mu.ravel(), [want.x, want.y]])
            assert np.max(np.abs(got - expected)) <= 1e-11 * max(1.0, np.max(np.abs(expected)))


def test_null_space_matches_the_macaulay_oracle():
    # the solver takes both nullities from one QR of the degree-3 matrix and
    # its degree-4 null space from that R factor placed at the four shifts,
    # 80 rows; the written-out 76- and 208-row matrices have the same
    # nullities, and the 208-row one annihilates the solver's null basis
    operators = [*_sweep_operators(), np.eye(4),
                 assemble(CATALOG["C9.2"].fill({"h1": 1, "h7": 2})),
                 assemble(CATALOG["C6.0"].fill(C6_ILL_CONDITIONED))]
    assert len(operators) == 233
    for r in operators:
        polys = _scaled_system(r)
        degree3, null = _null_space(polys)
        m3, m4 = macaulay_oracle(polys, 3), macaulay_oracle(polys, 4)
        assert degree3 == m3.shape[1] - numerical_rank(m3)
        assert null.shape[1] == m4.shape[1] - numerical_rank(m4)
        bound = RANK_TOL * np.linalg.norm(m4, 2)
        assert np.all(np.linalg.norm(m4 @ null, axis=0) <= bound)


class TestGaussNewtonOracle:
    """Every family the multi-start oracle finds is among the exact ones."""

    @pytest.mark.parametrize("name", KERNEL_OPERATORS)
    def test_workload_operators(self, name):
        r, _ = _kernel_operator(name)
        oracle = _assert_includes_oracle(r, 40)
        if name != "H2,3":
            assert oracle  # the comparison is not vacuous

    @pytest.mark.parametrize("entry_id", sorted(CATALOG))
    def test_one_draw_per_entry(self, entry_id):
        entry = CATALOG[entry_id]
        rng = np.random.default_rng(zlib.crc32(entry_id.encode()))
        r = assemble(entry.fill(entry.random_params(rng)))
        _assert_includes_oracle(r, 40, seed=int(rng.integers(2**31)))


def test_groebner_oracle_c6():
    # C6.0 at h1=1, h2=1, h8=7 has a rational R.  A lex Groebner basis of
    # (a)-(c) in the chart c0 = 1, with lambda = x y and nu = y / x, is
    # triangular with four points; mu = Z (c0 = 0) is the fifth family.
    sympy = pytest.importorskip("sympy")
    params = {"h1": 1, "h2": 1, "h8": 7}
    r = assemble(CATALOG["C6.0"].fill(params))
    rs = sympy.Matrix(4, 4, lambda i, j: sympy.nsimplify(r[i, j].real, rational=True))
    c1, c2, c3, lam, nu = sympy.symbols("c1 c2 c3 lam nu")
    i = sympy.I
    mu = sympy.Matrix([[1 + c3, c1 - i * c2], [c1 + i * c2, 1 - c3]])
    mm = sympy.kronecker_product(mu, mu)

    def tr2(m):
        return sympy.Matrix(2, 2, lambda a, b: m[2 * a, 2 * b] + m[2 * a + 1, 2 * b + 1])

    eqs = [sympy.expand(v) for v in (
        list(rs * mm - mm * rs) + list(tr2(rs * mm) - lam * mu)
        + list(tr2(rs.inv() * mm) - nu * mu))]
    basis = sympy.groebner([v for v in eqs if v != 0], c1, c2, c3, lam, nu, order="lex")
    assert basis.is_zero_dimensional
    want = sympy.solve(basis.exprs, [c1, c2, c3, lam, nu], dict=True)
    want = [np.array([1] + [complex(s[v]) for v in (c1, c2, c3, lam, nu)]) for s in want]
    assert len(want) == 4

    families, points = _solve(r, DEFAULT_TOL)
    assert len(families) == 5 and all(p["outcome"] == "family" for p in points)
    got = []
    for p in points:
        c = np.array(p["mu"])
        if abs(c[0]) > 1e-6:
            got.append(np.concatenate([c / c[0], [p["lambda"] / c[0], p["nu"] / c[0]]]))
        else:
            assert_allclose(c, [0, 0, 0, 1], atol=1e-9)  # mu = Z
    assert len(got) == 4
    for w in want:
        assert any(np.max(np.abs(w - g)) < 1e-9 * np.max(np.abs(w)) for g in got), w


class TestAlgebraWitnesses:
    def test_bmw_class1_spec_numbers(self):
        scale, l, m = class_bmw_params(1, {"h1": 1, "h4": 4, "h5": 4})
        assert_allclose([scale, l, m], [-0.5j, 0.5j, 1.5j])
        r = assemble(catalog_entry("C1.0").fill({"h1": 1, "h4": 4, "h5": 4, "h8": 1}))
        w = bmw_witness(r, scale, l, m)
        assert w.realized and max(w.residuals.values()) < 1e-9

    def test_bmw_class1_random(self):
        h1, h4, h5 = (rand_complex() for _ in range(3))
        params = {"h1": h1, "h4": h4, "h5": h5}
        r = assemble(catalog_entry("C1.0").fill({**params, "h8": h1}))
        w = bmw_witness(r, *class_bmw_params(1, params))
        assert w.realized

    def test_bmw_class2_random(self):
        params = {"h2": rand_complex(), "h3": rand_complex(), "h7": rand_complex()}
        r = assemble(catalog_entry("C2.0").fill(params))
        w = bmw_witness(r, *class_bmw_params(2, params))
        assert w.realized

    def test_bmw_class7_random(self):
        params = {"h1": rand_complex(), "h2": rand_complex(), "h3": rand_complex()}
        r = assemble(catalog_entry("C7.0").fill(params))
        w = bmw_witness(r, *class_bmw_params(7, params))
        assert w.realized

    def test_bmw_sign_orbit(self):
        params = {"h1": rand_complex(), "h4": rand_complex(), "h5": rand_complex()}
        r = assemble(catalog_entry("C1.0").fill({**params, "h8": params["h1"]}))
        scale, l, m = class_bmw_params(1, params)
        assert bmw_witness(r, -scale, -l, -m).realized

    def test_hecke_class3_spec_numbers(self):
        r = assemble(catalog_entry("C3.0").fill({"h1": 1, "h8": 2, "h7": 0.5}))
        w = hecke_witness(r, -1.0, -2.0)
        assert w.realized and max(w.residuals.values()) < 1e-9

    def test_hecke_class8_q_i(self):
        params = {"h1": rand_complex(), "h2": rand_complex()}
        r = assemble(catalog_entry("C8.0").fill(params))
        scale, q = class_hecke_params(8, params)
        assert q == 1j
        assert hecke_witness(r, scale, q).realized

    @pytest.mark.parametrize("class_id", [3, 4, 5, 6, 10, 11, 12])
    def test_hecke_random(self, class_id):
        entry = CATALOG[f"C{class_id}.0"]
        params = entry.random_params(RNG)
        r = assemble(entry.fill(params))
        scale, q = class_hecke_params(class_id, params)
        w = hecke_witness(r, scale, q)
        assert w.realized, (class_id, w.residuals)

    def test_hecke_alternate_scalings(self):
        # each Hecke class also realizes the relation at the swapped scaling
        h1, h8, h7 = rand_complex(), rand_complex(), rand_complex()
        r3 = assemble(catalog_entry("C3.0").fill({"h1": h1, "h8": h8, "h7": h7}))
        assert hecke_witness(r3, -1 / h8, -h1 / h8).realized
        h1, h4, h6 = rand_complex(), rand_complex(), rand_complex()
        r4 = assemble(catalog_entry("C4.0").fill({"h1": h1, "h4": h4, "h6": h6}))
        assert hecke_witness(r4, -1 / h1, (h1 - h6) / h1).realized
        r5 = assemble(catalog_entry("C5.0").fill({"h1": h1, "h4": h4, "h6": h6}))
        assert hecke_witness(r5, 1 / (h1 - h6), h1 / (h1 - h6)).realized
        h1, h2 = rand_complex(), rand_complex()
        r8 = assemble(catalog_entry("C8.0").fill({"h1": h1, "h2": h2}))
        assert hecke_witness(r8, -(1 + 1j) / (2 * h1), -1j).realized
        h1, h8 = rand_complex(), rand_complex()
        s = np.sqrt(2 * (h1**2 + h8**2))
        lp, lm = (h1 + h8 + s) / 2, (h1 + h8 - s) / 2
        r6 = assemble(catalog_entry("C6.0").fill({"h1": h1, "h2": h2, "h8": h8}))
        assert hecke_witness(r6, -1 / lm, -lp / lm).realized
        h1, h7 = rand_complex(), rand_complex()
        r10 = assemble(catalog_entry("C10.0").fill({"h1": h1, "h7": h7}))
        assert hecke_witness(r10, -1 / h1, 1).realized

    def test_class12_nilpotent_shift(self):
        params = {"h1": rand_complex(), "h2": rand_complex()}
        r = assemble(catalog_entry("C12.0").fill(params))
        scale, q = class_hecke_params(12, params)
        assert q == -1
        shifted = scale * r + np.eye(4)
        assert np.max(np.abs(shifted @ shifted)) < 1e-12

    def test_class10_involution(self):
        params = {"h1": rand_complex(), "h7": rand_complex()}
        r = assemble(catalog_entry("C10.0").fill(params))
        scale, q = class_hecke_params(10, params)
        assert q == 1  # sigma^2 = 1
        sigma = scale * r
        assert np.max(np.abs(sigma @ sigma - np.eye(4))) < 1e-12

    def test_class11_nilpotent_shift(self):
        params = {"h7": rand_complex(), "h8": rand_complex()}
        r = assemble(catalog_entry("C11.0").fill(params))
        scale, q = class_hecke_params(11, params)
        assert q == -1  # (sigma + 1)^2 = 0
        sigma = scale * r
        shifted = sigma + np.eye(4)
        assert np.max(np.abs(shifted @ shifted)) < 1e-12

    def test_class9_jordan_not_hecke(self):
        params = {"h1": rand_complex(), "h7": rand_complex()}
        r = assemble(catalog_entry("C9.0").fill(params))
        # no Hecke realization at the natural scaling (eigenvalues 1,1,1,-1
        # would force q = 1, but the operator is not an involution)
        assert not hecke_witness(r, 1 / params["h1"], 1).realized
        w = jordan_witness(r, class_jordan_coeffs(9, params))
        assert w.realized
        # judged against max|R|^2, not 1: the identity of h1 = 2e-5 does not
        # hold at h1 = 1e-5, though its residual is below 1e-9
        r = assemble(catalog_entry("C9.0").fill({"h1": 1e-5, "h7": 5e-6}))
        w = jordan_witness(r, class_jordan_coeffs(9, {"h1": 2e-5, "h7": 5e-6}))
        assert not w.realized and w.residuals["identity"] < 1e-9

    def test_class1_operator_identities(self):
        h1, h4, h5, h8 = (rand_complex() for _ in range(4))
        r = assemble(catalog_entry("C1.0").fill({"h1": h1, "h4": h4, "h5": h5, "h8": -h1}))
        w = jordan_witness(r, class_jordan_coeffs(1, {"h1": h1, "h4": h4, "h5": h5}, "muZ"))
        assert w.realized
        r = assemble(catalog_entry("C1.0").fill({"h1": h1, "h4": h4, "h5": h5, "h8": h8}))
        w = jordan_witness(
            r, class_jordan_coeffs(1, {"h1": h1, "h4": h4, "h5": h5, "h8": h8})
        )
        assert w.realized

    @pytest.mark.parametrize("call,key", [
        (lambda: class_bmw_params(3, {"h1": 1, "h7": 1, "h8": 2}), "3"),
        (lambda: class_hecke_params(9, {"h1": 1, "h7": 1}), "9"),
        (lambda: class_jordan_coeffs(2, {"h2": 1, "h3": 1, "h7": 1}), "2"),
        # a variant names its own row; an unknown one is not the general identity
        (lambda: class_jordan_coeffs(1, {"h1": 1, "h4": 1, "h5": 1, "h8": 1}, "muX"), "1.muX"),
    ], ids=["bmw", "hecke", "jordan", "jordan-variant"])
    def test_unrecorded_class_is_refused(self, call, key):
        with pytest.raises(ValueError, match=rf"recorded for class {re.escape(key)}$"):
            call()

    def test_bmw_requires_nonzero_m(self):
        with pytest.raises(ValueError):
            bmw_witness(np.eye(4), 1, 1, 0)

    def test_bmw_requires_nonzero_l(self):
        # the relations divide by l: this was a ZeroDivisionError
        with pytest.raises(ValueError, match=r"^BMW witness requires l != 0 and m != 0$"):
            bmw_witness(np.eye(4), 1, 0, 1)

    @pytest.mark.parametrize("size", [2, 8])
    @pytest.mark.parametrize("call", [
        lambda r: bmw_witness(r, 1, 1, 1),
        lambda r: hecke_witness(r, 1, 1),
        lambda r: jordan_witness(r, {1: 1, -1: 1}),
    ], ids=["bmw", "hecke", "jordan"])
    def test_witnesses_refuse_a_non_two_qubit_operator(self, call, size):
        with pytest.raises(ValueError, match=rf"^expected a 4x4 two-qubit operator, got \({size}, {size}\)$"):
            call(np.eye(size))

    @pytest.mark.parametrize("class_id", range(1, 13))
    def test_witnesses_match_the_written_out_relations(self, class_id):
        """On seeded draws of each class, every witness gives the verdict of
        the relations written out with braid_rep operators, dense inverses
        and explicit polynomials, and residuals within rounding of theirs;
        and so on the draw moved off its class by 1e-3."""
        rng = np.random.default_rng(class_id)
        entry = CATALOG[f"C{class_id}.0"]
        kind = "bmw" if class_id in (1, 2, 7) else "jordan" if class_id == 9 else "hecke"
        witness, oracle, algebra = {
            "bmw": (bmw_witness, bmw_witness_oracle, class_bmw_params),
            "hecke": (hecke_witness, hecke_witness_oracle, class_hecke_params),
            "jordan": (jordan_witness, jordan_witness_oracle,
                       lambda c, p: (class_jordan_coeffs(c, p),)),
        }[kind]
        verdicts = []
        for _ in range(200):
            params = entry.random_params(rng)
            if class_id == 1:  # class 1 realizes BMW at h8 = h1 only
                params = {k: params[k] for k in ("h1", "h4", "h5")}
                r = assemble(entry.fill({**params, "h8": params["h1"]}))
            else:
                r = assemble(entry.fill(params))
            args = algebra(class_id, params)
            g = (args[0] if kind != "jordan" else 1) * r
            scale = max(max_norm(g), 1.0) ** (1 if kind == "bmw" else 2)
            for op in (r, r + 1e-3 * rng.normal(size=(4, 4))):
                w, (want, realized) = witness(op, *args), oracle(op, *args)
                assert w.realized == realized, (class_id, params)
                assert w.residuals.keys() == want.keys()
                for name, v in w.residuals.items():
                    assert abs(v - want[name]) <= 1e-13 * scale, (class_id, name, v, want[name])
                verdicts.append(realized)
        assert verdicts == [True, False] * 200


class TestSingularOperators:
    def test_verify_enhancement_rejects_singular(self):
        from braidgate.matrix_core import SingularMatrixError

        # the quadruple inverts R when it is made, so it cannot be made
        singular = assemble([1] * 8)
        with pytest.raises(SingularMatrixError):
            EnhancedOperator(singular, I2, 1, 1)

    def test_negative_power_of_singular_word(self):
        from braidgate.matrix_core import SingularMatrixError
        from braidgate.yang_baxter import rep_of_word

        singular = assemble([1] * 8)
        with pytest.raises(SingularMatrixError):
            rep_of_word(singular, word((1, -1)))
        # positive powers are still fine
        rep_of_word(singular, word((1, 2)))
