import numpy as np
import pytest
from numpy.testing import assert_allclose

from braidgate import hietarinta
from braidgate.enhancement import (EnhancedOperator, jordan_witness, link_polynomial,
                                   solve_enhancement, verify_enhancement)
from braidgate.entangling_power import entangling_power_quadrature
from braidgate.hietarinta import (
    HIETARINTA_FORMS,
    PERMUTATION,
    RECIPE_TABLE,
    classify,
    conjugate,
    conjugate_split,
    discrete_transform,
    hietarinta_assemble,
    permutation_convert,
    rh_extras_report,
    verify_recipe,
)
from braidgate.invariants import _CLASS_FORMULAS, quadratic_invariants
from braidgate.matrix_core import SingularMatrixError
from braidgate.yang_baxter import (BraidWord, CATALOG, XTypeParams, assemble, check_ybe,
                                  evaluate_expr)

RNG = np.random.default_rng(91)


def rand_complex(rng=RNG):
    return complex(rng.normal(), rng.normal())


def form_draw(name, rng=RNG):
    return {p: rand_complex(rng) for p in HIETARINTA_FORMS[name][0]}


class TestForms:
    def test_h31_matches_class1_pattern(self):
        m = hietarinta_assemble("H3,1", {"k": 1, "p": 2, "q": 3, "s": 4})
        assert_allclose(m, assemble(XTypeParams(h1=1, h4=2, h5=3, h8=4)))

    def test_h01_fixed_matrix(self):
        m = hietarinta_assemble("H0,1")
        assert_allclose(m, [[1, 0, 0, 1], [0, 0, -1, 0], [0, -1, 0, 0], [0, 0, 0, 1]])

    def test_h14_matches_class2_pattern(self):
        k, p, q = (rand_complex() for _ in range(3))
        m = hietarinta_assemble("H1,4", {"k": k, "p": p, "q": q})
        assert_allclose(m, assemble(XTypeParams(h2=p, h3=k, h6=k, h7=q)))

    def test_eleven_families(self):
        assert len(HIETARINTA_FORMS) == 11

    def test_missing_params_rejected(self):
        with pytest.raises(ValueError):
            hietarinta_assemble("H3,1", {"k": 1})
        with pytest.raises(KeyError):
            hietarinta_assemble("H9,9")

    @pytest.mark.parametrize("name", sorted(HIETARINTA_FORMS))
    def test_all_forms_satisfy_ybe(self, name):
        for _ in range(5):
            m = hietarinta_assemble(name, form_draw(name))
            if abs(np.linalg.det(m)) < 1e-8:
                continue
            residual, ok = check_ybe(m)
            assert ok, (name, residual)


class TestPermutationConvert:
    def test_identity_maps_to_p(self):
        assert_allclose(permutation_convert(np.eye(4)), PERMUTATION)

    def test_double_conversion(self):
        r = hietarinta_assemble("H0,2")
        assert_allclose(permutation_convert(permutation_convert(r)), r)

    def test_algebraic_solutions_convert_to_braided(self):
        # P * (braided solution) solves the algebraic equation; converting it
        # back must pass the braided check
        for name in ("H0,1", "H0,2", "H1,4"):
            braided = hietarinta_assemble(name, form_draw(name))
            algebraic = PERMUTATION @ braided
            assert _algebraic_ybe_residual(algebraic) < 1e-12
            residual, ok = check_ybe(permutation_convert(algebraic))
            assert ok


def _algebraic_ybe_residual(r):
    # literal index form of the algebraic equation (sums over k1, k2, k3)
    t = np.asarray(r, dtype=complex).reshape(2, 2, 2, 2)
    lhs = np.einsum("jakm,kbln,mnpq->jablpq", t, t, t)
    rhs = np.einsum("abmn,jnkq,kmlp->jablpq", t, t, t)
    return float(np.max(np.abs(lhs - rhs)))


class TestDiscreteTransforms:
    def test_3b_involution(self):
        r = RNG.normal(size=(4, 4)) + 1j * RNG.normal(size=(4, 4))
        assert_allclose(discrete_transform(discrete_transform(r, "3b"), "3b"), r)

    def test_3c_on_xtype(self):
        h = tuple(rand_complex() for _ in range(8))
        got = discrete_transform(assemble(h), "3c")
        h1, h2, h3, h4, h5, h6, h7, h8 = h
        assert_allclose(got, assemble((h1, h2, h6, h5, h4, h3, h7, h8)))

    def test_3b_is_index_negation(self):
        r = RNG.normal(size=(4, 4)) + 1j * RNG.normal(size=(4, 4))
        got = discrete_transform(r, "3b")
        r4 = r.reshape(2, 2, 2, 2)
        expected = r4[::-1, ::-1, ::-1, ::-1].reshape(4, 4)
        assert_allclose(got, expected)

    @pytest.mark.parametrize("which", ["3a", "3b", "3c"])
    def test_transforms_preserve_ybe(self, which):
        for entry_id in ("C1.0", "C7.0", "C11.0"):
            entry = CATALOG[entry_id]
            r = assemble(entry.fill(entry.random_params(RNG)))
            residual, ok = check_ybe(discrete_transform(r, which))
            assert ok, (which, entry_id, residual)

    def test_unknown_transform(self):
        with pytest.raises(ValueError):
            discrete_transform(np.eye(4), "3d")


class TestConjugation:
    def test_trivial(self):
        r = RNG.normal(size=(4, 4)) + 1j * RNG.normal(size=(4, 4))
        assert_allclose(conjugate(r, 1, np.eye(2)), r)

    def test_preserves_ybe(self):
        entry = CATALOG["C8.0"]
        r = assemble(entry.fill(entry.random_params(RNG)))
        q = RNG.normal(size=(2, 2)) + 1j * RNG.normal(size=(2, 2))
        residual, ok = check_ybe(conjugate(r, rand_complex(), q))
        assert ok

    @pytest.mark.parametrize("call", [
        lambda r, q: conjugate(r, 1, q),
        lambda r, q: conjugate_split(r, np.eye(2), q),
    ], ids=["conjugate", "conjugate_split"])
    def test_wrong_shapes_are_refused(self, call):
        # these gave matmul's "size 4 is different from 9"
        with pytest.raises(ValueError, match=r"^expected a 4x4 two-qubit operator, got \(8, 8\)$"):
            call(np.eye(8), np.eye(2))
        with pytest.raises(ValueError, match=r"^expected 2x2 one-qubit factors, got shapes "):
            call(np.eye(4), np.eye(3))

    def test_kappa_scaling_of_invariants(self):
        r = RNG.normal(size=(4, 4)) + 1j * RNG.normal(size=(4, 4))
        kappa = rand_complex()
        q = RNG.normal(size=(2, 2)) + 1j * RNG.normal(size=(2, 2))
        a = quadratic_invariants(r)
        b = quadratic_invariants(conjugate(r, kappa, q))
        scale = max(max(abs(v) for v in a.I2), 1.0)
        assert abs(b.I1 - kappa * a.I1) < 1e-9 * scale * abs(kappa)
        for k in range(1, 9):
            assert abs(b.q(k) - kappa**2 * a.q(k)) < 1e-8 * scale * abs(kappa) ** 2
        total = kappa**2 * (a.q(9) + a.q(10))
        assert abs((b.q(9) + b.q(10)) - total) < 1e-8 * scale * abs(kappa) ** 2

    def test_transforms_preserve_invariants(self):
        r = RNG.normal(size=(4, 4)) + 1j * RNG.normal(size=(4, 4))
        a = quadratic_invariants(r)
        scale = max(max(abs(v) for v in a.I2), 1.0)
        for which in ("3a", "3b"):
            b = quadratic_invariants(discrete_transform(r, which))
            for k in range(1, 11):
                assert abs(a.q(k) - b.q(k)) < 1e-9 * scale, (which, k)
        # 3c swaps the qubit roles: pairs (2,3), (4,5), (6,7) exchange
        c = quadratic_invariants(discrete_transform(r, "3c"))
        for k, k2 in ((1, 1), (2, 3), (3, 2), (4, 5), (5, 4), (6, 7), (7, 6),
                      (8, 8), (9, 9), (10, 10)):
            assert abs(a.q(k) - c.q(k2)) < 1e-9 * scale, (k, k2)


class TestRecipes:
    def test_table_size(self):
        assert len(RECIPE_TABLE) == 40

    @pytest.mark.parametrize(
        "recipe", RECIPE_TABLE, ids=[f"{r.source}->{r.target}" for r in RECIPE_TABLE]
    )
    def test_recipe_verifies(self, recipe):
        for _ in range(5):
            base = {k: rand_complex() for k in recipe.base_params}
            assert verify_recipe(recipe, base) < 1e-9

    def test_class3_variant1_chain(self):
        recipe = next(r for r in RECIPE_TABLE if r.source == "C3.1")
        assert [s[0] for s in recipe.steps] == ["3b", "3c", "3a"]
        assert verify_recipe(recipe, {"h1": 1.3, "h7": -0.4j, "h8": 2.1}) < 1e-12

    def test_class7_split_conjugation(self):
        recipe = next(r for r in RECIPE_TABLE if r.source == "C7.0" and r.target == "C7.1")
        assert verify_recipe(recipe, {"h1": rand_complex(), "h2": rand_complex(),
                                      "h3": rand_complex()}) < 1e-12

    def test_class9_variant2_to_h23prime(self):
        recipe = next(r for r in RECIPE_TABLE if r.source == "C9.2")
        assert recipe.target == "H2,3'"
        assert verify_recipe(recipe, {"h1": rand_complex(), "h7": rand_complex()}) < 1e-12


class TestClassify:
    EXPECTED = {
        "C1.0": "H3,1", "C2.0": "H1,4",
        **{f"C3.{k}": "H1,2" for k in range(8)},
        "C4.0": "H2,1", "C4.1": "H2,1", "C5.0": "H2,2", "C5.1": "H2,2",
        "C6.0": "H1,1", "C6.1": "H1,1", "C7.0": "H1,4", "C7.1": "H3,1",
        "C8.0": "H0,2", "C8.1": "H0,2",
        "C9.0": "H0,1", "C9.1": "H0,1", "C9.2": "H2,3'", "C9.3": "H2,3'",
        **{f"C10.{k}": "H1,2" for k in range(4)},
        **{f"C11.{k}": "H1,2" for k in range(8)},
        "C12.0": "H1,1", "C12.1": "H1,1",
    }

    # every entry's chain as (source, target, comma-separated moves); a step
    # out of a family into the entry is the reversed family conjugation
    CHAINS = {
        "C1.0": [("C1.0", "H3,1", "")],
        "C2.0": [("C2.0", "H1,4", "")],
        "C3.0": [("C3.0", "H1,2", "3b")],
        "C3.1": [("C3.1", "C3.0", "3b,3c,3a"), ("C3.0", "H1,2", "3b")],
        "C3.2": [("C3.2", "C3.0", "3b,3c"), ("C3.0", "H1,2", "3b")],
        "C3.3": [("C3.3", "C3.0", "3a"), ("C3.0", "H1,2", "3b")],
        "C3.4": [("C3.4", "C3.3", "3c"), ("C3.3", "C3.0", "3a"), ("C3.0", "H1,2", "3b")],
        "C3.5": [("C3.5", "C3.1", "3a,3c"), ("C3.1", "C3.0", "3b,3c,3a"), ("C3.0", "H1,2", "3b")],
        "C3.6": [("C3.6", "C3.1", "3c"), ("C3.1", "C3.0", "3b,3c,3a"), ("C3.0", "H1,2", "3b")],
        "C3.7": [("C3.7", "C3.0", "3c"), ("C3.0", "H1,2", "3b")],
        "C4.0": [("C4.0", "H2,1", "3c")],
        "C4.1": [("C4.1", "C4.0", "3a,3c"), ("C4.0", "H2,1", "3c")],
        "C5.0": [("C5.0", "H2,2", "3c")],
        "C5.1": [("C5.1", "C5.0", "3a,3c"), ("C5.0", "H2,2", "3c")],
        "C6.0": [("H1,1", "C6.0", "conjugation (reversed)")],
        "C6.1": [("C6.1", "C6.0", "conj"), ("H1,1", "C6.0", "conjugation (reversed)")],
        "C7.0": [("H1,4", "C7.0", "conjugation (reversed)")],
        "C7.1": [("H3,1", "C7.1", "conjugation (reversed)")],
        "C8.0": [("H0,2", "C8.0", "conjugation (reversed)")],
        "C8.1": [("C8.1", "C8.0", "3c"), ("H0,2", "C8.0", "conjugation (reversed)")],
        "C9.0": [("H0,1", "C9.0", "conjugation (reversed)")],
        "C9.1": [("C9.1", "C9.0", "3a"), ("H0,1", "C9.0", "conjugation (reversed)")],
        "C9.2": [("C9.2", "H2,3'", "3a")],
        "C9.3": [("C9.3", "C9.2", "3a"), ("C9.2", "H2,3'", "3a")],
        "C10.0": [("C10.0", "H1,2", "3b")],
        "C10.1": [("C10.1", "C10.0", "3a"), ("C10.0", "H1,2", "3b")],
        "C10.2": [("C10.2", "C10.0", "3b,3a"), ("C10.0", "H1,2", "3b")],
        "C10.3": [("C10.3", "C10.2", "3a"), ("C10.2", "C10.0", "3b,3a"), ("C10.0", "H1,2", "3b")],
        "C11.0": [("C11.0", "H1,2", "3a")],
        "C11.1": [("C11.1", "C11.0", "3b,3c"), ("C11.0", "H1,2", "3a")],
        "C11.2": [("C11.2", "C11.1", "3a"), ("C11.1", "C11.0", "3b,3c"), ("C11.0", "H1,2", "3a")],
        "C11.3": [("C11.3", "C11.0", "3a"), ("C11.0", "H1,2", "3a")],
        "C11.4": [("C11.4", "C11.2", "3c"), ("C11.2", "C11.1", "3a"), ("C11.1", "C11.0", "3b,3c"),
                 ("C11.0", "H1,2", "3a")],
        "C11.5": [("C11.5", "C11.3", "3c"), ("C11.3", "C11.0", "3a"), ("C11.0", "H1,2", "3a")],
        "C11.6": [("C11.6", "C11.0", "3c"), ("C11.0", "H1,2", "3a")],
        "C11.7": [("C11.7", "C11.1", "3c"), ("C11.1", "C11.0", "3b,3c"), ("C11.0", "H1,2", "3a")],
        "C12.0": [("H1,1", "C12.0", "conjugation (reversed)")],
        "C12.1": [("C12.1", "C12.0", "3a,3b"), ("H1,1", "C12.0", "conjugation (reversed)")],
    }

    def test_every_entry_classified(self):
        for entry_id, family in self.EXPECTED.items():
            assert classify(entry_id)["family"] == family

    def test_every_chain_pinned(self):
        assert sorted(self.CHAINS) == sorted(CATALOG) == sorted(self.EXPECTED)
        for entry_id, chain in self.CHAINS.items():
            want = [{"source": src, "target": tgt, "moves": moves.split(",") if moves else []}
                    for src, tgt, moves in chain]
            assert classify(entry_id) == {"entry": entry_id, "family": self.EXPECTED[entry_id],
                                          "chain": want}, entry_id

    def test_editing_a_chain_leaves_the_table(self):
        first = classify("C3.5")
        for step in first["chain"]:
            step["moves"].reverse()
            step["moves"].append("3a")
        first["chain"].clear()
        assert [step["moves"] for step in classify("C3.5")["chain"]] == [
            ["3a", "3c"], ["3b", "3c", "3a"], ["3b"]]

    def test_a_cycle_is_refused(self, monkeypatch):
        cycle = {"C3.0": ("C3.1", ("C3.0", "C3.1", ("3c",))),
                 "C3.1": ("C3.0", ("C3.1", "C3.0", ("3c",)))}
        monkeypatch.setattr(hietarinta, "_FAMILY_STEPS", cycle)
        with pytest.raises(RuntimeError, match="does not terminate"):
            classify("C3.0")

    def test_unknown_entry(self):
        with pytest.raises(KeyError):
            classify("C99.0")

    def test_r7_pair_same_invariants_different_families(self):
        params = {"h1": rand_complex(), "h2": rand_complex(), "h3": rand_complex()}
        r7 = assemble(CATALOG["C7.0"].fill(params))
        r71 = assemble(CATALOG["C7.1"].fill(params))
        a, b = quadratic_invariants(r7), quadratic_invariants(r71)
        scale = max(max(abs(v) for v in a.I2), 1.0)
        assert abs(a.I1 - b.I1) < 1e-9 * scale
        for k in range(1, 11):
            assert abs(a.q(k) - b.q(k)) < 1e-9 * scale
        lam_a = np.sort_complex(np.linalg.eigvals(r7))
        lam_b = np.sort_complex(np.linalg.eigvals(r71))
        assert np.max(np.abs(lam_a - lam_b)) < 1e-9 * scale
        assert classify("C7.0")["family"] != classify("C7.1")["family"]


class TestAppendixB:
    def test_h13_report(self):
        params = {"k": rand_complex(), "p": rand_complex(), "q": rand_complex()}
        rep = rh_extras_report("H1,3", params)
        inv = quadratic_invariants(rep["matrix"])
        for key, value in rep["invariants"].items():
            direct = inv.I1 if key == "I1" else inv.q(int(key.split("_")[1]))
            assert abs(value - direct) < 1e-9 * max(1, abs(value)), key
        lam = np.linalg.eigvals(rep["matrix"])
        k2 = params["k"] ** 2
        assert sum(abs(v - k2) < 1e-8 * max(1, abs(k2)) for v in lam) == 3
        assert sum(abs(v + k2) < 1e-8 * max(1, abs(k2)) for v in lam) == 1
        _, ok = verify_enhancement(rep["enhanced"])
        assert ok
        for n in range(-4, 5):
            if n == 0:
                continue
            value = link_polynomial(rep["enhanced"], BraidWord(2, ((1, n),)))
            expected = 4 if n % 2 == 0 else 2
            assert abs(value - expected) < 1e-9, n
        quad = entangling_power_quadrature(rep["matrix"])
        assert abs(rep["entangling_power"] - quad) < 1e-9 * max(1, quad)

    def test_h13_invariants_at_k_two(self):
        rep = rh_extras_report("H1,3", {"k": 2, "p": rand_complex(), "q": rand_complex()})
        assert rep["invariants"]["I1"] == 8
        assert rep["invariants"]["I2_8"] == 64

    def test_h13_hecke_at_q_one(self):
        from braidgate.enhancement import hecke_witness

        params = {"k": rand_complex(), "p": rand_complex(), "q": rand_complex()}
        rep = rh_extras_report("H1,3", params)
        w = hecke_witness(rep["matrix"], rep["hecke"]["scale"], rep["hecke"]["q"])
        assert w.realized

    def test_h13_epower_example(self):
        rep = rh_extras_report("H1,3", {"k": 1, "p": 1, "q": 0})
        assert abs(rep["entangling_power"] - 1 / 9) < 1e-12

    def test_h23_report_enhanceable(self):
        k, p, s = rand_complex(), rand_complex(), rand_complex()
        rep = rh_extras_report("H2,3", {"k": k, "p": p, "q": -p, "s": s})
        assert rep["enhanceable"]
        lam = np.linalg.eigvals(rep["matrix"])
        assert sum(abs(v - k) < 1e-8 * max(1, abs(k)) for v in lam) == 3
        assert sum(abs(v + k) < 1e-8 * max(1, abs(k)) for v in lam) == 1
        _, ok = verify_enhancement(rep["enhanced"])
        assert ok
        for n in (-3, -2, 2, 3):
            value = link_polynomial(rep["enhanced"], BraidWord(2, ((1, n),)))
            expected = 4 if n % 2 == 0 else 2
            assert abs(value - expected) < 1e-9
        inv = quadratic_invariants(rep["matrix"])
        for key, value in rep["invariants"].items():
            direct = inv.I1 if key == "I1" else inv.q(int(key.split("_")[1]))
            assert abs(value - direct) < 1e-9 * max(1, abs(value))
        w = jordan_witness(rep["matrix"], rep["jordan"])
        assert w.realized
        quad = entangling_power_quadrature(rep["matrix"])
        assert abs(rep["entangling_power"] - quad) < 1e-9 * max(1, quad)

    def test_h23_unitary_not_entangler(self):
        rep = rh_extras_report("H2,3", {"k": np.exp(0.4j), "p": 0, "q": 0, "s": 0})
        assert rep["entangling_power"] < 1e-15

    def test_h23_generic_not_enhanceable(self):
        k, p, q, s = rand_complex(), rand_complex(), rand_complex(), rand_complex()
        rep = rh_extras_report("H2,3", {"k": k, "p": p, "q": q, "s": s})
        assert not rep["enhanceable"]
        sols = solve_enhancement(rep["matrix"])
        assert sols == []

    @pytest.mark.parametrize("k,p,q,verdict", [
        # |q + p| = 1e-4 is far above tol, yet the candidate verifies: its
        # residuals are judged against the operator's scale, 1e6
        (1e6, 1e6, -1e6 - 1e-4, True),
        # |q + p| = 1e-10 is below tol, yet condition (c) misses by 1e2
        (1e-6, 1e-6, -1e-6 + 1e-10, False),
    ])
    def test_h23_enhanceable_is_the_verdict(self, k, p, q, verdict):
        rep = rh_extras_report("H2,3", {"k": k, "p": p, "q": q, "s": 0})
        candidate = EnhancedOperator(R=rep["matrix"], mu=np.eye(2), x=k, y=1)
        assert rep["enhanceable"] is verify_enhancement(candidate)[1] is verdict
        assert ("enhanced" in rep) is verdict

    @pytest.mark.parametrize("which,params", [("H1,3", {"k": 0, "p": 1, "q": 2}),
                                              ("H2,3", {"k": 0, "p": 1, "q": -1, "s": 1})])
    def test_k_zero_is_refused(self, which, params):
        with pytest.raises(SingularMatrixError, match=f"{which} requires k != 0"):
            rh_extras_report(which, params)

    @pytest.mark.parametrize("which,params,power", [
        # R is linear in the parameters of H2,3 and quadratic in those of H1,3
        ("H2,3", {"k": 1, "p": 1, "q": -1, "s": 1}, 1),
        ("H1,3", {"k": 1, "p": 1, "q": -1}, 2),
    ])
    def test_a_scaled_down_operator_is_accepted(self, which, params, power):
        # singularity is judged by the condition number, which scaling R by
        # s leaves alone; I1 then scales by s and each I2 by s^2
        t = 1e-13
        s = t**power
        base = rh_extras_report(which, params)
        small = rh_extras_report(which, {k: t * v for k, v in params.items()})
        for key, value in base["invariants"].items():
            assert_allclose(small["invariants"][key], value * (s if key == "I1" else s**2),
                            rtol=1e-12)

    def test_bad_family_name(self):
        with pytest.raises(ValueError):
            rh_extras_report("H3,1", {"k": 1})

    @pytest.mark.parametrize("which", ["H1,3", "H2,3"])
    def test_class9_spectrum_and_invariants(self, which):
        # lam = k^2 for H1,3 and k for H2,3: lam three times and -lam once,
        # and class 9's invariants at lam
        rng = np.random.default_rng(29)
        for i in range(40):
            params = form_draw(which, rng)
            if which == "H2,3" and i % 2:
                params["q"] = -params["p"]  # enhanceable
            rep = rh_extras_report(which, params)
            lam = params["k"] ** 2 if which == "H1,3" else params["k"]
            assert rep["eigenvalues"] == {"value": lam, "multiplicities": (3, 1)}
            eig = np.linalg.eigvals(rep["matrix"])
            assert sum(abs(v - lam) < 1e-9 * abs(lam) for v in eig) == 3
            assert sum(abs(v + lam) < 1e-9 * abs(lam) for v in eig) == 1
            want = {"I1": 2 * lam, **{key: evaluate_expr(expr, {"lam": lam})
                                      for key, expr in _CLASS_FORMULAS[9].items()}}
            assert rep["invariants"].keys() == want.keys()
            for key, value in want.items():
                assert abs(rep["invariants"][key] - value) <= 1e-12 * abs(value), key

    def test_h13_enhancement_is_verified(self):
        rng = np.random.default_rng(30)
        for _ in range(40):
            rep = rh_extras_report("H1,3", form_draw("H1,3", rng))
            assert rep["enhanceable"] is verify_enhancement(rep["enhanced"])[1] is True
