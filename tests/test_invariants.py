import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from braidgate.invariants import (
    INDEPENDENT_COUNTS,
    _CLASS_FORMULAS,
    _DEGREES,
    _DEPENDENCE_RELATIONS,
    _W,
    check_identities,
    class_eigen_report,
    contraction_oracle,
    linear_invariant,
    quadratic_invariants,
    random_sl2,
    reconstruct_params,
    xtype_closed_forms,
)
from braidgate.matrix_core import eigenvalues_xtype, max_norm, tensor_product
from braidgate.yang_baxter import CATALOG, XTypeParams, assemble, compile_expr

RNG = np.random.default_rng(31)


def rand_complex(rng=RNG):
    return complex(rng.normal(), rng.normal())


def rand_matrix(rng=RNG):
    return rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))


def rand_xtype_params(rng=RNG):
    return XTypeParams(*(rand_complex(rng) for _ in range(8)))


def _symbolic_invariants(entry):
    """The entry's free parameters as sympy symbols, an evaluator of table
    expressions over sympy values, and the X-type closed forms of the entry's
    h slots as functions of the free parameters."""
    sympy = pytest.importorskip("sympy")
    env = {"__builtins__": {}, "sqrt": sympy.sqrt, "abs": sympy.Abs, "I": sympy.I}

    def value(expr, names):
        # rational=True turns complex literals such as (1-1j)/2 exact
        return sympy.nsimplify(eval(compile_expr(expr), env, dict(names)), rational=True)

    free = {k: sympy.Symbol(k) for k in entry.free_params}
    h = dict(free)
    h.update((slot, value(expr, free)) for slot, expr in entry.constraints.items())
    return free, value, xtype_closed_forms(tuple(h[f"h{k}"] for k in range(1, 9)))


class TestLinearInvariant:
    def test_identity(self):
        assert linear_invariant(np.eye(4)) == 4

    def test_xtype_is_trace_and_eigensum(self):
        h = XTypeParams(*(rand_complex() for _ in range(8)))
        i1 = linear_invariant(assemble(h))
        assert_allclose(i1, h.h1 + h.h3 + h.h6 + h.h8)
        assert_allclose(i1, sum(eigenvalues_xtype(h)))

    def test_swap(self):
        assert linear_invariant(assemble(XTypeParams(h1=1, h4=1, h5=1, h8=1))) == 2


class TestQuadraticInvariants:
    def test_identity_values(self):
        inv = quadratic_invariants(np.eye(4))
        assert_allclose(inv.q(1), 4)
        assert_allclose(inv.q(4), 4)
        assert_allclose(inv.q(8), 4)
        assert_allclose(inv.q(9), 8)
        assert_allclose(inv.q(10), 8)
        assert_allclose(inv.I1**2, inv.q(9) + inv.q(10))

    def test_class1_closed_values(self):
        h1, h4, h5, h8 = (rand_complex() for _ in range(4))
        inv = quadratic_invariants(assemble(XTypeParams(h1=h1, h4=h4, h5=h5, h8=h8)))
        assert_allclose(inv.q(4), -2 * h4 * h5)
        assert_allclose(inv.q(5), -2 * h4 * h5)
        assert_allclose(inv.q(9), h1**2 + h8**2)
        assert_allclose(inv.q(10), 2 * h1 * h8)

    def test_oracle_equivalence(self):
        for _ in range(10):
            r = rand_matrix()
            inv = quadratic_invariants(r)
            assert abs(contraction_oracle(r, "I1") - inv.I1) < 1e-10
            for k in range(1, 11):
                assert abs(contraction_oracle(r, f"I2_{k}") - inv.q(k)) < 1e-10

    def test_table_is_the_polarised_oracle(self):
        # B(E_a, E_b) = (Q(E_a + E_b) - Q(E_a) - Q(E_b)) / 2 on the 16 basis
        # matrices gives the symmetric part of each bilinear form exactly
        basis = np.eye(16).reshape(16, 4, 4)
        for k in range(1, 11):
            diag = [contraction_oracle(basis[a], f"I2_{k}") for a in range(16)]
            polar = np.diag(diag)
            for a in range(16):
                for b in range(a + 1, 16):
                    q = contraction_oracle(basis[a] + basis[b], f"I2_{k}")
                    polar[a, b] = polar[b, a] = (q - diag[a] - diag[b]) / 2
            assert np.array_equal(polar, (_W[k - 1] + _W[k - 1].T) / 2), k

    def test_table_entries_are_signs(self):
        assert _W.shape == (10, 16, 16)
        assert set(np.unique(_W)) <= {-1.0, 0.0, 1.0}

    def test_oracle_rejects_unknown_id(self):
        with pytest.raises(ValueError):
            contraction_oracle(np.eye(4), "I2_11")

    def test_json_keys(self):
        blob = quadratic_invariants(np.eye(4)).to_json()
        assert set(blob) == {"I1"} | {f"I2_{k}" for k in range(1, 11)}
        assert blob["I1"] == [4.0, 0.0]


class TestIdentities:
    def test_identity_matrix(self):
        assert max(check_identities(quadratic_invariants(np.eye(4)))) < 1e-12

    def test_random_dense(self):
        for _ in range(50):
            res = check_identities(quadratic_invariants(rand_matrix()))
            assert max(res) < 1e-9

    def test_class7_instance(self):
        h = CATALOG["C7.0"].fill({"h1": 1, "h2": 1, "h3": 2})
        res = check_identities(quadratic_invariants(assemble(h)))
        assert max(res) < 1e-12


class TestXTypeClosedForms:
    def test_swap_i28(self):
        cf = xtype_closed_forms(XTypeParams(h1=1, h4=1, h5=1, h8=1))
        assert cf["I2_8"] == 4

    def test_matches_direct(self):
        h = XTypeParams(*(rand_complex() for _ in range(8)))
        cf = xtype_closed_forms(h)
        inv = quadratic_invariants(assemble(h))
        assert abs(cf["I1"] - inv.I1) < 1e-12
        for k in (4, 5, 8, 9, 10):
            assert abs(cf[f"I2_{k}"] - inv.q(k)) < 1e-10

    def test_i29_second_form(self):
        h = XTypeParams(*(rand_complex() for _ in range(8)))
        cf = xtype_closed_forms(h)
        alt = ((h.h1 - h.h8) ** 2 + (h.h1 + h.h3) * (h.h6 + h.h8)
               + (h.h1 + h.h6) * (h.h3 + h.h8))
        assert_allclose(cf["I2_9"], alt)


class TestLocalInvariance:
    def test_conjugation_preserves_one_copy_invariants(self):
        # I1 and I2_1..I2_8 are invariant under independent (Q1, Q2); the
        # two-copy pair I2_9, I2_10 is invariant only through its sum (= I1^2)
        rng = np.random.default_rng(13)
        for _ in range(100):
            r = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            q = tensor_product(random_sl2(rng), random_sl2(rng))
            r2 = q @ r @ np.linalg.inv(q)
            a, b = quadratic_invariants(r), quadratic_invariants(r2)
            scale = max(max(abs(v) for v in a.I2), abs(a.I1), 1.0)
            assert abs(a.I1 - b.I1) < 1e-8 * scale
            for k in range(1, 9):
                assert abs(a.q(k) - b.q(k)) < 1e-8 * scale
            assert abs((a.q(9) + a.q(10)) - (b.q(9) + b.q(10))) < 1e-8 * scale

    def test_two_copy_invariants_need_diagonal_action(self):
        rng = np.random.default_rng(14)
        deviation = 0.0
        for _ in range(50):
            r = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            q1, q2 = random_sl2(rng), random_sl2(rng)
            scale = max(abs(quadratic_invariants(r).q(9)), 1.0)
            # diagonal Q x Q preserves all ten
            qq = tensor_product(q1, q1)
            c = quadratic_invariants(qq @ r @ np.linalg.inv(qq))
            a = quadratic_invariants(r)
            for k in range(1, 11):
                assert abs(a.q(k) - c.q(k)) < 1e-7 * max(abs(a.q(k)), scale)
            # generic Q1 x Q2 moves I2_9: record the witness
            qq = tensor_product(q1, q2)
            b = quadratic_invariants(qq @ r @ np.linalg.inv(qq))
            deviation = max(deviation, abs(a.q(9) - b.q(9)) / scale)
        assert deviation > 1e-3  # demonstrably not an independent invariant


class TestReconstruction:
    def test_identity(self):
        h = XTypeParams(h1=1, h3=1, h6=1, h8=1)
        rec = reconstruct_params(quadratic_invariants(assemble(h)), eigenvalues_xtype(h))
        assert_allclose([rec["h1"], rec["h3"], rec["h6"], rec["h8"]], [1, 1, 1, 1])
        assert abs(rec["h2h7"]) < 1e-12 and abs(rec["h4h5"]) < 1e-12

    def test_random_roundtrip_unordered(self):
        for _ in range(50):
            h = XTypeParams(*(rand_complex() for _ in range(8)))
            rec = reconstruct_params(
                quadratic_invariants(assemble(h)), eigenvalues_xtype(h)
            )
            got_outer = sorted([rec["h1"], rec["h8"]], key=lambda z: (z.real, z.imag))
            want_outer = sorted([h.h1, h.h8], key=lambda z: (z.real, z.imag))
            got_inner = sorted([rec["h3"], rec["h6"]], key=lambda z: (z.real, z.imag))
            want_inner = sorted([h.h3, h.h6], key=lambda z: (z.real, z.imag))
            assert_allclose(got_outer, want_outer, atol=1e-9)
            assert_allclose(got_inner, want_inner, atol=1e-9)
            assert abs(rec["h2h7"] - h.h2 * h.h7) < 1e-9
            assert abs(rec["h4h5"] - h.h4 * h.h5) < 1e-9

    def test_inconsistent_inputs_flagged(self):
        h = rand_xtype_params()
        inv = quadratic_invariants(assemble(h))
        wrong = tuple(v + 10 for v in eigenvalues_xtype(h))
        with pytest.raises(ValueError):
            reconstruct_params(inv, wrong)

    def test_class2_h2h7_formula(self):
        h2, h3, h7 = (rand_complex() for _ in range(3))
        h = CATALOG["C2.0"].fill({"h2": h2, "h3": h3, "h7": h7})
        inv = quadratic_invariants(assemble(h))
        lam = eigenvalues_xtype(h)
        val = ((lam[0] - lam[1]) ** 2 - inv.q(9) + inv.q(8)
               + (inv.q(4) + inv.q(5)) / 2) / 4
        assert abs(val - h2 * h7) < 1e-9


class TestClassEigenReports:
    def test_class3_values(self):
        rep = class_eigen_report(CATALOG["C3.0"], {"h1": 1, "h8": 2, "h7": rand_complex()})
        assert abs(rep.closed["I2_8"]) < 1e-12
        assert_allclose(rep.closed["I2_9"], 14)
        assert rep.passed and rep.independent_count == 2

    def test_class8_values(self):
        rep = class_eigen_report(CATALOG["C8.0"], {"h1": 1, "h2": rand_complex()})
        assert_allclose(rep.closed["I2_4"], 8)
        assert_allclose(rep.closed["I2_9"], 8)
        assert rep.passed and rep.independent_count == 1

    def test_class11_values(self):
        rep = class_eigen_report(CATALOG["C11.0"], {"h8": 1, "h7": rand_complex()})
        assert_allclose(rep.closed["I2_10"], 10)
        assert rep.passed

    def test_class1_dependence(self):
        params = {"h1": rand_complex(), "h4": rand_complex(),
                  "h5": rand_complex(), "h8": rand_complex()}
        rep = class_eigen_report(CATALOG["C1.0"], params)
        i = rep.direct
        assert abs(i["I2_8"] - (i["I2_10"] - i["I2_4"])) < 1e-9
        assert rep.independent_count == 3

    def test_class7_dependence(self):
        rep = class_eigen_report(
            CATALOG["C7.0"],
            {"h1": rand_complex(), "h2": rand_complex(), "h3": rand_complex()},
        )
        i = rep.direct
        assert abs(i["I2_8"] - (i["I2_9"] - i["I2_4"])) < 1e-9

    @pytest.mark.parametrize("entry_id", sorted(CATALOG))
    def test_all_entries_pass(self, entry_id):
        entry = CATALOG[entry_id]
        for _ in range(5):
            rep = class_eigen_report(entry, entry.random_params(RNG))
            assert rep.passed, f"{entry_id}: diff {rep.max_diff}"

    @pytest.mark.parametrize("entry_id", sorted(CATALOG))
    def test_formulas_hold_symbolically(self, entry_id):
        # criterion 04: the class's eigenvalue formulas equal the X-type
        # closed forms of the entry's h slots, as rational functions of the
        # free parameters, for the five quadratic invariants
        sympy = pytest.importorskip("sympy")
        entry = CATALOG[entry_id]
        free, value, direct = _symbolic_invariants(entry)
        eigen = {name: value(expr, free) for name, expr in entry.eigen_named.items()}
        formulas = _CLASS_FORMULAS[entry.class_id]
        assert sorted(formulas) == ["I2_10", "I2_4", "I2_5", "I2_8", "I2_9"]
        for key, formula in formulas.items():
            assert sympy.cancel(value(formula, eigen) - direct[key]) == 0, key

    @pytest.mark.parametrize("entry_id", sorted(CATALOG))
    def test_dependence_relations_hold_symbolically(self, entry_id):
        # each of the class's relations vanishes identically on the X-type
        # closed forms of the entry's h slots; the relation plus I2_9/7 does not
        sympy = pytest.importorskip("sympy")
        entry = CATALOG[entry_id]
        _, value, direct = _symbolic_invariants(entry)
        relations = _DEPENDENCE_RELATIONS[entry.class_id]
        assert relations
        for relation in relations:
            assert sympy.cancel(value(relation, direct)) == 0, relation
            assert sympy.cancel(value(relation + "+I2_9/7", direct)) != 0, relation

    def test_relation_degrees(self):
        # the report judges a relation of degree d against s^d: each relation
        # is homogeneous of the degree its probe finds, and two are quadratic
        sympy = pytest.importorskip("sympy")
        _, value, _ = _symbolic_invariants(CATALOG["C1.0"])
        t = sympy.Symbol("t")
        invariants = {f"I2_{k}": sympy.Symbol(f"I2_{k}") for k in (4, 5, 8, 9, 10)}
        for relation, degree in _DEGREES.items():
            scaled = value(relation, {k: t * v for k, v in invariants.items()})
            assert sympy.cancel(scaled - t**degree * value(relation, invariants)) == 0, relation
        assert sorted(_DEGREES.values()) == [1] * 14 + [2] * 2

    def test_counts_table(self):
        assert INDEPENDENT_COUNTS == {1: 3, 2: 2, 3: 2, 4: 2, 5: 2, 6: 2,
                                      7: 2, 8: 1, 9: 1, 10: 1, 11: 1, 12: 1}


@given(st.lists(st.complex_numbers(max_magnitude=5, allow_nan=False,
                                   allow_infinity=False),
                min_size=16, max_size=16))
@settings(max_examples=50, deadline=None)
def test_identities_hold_for_arbitrary_matrices(values):
    r = np.array(values).reshape(4, 4)
    inv = quadratic_invariants(r)
    scale = max(max(abs(v) for v in inv.I2), abs(inv.I1) ** 2, 1.0)
    assert max(check_identities(inv)) < 1e-9 * scale
