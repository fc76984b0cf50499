import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from braidgate.enhancement import (_BMW_ROWS, _HECKE_ROWS, _JORDAN_ROWS, RECIPES,
                                   class_bmw_params, class_hecke_params, class_jordan_coeffs,
                                   instantiate_recipe)
from braidgate.entangling_power import _CLASS_EPOWER, class_epower
from braidgate.hietarinta import RECIPE_TABLE, hietarinta_assemble, rh_extras_report, verify_recipe
from braidgate.invariants import _CLASS_FORMULAS, _DEPENDENCE_RELATIONS
from braidgate.matrix_core import (I2, PAULI_X, PAULI_Y, PAULI_Z, RANK_TOL, XTYPE_SUPPORT, max_norm,
                                   numerical_rank, tensor_product)
from braidgate.yang_baxter import (
    BraidWord,
    CATALOG,
    InadmissibleParamsError,
    XTypeParams,
    assemble,
    bind,
    braid_rep,
    catalog_entry,
    check_ybe,
    compile_expr,
    lie_orbit_rank,
    pauli_expand,
    rep_of_word,
)

RNG = np.random.default_rng(7)

SWAP = XTypeParams(h1=1, h4=1, h5=1, h8=1)


def rand_complex(rng=RNG):
    return complex(rng.normal(), rng.normal())


class TestAssemble:
    def test_identity(self):
        assert_allclose(assemble(XTypeParams(h1=1, h3=1, h6=1, h8=1)), np.eye(4))

    def test_swap_permutation(self):
        p = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
        assert_allclose(assemble(SWAP), p)

    def test_single_entry_placement(self):
        r = assemble(XTypeParams(h2=7))
        assert r[0, 3] == 7
        assert np.count_nonzero(r) == 1

    def test_support_reads_slots_in_order(self):
        assert_allclose(assemble(range(1, 9))[XTYPE_SUPPORT], np.arange(1, 9))

    def test_params_are_their_own_tuple(self):
        h = XTypeParams(1, 2, 3, h8=8)
        assert isinstance(h, tuple)
        assert h == (1, 2, 3, 0, 0, 0, 0, 8)
        assert h.h3 == 3 and h.h4 == 0
        with pytest.raises(AttributeError):
            h.h1 = 5

    @pytest.mark.parametrize("h", [range(7), range(9)], ids=["seven", "nine"])
    def test_refuses_a_wrong_count(self, h):
        with pytest.raises(ValueError, match="expected eight X-type parameters"):
            assemble(h)

    @pytest.mark.parametrize("h", [1.0, np.complex128(2)], ids=["float", "numpy"])
    def test_refuses_a_bare_scalar(self, h):
        # the mask would broadcast one value into all eight slots
        with pytest.raises(TypeError):
            assemble(h)


class TestCheckYBE:
    def test_identity_true(self):
        residual, ok = check_ybe(np.eye(4))
        assert residual == 0 and ok

    def test_class1_instance(self):
        h = CATALOG["C1.0"].fill({"h1": 1, "h4": 2, "h5": 3, "h8": 4})
        residual, ok = check_ybe(assemble(h))
        assert ok and residual < 1e-12

    def test_all_ones_is_not_a_ybo(self):
        # satisfies the equation identically but is singular
        residual, ok = check_ybe(assemble([1] * 8))
        assert not ok

    def test_generic_xtype_fails(self):
        r = assemble([1, 2, 3, 4, 5, 6, 7, 8])
        residual, ok = check_ybe(r)
        assert not ok and residual > 1.0

    @pytest.mark.parametrize("scale", [1e-4, 1.0, 1e4])
    def test_verdict_does_not_depend_on_the_scale(self, scale):
        # the residual is judged against max|R|^3: a non-solution scaled down
        # does not pass, and a solution scaled either way does not fail
        rng = np.random.default_rng(1)
        for _ in range(20):
            assert not check_ybe(scale * rng.normal(size=(4, 4)))[1]
        for entry in CATALOG.values():
            r = assemble(entry.fill(entry.random_params(rng)))
            assert check_ybe(scale * r)[1], entry.entry_id

    @pytest.mark.parametrize("scale", [1e-150, 1e-300])
    def test_tiny_operator_keeps_its_verdict(self, scale):
        # max|R|^3 underflows here, and so does the rounding of every product
        # of three R; 2^512 R, checked in its place, keeps the verdicts apart
        r = assemble(CATALOG["C1.0"].fill({"h1": 1, "h4": 2, "h5": 3, "h8": 4}))
        assert check_ybe(scale * r) == (0.0, True)
        assert not check_ybe(scale * assemble([1, 2, 3, 4, 5, 6, 7, 8]))[1]


class TestBraidRep:
    def test_two_strands_is_r(self):
        r = assemble(SWAP)
        assert_allclose(braid_rep(r, 1, 2), r)

    def test_identity_lifts(self):
        assert_allclose(braid_rep(np.eye(4), 2, 3), np.eye(8))

    def test_far_commutativity(self):
        entry = CATALOG["C7.0"]
        r = assemble(entry.fill(entry.random_params(RNG)))
        g1 = braid_rep(r, 1, 4)
        g3 = braid_rep(r, 3, 4)
        assert max_norm(g1 @ g3 - g3 @ g1) < 1e-12

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            braid_rep(np.eye(4), 3, 3)
        with pytest.raises(ValueError):
            braid_rep(np.eye(4), 0, 2)


class TestBraidWord:
    def test_parse(self):
        w = BraidWord.parse("s1^3 s2^-1")
        assert w.strands == 3
        assert w.letters == ((1, 3), (2, -1))
        assert str(w) == "s1^3 s2^-1"

    def test_parse_default_exponent(self):
        assert BraidWord.parse("s2", strands=4).letters == ((2, 1),)

    @pytest.mark.parametrize("token", ["s1^", "s^2", "sx", "x1", "s1^2^3"])
    def test_parse_names_a_bad_token(self, token):
        with pytest.raises(ValueError, match=re.escape(f"bad braid token {token!r}")):
            BraidWord.parse(f"s1^2 {token}")

    def test_canonicalization_merges(self):
        w = BraidWord(2, ((1, 2), (1, -2), (1, 1)))
        assert w.letters == ((1, 1),)

    def test_canonicalization_commutes_far_letters(self):
        # s1 s3 s1^-1 = s3, but s1 s2 s1 keeps its three letters
        assert BraidWord(4, ((1, 1), (3, 1), (1, -1))).letters == ((3, 1),)
        assert BraidWord(4, ((1, 1), (2, 1), (1, 1))).letters == ((1, 1), (2, 1), (1, 1))

    def test_writhe(self):
        assert BraidWord.parse("s1^3 s2^-1").writhe() == 2
        assert BraidWord(2, ((1, -2),)).writhe() == -2
        assert BraidWord(2).writhe() == 0

    @pytest.mark.parametrize("text", ["s0", "s0^2"])
    def test_parse_names_generator_zero(self, text):
        # the inferred strand count is at least 2, so s0 is out of range
        with pytest.raises(ValueError, match="generator s0 out of range for 2 strands"):
            BraidWord.parse(text)
        assert BraidWord.parse("").strands == 2

    def test_range_checks(self):
        with pytest.raises(ValueError):
            BraidWord(2, ((2, 1),))
        with pytest.raises(ValueError):
            BraidWord(1, ())


class TestRepOfWord:
    def test_empty_word(self):
        assert_allclose(rep_of_word(assemble(SWAP), BraidWord(2)), np.eye(4))

    def test_single_letter(self):
        p = assemble(SWAP)
        assert_allclose(rep_of_word(p, BraidWord(2, ((1, 1),))), p)

    def test_negative_exponent(self):
        entry = CATALOG["C1.0"]
        r = assemble(entry.fill(entry.random_params(RNG)))
        w = BraidWord(2, ((1, -2),))
        assert_allclose(rep_of_word(r, w), np.linalg.matrix_power(np.linalg.inv(r), 2))

    @pytest.mark.parametrize("class_id", range(1, 13))
    def test_braid_relation(self, class_id):
        entry = CATALOG[f"C{class_id}.0"]
        r = assemble(entry.fill(entry.random_params(RNG)))
        lhs = rep_of_word(r, BraidWord(3, ((1, 1), (2, 1), (1, 1))))
        rhs = rep_of_word(r, BraidWord(3, ((2, 1), (1, 1), (2, 1))))
        scale = max(max_norm(lhs), 1.0)
        assert max_norm(lhs - rhs) < 1e-9 * scale

    @pytest.mark.parametrize("entry_id", sorted(CATALOG))
    def test_braid_relation_four_strands(self, entry_id):
        entry = CATALOG[entry_id]
        r = assemble(entry.fill(entry.random_params(RNG)))
        for i in (1, 2):
            lhs = rep_of_word(r, BraidWord(4, ((i, 1), (i + 1, 1), (i, 1))))
            rhs = rep_of_word(r, BraidWord(4, ((i + 1, 1), (i, 1), (i + 1, 1))))
            assert max_norm(lhs - rhs) < 1e-9 * max(max_norm(lhs), 1.0), (entry_id, i)


class TestCatalog:
    def test_total_and_per_class_counts(self):
        assert len(CATALOG) == 38
        counts = {}
        for entry in CATALOG.values():
            counts[entry.class_id] = counts.get(entry.class_id, 0) + 1
        assert counts == {1: 1, 2: 1, 3: 8, 4: 2, 5: 2, 6: 2, 7: 2, 8: 2, 9: 4, 10: 4, 11: 8,
                          12: 2}

    def test_instantiate_class3(self):
        h = CATALOG["C3.0"].fill({"h1": 1, "h8": 2, "h7": 5})
        assert h == (1, 0, 0, -1, 2, 3, 5, 2)

    def test_instantiate_class8(self):
        h = CATALOG["C8.0"].fill({"h1": 1, "h2": 1})
        assert h == (1, 1, 1, -1, 1, 1, -1, 1)

    def test_instantiate_class12(self):
        h = CATALOG["C12.0"].fill({"h1": 2, "h2": 1})
        assert h.h3 == 1 - 1j and h.h6 == 1 - 1j
        assert h.h8 == -2j and h.h7 == -2j

    def test_inadmissible_rejected(self):
        with pytest.raises(InadmissibleParamsError):
            CATALOG["C4.0"].fill({"h1": 1, "h4": 0, "h6": 1})
        with pytest.raises(InadmissibleParamsError):
            CATALOG["C6.0"].fill({"h1": 1, "h2": 0, "h8": 1})
        # a missing or an extra name is the binder's ValueError, not a domain error
        for params in ({"h1": 1}, {"h1": 1, "h4": 1, "h5": 1, "h8": 1, "h2": 1}):
            with pytest.raises(ValueError) as exc:
                CATALOG["C1.0"].fill(params)
            assert exc.type is ValueError

    def test_unknown_id(self):
        with pytest.raises(KeyError):
            catalog_entry("C13.0")

    @pytest.mark.parametrize("entry_id", sorted(CATALOG))
    def test_every_variant_is_a_ybo(self, entry_id):
        entry = CATALOG[entry_id]
        for _ in range(3):
            h = entry.fill(entry.random_params(RNG))
            residual, ok = check_ybe(assemble(h))
            assert ok, f"{entry_id}: residual {residual}"


def _strings(obj):
    if isinstance(obj, str):
        yield obj
    else:
        for item in obj:
            yield from _strings(item)


def _let_expressions(record, names, let):
    """(record, names, [expr]) for each ``let`` entry, which sees only the
    names before it; ``names`` gains each one."""
    for name, expr in let.items():
        yield f"{record}.let.{name}", set(names), [expr]
        names.add(name)


def _table_expressions():
    """(record, names it may use, its expression strings) for every table."""
    for eid, entry in CATALOG.items():
        exprs = [*entry.constraints.values(), *entry.eigen_named.values()]
        yield eid, set(entry.free_params), exprs
        # every entry of a class names the eigenvalue combinations its formulas use
        yield f"{eid}.formulas", set(entry.eigen_named), _CLASS_FORMULAS[entry.class_id].values()
    invariants = {f"I2_{k}" for k in (4, 5, 8, 9, 10)}
    for cls, relations in _DEPENDENCE_RELATIONS.items():
        yield f"C{cls}.relations", invariants, relations
    for cls, expr in _CLASS_EPOWER.items():
        yield f"C{cls}.epower", set(CATALOG[f"C{cls}.0"].free_params), [expr]
    for rid, recipe in RECIPES.items():
        names = set(recipe.free_params)
        yield rid, names, list(recipe.constraints.values())
        yield from _let_expressions(rid, names, recipe.let)
        yield rid, names, [*recipe.mu, recipe.x, recipe.y]
    for kind, rows in (("bmw", _BMW_ROWS), ("hecke", _HECKE_ROWS), ("jordan", _JORDAN_ROWS)):
        for cls, row in rows.items():
            names = set(CATALOG[f"C{str(cls).split('.')[0]}.0"].free_params) - set(row.pins)
            yield from _let_expressions(f"C{cls}.{kind}", names, row.let)
            yield f"C{cls}.{kind}", names, row.exprs.values()
    for recipe in RECIPE_TABLE:
        exprs = [*(recipe.source_params or {}).values(),
                 *(recipe.target_params or {}).values(),
                 *(e for step in recipe.steps for e in _strings(step[1:]))]
        yield f"{recipe.source}->{recipe.target}", set(recipe.base_params), exprs


class TestTableExpressions:
    def test_parameter_lists_derive_from_the_catalog(self):
        # a recipe's free_params, a row's names and an equivalence's
        # base_params are the catalog's free parameters less the pinned ones,
        # so every pin must be one of them and every equivalence needs a
        # catalog side
        pins = [(rid, RECIPES[rid].class_id, set(RECIPES[rid].constraints)) for rid in RECIPES]
        for rows in (_BMW_ROWS, _HECKE_ROWS, _JORDAN_ROWS):
            pins += [(key, int(str(key).split(".")[0]), set(row.pins)) for key, row in rows.items()]
        for record, cls, pinned in pins:
            assert pinned <= set(CATALOG[f"C{cls}.0"].free_params), (record, pinned)
        assert all(r.source in CATALOG or r.target in CATALOG for r in RECIPE_TABLE)

    def test_names_are_the_records_parameters(self):
        count = 0
        for record, params, exprs in _table_expressions():
            for expr in exprs:
                names = set(compile_expr(expr).co_names)
                assert names <= params | {"sqrt", "abs", "I"}, (record, expr, names)
                count += 1
        assert count > 900

    @pytest.mark.parametrize("entry_id", sorted(CATALOG))
    def test_entry_solves_ybe_symbolically(self, entry_id):
        sympy = pytest.importorskip("sympy")
        entry = CATALOG[entry_id]
        free = {k: sympy.Symbol(k) for k in entry.free_params}
        env = {"__builtins__": {}, "sqrt": sympy.sqrt, "I": sympy.I}
        h = dict(free)
        for slot, expr in entry.constraints.items():
            # rational=True turns complex literals such as (1-1j)/2 exact
            h[slot] = sympy.nsimplify(eval(compile_expr(expr), env, free), rational=True)
        r = sympy.zeros(4, 4)
        for (i, j), k in zip(np.argwhere(XTYPE_SUPPORT), range(1, 9)):
            r[i, j] = h[f"h{k}"]
        a = sympy.kronecker_product(r, sympy.eye(2))
        b = sympy.kronecker_product(sympy.eye(2), r)
        residual = a * b * a - b * a * b
        assert all(sympy.cancel(v) == 0 for v in residual), entry_id
        assert sympy.cancel(r.det()) != 0, entry_id


_H11_TO_C6 = next(r for r in RECIPE_TABLE if (r.source, r.target) == ("H1,1", "C6.0"))

# site -> (call, its exact parameters, one name it does not take)
_BINDERS = {
    "fill": (CATALOG["C1.0"].fill, {"h1": 1, "h4": 2, "h5": 3, "h8": 4}, "h2"),
    # C1.I pins h8 = h1, so an h8 of the caller's was once dropped unread
    "instantiate_recipe": (lambda p: instantiate_recipe("C1.I", p),
                           {"h1": 1, "h4": 2, "h5": 3}, "h8"),
    "hietarinta_assemble": (lambda p: hietarinta_assemble("H1,3", p),
                            {"k": 1, "p": 2, "q": 3}, "s"),
    # a parameter named sqrt would shadow the tables' square root
    "verify_recipe": (lambda p: verify_recipe(_H11_TO_C6, p),
                      {"h1": 1, "h2": 1, "h8": 2}, "sqrt"),
    "rh_extras_report": (lambda p: rh_extras_report("H1,3", p), {"k": 1, "p": 1, "q": 1}, "typo"),
    # BMW holds for class 1 at h8 = h1 only, as recipe C1.I pins it
    "class_bmw_params": (lambda p: class_bmw_params(1, p), {"h1": 1, "h4": 4, "h5": 4}, "h8"),
    "class_hecke_params": (lambda p: class_hecke_params(3, p),
                           {"h1": 1, "h7": 1, "h8": 2}, "bogus"),
    # the muZ identity holds at h8 = -h1 only, as recipe C1.Z pins it
    "class_jordan_coeffs": (lambda p: class_jordan_coeffs(1, p, "muZ"),
                            {"h1": 1, "h4": 2, "h5": 3}, "h8"),
    # the class formula reads the parameters too, so it must not see them first
    "class_epower": (lambda p: class_epower(CATALOG["C1.0"], p),
                     {"h1": 1, "h4": 2, "h5": 3, "h8": 4}, "h2"),
}


class TestBind:
    @pytest.mark.parametrize("change", ["missing", "unknown"])
    @pytest.mark.parametrize("site", sorted(_BINDERS))
    def test_refuses_a_missing_or_unknown_name(self, site, change):
        call, params, unknown = _BINDERS[site]
        call(params)
        bad = dict(params)
        if change == "missing":
            name, _ = bad.popitem()
        else:
            name = unknown
            bad[name] = 1
        with pytest.raises(ValueError) as exc:
            call(bad)
        # neither the domain error of a nonzero constraint nor a NameError
        # from evaluating a table expression without the name
        assert exc.type is ValueError
        assert f"takes parameters {list(params)}" in str(exc.value)
        assert f"{change} [{name!r}]" in str(exc.value)

    def test_values_are_complex_in_the_named_order(self):
        got = bind("C1.0", ("h1", "h4"), {"h4": 2, "h1": np.float64(1.5)})
        assert list(got) == ["h1", "h4"] and got == {"h1": 1.5 + 0j, "h4": 2 + 0j}
        assert all(type(v) is complex for v in got.values())


class TestPauliExpansion:
    def test_identity(self):
        pe = pauli_expand(XTypeParams(h1=1, h3=1, h6=1, h8=1))
        assert pe.l == 1
        assert all(v == 0 for v in (pe.a3, pe.a6, pe.b9, pe.b1, pe.b2, pe.b4, pe.b5))

    def test_xx_component(self):
        pe = pauli_expand(XTypeParams(h2=1, h4=1, h5=1, h7=1))
        assert pe.b1 == 1 and pe.b2 == 0 and pe.b4 == 0 and pe.b5 == 0

    def test_roundtrip_float(self):
        for _ in range(20):
            h = XTypeParams(*(rand_complex() for _ in range(8)))
            assert max_norm(pauli_expand(h).reassemble() - assemble(h)) < 1e-14

    def test_coefficients_are_traces_with_their_words(self):
        # each coefficient is tr(P R) / 4 with its own word, built here by
        # np.kron, so a swapped label fails
        words = {"l": (I2, I2), "a3": (PAULI_Z, I2), "a6": (I2, PAULI_Z),
                 "b9": (PAULI_Z, PAULI_Z), "b1": (PAULI_X, PAULI_X), "b2": (PAULI_X, PAULI_Y),
                 "b4": (PAULI_Y, PAULI_X), "b5": (PAULI_Y, PAULI_Y)}
        rng = np.random.default_rng(28)
        for _ in range(10):
            h = XTypeParams(*(rand_complex(rng) for _ in range(8)))
            r = assemble(h)
            pe = pauli_expand(h)
            assert pe._fields == tuple(words) and len(pe) == 8
            for name, (p, q) in words.items():
                want = np.trace(np.kron(p, q) @ r) / 4
                assert abs(getattr(pe, name) - want) <= 1e-15 * max_norm(r)

    def test_refuses_seven_parameters(self):
        with pytest.raises(ValueError, match="^expected eight X-type parameters$"):
            pauli_expand([1] * 7)

    @given(st.lists(st.tuples(st.integers(-8, 8), st.integers(-8, 8)),
                    min_size=8, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_exact_on_gaussian_integers(self, pairs):
        # dyadic inputs make the quarter-sum arithmetic exact in binary floats
        h = XTypeParams(*(complex(a, b) for a, b in pairs))
        assert np.array_equal(pauli_expand(h).reassemble(), assemble(h))


def orbit_oracle(r):
    """lie_orbit_rank with one kron per generator, as it was first written,
    with both flags judged against RANK_TOL max|R|."""
    rows, report, tol = [], {}, RANK_TOL * max_norm(r)
    for name, g, pos in (("X1", PAULI_X, 1), ("Y1", PAULI_Y, 1), ("Z1", PAULI_Z, 1),
                         ("X2", PAULI_X, 2), ("Y2", PAULI_Y, 2), ("Z2", PAULI_Z, 2)):
        full = tensor_product(g, I2) if pos == 1 else tensor_product(I2, g)
        comm = full @ r - r @ full
        rows.append(comm.ravel())
        report[name] = {"nonzero": max_norm(comm) > tol,
                        "preserves_xtype": max_norm(comm[~XTYPE_SUPPORT]) <= tol}
    return numerical_rank(np.array(rows)), report


class TestLieOrbit:
    def test_matches_oracle_on_xtype_operators(self):
        rng = np.random.default_rng(15)
        ops = [assemble(XTypeParams(*(rand_complex(rng) for _ in range(8)))) for _ in range(10)]
        ops += [np.eye(4), assemble(SWAP), assemble(XTypeParams(h1=1, h3=2, h6=3, h8=4))]
        ops += [assemble(entry.fill(entry.random_params(rng))) for entry in CATALOG.values()]
        for r in ops:
            assert lie_orbit_rank(r) == orbit_oracle(r)

    @pytest.mark.parametrize("slots", [XTypeParams(*range(1, 9)), np.arange(1, 9)],
                             ids=["record", "array"])
    def test_refuses_the_eight_slots(self, slots):
        with pytest.raises(ValueError, match="square matrix"):
            lie_orbit_rank(slots)

    def test_generic_rank_six(self):
        h = XTypeParams(*(rand_complex() for _ in range(8)))
        rank, report = lie_orbit_rank(assemble(h))
        assert rank == 6
        for name in ("Z1", "Z2"):
            assert report[name]["preserves_xtype"]
        for name in ("X1", "X2", "Y1", "Y2"):
            assert report[name]["nonzero"] and not report[name]["preserves_xtype"]

    def test_z1_commutator_coefficients(self):
        # [Z x I, R] expands on XX/XY/YX/YY with the b' coefficients;
        # at h2=1, h4=h5=h7=0 these are (1/2, i/2, i/2, -1/2)
        h = XTypeParams(h1=rand_complex(), h2=1, h3=rand_complex())
        r = assemble(h)
        z1 = tensor_product(PAULI_Z, np.eye(2))
        comm = z1 @ r - r @ z1
        hc = [comm[0, 0], comm[0, 3], comm[1, 1], comm[1, 2],
              comm[2, 1], comm[2, 2], comm[3, 0], comm[3, 3]]
        pe = pauli_expand(hc)
        assert_allclose([pe.b1, pe.b2, pe.b4, pe.b5], [0.5, 0.5j, 0.5j, -0.5])

    def test_z_commutator_coefficients_generic(self):
        # [Z x I, R] multiplies the anti-diagonal by (2, 2, -2, -2) and
        # [I x Z, R] by (2, -2, 2, -2); the resulting coefficient sets
        # coincide at the h2-only point above but differ generically
        h = XTypeParams(*(rand_complex() for _ in range(8)))
        h1, h2, h3, h4, h5, h6, h7, h8 = h
        r = assemble(h)

        def anti_diag(m):
            return [m[0, 0], m[0, 3], m[1, 1], m[1, 2],
                    m[2, 1], m[2, 2], m[3, 0], m[3, 3]]

        z1 = tensor_product(PAULI_Z, np.eye(2))
        pe = pauli_expand(anti_diag(z1 @ r - r @ z1))
        assert_allclose(
            [pe.b1, pe.b2, pe.b4, pe.b5],
            [(h2 + h4 - h5 - h7) / 2, 1j * (h2 - h4 - h5 + h7) / 2,
             1j * (h2 + h4 + h5 + h7) / 2, (-h2 + h4 - h5 + h7) / 2],
        )
        z2 = tensor_product(np.eye(2), PAULI_Z)
        pe = pauli_expand(anti_diag(z2 @ r - r @ z2))
        assert_allclose(
            [pe.b1, pe.b2, pe.b4, pe.b5],
            [(h2 - h4 + h5 - h7) / 2, 1j * (h2 + h4 + h5 + h7) / 2,
             1j * (h2 - h4 - h5 + h7) / 2, (-h2 - h4 + h5 + h7) / 2],
        )

    @pytest.mark.parametrize("scale", [1e-9, 1e6])
    def test_flags_do_not_depend_on_the_scale(self, scale):
        # both flags are judged against RANK_TOL max|R|; judged absolutely,
        # every commutator at 1e-9 read zero and inside the X pattern
        r = assemble(CATALOG["C1.0"].fill({"h1": 1, "h4": 2, "h5": 3, "h8": 4}))
        rank, report = lie_orbit_rank(r)
        assert rank == 5 and not all(v["preserves_xtype"] for v in report.values())
        assert lie_orbit_rank(scale * r) == (rank, report)

    def test_diagonal_rank_drops(self):
        h = XTypeParams(h1=rand_complex(), h3=rand_complex(),
                        h6=rand_complex(), h8=rand_complex())
        rank, report = lie_orbit_rank(assemble(h))
        assert not report["Z1"]["nonzero"] and not report["Z2"]["nonzero"]
        assert rank < 6

    def test_x1_commutator_leaves_x_form(self):
        # [X x I, R] is supported on YI, YZ, ZX, ZY, all outside the X-type
        # span; direct index computation pins the four coefficients
        h = XTypeParams(*(rand_complex() for _ in range(8)))
        r = assemble(h)
        x1 = tensor_product(PAULI_X, I2)
        comm = x1 @ r - r @ x1
        words = {
            "YI": tensor_product(PAULI_Y, I2),
            "YZ": tensor_product(PAULI_Y, PAULI_Z),
            "ZX": tensor_product(PAULI_Z, PAULI_X),
            "ZY": tensor_product(PAULI_Z, PAULI_Y),
        }
        coeff = {name: np.trace(w.conj().T @ comm) / 4 for name, w in words.items()}
        h1, h2, h3, h4, h5, h6, h7, h8 = h
        assert_allclose(coeff["YI"], -0.5j * (h1 + h3 - h6 - h8))
        assert_allclose(coeff["YZ"], -0.5j * (h1 - h3 - h6 + h8))
        assert_allclose(coeff["ZX"], -0.5 * (h2 + h4 - h5 - h7))
        assert_allclose(coeff["ZY"], 0.5j * (-h2 + h4 + h5 - h7))
        recon = sum(coeff[n] * words[n] for n in words)
        assert max_norm(comm - recon) < 1e-12
