import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

import braidgate
from braidgate.enhancement import instantiate_recipe, link_polynomial
from braidgate.matrix_core import (
    I2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    SINGULAR_TOL,
    SingularMatrixError,
    _checked_inverse,
    eigenvalues_xtype,
    invert,
    is_xtype,
    max_norm,
    numerical_rank,
    partial_trace,
    partial_transpose,
    tensor_product,
)
from braidgate.yang_baxter import BraidWord, XTypeParams, assemble, braid_rep, check_ybe

RNG = np.random.default_rng(101)


def rand_complex(rng=RNG):
    return complex(rng.normal(), rng.normal())


def rand_matrix(n=4, rng=RNG):
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


complex_st = st.complex_numbers(
    min_magnitude=0, max_magnitude=10, allow_nan=False, allow_infinity=False
)


class TestTensorProduct:
    def test_identity(self):
        assert_allclose(tensor_product(I2, I2), np.eye(4))

    def test_zz_diagonal(self):
        assert_allclose(tensor_product(PAULI_Z, PAULI_Z), np.diag([1, -1, -1, 1]))

    def test_xx_antidiagonal(self):
        xx = tensor_product(PAULI_X, PAULI_X)
        assert_allclose(xx, np.fliplr(np.eye(4)))
        # same operator as the X-pattern with unit anti-diagonal
        assert_allclose(xx, assemble(XTypeParams(h2=1, h4=1, h5=1, h7=1)))

    def test_index_formula(self):
        a, b = rand_matrix(2), rand_matrix(3)
        t = tensor_product(a, b)
        expected = np.array(
            [[a[i, j] * b[k, el] for j in range(2) for el in range(3)]
             for i in range(2) for k in range(3)]
        )
        assert_allclose(t, expected, rtol=1e-15)

    def test_associative(self):
        a, b, c = rand_matrix(2), rand_matrix(2), rand_matrix(2)
        assert_allclose(
            tensor_product(tensor_product(a, b), c),
            tensor_product(a, tensor_product(b, c)),
        )

    @pytest.mark.parametrize("n_a", range(1, 9))
    @pytest.mark.parametrize("n_b", range(1, 9))
    def test_bit_identical_to_kron(self, n_a, n_b):
        rng = np.random.default_rng(100 * n_a + n_b)
        a, b = rand_matrix(n_a, rng), rand_matrix(n_b, rng)
        assert np.array_equal(tensor_product(a, b), np.kron(a, b))

    @pytest.mark.parametrize("n", range(2, 7))
    def test_braid_rep_identities_bit_identical_to_kron(self, n):
        r = rand_matrix(4)
        for i in range(1, n):
            dense = np.kron(np.kron(np.eye(2 ** (i - 1)), r), np.eye(2 ** (n - i - 1)))
            assert np.array_equal(braid_rep(r, i, n), dense)

    def test_rejects_nan_and_non_square(self):
        with pytest.raises(ValueError, match="finite"):
            tensor_product(I2, np.array([[np.nan, 0], [0, 1]]))
        with pytest.raises(ValueError, match="finite"):
            tensor_product(np.array([[1, np.inf], [0, 1]]), I2)
        with pytest.raises(ValueError, match="square"):
            tensor_product(np.ones((2, 3)), I2)
        with pytest.raises(ValueError, match="square"):
            tensor_product(I2, np.ones(4))


class TestPartialOps:
    def test_trace_identity(self):
        assert_allclose(partial_trace(np.eye(4), 2), 2 * I2)
        assert_allclose(partial_trace(np.eye(4), 1), 2 * I2)

    def test_trace_xtype(self):
        h = XTypeParams(*(rand_complex() for _ in range(8)))
        r = assemble(h)
        assert_allclose(partial_trace(r, 2), np.diag([h.h1 + h.h3, h.h6 + h.h8]))
        assert_allclose(partial_trace(r, 1), np.diag([h.h1 + h.h6, h.h3 + h.h8]))

    def test_nested_trace_is_full_trace(self):
        r = rand_matrix()
        assert_allclose(np.trace(partial_trace(r, 2)), np.trace(r))
        assert_allclose(np.trace(partial_trace(r, 1)), np.trace(r))

    def test_transpose_identity(self):
        assert_allclose(partial_transpose(np.eye(4), 1), np.eye(4))

    def test_transpose_xtype_permutation(self):
        h = tuple(rand_complex() for _ in range(8))
        r = assemble(h)
        h1, h2, h3, h4, h5, h6, h7, h8 = h
        expected = assemble((h1, h5, h3, h7, h2, h6, h4, h8))
        assert_allclose(partial_transpose(r, 1), expected)

    def test_double_transpose_is_transpose(self):
        r = rand_matrix()
        assert_allclose(partial_transpose(partial_transpose(r, 1), 2), r.T)

    def test_involution_and_commutation(self):
        r = rand_matrix()
        for q in (1, 2):
            assert_allclose(partial_transpose(partial_transpose(r, q), q), r)
        assert_allclose(
            partial_transpose(partial_transpose(r, 1), 2),
            partial_transpose(partial_transpose(r, 2), 1),
        )

    def test_bad_qubit_index(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(4), 3)
        with pytest.raises(ValueError):
            partial_trace(np.eye(8), 1)


class TestInvert:
    def test_identity(self):
        assert_allclose(invert(np.eye(4)), np.eye(4))

    def test_diagonal(self):
        m = np.diag([2, 1j, -1, 4]).astype(complex)
        assert_allclose(invert(m), np.diag([0.5, -1j, -1, 0.25]))

    def test_swap_involution(self):
        p = assemble(XTypeParams(h1=1, h4=1, h5=1, h8=1))
        assert_allclose(invert(p), p)

    def test_random_roundtrip(self):
        for _ in range(20):
            m = rand_matrix()
            assert max_norm(invert(m) @ m - np.eye(4)) < 1e-10

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            invert(np.zeros((4, 4)))
        with pytest.raises(SingularMatrixError):
            invert(assemble([1] * 8))

    def test_singularity_is_scale_free(self):
        # the verdict is the condition number's, which scaling leaves alone
        m = np.linalg.qr(rand_matrix())[0]  # unitary: condition number 1
        for factor in (1e-6, 1e-3, 1e3, 1e6):
            assert max_norm(invert(factor * m) @ (factor * m) - np.eye(4)) < 1e-10
        ill = m @ np.diag([1, 1, 1, 1e-14]) @ m.conj().T
        for factor in (1e-6, 1.0, 1e6):
            with pytest.raises(SingularMatrixError, match=r"condition number .* > 1e\+12"):
                invert(factor * ill)

    def test_nonfinite_rejected(self):
        m = np.eye(4, dtype=complex)
        m[0, 0] = np.nan
        with pytest.raises(ValueError):
            invert(m)

    def test_condition_number_is_the_one_norm_product(self):
        # the 1-norms are column abs-sums, so cond matches np.linalg.norm bit for bit
        m = np.linalg.qr(rand_matrix())[0]
        inputs = [rand_matrix() for _ in range(10)]
        inputs += [factor * rand_matrix() for factor in (1e-300, 1e-6, 1e6, 1e300)]
        inputs.append(m @ np.diag([1, 1, 1, 1e-14]) @ m.conj().T)  # singular by cond
        for a in inputs:
            inv, cond = _checked_inverse(a)
            ref = np.linalg.inv(a)
            assert cond == np.linalg.norm(a, 1) * np.linalg.norm(ref, 1)
            assert (inv is None) == (cond > 1 / SINGULAR_TOL)
        assert _checked_inverse(np.zeros((4, 4), dtype=complex)) == (None, np.inf)


class TestEigenvaluesXType:
    def test_identity(self):
        h = XTypeParams(h1=1, h3=1, h6=1, h8=1)
        assert eigenvalues_xtype(h) == (1, 1, 1, 1)

    def test_antidiagonal(self):
        h = XTypeParams(h2=1, h7=1, h4=1, h5=1)
        assert eigenvalues_xtype(h) == (1, -1, 1, -1)

    def test_outer_block(self):
        h = XTypeParams(h1=2, h2=1, h7=1, h8=0)
        lam = eigenvalues_xtype(h)
        assert_allclose([lam[0], lam[1]], [1 + np.sqrt(2), 1 - np.sqrt(2)])

    def test_multiset_matches_general_solver(self):
        # closed form vs the independent dense eigensolver, 1000 draws
        rng = np.random.default_rng(5)
        for _ in range(1000):
            h = XTypeParams(*(complex(rng.normal(), rng.normal()) for _ in range(8)))
            closed = np.sort_complex(np.array(eigenvalues_xtype(h)))
            direct = np.sort_complex(np.linalg.eigvals(assemble(h)))
            scale = max(np.max(np.abs(direct)), 1.0)
            assert np.max(np.abs(closed - direct)) < 1e-9 * scale


class TestIsXType:
    def test_patterns(self):
        assert is_xtype(assemble([1, 2, 3, 4, 5, 6, 7, 8]))
        m = np.eye(4, dtype=complex)
        m[0, 1] = 1e-3
        assert not is_xtype(m)

    def test_judged_relative_to_largest_entry(self):
        m = assemble([1, 2, 3, 4, 5, 6, 7, 8])
        m[0, 1] = 4e-3  # half of tol * max|R| at tol 1e-3
        for scale in (1e-6, 1.0, 1e6):
            assert is_xtype(scale * m, tol=1e-3)
            assert not is_xtype(scale * m, tol=1e-4)
        # entries 1e-3..4e-3 all lie within tol of zero, but not of max|R|
        dense = np.tile([1.0, 2.0, 3.0, 4.0], (4, 1)) * 1e-3
        assert not is_xtype(dense, tol=1e-3)


class TestNumericalRank:
    def test_cutoff_is_relative(self):
        for scale in (1e-6, 1.0, 1e6):
            assert numerical_rank(scale * np.diag([1.0, 1e-7, 1e-9])) == 2
        assert numerical_rank(np.zeros((3, 3))) == 0
        assert numerical_rank(np.zeros((0, 3))) == 0


def _unnamed_thresholds(path: Path) -> list[str]:
    """Float literals below 1e-3 in one module."""
    return [f"{path.name}:{node.lineno}: {node.value!r}"
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Constant) and isinstance(node.value, float)
            and 0 < abs(node.value) < 1e-3]


def test_thresholds_are_named_in_matrix_core():
    modules = sorted(Path(braidgate.__file__).parent.glob("*.py"))
    assert len(modules) > 5
    found = [hit for path in modules if path.name != "matrix_core.py"
             for hit in _unnamed_thresholds(path)]
    assert found == []


def _unused_imports(path: Path) -> list[str]:
    """Names one module imports but neither uses nor lists in ``__all__``."""
    tree = ast.parse(path.read_text())
    imported = {alias.asname or alias.name.split(".")[0]: node.lineno
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__" for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = {elt.value for node in ast.walk(tree) if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                for elt in node.value.elts}
    return [f"{path.name}:{line}: {name}" for name, line in imported.items()
            if name not in used | exported]


def test_modules_import_only_what_they_use():
    # __init__ imports to re-export; every other module imports a name only
    # to use it or to list it in __all__
    modules = sorted(Path(braidgate.__file__).parent.glob("*.py"))
    assert len(modules) > 5
    found = [hit for path in modules if path.name != "__init__.py"
             for hit in _unused_imports(path)]
    assert found == []


def test_unused_import_is_found(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("from __future__ import annotations\n"
                      "import numpy as np\nfrom .matrix_core import PAULI_X, I2, max_norm\n"
                      "__all__ = ['max_norm']\nEYE = np.eye(2) + I2\n")
    assert _unused_imports(module) == ["m.py:3: PAULI_X"]


def test_library_does_not_read_the_environment(monkeypatch):
    # only the CLI resolves BRAIDGATE_TOL; a library call never sees it
    monkeypatch.setenv("BRAIDGATE_TOL", "not a number")
    r = assemble([1, 0, 0, 1, 1, 0, 0, 1])
    assert is_xtype(r)
    assert check_ybe(r)[1]
    e = instantiate_recipe("C1.I", {"h1": 1, "h4": 2, "h5": 3})
    link_polynomial(e, BraidWord(2, ((1, 3),)))


@given(st.lists(complex_st, min_size=8, max_size=8))
@settings(max_examples=50, deadline=None)
def test_partial_transpose_involution_property(hs):
    r = assemble(hs)
    assert_allclose(partial_transpose(partial_transpose(r, 1), 1), r)
    assert_allclose(partial_transpose(partial_transpose(r, 2), 2), r)
