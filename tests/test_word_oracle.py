"""Letter-by-letter word evaluation against the dense Kronecker route.

``apply_word`` applies each letter's 4x4 power locally to a 2^n x 2^n state.
The oracle here builds rho(w) the dense way instead: one ``braid_rep``
factor per letter, raised with ``matrix_power`` and multiplied left to right,
and mu^(x n) from ``np.kron``.  Both routes round differently, so every
comparison is made against a stated scale:

    |rho| = the same product taken over the factors' entrywise moduli.

|rho|_ij bounds the moduli of the product terms that add up to rho_ij, so
float64 rounding in either route is a small multiple of eps times it.  On
these draws the largest difference is 1.0e-15 |rho| entrywise and 5.6e-16
of the link scale below, so RTOL = 1e-12 has three orders of headroom.
Apart from two C1.Z words whose value vanishes, every link value is at least
2.9e-5 of its scale, so a wrong value still shows.
"""

import tracemalloc
import zlib

import numpy as np
import pytest

from braidgate import enhancement
from braidgate.enhancement import (
    EnhancedOperator,
    InvalidEnhancementError,
    RECIPES,
    instantiate_recipe,
    link_polynomial,
    markov_check,
)
from braidgate.matrix_core import I2, PAULI_Z
from braidgate.yang_baxter import MAX_STRANDS, BraidWord, braid_rep, rep_of_word

RTOL = 1e-12
FORMULA_RECIPES = sorted(rid for rid, r in RECIPES.items() if r.link_behavior == "formula")


def _draw(recipe_id, strands):
    """A recipe instance and a 3n-letter word with exponents in +-{1, 2, 3}."""
    rng = np.random.default_rng(zlib.crc32(f"{recipe_id}/{strands}".encode()))
    params = {k: complex(rng.normal(), rng.normal()) for k in RECIPES[recipe_id].free_params}
    letters = tuple(
        (int(rng.integers(1, strands)), int(rng.choice([-3, -2, -1, 1, 2, 3])))
        for _ in range(3 * strands)
    )
    return instantiate_recipe(recipe_id, params), BraidWord(strands, letters)


def _dense_rep(r, word):
    """rho(word) and |rho| as explicit products of braid_rep factor powers."""
    n = word.strands
    r_inv = np.linalg.inv(r)
    rho = np.eye(2**n, dtype=complex)
    rho_abs = np.eye(2**n)
    for gen, exp in word.letters:
        g = braid_rep(r if exp > 0 else r_inv, gen, n)
        rho = rho @ np.linalg.matrix_power(g, abs(exp))
        rho_abs = rho_abs @ np.linalg.matrix_power(np.abs(g), abs(exp))
    return rho, rho_abs


def _kron_power(m, n):
    out = m
    for _ in range(n - 1):
        out = np.kron(out, m)
    return out


@pytest.mark.parametrize("strands", range(2, 8))
@pytest.mark.parametrize("recipe_id", FORMULA_RECIPES)
class TestDenseOracle:
    def test_rep_of_word_matches_explicit_product(self, recipe_id, strands):
        e, w = _draw(recipe_id, strands)
        rho, rho_abs = _dense_rep(e.R, w)
        # entrywise, each entry against its own |rho| scale
        assert np.all(np.abs(rep_of_word(e.R, w) - rho) <= RTOL * rho_abs)

    def test_link_polynomial_matches_dense_trace(self, recipe_id, strands):
        e, w = _draw(recipe_id, strands)
        rho, rho_abs = _dense_rep(e.R, w)
        pref = e.x ** (-w.writhe()) * e.y ** (-strands)
        want = pref * np.trace(rho @ _kron_power(e.mu, strands))
        # scale: |x^-writhe y^-n| Tr[|rho| |mu|^(x n)], the sum of the moduli
        # of all terms the trace adds up
        scale = abs(pref) * np.trace(rho_abs @ _kron_power(np.abs(e.mu), strands)).real
        assert abs(link_polynomial(e, w) - want) <= RTOL * scale


def _peak_bytes(fn, *args):
    """Peak traced allocation while ``fn(*args)`` raises ValueError."""
    tracemalloc.start()
    try:
        with pytest.raises(ValueError):
            fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestStrandBound:
    # at MAX_STRANDS + 1 one state alone would take 1 GiB
    WORD = BraidWord(MAX_STRANDS + 1, ((1, 1), (MAX_STRANDS, -1)))

    def test_rep_of_word_refuses_before_allocating(self):
        assert _peak_bytes(rep_of_word, np.eye(4), self.WORD) < 2**20

    def test_link_polynomial_refuses_before_allocating(self):
        e = EnhancedOperator(np.eye(4, dtype=complex), I2, 1, 2)
        assert _peak_bytes(link_polynomial, e, self.WORD) < 2**20

    def test_markov_check_refuses_the_stabilized_word(self):
        # the word fits, but stabilization adds a strand
        e = EnhancedOperator(np.eye(4, dtype=complex), I2, 1, 2)
        w = BraidWord(MAX_STRANDS, ((1, 1),))
        assert _peak_bytes(markov_check, e, w) < 2**20


class TestMarkovCheckVerification:
    def test_verifies_once(self, monkeypatch):
        e, w = _draw("C1.I", 3)
        calls = []
        verify = enhancement.verify_enhancement

        def counting(*args, **kwargs):
            calls.append(1)
            return verify(*args, **kwargs)

        monkeypatch.setattr(enhancement, "verify_enhancement", counting)
        markov_check(e, w)
        assert len(calls) == 1

    def test_invalid_enhancement_still_raises(self):
        e = EnhancedOperator(np.eye(4, dtype=complex), PAULI_Z + 0.3 * I2, 1, 1)
        with pytest.raises(InvalidEnhancementError):
            markov_check(e, BraidWord(2, ((1, 1),)))
