"""Word evaluation against dense oracles.

``rep_of_word`` applies each letter's 4x4 power locally to a 2^n x 2^n state.
``closed_traces``, behind ``link_polynomial``, does the same to mu^(x n) up to
``DENSE_STRANDS`` strands, and contracts the closed braid as a tensor network
on wider words; the network is checked against the dense route on narrow
words too.  The oracles here are dense: ``rep_of_word`` is compared with
rho(w) built the explicit way, one ``braid_rep`` factor per letter, raised with
``matrix_power`` and multiplied left to right; ``link_polynomial`` is
compared with Tr[rep_of_word(R, w) mu^(x n)].  The routes round
differently, so every comparison is made against a stated scale:

    |rho| = the same product taken over the factors' entrywise moduli,

and for a trace, Tr[|rho| |mu|^(x n)], the sum of the moduli of all the
terms it adds up.  |rho|_ij bounds the moduli of the product terms that add
up to rho_ij, so float64 rounding in either route is a small multiple of eps
times it.  On these draws the largest difference is 1.0e-15 |rho| entrywise
and 8.2e-16 of the link scale, so RTOL = 1e-12 has three orders of headroom.
Apart from six C1.Z words whose value vanishes (tr Z = 0), every link value
is at least 2.8e-10 of its scale, so a wrong value still shows.
"""

import tracemalloc
import warnings
import zlib

import numpy as np
import pytest

from braidgate import enhancement, yang_baxter
from braidgate.enhancement import (
    EnhancedOperator,
    InvalidEnhancementError,
    RECIPES,
    instantiate_recipe,
    link_polynomial,
    markov_check,
    verify_enhancement,
)
from braidgate.matrix_core import I2, PAULI_Z
from braidgate.yang_baxter import (
    DENSE_STRANDS,
    MAX_ENTRIES,
    BraidWord,
    WordPlan,
    braid_rep,
    closed_traces,
    letter_powers,
    plan_word,
    rep_of_word,
)

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


def _dense_rep(r, n, letters):
    """rho and |rho| of (generator, exponent) ``letters`` on ``n`` strands as
    explicit products of braid_rep factor powers."""
    r_inv = np.linalg.inv(r)
    rho = np.eye(2**n, dtype=complex)
    rho_abs = np.eye(2**n)
    for gen, exp in letters:
        g = braid_rep(r if exp > 0 else r_inv, gen, n)
        rho = rho @ np.linalg.matrix_power(g, abs(exp))
        rho_abs = rho_abs @ np.linalg.matrix_power(np.abs(g), abs(exp))
    return rho, rho_abs


def _kron_power(m, n):
    out = m
    for _ in range(n - 1):
        out = np.kron(out, m)
    return out


def _dense_trace(r, word, site):
    """Tr[rho(word) site^(x n)] on the dense route."""
    return np.einsum("ij,ji->", rep_of_word(r, word), _kron_power(site, word.strands))


def _modulus_trace(r, word, mu):
    """Tr[|rho| |mu|^(x n)], |rho| taken letter by letter on a dense state."""
    n = word.strands
    r_inv = np.linalg.inv(r)
    state = _kron_power(np.abs(mu), n).reshape((2,) * n + (2**n,))
    for gen, exp in reversed(word.letters):
        g = np.linalg.matrix_power(np.abs(r if exp > 0 else r_inv), abs(exp))
        state = np.tensordot(g.reshape(2, 2, 2, 2), state, axes=([2, 3], [gen - 1, gen]))
        state = np.moveaxis(state, [0, 1], [gen - 1, gen])
    return np.trace(state.reshape(2**n, 2**n)).real


def _powers(r, plan):
    """The letter powers of a planned word, R^-1 computed when needed."""
    return letter_powers(r, (exp for _, exp in plan.word.letters))


def _assert_matches_dense_trace(e, w):
    pref = e.x ** (-w.writhe()) * e.y ** (-w.strands)
    want = pref * _dense_trace(e.R, w, e.mu)
    scale = abs(pref) * _modulus_trace(e.R, w, e.mu)
    assert abs(link_polynomial(e, w) - want) <= RTOL * scale


def _assert_network_matches_dense_trace(e, w):
    """The planned network of ``w`` against the dense oracle, on any width."""
    pref = e.x ** (-w.writhe()) * e.y ** (-w.strands)
    plan = plan_word(w)
    network = pref * plan.trace(_powers(e.R, plan), e.mu)
    scale = abs(pref) * _modulus_trace(e.R, w, e.mu)
    assert abs(network - pref * _dense_trace(e.R, w, e.mu)) <= RTOL * scale


class TestDenseOracle:
    @pytest.mark.parametrize("strands", range(2, 8))
    @pytest.mark.parametrize("recipe_id", FORMULA_RECIPES)
    def test_rep_of_word_matches_explicit_product(self, recipe_id, strands):
        e, w = _draw(recipe_id, strands)
        rho, rho_abs = _dense_rep(e.R, w.strands, w.letters)
        # entrywise, each entry against its own |rho| scale
        assert np.all(np.abs(rep_of_word(e.R, w) - rho) <= RTOL * rho_abs)

    @pytest.mark.parametrize("strands", range(2, 11))
    @pytest.mark.parametrize("recipe_id", FORMULA_RECIPES)
    def test_link_polynomial_matches_dense_trace(self, recipe_id, strands):
        _assert_matches_dense_trace(*_draw(recipe_id, strands))


@pytest.mark.parametrize("strands", range(2, 11))
def test_plan_trace_matches_dense_trace_on_generic_operators(strands):
    # a generic R and site satisfy no enhancement condition, so unlike a
    # link value this trace also changes when the word is read backwards
    rng = np.random.default_rng(100 + strands)
    r = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    site = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    _, w = _draw("C1.I", strands)
    want = _dense_trace(r, w, site)
    plan = plan_word(w)
    got = plan.trace(_powers(r, plan), site)
    assert abs(got - want) <= RTOL * _modulus_trace(r, w, site)


def test_letter_powers_take_r_and_its_inverse_themselves():
    rng = np.random.default_rng(5)
    r = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    r_inv = np.linalg.inv(r)
    powers = letter_powers(r, (1, -1, 2, -3, 1), r_inv)
    assert powers[1] is r and powers[-1] is r_inv
    assert np.array_equal(powers[2], np.linalg.matrix_power(r, 2))
    assert np.array_equal(powers[-3], np.linalg.matrix_power(r_inv, 3))


def test_closed_traces_of_a_list_match_each_word_alone():
    # dense and planned words in one call share their letter powers; each
    # trace keeps the bits of its route taken alone
    rng = np.random.default_rng(7)
    r = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    site = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    words = [_draw("C1.I", n)[1] for n in (3, DENSE_STRANDS + 2, DENSE_STRANDS, 2, 9)]
    traces = closed_traces(r, site, words)
    assert traces == [closed_traces(r, site, [w])[0] for w in words]
    for w, got in zip(words, traces):
        if w.strands <= DENSE_STRANDS:
            powers = letter_powers(r, (exp for _, exp in w.letters))
            want = yang_baxter._dense_trace(powers, w, site)
        else:
            plan = plan_word(w)
            want = plan.trace(_powers(r, plan), site)
        assert got == want
        assert abs(got - _dense_trace(r, w, site)) <= RTOL * _modulus_trace(r, w, site)


class TestRouteSplit:
    """Words up to ``DENSE_STRANDS`` strands are traced densely, wider ones
    on their planned network."""

    @pytest.mark.parametrize("strands", range(2, DENSE_STRANDS + 1))
    @pytest.mark.parametrize("recipe_id", FORMULA_RECIPES)
    def test_dense_route_matches_the_network_and_the_oracle(self, recipe_id, strands):
        e, w = _draw(recipe_id, strands)
        _assert_matches_dense_trace(e, w)
        _assert_network_matches_dense_trace(e, w)

    @pytest.mark.parametrize("sign", (1, -1))
    @pytest.mark.parametrize("recipe_id", FORMULA_RECIPES)
    def test_stabilization_crosses_the_route_boundary(self, recipe_id, sign):
        # the 6-strand word is traced densely and its 7-strand s6^(+-1)
        # stabilization on its network; a Markov move leaves L unchanged
        e, w = _draw(recipe_id, DENSE_STRANDS)
        # markov_check stabilizes by s_n when its first draw is below 0.5
        seed = next(k for k in range(100)
                    if (np.random.default_rng(k).random() < 0.5) == (sign > 0))
        widened = BraidWord(DENSE_STRANDS + 1, w.letters + ((DENSE_STRANDS, sign),))
        _, res_stab = markov_check(e, w, conjugator=BraidWord(DENSE_STRANDS),
                                   rng=np.random.default_rng(seed))

        def scale(word):
            return abs(e.x ** (-word.writhe()) * e.y ** (-word.strands)) * \
                _modulus_trace(e.R, word, e.mu)

        assert res_stab <= RTOL * (scale(w) + scale(widened))

    def test_markov_check_routes_every_word_before_evaluating(self, monkeypatch):
        events = []

        def recorded(name, fn):
            def call(*args, **kwargs):
                events.append(name)
                return fn(*args, **kwargs)
            return call

        monkeypatch.setattr(yang_baxter, "plan_word", recorded("plan", yang_baxter.plan_word))
        monkeypatch.setattr(yang_baxter, "_dense_trace",
                            recorded("dense", yang_baxter._dense_trace))
        monkeypatch.setattr(WordPlan, "trace", recorded("network", WordPlan.trace))
        e, w = _draw("C1.I", DENSE_STRANDS)
        markov_check(e, w)
        # base and conjugated words are dense, the stabilized one is planned
        # before either is traced
        assert events == ["plan", "dense", "dense", "network"]


# Network shapes a random 3n-letter word rarely makes.
SHAPES = {
    "untouched_strands": BraidWord(6, ((2, 1), (3, -2), (2, 3))),
    "empty": BraidWord(4, ()),
    "disconnected": BraidWord(5, ((1, 1), (3, 1))),
    "same_generator": BraidWord(4, ((2, 1), (2, 2), (1, -1), (2, -2), (3, 1), (2, 1))),
    "exponent_3": BraidWord(3, ((1, 3), (2, -3), (1, -3), (2, 3))),
    # s1 and s1 with only the far s3 between them: one letter s1^2
    "far_commuting_merge": BraidWord(4, ((1, 1), (3, 1), (1, 1))),
    # s1 and s1^-1 cancel across s3, so strands 1 and 2 are untouched
    "far_commuting_cancellation": BraidWord(4, ((1, 1), (3, 1), (1, -1))),
    # applied last, the lone s4 closes on itself on both strands: its tensor
    # is traced to a scalar root when it is made
    "late_isolated_letter": BraidWord(
        6, ((4, 1),) + tuple((1 + k % 2, 1 if k % 3 else -1) for k in range(25))),
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("recipe_id", FORMULA_RECIPES)
def test_link_polynomial_network_shapes(recipe_id, shape):
    # every shape fits the dense route of link_polynomial, so its network is
    # traced here directly
    e, _ = _draw(recipe_id, 2)
    _assert_matches_dense_trace(e, SHAPES[shape])
    _assert_network_matches_dense_trace(e, SHAPES[shape])


@pytest.mark.parametrize("strands", (3, DENSE_STRANDS + 2))
@pytest.mark.parametrize("scalar", (complex, np.complex128), ids=("complex", "complex128"))
def test_value_out_of_range_raises_on_either_route(scalar, strands):
    # x^-writhe y^-n at x near 1e-150 leaves the float64 range: Python
    # scalars raise there, numpy ones (as the solver makes) give inf or nan
    made = instantiate_recipe("C10.mu2", {"h1": 1e-150, "h7": 1e-150})
    e = EnhancedOperator(made.R, made.mu, scalar(made.x), scalar(made.y))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="leaves the float64 range"):
            link_polynomial(e, BraidWord.parse("s2^3 s1", strands))


class TestFarCommutingReduction:
    # s1 moves across s3^2 onto the other s1, and s2 s4 s2^-1 is s4
    WORD = "s1 s3^2 s1 s2 s4 s2^-1 s3"
    REDUCED = "s1^2 s3^2 s4 s3"

    def test_word_and_its_reduced_form_plan_alike(self):
        plan = plan_word(BraidWord.parse(self.WORD, 5))
        reduced = BraidWord.parse(self.REDUCED, 5)
        assert plan.word == reduced
        assert plan == plan_word(reduced)

    @pytest.mark.parametrize("recipe_id", FORMULA_RECIPES)
    def test_word_and_its_reduced_form_give_one_value(self, recipe_id):
        e, _ = _draw(recipe_id, 5)
        value = link_polynomial(e, BraidWord.parse(self.WORD, 5))
        assert value == link_polynomial(e, BraidWord.parse(self.REDUCED, 5))

    @pytest.mark.parametrize("recipe_id", FORMULA_RECIPES)
    def test_reduced_form_gives_one_value_on_the_network(self, recipe_id):
        # the 5-strand words above are traced densely; on 8 strands the
        # same letters are planned
        assert 5 <= DENSE_STRANDS < 8
        e, _ = _draw(recipe_id, 5)
        value = link_polynomial(e, BraidWord.parse(self.WORD, 8))
        assert value == link_polynomial(e, BraidWord.parse(self.REDUCED, 8))

    def test_word_is_made_reduced(self):
        assert BraidWord.parse(self.WORD, 5) == BraidWord.parse(self.REDUCED, 5)
        assert str(BraidWord.parse(self.WORD, 5)) == "s1^2 s3^2 s4^1 s3^1"


def _raw_letters(rng, strands):
    """Raw (generator, exponent) letters with exponents in -2..2, zero
    included: single letters, adjacent pairs on one generator that merge or
    cancel, and, from 4 strands on, such pairs around a far letter."""
    letters = []
    for _ in range(2 * strands):
        gen = int(rng.integers(1, strands))
        exp = int(rng.integers(-2, 3))
        pair = (gen, -exp if rng.random() < 0.5 else int(rng.integers(-2, 3)))
        far = [g for g in range(1, strands) if abs(g - gen) >= 2]
        move = rng.integers(3)
        if move == 0:
            letters += [(gen, exp), pair]
        elif move == 1 and far:
            letters += [(gen, exp), (int(rng.choice(far)), int(rng.choice([-1, 1]))), pair]
        else:
            letters.append((gen, exp))
    return letters


class TestCanonicalWord:
    """A ``BraidWord`` is reduced by far commutativity when it is made.  The
    oracle multiplies the raw letters and never sees a ``BraidWord``."""

    @pytest.mark.parametrize("strands", range(2, 9))
    def test_raw_letters_match_rep_of_word(self, strands):
        # R is unitary, so every factor and both products have spectral norm
        # 1 and the routes' rounding is a small multiple of eps per factor:
        # entries are compared absolutely (largest difference on these draws
        # 7.3e-16, while entries are of order 2^(-n/2))
        rng = np.random.default_rng(200 + strands)
        r = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
        for _ in range(3):
            raw = _raw_letters(rng, strands)
            rho, _ = _dense_rep(r, strands, raw)
            assert np.abs(rep_of_word(r, BraidWord(strands, raw)) - rho).max() <= RTOL

    @pytest.mark.parametrize("strands", range(2, 9))
    def test_canonical_form_is_idempotent(self, strands):
        rng = np.random.default_rng(300 + strands)
        for _ in range(20):
            raw = _raw_letters(rng, strands)
            w = BraidWord(strands, raw)
            assert w.strands == strands
            assert w.writhe() == sum(exp for _, exp in raw)
            assert 0 not in (exp for _, exp in w.letters)
            assert BraidWord(strands, w.letters) == w


def _network_modulus_trace(e, word):
    """Tr[|rho| |mu|^(x n)] on the closed-braid network, by the library's
    plan: traced with each letter's power of |R| or |R^-1| and with |mu|,
    so no term can cancel another."""
    plan = plan_word(word)
    bases = {1: np.abs(e.R), -1: np.abs(np.linalg.inv(e.R))}
    powers = {exp: np.linalg.matrix_power(bases[np.sign(exp)], abs(exp))
              for _, exp in plan.word.letters}
    return plan.trace(powers, np.abs(e.mu)).real


@pytest.mark.parametrize("strands", (12, 16, 20))
@pytest.mark.parametrize("recipe_id", FORMULA_RECIPES)
def test_markov_invariance_beyond_the_dense_oracle(recipe_id, strands):
    """Conjugation and stabilization residuals, with no dense oracle.

    Each residual compares two link values, so its scale is the sum of their
    modulus traces (the scale above, taken on the network).  C1.I and C2.I
    values are 4e-3 to 1 of that scale; C4.mu5 and C7.I values cancel to
    1e-17 to 1e-6 of it and C1.Z values vanish, so those rows check little."""
    e, w = _draw(recipe_id, strands)
    rng = np.random.default_rng(strands)
    conjugator = BraidWord(strands, tuple(
        (int(rng.integers(1, strands)), int(rng.choice([-2, -1, 1, 2]))) for _ in range(3)))
    sign_seed = 17 * strands
    res_conj, res_stab = markov_check(e, w, conjugator=conjugator,
                                      rng=np.random.default_rng(sign_seed))
    inverse = tuple((g, -k) for g, k in reversed(conjugator.letters))
    conjugated = BraidWord(strands, conjugator.letters + w.letters + inverse)
    sign = 1 if np.random.default_rng(sign_seed).random() < 0.5 else -1
    widened = BraidWord(strands + 1, w.letters + ((strands, sign),))

    def scale(word):
        return abs(e.x ** (-word.writhe()) * e.y ** (-word.strands)) * \
            _network_modulus_trace(e, word)

    assert res_conj <= RTOL * (scale(w) + scale(conjugated))
    assert res_stab <= RTOL * (scale(w) + scale(widened))


def _peak_bytes(fn, *args):
    """Peak traced allocation while ``fn(*args)`` raises ValueError."""
    tracemalloc.start()
    try:
        with pytest.raises(ValueError):
            fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _full_twist(strands, offset=0):
    """Delta^2 = (s1 s2 ... s_{n-1})^n, on strands offset+1 .. offset+n.

    The greedy plan of a twist grows fast: at 10 strands one step sums 2^28
    terms, the most ``MAX_TERMS`` lets through, and holds 1.65e6 entries; at
    11 strands a step would sum 2^31 terms, and at 14 the plan would hold
    more than ``MAX_ENTRIES`` entries at once."""
    return tuple((g + offset, 1) for _ in range(strands) for g in range(1, strands))


class TestStrandBound:
    # 13 strands, the fewest whose two dense states, 2 * 4^13 = 2^27 entries,
    # exceed MAX_ENTRIES: one state alone would take 1 GiB
    WORD = BraidWord(13, ((1, 1), (12, -1)))
    TWIST = BraidWord(14, _full_twist(14))

    def test_rep_of_word_refuses_before_allocating(self):
        assert 2 * 4**12 <= MAX_ENTRIES < 2 * 4**13
        assert _peak_bytes(rep_of_word, np.eye(4), self.WORD) < 2**20
        with pytest.raises(ValueError, match=r"2\^27 entries, exceed the limit of 2\^25$"):
            rep_of_word(np.eye(4), self.WORD)

    def test_link_polynomial_refuses_before_allocating(self):
        e = EnhancedOperator(np.eye(4, dtype=complex), I2, 1, 2)
        assert _peak_bytes(link_polynomial, e, self.TWIST) < 2**20

    def test_link_polynomial_refuses_a_step_over_the_term_bound(self):
        e = EnhancedOperator(np.eye(4, dtype=complex), I2, 1, 2)
        twist = BraidWord(11, _full_twist(11))
        with pytest.raises(ValueError, match="terms"):
            plan_word(twist)
        assert _peak_bytes(link_polynomial, e, twist) < 2**20

    def test_markov_check_refuses_the_stabilized_word(self):
        # the 14-strand twist is over the bound, and so are its conjugated
        # and stabilized words: nothing is evaluated
        e = EnhancedOperator(np.eye(4, dtype=complex), I2, 1, 2)
        assert _peak_bytes(markov_check, e, self.TWIST) < 2**20

    def test_markov_check_plans_every_word_before_evaluating(self):
        # the 10-strand twist fits, and evaluating it would take 25 MiB;
        # conjugated by s7 it needs a step of 2^29 terms.  markov_check
        # refuses it having allocated nothing, so the base word was not
        # evaluated before the conjugated one was planned.
        e = EnhancedOperator(np.eye(4, dtype=complex), I2, 1, 2)
        base = BraidWord(10, _full_twist(10))
        conjugator = BraidWord(10, ((7, 1),))
        plan_word(base)
        with pytest.raises(ValueError):
            plan_word(BraidWord(10, ((7, 1),) + base.letters + ((7, -1),)))
        assert _peak_bytes(markov_check, e, base, conjugator) < 2**20

    def test_disjoint_components_are_bounded_together(self):
        # 54 disjoint 10-strand twists: each fits alone, but the plan
        # advances identical components together, so their intermediates
        # are live at once, over MAX_ENTRIES (512 MiB).  The word is refused
        # while the planner holds only its own integers, about 4 MiB for
        # these 4860 letters.
        e = EnhancedOperator(np.eye(4, dtype=complex), I2, 1, 2)
        # a twist has no far-commuting letters to merge: its word keeps all 90
        assert plan_word(BraidWord(10, _full_twist(10))).word.letters == _full_twist(10)
        copies = BraidWord(540, sum((_full_twist(10, 10 * c) for c in range(54)), ()))
        with pytest.raises(ValueError, match=f"at once, above the limit of 2\\^{MAX_ENTRIES.bit_length() - 1}"):
            plan_word(copies)
        assert _peak_bytes(link_polynomial, e, copies) < 2**23

    def test_link_polynomial_takes_the_dense_bound_word(self):
        # s1 s12^-1 on 13 strands: two closed two-strand pieces and nine
        # untouched strands, so Tr = (x y tr mu) (y/x tr mu) (tr mu)^9 and
        # L = (tr mu / y)^11
        e, _ = _draw("C4.mu5", 2)
        want = (np.trace(e.mu) / e.y) ** 11
        assert abs(link_polynomial(e, self.WORD) - want) <= RTOL * abs(want)


@pytest.fixture
def greedy_calls(monkeypatch):
    """A list that grows by one for every greedy plan ``plan_word`` makes."""
    calls = []
    greedy = yang_baxter._greedy_plan

    def counting(*args):
        calls.append(1)
        return greedy(*args)

    monkeypatch.setattr(yang_baxter, "_greedy_plan", counting)
    return calls


# Sweep shapes a random 3n-letter word rarely makes, all wider than the dense
# route.
SWEEP_SHAPES = {
    # s1 and s7 have one letter each: strands 1 and 8 close on their letters
    "lone_edge_letters": BraidWord.parse(
        "s1 s2 s3^-1 s2^2 s4 s3 s5 s4^-2 s6 s5 s7^-1 s6^2 s5 s4 s3 s2^-1", 8),
    # no letter on s4 or s5: two components, and strand 5 untouched
    "gap_generator": BraidWord.parse("s1 s2^-1 s1^2 s3 s2 s6 s7^-1 s8 s7 s6^2 s8^-1 s3^-1", 9),
    # the lone s4^3 is a component of its own, traced to a scalar when made
    "lone_component": BraidWord.parse("s1 s2 s1^-1 s2 s4^3 s6 s7^-2 s6 s7", 8),
}

# crc32 of the repr of the (a, b) pairs of the greedy plan of the full twist
# on 7..10 strands, as the greedy planner made them when it planned every word
GREEDY_TWIST_PAIRS = {7: 446538133, 8: 3500050325, 9: 1996442849, 10: 3925552020}


class TestGeneratorSweep:
    """Words wider than ``DENSE_STRANDS`` are planned by the generator sweep
    unless a running tensor would outgrow the largest dense state."""

    @pytest.mark.parametrize("strands", range(DENSE_STRANDS + 1, 11))
    @pytest.mark.parametrize("recipe_id", FORMULA_RECIPES)
    def test_random_words_take_the_sweep(self, recipe_id, strands, greedy_calls):
        e, w = _draw(recipe_id, strands)
        _assert_network_matches_dense_trace(e, w)
        _assert_matches_dense_trace(e, w)
        assert greedy_calls == []
        # every letter shares a leg with the running tensor: rows_b = 2^shared
        assert all(rows_b > 1 for *_, rows_b in plan_word(w).steps)

    @pytest.mark.parametrize("shape", sorted(SWEEP_SHAPES))
    @pytest.mark.parametrize("recipe_id", FORMULA_RECIPES)
    def test_sweep_shapes(self, recipe_id, shape, greedy_calls):
        e, _ = _draw(recipe_id, 2)
        _assert_network_matches_dense_trace(e, SWEEP_SHAPES[shape])
        _assert_matches_dense_trace(e, SWEEP_SHAPES[shape])
        assert greedy_calls == []

    def test_sweep_shapes_have_their_components(self):
        # one root per component, and the lone letters closed when made
        roots = {name: len(plan_word(w).roots) for name, w in SWEEP_SHAPES.items()}
        assert roots == {"lone_edge_letters": 1, "gap_generator": 2, "lone_component": 3}
        for name, want in (("lone_edge_letters", {1: 2, 7: 1}), ("lone_component", {4: 3})):
            plan = plan_word(SWEEP_SHAPES[name])
            gens = [g for g, _ in reversed(plan.word.letters)]
            assert {g: closed for g, closed in zip(gens, plan.loops) if closed} == want

    @pytest.mark.parametrize("strands", sorted(GREEDY_TWIST_PAIRS))
    def test_full_twists_fall_back_to_the_greedy_plan(self, strands, greedy_calls):
        plan = plan_word(BraidWord(strands, _full_twist(strands)))
        assert greedy_calls == [1]
        pairs = [step[:2] for step in plan.steps]
        assert zlib.crc32(repr(pairs).encode()) == GREEDY_TWIST_PAIRS[strands]

    @pytest.mark.parametrize("strands", (DENSE_STRANDS + 1, DENSE_STRANDS + 2))
    def test_greedy_plan_matches_dense_trace(self, strands):
        rng = np.random.default_rng(200 + strands)
        r = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        site = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        w = BraidWord(strands, tuple((g, e) for g, e in zip(
            (g for g, _ in _full_twist(strands)), rng.choice([-1, 1], size=strands * (strands - 1)))))
        plan = plan_word(w)
        got = plan.trace(_powers(r, plan), site)
        assert abs(got - _dense_trace(r, w, site)) <= RTOL * _modulus_trace(r, w, site)


@pytest.fixture
def inversions(monkeypatch):
    """A list that grows by one for every inversion of R in ``enhancement``."""
    calls = []
    invert = enhancement.invert

    def counting(m):
        calls.append(1)
        return invert(m)

    monkeypatch.setattr(enhancement, "invert", counting)
    return calls


class TestMarkovCheckVerification:
    def test_verifies_once(self, inversions):
        drawn, w = _draw("C1.I", 3)
        # a quadruple computes its residuals when it is made: markov_check
        # uses them and its R^-1 for all three of its words
        inversions.clear()
        e = EnhancedOperator(drawn.R, drawn.mu, drawn.x, drawn.y)
        markov_check(e, w)
        assert len(inversions) == 1

    def test_instantiated_recipe_is_not_verified_again(self, inversions):
        e, w = _draw("C1.I", 3)  # instantiate_recipe made and verified it
        assert len(inversions) == 1
        for tol in (1e-9, 1e-13):
            assert verify_enhancement(e, tol)[1]
            link_polynomial(e, w, tol=tol)
        markov_check(e, w)
        assert len(inversions) == 1

    def test_verified_quadruple_is_read_only(self):
        e, _ = _draw("C1.I", 3)
        for a in (e.R, e.mu, e._r_inv):
            with pytest.raises(ValueError):
                a[0, 0] = 0

    def test_invalid_enhancement_still_raises(self):
        e = EnhancedOperator(np.eye(4, dtype=complex), PAULI_Z + 0.3 * I2, 1, 1)
        with pytest.raises(InvalidEnhancementError):
            markov_check(e, BraidWord(2, ((1, 1),)))
