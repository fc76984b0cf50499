"""X-type braiding operators: assembly, the solution catalog, braid words.

An X-type operator is a 4x4 matrix supported on the diagonal and
anti-diagonal, parameterized by eight complex numbers h1..h8:

    [[h1, 0,  0,  h2],
     [0,  h3, h4, 0 ],
     [0,  h5, h6, 0 ],
     [h7, 0,  0,  h8]]

The catalog lists the twelve classes (38 parameter families in total) of
invertible X-type solutions of the constant Yang-Baxter equation

    (R x I)(I x R)(R x I) = (I x R)(R x I)(I x R)

as declarative constraint records, keyed "C<class>.<variant>" with variant 0
the representative.

Every table of the package holds its formulas as expression strings
evaluated by :func:`evaluate_expr`: this catalog, the enhancement recipes
and the equivalence recipes, which are records built by calling their
dataclasses, and the per-class tables keyed by class id, each in the module
that uses it (the invariant formulas and dependence relations of
``invariants``, the entangling-power forms of ``entangling_power`` and the
BMW, Hecke and Jordan rows of ``enhancement``).  Each string is compiled
once, on first use, and run with only ``sqrt``, ``abs`` and ``I`` besides
its parameters (and, in a recipe or an algebra row, its ``let``
intermediates).  The strings are package constants; user input never
reaches the evaluator.  The test suite also evaluates them over sympy
symbols and proves that all 38 entries solve the equation identically, that
all 33 recipes satisfy the enhancement conditions identically, and that each
class's invariant formulas and dependence relations hold identically on
every entry of the class.
"""

from __future__ import annotations

import functools
import heapq
import math
import re
from collections import defaultdict
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .matrix_core import (
    DEFAULT_TOL,
    DRAW_MIN_DET,
    I2,
    LOCAL_PAULIS,
    PAULI_PAIRS,
    RANK_TOL,
    XTYPE_SUPPORT,
    _as_two_qubit,
    _checked_inverse,
    _kron,
    as_matrix,
    at_scale,
    invert,
    max_norm,
    numerical_rank,
    tensor_product,
)

__all__ = [
    "XTypeParams",
    "PauliExpansion",
    "BraidWord",
    "CatalogEntry",
    "CATALOG",
    "catalog_entry",
    "assemble",
    "check_ybe",
    "ybe_scale",
    "braid_rep",
    "rep_of_word",
    "closed_traces",
    "plan_word",
    "WordPlan",
    "DENSE_STRANDS",
    "MAX_ENTRIES",
    "MAX_TERMS",
    "pauli_expand",
    "lie_orbit_rank",
    "InadmissibleParamsError",
]


class InadmissibleParamsError(ValueError):
    """Parameters at which a catalog entry's constraint divides by zero."""


class XTypeParams(NamedTuple):
    """The eight complex parameters of an X-type operator, as an 8-tuple."""

    h1: complex = 0
    h2: complex = 0
    h3: complex = 0
    h4: complex = 0
    h5: complex = 0
    h6: complex = 0
    h7: complex = 0
    h8: complex = 0


def assemble(h) -> np.ndarray:
    """Build the 4x4 X-patterned matrix from h1..h8."""
    if len(h) != 8:  # len() also refuses a bare scalar, which the mask would broadcast
        raise ValueError("expected eight X-type parameters")
    r = np.zeros((4, 4), dtype=complex)
    r[XTYPE_SUPPORT] = h
    return r


def ybe_scale(r) -> float:
    """max|R|^3, the scale of the Yang-Baxter residual: both sides are
    products of three copies of R, so the verdict does not depend on the
    scale of R.  It is m^3 2^3e from max|R| = m 2^e, inf past the float range."""
    m, e = math.frexp(max_norm(r))
    return at_scale(m**3, 3 * e)


def check_ybe(r, tol: float = DEFAULT_TOL) -> tuple[float, bool]:
    """Residual and verdict of the braided Yang-Baxter equation on 8x8.

    It is checked on R / 2^e, e the ``frexp`` exponent of max|R|, an exact
    scaling under which no product of three R underflows or overflows; the
    residual, reported at R's scale (inf past the float range), passes at
    most ``tol`` :func:`ybe_scale`.
    A braiding operator is invertible by definition, so a singular R fails
    (the all-ones X pattern solves the equation identically).
    """
    r = np.ascontiguousarray(_as_two_qubit(r))
    m, e = math.frexp(max_norm(r))  # max|R| = m 2^e, m in [1/2, 1)
    unit = np.ldexp(r.view(float), -e).view(complex)  # exact, a subnormal R too
    a, b = tensor_product(unit, I2), tensor_product(I2, unit)
    residual = max_norm(a @ b @ a - b @ a @ b)
    invertible = _checked_inverse(r)[0] is not None
    return at_scale(residual, 3 * e), residual <= tol * m**3 and invertible


def braid_rep(r, i: int, n: int) -> np.ndarray:
    """Generator sigma_i of B_n represented on n qubits: I^(i-1) x R x I^(n-i-1).

    No library route forms it; the tests build their dense oracles from it.
    """
    r = _as_two_qubit(r)
    if not 1 <= i <= n - 1:
        raise ValueError(f"generator index {i} out of range for {n} strands")
    out = r
    if i > 1:
        out = tensor_product(np.eye(2 ** (i - 1), dtype=complex), out)
    if i < n - 1:
        out = tensor_product(out, np.eye(2 ** (n - i - 1), dtype=complex))
    return out


# s<generator> or s<generator>^<exponent>, the exponent signed
_BRAID_TOKEN = re.compile(r"s(\d+)(?:\^([+-]?\d+))?")


@dataclass(frozen=True)
class BraidWord:
    """A word in the braid group B_n as (generator, exponent) letters.

    A word is reduced by far commutativity, s_i s_j = s_j s_i for
    |i - j| >= 2, when it is made: in word order, a letter merges into the
    last kept letter on its generator when no kept letter on a neighbouring
    generator comes after that one, a merged exponent of 0 deletes the kept
    letter, and zero exponents are dropped.  Strands and writhe are kept,
    and a reduced word's letters reduce to themselves.  Generator indices
    must lie in [1, strands-1].
    """

    strands: int
    letters: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if self.strands < 2:
            raise ValueError("a braid word needs at least 2 strands")
        kept = []  # [generator, exponent] per kept letter, None once deleted
        stacks = defaultdict(lambda: [-1])  # generator -> positions of its kept letters
        for gen, exp in self.letters:
            gen, exp = int(gen), int(exp)
            if not 1 <= gen <= self.strands - 1:
                raise ValueError(f"generator s{gen} out of range for {self.strands} strands")
            if exp == 0:
                continue
            stack = stacks[gen]
            top = stack[-1]
            if top >= 0 and stacks[gen - 1][-1] < top and stacks[gen + 1][-1] < top:
                kept[top][1] += exp
                if kept[top][1] == 0:
                    kept[stack.pop()] = None
            else:
                stack.append(len(kept))
                kept.append([gen, exp])
        object.__setattr__(self, "letters", tuple((g, e) for g, e in filter(None, kept)))

    @classmethod
    def parse(cls, text: str, strands: int | None = None) -> "BraidWord":
        """Parse whitespace-separated tokens like "s1^3 s2^-1" (or "s2" for ^1)."""
        letters = []
        for token in text.split():
            m = _BRAID_TOKEN.fullmatch(token)
            if m is None:
                raise ValueError(f"bad braid token {token!r}")
            letters.append((int(m[1]), int(m[2] or 1)))
        if strands is None:  # at least 2, so a generator s0 is named as out of range
            strands = max([1, *(g for g, _ in letters)]) + 1
        return cls(strands=strands, letters=tuple(letters))

    def writhe(self) -> int:
        return sum(e for _, e in self.letters)

    def __str__(self) -> str:
        return " ".join(f"s{g}^{e}" for g, e in self.letters) or "<empty>"


# The widest word whose link trace is taken on a dense state, 2^m x 2^m for
# the m <= n strands left once each edge strand with at most one letter is
# traced out (4096 entries at 6), one 4x4 product per letter, with no plan.
# Per trace of the words the benchmark's seed-0 link_eval inputs evaluate
# (median over the words of the best of 9, one BLAS thread, three runs on a
# 2-vCPU VM), dense vs plan_word and its trace: 39-41 vs 120-129 us at 3
# strands, 88-95 vs 164-181 at 5, 139-162 vs 163-171 at 6 (102-110 vs
# 168-186 on the 5-strand Markov checks' stabilized words), 454-480 vs
# 179-190 at 7.  A dense letter costs O(4^m); a swept one a few
# microseconds at any width.  A sweep whose running tensor would outgrow
# this state takes the greedy plan instead: see ``plan_word``.
DENSE_STRANDS = 6

# The most complex entries a closed-braid evaluation may hold at once: 2^25,
# 512 MiB.  ``rep_of_word`` holds two dense 2^n x 2^n states, so it takes at
# most 12 strands; ``closed_traces`` builds one only up to ``DENSE_STRANDS``
# strands and contracts a wider closed braid (``plan_word``) instead,
# counting every live tensor and the result being formed.
MAX_ENTRIES = 2**25

# The most terms one contraction step may sum: a step is one matrix product
# of (rows x shared) by (shared x columns), rows x shared x columns terms,
# under a nanosecond a term on one BLAS thread, so a step takes well under a
# second.
MAX_TERMS = 2**28


def letter_powers(r, exponents, r_inv=None) -> dict[int, np.ndarray]:
    """Each distinct exponent's 4x4 power of R or R^-1, taken once; +-1 take
    R or R^-1 itself, and 0 the identity.

    ``r_inv`` is for a caller that already holds R^-1: it must be
    ``invert(r)`` of the same R, and is used as given.  Left None, R^-1 is
    computed, with the singularity check of ``invert``, at the first
    negative exponent.
    """
    r = _as_two_qubit(r)
    powers: dict[int, np.ndarray] = {}
    for exp in exponents:
        if exp not in powers:
            if exp < 0 and r_inv is None:
                r_inv = invert(r)
            base = r if exp >= 0 else r_inv
            powers[exp] = base if abs(exp) == 1 else np.linalg.matrix_power(base, abs(exp))
    return powers


def rep_of_word(r, word: BraidWord) -> np.ndarray:
    """Image rho(word) of a braid word as a dense 2^n x 2^n matrix.

    Each distinct exponent's power of R or R^-1 is taken once at 4x4.  The
    letters act right to left on the rows of a state that starts at the
    identity: a letter on strands i, i+1 is one 4x4 product over the middle
    axis of the state viewed as (2^(i-1), 4, 2^(n-i-1) * 2^n), so it costs
    O(4^n) rather than the O(8^n) of a dense 2^n x 2^n product.  A word whose
    two states, 2 * 4^n entries, would exceed ``MAX_ENTRIES`` (13 strands and
    up) raises ``ValueError`` before anything is allocated.
    """
    n = word.strands
    if 2 * 4**n > MAX_ENTRIES:
        raise ValueError(f"the two dense states of {n} strands, 2^{2 * n + 1} entries, "
                         f"exceed the limit of 2^{MAX_ENTRIES.bit_length() - 1}")
    powers = letter_powers(r, (exp for _, exp in word.letters))
    return _apply_letters([(gen, powers[exp]) for gen, exp in word.letters],
                          np.eye(2**n, dtype=complex))


def _apply_letters(letters, state: np.ndarray) -> np.ndarray:
    """rho @ state for a 2^n x 2^n ``state`` and ``letters``, (generator,
    4x4 matrix) pairs in word order, applied last first, each as one 4x4
    product over the middle axis of the state viewed as
    (2^(i-1), 4, 2^(n-i-1) * 2^n).  ``state`` is overwritten: the result is
    it or one spare state of its size."""
    spare = np.empty_like(state)
    for gen, matrix in reversed(letters):
        shape = (2 ** (gen - 1), 4, -1)
        np.matmul(matrix, state.reshape(shape), out=spare.reshape(shape))
        state, spare = spare, state
    return state


def _dense_trace(powers, word: BraidWord, site: np.ndarray) -> complex:
    """Tr[rho(word) site^(x n)] on a dense state, the letters' 4x4 powers
    from ``powers`` (see :func:`letter_powers`).

    While more than two strands remain, an edge strand that at most one
    letter touches is traced out first: strand n when at most one letter
    lies on s_n-1, else strand 1 when at most one lies on s_1.  A strand no
    letter touches is a factor tr(site).  A strand one letter touches closes
    on that letter, traced with its site folded in by the plan route's
    kernel (:func:`_letter_tensor`); the 2x2 operator K left acts on the
    letter's other strand, as I x K (or K x I) on the neighbouring
    generator, and the generators are renumbered.  The letters left act on
    the 2^m x 2^m state site^(x m) of the m strands left, one 4x4 product
    each, and the value is the trace of the result.
    """
    letters = [(gen, powers[exp]) for gen, exp in word.letters]
    n, untouched, folded = word.strands, 0, None
    while n > 2:
        for edge, fold in ((n - 1, 1), (1, 2)):  # fold and loop as in WordPlan
            on = [k for k, (gen, _) in enumerate(letters) if gen == edge]
            if len(on) <= 1:
                break
        else:
            break
        if on:
            if folded is None:
                folded = (None, _kron(I2, site), _kron(site, I2))
            k = on[0]
            loop = _letter_tensor(letters[k][1], folded, fold, fold)
            letters[k] = (n - 2, _kron(I2, loop)) if fold == 1 else (2, _kron(loop, I2))
        else:
            untouched += 1
        if fold == 2:
            letters = [(gen - 1, matrix) for gen, matrix in letters]
        n -= 1
    state = site
    for _ in range(n - 1):
        # site x state: with the larger operand inner it is twice as fast as
        # state x site at 6 strands
        state = _kron(site, state)
    value = complex(np.trace(_apply_letters(letters, state)))
    if untouched:  # a factor 1 + 0j would make an inf value inf + nan j
        value *= complex(np.trace(site)) ** untouched
    return value


@dataclass(frozen=True)
class WordPlan:
    """How to contract the closed braid of one word, in integers only.

    ``word`` is the planned word; everything below is built on its letters.

    The closed braid is a network with one 2x2x2x2 tensor per letter, axes
    (out_i, out_i+1, in_i, in_i+1).  On each strand an edge joins a letter's
    output to the input of the next letter applied to that strand (letters
    apply last first), and a closure edge joins the last output to the first
    input.  The 2x2 ``site`` of each strand is folded into the input side of
    the first letter applied to it; a strand no letter touches contributes
    tr(site).  On a strand with only one letter the closure edge is a loop on
    that letter, traced when its tensor is made: the tensor keeps the axes of
    its other strand, or none.  Labels are integers, and every label left
    lies on exactly two tensors.

    ``folds`` and ``loops`` follow the letters in application order: 2 when
    strand i is first touched (folds) or closed (loops) there, plus 1 for
    strand i+1.  ``steps`` are pairwise contractions ``(a, b, perm_a,
    perm_b, rows_a, rows_b)`` whose result is the next tensor, one matrix
    product each: tensor a, transposed by ``perm_a`` to its free axes then
    the shared ones, as a matrix of ``rows_a`` rows, times tensor b,
    transposed by ``perm_b`` to the shared axes in a's order then its free
    ones, as a matrix of ``rows_b`` rows.  A permutation is None when the
    axes are in order already.  The result's axes are a's free axes then
    b's.  ``roots`` are the tensors left, one scalar per connected
    component.
    """

    word: BraidWord
    folds: tuple[int, ...]
    loops: tuple[int, ...]
    steps: tuple[tuple[int, int, tuple | None, tuple | None, int, int], ...]
    roots: tuple[int, ...]
    untouched: int

    def trace(self, powers, site) -> complex:
        """Tr[rho(word) site^(x n)] by executing the plan on one tensor per
        letter: its power from ``powers`` (exponent -> 4x4 matrix, see
        :func:`letter_powers`) with the 2x2 ``site`` folded into the input
        side of the strands it touches first and its loops traced, each
        distinct (exponent, fold, loops) made once."""
        site = _site_matrix(site)
        # fold 1 = I x site, 2 = site x I, 3 = site x site
        folded = (None, _kron(I2, site), _kron(site, I2), _kron(site, site))
        keys = list(zip((exp for _, exp in reversed(self.word.letters)), self.folds, self.loops))
        made = {key: _letter_tensor(powers[key[0]], folded, *key[1:])
                for key in dict.fromkeys(keys)}
        tensors = [made[key] for key in keys]
        for a, b, perm_a, perm_b, rows_a, rows_b in self.steps:
            tensors.append(_matrix(tensors[a], perm_a, rows_a)
                           @ _matrix(tensors[b], perm_b, rows_b))
            tensors[a] = tensors[b] = None
        value = complex(np.trace(site)) ** self.untouched
        for k in self.roots:
            value *= tensors[k].item()
        return value


def _letter_tensor(power, folded, fold, loops):
    """A letter's 4x4 ``power`` with its fold applied and its loops traced:
    over axes 0, 2 of (out_i, out_i+1, in_i, in_i+1) for strand i (loops 2),
    over 1, 3 for strand i+1 (loops 1), over both for 3."""
    t = power @ folded[fold] if fold else power
    if loops == 3:
        return np.trace(t)
    if loops:
        return np.trace(t.reshape(2, 2, 2, 2), axis1=2 - loops, axis2=4 - loops)
    return t


def _matrix(t, perm, rows):
    """Tensor ``t`` with its axes permuted by ``perm`` (None: as they are),
    viewed as a matrix of ``rows`` rows."""
    if perm is not None:
        t = t.reshape((2,) * len(perm)).transpose(perm)
    return t.reshape(rows, -1)


def _site_matrix(site) -> np.ndarray:
    site = as_matrix(site)
    if site.shape != (2, 2):
        raise ValueError("the site of a closed braid is a 2x2 matrix")
    return site


def plan_word(word: BraidWord) -> WordPlan:
    """Contraction plan of the closed braid of ``word``: a generator sweep,
    or the greedy plan where the sweep's tensors would grow too large, with
    one tensor per letter of ``word`` (reduced when it was made).

    The sweep (:func:`_sweep_plan`) takes each run of adjacent generators
    that all have letters on its own and absorbs their letters into one
    running tensor, generator by generator, in O(letters).  When some
    running tensor would hold more than 2^(2 ``DENSE_STRANDS``) entries, the
    size of the largest dense state, the greedy plan (:func:`_greedy_plan`)
    is made instead.  Only integers are touched, so the plan is bounded
    before any array is allocated: it raises ``ValueError`` when, at some
    step, the live tensors and the result being formed would hold more than
    ``MAX_ENTRIES`` entries, or the step would sum more than ``MAX_TERMS``
    terms.  There is no bound on the strand count itself.
    """
    gens = [gen for gen, _ in reversed(word.letters)]
    cur: dict[int, tuple[int, int, int]] = {}  # strand -> (open label, letter, leg)
    first: dict[int, int] = {}  # strand -> label of its first input
    subs: list[list[int]] = []  # per letter, its labels in axis order
    folds = []
    labels = 0
    for k, gen in enumerate(gens):
        fold = 0
        if gen in cur:
            in_a = cur[gen][0]
        else:
            in_a = first[gen] = labels
            labels += 1
            fold = 2
        if gen + 1 in cur:
            in_b = cur[gen + 1][0]
        else:
            in_b = first[gen + 1] = labels
            labels += 1
            fold |= 1
        subs.append([labels, labels + 1, in_a, in_b])
        folds.append(fold)
        cur[gen], cur[gen + 1] = (labels, k, 0), (labels + 1, k, 1)
        labels += 2
    loops = [0] * len(subs)
    for s, (_, k, leg) in cur.items():  # closure: last output = first input
        if subs[k][leg + 2] == first[s]:  # the strand's only letter
            loops[k] |= 2 >> leg
        else:
            subs[k][leg] = first[s]
    for k, closed in enumerate(loops):
        if closed:  # 2: drop axes 0, 2; 1: drop 1, 3
            subs[k] = [l for axis, l in enumerate(subs[k]) if not closed & 2 >> axis % 2]
    steps_roots = _sweep_plan(word.strands, gens, subs) or _greedy_plan(word.strands, subs)
    return WordPlan(word, tuple(folds), tuple(loops), *steps_roots, word.strands - len(cur))


def _pair(labels_a, labels_b):
    """The step contracting tensors with ``labels_a`` and ``labels_b`` over
    the labels they share: ``(perm_a, perm_b, rows_a, rows_b)`` as in
    :class:`WordPlan`, and the labels of the result."""
    shared = [l for l in labels_a if l in labels_b]
    free_a = [l for l in labels_a if l not in shared]
    free_b = [l for l in labels_b if l not in shared]
    order_a, order_b = free_a + shared, shared + free_b
    return ((None if order_a == labels_a else tuple(map(labels_a.index, order_a)),
             None if order_b == labels_b else tuple(map(labels_b.index, order_b)),
             1 << len(free_a), 1 << len(shared)), free_a + free_b)


def _bound(strands: int, live: int, terms: int) -> None:
    """Refuse a step that would leave ``live`` entries held at once or sum
    ``terms`` terms, above ``MAX_ENTRIES`` or ``MAX_TERMS``."""
    if live > MAX_ENTRIES:
        raise ValueError(
            f"contracting this {strands}-strand closed braid would hold "
            f"{live} entries at once, above the limit of "
            f"2^{MAX_ENTRIES.bit_length() - 1}"
        )
    if terms > MAX_TERMS:
        raise ValueError(
            f"contracting this {strands}-strand closed braid needs a step "
            f"of 2^{terms.bit_length() - 1} terms, above the limit of "
            f"2^{MAX_TERMS.bit_length() - 1}"
        )


def _sweep_plan(strands: int, gens: list[int], subs: list[list[int]]):
    """Steps and roots of the generator sweep over letters on generators
    ``gens`` with labels ``subs`` (application order), or None when a running
    tensor would hold more than 2^(2 ``DENSE_STRANDS``) entries.

    Each run of adjacent generators that all have letters is one component,
    contracted into one running tensor: all the letters on s_g, then all on
    s_g+1, and so on.  The letters of s_g go in application order, rotated
    to start at one whose letter before it on strand g is on s_g-1, so each
    shares a leg with the running tensor, whose open legs are then only the
    edges between s_g and s_g+1.
    """
    last: dict[int, int] = {}  # strand -> generator of the last letter on it so far
    before = []  # per letter, the generator of the letter before it on strand g
    for gen in gens:
        before.append(last.get(gen))
        last[gen] = last[gen + 1] = gen
    on = defaultdict(list)  # generator -> its letters in application order
    for k, gen in enumerate(gens):
        on[gen].append(k)
        if before[k] is None:  # first on strand g: the letter before is its last
            before[k] = last[gen]
    live = 16 * len(subs)  # every letter's tensor is built before the first step
    steps, roots = [], []
    run = None
    for gen in sorted(on):
        ks = on[gen]
        if gen - 1 in on:
            j = next(j for j, k in enumerate(ks) if before[k] == gen - 1)
            ks = ks[j:] + ks[:j]
        else:  # a new component
            if run is not None:
                roots.append(run)
            run, labels, held = ks[0], subs[ks[0]], 16
            ks = ks[1:]
        for k in ks:
            step, labels = _pair(labels, subs[k])
            if len(labels) > 2 * DENSE_STRANDS:
                return None
            entries = 1 << len(labels)
            _bound(strands, live + entries, step[3] * entries)
            live += entries - held - 16
            steps.append((run, k, *step))
            run, held = len(subs) + len(steps) - 1, entries
    if run is not None:
        roots.append(run)
    return tuple(steps), tuple(roots)


def _greedy_plan(strands: int, subs: list[list[int]]):
    """Steps and roots of the greedy plan over letters with labels ``subs``.

    Among tensors that share a label, the pair with the least
    size(result) - size(a) - size(b) contracts next (ties go to the lower
    tensor numbers), taken from a heap of candidate pairs; a label-to-tensor
    map finds the new neighbours of each result.
    """
    subs = list(subs)
    owners = defaultdict(list)  # label -> the two tensors it lies on
    for k, labels in enumerate(subs):
        for l in labels:
            owners[l].append(k)
    held = [16] * len(subs)  # entries each tensor's array holds
    live = sum(held)  # every letter's tensor is built before the first step
    shared: dict[tuple[int, int], int] = {}
    for pair in owners.values():
        shared[pair[0], pair[1]] = shared.get((pair[0], pair[1]), 0) + 1
    heap = [((1 << len(subs[a]) + len(subs[b]) - 2 * n) - (1 << len(subs[a])) - (1 << len(subs[b])),
             a, b) for (a, b), n in shared.items()]
    heapq.heapify(heap)
    steps = []
    while heap:
        _, a, b = heapq.heappop(heap)
        if subs[a] is None or subs[b] is None:
            continue
        step, out = _pair(subs[a], subs[b])
        entries = 1 << len(out)
        _bound(strands, live + entries, step[3] * entries)
        steps.append((a, b, *step))
        live += entries - held[a] - held[b]
        c = len(subs)
        subs.append(out)
        held.append(entries)
        subs[a] = subs[b] = None
        shared = {}
        for l in out:
            pair = owners[l]
            if pair[0] == a or pair[0] == b:
                pair[0] = c
                t = pair[1]
            else:
                pair[1] = c
                t = pair[0]
            shared[t] = shared.get(t, 0) + 1
        for t, n in shared.items():
            score = (1 << len(subs[t]) + len(out) - 2 * n) - (1 << len(subs[t])) - entries
            heapq.heappush(heap, (score, t, c))
    return tuple(steps), tuple(k for k, labels in enumerate(subs) if labels is not None)


def closed_traces(r, site, words: list[BraidWord], r_inv=None) -> list[complex]:
    """Tr[rho(w) site^(x n)] of the closed braid of each of ``words``.

    Up to ``DENSE_STRANDS`` strands each edge strand that at most one letter
    touches is traced out first, as a factor tr(site) or as a loop on its
    letter like the plan's (see :func:`_dense_trace`), and the letters act
    on the dense state site^(x m) of the m strands left, one 4x4 product
    each; a wider word is contracted as a tensor network on its plan (see
    :func:`plan_word`), one matrix product per step.  Every wider word is
    planned, and so bounded, before any word is evaluated, and each
    distinct exponent's power of R or R^-1 is taken once for all the words
    (``r_inv`` as in :func:`letter_powers`).
    A trace whose factor tr(site)^k, over the k strands no letter touches,
    leaves the float64 range is inf.
    """
    site = _site_matrix(site)
    plans = [plan_word(w) if w.strands > DENSE_STRANDS else None for w in words]
    powers = letter_powers(r, (exp for w in words for _, exp in w.letters), r_inv)
    traces = []
    for word, plan in zip(words, plans):
        try:
            traces.append(_dense_trace(powers, word, site) if plan is None
                          else plan.trace(powers, site))
        except OverflowError:  # tr(site)^k raises in Python complex arithmetic
            traces.append(complex("inf"))
    return traces


# The eight Pauli words that span the X-type operators, II, ZI, IZ, ZZ, XX,
# XY, YX, YY (``PAULI_PAIRS`` at 4 k + l), one flattened word per row.
_XTYPE_WORDS = PAULI_PAIRS[[0, 12, 3, 15, 5, 6, 9, 10]].reshape(8, 16)


class PauliExpansion(NamedTuple):
    """Coefficients of an X-type operator on its eight Pauli words, an 8-tuple."""

    l: complex
    a3: complex
    a6: complex
    b9: complex
    b1: complex
    b2: complex
    b4: complex
    b5: complex

    def reassemble(self) -> np.ndarray:
        """The operator sum_P c_P P over the eight words."""
        return (np.array(self, dtype=complex) @ _XTYPE_WORDS).reshape(4, 4)


def pauli_expand(h) -> PauliExpansion:
    """Expand the X-type operator of h1..h8 (see :func:`assemble`) over
    II, ZI, IZ, ZZ, XX, XY, YX, YY: the coefficient of word P is tr(P R) / 4."""
    return PauliExpansion(*(_XTYPE_WORDS @ assemble(h).T.ravel() / 4).tolist())


def lie_orbit_rank(r) -> tuple[int, dict[str, dict]]:
    """Rank of the local-algebra orbit directions at a 4x4 operator, X-type in use.

    Commutes the operator with the six one-qubit generators {X, Y, Z} x I and
    I x {X, Y, Z} (``LOCAL_PAULIS``), stacks the flattened commutators,
    and counts singular values above RANK_TOL times the largest.  The report
    notes which commutators are nonzero and which stay inside the X pattern
    (only Z1's and Z2's do, for generic parameters), both to RANK_TOL times
    max|R|, so neither flag depends on the scale of R.
    """
    r = _as_two_qubit(r)
    comms = LOCAL_PAULIS @ r - r @ LOCAL_PAULIS
    tol = RANK_TOL * max_norm(r)
    report: dict[str, dict] = {}
    names = [f"{p}{q}" for q in "12" for p in "XYZ"]  # the order of LOCAL_PAULIS
    for name, comm in zip(names, comms):
        report[name] = {"nonzero": max_norm(comm) > tol,
                        "preserves_xtype": max_norm(comm[~XTYPE_SUPPORT]) <= tol}
    return numerical_rank(comms.reshape(6, 16)), report


# --------------------------------------------------------------------------
# Solution catalog
# --------------------------------------------------------------------------

def sqrt(z) -> complex:
    """Principal square root as a Python complex, for every table: a formula
    built from it raises ZeroDivisionError where numpy scalars would warn and
    go on with inf or nan."""
    return complex(np.sqrt(complex(z)))


_EXPR_GLOBALS = {"__builtins__": {}, "sqrt": sqrt, "abs": abs, "I": 1j}


@functools.lru_cache(maxsize=None)  # keys are the tables' string constants
def compile_expr(expr: str):
    """Code object of one table expression, compiled on first use."""
    return compile(expr, "<table expression>", "eval")


def evaluate_expr(expr: str, params: dict[str, complex]) -> complex:
    """Value of a table expression at the given parameter values."""
    return complex(eval(compile_expr(expr), _EXPR_GLOBALS, params))


def bind(owner: str, names, params: dict) -> dict[str, complex]:
    """``params`` as complex values, in the order of ``names``.

    The one check of parameter names in the package: every table record and
    the CLI take exactly the parameters they name, so a missing or unknown
    name is a ``ValueError`` before any expression is evaluated.
    """
    missing = [k for k in names if k not in params]
    if missing or len(params) != len(names):
        unknown = sorted(set(params) - set(names))
        raise ValueError(f"{owner} takes parameters {list(names)} "
                         f"(missing {missing}, unknown {unknown})")
    return {k: complex(params[k]) for k in names}


@dataclass(frozen=True)
class CatalogEntry:
    """One parameter family of X-type Yang-Baxter solutions.

    ``constraints`` assigns every non-free slot an expression over the free
    parameters (zeros included), so the record is fully declarative.
    ``eigen_named`` gives the class's canonical eigenvalue combinations used
    by the per-class invariant formulas; squared combinations are stored
    where the defining formulas take a square root, keeping the record
    branch-free.
    """

    class_id: int
    variant_id: int
    free_params: tuple[str, ...]
    constraints: dict[str, str]
    eigen_pattern: str
    eigen_named: dict[str, str]
    enhancement_refs: tuple[str, ...] = ()

    @property
    def entry_id(self) -> str:
        return f"C{self.class_id}.{self.variant_id}"

    def fill(self, params: dict[str, complex]) -> XTypeParams:
        """The eight slots; a constraint dividing by zero is inadmissible."""
        env = bind(self.entry_id, self.free_params, params)
        full = dict(env)
        for slot, expr in self.constraints.items():
            try:
                full[slot] = evaluate_expr(expr, env)
            except ZeroDivisionError:
                raise InadmissibleParamsError(
                    f"{self.entry_id}: {slot} = {expr} divides by zero") from None
        return XTypeParams(*(full.get(slot, 0j) for slot in XTypeParams._fields))

    def eigen_values(self, params: dict[str, complex]) -> dict[str, complex]:
        env = bind(self.entry_id, self.free_params, params)
        return {name: evaluate_expr(expr, env) for name, expr in self.eigen_named.items()}

    def random_params(self, rng: np.random.Generator) -> dict[str, complex]:
        """Draw admissible free parameters (re/im standard normal, rejection
        of draws whose operator has |det| <= DRAW_MIN_DET)."""
        for _ in range(100):
            params = {k: complex(rng.normal(), rng.normal()) for k in self.free_params}
            try:
                h = self.fill(params)
            except InadmissibleParamsError:
                continue
            if abs(np.linalg.det(assemble(h))) > DRAW_MIN_DET:
                return params
        raise RuntimeError(f"could not draw admissible parameters for {self.entry_id}")


def _build_catalog() -> dict[str, CatalogEntry]:
    entries: list[CatalogEntry] = []

    entries.append(
        CatalogEntry(
            1, 0, ("h1", "h4", "h5", "h8"),
            {"h2": "0", "h3": "0", "h6": "0", "h7": "0"},
            "lam1+=h1, lam1-=h8, lam2+-=+-sqrt(h4*h5)",
            {"lam1p": "h1", "lam1m": "h8", "lam2sq": "h4*h5"},
            enhancement_refs=("C1.I", "C1.Z", "C1.I+Z", "C1.I-Z"),
        )
    )
    entries.append(
        CatalogEntry(
            2, 0, ("h2", "h3", "h7"),
            {"h1": "0", "h4": "0", "h5": "0", "h8": "0", "h6": "h3"},
            "lam1+-=+-sqrt(h2*h7), lam2=h3 (x2)",
            {"lam1sq": "h2*h7", "lam2": "h3"},
            enhancement_refs=("C2.I",),
        )
    )

    # Class 3: two equal eigenvalue pairs {h1, h8}.  Variants 4-7 put the
    # h1+h8 constraint on h3 instead of h6, which swaps I2_4 with I2_5 and
    # hence the lam+/lam- labels.
    c3 = [
        (("h1", "h7", "h8"), {"h2": "0", "h3": "0", "h4": "-h1", "h5": "h8", "h6": "h1+h8"}, "h1", "h8"),
        (("h1", "h7", "h8"), {"h2": "0", "h3": "0", "h4": "h1", "h5": "-h8", "h6": "h1+h8"}, "h1", "h8"),
        (("h1", "h2", "h8"), {"h3": "0", "h7": "0", "h4": "-h8", "h5": "h1", "h6": "h1+h8"}, "h1", "h8"),
        (("h1", "h2", "h8"), {"h3": "0", "h7": "0", "h4": "h8", "h5": "-h1", "h6": "h1+h8"}, "h1", "h8"),
        (("h1", "h2", "h8"), {"h6": "0", "h7": "0", "h4": "-h1", "h5": "h8", "h3": "h1+h8"}, "h8", "h1"),
        (("h1", "h2", "h8"), {"h6": "0", "h7": "0", "h4": "h1", "h5": "-h8", "h3": "h1+h8"}, "h8", "h1"),
        (("h1", "h7", "h8"), {"h2": "0", "h6": "0", "h4": "-h8", "h5": "h1", "h3": "h1+h8"}, "h8", "h1"),
        (("h1", "h7", "h8"), {"h2": "0", "h6": "0", "h4": "h8", "h5": "-h1", "h3": "h1+h8"}, "h8", "h1"),
    ]
    for k, (free, cons, lp, lm) in enumerate(c3):
        entries.append(
            CatalogEntry(3, k, free, cons, f"lam+={lp} (x2), lam-={lm} (x2)",
                         {"lamp": lp, "lamm": lm},
                         enhancement_refs=("C3.Z", "C3.mu2", "C3.mu3") if k == 0 else ())
        )

    entries.append(
        CatalogEntry(
            4, 0, ("h1", "h4", "h6"),
            {"h2": "0", "h3": "0", "h7": "0", "h5": "h1/h4*(h1-h6)", "h8": "h1"},
            "lam1=h1 (x3), lam2=-h1+h6",
            {"lam1": "h1", "lam2": "-h1+h6"},
            enhancement_refs=("C4.I", "C4.Z", "C4.I+Z", "C4.I-Z", "C4.mu5"),
        )
    )
    entries.append(
        CatalogEntry(
            4, 1, ("h1", "h3", "h4"),
            {"h2": "0", "h6": "0", "h7": "0", "h5": "h1/h4*(h1-h3)", "h8": "h1"},
            "lam1=h1 (x3), lam2=-h1+h3",
            {"lam1": "h1", "lam2": "-h1+h3"},
        )
    )
    entries.append(
        CatalogEntry(
            5, 0, ("h1", "h4", "h6"),
            {"h2": "0", "h3": "0", "h7": "0", "h5": "h1/h4*(h1-h6)", "h8": "-h1+h6"},
            "lam+=h1 (x2), lam-=-h1+h6 (x2)",
            {"lamp": "h1", "lamm": "-h1+h6"},
            enhancement_refs=("C5.Z", "C5.I+Z", "C5.I-Z"),
        )
    )
    entries.append(
        CatalogEntry(
            5, 1, ("h1", "h3", "h4"),
            # h3 takes over h6's role, swapping the lam+/lam- labels
            {"h2": "0", "h6": "0", "h7": "0", "h5": "h1/h4*(h1-h3)", "h8": "-h1+h3"},
            "lam+=-h1+h3 (x2), lam-=h1 (x2)",
            {"lamp": "-h1+h3", "lamm": "h1"},
        )
    )

    c6_eigen = {"e1": "h1+h8", "e2": "-(h1-h8)**2/4"}  # lam+ + lam-, lam+ * lam-
    entries.append(
        CatalogEntry(
            6, 0, ("h1", "h2", "h8"),
            {
                "h3": "(h1+h8)/2",
                "h6": "(h1+h8)/2",
                "h4": "-sqrt((h1**2+h8**2)/2)",
                "h5": "-sqrt((h1**2+h8**2)/2)",
                "h7": "(h1+h8)**2/(4*h2)",
            },
            "lam+- = [h1+h8 +- sqrt(2(h1^2+h8^2))]/2 (x2 each)",
            c6_eigen,
            enhancement_refs=("C6.Z", "C6.mu2", "C6.mu3", "C6.mu4", "C6.mu5"),
        )
    )
    entries.append(
        CatalogEntry(
            6, 1, ("h1", "h2", "h8"),
            {
                "h3": "(h1+h8)/2",
                "h6": "(h1+h8)/2",
                "h4": "sqrt((h1**2+h8**2)/2)",
                "h5": "sqrt((h1**2+h8**2)/2)",
                "h7": "(h1+h8)**2/(4*h2)",
            },
            "lam+- = [h1+h8 +- sqrt(2(h1^2+h8^2))]/2 (x2 each)",
            c6_eigen,
        )
    )

    c7_eigen = {"lamp": "h1+h3", "lamm": "h1-h3"}
    entries.append(
        CatalogEntry(
            7, 0, ("h1", "h2", "h3"),
            {"h4": "-h1", "h5": "-h1", "h6": "h3", "h8": "h1", "h7": "h3**2/h2"},
            "lam+=h1+h3 (x2), +-lam-=+-(h1-h3)",
            c7_eigen,
            enhancement_refs=("C7.I",),
        )
    )
    entries.append(
        CatalogEntry(
            7, 1, ("h1", "h2", "h3"),
            {"h4": "h1", "h5": "h1", "h6": "h3", "h8": "h1", "h7": "h3**2/h2"},
            "lam+=h1+h3 (x2), +-lam-=+-(h1-h3)",
            c7_eigen,
        )
    )

    c8_eigen = {"lamsum": "2*h1"}  # lam+ + lam- = (1+i)h1 + (1-i)h1
    for k, (h4e, h5e) in enumerate([("-h1", "h1"), ("h1", "-h1")]):
        entries.append(
            CatalogEntry(
                8, k, ("h1", "h2"),
                {"h3": "h1", "h6": "h1", "h8": "h1", "h4": h4e, "h5": h5e,
                 "h7": "-h1**2/h2"},
                "lam+- = (1 +- I) h1 (x2 each)",
                c8_eigen,
                enhancement_refs=("C8.I",) if k == 0 else (),
            )
        )

    c9 = [
        (("h1", "h7"), {"h2": "0", "h3": "0", "h6": "0", "h4": "-h1", "h5": "-h1", "h8": "h1"}),
        (("h1", "h2"), {"h3": "0", "h6": "0", "h7": "0", "h4": "-h1", "h5": "-h1", "h8": "h1"}),
        (("h1", "h7"), {"h2": "0", "h3": "0", "h6": "0", "h4": "h1", "h5": "h1", "h8": "h1"}),
        (("h1", "h2"), {"h3": "0", "h6": "0", "h7": "0", "h4": "h1", "h5": "h1", "h8": "h1"}),
    ]
    for k, (free, cons) in enumerate(c9):
        entries.append(
            CatalogEntry(9, k, free, cons, "lam=h1 (x3), -lam=-h1", {"lam": "h1"},
                         enhancement_refs=("C9.I",) if k == 0 else ())
        )

    c10 = [
        (("h1", "h7"), {"h2": "0", "h3": "0", "h6": "0", "h4": "-h1", "h5": "-h1", "h8": "-h1"}),
        (("h1", "h2"), {"h3": "0", "h6": "0", "h7": "0", "h4": "-h1", "h5": "-h1", "h8": "-h1"}),
        (("h1", "h7"), {"h2": "0", "h3": "0", "h6": "0", "h4": "h1", "h5": "h1", "h8": "-h1"}),
        (("h1", "h2"), {"h3": "0", "h6": "0", "h7": "0", "h4": "h1", "h5": "h1", "h8": "-h1"}),
    ]
    for k, (free, cons) in enumerate(c10):
        entries.append(
            CatalogEntry(10, k, free, cons, "+-lam = +-h1 (x2 each)", {"lam": "h1"},
                         enhancement_refs=("C10.Z", "C10.mu2", "C10.mu3") if k == 0 else ())
        )

    c11 = [
        (("h7", "h8"), {"h2": "0", "h6": "0", "h1": "h8", "h5": "h8", "h4": "-h8", "h3": "2*h8"}, "h8"),
        (("h2", "h8"), {"h6": "0", "h7": "0", "h1": "h8", "h5": "h8", "h4": "-h8", "h3": "2*h8"}, "h8"),
        (("h7", "h8"), {"h2": "0", "h6": "0", "h1": "h8", "h4": "h8", "h5": "-h8", "h3": "2*h8"}, "h8"),
        (("h2", "h8"), {"h6": "0", "h7": "0", "h1": "h8", "h4": "h8", "h5": "-h8", "h3": "2*h8"}, "h8"),
        (("h1", "h7"), {"h2": "0", "h3": "0", "h5": "h1", "h8": "h1", "h4": "-h1", "h6": "2*h1"}, "h1"),
        (("h1", "h2"), {"h3": "0", "h7": "0", "h5": "h1", "h8": "h1", "h4": "-h1", "h6": "2*h1"}, "h1"),
        (("h1", "h7"), {"h2": "0", "h3": "0", "h4": "h1", "h8": "h1", "h5": "-h1", "h6": "2*h1"}, "h1"),
        (("h1", "h2"), {"h3": "0", "h7": "0", "h4": "h1", "h8": "h1", "h5": "-h1", "h6": "2*h1"}, "h1"),
    ]
    for k, (free, cons, lam) in enumerate(c11):
        entries.append(
            CatalogEntry(11, k, free, cons, f"lam={lam} (x4)", {"lam": lam},
                         enhancement_refs=("C11.Z",) if k == 0 else ())
        )

    entries.append(
        CatalogEntry(
            12, 0, ("h1", "h2"),
            {"h4": "0", "h5": "0", "h3": "(1-1j)/2*h1", "h6": "(1-1j)/2*h1",
             "h8": "-1j*h1", "h7": "-1j/2*h1**2/h2"},
            "lam=(1-I)/2 h1 (x4)",
            {"lam": "(1-1j)/2*h1"},
            enhancement_refs=("C12.Z", "C12.mu2", "C12.mu3", "C12.mu4", "C12.mu5"),
        )
    )
    entries.append(
        CatalogEntry(
            12, 1, ("h1", "h2"),
            {"h4": "0", "h5": "0", "h3": "(1+1j)/2*h1", "h6": "(1+1j)/2*h1",
             "h8": "1j*h1", "h7": "1j/2*h1**2/h2"},
            "lam=(1+I)/2 h1 (x4)",
            {"lam": "(1+1j)/2*h1"},
        )
    )

    return {e.entry_id: e for e in entries}


CATALOG: dict[str, CatalogEntry] = _build_catalog()


def catalog_entry(entry_id: str) -> CatalogEntry:
    try:
        return CATALOG[entry_id]
    except KeyError:
        raise KeyError(f"unknown catalog id {entry_id!r}; known: C1.0 .. C12.1") from None
