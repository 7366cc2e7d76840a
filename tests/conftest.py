"""Shared machines, systems, and brute-force oracles for the test suite."""

from functools import cache
from itertools import islice, product as iproduct
from math import inf

import pytest

from ans import (
    AutomaticSequence,
    Dfa,
    Dfao,
    Morphism,
    NumerationSystem,
    OrderedAlphabet,
)

# The 50-term golden prefix of the running example: words of a's then b's,
# outputs determined by (#a mod 4, #b mod 3).
GOLDEN_50 = "01023031200231010123023031203120231002310123010123"

AB = OrderedAlphabet(("a", "b"))
ZO = OrderedAlphabet(("0", "1"))


def ab_star_dfa() -> Dfa:
    """Words consisting of a's followed by b's, over a < b."""
    return Dfa(
        AB,
        ("p", "q"),
        "p",
        frozenset({"p", "q"}),
        {("p", "a"): "p", ("p", "b"): "q", ("q", "b"): "q"},
    )


def teaching_output(i: int, j: int) -> str:
    if i == 0:
        return "0"
    if (i, j) in {(1, 0), (2, 1), (3, 2)}:
        return "1"
    if (i, j) in {(1, 2), (2, 0), (3, 1)}:
        return "2"
    return "3"


def teaching_dfao() -> Dfao:
    """12-state machine tracking (#a mod 4, #b mod 3) with the class outputs."""
    states = tuple((i, j) for i in range(4) for j in range(3))
    trans = {}
    for i, j in states:
        trans[((i, j), "a")] = ((i + 1) % 4, j)
        trans[((i, j), "b")] = (i, (j + 1) % 3)
    out = {(i, j): teaching_output(i, j) for (i, j) in states}
    return Dfao(AB, states, (0, 0), trans, out, ("0", "1", "2", "3"))


def binary_like_dfa() -> Dfa:
    """The empty word plus all words starting with 1, over 0 < 1."""
    return Dfa(
        ZO,
        ("s", "m"),
        "s",
        frozenset({"s", "m"}),
        {("s", "1"): "m", ("m", "0"): "m", ("m", "1"): "m"},
    )


def thue_morse_dfao() -> Dfao:
    """Parity of the number of 1s read."""
    return Dfao(
        ZO,
        ("e", "o"),
        "e",
        {("e", "0"): "e", ("e", "1"): "o", ("o", "0"): "o", ("o", "1"): "e"},
        {"e": "0", "o": "1"},
        ("0", "1"),
    )


def fibonacci_dfa() -> Dfa:
    """The empty word plus words starting with 1 and avoiding 11."""
    return Dfa(
        ZO,
        ("s", "x", "y"),
        "s",
        frozenset({"s", "x", "y"}),
        {("s", "1"): "x", ("x", "0"): "y", ("y", "0"): "y", ("y", "1"): "x"},
    )


def squares_dfa() -> Dfa:
    """a's with at most one marker b or c: the n-th word of length m is ranked
    so that the block of length m starts at rank m² (2m+1 words per length)."""
    sig = OrderedAlphabet(("a", "b", "c"))
    return Dfa(
        sig,
        ("z", "y"),
        "z",
        frozenset({"z", "y"}),
        {("z", "a"): "z", ("z", "b"): "y", ("z", "c"): "y", ("y", "a"): "y"},
    )


def squares_chi_dfao() -> Dfao:
    """Outputs 1 exactly on all-a words, the representations of the squares."""
    sig = OrderedAlphabet(("a", "b", "c"))
    return Dfao(
        sig,
        ("one", "zero"),
        "one",
        {
            ("one", "a"): "one",
            ("one", "b"): "zero",
            ("one", "c"): "zero",
            ("zero", "a"): "zero",
        },
        {"one": "1", "zero": "0"},
        ("1", "0"),
    )


def sigma_star_dfa() -> Dfa:
    """Every word over a < b."""
    return Dfa(AB, ("z",), "z", frozenset({"z"}), {("z", "a"): "z", ("z", "b"): "z"})


def remark_morphism() -> Morphism:
    """0 -> 0101, 1 -> 11 over the two-letter output alphabet."""
    zo = OrderedAlphabet((0, 1))
    return Morphism(zo, zo, {0: (0, 1, 0, 1), 1: (1, 1)})


def witness_morphism() -> Morphism:
    """0 -> 01, 1 -> 12, 2 -> 2: the quadratic-growth witness."""
    abc = OrderedAlphabet((0, 1, 2))
    return Morphism(abc, abc, {0: (0, 1), 1: (1, 2), 2: (2,)})


def brute_words(dfa: Dfa, max_len: int):
    """All accepted words of length <= max_len in shortlex order, by filtering
    the full cartesian power — independent of the package's enumeration."""
    out = []
    for n in range(max_len + 1):
        for w in iproduct(dfa.alphabet.symbols, repeat=n):
            if dfa.accepts(w):
                out.append(w)
    return out


def brute_growth(dfa: Dfa) -> dict:
    """How the words read from each state grow with their length m, by definition.

    -1 if they are finitely many, d if O(m^d) of them have length m, ``inf``
    if exponentially many.  Only live states count, those that reach a final
    state.  Two live states share a component when each reaches the other;
    a component with more transitions inside than states grows
    exponentially, and otherwise d + 1 is the most components with a
    transition inside on one path of the condensation.
    """
    sigma = dfa.alphabet.symbols

    def reach(q):
        seen, todo = {q}, [q]
        for p in todo:
            for a in sigma:
                p2 = dfa.trans.get((p, a))
                if p2 is not None and p2 not in seen:
                    seen.add(p2)
                    todo.append(p2)
        return seen

    reached = {q: reach(q) for q in dfa.states}
    live = {q for q in dfa.states if reached[q] & dfa.finals}
    comp = {q: frozenset(p for p in reached[q] & live if q in reached[p]) for q in live}

    def inside(c):
        return sum(dfa.trans.get((p, a)) in c for p in c for a in sigma)

    @cache
    def cycles(c):
        after = {comp[q2] for p in c for a in sigma if (q2 := dfa.trans.get((p, a))) in live} - {c}
        return (inside(c) > 0) + max(map(cycles, after), default=0)

    def growth(q):
        if q not in live:
            return -1
        if any(inside(comp[p]) > len(comp[p]) for p in reached[q] & live):
            return inf
        return cycles(comp[q]) - 1

    return {q: growth(q) for q in dfa.states}


def took_levels(make, count=1) -> list:
    """The roots that the first `count` items of the stream `make()` read by the level path."""
    roots, levels = [], NumerationSystem._levels

    def spied(self, root, *args):
        roots.append(root)
        return levels(self, root, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(NumerationSystem, "_levels", spied)
        sum(1 for _ in islice(make(), count))
    return roots


def popcount_parity(n: int) -> str:
    return str(bin(n).count("1") % 2)


@pytest.fixture
def ab_system() -> NumerationSystem:
    return NumerationSystem(ab_star_dfa())


@pytest.fixture
def teaching(ab_system) -> AutomaticSequence:
    return AutomaticSequence(ab_system, teaching_dfao())


@pytest.fixture
def thue_morse() -> AutomaticSequence:
    return AutomaticSequence(NumerationSystem(binary_like_dfa()), thue_morse_dfao())


@pytest.fixture
def squares_sequence() -> AutomaticSequence:
    return AutomaticSequence(NumerationSystem(squares_dfa()), squares_chi_dfao())


def prefix(stream, n: int) -> tuple:
    return tuple(islice(stream, n))
