from itertools import islice, product as iproduct

import pytest

from ans import (
    Dfa,
    Dfao,
    Morphism,
    NotProlongableError,
    NumerationSystem,
    OrderedAlphabet,
    Substitution,
    canonical_substitution,
    equivalent,
    fixed_point,
    is_substitution_morphism,
    sequence,
    state_morphism,
    substitution_of,
    system_from_morphism,
    take,
)
from conftest import (
    AB,
    GOLDEN_50,
    ab_star_dfa,
    binary_like_dfa,
    popcount_parity,
    remark_morphism,
    teaching_dfao,
    thue_morse_dfao,
    witness_morphism,
)

# -- morphisms ---------------------------------------------------------------


def tm_morphism() -> Morphism:
    zo = OrderedAlphabet(("0", "1"))
    return Morphism(zo, zo, {"0": ("0", "1"), "1": ("1", "0")})


def test_morphism_apply():
    phi = witness_morphism()
    assert phi.apply((0,)) == (0, 1)
    assert phi((0, 1, 2)) == (0, 1, 1, 2, 2)
    assert phi.apply(()) == ()


def test_morphism_validation():
    zo = OrderedAlphabet(("0", "1"))
    with pytest.raises(ValueError, match="no image"):
        Morphism(zo, zo, {"0": ("0", "1")})
    with pytest.raises(ValueError, match="outside the codomain"):
        Morphism(zo, zo, {"0": ("0", "2"), "1": ("1",)})


def test_prolongability():
    phi = witness_morphism()
    assert phi.is_prolongable_on(0)
    assert phi.is_prolongable_on(1)
    assert not phi.is_prolongable_on(2)  # image too short
    swapped = Morphism(phi.domain, phi.domain, {0: (1, 0), 1: (1, 2), 2: (2,)})
    assert not swapped.is_prolongable_on(0)  # image starts with the wrong letter


def test_fixed_point_matches_iterated_images():
    phi = witness_morphism()
    w = (0,)
    for _ in range(8):
        w = phi.apply(w)
    assert take(fixed_point(phi, 0), len(w)) == w


def test_fixed_point_requires_prolongability():
    phi = witness_morphism()
    with pytest.raises(NotProlongableError, match="not prolongable"):
        next(fixed_point(phi, 2))


def test_finite_fixed_point_terminates():
    ab = OrderedAlphabet(("a", "b"))
    phi = Morphism(ab, ab, {"a": ("a", "b"), "b": ()})
    assert list(fixed_point(phi, "a")) == ["a", "b"]


# -- substitutions -------------------------------------------------------------


def test_substitution_validation():
    phi = witness_morphism()
    ident = Morphism(phi.domain, phi.domain, {x: (x,) for x in phi.domain})
    Substitution(phi, ident, 0)  # fine
    with pytest.raises(ValueError, match="one letter or the empty word"):
        Substitution(phi, phi, 0)
    partial = Morphism(OrderedAlphabet((0, 1)), phi.domain, {0: (0,), 1: (1,)})
    with pytest.raises(ValueError, match="total"):
        Substitution(phi, partial, 0)
    # 0 1 1 2 1 2 2 1 2 2 2 ...: infinitely many 2s survive the coding
    keep2 = Morphism(phi.domain, phi.domain, {0: (), 1: (), 2: (2,)})
    assert take(Substitution(phi, keep2, 0).generate(), 20) == (2,) * 20
    keep0 = Morphism(phi.domain, phi.domain, {0: (0,), 1: (), 2: ()})
    with pytest.raises(ValueError, match="erases too much"):
        Substitution(phi, keep0, 0)


def test_generate_with_identity_coding_is_the_fixed_point():
    phi = tm_morphism()
    ident = Morphism(phi.domain, phi.domain, {x: (x,) for x in phi.domain})
    t = Substitution(phi, ident, "0")
    assert take(t.generate(), 512) == take(fixed_point(phi, "0"), 512)
    assert take(t.generate(), 512) == tuple(popcount_parity(n) for n in range(512))


def test_generate_skips_erased_letters():
    # only every second letter of the fixed point is kept
    zo = OrderedAlphabet(("0", "1"))
    phi = Morphism(zo, zo, {"0": ("0", "1"), "1": ("1", "0")})
    keep0 = Morphism(zo, OrderedAlphabet(("x",)), {"0": ("x",), "1": ()})
    t = Substitution(phi, keep0, "0")
    fp = take(fixed_point(phi, "0"), 4_000)
    expected = tuple("x" for c in fp if c == "0")
    assert take(t.generate(), len(expected) - 10) == expected[:-10]


def sxy_substitution(images):
    """Seed s over letters s, x, y; the coding keeps only x, as a."""
    sxy = OrderedAlphabet(("s", "x", "y"))
    h = Morphism(sxy, OrderedAlphabet(("a",)), {"s": (), "x": ("a",), "y": ()})
    return Substitution(Morphism(sxy, sxy, images), h, "s")


def test_substitution_with_finite_coded_word_is_rejected():
    # s x y yy yyyy ...: the one x is the only coded letter
    with pytest.raises(ValueError, match="erases too much"):
        sxy_substitution({"s": ("s", "x"), "x": ("y",), "y": ("y", "y")})


def test_substitution_with_infinite_coded_word_is_accepted():
    # s y yx yxx yxxx ...: every level adds one more x
    t = sxy_substitution({"s": ("s", "y"), "x": ("x",), "y": ("y", "x")})
    assert "".join(take(t.generate(), 300)) == "a" * 300


# -- from sequences to substitutions -----------------------------------------


def test_canonical_substitution_golden(teaching):
    t = canonical_substitution(ab_star_dfa(), teaching_dfao())
    assert "".join(take(t.generate(), 50)) == GOLDEN_50
    assert take(t.generate(), 10_000) == teaching.prefix(10_000)


def test_canonical_substitution_thue_morse(thue_morse):
    t = canonical_substitution(binary_like_dfa(), thue_morse_dfao())
    assert take(t.generate(), 4_096) == thue_morse.prefix(4_096)


def test_canonical_substitution_squares(squares_sequence):
    t = canonical_substitution(squares_sequence.system.language, squares_sequence.machine)
    assert take(t.generate(), 2_000) == squares_sequence.prefix(2_000)


def test_canonical_substitution_unary_language():
    # over one letter every pair letter has a one-letter image: only the seed grows
    a = OrderedAlphabet(("a",))
    lang = Dfa(a, ("p",), "p", frozenset({"p"}), {("p", "a"): "p"})
    mach = Dfao(a, ("x", "y", "z"), "x", {("x", "a"): "y", ("y", "a"): "z", ("z", "a"): "y"},
                {"x": "0", "y": "1", "z": "2"}, ("0", "1", "2"))
    t = canonical_substitution(lang, mach)
    assert "".join(take(t.generate(), 9)) == "012121212"


def test_substitution_of_pair_letters(teaching):
    t = substitution_of(teaching)
    # fresh seed + one letter per reachable (language, machine) state pair
    assert len(t.phi.domain.symbols) == 1 + 28
    assert t.coding.images[t.seed] == ()


def test_canonical_substitution_is_deterministic():
    a = canonical_substitution(ab_star_dfa(), teaching_dfao())
    b = canonical_substitution(ab_star_dfa(), teaching_dfao())
    assert a.phi.images == b.phi.images
    assert a.coding.images == b.coding.images
    assert a.seed == b.seed


# -- state morphisms -----------------------------------------------------------


def shortlex_words(alphabet, count):
    out = []
    n = 0
    while len(out) < count:
        for w in iproduct(alphabet.symbols, repeat=n):
            out.append(w)
            if len(out) == count:
                break
        n += 1
    return out


def test_state_morphism_lists_run_states():
    machines = [
        teaching_dfao(),
        thue_morse_dfao(),
        ab_star_dfa().completed(),
    ]
    for m in machines:
        phi, alpha = state_morphism(m)
        stream = fixed_point(phi, alpha)
        assert next(stream) == alpha
        got = take(stream, 300)
        expected = tuple(m.run(w) for w in shortlex_words(m.alphabet, 300))
        assert got == expected


def test_state_morphism_requires_complete_machine():
    with pytest.raises(ValueError, match="complete"):
        state_morphism(ab_star_dfa())


def test_state_morphism_fresh_letter_avoids_collision():
    sig = OrderedAlphabet(("x",))
    m = Dfa(sig, ("@a", "r"), "@a", frozenset({"r"}), {("@a", "x"): "r", ("r", "x"): "@a"})
    phi, alpha = state_morphism(m)
    assert alpha == "@a0"
    assert phi.images[alpha] == (alpha, "@a")


# -- from morphisms to sequences -----------------------------------------------


def test_remark_language():
    system, _machine = system_from_morphism(remark_morphism(), 0)
    sig = system.alphabet
    assert sig.symbols == ("a", "b", "c", "d")
    expected = Dfa(
        sig,
        ("u", "v"),
        "u",
        frozenset({"u", "v"}),
        {
            ("u", "a"): "u",
            ("u", "c"): "u",
            ("u", "b"): "v",
            ("u", "d"): "v",
            ("v", "a"): "v",
            ("v", "b"): "v",
        },
    )
    assert equivalent(system.language, expected)


def test_witness_language():
    system, _machine = system_from_morphism(witness_morphism(), 0)
    sig = system.alphabet
    assert sig.symbols == ("a", "b")
    # at most two b's
    expected = Dfa(
        sig,
        (0, 1, 2),
        0,
        frozenset({0, 1, 2}),
        {
            (0, "a"): 0,
            (0, "b"): 1,
            (1, "a"): 1,
            (1, "b"): 2,
            (2, "a"): 2,
        },
    )
    assert equivalent(system.language, expected)


def test_induced_sequence_concatenates_iterates():
    for phi, seed in ((remark_morphism(), 0), (witness_morphism(), 0)):
        system, machine = system_from_morphism(phi, seed)
        expected = []
        w = (seed,)
        while len(expected) < 300:
            expected.extend(w)  # phi^0(seed), phi^1(seed), ...
            w = phi.apply(w)
        assert take(sequence(system, machine), 300) == tuple(expected[:300])


def test_witness_induced_prefix_literal():
    system, machine = system_from_morphism(witness_morphism(), 0)
    got = "".join(str(x) for x in take(sequence(system, machine), 20))
    assert got == "00101120112122011212"


def test_system_from_morphism_rejects_bad_seed():
    with pytest.raises(NotProlongableError):
        system_from_morphism(witness_morphism(), 2)


def test_system_from_morphism_symbol_override():
    phi = remark_morphism()
    system, machine = system_from_morphism(phi, 0, input_symbols=("w", "x", "y", "z"))
    assert system.alphabet.symbols == ("w", "x", "y", "z")
    default_system, _ = system_from_morphism(phi, 0)
    for n in range(7):
        assert system.count_words(n) == default_system.count_words(n)
    with pytest.raises(ValueError, match="input symbols"):
        system_from_morphism(phi, 0, input_symbols=("x", "y"))


# -- recognizing maps between substitutions -------------------------------------


def rename_substitution(t: Substitution, prefix: str):
    m = {x: f"{prefix}{i}" for i, x in enumerate(t.phi.domain)}
    dom = OrderedAlphabet(tuple(m[x] for x in t.phi.domain))
    phi = Morphism(dom, dom, {m[x]: tuple(m[y] for y in t.phi.images[x]) for x in t.phi.domain})
    coding = Morphism(
        dom, t.coding.codomain, {m[x]: t.coding.images[x] for x in t.phi.domain}
    )
    return Substitution(phi, coding, m[t.seed]), m


def test_substitution_morphism_identity(teaching):
    t = substitution_of(teaching)
    ident = {x: x for x in t.phi.domain}
    ident.update({d: d for d in t.coding.codomain})
    assert is_substitution_morphism(ident, t, t)


def test_substitution_morphism_under_renaming(teaching):
    t = substitution_of(teaching)
    t2, m = rename_substitution(t, "L")
    mapping = dict(m)
    mapping.update({d: d for d in t.coding.codomain})
    assert is_substitution_morphism(mapping, t, t2)
    # maps that miss the seed, or collapse letters, do not qualify
    wrong = dict(mapping)
    letters = list(t.phi.domain)
    wrong[letters[1]] = wrong[letters[2]]
    assert not is_substitution_morphism(wrong, t, t2)


def test_substitution_morphism_requires_total_map(teaching):
    t = substitution_of(teaching)
    with pytest.raises(ValueError, match="not total"):
        is_substitution_morphism({t.seed: t.seed}, t, t)
