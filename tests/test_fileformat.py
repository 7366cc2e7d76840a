import pytest
from hypothesis import example, given, seed, strategies as st

from ans import fileformat
from ans import (
    BOTTOM,
    AnsError,
    Dfa,
    Dfao,
    FormatError,
    Morphism,
    OrderedAlphabet,
    Substitution,
    canonical_substitution,
    equivalent,
    format_dfa,
    format_dfao,
    format_morphism,
    format_substitution,
    parse_dfa,
    parse_dfao,
    parse_morphism,
    parse_substitution,
    parse_word,
    render_word,
)
from conftest import AB, ab_star_dfa, teaching_dfao, witness_morphism

AB_TEXT = """\
# a's followed by b's
alphabet: a b
states: p q
start: p
final: p q
trans: p a p
trans: p b q
trans: q b q
"""


def test_parse_dfa_basic():
    d = parse_dfa(AB_TEXT, "ab.dfa")
    assert d == ab_star_dfa()


def test_dfa_roundtrip():
    d = ab_star_dfa()
    assert parse_dfa(format_dfa(d)) == d


def test_dfao_roundtrip_renames_tuple_states():
    m = teaching_dfao()
    text = format_dfao(m)
    # tuple states cannot be written literally, so the file uses generated names
    assert "q0" in text
    m2 = parse_dfao(text)
    for w in [(), ("a",), ("b", "b"), ("a", "b", "a", "b", "a")]:
        assert m2.transform(w) == m.transform(w)


def test_names_with_the_comment_mark_round_trip_or_are_refused():
    # a state name holding '#' is written under a generated name
    d = Dfa(AB, ("p", "p#1"), "p", frozenset({"p#1"}), {("p", "a"): "p#1", ("p#1", "b"): "p"})
    assert "#" not in format_dfa(d)
    assert parse_dfa(format_dfa(d)) == d.renumbered()
    # letters and outputs are written verbatim, so one the parser cannot read back is refused
    with pytest.raises(AnsError, match="alphabet letter 'a#'"):
        format_dfa(Dfa(OrderedAlphabet(("a#", "b")), ("p",), "p", frozenset({"p"}), {("p", "b"): "p"}))
    with pytest.raises(AnsError, match="alphabet letter '⊥'"):
        format_dfa(Dfa(OrderedAlphabet(("⊥", "a")), ("p",), "p", frozenset({"p"}), {("p", "a"): "p"}))
    # integer letters, as in substitution inputs, are written as their digits
    digits = Dfa(OrderedAlphabet((0, 1, 2)), ("p",), "p", frozenset({"p"}), {("p", 1): "p"})
    assert parse_dfa(format_dfa(digits)).alphabet.symbols == ("0", "1", "2")
    with pytest.raises(AnsError, match="output symbol 'x y'"):
        format_dfao(Dfao(AB, ("p",), "p", {("p", "a"): "p"}, {"p": "x y"}, ("x y",)))
    phi = Morphism(AB, AB, {"a": ("a", "b"), "b": ("b",)})
    coding = Morphism(AB, OrderedAlphabet(("x y", "z")), {"a": ("x y",), "b": ("z",)})
    with pytest.raises(AnsError, match="coding letter 'x y'"):
        format_substitution(Substitution(phi, coding, "a"))


# characters str.isspace counts beyond the ASCII blanks (no-break, em space, line
# separator, the information separators, next line), the comment mark and "@"
ODD = "\u00a0\u2003\u2028\x1c\x1d\x1e\x1f\x85 \t#@"


@seed(41)
@given(st.text(st.sampled_from(ODD + "ab") | st.characters(), max_size=6))
@example("")
@example("@a")
@example("a@")
@example("a\u00a0")
@example("\x1c")
@example("a\udcff")
def test_readable_is_the_per_character_definition(x):
    # a lone surrogate is how Python decodes a command-line byte that is not UTF-8
    per_character = x != "" and not any(c.isspace() or c == "#" or "\ud800" <= c <= "\udfff" for c in x)
    per_character = per_character and not x.startswith("@")
    assert fileformat._readable(x) == per_character


def test_format_parse_preserves_language():
    d = ab_star_dfa()
    assert equivalent(parse_dfa(format_dfa(d)), d)


def test_empty_final_line_means_no_finals():
    text = "alphabet: a\nstates: p\nstart: p\nfinal:\ntrans: p a p\n"
    d = parse_dfa(text)
    assert d.finals == frozenset()


def test_error_messages_carry_path_and_line():
    bad = "alphabet: a b\nstates: p\nstart: p\nfinal: p\ntrans: p c p\n"
    with pytest.raises(FormatError) as exc:
        parse_dfa(bad, "m.dfa")
    assert str(exc.value).startswith("m.dfa:5: ")
    assert exc.value.line == 5


def test_duplicate_transition_rejected():
    text = AB_TEXT + "trans: p a q\n"
    with pytest.raises(FormatError, match="duplicate transition"):
        parse_dfa(text, "dup.dfa")


def test_reserved_names_rejected():
    with pytest.raises(FormatError, match="reserved"):
        parse_dfa("alphabet: a\nstates: @dead p\nstart: p\nfinal: p\ntrans: p a p\n")
    with pytest.raises(FormatError, match="reserved"):
        parse_dfa("alphabet: @eps\nstates: p\nstart: p\nfinal: p\n")
    with pytest.raises(FormatError, match="reserved"):
        parse_dfa(f"alphabet: a\nstates: {BOTTOM}\nstart: {BOTTOM}\nfinal:\n")


def test_bottom_allowed_as_declared_output():
    text = (
        "alphabet: a\nstates: p q\nstart: p\n"
        f"output: p 1\noutput: q {BOTTOM}\n"
        "trans: p a q\ntrans: q a q\n"
    )
    m = parse_dfao(text)
    assert m.transform(("a",)) == BOTTOM


def test_dfao_requires_all_outputs():
    text = "alphabet: a\nstates: p q\nstart: p\noutput: p 1\ntrans: p a q\ntrans: q a q\n"
    with pytest.raises(FormatError, match="states without output"):
        parse_dfao(text)


def test_final_line_rejected_in_dfao_and_vice_versa():
    with pytest.raises(FormatError, match="'output:'"):
        parse_dfao("alphabet: a\nstates: p\nstart: p\nfinal: p\n")
    with pytest.raises(FormatError, match="'final:'"):
        parse_dfa("alphabet: a\nstates: p\nstart: p\noutput: p 1\n")


def test_missing_directives_reported():
    with pytest.raises(FormatError, match="missing alphabet"):
        parse_dfa("states: p\nstart: p\nfinal: p\n")
    with pytest.raises(FormatError, match="missing start"):
        parse_dfa("alphabet: a\nstates: p\nfinal: p\n")


def test_output_alphabet_order_is_first_appearance():
    text = (
        "alphabet: a\nstates: p q r\nstart: p\n"
        "output: p 2\noutput: q 0\noutput: r 2\n"
        "trans: p a q\ntrans: q a r\ntrans: r a p\n"
    )
    m = parse_dfao(text)
    assert m.output_alphabet == ("2", "0")


HEAD = "alphabet: a b\nstates: p q\nstart: p\n"

# One malformed file per error the machine parser can report, with the exact
# message it must give, path and line included (line 0: a whole-file check).
MACHINE_ERRORS = [
    ("dfa", HEAD + "final p\n", "m:4: expected 'directive: ...', got 'final p'"),
    ("dfa", HEAD + "alphabet: a\n", "m:4: duplicate alphabet line"),
    ("dfa", "alphabet:\nstates: p\n", "m:1: alphabet line needs at least one symbol"),
    ("dfa", "alphabet: a @eps\n", "m:1: '@eps' is reserved and cannot be declared"),
    ("dfa", f"alphabet: a {BOTTOM}\n", f"m:1: '{BOTTOM}' is reserved for unreachable-state outputs"),
    ("dfa", "alphabet: a b a\n", "m:1: alphabet symbols must be distinct"),
    ("dfa", HEAD + "states: r\n", "m:4: duplicate states line"),
    ("dfa", "alphabet: a\nstates:\n", "m:2: states line needs at least one state"),
    ("dfa", "alphabet: a\nstates: p @dead\n", "m:2: '@dead' is reserved and cannot be declared"),
    ("dfa", f"alphabet: a\nstates: p {BOTTOM}\n", f"m:2: '{BOTTOM}' is reserved for unreachable-state outputs"),
    ("dfa", "alphabet: a\nstates: p q p\n", "m:2: state names must be distinct"),
    ("dfa", HEAD + "start: q\n", "m:4: duplicate start line"),
    ("dfa", "alphabet: a\nstates: p q\nstart: p q\n", "m:3: start line needs exactly one state"),
    ("dfa", "alphabet: a\nstates: p q\nstart:\n", "m:3: start line needs exactly one state"),
    ("dfao", HEAD + "final: p\n", "m:4: output automata use 'output:' lines, not 'final:'"),
    ("dfa", HEAD + "final: p\nfinal: q\n", "m:5: duplicate final line"),
    ("dfa", HEAD + "output: p 0\n", "m:4: plain automata use 'final:' lines, not 'output:'"),
    ("dfao", HEAD + "output: p\n", "m:4: output line needs 'output: STATE SYMBOL'"),
    ("dfao", HEAD + "output: p @x\n", "m:4: '@x' is reserved and cannot be declared"),
    ("dfa", HEAD + "trans: p a\n", "m:4: trans line needs 'trans: FROM SYMBOL TO'"),
    ("dfa", HEAD + "accept: p\n", "m:4: unknown directive 'accept'"),
    ("dfa", "states: p\nstart: p\n", "m:0: missing alphabet line"),
    ("dfa", "alphabet: a\nstart: p\n", "m:0: missing states line"),
    ("dfa", "alphabet: a\nstates: p\nfinal: p\n", "m:0: missing start line"),
    ("dfa", "alphabet: a\nstates: p\nstart: r\n", "m:0: start state 'r' is not declared"),
    ("dfa", HEAD + "trans: p a p\ntrans: r a p\n", "m:5: unknown state 'r'"),
    ("dfa", HEAD + "trans: p a r\n", "m:4: unknown state 'r'"),
    ("dfa", HEAD + "trans: p c q\n", "m:4: symbol 'c' is not in the alphabet"),
    ("dfa", HEAD + "trans: p a q\ntrans: p a p\n", "m:5: duplicate transition from 'p' on 'a'"),
    ("dfao", HEAD + "output: p 0\noutput: r 1\n", "m:5: unknown state 'r'"),
    ("dfao", HEAD + "output: p 0\noutput: p 1\n", "m:5: duplicate output for state 'p'"),
    ("dfao", "alphabet: a\nstates: p q r\nstart: p\noutput: q 0\n", "m:0: states without output: p r"),
    ("dfa", HEAD + "final: p r\n", "m:0: final state 'r' is not declared"),
    # several faults: each line is read in turn, so the first faulty line wins
    ("dfa", "alphabet: a a\nstates:\nstart: p q\nfoo: 1\n", "m:1: alphabet symbols must be distinct"),
    ("dfa", HEAD + "trans: p a q\ntrans: q c p\ntrans: r a p\ntrans: p a p\n",
     "m:5: symbol 'c' is not in the alphabet"),
    # within a line the duplicate check, and a transition's states, come
    # first; header lines are read before any reference to a state; then
    # the start state, the transitions, the outputs and the final states
    # are checked in turn
    ("dfa", HEAD + "states: p p\n", "m:4: duplicate states line"),
    ("dfa", HEAD + "trans: r c s\n", "m:4: unknown state 'r'"),
    ("dfa", "alphabet: a\ntrans: p a r\nstates: p\n", "m:0: missing start line"),
    ("dfa", "alphabet: a\nstates: p\nstart: r\ntrans: p c p\n", "m:0: start state 'r' is not declared"),
    ("dfao", HEAD + "output: r 0\ntrans: p a r\n", "m:5: unknown state 'r'"),
    ("dfa", HEAD + "final: r\ntrans: p c p\n", "m:5: symbol 'c' is not in the alphabet"),
]


@pytest.mark.parametrize("kind, text, message", MACHINE_ERRORS)
def test_machine_parser_messages(kind, text, message):
    parse = parse_dfa if kind == "dfa" else parse_dfao
    with pytest.raises(FormatError) as exc:
        parse(text, "m")
    assert str(exc.value) == message
    assert exc.value.path == "m"
    assert exc.value.line == int(message.split(":")[1])


MOR_TEXT = """\
axiom: x
x -> x y
y -> y
"""


def test_parse_morphism():
    phi, axiom = parse_morphism(MOR_TEXT, "m.mor")
    assert axiom == "x"
    assert phi.images["x"] == ("x", "y")
    assert phi.apply(("x", "y")) == ("x", "y", "y")


def test_morphism_roundtrip():
    phi = witness_morphism()
    text = format_morphism(phi, 0)
    phi2, axiom2 = parse_morphism(text)
    # integer letters get generated names; iterates must line up under i -> s{i}
    assert axiom2 == "s0"
    w, w2 = (0,), (axiom2,)
    for _ in range(6):
        w, w2 = phi.apply(w), phi2.apply(w2)
    assert [f"s{x}" for x in w] == list(w2)


def test_format_morphism_refuses_what_the_parser_cannot_read_back():
    # an image letter outside the domain would have no image line of its own
    phi = Morphism(OrderedAlphabet(("x",)), OrderedAlphabet(("x", "0")), {"x": ("x", "0")})
    with pytest.raises(AnsError, match="letter '0' has no image line"):
        format_morphism(phi, "x")


def test_format_morphism_refuses_an_axiom_outside_the_domain():
    with pytest.raises(AnsError, match="letter 3 has no image line"):
        format_morphism(witness_morphism(), 3)


def test_morphism_rejects_unknown_image_letter():
    with pytest.raises(FormatError, match="no image line"):
        parse_morphism("axiom: x\nx -> x z\n")


def test_morphism_requires_axiom():
    with pytest.raises(FormatError, match="missing axiom"):
        parse_morphism("x -> x\n")


def test_substitution_roundtrip():
    t = canonical_substitution(ab_star_dfa(), teaching_dfao())
    t2 = parse_substitution(format_substitution(t), "t.sub")
    from itertools import islice

    assert list(islice(t.generate(), 200)) == list(islice(t2.generate(), 200))


def test_substitution_coding_lines():
    text = MOR_TEXT + "h: x -> @eps\nh: y -> 0\n"
    t = parse_substitution(text)
    assert t.coding.images["x"] == ()
    assert t.coding.images["y"] == ("0",)
    # a morphism image may be empty too, and a coding letter may be ⊥
    t = parse_substitution(f"axiom: x\nx -> x y z\ny -> y\nz -> @eps\nh: x -> {BOTTOM}\nh: y -> 0\nh: z -> @eps\n")
    assert t.phi.images["z"] == ()
    assert t.coding.images == {"x": (BOTTOM,), "y": ("0",), "z": ()}


def test_substitution_rejects_total_erasure():
    text = MOR_TEXT + "h: x -> @eps\nh: y -> @eps\n"
    with pytest.raises(FormatError, match="erases every letter"):
        parse_substitution(text)


def test_plain_morphism_rejects_h_lines():
    with pytest.raises(FormatError, match="cannot carry 'h:'"):
        parse_morphism(MOR_TEXT + "h: x -> 0\n")


MOR = "axiom: x\nx -> x y\ny -> y\n"

# One malformed file per error the morphism and substitution parsers can
# report, with the exact message (line 0: a whole-file check).
MORPHISM_ERRORS = [
    ("mor", "axiom: x\naxiom: x\nx -> x\n", "m:2: duplicate axiom line"),
    ("mor", "axiom: x y\nx -> x\n", "m:1: axiom line needs exactly one letter"),
    ("mor", "axiom:\nx -> x\n", "m:1: axiom line needs exactly one letter"),
    ("sub", MOR + "h: x 0\n", "m:4: h line needs 'h: LETTER -> IMAGE'"),
    ("mor", "axiom: x\nx y\n", "m:2: expected an image line or 'axiom:', got 'x y'"),
    ("mor", "axiom: x\nx y -> x\n", "m:2: image line needs exactly one letter before '->'"),
    ("mor", "axiom: x\n-> x\n", "m:2: image line needs exactly one letter before '->'"),
    ("mor", "axiom: x\n@x -> x\n", "m:2: '@x' is reserved and cannot be declared"),
    ("mor", f"axiom: x\n{BOTTOM} -> x\n", f"m:2: '{BOTTOM}' is reserved for unreachable-state outputs"),
    ("mor", "axiom: x\nx -> x @eps\n", "m:2: '@eps' is reserved and cannot be declared"),
    ("mor", f"axiom: x\nx -> x {BOTTOM}\n", f"m:2: '{BOTTOM}' is reserved for unreachable-state outputs"),
    ("mor", "axiom: x\nx -> x\nx -> x x\n", "m:3: duplicate image for letter 'x'"),
    ("mor", "axiom: x\n", "m:0: no image lines found"),
    ("mor", "axiom: x\nx -> x z\n", "m:2: image letter 'z' has no image line of its own"),
    ("mor", "x -> x\n", "m:0: missing axiom line"),
    ("mor", "axiom: y\nx -> x\n", "m:0: axiom 'y' has no image line"),
    ("mor", MOR + "h: x -> 0\n", "m:4: plain morphism files cannot carry 'h:' lines"),
    ("sub", MOR + "h: x y -> 0\n", "m:4: h line needs exactly one letter before '->'"),
    ("sub", MOR + "h: z -> 0\n", "m:4: h maps unknown letter 'z'"),
    ("sub", MOR + "h: x -> 0\nh: x -> 1\n", "m:5: duplicate h image for 'x'"),
    ("sub", MOR + "h: x -> 0 1\n", "m:4: a weak coding maps each letter to one letter or @eps"),
    ("sub", MOR + "h: x ->\n", "m:4: a weak coding maps each letter to one letter or @eps"),
    ("sub", MOR + "h: x -> @z\n", "m:4: '@z' is reserved and cannot be declared"),
    ("sub", MOR + "h: x -> 0\n", "m:0: letters without h image: y"),
    ("sub", MOR + "h: x -> @eps\nh: y -> @eps\n", "m:0: the coding erases every letter"),
    # the morphism is checked before the coding, and lines are read before either
    ("sub", "axiom: x\nx -> x y\nh: x -> 0\n", "m:2: image letter 'y' has no image line of its own"),
    ("sub", "x -> x\nh: x 0\n", "m:2: h line needs 'h: LETTER -> IMAGE'"),
]


@pytest.mark.parametrize("kind, text, message", MORPHISM_ERRORS)
def test_morphism_parser_messages(kind, text, message):
    parse = parse_morphism if kind == "mor" else parse_substitution
    with pytest.raises(FormatError) as exc:
        parse(text, "m")
    assert str(exc.value) == message
    assert exc.value.line == int(message.split(":")[1])


def test_parse_word_forms():
    assert parse_word("@eps", AB) == ()
    assert parse_word("abba", AB) == ("a", "b", "b", "a")
    assert parse_word("a b b a", AB) == ("a", "b", "b", "a")
    wide = OrderedAlphabet(("aa", "b"))
    assert parse_word("aa", wide) == ("aa",)  # whole-token match beats gluing
    with pytest.raises(ValueError, match="not a symbol"):
        parse_word("ac", AB)


def test_render_word_inverse():
    for w in [(), ("a",), ("a", "b", "b"), ("a", "a", "a", "b")]:
        assert parse_word(render_word(w), AB) == w
    assert render_word(()) == "@eps"
    assert render_word(("aa", "b")) == "aa b"


def test_comments_and_blank_lines_ignored():
    noisy = "\n# header\n\n" + AB_TEXT.replace("trans: q b q", "trans: q b q  # loop")
    assert parse_dfa(noisy) == ab_star_dfa()
