"""Line-based text formats for automata and morphisms.

Automaton files::

    # comment
    alphabet: a b
    states: q0 q1
    start: q0
    final: q0 q1          (DFA)  /  output: q0 0   one line per state (DFAO)
    trans: q0 a q0

Morphism files::

    axiom: 0
    0 -> 0 1 0 1
    1 -> 1 1
    h: 0 -> 0             (weak-coding lines; "@eps" erases)

Parsing is strict: unknown directives, duplicate declarations, undeclared
identifiers and reserved tokens all raise FormatError with the line number.
The token ``@eps`` denotes the empty word, ``⊥`` is the placeholder output
for states no accepted word reaches, and identifiers starting with ``@``
are reserved for machine-generated names.
"""

from __future__ import annotations

from .automata import BOTTOM, Dfa, Dfao, OrderedAlphabet, Word
from .errors import AnsError, FormatError
from .substitutions import Morphism, Substitution

EPS = "@eps"


def _lines(text: str):
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if line:
            yield ln, line


def _check_identifier(tok: str, path: str, ln: int, *, allow_bottom: bool = False):
    if tok.startswith("@"):
        raise FormatError(path, ln, f"{tok!r} is reserved and cannot be declared")
    if tok == BOTTOM and not allow_bottom:
        raise FormatError(path, ln, f"{tok!r} is reserved for unreachable-state outputs")


def _parse_machine(text: str, path: str, with_output: bool):
    header: dict = {}  # alphabet, states, start and final: one line each at most
    output_lines: dict = {}  # line number -> tokens
    trans_lines: dict = {}
    for ln, line in _lines(text):
        key, colon, rest = line.partition(":")
        if not colon:
            raise FormatError(path, ln, f"expected 'directive: ...', got {line!r}")
        key = key.strip()
        toks = rest.split()
        # transitions and outputs make up most of a file, so they are tested first
        if key == "trans":
            if len(toks) != 3:
                raise FormatError(path, ln, "trans line needs 'trans: FROM SYMBOL TO'")
            trans_lines[ln] = toks
        elif key == "output":
            if not with_output:
                raise FormatError(path, ln, "plain automata use 'final:' lines, not 'output:'")
            if len(toks) != 2:
                raise FormatError(path, ln, "output line needs 'output: STATE SYMBOL'")
            if toks[1].startswith("@"):  # the only reserved form an output can take
                _check_identifier(toks[1], path, ln, allow_bottom=True)
            output_lines[ln] = toks
        elif key in ("alphabet", "states", "start", "final"):
            if key == "final" and with_output:
                raise FormatError(path, ln, "output automata use 'output:' lines, not 'final:'")
            if key in header:
                raise FormatError(path, ln, f"duplicate {key} line")
            if key in ("alphabet", "states"):
                noun, names = ("symbol", "alphabet symbols") if key == "alphabet" else ("state", "state names")
                if not toks:
                    raise FormatError(path, ln, f"{key} line needs at least one {noun}")
                for t in toks:
                    _check_identifier(t, path, ln)
                if len(set(toks)) != len(toks):
                    raise FormatError(path, ln, f"{names} must be distinct")
            elif key == "start" and len(toks) != 1:
                raise FormatError(path, ln, "start line needs exactly one state")
            header[key] = toks
        else:
            raise FormatError(path, ln, f"unknown directive {key!r}")
    for key in ("alphabet", "states", "start"):
        if key not in header:
            raise FormatError(path, 0, f"missing {key} line")
    alphabet = OrderedAlphabet(tuple(header["alphabet"]))
    states = tuple(header["states"])
    start = header["start"][0]
    state_set, letters = set(states), set(alphabet.symbols)
    if start not in state_set:
        raise FormatError(path, 0, f"start state {start!r} is not declared")
    table: dict = {}
    for ln, (src, sym, dst) in trans_lines.items():
        if src not in state_set:
            raise FormatError(path, ln, f"unknown state {src!r}")
        if dst not in state_set:
            raise FormatError(path, ln, f"unknown state {dst!r}")
        if sym not in letters:
            raise FormatError(path, ln, f"symbol {sym!r} is not in the alphabet")
        if (src, sym) in table:
            raise FormatError(path, ln, f"duplicate transition from {src!r} on {sym!r}")
        table[(src, sym)] = dst
    if with_output:
        outputs: dict = {}
        for ln, (q, d) in output_lines.items():
            if q not in state_set:
                raise FormatError(path, ln, f"unknown state {q!r}")
            if q in outputs:
                raise FormatError(path, ln, f"duplicate output for state {q!r}")
            outputs[q] = d
        missing = [q for q in states if q not in outputs]
        if missing:
            raise FormatError(path, 0, f"states without output: {' '.join(map(str, missing))}")
        first_seen = tuple(dict.fromkeys(outputs[q] for q in states))
        return Dfao(alphabet, states, start, table, outputs, first_seen)
    finals = header.get("final", ())
    for f in finals:
        if f not in state_set:
            raise FormatError(path, 0, f"final state {f!r} is not declared")
    return Dfa(alphabet, states, start, frozenset(finals), table)


def parse_dfa(text: str, path: str = "<dfa>") -> Dfa:
    return _parse_machine(text, path, with_output=False)


def parse_dfao(text: str, path: str = "<dfao>") -> Dfao:
    return _parse_machine(text, path, with_output=True)


def _format_machine(machine, final_or_output_lines) -> str:
    _require_readable(_declarable, machine.alphabet, "alphabet letter")
    names = _letter_names(machine.states, "q")
    lines = [
        "alphabet: " + " ".join(str(s) for s in machine.alphabet),
        "states: " + " ".join(names[q] for q in machine.states),
        f"start: {names[machine.start]}",
    ]
    lines.extend(final_or_output_lines(names))
    for q in machine.states:
        for a in machine.alphabet.symbols:
            q2 = machine.trans.get((q, a))
            if q2 is not None:
                lines.append(f"trans: {names[q]} {a} {names[q2]}")
    return "\n".join(lines) + "\n"


def format_dfa(dfa: Dfa) -> str:
    def finals(names):
        marked = [names[q] for q in dfa.states if q in dfa.finals]
        return ["final: " + " ".join(marked)] if marked else ["final:"]

    return _format_machine(dfa, finals)


def format_dfao(m: Dfao) -> str:
    _require_readable(_readable, dict.fromkeys(map(m.output.__getitem__, m.states)), "output symbol")

    def outputs(names):
        return [f"output: {names[q]} {m.output[q]}" for q in m.states]

    return _format_machine(m, outputs)


# -- morphisms ------------------------------------------------------------


def _parse_morphism_lines(text: str, path: str):
    axiom = None
    phi_lines = []
    h_lines = []
    for ln, line in _lines(text):
        if line.startswith("axiom:"):
            toks = line.split(":", 1)[1].split()
            if axiom is not None:
                raise FormatError(path, ln, "duplicate axiom line")
            if len(toks) != 1:
                raise FormatError(path, ln, "axiom line needs exactly one letter")
            axiom = toks[0]
        elif line.startswith("h:"):
            body = line[2:]
            if "->" not in body:
                raise FormatError(path, ln, "h line needs 'h: LETTER -> IMAGE'")
            lhs, rhs = body.split("->", 1)
            h_lines.append((ln, lhs.split(), rhs.split()))
        elif "->" in line:
            lhs, rhs = line.split("->", 1)
            phi_lines.append((ln, lhs.split(), rhs.split()))
        else:
            raise FormatError(path, ln, f"expected an image line or 'axiom:', got {line!r}")
    return axiom, phi_lines, h_lines


def _build_morphism(phi_lines, axiom, path: str) -> Morphism:
    letters = []
    images = {}
    for ln, lhs, rhs in phi_lines:
        if len(lhs) != 1:
            raise FormatError(path, ln, "image line needs exactly one letter before '->'")
        x = lhs[0]
        _check_identifier(x, path, ln)
        if x in images:
            raise FormatError(path, ln, f"duplicate image for letter {x!r}")
        if rhs == [EPS]:
            img: Word = ()
        else:
            for t in rhs:
                _check_identifier(t, path, ln)
            img = tuple(rhs)
        letters.append(x)
        images[x] = img
    if not letters:
        raise FormatError(path, 0, "no image lines found")
    domain = set(letters)
    for ln, lhs, rhs in phi_lines:
        for t in rhs:
            if t != EPS and t not in domain:
                raise FormatError(path, ln, f"image letter {t!r} has no image line of its own")
    if axiom is None:
        raise FormatError(path, 0, "missing axiom line")
    if axiom not in domain:
        raise FormatError(path, 0, f"axiom {axiom!r} has no image line")
    alpha = OrderedAlphabet(tuple(letters))
    return Morphism(alpha, alpha, images)


def parse_morphism(text: str, path: str = "<morphism>") -> tuple[Morphism, str]:
    """Parse 'axiom + image lines'; returns (morphism, axiom letter)."""
    axiom, phi_lines, h_lines = _parse_morphism_lines(text, path)
    if h_lines:
        raise FormatError(path, h_lines[0][0], "plain morphism files cannot carry 'h:' lines")
    return _build_morphism(phi_lines, axiom, path), axiom


def parse_substitution(text: str, path: str = "<substitution>") -> Substitution:
    """Parse a morphism plus weak-coding 'h:' lines into a Substitution."""
    axiom, phi_lines, h_lines = _parse_morphism_lines(text, path)
    phi = _build_morphism(phi_lines, axiom, path)
    h_images = {}
    out_letters = []
    for ln, lhs, rhs in h_lines:
        if len(lhs) != 1:
            raise FormatError(path, ln, "h line needs exactly one letter before '->'")
        x = lhs[0]
        if x not in phi.domain:
            raise FormatError(path, ln, f"h maps unknown letter {x!r}")
        if x in h_images:
            raise FormatError(path, ln, f"duplicate h image for {x!r}")
        if rhs == [EPS]:
            h_images[x] = ()
        elif len(rhs) == 1:
            _check_identifier(rhs[0], path, ln, allow_bottom=True)
            h_images[x] = (rhs[0],)
            if rhs[0] not in out_letters:
                out_letters.append(rhs[0])
        else:
            raise FormatError(path, ln, "a weak coding maps each letter to one letter or @eps")
    missing = [x for x in phi.domain if x not in h_images]
    if missing:
        raise FormatError(path, 0, f"letters without h image: {' '.join(map(str, missing))}")
    if not out_letters:
        raise FormatError(path, 0, "the coding erases every letter")
    h = Morphism(phi.domain, OrderedAlphabet(tuple(out_letters)), h_images)
    return Substitution(phi, h, axiom)


def _readable(x: str) -> bool:
    """Whether the parser reads `x` back as one token: nonempty, no whitespace or '#', no leading '@',
    and no lone surrogate, which is how a command-line byte that is not UTF-8 reads and UTF-8 cannot write."""
    surrogate = not x.isascii() and any("\ud800" <= c <= "\udfff" for c in x)
    return x.split() == [x] and "#" not in x and not x.startswith("@") and not surrogate


def _require_readable(readable, symbols, what: str):
    for x in map(str, symbols):
        if not readable(x):
            raise AnsError(f"{what} {x!r} cannot be written: the file parser would not read it back")


def _declarable(x) -> bool:
    """Whether a file can declare `x` by name: a readable string other than ``⊥``."""
    return isinstance(x, str) and _readable(x) and x != BOTTOM


def _letter_names(letters, prefix: str) -> dict:
    if all(map(_declarable, letters)):
        return {x: x for x in letters}
    return {x: f"{prefix}{i}" for i, x in enumerate(letters)}


def format_morphism(m: Morphism, axiom) -> str:
    if stray := [y for y in (axiom, *m.apply(m.domain)) if y not in m.domain]:
        raise AnsError(f"letter {stray[0]!r} has no image line: the file parser would not read it back")
    names = _letter_names(m.domain.symbols, "s")
    lines = []
    if any(names[x] != x for x in m.domain):
        for x in m.domain:
            lines.append(f"# {names[x]} = {x!r}")
    lines.append(f"axiom: {names[axiom]}")
    for x in m.domain:
        img = m.images[x]
        rhs = " ".join(names[y] for y in img) if img else EPS
        lines.append(f"{names[x]} -> {rhs}")
    return "\n".join(lines) + "\n"


def format_substitution(t: Substitution) -> str:
    _require_readable(_readable, (y for x in t.phi.domain for y in t.coding.images[x]), "coding letter")
    names = _letter_names(t.phi.domain.symbols, "s")
    lines = [format_morphism(t.phi, t.seed)]
    for x in t.phi.domain:
        img = t.coding.images[x]
        lines.append(f"h: {names[x]} -> {img[0] if img else EPS}\n")
    return "".join(lines)


# -- words ----------------------------------------------------------------


def parse_word(text: str, alphabet: OrderedAlphabet) -> Word:
    """Read a word argument: '@eps', space-separated tokens, or glued letters."""
    text = text.strip()
    if text == EPS or text == "":
        return ()
    if any(c.isspace() for c in text):
        toks = text.split()
    elif all(c in alphabet for c in text):
        toks = list(text)
    else:
        toks = [text]
    for t in toks:
        if t not in alphabet:
            raise ValueError(f"{t!r} is not a symbol of the alphabet {alphabet.symbols!r}")
    return tuple(toks)


def render_word(word: Word) -> str:
    """Inverse of parse_word, gluing single-character symbols when unambiguous."""
    if not word:
        return EPS
    parts = [str(s) for s in word]
    if all(len(p) == 1 for p in parts):
        return "".join(parts)
    return " ".join(parts)
