"""Morphisms, substitutions, and their equivalence with automatic sequences.

The two directions implemented here:

* ``substitution_of`` turns a numeration system plus output automaton into a
  prolongable morphism over pair states together with a weak coding whose
  image of the fixed point is the original sequence, letter by letter.
* ``system_from_morphism`` reads a morphism as an automaton over a fresh
  input alphabet (i-th letter of the image = transition on the i-th input
  symbol) and returns the induced numeration system and identity-output
  machine, whose sequence concatenates the iterates of the morphism.

``Substitution.generate()`` never materializes the fixed point.  It reads
the substitution as a numeration system whose words are the positions of
the fixed point (see ``Substitution``) and streams it with the shortlex walk
of ``numeration`` in its block mode, as machine sequences are streamed: the
language's own transitions are the carried map, and the coding of final
letters is the output.  Erased letters are not final, so a subtree of the
expansion whose coding image is empty counts zero words and is never
entered, and heavily erasing codings (the rule, not the exception, for
pair-state substitutions) still stream in time proportional to the output.
The same system decides, exactly and in linear time, whether the generated
word is infinite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Hashable, Iterator

from .automata import Dfa, Dfao, OrderedAlphabet, Word, _outputs_in_use, minimize, product, reduce_dfao
from .errors import FiniteLanguageError, NotProlongableError
from .numeration import NumerationSystem
from .sequences import AutomaticSequence


@dataclass(frozen=True)
class Morphism:
    """A monoid morphism given by the images of single letters."""

    domain: OrderedAlphabet
    codomain: OrderedAlphabet
    images: dict

    def __post_init__(self):
        images = {x: tuple(img) for x, img in self.images.items()}
        object.__setattr__(self, "images", images)
        for x in self.domain:
            if x not in images:
                raise ValueError(f"letter {x!r} has no image")
        for x, img in images.items():
            if x not in self.domain:
                raise ValueError(f"image given for {x!r}, which is not a domain letter")
            for y in img:
                if y not in self.codomain:
                    raise ValueError(f"image of {x!r} uses {y!r}, outside the codomain")

    def __call__(self, word) -> Word:
        return self.apply(word)

    def apply(self, word) -> Word:
        out = []
        for x in word:
            out.extend(self.images[x])
        return tuple(out)

    def is_endomorphism(self) -> bool:
        return self.domain.symbols == self.codomain.symbols

    def is_prolongable_on(self, seed) -> bool:
        """Image of `seed` starts with `seed` and has length at least two."""
        if seed not in self.domain or not self.is_endomorphism():
            return False
        img = self.images[seed]
        return len(img) >= 2 and img[0] == seed

    def is_weak_coding(self) -> bool:
        return all(len(img) <= 1 for img in self.images.values())


def fixed_point(phi: Morphism, seed) -> Iterator:
    """Lazily yield the fixed point of `phi` starting with the letter `seed`.

    The buffer always equals the image of the prefix emitted so far, which
    is itself a prefix of the fixed point; if expanding every known letter
    stops producing new ones the fixed point is finite and the stream ends.
    """
    if not phi.is_prolongable_on(seed):
        raise NotProlongableError(
            f"morphism is not prolongable on {seed!r}: need an image starting with it of length >= 2"
        )
    out = list(phi.images[seed])
    i = 0  # next letter to yield
    j = 1  # next letter to expand (the seed itself is already expanded)
    while True:
        while i < len(out):
            yield out[i]
            i += 1
        if j >= len(out):
            return  # the fixed point is the finite word already emitted
        out.extend(phi.images[out[j]])
        j += 1


@dataclass(frozen=True)
class Substitution:
    """Prolongable morphism + weak coding + seed, generating h(phi^omega(seed)).

    phi^omega(seed) = seed t phi(t) phi^2(t) ... for phi(seed) = seed t, so
    the positions after the seed are the words of a numeration system:
    letters are states, the i-th input symbol moves a letter to the i-th
    letter of its image, and a fresh start state reads t, skipping the
    seed's self-loop.  Letters with a nonempty coding image are final, so
    the walk lists the coded positions in order.
    """

    phi: Morphism
    coding: Morphism
    seed: Hashable
    _system: NumerationSystem = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.phi.is_prolongable_on(self.seed):
            raise NotProlongableError(f"phi is not prolongable on {self.seed!r}")
        if not self.coding.is_weak_coding():
            raise ValueError("the coding must map every letter to one letter or the empty word")
        if not set(self.phi.domain.symbols) <= set(self.coding.images):
            raise ValueError("the coding must be total on phi's alphabet")
        images = self.phi.images
        start = object()  # unequal to every letter
        trans = {(x, i): y for x, img in images.items() for i, y in enumerate(img)}
        trans.update({(start, i): y for i, y in enumerate(images[self.seed]) if i})
        inputs = OrderedAlphabet(tuple(range(max(map(len, images.values())))))
        finals = frozenset(x for x in self.phi.domain if self.coding.images[x])
        try:
            system = NumerationSystem(Dfa(inputs, (start, *self.phi.domain), start, finals, trans))
        except FiniteLanguageError:
            raise ValueError("the coding erases too much: the generated word is finite") from None
        object.__setattr__(self, "_system", system)

    def generate(self) -> Iterator:
        """Stream h(phi^omega(seed)): h(seed), then the coded letters in the tuples of ``_blocks``.

        The words of length m of the system's language reach the letters
        that phi^m(seed) adds to phi^(m-1)(seed), in order.  Where their
        number grows polynomially in m, each tuple holds the coded letters
        of one length, built from the last length's by phi; otherwise a
        tuple holds those of a node of at most ``BLOCK`` words, memoized by
        the node.
        """
        lang = self._system.language
        coded = {x: img[0] for x, img in self.coding.images.items() if img}
        blocks = self._system._blocks(lang.start, lang.trans, lang.start, coded)
        return chain(self.coding.images[self.seed], chain.from_iterable(blocks))


ALPHA_BASE = "@a"  # reserved-prefix name for the fresh seed letter of state morphisms


def state_morphism(machine) -> tuple[Morphism, Hashable]:
    """Morphism over the states of a complete automaton plus a fresh seed.

    The seed maps to itself followed by the start state; a state maps to its
    successors in alphabet order.  Dropping the seed, the fixed point lists
    the state reached by every word over the alphabet in shortlex order,
    beginning with the empty word.  Returns (morphism, seed letter).
    """
    if not machine.is_complete():
        raise ValueError("a state morphism needs a complete transition table")
    alpha = machine._fresh_state(ALPHA_BASE)
    letters = (alpha,) + tuple(machine.states)
    images = {alpha: (alpha, machine.start)}
    for q in machine.states:
        images[q] = tuple(machine.trans[(q, a)] for a in machine.alphabet)
    domain = OrderedAlphabet(letters)
    return Morphism(domain, domain, images), alpha


def substitution_of(u: AutomaticSequence) -> Substitution:
    """Substitution generating the sequence of `u`.

    Built on the pair automaton of the language automaton and the output
    machine: the coding erases the fresh seed and every pair whose language
    side is not final, and otherwise emits the machine side's output.
    """
    prod = product(u.system.language, u._complete)
    pairs = prod.dfao
    phi, alpha = state_morphism(pairs)
    h_images = {alpha: ()}
    for q in pairs.states:
        h_images[q] = (pairs.output[q],) if q in prod.finals else ()
    used = _outputs_in_use(pairs.output_alphabet, (pairs.output[q] for q in prod.finals))
    coding = Morphism(phi.domain, OrderedAlphabet(used), h_images)
    return Substitution(phi, coding, alpha)


def canonical_substitution(language: Dfa, machine: Dfao) -> Substitution:
    """substitution_of over the minimized language and reduced machine.

    Minimization and reduction both renumber states breadth-first, so equal
    (language, output function) inputs always yield the same substitution.
    """
    system = NumerationSystem(minimize(language))
    return substitution_of(AutomaticSequence(system, reduce_dfao(machine)))


_DEFAULT_INPUT_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def system_from_morphism(phi: Morphism, seed, input_symbols=None) -> tuple[NumerationSystem, Dfao]:
    """Read a prolongable morphism as a numeration system plus output machine.

    Letters become states (all final, seed initial); a fresh input alphabet
    with one symbol per image position drives transitions: the i-th input
    symbol moves a letter to the i-th letter of its image.  The output map
    is the identity, so the machine's sequence concatenates the iterates
    phi^m(seed), the empty word's term contributing phi^0(seed) = seed.
    """
    if not phi.is_prolongable_on(seed):
        raise NotProlongableError(f"morphism is not prolongable on {seed!r}")
    width = max(len(img) for img in phi.images.values())
    if input_symbols is None:
        if width <= len(_DEFAULT_INPUT_LETTERS):
            input_symbols = tuple(_DEFAULT_INPUT_LETTERS[:width])
        else:
            input_symbols = tuple(f"c{i}" for i in range(width))
    else:
        input_symbols = tuple(input_symbols)
        if len(input_symbols) != width:
            raise ValueError(f"need exactly {width} input symbols (the widest image)")
    alphabet = OrderedAlphabet(input_symbols)
    states = phi.domain.symbols
    trans = {(x, input_symbols[i]): y for x, img in phi.images.items() for i, y in enumerate(img)}
    language = Dfa(alphabet, states, seed, frozenset(states), trans)
    machine = Dfao(alphabet, states, seed, dict(trans), {x: x for x in states}, states)
    return NumerationSystem(language), machine


def is_substitution_morphism(mapping: dict, t1: Substitution, t2: Substitution) -> bool:
    """Check that `mapping` carries substitution t1 onto substitution t2.

    The map must be total on t1's letters and coded letters (ValueError
    otherwise); it qualifies when it sends seed to seed, letters onto
    letters, coded letters onto coded letters, and commutes letterwise with
    both the morphisms and the codings.
    """
    sigma1 = tuple(t1.phi.domain)
    delta1 = tuple(t1.coding.codomain)
    missing = [x for x in (*sigma1, *delta1) if x not in mapping]
    if missing:
        raise ValueError(f"mapping is not total: no image for {missing[0]!r}")
    m = mapping
    if m[t1.seed] != t2.seed:
        return False
    if {m[x] for x in sigma1} != set(t2.phi.domain.symbols):
        return False
    if {m[d] for d in delta1} != set(t2.coding.codomain.symbols):
        return False
    for x in sigma1:
        if tuple(m[y] for y in t1.phi.images[x]) != t2.phi.images[m[x]]:
            return False
        if tuple(m[d] for d in t1.coding.images[x]) != t2.coding.images[m[x]]:
            return False
    return True
