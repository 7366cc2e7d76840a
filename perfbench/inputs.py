"""Benchmark inputs: fixed machines, seeded random machines, and their text.

Machines are plain dicts so that the oracles never touch library objects:

    {"alphabet": [...], "states": [...], "start": q,
     "finals": set | None, "output": dict | None, "trans": {(q, a): q2}}

``finals`` is set for a DFA and ``output`` for a DFAO.  The definitions of
the running examples are copied here on purpose; the benchmark does not
import the test suite.
"""

from __future__ import annotations

import random

import oracle


def dfa(alphabet, states, start, finals, trans) -> dict:
    return {"alphabet": list(alphabet), "states": list(states), "start": start,
            "finals": set(finals), "output": None, "trans": dict(trans)}


def dfao(alphabet, states, start, output, trans) -> dict:
    return {"alphabet": list(alphabet), "states": list(states), "start": start,
            "finals": None, "output": dict(output), "trans": dict(trans)}


# -- the running examples -------------------------------------------------

def ab_star() -> dict:
    """Words of a's followed by b's, a < b: quadratic growth, length ~ sqrt(2n)."""
    return dfa("ab", "pq", "p", "pq", {("p", "a"): "p", ("p", "b"): "q", ("q", "b"): "q"})


def teaching_output(i: int, j: int) -> str:
    if i == 0:
        return "0"
    if (i, j) in {(1, 0), (2, 1), (3, 2)}:
        return "1"
    if (i, j) in {(1, 2), (2, 0), (3, 1)}:
        return "2"
    return "3"


def teaching() -> dict:
    """The README's 12-state machine tracking (#a mod 4, #b mod 3)."""
    states = [f"s{i}{j}" for i in range(4) for j in range(3)]
    trans, out = {}, {}
    for i in range(4):
        for j in range(3):
            trans[(f"s{i}{j}", "a")] = f"s{(i + 1) % 4}{j}"
            trans[(f"s{i}{j}", "b")] = f"s{i}{(j + 1) % 3}"
            out[f"s{i}{j}"] = teaching_output(i, j)
    return dfao("ab", states, "s00", out, trans)


# 0 -> 01, 1 -> 12, 2 -> 2: the quadratic-growth witness morphism.
WITNESS = {"0": ("0", "1"), "1": ("1", "2"), "2": ("2",)}
# 0 -> 01, 1 -> 10: the Thue-Morse morphism.
THUE_MORSE = {"0": ("0", "1"), "1": ("1", "0")}


def morphism_system(images: dict, seed: str) -> tuple[dict, dict]:
    """The system a prolongable morphism induces: the i-th input letter moves
    a letter to the i-th letter of its image; every letter is final and
    outputs itself.  For WITNESS the language is words over a < b with at
    most two b's (cubic growth, length ~ cbrt(6n))."""
    width = max(len(img) for img in images.values())
    inputs = "abcdefghijklmnopqrstuvwxyz"[:width]
    trans = {(x, inputs[i]): y for x, img in images.items() for i, y in enumerate(img)}
    letters = list(images)
    return (dfa(inputs, letters, seed, letters, trans),
            dfao(inputs, letters, seed, {x: x for x in letters}, trans))


def binary_like() -> dict:
    """The empty word plus every word starting with 1: base-2 numeration."""
    return dfa("01", "sm", "s", "sm", {("s", "1"): "m", ("m", "0"): "m", ("m", "1"): "m"})


def fibonacci() -> dict:
    """The empty word plus words starting with 1 and avoiding 11: Zeckendorf."""
    return dfa("01", "sxy", "s", "sxy",
               {("s", "1"): "x", ("x", "0"): "y", ("y", "0"): "y", ("y", "1"): "x"})


def parity() -> dict:
    """Parity of the number of 1s read: Thue-Morse over base 2."""
    return dfao("01", "eo", "e", {"e": "0", "o": "1"},
                {("e", "0"): "e", ("e", "1"): "o", ("o", "0"): "o", ("o", "1"): "e"})


# -- seeded random machines -----------------------------------------------

def random_dfa(rng: random.Random, n: int, alphabet: str = "ab") -> dict:
    """Complete DFA: uniform random targets, each state final with p = 1/2."""
    states = [f"q{i}" for i in range(n)]
    trans = {(q, a): states[rng.randrange(n)] for q in states for a in alphabet}
    finals = [q for q in states if rng.random() < 0.5]
    return dfa(alphabet, states, states[0], finals, trans)


def random_dfao(rng: random.Random, n: int, outputs: int = 3, alphabet: str = "ab") -> dict:
    """Complete DFAO: uniform random targets and uniform random outputs."""
    states = [f"q{i}" for i in range(n)]
    trans = {(q, a): states[rng.randrange(n)] for q in states for a in alphabet}
    out = {q: str(rng.randrange(outputs)) for q in states}
    return dfao(alphabet, states, states[0], out, trans)


def is_infinite(m: dict) -> bool:
    """True iff the DFA accepts infinitely many words: by pumping, iff it
    accepts a word whose length lies between n and 2n - 1 for n states."""
    n = len(m["states"])
    return any(oracle.Counts(m).upto(2 * n)[m["start"]][n:2 * n])


def reachable(m: dict) -> set:
    return {q for (q,) in oracle.tuples(m)} - {None}


def random_language(rng: random.Random, n: int) -> dict:
    """A random DFA whose language is infinite (redrawn until it is)."""
    while True:
        m = random_dfa(rng, n)
        if is_infinite(m):
            return m


def random_pair(rng: random.Random, n_lang: int, n_mach: int, band: tuple) -> tuple[dict, dict]:
    """A random language and machine whose product has a number of reachable
    pair states inside `band` (redrawn until it does).  The pair count sets
    the cost of fibers, kernels and the learner; without the band it varies
    by a factor of two from seed to seed."""
    while True:
        lang, mach = random_language(rng, n_lang), random_dfao(rng, n_mach)
        if band[0] <= pair_states(lang, mach) <= band[1]:
            return lang, mach


def pair_states(lang: dict, mach: dict) -> int:
    """Reachable states of the product of the two machines."""
    return sum(1 for _ in oracle.tuples(lang, mach))


# -- the ans text format --------------------------------------------------

def machine_text(m: dict, rng: random.Random) -> str:
    """Serialize in the `ans` format with seeded state names and line order.

    The seed only renames and reorders; the machine is the same, so every
    seed of a fixed example does the same work.
    """
    names = list(m["states"])
    labels = [f"t{i}" for i in range(len(names))]
    rng.shuffle(labels)
    name = dict(zip(names, labels))
    order = list(names)
    rng.shuffle(order)
    lines = ["alphabet: " + " ".join(m["alphabet"]),
             "states: " + " ".join(name[q] for q in order),
             f"start: {name[m['start']]}"]
    if m["output"] is None:
        lines.append("final: " + " ".join(name[q] for q in order if q in m["finals"]))
    else:
        lines.extend(f"output: {name[q]} {m['output'][q]}" for q in order)
    trans = [f"trans: {name[q]} {a} {name[q2]}" for (q, a), q2 in m["trans"].items()]
    rng.shuffle(trans)
    lines.extend(trans)
    return "\n".join(lines) + "\n"


def morphism_text(images: dict, seed: str) -> str:
    return f"axiom: {seed}\n" + "".join(f"{x} -> {' '.join(img)}\n" for x, img in images.items())
