"""Spans around calls into the library's public functions.

The tracer is the benchmark's own: ``instrumented`` wraps module-level
functions and methods of ``ans`` from the outside for the length of a
``with`` block and restores them afterwards.  Each call becomes one span
with its parent (the span that was open when the call started).  A call
that returns an iterator gets its iterator wrapped too, and the time spent
inside each ``next`` is charged to that call's span, so lazily streamed
work lands in the layer that does it rather than in whoever consumes the
stream.

Counts come from the arguments and returned objects (states in and out,
bytes parsed, kernel classes, ...), never from inside the library.
"""

from __future__ import annotations

import contextlib
import importlib
from collections import defaultdict
from collections.abc import Iterator
from time import perf_counter


class Tracer:
    def __init__(self):
        self.stack: list = []  # open spans: [name, start, child_seconds]
        self.spans: list = []  # closed spans: (name, parent, seconds, self_seconds)
        self.counts: dict = defaultdict(int)

    # -- span bookkeeping -------------------------------------------------

    def begin(self, name: str) -> list:
        span = [name, perf_counter(), 0.0]
        self.stack.append(span)
        return span

    def end(self, span: list):
        dur = perf_counter() - span[1]
        self.stack.pop()
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += dur
        self.spans.append((span[0], parent[0] if parent else None, dur, dur - span[2]))

    def take(self) -> tuple[list, dict]:
        spans, counts = self.spans, dict(self.counts)
        self.spans, self.counts = [], defaultdict(int)
        return spans, counts

    # -- wrapping ---------------------------------------------------------

    def wrap(self, name: str, fn, after=None, before=None):
        """`fn` recording a span per call; `before` may replace the arguments,
        `after` counts from the arguments and the result."""
        tracer = self

        def traced(*args, **kwargs):
            if before is not None:
                args = before(tracer.counts, args)
            span = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(span)
            if isinstance(result, Iterator):
                return _TimedIter(tracer, name, result)
            if after is not None:
                after(tracer.counts, args, result)
            return result

        return traced


class _TimedIter:
    """Charges the time spent producing each item to the creating span."""

    __slots__ = ("tracer", "name", "it")

    def __init__(self, tracer: Tracer, name: str, it):
        self.tracer, self.name, self.it = tracer, name, it

    def __iter__(self):
        return self

    def __next__(self):
        span = self.tracer.begin(self.name)
        try:
            return next(self.it)
        finally:
            self.tracer.end(span)


# -- what gets wrapped -----------------------------------------------------
#
# TARGETS maps each module's functions and methods to an `after` hook, or
# None for a span alone.

def _states(key):
    def after(counts, args, result):
        counts[key + "_states_in"] += len(args[0].states)
        counts[key + "_states_out"] += len(result.states)
    return after


def _count(key, measure):
    def after(counts, args, result):
        counts[key] += measure(result)
    return after


def _parsed(counts, args, result):
    counts["parse_bytes"] += len(args[0].encode())


def _formatted(counts, args, result):
    counts["format_bytes"] += len(result.encode())


def _count_term_calls(counts, args):
    """Wrap the term function handed to the kernel learner."""
    term = args[0]

    def counted(n):
        counts["relearn_term_calls"] += 1
        return term(n)
    return (counted,) + tuple(args[1:])


BEFORE = {"sequences.dfao_from_kernel": _count_term_calls}

TARGETS = {
    "numeration": {
        "NumerationSystem.__init__": None,
        "NumerationSystem.rep": None,
        "NumerationSystem.val": None,
        "NumerationSystem.count_words": None,
        "NumerationSystem.count_from": None,
        "NumerationSystem.enumerate": None,
        "NumerationSystem.words_from": None,
    },
    "sequences": {
        "sequence": None,
        "AutomaticSequence.term": None,
        "AutomaticSequence.stream": None,
        "AutomaticSequence.prefix": None,
        "fiber": _count("fiber_states", lambda r: len(r.states)),
        "dfao_from_fibers": _count("rebuild_states", lambda r: len(r.states)),
        "kernel": _count("kernel_classes", len),
        "subsequence": None,
        "dfao_from_kernel": None,
        "occurrence_gaps": None,
    },
    "substitutions": {
        "fixed_point": None,
        "Substitution.generate": None,
        "substitution_of": None,
        "canonical_substitution": None,
        "system_from_morphism": None,
        "state_morphism": None,
    },
    "complexity": {
        "factor_count": None,
        "quadratic_witness_check": None,
        "super_quadratic_check": None,
        "binomial_word": None,
    },
    "automata": {
        "product": _count("product_states", lambda r: len(r.dfao.states)),
        "_refine": None,
        "minimize": _states("minimize"),
        "reduce_dfao": _states("reduce"),
        "intersect": None,
        "union": None,
        "difference": None,
        "is_empty": None,
        "is_infinite": None,
        "equivalent": None,
        "distinguishing_word": None,
    },
    "fileformat": {
        "parse_dfa": _parsed,
        "parse_dfao": _parsed,
        "parse_morphism": _parsed,
        "parse_substitution": _parsed,
        "format_dfa": _formatted,
        "format_dfao": _formatted,
        "format_morphism": _formatted,
        "format_substitution": _formatted,
    },
}


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Wrap every target the library has for the length of the block.

    Module functions are replaced in every ``ans`` module that holds a
    reference to them (``from .automata import minimize`` copies the name),
    methods on their class.  Targets a later version of the library no
    longer has are skipped.  Everything is restored on exit.
    """
    mods = {name: importlib.import_module(f"ans.{name}")
            for name in ("numeration", "sequences", "substitutions", "complexity",
                         "automata", "fileformat", "cli")}
    undo = []

    def replace(owner, key, value):
        undo.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, value)

    try:
        for modname, targets in TARGETS.items():
            mod = mods[modname]
            for attr, after in targets.items():
                owner_name, _, meth = attr.rpartition(".")
                owner = getattr(mod, owner_name, None) if owner_name else mod
                fn = vars(owner).get(meth) if owner is not None else None
                if fn is None:
                    continue
                name = f"{modname}.{attr}"
                traced = tracer.wrap(name, fn, after, BEFORE.get(name))
                if owner_name:
                    replace(owner, meth, traced)
                    continue
                for holder in mods.values():
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            replace(holder, key, traced)
        yield tracer
    finally:
        for owner, key, value in reversed(undo):
            setattr(owner, key, value)
