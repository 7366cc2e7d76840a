"""Factor-complexity profiling of sequence prefixes.

``factor_count`` counts the distinct blocks of each length in a finite
prefix via a suffix automaton, so every reported value is a certified lower
bound for the whole sequence (and never claimed exact).  On top of it sit
three desk-scale growth checks with fixed thresholds:

* ``quadratic_witness_check`` — a three-letter morphism whose fixed point
  provably has quadratic block growth; the check measures the growth
  exponent, the ever-longer runs of its last letter, and the embedding of
  the fixed point's blocks into the induced machine sequence;
* ``upper_bound_check`` — empirical consistency of a sequence with
  at-most-quadratic growth (doubling the length may at most quadruple the
  count);
* ``binomial_word`` / ``super_quadratic_check`` — the bit word listing, in
  lexicographic blocks, every binary word with exactly three ones; its
  count/n² ratio keeps climbing, beating any quadratic bound eventually.

For orientation, reports cite the classical growth classes of morphic
words: 1, n, n·log log n, n·log n, n^2.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from itertools import accumulate, combinations, count, groupby, islice
from typing import Iterable, Iterator

from .automata import OrderedAlphabet
from .sequences import sequence, take
from .substitutions import Morphism, fixed_point, system_from_morphism

GROWTH_CLASSES = ("1", "n", "n log log n", "n log n", "n^2")


def _suffix_automaton(seq: list) -> tuple[list[int], list[int]]:
    """Lengths and suffix links of the suffix automaton of `seq`."""
    sa_len = [0]
    sa_link = [-1]
    sa_next: list[dict] = [{}]
    last = 0
    for ch in seq:
        cur = len(sa_len)
        sa_len.append(sa_len[last] + 1)
        sa_link.append(-1)
        sa_next.append({})
        p = last
        while p != -1 and ch not in sa_next[p]:
            sa_next[p][ch] = cur
            p = sa_link[p]
        if p == -1:
            sa_link[cur] = 0
        else:
            q = sa_next[p][ch]
            if sa_len[p] + 1 == sa_len[q]:
                sa_link[cur] = q
            else:
                clone = len(sa_len)
                sa_len.append(sa_len[p] + 1)
                sa_link.append(sa_link[q])
                sa_next.append(dict(sa_next[q]))
                while p != -1 and sa_next[p].get(ch) == q:
                    sa_next[p][ch] = clone
                    p = sa_link[p]
                sa_link[q] = clone
                sa_link[cur] = clone
        last = cur
    return sa_len, sa_link


def _profile_json(prefix: int, ns: Iterable[int], counts: Iterable[int], verdicts: dict, **after_p) -> dict:
    """The JSON head the growth reports share: block lengths, their counts (then
    any `after_p` keys), count/n² and verdicts."""
    ns, counts = list(ns), list(counts)
    ratios = [c / n**2 for n, c in zip(ns, counts)]
    return {"prefix": prefix, "n": ns, "p": counts, **after_p, "ratios": ratios, "verdicts": verdicts}


@dataclass(frozen=True)
class ComplexityProfile:
    """Distinct-block counts of one prefix, by block length.

    ``values[i]`` is the count for length i+1.  Counts are lower bounds for
    the infinite sequence; ``exactness_horizon`` is the largest length up to
    which every shorter length saw repeated windows, the regime where the
    lower bound has a chance to be exact (lengths beyond it had all windows
    distinct, so the true count certainly exceeds the report).
    """

    prefix_length: int
    values: tuple[int, ...]
    exactness_horizon: int

    def p(self, n: int) -> int:
        """The count for block length `n` (1-based)."""
        if not 1 <= n <= len(self.values):
            raise ValueError(f"length {n} outside the profiled range")
        return self.values[n - 1]

    def to_dict(self) -> dict:
        head = _profile_json(self.prefix_length, range(1, len(self.values) + 1), self.values, {})
        return {**head, "exactness_horizon": self.exactness_horizon}


def factor_count(stream: Iterable, prefix_length: int, n_max: int) -> ComplexityProfile:
    """Count distinct blocks of lengths 1..n_max in the first prefix_length terms."""
    if n_max > prefix_length:
        raise ValueError("n_max exceeds the prefix length")
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    prefix = list(islice(iter(stream), prefix_length))
    m = len(prefix)
    sa_len, sa_link = _suffix_automaton(prefix)
    diff = [0] * (max(m, n_max) + 2)  # no block is longer than m: p(n) = 0 for n > m
    for i in range(1, len(sa_len)):
        diff[sa_len[sa_link[i]] + 1] += 1
        diff[sa_len[i] + 1] -= 1
    values = tuple(accumulate(diff[1 : n_max + 1]))
    horizon = next((n - 1 for n, v in enumerate(values, 1) if v > m - n), n_max)  # all m - n + 1 windows differ
    return ComplexityProfile(m, values, horizon)


_WITNESS = Morphism(
    OrderedAlphabet((0, 1, 2)),
    OrderedAlphabet((0, 1, 2)),
    {0: (0, 1), 1: (1, 2), 2: (2,)},
)
WITNESS_N_MAX = 30  # the witness check profiles block lengths 1..30


def _fit_exponent(values: tuple[int, ...], lo: int, hi: int) -> float:
    """Least-squares slope of log p(n) against log n over n in [lo, hi]."""
    xs, ys = [], []
    for n in range(lo, hi + 1):
        if n <= len(values) and values[n - 1] > 0:
            xs.append(math.log(n))
            ys.append(math.log(values[n - 1]))
    if len(xs) < 2:
        return float("nan")
    return statistics.linear_regression(xs, ys).slope


def _longest_runs(prefix: list) -> dict:
    runs: dict = {}
    for x, run in groupby(prefix):
        runs[x] = max(runs.get(x, 0), len(list(run)))
    return runs


@dataclass(frozen=True)
class QuadraticWitnessReport:
    """Desk-scale evidence that a morphic word has quadratic block growth."""

    prefix_length: int
    n_max: int
    embedding_ok: bool
    run_letter: object
    longest_run: int
    run_bound: int
    runs_ok: bool
    exponent: float
    exponent_threshold: float
    exponent_ok: bool
    passed: bool
    fixed_point_counts: tuple[int, ...]
    machine_counts: tuple[int, ...]

    def to_dict(self) -> dict:
        head = _profile_json(
            self.prefix_length, range(1, self.n_max + 1), self.fixed_point_counts,
            {"embedding": self.embedding_ok, "runs": self.runs_ok, "exponent": self.exponent_ok, "passed": self.passed},
            p_machine=list(self.machine_counts),
        )
        return {
            **head,
            "exponent": self.exponent,
            "exponent_threshold": self.exponent_threshold,
            "longest_run": self.longest_run,
            "run_bound": self.run_bound,
            "growth_classes": list(GROWTH_CLASSES),
        }


def quadratic_witness_check(
    prefix_length: int, morphism: Morphism | None = None, seed=None
) -> QuadraticWitnessReport:
    """Profile a morphism's fixed point and its induced machine sequence.

    With the default three-letter witness (0 -> 01, 1 -> 12, 2 -> 2) all
    three verdicts hold: blocks of the fixed point embed into the machine
    sequence, runs of one letter grow past log2 of the prefix, and the
    fitted growth exponent over lengths 8..30 reaches 1.7.  Substituting a
    linear-growth morphism flips the exponent verdict, which is the point
    of reporting it.
    """
    n_max = WITNESS_N_MAX
    phi = _WITNESS if morphism is None else morphism
    if seed is None:
        seed = phi.domain.symbols[0]
    w_prefix = take(fixed_point(phi, seed), prefix_length)
    system, machine = system_from_morphism(phi, seed)
    v_prefix = take(sequence(system, machine), prefix_length)
    pw = factor_count(w_prefix, len(w_prefix), n_max)
    pv = factor_count(v_prefix, len(v_prefix), n_max)
    embedding_ok = all(pv.values[i] >= pw.values[i] for i in range(n_max))
    runs = _longest_runs(list(w_prefix))
    run_letter, longest_run = max(runs.items(), key=lambda kv: kv[1])
    run_bound = int(math.log2(len(w_prefix)))
    runs_ok = longest_run >= run_bound
    exponent = _fit_exponent(pw.values, 8, n_max)
    threshold = 1.7
    exponent_ok = exponent >= threshold
    return QuadraticWitnessReport(
        prefix_length=len(w_prefix),
        n_max=n_max,
        embedding_ok=embedding_ok,
        run_letter=run_letter,
        longest_run=longest_run,
        run_bound=run_bound,
        runs_ok=runs_ok,
        exponent=exponent,
        exponent_threshold=threshold,
        exponent_ok=exponent_ok,
        passed=embedding_ok and runs_ok and exponent_ok,
        fixed_point_counts=pw.values,
        machine_counts=pv.values,
    )


@dataclass(frozen=True)
class UpperBoundReport:
    """Empirical consistency of a sequence with at-most-quadratic growth."""

    prefix_length: int
    n_max: int
    constant: float
    values: tuple[int, ...]
    doubling_violations: tuple[int, ...]
    passed: bool

    def to_dict(self) -> dict:
        head = _profile_json(self.prefix_length, range(1, self.n_max + 1), self.values, {"passed": self.passed})
        return {**head, "constant": self.constant, "doubling_violations": list(self.doubling_violations)}


def upper_bound_check(u, n_max: int, prefix_length: int = 10_000) -> UpperBoundReport:
    """Report the least C with p(n) <= C·n² on [2, n_max] and doubling jumps.

    The constant is measured, not asserted; the substantive verdict is that
    no length n in range has p(2n) > 4·p(n), the step pattern quadratic
    growth can never exceed.
    """
    profile = factor_count(u.stream(), prefix_length, n_max)
    constant = max(profile.values[n - 1] / n**2 for n in range(2, n_max + 1))
    violations = tuple(
        n
        for n in range(1, n_max // 2 + 1)
        if profile.values[2 * n - 1] > 4 * profile.values[n - 1]
    )
    return UpperBoundReport(
        prefix_length=profile.prefix_length,
        n_max=n_max,
        constant=constant,
        values=profile.values,
        doubling_violations=violations,
        passed=not violations,
    )


def binomial_bits() -> Iterator[int]:
    """Bits of the word listing all binary words with exactly three ones.

    Block k concatenates the length-(k+3) words with exactly three ones in
    increasing lexicographic order; the full word strings the blocks
    together starting from 111.
    """
    for n in count(3):
        for ones in reversed(list(combinations(range(n), 3))):
            word = [0] * n
            for i in ones:
                word[i] = 1
            yield from word


@dataclass(frozen=True)
class BinomialWord:
    """A prefix of the three-ones listing word and the positions of its ones."""

    bits: tuple[int, ...]
    elements: tuple[int, ...]

    def to_dict(self) -> dict:
        return {"bits": "".join(map(str, self.bits)), "elements": list(self.elements)}


def binomial_word(n_terms: int) -> BinomialWord:
    """First `n_terms` bits of the three-ones listing word, plus its one-set."""
    bits = take(binomial_bits(), n_terms)
    elements = tuple(i for i, b in enumerate(bits) if b)
    return BinomialWord(bits, elements)


@dataclass(frozen=True)
class SuperQuadraticReport:
    """Evidence that count/n² keeps growing along a geometric length grid."""

    n_terms: int
    grid: tuple[int, ...]
    ratios: tuple[float, ...]
    growth_factor: float
    threshold: float
    verdict: str  # "pass" | "fail" | "inconclusive"

    def to_dict(self) -> dict:
        counts = [round(r * n**2) for r, n in zip(self.ratios, self.grid)]
        head = _profile_json(self.n_terms, self.grid, counts, {"verdict": self.verdict})
        factor = None if math.isnan(self.growth_factor) else self.growth_factor
        return {**head, "growth_factor": factor, "threshold": self.threshold}


def super_quadratic_check(n_terms: int, stream: Iterable | None = None) -> SuperQuadraticReport:
    """Check count/n² growth along powers of two up to min(256, sqrt(prefix)).

    Passes when the ratio at the largest length is at least twice the ratio
    at the smallest; prefixes under 1000 terms are reported inconclusive.
    With no stream given, the three-ones listing word is profiled — the
    standard example whose growth beats every quadratic bound.
    """
    prefix = take(binomial_bits() if stream is None else stream, n_terms)
    top = min(256, math.isqrt(len(prefix)))
    grid = []
    n = 4
    while n <= top:
        grid.append(n)
        n *= 2
    if len(prefix) < 1000 or len(grid) < 2:
        return SuperQuadraticReport(len(prefix), tuple(grid), (), float("nan"), 2.0, "inconclusive")
    profile = factor_count(prefix, len(prefix), grid[-1])
    ratios = tuple(profile.values[n - 1] / n**2 for n in grid)
    factor = ratios[-1] / ratios[0]
    verdict = "pass" if factor >= 2.0 else "fail"
    return SuperQuadraticReport(len(prefix), tuple(grid), ratios, factor, 2.0, verdict)
