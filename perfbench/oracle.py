"""Independent oracles for the benchmark's output checks.

Nothing here imports `ans`: the text format is parsed, words are ranked
and enumerated, and languages are compared by code of this file alone, so
a defect in the library cannot hide itself by agreeing with itself.
Machines are the plain dicts of ``inputs.py``.
"""

from __future__ import annotations

from itertools import product as cartesian


class CheckFailed(Exception):
    """An output of the program disagrees with its oracle."""


def expect(ok: bool, what: str):
    if not ok:
        raise CheckFailed(what)


# -- the ans text format --------------------------------------------------

def parse(text: str) -> dict:
    """Read a machine file written by the program (DFA or DFAO)."""
    m = {"alphabet": None, "states": None, "start": None, "finals": None,
         "output": None, "trans": {}}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, rest = line.partition(":")
        toks = rest.split()
        if key == "alphabet":
            m["alphabet"] = toks
        elif key == "states":
            m["states"] = toks
        elif key == "start":
            m["start"] = toks[0]
        elif key == "final":
            m["finals"] = set(toks)
        elif key == "output":
            m["output"] = m["output"] or {}
            m["output"][toks[0]] = toks[1]
        elif key == "trans":
            m["trans"][(toks[0], toks[1])] = toks[2]
        else:
            raise CheckFailed(f"unexpected line in machine output: {line!r}")
    expect(m["alphabet"] is not None and m["states"] is not None and m["start"] is not None,
           "machine output lacks an alphabet, states or start line")
    return m


# -- runs, counts, rank and unrank ----------------------------------------

def run(m: dict, word, q=None):
    q = m["start"] if q is None else q
    trans = m["trans"]
    for a in word:
        q = trans.get((q, a))
        if q is None:
            return None
    return q


class Counts:
    """rows[q][l]: accepted words of length l readable from q."""

    def __init__(self, m: dict):
        self.m = m
        self.succ = {q: [(a, m["trans"][(q, a)]) for a in m["alphabet"] if (q, a) in m["trans"]]
                     for q in m["states"]}
        self.rows = {q: [1 if q in m["finals"] else 0] for q in m["states"]}

    def upto(self, length: int) -> dict:
        rows = self.rows
        start = len(rows[self.m["start"]])
        for l in range(start, length + 1):
            for q, row in rows.items():
                row.append(sum(rows[q2][l - 1] for _a, q2 in self.succ[q]))
        return rows

    def unrank(self, n: int) -> tuple:
        """The word of shortlex rank n."""
        start = self.m["start"]
        length = 0
        while True:
            c = self.upto(length)[start][length]
            if n < c:
                break
            n -= c
            length += 1
        rows = self.rows
        q, word = start, []
        for i in range(length):
            rest = length - i - 1
            for a, q2 in self.succ[q]:
                c = rows[q2][rest]
                if n < c:
                    word.append(a)
                    q = q2
                    break
                n -= c
        return tuple(word)

    def words_from(self, q, limit: int) -> list:
        """First `limit` accepted words readable from q, shortlex, by pruned DFS."""
        out = []
        length = 0
        empty_run = 0
        while len(out) < limit:
            rows = self.upto(length)
            if rows[q][length] == 0:
                empty_run += 1
                if empty_run > len(self.m["states"]):
                    break  # the accepted lengths ended: a finite set of words
                length += 1
                continue
            empty_run = 0
            stack = [(q, ())]
            while stack and len(out) < limit:
                p, w = stack.pop()
                if len(w) == length:
                    out.append(w)
                    continue
                rest = length - len(w) - 1
                for a, p2 in reversed(self.succ[p]):
                    if rows[p2][rest] > 0:
                        stack.append((p2, w + (a,)))
            length += 1
        return out


def shortlex_terms(lang: dict, mach: dict, n: int, counts: Counts | None = None) -> list:
    """Outputs of `mach` on the first n words of `lang` in shortlex order."""
    counts = counts or Counts(lang)
    return [mach["output"][run(mach, w)] for w in counts.words_from(lang["start"], n)]


def brute_words(m: dict, max_len: int) -> list:
    """Accepted words of length <= max_len in shortlex order, by filtering
    every word over the alphabet."""
    return [w for n in range(max_len + 1) for w in cartesian(m["alphabet"], repeat=n)
            if run(m, w) in m["finals"]]


# -- closed forms of the running examples -----------------------------------

def ab_star_word(n: int) -> tuple[int, int]:
    """(#a, #b) of the word of rank n in a*b*: length m holds m+1 words."""
    m = (int((8 * n + 1) ** 0.5) - 1) // 2
    while m * (m + 1) // 2 > n:
        m -= 1
    while (m + 1) * (m + 2) // 2 <= n:
        m += 1
    k = n - m * (m + 1) // 2
    return m - k, k


def teaching_term(n: int, output) -> str:
    i, j = ab_star_word(n)
    return output(i % 4, j % 3)


def popcount_parity(n: int) -> str:
    return str(bin(n).count("1") % 2)


def zeckendorf_parity(n: int) -> str:
    """Parity of the number of terms in the greedy Fibonacci representation."""
    fibs = [1, 2]
    while fibs[-1] <= n:
        fibs.append(fibs[-1] + fibs[-2])
    ones = 0
    for f in reversed(fibs):
        if f <= n:
            n -= f
            ones += 1
    return str(ones % 2)


def fixed_point(images: dict, seed: str, n: int) -> str:
    w = list(images[seed])
    j = 1
    while len(w) < n:
        w.extend(images[w[j]])
        j += 1
    return "".join(w[:n])


def iterates(images: dict, seed: str, n: int) -> str:
    """seed . phi(seed) . phi^2(seed) ...: the induced system's sequence."""
    out, cur = [], [seed]
    while len(out) < n:
        out.extend(cur)
        cur = [y for x in cur for y in images[x]]
    return "".join(out[:n])


def binomial_bits(n: int) -> str:
    """Every binary word with exactly three ones, lengths 3, 4, ..., each
    length in increasing lexicographic order."""
    out = []
    length = 3
    while len(out) < n:
        words = []
        for i in range(length):
            for j in range(i + 1, length):
                for k in range(j + 1, length):
                    words.append("".join("1" if p in (i, j, k) else "0" for p in range(length)))
        for w in sorted(words):
            out.extend(w)
        length += 1
    return "".join(out[:n])


def block_counts(s: str, lengths) -> list:
    """Distinct windows of each length, by brute force."""
    return [len({s[i:i + n] for i in range(len(s) - n + 1)}) for n in lengths]


def longest_runs(s: str) -> dict:
    best: dict = {}
    i = 0
    while i < len(s):
        j = i
        while j < len(s) and s[j] == s[i]:
            j += 1
        best[s[i]] = max(best.get(s[i], 0), j - i)
        i = j
    return best


# -- language and behaviour equivalence -------------------------------------

def tuples(*machines):
    """Reachable state tuples of machines read in step over one alphabet;
    a missing move leads to None on that side."""
    alphabet = machines[0]["alphabet"]
    start = tuple(m["start"] for m in machines)
    seen = {start}
    todo = [start]
    while todo:
        states = todo.pop()
        yield states
        for a in alphabet:
            nxt = tuple(m["trans"].get((q, a)) if q is not None else None
                        for m, q in zip(machines, states))
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)


def same_language(a: dict, b: dict) -> bool:
    expect(a["alphabet"] == b["alphabet"], "alphabets differ")
    return all((p in a["finals"]) == (q in b["finals"]) for p, q in tuples(a, b))


def same_behaviour(a: dict, b: dict) -> bool:
    """Equal outputs after every word; a missing move is its own behaviour."""
    expect(a["alphabet"] == b["alphabet"], "alphabets differ")
    return all((p is None) == (q is None) and (p is None or a["output"][p] == b["output"][q])
               for p, q in tuples(a, b))
