"""The three workloads: their inputs, commands, queries and output checks.

Every workload runs every kind of command, because every run reports every
end-to-end metric; what differs is the input, and with it the layer that
does the work:

* ``poly-growth`` — a*b* with the README's 12-state machine, and the
  witness morphism's induced system (words with at most two b's).  Words
  grow like sqrt(n) and cbrt(n), so the shortlex walk does nearly all the
  work and its cost per term grows with the rank.
* ``exp-growth`` — Thue-Morse over base 2 and the same parity machine over
  the Fibonacci (Zeckendorf) language.  Words are O(log n) long, so the walk
  is cheap per term; per-term patching, Python overhead, the suffix
  automaton and big-integer rank/unrank dominate.  It is the no-change
  control for work on the walk.
* ``automata-core`` — random complete machines, one fixed draw that the
  seed renames and reorders.  Product search, Moore refinement and
  quotients do the work; the walk almost none.

SIZES below holds every size with the reason it was chosen.
"""

from __future__ import annotations

import json
import math
import os
import random
import sys

import inputs
import oracle
from oracle import expect

GOLDEN_50 = "01023031200231010123023031203120231002310123010123"

# Each command is sized to take roughly 5-150 ms, so that a 40 s run takes
# 20-60 samples of it.  On a shared 2-core host the speed of a core drifts
# by 20-40% over spells of seconds; the least of many short samples lands in
# a fast spell in almost every run, while a few long samples average over
# whatever load the run met.  How cost grows beyond these sizes is measured
# by the per-layer exponents (``walk_sizes`` and friends, ``--trace 1``).
SIZES = {
    "poly-growth": {
        # 2500 teaching terms end on words of ~70 letters; the walk's cost
        # per term grows with the word (exponent ~1.5 over doublings)
        "teaching_terms": 2_500,
        # the two-b language reaches ~30-letter words at 5000 terms
        "witness_terms": 5_000,
        # ranks up to 1e7 put words of ~4500 letters in the query tail
        "queries": 1000,
        "max_rank": 10**7,
        "witness_prefix": 5_000,
        "kernel_terms": 20,
        "walk_sizes": (2_500, 5_000, 10_000),
        "fixed_point_terms": 200_000,
        "minimize_sizes": (2000, 4000, 8000),
    },
    "exp-growth": {
        # 15000 terms of a base-2 sequence: ~60 ms, 14-bit words
        "terms": 15_000,
        # 500 queries per sequence at ranks up to 1e300 (~1000-bit words)
        "queries": 500,
        "max_rank": 10**300,
        # the three-ones word: most of the time is its suffix automaton
        "binomial_count": 10_000,
        "kernel_terms": 20,
        "walk_sizes": (25_000, 50_000, 100_000),
        "fixed_point_terms": 200_000,
        "minimize_sizes": (2000, 4000, 8000),
    },
    "automata-core": {
        # Quotients sort with a linear list search, O(n^2): at 2000 states
        # that is already a third of minimize; the per-layer
        # automata.minimize_exponent times 2000, 4000 and 8000 states.
        # At 3000 states a sample takes ~0.15 s and caught a slow spell of
        # the host in 2 of 5 runs.
        #
        # The machines' structure is one fixed draw (Workload.shape), so a
        # single machine or pair of each kind does the same work in every
        # run; fewer of them make a pass shorter, and a run takes more
        # samples of each (~50 in 40 s), which steadies their least.
        "minimize_machines": 1,
        "minimize_states": 2000,
        "reduce_states": 1800,
        "minimize_sizes": (2000, 4000, 8000),
        # Each pair is redrawn until its reachable pair count is inside a
        # band: the count sets the cost of fibers, kernels and the learner.
        "fiber_pairs": 1,
        "fiber_lang": 80,
        "fiber_machine": 10,
        "fiber_band": (390, 410),
        # The canonical substitution's letter analysis is quadratic in the
        # pair states, so streamed pairs stay near 130.
        "stream_pairs": 2,
        "stream_lang": 40,
        "stream_machine": 8,
        "stream_band": (125, 135),
        "terms": 2_000,
        # 500 per streamed pair: 1000 in all, enough for a p99
        "queries": 500,
        # ranks up to the count of words of length <= 100, so query words
        # have the same lengths whatever the language's growth rate
        "query_length": 100,
        # The learner makes ~2 * classes * bound term calls, bound being
        # the reachable pairs; small pairs keep one sample near 30 ms.
        "relearn_pairs": 3,
        "relearn_lang": 8,
        "relearn_machine": 8,
        "relearn_band": (34, 36),
        "witness_prefix": 2_000,
        "kernel_terms": 4,
        "walk_sizes": (20_000, 40_000, 80_000),
        "fixed_point_terms": 100_000,
    },
}

# A smoke run: every command and check at a size that finishes in seconds.
TINY = {
    "poly-growth": {"teaching_terms": 300, "witness_terms": 300, "queries": 30,
                    "max_rank": 10**5, "witness_prefix": 1000,
                    "walk_sizes": (100, 200, 400), "fixed_point_terms": 1000,
                    "minimize_sizes": (50, 100, 200)},
    "exp-growth": {"terms": 1000, "queries": 30, "max_rank": 10**40, "binomial_count": 2000,
                   "walk_sizes": (250, 500, 1000), "fixed_point_terms": 1000,
                   "minimize_sizes": (50, 100, 200)},
    "automata-core": {"minimize_machines": 1, "minimize_states": 60, "reduce_states": 60, "fiber_pairs": 1,
                      "fiber_lang": 20, "fiber_machine": 5, "fiber_band": (1, 10**6),
                      "stream_pairs": 1, "stream_lang": 8, "stream_machine": 3,
                      "stream_band": (1, 10**6), "terms": 500, "queries": 30,
                      "query_length": 40, "relearn_pairs": 1, "relearn_lang": 4,
                      "relearn_machine": 4, "relearn_band": (1, 10**6),
                      "minimize_sizes": (50, 100, 200),
                      "witness_prefix": 1000, "walk_sizes": (250, 500, 1000),
                      "fixed_point_terms": 1000},
}

NMAX = 30  # block lengths profiled by `complexity`


class Sequence:
    """One (language, machine) pair and what the workload does with it."""

    def __init__(self, name, lang, mach, *, terms=0, queries=(), kernel_terms=0,
                 relearn_bound=0, fibers=False, closed_form=None):
        self.name, self.lang, self.mach = name, lang, mach
        self.terms = terms
        self.queries = list(queries)
        self.kernel_terms = kernel_terms
        self.relearn_bound = relearn_bound
        self.fibers = fibers
        self.closed_form = closed_form  # rank -> term, or None for the generic oracle
        self.substitution = terms > 0  # streamed pairs also get `subst`
        self.counts = oracle.Counts(lang)
        self._prefix = ""

    def prefix(self, n: int) -> str:
        """The first n terms from the oracle (closed form or pruned DFS)."""
        if len(self._prefix) < n:
            if self.closed_form is not None:
                self._prefix = "".join(self.closed_form(i) for i in range(n))
            else:
                self._prefix = "".join(oracle.shortlex_terms(self.lang, self.mach, n, self.counts))
        return self._prefix[:n]

    def term(self, n: int) -> str:
        if self.closed_form is not None:
            return self.closed_form(n)
        return self.mach["output"][oracle.run(self.mach, self.counts.unrank(n))]


class Command:
    """One CLI invocation: its argv, the metric it feeds and its check."""

    def __init__(self, key, case, argv, check, terms=0, outputs=()):
        self.key, self.case, self.argv, self.check = key, case, argv, check
        self.terms, self.outputs = terms, tuple(outputs)


def log_uniform_ranks(rng: random.Random, count: int, max_rank: int) -> list:
    """Stratified log-uniform ranks in [1, max_rank]: one per equal slice of
    log(rank), jittered by the seed, so every seed has the same spread of
    word lengths and the tail percentiles mean the same thing."""
    top = math.log(max_rank)
    ranks = []
    for i in range(count):
        x = (i + rng.random()) / count * top
        # exp() of a float loses digits at 1e300; scale an integer instead
        mant, exp10 = math.modf(x / math.log(10))
        ranks.append(max(1, int(10 ** (mant + 15)) * 10 ** int(exp10) // 10**15))
    rng.shuffle(ranks)
    return ranks


class Workload:
    def __init__(self, name: str, seed: int, workdir: str, tiny: bool = False):
        if name not in SIZES:
            raise ValueError(f"unknown workload {name!r}; choose from {', '.join(SIZES)}")
        self.name, self.seed, self.dir = name, seed, workdir
        self.size = dict(SIZES[name], **(TINY[name] if tiny else {}))
        self.rng = random.Random(f"{name}:{seed}")
        # The structure of automata-core's random machines is one fixed draw;
        # the seed renames their states, reorders their lines and draws the
        # query ranks.  Drawn from the seed, the structure alone moved the
        # work of fiber, kernel and minimize by 13-22% of the median
        # (interquartile range over ten seeds, timed interleaved in one
        # process), more than the bounds allow.
        self.shape = random.Random(f"{name}:shape")
        self.files: dict = {}
        self.seqs: list = []
        self.minimize: list = []  # (file, plain dfa)
        self.reduce: list = []    # (file, plain dfao)
        self.morphisms: dict = {}  # file -> (images, seed)
        getattr(self, "_" + name.replace("-", "_"))()
        self.commands = self._commands()

    # -- inputs -----------------------------------------------------------

    def path(self, fname: str) -> str:
        return os.path.join(self.dir, fname)

    def _poly_growth(self):
        s = self.size
        ab, teach = inputs.ab_star(), inputs.teaching()
        w_lang, w_mach = inputs.morphism_system(inputs.WITNESS, "0")
        # learner bounds: the README's 12 for the teaching machine, the
        # kernel's class count for the other fixed examples
        self.seqs = [
            Sequence("teaching", ab, teach, terms=s["teaching_terms"],
                     queries=log_uniform_ranks(self.rng, s["queries"], s["max_rank"]),
                     kernel_terms=s["kernel_terms"], relearn_bound=12, fibers=True,
                     closed_form=lambda n: oracle.teaching_term(n, inputs.teaching_output)),
            Sequence("witness", w_lang, w_mach, terms=s["witness_terms"],
                     kernel_terms=s["kernel_terms"], relearn_bound=4, fibers=True),
        ]
        self.minimize = [("ab.dfa", ab), ("witness.dfa", w_lang)]
        self.reduce = [("teaching.dfao", teach), ("witness.dfao", w_mach)]
        self.morphisms = {"witness.mor": (inputs.WITNESS, "0")}
        self.growth = ("witness-quadratic", s["witness_prefix"])

    def _exp_growth(self):
        s = self.size
        base2, fib, par = inputs.binary_like(), inputs.fibonacci(), inputs.parity()
        self.seqs = [
            Sequence("thue-morse", base2, par, terms=s["terms"],
                     queries=log_uniform_ranks(self.rng, s["queries"], s["max_rank"]),
                     kernel_terms=s["kernel_terms"], relearn_bound=4, fibers=True,
                     closed_form=oracle.popcount_parity),
            Sequence("fibonacci", fib, par, terms=s["terms"],
                     queries=log_uniform_ranks(self.rng, s["queries"], s["max_rank"]),
                     kernel_terms=s["kernel_terms"], relearn_bound=6, fibers=True,
                     closed_form=oracle.zeckendorf_parity),
        ]
        self.minimize = [("base2.dfa", base2), ("fibonacci.dfa", fib)]
        self.reduce = [("parity.dfao", par)]
        self.morphisms = {"thue-morse.mor": (inputs.THUE_MORSE, "0")}
        self.growth = ("binomial-word", s["binomial_count"])

    def _automata_core(self):
        s, rng = self.size, self.shape
        self.seqs = []
        for i in range(s["stream_pairs"]):
            lang, mach = inputs.random_pair(rng, s["stream_lang"], s["stream_machine"], s["stream_band"])
            seq = Sequence(f"stream{i}", lang, mach, terms=s["terms"], kernel_terms=s["kernel_terms"])
            counts = seq.counts.upto(s["query_length"])[lang["start"]]
            seq.queries = log_uniform_ranks(self.rng, s["queries"], sum(counts))
            self.seqs.append(seq)
        for i in range(s["fiber_pairs"]):
            lang, mach = inputs.random_pair(rng, s["fiber_lang"], s["fiber_machine"], s["fiber_band"])
            self.seqs.append(Sequence(f"fibers{i}", lang, mach, kernel_terms=s["kernel_terms"], fibers=True))
        for i in range(s["relearn_pairs"]):
            lang, mach = inputs.random_pair(rng, s["relearn_lang"], s["relearn_machine"], s["relearn_band"])
            # the reachable pairs bound the kernel classes from above
            self.seqs.append(Sequence(f"relearn{i}", lang, mach,
                                      relearn_bound=inputs.pair_states(lang, mach)))
        self.minimize = [(f"big{i}.dfa", inputs.random_dfa(rng, s["minimize_states"]))
                         for i in range(s["minimize_machines"])]
        self.reduce = [(f"big{i}.dfao", inputs.random_dfao(rng, s["reduce_states"]))
                       for i in range(s["minimize_machines"])]
        self.morphisms = {}
        self.growth = ("witness-quadratic", s["witness_prefix"])

    def write_inputs(self):
        for seq in self.seqs:
            self.files[seq.name + ".dfa"] = inputs.machine_text(seq.lang, self.rng)
            self.files[seq.name + ".dfao"] = inputs.machine_text(seq.mach, self.rng)
        for fname, m in self.minimize + self.reduce:
            self.files[fname] = inputs.machine_text(m, self.rng)
        for fname, (images, seed) in self.morphisms.items():
            self.files[fname] = inputs.morphism_text(images, seed)
        os.makedirs(self.dir, exist_ok=True)
        for fname, text in self.files.items():
            with open(self.path(fname), "w", encoding="utf-8") as fh:
                fh.write(text)

    # -- commands ---------------------------------------------------------

    def _commands(self) -> list:
        p = self.path
        cmds = []
        for seq in self.seqs:
            sm = ["-s", p(seq.name + ".dfa"), "-m", p(seq.name + ".dfao")]
            n = seq.terms
            if n:
                cmds.append(Command("seq", f"seq:{seq.name}", ["seq", *sm, "--count", str(n)],
                                    self._check_seq(seq), terms=n))
                cmds.append(Command("subst", f"subst:{seq.name}",
                                    ["subst", *sm, "--count", str(n), "-o", p(seq.name + ".sub")],
                                    self._check_subst(seq), terms=n, outputs=[p(seq.name + ".sub")]))
                cmds.append(Command("complexity", f"complexity:{seq.name}",
                                    ["complexity", *sm, "--prefix", str(n), "--nmax", str(NMAX)],
                                    self._check_complexity(seq), terms=n))
            if seq.fibers:
                symbols = sorted(set(seq.mach["output"].values()))
                paths = {d: p(f"{seq.name}.fiber{d}.dfa") for d in symbols}
                for d in symbols:
                    cmds.append(Command("fiber", f"fiber:{seq.name}:{d}",
                                        ["fiber", *sm, "--symbol", d, "-o", paths[d]],
                                        self._check_fiber(seq, d), outputs=[paths[d]]))
                fiber_args = [a for d in symbols for a in ("--fiber", f"{d}={paths[d]}")]
                out = p(seq.name + ".rebuilt.dfao")
                cmds.append(Command("rebuild", f"rebuild:{seq.name}",
                                    ["fibers-to-dfao", "-s", p(seq.name + ".dfa"), *fiber_args, "-o", out],
                                    self._check_rebuild(seq), outputs=[out]))
            if seq.kernel_terms:
                cmds.append(Command("kernel", f"kernel:{seq.name}",
                                    ["kernel", *sm, "--json", "--terms", str(seq.kernel_terms)],
                                    self._check_kernel(seq)))
            if seq.relearn_bound:
                out = p(seq.name + ".learned.dfao")
                cmds.append(Command("relearn", f"relearn:{seq.name}",
                                    ["kernel-to-dfao", *sm, "--bound", str(seq.relearn_bound), "-o", out],
                                    self._check_relearn(seq), outputs=[out]))
        for fname, m in self.minimize:
            out = p(fname + ".min")
            cmds.append(Command("minimize", f"minimize:{fname}", ["minimize", p(fname), "-o", out],
                                self._check_minimize(m), outputs=[out]))
        for fname, m in self.reduce:
            out = p(fname + ".red")
            cmds.append(Command("reduce", f"reduce:{fname}", ["reduce", p(fname), "-o", out],
                                self._check_reduce(m), outputs=[out]))
        kind, n = self.growth
        if kind == "witness-quadratic":
            argv = ["witness-quadratic", "--prefix", str(n), "--json"]
            cmds.append(Command("growth", f"growth:{kind}", argv, _check_witness(n), terms=n))
        else:
            argv = ["binomial-word", "--count", str(n), "--check", "--json"]
            cmds.append(Command("growth", f"growth:{kind}", argv, _check_binomial(n), terms=n))
        return cmds

    # -- checks: each takes (stdout, {path: text}) and raises CheckFailed --

    def _check_seq(self, seq):
        def check(out, files):
            want = seq.prefix(seq.terms)
            if seq.name == "teaching":
                expect(want[:50] == GOLDEN_50, "teaching oracle lost the golden prefix")
            short = oracle.brute_words(seq.lang, 10 if len(seq.lang["alphabet"]) == 2 else 6)
            brute = "".join(seq.mach["output"][oracle.run(seq.mach, w)] for w in short)
            expect(want.startswith(brute[:len(want)]), f"{seq.name}: oracles disagree on short words")
            expect(out.strip() == want, f"seq {seq.name}: terms differ from the oracle")
        return check

    def _check_subst(self, seq):
        def check(out, files):
            expect(out.strip() == seq.prefix(seq.terms), f"subst {seq.name}: terms differ from seq")
            text = next(iter(files.values()))
            expect(text.startswith("axiom:") or "\naxiom:" in text, f"subst {seq.name}: no axiom line")
        return check

    def _check_complexity(self, seq):
        def check(out, files):
            lines = out.strip().splitlines()
            want = seq.prefix(seq.terms)
            counts = oracle.block_counts(want, range(1, NMAX + 1))
            horizon = 0
            for n, c in enumerate(counts, start=1):
                if c < len(want) - n + 1:
                    horizon = n
                else:
                    break
            expected = [f"prefix: {len(want)}", f"exactness horizon: {horizon}"]
            expected += [f"{n} {c}" for n, c in enumerate(counts, start=1)]
            expect(lines == expected, f"complexity {seq.name}: block counts differ from brute force")
        return check

    def _check_fiber(self, seq, d):
        lang, mach = seq.lang, seq.mach

        def check(out, files):
            f = oracle.parse(next(iter(files.values())))
            expect(f["finals"] is not None, f"fiber {seq.name}/{d}: not a DFA")
            expect(_agrees(f, lang, mach, lambda fq: fq is not None and fq in f["finals"],
                           lambda l, m: l in lang["finals"] and m is not None and mach["output"][m] == d),
                   f"fiber {seq.name}/{d}: language differs from L and output {d}")
        return check

    def _check_rebuild(self, seq):
        lang, mach = seq.lang, seq.mach

        def check(out, files):
            r = oracle.parse(next(iter(files.values())))
            expect(r["output"] is not None, f"rebuild {seq.name}: not a DFAO")
            expect(_agrees(r, lang, mach, lambda rq: r["output"].get(rq),
                           lambda l, m: SKIP if l not in lang["finals"]
                           else mach["output"][m] if m is not None else BOTTOM),
                   f"rebuild {seq.name}: outputs differ on some word of the language")
        return check

    def _check_kernel(self, seq):
        lang, mach = seq.lang, seq.mach

        def check(out, files):
            classes = json.loads(out)["classes"]
            reps = [tuple(c["representative"]) if c["representative"] != "@eps" else ()
                    for c in classes]
            keys = [(len(w), [lang["alphabet"].index(a) for a in w]) for w in reps]
            expect(keys == sorted(keys) and len(set(reps)) == len(reps),
                   f"kernel {seq.name}: representatives not distinct and shortlex-ordered")
            expect([c["id"] for c in classes] == list(range(len(classes))),
                   f"kernel {seq.name}: ids not 0..k-1")
            for c, w in zip(classes, reps):
                root = oracle.run(lang, w)
                conts = seq.counts.words_from(root, seq.kernel_terms) if root is not None else []
                terms = [mach["output"][oracle.run(mach, w + z)] for z in conts]
                expect(c["terms"] == terms, f"kernel {seq.name}: class {c['id']} terms differ")
                alive = root is not None and bool(seq.counts.words_from(root, 1))
                expect(c["empty"] == (not alive), f"kernel {seq.name}: class {c['id']} emptiness")
        return check

    def _check_relearn(self, seq):
        bound = seq.relearn_bound

        def check(out, files):
            m = oracle.parse(next(iter(files.values())))
            expect(m["output"] is not None, f"relearn {seq.name}: not a DFAO")
            expect(len(m["states"]) <= bound, f"relearn {seq.name}: more states than the bound")
            # The learner promises the first `bound` terms (its verification
            # pass); agreement beyond them is not part of its contract.
            got = "".join(oracle.shortlex_terms(seq.lang, m, 4 * bound, seq.counts))
            expect(got[:bound] == seq.prefix(bound),
                   f"relearn {seq.name}: learned machine misses the first {bound} terms")
            if got != seq.prefix(len(got)):
                print(f"note: relearn {seq.name}: the learned machine agrees on the first "
                      f"{bound} terms, as promised, but not on the first {len(got)}",
                      file=sys.stderr)
        return check

    def _check_minimize(self, m):
        def check(out, files):
            got = oracle.parse(next(iter(files.values())))
            expect(got["finals"] is not None and oracle.same_language(got, m),
                   "minimize: output accepts another language than its input")
            expect(len(got["states"]) <= len(inputs.reachable(m)),
                   "minimize: output larger than the reachable input")
        return check

    def _check_reduce(self, m):
        def check(out, files):
            got = oracle.parse(next(iter(files.values())))
            expect(got["output"] is not None and oracle.same_behaviour(got, m),
                   "reduce: output behaves differently from its input")
            expect(len(got["states"]) <= len(inputs.reachable(m)),
                   "reduce: output larger than the reachable input")
        return check

    # -- queries ------------------------------------------------------------

    def query_list(self) -> list:
        return [(seq, n) for seq in self.seqs for n in seq.queries]


def _agrees(x: dict, lang: dict, mach: dict, view, expected) -> bool:
    """At every reachable triple of x, the language and the machine,
    view(x-state) equals expected(l, m), unless that is SKIP."""
    for q, l, m in oracle.tuples(x, lang, mach):
        want = expected(l, m)
        if want is not SKIP and view(q) != want:
            return False
    return True


SKIP = object()
BOTTOM = "\u22a5"  # the program's output for words no machine move reaches


def _check_witness(n: int):
    images = inputs.WITNESS

    def check(out, files):
        rep = json.loads(out)
        w = oracle.fixed_point(images, "0", n)
        v = oracle.iterates(images, "0", n)
        p = oracle.block_counts(w, range(1, NMAX + 1))
        pv = oracle.block_counts(v, range(1, NMAX + 1))
        expect(rep["prefix"] == n, "witness-quadratic: prefix length")
        expect(rep["p"] == p, "witness-quadratic: fixed-point block counts differ from brute force")
        expect(rep["p_machine"] == pv, "witness-quadratic: machine block counts differ from brute force")
        expect(rep["longest_run"] == max(oracle.longest_runs(w).values()), "witness-quadratic: longest run")
        expect(rep["verdicts"]["embedding"] == all(a >= b for a, b in zip(pv, p)),
               "witness-quadratic: embedding verdict")
    return check


def _check_binomial(n: int):
    def check(out, files):
        rep = json.loads(out)
        bits = oracle.binomial_bits(n)
        expect(rep["bits"] == bits, "binomial-word: bits differ from the listing")
        expect(rep["elements"] == [i for i, b in enumerate(bits) if b == "1"], "binomial-word: one-set")
        top = min(256, math.isqrt(n))
        grid = [2**k for k in range(2, 9) if 2**k <= top]
        chk = rep["check"]
        expect(chk["n"] == grid, "binomial-word: length grid")
        counts = oracle.block_counts(bits, grid)
        expect(chk["p"] == counts, "binomial-word: block counts differ from brute force")
        ratios = [c / g**2 for c, g in zip(counts, grid)]
        verdict = "pass" if ratios[-1] / ratios[0] >= 2.0 else "fail"
        expect(chk["verdicts"]["verdict"] == verdict, "binomial-word: verdict")
    return check
