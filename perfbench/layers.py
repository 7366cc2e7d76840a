"""Per-layer metrics for ``--trace 1`` runs.

Two sources:

* ``direct`` times one layer at a time through its public function, at
  doubling sizes where what matters is how cost grows (the walk,
  ``Substitution.generate``, ``minimize``), and fits the scaling exponent;
* ``traced`` alternates untraced passes with passes under the tracer of
  ``tracing.py`` and sums span times and counts per pass.

Times are the least over repetitions or passes; counts are exact.
"""

from __future__ import annotations

import math
import random
import statistics
from collections import defaultdict, deque
from itertools import islice
from time import perf_counter

import inputs
from tracing import Tracer, instrumented

REPEATS = 3

# spans whose self time is the shortlex walk and the streaming built on it
WALK_SPANS = (
    "numeration.NumerationSystem.enumerate",
    "numeration.NumerationSystem.words_from",
    "sequences.sequence",
    "sequences.AutomaticSequence.stream",
    "sequences.subsequence",
    "substitutions.Substitution.generate",
    "substitutions.fixed_point",
)


def _best(prepare, repeats=REPEATS):
    """(least time, last result) of `work()` over repeats, where each repeat
    first calls `prepare()` untimed to get a fresh `work`."""
    times, result = [], None
    for _ in range(repeats):
        work = prepare()
        t0 = perf_counter()
        result = work()
        times.append(perf_counter() - t0)
    return min(times), result


def _consume(make_stream, n):
    """A `prepare` for _best: a fresh stream, then pull n items (keep the last)."""
    def prepare():
        stream = make_stream()
        return lambda: deque(islice(stream, n), maxlen=1)
    return prepare


def _exponent(sizes, times) -> float:
    return statistics.linear_regression([math.log(n) for n in sizes],
                                        [math.log(t) for t in times]).slope


def direct(wl, parsed, built) -> tuple[dict, list]:
    """Layer timings outside the CLI; returns (metrics, records)."""
    from ans import AutomaticSequence, NumerationSystem, canonical_substitution, factor_count
    from ans import fixed_point, minimize
    from ans.fileformat import parse_dfa

    main = next(s for s in wl.seqs if s.terms)
    lang, mach, system, u, sub = built[main.name]
    sizes = wl.size["walk_sizes"]
    top = sizes[-1]
    records = []

    walk = []
    for n in sizes:
        t, last = _best(_consume(lambda: NumerationSystem(lang).enumerate(), n))
        walk.append(t)
        records.append(("walk", "numeration", n, t, n))
    longest = len(last[0])
    stream_t, _ = _best(_consume(lambda: AutomaticSequence(NumerationSystem(lang), mach).stream(), top))
    records.append(("stream", "sequences", top, stream_t, top))

    gen = []
    for n in sizes:
        t, _ = _best(_consume(lambda: canonical_substitution(lang, mach).generate(), n))
        gen.append(t)
        records.append(("generate", "substitutions", n, t, n))

    if wl.morphisms:
        phi, seed = parsed[next(iter(wl.morphisms))]
    else:
        phi, seed = sub.phi, sub.seed
    k = wl.size["fixed_point_terms"]
    fp_t, _ = _best(_consume(lambda: fixed_point(phi, seed), k))
    records.append(("fixed_point", "substitutions", k, fp_t, k))

    prefix = u.prefix(main.terms)
    fc_t, _ = _best(lambda: lambda: factor_count(prefix, len(prefix), 30))
    records.append(("factor_count", "complexity", len(prefix), fc_t, len(prefix)))

    ranks = main.queries
    table_len = len(system.rep(max(ranks)))
    def fresh_tables():
        fresh = NumerationSystem(lang)
        return lambda: fresh.count_words(table_len)
    fill_t, _ = _best(fresh_tables)
    records.append(("count_fill", "numeration", table_len, fill_t, 0))
    rep_t, val_t = [], []
    for n in ranks:
        t, word = _best(lambda: lambda: system.rep(n))
        rep_t.append(t)
        t, _ = _best(lambda: lambda: system.val(word))
        val_t.append(t)
    records.append(("rep", "numeration", len(ranks), statistics.median(rep_t), 0))
    records.append(("val", "numeration", len(ranks), statistics.median(val_t), 0))

    canon_t, pairs = 0.0, 0
    for seq in wl.seqs:
        if seq.substitution:
            l, m = built[seq.name][:2]
            t, s = _best(lambda: lambda: canonical_substitution(l, m))
            canon_t += t
            pairs += len(s.phi.domain) - 1
    records.append(("canonical", "substitutions", pairs, canon_t, 0))

    # random DFAs at doubling sizes: the quotient's list search makes
    # minimize grow faster than linearly
    rng = random.Random(f"{wl.name}:{wl.seed}:minimize")
    mins = []
    for n in wl.size["minimize_sizes"]:
        dfa = parse_dfa(inputs.machine_text(inputs.random_dfa(rng, n), rng))
        t, _ = _best(lambda: lambda: minimize(dfa))
        mins.append(t)
        records.append(("minimize", "automata", n, t, 0))

    walk_ns = walk[-1] / top * 1e9
    stream_ns = stream_t / top * 1e9
    metrics = {
        "numeration.walk_ns_per_word": (walk_ns, "ns"),
        "numeration.walk_exponent": (_exponent(sizes, walk), "1"),
        "numeration.longest_word": (longest, "symbols"),
        "numeration.count_fill_s": (fill_t, "s"),
        "numeration.table_len": (table_len, "count"),
        "numeration.rep_us": (statistics.median(rep_t) * 1e6, "us"),
        "numeration.val_us": (statistics.median(val_t) * 1e6, "us"),
        "sequences.stream_ns_per_term": (stream_ns, "ns"),
        "sequences.patch_ns_per_term": (stream_ns - walk_ns, "ns"),
        "substitutions.canonical_s": (canon_t, "s"),
        "substitutions.pair_states": (pairs, "count"),
        "substitutions.generate_ns_per_term": (gen[-1] / top * 1e9, "ns"),
        "substitutions.generate_exponent": (_exponent(sizes, gen), "1"),
        "substitutions.fixed_point_ns_per_term": (fp_t / k * 1e9, "ns"),
        "complexity.factor_count_s": (fc_t, "s"),
        "complexity.prefix_len": (len(prefix), "count"),
        "automata.minimize_exponent": (_exponent(wl.size["minimize_sizes"], mins), "1"),
    }
    return metrics, records


def _summary(spans, counts) -> dict:
    incl, own = defaultdict(float), defaultdict(float)
    for name, parent, dur, self_dur in spans:
        own[name] += self_dur
        if parent != name:
            incl[name] += dur
    commands = sum(v for k, v in incl.items() if k.startswith("cli."))
    return {
        "automata.product_s": incl["automata.product"],
        "automata.intersect_s": incl["automata.intersect"],
        "automata.minimize_s": incl["automata.minimize"],
        "automata.reduce_s": incl["automata.reduce_dfao"],
        "automata.refine_s": incl["automata._refine"],
        "automata.equiv_s": incl["automata.equivalent"],
        "fileformat.parse_s": sum(v for k, v in incl.items() if k.startswith("fileformat.parse_")),
        "fileformat.format_s": sum(v for k, v in incl.items() if k.startswith("fileformat.format_")),
        "cli.overhead_s": sum(v for k, v in own.items() if k.startswith("cli.")),
        "trace.walk_share": sum(own[k] for k in WALK_SPANS) / commands,
        "trace.automata_share": sum(v for k, v in own.items() if k.startswith("automata.")) / commands,
        "counts": counts,
        "own": own,
    }


COUNTS = {
    "automata.product_states": "product_states",
    "automata.minimize_states_in": "minimize_states_in",
    "automata.minimize_states_out": "minimize_states_out",
    "automata.reduce_states_in": "reduce_states_in",
    "automata.reduce_states_out": "reduce_states_out",
    "sequences.kernel_classes": "kernel_classes",
    "sequences.fiber_states": "fiber_states",
    "sequences.rebuild_states": "rebuild_states",
    "sequences.relearn_term_calls": "relearn_term_calls",
    "fileformat.parse_bytes": "parse_bytes",
    "fileformat.format_bytes": "format_bytes",
}


def traced(bench, deadline: float) -> tuple[dict, list]:
    """Alternate untraced and traced passes until the deadline (one pair at least)."""
    tracer = Tracer()
    plain, traced_totals, passes = [], [], []
    while True:
        t0 = perf_counter()
        plain.append(bench.timed_pass(reps=1))
        with instrumented(tracer):
            traced_totals.append(bench.timed_pass(tracer, reps=1))
        passes.append(_summary(*tracer.take()))
        bench.passes = len(passes)
        pair_s = perf_counter() - t0
        if perf_counter() + pair_s > deadline:
            break
    metrics = {}
    for key in passes[0]:
        if key in ("counts", "own"):
            continue
        if key.startswith("trace."):
            metrics[key] = (statistics.median(p[key] for p in passes), "ratio")
        else:
            metrics[key] = (min(p[key] for p in passes), "s")
    counts = passes[-1]["counts"]
    for name, key in COUNTS.items():
        metrics[name] = (counts.get(key, 0), "count")
    metrics["trace.overhead_ratio"] = (min(traced_totals) / min(plain), "ratio")
    # self time per span name in the fastest traced pass, largest first
    best = min(range(len(passes)), key=traced_totals.__getitem__)
    own = sorted(passes[best]["own"].items(), key=lambda kv: -kv[1])
    records = [(f"span:{name}", name.split(".")[0], None, t, 0) for name, t in own]
    return metrics, records
