"""Benchmark of the `ans` library and CLI on three seeded workloads.

    python3 perfbench/run.py --workload poly-growth --seed 1 --seconds 40 --trace 0

Run from the repository root (the program is imported from ``src/``).  One
process, one thread, a closed loop: each command starts when the previous
one has finished.  The run

1. writes the workload's input files (seeded) under ``perfbench/.work``;
2. sets the program up (parse, build, canonical substitution, count
   tables) five times, and once more before every timed pass;
3. repeats passes over the workload's commands, driven through
   ``ans.cli.main(argv)``, and its ``term(n)`` queries, until ``--seconds``
   are used.  The first pass warms up and checks every output against the
   oracles in ``oracle.py``; later passes must reproduce it byte for byte;
4. prints one JSON record per case (case, layer, size, seconds,
   ns_per_term, peak_kib, with the Python version, git revision, core
   count and sizes) and, as its last line, the result object.

A command's time, and ``setup_s``, is the least of its samples (best of N,
as ``timeit`` reports).  On a shared 2-core host the speed of a core drifts by
20-40% over spells of seconds; the median of a run follows those spells and
moved by 10-30% from run to run, while the least of many short samples
spread over the whole run moved far less.  For set-up this holds most: its
median over a run flipped between two modes 1.6x apart (0.009 and 0.015 s
on poly-growth), as the host's fast and slow spells took turns.

With ``--trace 0`` the result holds the end-to-end metrics.  With
``--trace 1`` it holds the per-layer metrics: direct timings of each layer
at doubling sizes, and spans from ``tracing.py`` around every call into the
library during traced passes, alternated with untraced ones to measure the
tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

MIN_SAMPLE_S = 0.01  # commands faster than this are repeated inside one sample
SETUP_REPEATS = 5  # set-ups before the first pass; one more runs before each pass


def git_rev() -> str:
    """HEAD's commit, read from the files (no git process is started)."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def peak_rss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux


class Bench:
    def __init__(self, workload, seconds: float):
        self.wl = workload
        self.seconds = seconds
        self.attempted = 0
        self.failed = 0
        self.samples = {c.case: [] for c in workload.commands}
        self.reps = {}
        self.first = {}  # case -> (stdout, files) of the checked run
        self.query_best: list = []
        self.records: list = []
        self.setup_times: list = []
        self.passes = 0

    # -- failures -----------------------------------------------------------

    def fail(self, what: str, count: int = 1):
        self.failed += count
        print(f"check failed: {what}", file=sys.stderr)

    # -- set-up ---------------------------------------------------------------

    def setup(self):
        """Parse every input file and build what the queries and layers use."""
        from ans import AutomaticSequence, NumerationSystem, canonical_substitution
        from ans import fileformat as ff

        parsed = {}
        for fname in self.wl.files:
            with open(self.wl.path(fname), encoding="utf-8") as fh:
                text = fh.read()
            if fname.endswith(".dfa"):
                parsed[fname] = ff.parse_dfa(text, fname)
            elif fname.endswith(".dfao"):
                parsed[fname] = ff.parse_dfao(text, fname)
            else:
                parsed[fname] = ff.parse_morphism(text, fname)
        built = {}
        for seq in self.wl.seqs:
            lang, mach = parsed[seq.name + ".dfa"], parsed[seq.name + ".dfao"]
            system = NumerationSystem(lang)
            u = AutomaticSequence(system, mach)
            sub = canonical_substitution(lang, mach) if seq.substitution else None
            if seq.queries:
                system.rep(max(seq.queries))  # fills the count tables the queries read
            built[seq.name] = (lang, mach, system, u, sub)
        return parsed, built

    def timed_setup(self):
        gc.collect()
        t0 = perf_counter()
        self.parsed, self.built = self.setup()
        self.setup_times.append(perf_counter() - t0)

    # -- one command ------------------------------------------------------------

    def invoke(self, cmd, tracer=None):
        from ans import cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is None:
                rc = cli.main(cmd.argv)
            else:
                span = tracer.begin("cli." + cmd.argv[0])
                try:
                    rc = cli.main(cmd.argv)
                finally:
                    tracer.end(span)
        return rc, out.getvalue(), err.getvalue()

    def outputs(self, cmd) -> dict:
        files = {}
        for path in cmd.outputs:
            try:
                with open(path, encoding="utf-8") as fh:
                    files[path] = fh.read()
            except OSError:
                files[path] = None
        return files

    def run_command(self, cmd, tracer=None, check=False, reps=None) -> float:
        reps = reps or self.reps.get(cmd.case, 1)
        gc.collect()
        results = []
        t0 = perf_counter()
        for _ in range(reps):
            results.append(self.invoke(cmd, tracer))
        dt = (perf_counter() - t0) / reps
        self.attempted += reps
        bad = [r for r in results if r[0] != 0]
        if bad:
            self.fail(f"{cmd.case}: exit {bad[0][0]}: {bad[0][2].strip()}", len(bad))
        out, files = results[-1][1], self.outputs(cmd)
        if check:
            self.first[cmd.case] = (out, files)
            try:
                cmd.check(out, files)
            except Exception as e:  # noqa: BLE001 - any oracle failure is a failed check
                self.fail(f"{cmd.case}: {type(e).__name__}: {e}", reps)
        else:
            want_out, want_files = self.first[cmd.case]
            wrong = sum(1 for r in results if r[0] == 0 and r[1] != want_out)
            if files != want_files:
                wrong = reps
            if wrong:
                self.fail(f"{cmd.case}: output differs from the checked run", wrong)
        return dt

    # -- passes -------------------------------------------------------------------

    def warm_pass(self):
        """Run every command once, check every output, fix the repetitions."""
        for cmd in self.wl.commands:
            dt = self.run_command(cmd, check=True)
            self.reps[cmd.case] = max(1, min(100, math.ceil(MIN_SAMPLE_S / max(dt, 1e-9))))
        self.query_pass(check=True)

    def timed_pass(self, tracer=None, reps=None) -> float:
        total = 0.0
        for cmd in self.wl.commands:
            dt = self.run_command(cmd, tracer, reps=reps)
            total += dt
            if tracer is None:
                self.samples[cmd.case].append(dt)
        return total

    def query_pass(self, check=False):
        queries = self.wl.query_list()
        if not self.query_best:
            self.query_best = [math.inf] * len(queries)
        best = self.query_best
        for i, (seq, n) in enumerate(queries):
            u = self.built[seq.name][3]
            t0 = perf_counter()
            got = u.term(n)
            dt = perf_counter() - t0
            if dt < best[i]:
                best[i] = dt
            self.attempted += 1
            if check:
                self.check_query(seq, n, got)

    def check_query(self, seq, n, got):
        system = self.built[seq.name][2]
        try:
            word = system.rep(n)
            ok = got == seq.term(n) and system.val(word) == n
            if seq.closed_form is None:
                ok = ok and word == seq.counts.unrank(n)
            streamed = self.first.get(f"seq:{seq.name}", ("",))[0].strip()
            if n < len(streamed):
                ok = ok and got == streamed[n]
        except Exception as e:  # noqa: BLE001 - any oracle failure is a failed check
            self.fail(f"term({n}) on {seq.name}: {type(e).__name__}: {e}")
            return
        if not ok:
            self.fail(f"term({n}) on {seq.name}: differs from the oracle")

    # -- records ------------------------------------------------------------------

    def record(self, case, layer, size, seconds, terms=0) -> dict:
        return {
            "case": case, "layer": layer, "size": size, "seconds": seconds,
            "ns_per_term": seconds / terms * 1e9 if terms else None,
            "peak_kib": peak_rss_kib(),
        }

    # -- the two kinds of run -------------------------------------------------------

    def end_to_end(self) -> dict:
        for _ in range(SETUP_REPEATS):
            self.timed_setup()
        start = perf_counter()
        self.warm_pass()
        passes = []
        while True:
            t0 = perf_counter()
            self.timed_setup()
            self.timed_pass()
            self.query_pass()
            passes.append(perf_counter() - t0)
            if perf_counter() - start + statistics.mean(passes) > self.seconds:
                break
        setup_s = min(self.setup_times)
        self.records.append(self.record("setup", "setup", len(self.wl.files), setup_s))
        by_key: dict = {}
        terms: dict = {}
        for cmd in self.wl.commands:
            t = min(self.samples[cmd.case])
            by_key[cmd.key] = by_key.get(cmd.key, 0.0) + t
            terms[cmd.key] = terms.get(cmd.key, 0) + cmd.terms
            self.records.append(self.record(cmd.case, "cli", cmd.terms or None, t, cmd.terms))
        lat = sorted(self.query_best)
        q = statistics.quantiles(lat, n=100, method="inclusive")
        self.records.append(self.record("query", "sequences", len(lat), statistics.median(lat)))
        metrics = {
            "setup_s": (setup_s, "s"),
            "seq_terms_per_s": (terms["seq"] / by_key["seq"], "1/s"),
            "subst_terms_per_s": (terms["subst"] / by_key["subst"], "1/s"),
            "complexity_s": (by_key["complexity"], "s"),
            "growth_check_s": (by_key["growth"], "s"),
            "query_p50_us": (statistics.median(lat) * 1e6, "us"),
            "query_p99_us": (q[98] * 1e6, "us"),
            "minimize_s": (by_key["minimize"], "s"),
            "reduce_s": (by_key["reduce"], "s"),
            "fiber_s": (by_key["fiber"], "s"),
            "rebuild_s": (by_key["rebuild"], "s"),
            "kernel_s": (by_key["kernel"], "s"),
            "relearn_s": (by_key["relearn"], "s"),
            "peak_rss_mib": (peak_rss_kib() / 1024, "MiB"),
            "ops_ok_ratio": ((self.attempted - self.failed) / self.attempted, "ratio"),
        }
        self.passes = len(passes)
        return metrics

    def per_layer(self) -> dict:
        import layers

        self.timed_setup()
        start = perf_counter()
        self.warm_pass()
        metrics, records = layers.direct(self.wl, self.parsed, self.built)
        self.records.extend(self.record(*r) for r in records)
        traced, records = layers.traced(self, deadline=start + self.seconds)
        metrics.update(traced)
        self.records.extend(self.record(*r) for r in records)
        return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    if result is None:
        return 2
    for line in result["records"]:
        print(json.dumps(line))
    print(json.dumps(result["result"]))
    return 0


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False):
    """Run one workload; returns {"records": [...], "result": {...}} or None."""
    if not os.path.isdir(os.path.join(ROOT, "src", "ans")):
        print(f"error: no program to measure: {os.path.join(ROOT, 'src', 'ans')} is missing",
              file=sys.stderr)
        return None
    if os.path.join(ROOT, "src") not in sys.path:
        sys.path.insert(0, os.path.join(ROOT, "src"))
    from workloads import Workload

    workdir = os.path.join(HERE, ".work", f"{workload}-{seed}-{os.getpid()}")
    try:
        wl = Workload(workload, seed, workdir, tiny=tiny)
        wl.write_inputs()
        bench = Bench(wl, seconds)
        raw = bench.per_layer() if trace else bench.end_to_end()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env = {
        "python": platform.python_version(), "git_rev": git_rev(), "nproc": len(os.sched_getaffinity(0)),
        "workload": workload, "seed": seed, "trace": int(trace), "passes": bench.passes,
        "sizes": wl.size,
    }
    records = [dict(r, **env) for r in bench.records]
    return {
        "records": records,
        "result": {
            "correct": bench.failed == 0,
            "attempted": bench.attempted,
            "failed": bench.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in raw.items()},
        },
    }


if __name__ == "__main__":
    sys.exit(main())
