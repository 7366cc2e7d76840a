"""Command-line front end.

One subcommand per library operation, file-based machine exchange, and
line-oriented deterministic output (JSON with ``--json`` where a schema is
documented).  Exit status: 0 on success, 1 on internal errors, 2 on domain
errors such as words outside the language, non-partitioning fibers, an
exceeded learning bound, or an output file that cannot be written.  The
empty word is spelled ``@eps`` everywhere.  Set ``ANS_COLOR=0`` to disable
the pass/fail coloring on terminals.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import fileformat as ff
from .automata import Dfa, Dfao, OrderedAlphabet, distinguishing_word, minimize, reduce_dfao
from .complexity import (
    GROWTH_CLASSES,
    WITNESS_N_MAX,
    binomial_word,
    factor_count,
    quadratic_witness_check,
    super_quadratic_check,
)
from .errors import AnsError
from .numeration import NumerationSystem
from .sequences import (
    AutomaticSequence,
    dfao_from_fibers,
    dfao_from_kernel,
    fiber,
    kernel,
    occurrence_gaps,
    subsequence,
    take,
)
from .substitutions import canonical_substitution, fixed_point, system_from_morphism


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise AnsError(f"cannot read {path}: {e.strerror or e}") from e


def _load_dfa(path: str) -> Dfa:
    return ff.parse_dfa(_read(path), path)


def _load_dfao(path: str) -> Dfao:
    return ff.parse_dfao(_read(path), path)


def _load_system(path: str) -> NumerationSystem:
    return NumerationSystem(_load_dfa(path))


def _load_sequence(args) -> AutomaticSequence:
    return AutomaticSequence(_load_system(args.system), _load_dfao(args.machine))


def _word_arg(text: str, alphabet: OrderedAlphabet):
    try:
        return ff.parse_word(text, alphabet)
    except ValueError as e:
        raise AnsError(str(e)) from e


def _emit(path: str | None, text: str, mode: str = "w"):
    """Write `text` to the file at `path`, or to stdout when no path is given."""
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, mode, encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise AnsError(f"cannot write {path}: {e.strerror or e}") from e


def _check_writable(*paths: str | None):
    """Fail as `_emit` would, before any output is written, if a path cannot
    be opened; a file created only to find that out is removed again."""
    for path in filter(None, paths):
        new = not os.path.exists(path)
        _emit(path, "", "a")  # opening to append nothing leaves a file as it was
        if new:
            os.remove(path)


def _emit_json(obj):
    print(json.dumps(obj, indent=2, ensure_ascii=False))


def _render_terms(terms) -> str:
    return ff.render_word(terms) if terms else ""


def _styled(word: str, good: bool) -> str:
    if sys.stdout.isatty() and os.environ.get("ANS_COLOR") != "0":
        code = "32" if good else "31"
        return f"\x1b[{code}m{word}\x1b[0m"
    return word


def _verdict(ok: bool) -> str:
    return _styled("pass" if ok else "fail", ok)


def _nonneg(text: str) -> int:
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError("must be nonnegative")
    return n


def _positive(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError("must be positive")
    return n


# -- subcommands ------------------------------------------------------------


def cmd_rep(args):
    system = _load_system(args.system)
    for n in args.rank:
        print(ff.render_word(system.rep(n)))


def cmd_val(args):
    system = _load_system(args.system)
    word = _word_arg(args.word, system.alphabet)
    print(system.val(word))


def cmd_enum(args):
    system = _load_system(args.system)
    words = take(system.enumerate(args.start), args.count)
    if args.json:
        _emit_json({"start": args.start, "words": [ff.render_word(w) for w in words]})
    else:
        for w in words:
            print(ff.render_word(w))


def cmd_seq(args):
    u = _load_sequence(args)
    terms = u.prefix(args.count)
    if args.json:
        _emit_json({"count": args.count, "terms": [str(t) for t in terms]})
    else:
        print(_render_terms(terms))


def cmd_fiber(args):
    u = _load_sequence(args)
    _emit(args.output, ff.format_dfa(fiber(u, args.symbol)))


def cmd_fibers_to_dfao(args):
    system = _load_system(args.system)
    fibers = {}
    for spec in args.fiber:
        if "=" not in spec:
            raise AnsError(f"--fiber needs SYMBOL=PATH, got {spec!r}")
        sym, path = spec.split("=", 1)
        if sym in fibers:
            raise AnsError(f"--fiber repeats symbol {sym!r}")
        fibers[sym] = _load_dfa(path)
    _emit(args.output, ff.format_dfao(dfao_from_fibers(system, fibers)))


def cmd_kernel(args):
    u = _load_sequence(args)
    classes = kernel(u)
    if args.json:
        _emit_json(
            {
                "classes": [
                    {
                        "id": k.class_id,
                        "representative": ff.render_word(k.representative_prefix),
                        "empty": k.empty,
                        "terms": [str(t) for t in take(subsequence(u, k), args.terms)],
                    }
                    for k in classes
                ]
            }
        )
        return
    print(f"classes: {len(classes)}")
    for k in classes:
        rep = ff.render_word(k.representative_prefix)
        body = "(empty)" if k.empty else _render_terms(take(subsequence(u, k), args.terms))
        print(f"{k.class_id} {rep} {body}".rstrip())


def cmd_kernel_to_dfao(args):
    u = _load_sequence(args)
    _emit(args.output, ff.format_dfao(dfao_from_kernel(u.term, u.system, args.bound)))


def cmd_gaps(args):
    u = _load_sequence(args)
    factor = _word_arg(args.factor, OrderedAlphabet(u.output_alphabet))
    if not 0 < len(factor) <= args.count:
        raise AnsError(f"--factor needs 1 to --count {args.count} symbols, got {len(factor)}")
    report = occurrence_gaps(u.stream(), factor, args.count)
    if args.json:
        _emit_json(
            {
                "factor": ff.render_word(factor),
                "horizon": args.count,
                "positions": list(report.positions),
                "gaps": list(report.gaps),
            }
        )
        return
    print(f"occurrences: {len(report.positions)}")
    print("positions: " + " ".join(map(str, report.positions)))
    print("gaps: " + " ".join(map(str, report.gaps)))


def cmd_subst(args):
    sub = canonical_substitution(_load_dfa(args.system), _load_dfao(args.machine))
    _emit(args.output, ff.format_substitution(sub))
    if args.count:
        print(_render_terms(take(sub.generate(), args.count)))


def cmd_from_morphism(args):
    phi, axiom = ff.parse_morphism(_read(args.morphism), args.morphism)
    symbols = None
    if args.symbols:
        symbols = args.symbols.split() if any(c.isspace() for c in args.symbols) else list(args.symbols)
        for s in symbols:  # symbols the file parser would refuse to read back
            if not ff._declarable(s):
                raise AnsError(f"--symbols: {s!r} is reserved or holds the comment mark '#'")
    try:
        system, machine = system_from_morphism(phi, axiom, symbols)
    except ValueError as e:  # a wrong count or a repeated symbol
        raise AnsError(f"--symbols: {e}") from e
    _check_writable(args.output, args.machine_out)
    _emit(args.output, ff.format_dfa(system.language))
    if args.machine_out:
        _emit(args.machine_out, ff.format_dfao(machine))


def cmd_fixpoint(args):
    phi, axiom = ff.parse_morphism(_read(args.morphism), args.morphism)
    print(_render_terms(take(fixed_point(phi, axiom), args.count)))


def cmd_complexity(args):
    if args.nmax > args.prefix:
        raise AnsError(f"--nmax {args.nmax} exceeds --prefix {args.prefix}")
    u = _load_sequence(args)
    profile = factor_count(u.stream(), args.prefix, args.nmax)
    if args.json:
        _emit_json(profile.to_dict())
        return
    print(f"prefix: {profile.prefix_length}")
    print(f"exactness horizon: {profile.exactness_horizon}")
    for n, p in enumerate(profile.values, start=1):
        print(f"{n} {p}")


def cmd_witness_quadratic(args):
    if args.prefix < WITNESS_N_MAX:
        raise AnsError(f"--prefix {args.prefix} is below {WITNESS_N_MAX}, the longest block length profiled")
    report = quadratic_witness_check(args.prefix)
    if args.json:
        _emit_json(report.to_dict())
        return
    print(f"prefix: {report.prefix_length}")
    print(f"embedding: {_verdict(report.embedding_ok)}")
    print(
        f"runs: {_verdict(report.runs_ok)} "
        f"(longest run {report.longest_run} of letter {report.run_letter}, "
        f"bound {report.run_bound})"
    )
    print(
        f"exponent: {report.exponent:.3f} "
        f"(threshold {report.exponent_threshold}): {_verdict(report.exponent_ok)}"
    )
    print(f"passed: {_verdict(report.passed)}")
    print("reference growth classes: " + ", ".join(GROWTH_CLASSES))


def cmd_binomial_word(args):
    bw = binomial_word(args.count)
    check = super_quadratic_check(args.count, bw.bits) if args.check else None
    if args.json:
        obj = bw.to_dict()
        if check is not None:
            obj["check"] = check.to_dict()
        _emit_json(obj)
        return
    print("".join(map(str, bw.bits)))
    print("elements: " + " ".join(map(str, bw.elements)))
    if check is not None:
        print("grid: " + " ".join(map(str, check.grid)))
        print("ratios: " + " ".join(f"{r:.4f}" for r in check.ratios))
        factor = check.growth_factor
        print(f"growth factor: {factor:.2f} (threshold {check.threshold})")
        print(f"verdict: {check.verdict}")


def cmd_equiv(args):
    word = distinguishing_word(_load_dfa(args.first), _load_dfa(args.second))
    if word is None:
        print("equivalent")
    else:
        print(f"distinguished by: {ff.render_word(word)}")


def cmd_minimize(args):
    _emit(args.output, ff.format_dfa(minimize(_load_dfa(args.input))))


def cmd_reduce(args):
    _emit(args.output, ff.format_dfao(reduce_dfao(_load_dfao(args.input))))


# -- parser -----------------------------------------------------------------


def _add_system(p, machine: bool = False):
    p.add_argument("-s", "--system", required=True, metavar="DFA", help="numeration language file")
    if machine:
        p.add_argument("-m", "--machine", required=True, metavar="DFAO", help="output machine file")


def _add_output(p):
    p.add_argument("-o", "--output", metavar="PATH", help="write to a file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ans",
        description="Numeration on regular languages: representations, machine "
        "sequences, fibers, kernels, substitutions, and block-complexity checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("rep", help="representation word of one or more ranks")
    _add_system(p)
    p.add_argument("rank", nargs="+", type=_nonneg)
    p.set_defaults(func=cmd_rep)

    p = sub.add_parser("val", help="rank of a representation word")
    _add_system(p)
    p.add_argument("word", help="word over the alphabet, or @eps")
    p.set_defaults(func=cmd_val)

    p = sub.add_parser("enum", help="list accepted words in shortlex order")
    _add_system(p)
    p.add_argument("--count", type=_nonneg, required=True)
    p.add_argument("--start", type=_nonneg, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_enum)

    p = sub.add_parser("seq", help="terms of the machine sequence")
    _add_system(p, machine=True)
    p.add_argument("--count", type=_nonneg, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_seq)

    p = sub.add_parser("fiber", help="DFA of representations sharing one output")
    _add_system(p, machine=True)
    p.add_argument("--symbol", required=True)
    _add_output(p)
    p.set_defaults(func=cmd_fiber)

    p = sub.add_parser("fibers-to-dfao", help="rebuild a machine from per-symbol DFAs")
    _add_system(p)
    p.add_argument("--fiber", action="append", required=True, metavar="SYMBOL=PATH")
    _add_output(p)
    p.set_defaults(func=cmd_fibers_to_dfao)

    p = sub.add_parser("kernel", help="distinct suffix subsequences of the sequence")
    _add_system(p, machine=True)
    p.add_argument("--terms", type=_nonneg, default=20, help="terms shown per class")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("kernel-to-dfao", help="relearn a machine from the sequence terms")
    _add_system(p, machine=True)
    p.add_argument(
        "--bound", type=_positive, required=True,
        help="most prefix classes, and continuations compared per prefix; costs about (classes*|alphabet| + 1)*bound"
        " + bound term calls, one listing per language state and one rank offset per prefix and continuation length",
    )
    _add_output(p)
    p.set_defaults(func=cmd_kernel_to_dfao)

    p = sub.add_parser("gaps", help="occurrence positions and gaps of an output factor")
    _add_system(p, machine=True)
    p.add_argument("--factor", required=True)
    p.add_argument("--count", type=_positive, required=True, help="terms scanned")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_gaps)

    p = sub.add_parser("subst", help="substitution + coding generating the sequence")
    _add_system(p, machine=True)
    p.add_argument("--count", type=_nonneg, default=0, help="also print this many generated terms")
    _add_output(p)
    p.set_defaults(func=cmd_subst)

    p = sub.add_parser("from-morphism", help="numeration system induced by a morphism")
    p.add_argument("morphism", help="morphism file with an axiom line")
    p.add_argument("--symbols", help="input symbols (glued characters or space-separated)")
    p.add_argument("--machine-out", metavar="PATH", help="also write the output machine")
    _add_output(p)
    p.set_defaults(func=cmd_from_morphism)

    p = sub.add_parser("fixpoint", help="prefix of the fixed point of a morphism")
    p.add_argument("morphism", help="morphism file with an axiom line")
    p.add_argument("--count", type=_nonneg, required=True)
    p.set_defaults(func=cmd_fixpoint)

    p = sub.add_parser("complexity", help="distinct-block counts of a sequence prefix")
    _add_system(p, machine=True)
    p.add_argument(
        "--prefix", type=_positive, required=True,
        help="terms profiled; builds one suffix automaton over them, so time and memory grow linearly in PREFIX",
    )
    p.add_argument("--nmax", type=_positive, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_complexity)

    p = sub.add_parser("witness-quadratic", help="quadratic-growth evidence for the witness morphism")
    p.add_argument("--prefix", type=_positive, default=100_000)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_witness_quadratic)

    p = sub.add_parser("binomial-word", help="the three-ones listing word and its one-set")
    p.add_argument("--count", type=_positive, required=True)
    p.add_argument("--check", action="store_true", help="also run the super-quadratic growth check")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_binomial_word)

    p = sub.add_parser("equiv", help="compare two DFA languages")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("minimize", help="canonical minimal DFA")
    p.add_argument("input")
    _add_output(p)
    p.set_defaults(func=cmd_minimize)

    p = sub.add_parser("reduce", help="canonical reduced output machine")
    p.add_argument("input")
    _add_output(p)
    p.set_defaults(func=cmd_reduce)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
        return 0
    except AnsError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        try:
            sys.stdout.close()
        except OSError:  # pragma: no cover
            pass
        return 0
    except Exception as e:  # noqa: BLE001 - the CLI boundary reports and exits
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
