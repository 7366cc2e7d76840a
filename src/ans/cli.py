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
import functools
import os
import sys
from json.encoder import encode_basestring

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
    subsequences,
    take,
)
from .substitutions import canonical_substitution, fixed_point, system_from_morphism


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise AnsError(f"cannot read {path}: {e.strerror or e}") from e
    except UnicodeDecodeError as e:
        raise AnsError(f"cannot read {path}: byte {e.object[e.start]:#04x} at offset {e.start} is not UTF-8") from e


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


def _json(x, pad: str = "\n") -> str:
    """``json.dumps(x, indent=2, ensure_ascii=False)``, byte for byte.  An indented dump runs json's
    pure-Python encoder, so the layout is written here and each leaf at C speed.  `pad` is the
    newline and indent of x's line; a key that is not a str raises TypeError."""
    if isinstance(x, str):
        return encode_basestring(x)
    if x is None or x is True or x is False:
        return "null" if x is None else "true" if x else "false"
    if isinstance(x, (int, float)):  # json writes a float that is not finite as NaN, Infinity or -Infinity
        r = int.__repr__(x) if isinstance(x, int) else float.__repr__(x)
        return {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}.get(r, r)
    inner = pad + "  "
    if isinstance(x, (list, tuple)):
        return "[" + inner + ("," + inner).join([_json(v, inner) for v in x]) + pad + "]" if x else "[]"
    if isinstance(x, dict):  # encode_basestring raises the TypeError
        items = [encode_basestring(k) + ": " + _json(v, inner) for k, v in x.items()]
        return "{" + inner + ("," + inner).join(items) + pad + "}" if x else "{}"
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def _render_terms(terms) -> str:
    return ff.render_word(terms) if terms else ""


def _styled(word: str, good: bool) -> str:
    if sys.stdout.isatty() and os.environ.get("ANS_COLOR") != "0":
        code = "32" if good else "31"
        return f"\x1b[{code}m{word}\x1b[0m"
    return word


def _verdict(ok: bool) -> str:
    return _styled("pass" if ok else "fail", ok)


def _at_least(text: str, least: int, what: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if n < least:
        raise argparse.ArgumentTypeError(f"must be {what}")
    return n


def _nonneg(text: str) -> int:
    return _at_least(text, 0, "nonnegative")


def _positive(text: str) -> int:
    return _at_least(text, 1, "positive")


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
        print(_json({"start": args.start, "words": [ff.render_word(w) for w in words]}))
    else:
        for w in words:
            print(ff.render_word(w))


def cmd_seq(args):
    u = _load_sequence(args)
    terms = u.prefix(args.count)
    if args.json:
        print(_json({"count": args.count, "terms": [str(t) for t in terms]}))
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
    terms = subsequences(u, classes, args.terms)
    if args.json:
        print(_json({"classes": [{"id": k.class_id, "representative": ff.render_word(k.representative_prefix),
                                  "empty": k.empty, "terms": [str(t) for t in ts]} for k, ts in zip(classes, terms)]}))
        return
    print(f"classes: {len(classes)}")
    for k, ts in zip(classes, terms):
        rep = ff.render_word(k.representative_prefix)
        body = "(empty)" if k.empty else _render_terms(ts)
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
        print(_json(
            {
                "factor": ff.render_word(factor),
                "horizon": args.count,
                "positions": list(report.positions),
                "gaps": list(report.gaps),
            }
        ))
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
    if args.symbols is not None:
        symbols = args.symbols.split() if any(c.isspace() for c in args.symbols) else list(args.symbols)
        for s in symbols:  # symbols the file parser would refuse to read back
            if not ff._declarable(s):
                raise AnsError(f"--symbols: {s!r} is reserved, holds the comment mark '#' or is not UTF-8 text")
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
        print(_json(profile.to_dict()))
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
        print(_json(report.to_dict()))
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
        print(_json(obj))
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
# One row per subcommand, in `ans --help` order: name, handler, help, and the
# (flags, add_argument keywords) of each argument in usage order.


def _arg(*flags: str, **kw) -> tuple:
    return flags, kw


SYSTEM = _arg("-s", "--system", required=True, metavar="DFA", help="numeration language file")
MACHINE = _arg("-m", "--machine", required=True, metavar="DFAO", help="output machine file")
OUTPUT = _arg("-o", "--output", metavar="PATH", help="write to a file instead of stdout")
JSON = _arg("--json", action="store_true")
MORPHISM = _arg("morphism", help="morphism file with an axiom line")

COMMANDS = (
    ("rep", cmd_rep, "representation word of one or more ranks",
     [SYSTEM, _arg("rank", nargs="+", type=_nonneg)]),
    ("val", cmd_val, "rank of a representation word",
     [SYSTEM, _arg("word", help="word over the alphabet, or @eps")]),
    ("enum", cmd_enum, "list accepted words in shortlex order",
     [SYSTEM, _arg("--count", type=_nonneg, required=True), _arg("--start", type=_nonneg, default=0), JSON]),
    ("seq", cmd_seq, "terms of the machine sequence",
     [SYSTEM, MACHINE, _arg("--count", type=_nonneg, required=True), JSON]),
    ("fiber", cmd_fiber, "DFA of representations sharing one output",
     [SYSTEM, MACHINE, _arg("--symbol", required=True), OUTPUT]),
    ("fibers-to-dfao", cmd_fibers_to_dfao, "rebuild a machine from per-symbol DFAs",
     [SYSTEM, _arg("--fiber", action="append", required=True, metavar="SYMBOL=PATH"), OUTPUT]),
    ("kernel", cmd_kernel, "distinct suffix subsequences of the sequence",
     [SYSTEM, MACHINE, _arg("--terms", type=_nonneg, default=20, help="terms shown per class"), JSON]),
    ("kernel-to-dfao", cmd_kernel_to_dfao, "relearn a machine from the sequence terms",
     [SYSTEM, MACHINE, _arg(
         "--bound", type=_positive, required=True,
         help="most prefix classes, and continuations compared per prefix; costs at most (classes*|alphabet| + 1)*bound"
         " + bound term calls (one per distinct rank compared, then bound to verify), one listing per language"
         " state and one rank offset per prefix and continuation length",
     ), OUTPUT]),
    ("gaps", cmd_gaps, "occurrence positions and gaps of an output factor",
     [SYSTEM, MACHINE, _arg("--factor", required=True),
      _arg("--count", type=_positive, required=True, help="terms scanned"), JSON]),
    ("subst", cmd_subst, "substitution + coding generating the sequence",
     [SYSTEM, MACHINE, _arg("--count", type=_nonneg, default=0, help="also print this many generated terms"), OUTPUT]),
    ("from-morphism", cmd_from_morphism, "numeration system induced by a morphism",
     [MORPHISM, _arg("--symbols", help="input symbols (glued characters or space-separated)"),
      _arg("--machine-out", metavar="PATH", help="also write the output machine"), OUTPUT]),
    ("fixpoint", cmd_fixpoint, "prefix of the fixed point of a morphism",
     [MORPHISM, _arg("--count", type=_nonneg, required=True)]),
    ("complexity", cmd_complexity, "distinct-block counts of a sequence prefix",
     [SYSTEM, MACHINE, _arg(
         "--prefix", type=_positive, required=True,
         help="terms profiled; builds one suffix automaton over them, so time and memory grow linearly in PREFIX",
     ), _arg("--nmax", type=_positive, required=True), JSON]),
    ("witness-quadratic", cmd_witness_quadratic, "quadratic-growth evidence for the witness morphism",
     [_arg("--prefix", type=_positive, default=100_000), JSON]),
    ("binomial-word", cmd_binomial_word, "the three-ones listing word and its one-set",
     [_arg("--count", type=_positive, required=True),
      _arg("--check", action="store_true", help="also run the super-quadratic growth check"), JSON]),
    ("equiv", cmd_equiv, "compare two DFA languages", [_arg("first"), _arg("second")]),
    ("minimize", cmd_minimize, "canonical minimal DFA", [_arg("input"), OUTPUT]),
    ("reduce", cmd_reduce, "canonical reduced output machine", [_arg("input"), OUTPUT]),
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ans",
        description="Numeration on regular languages: representations, machine "
        "sequences, fibers, kernels, substitutions, and block-complexity checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, handler, text, arguments in COMMANDS:
        p = sub.add_parser(name, help=text)
        for flags, kw in arguments:
            p.add_argument(*flags, **kw)
        p.set_defaults(func=handler)
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
