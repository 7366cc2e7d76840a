"""Seeded fuzz of the CLI: bad input exits 2 with a message, never 1 with a traceback.

The inputs are the files of ``golden_cli.json``.  Each call runs ``ans.cli.main``
in-process on one file-reading subcommand after one mutation: a line of one of
its files deleted or duplicated, two lines or two tokens swapped, a token replaced (by a
name, ``⊥``, ``#``, a number or nothing), a byte flipped (invalid UTF-8
included), or a numeric argument made negative, fractional or not a number, or a
rank (``rep``'s or ``enum --start``) made 10^40, which the length limit on rank
fills answers or refuses at once.  Every call must exit 0 or 2, with no traceback
and no exception class name on stderr.
Each machine that ``fiber`` accepts after a mutation is also rebuilt from its
fibers by ``fibers-to-dfao``, and the rebuilt machine must stream its terms.
"""

import builtins
import contextlib
import io
import json
import random
import re
import shlex
from pathlib import Path

import pytest

from ans import cli, errors
from ans import fileformat as ff

INPUTS = json.loads(Path(__file__).with_name("golden_cli.json").read_text(encoding="utf-8"))["inputs"]

# one call per file-reading subcommand, "<tmp>/" marking its files: the golden inputs, and outputs
CALLS = (
    "rep -s <tmp>/ab.dfa 0 4 9 100 999",
    "val -s <tmp>/fib.dfa 1010",
    "enum -s <tmp>/sq.dfa --count 12 --start 40",
    "seq -s <tmp>/ab.dfa -m <tmp>/teach.dfao --count 60",
    "fiber -s <tmp>/ab.dfa -m <tmp>/partial.dfao --symbol 1 -o <tmp>/out.dfa",
    "fibers-to-dfao -s <tmp>/bin.dfa --fiber 0=<tmp>/tm0.dfa --fiber 1=<tmp>/tm1.dfa",
    "kernel -s <tmp>/bin.dfa -m <tmp>/tm.dfao --terms 6",
    "kernel-to-dfao -s <tmp>/ab.dfa -m <tmp>/teach.dfao --bound 12",
    "gaps -s <tmp>/fib.dfa -m <tmp>/tm.dfao --factor 01 --count 100",
    "subst -s <tmp>/sq.dfa -m <tmp>/sqchi.dfao --count 30 -o <tmp>/out.sub",
    "from-morphism <tmp>/w.mor -o <tmp>/out.dfa --machine-out <tmp>/out.dfao",
    "fixpoint <tmp>/r.mor --count 40",
    "complexity -s <tmp>/bin.dfa -m <tmp>/tm.dfao --prefix 300 --nmax 6",
    "equiv <tmp>/ab.dfa <tmp>/all.dfa",
    "minimize <tmp>/fib.dfa",
    "reduce <tmp>/teach.dfao -o <tmp>/out.dfao",
)
TRIALS = 10  # mutated calls per subcommand and operator


def lines_of(rng, data: bytes) -> tuple[list, int]:
    lines = data.splitlines(keepends=True)
    return lines, rng.randrange(len(lines))


def delete_line(rng, data):
    lines, i = lines_of(rng, data)
    del lines[i]
    return b"".join(lines)


def duplicate_line(rng, data):
    lines, i = lines_of(rng, data)
    lines.insert(i, lines[i])
    return b"".join(lines)


def swap(rng, data):
    # every file format takes its lines in any order, so two tokens trade places as often as two lines
    if rng.randrange(2):
        parts = data.splitlines(keepends=True)
        i, j = rng.randrange(len(parts)), rng.randrange(len(parts))
    else:
        parts = re.split(rb"(\s+)", data)  # the tokens at even places, the blanks between them at odd
        i, j = (2 * rng.randrange((len(parts) + 1) // 2) for _ in "ij")
    parts[i], parts[j] = parts[j], parts[i]
    return b"".join(parts)


def replace_token(rng, data):
    text = data.decode("utf-8")
    token = rng.choice(list(re.finditer(r"\S+", text)))
    return (text[: token.start()] + rng.choice(["zz", "⊥", "#", "7", ""]) + text[token.end() :]).encode("utf-8")


def flip_byte(rng, data):
    i = rng.randrange(len(data))
    return data[:i] + bytes([rng.choice([0xFF, 0x80, 0xC3, data[i] ^ 1 << rng.randrange(8)])]) + data[i + 1 :]


FILE_OPERATORS = (delete_line, duplicate_line, swap, replace_token, flip_byte)
BAD_NUMBERS = ("-1", "1.5", "x", "", "1e3")
BIG_RANK = str(10**40)  # past the words of MAX_LENGTH letters over a*b* and the squares: rep and enum refuse it

# exit status 1 prints "internal error: <class>"; a leaked traceback or class name is a failure
LEAKS = re.compile(
    r"Traceback|internal error|\b(?:%s)\b"
    % "|".join(
        name
        for module in (builtins, errors)
        for name, value in vars(module).items()
        if isinstance(value, type) and issubclass(value, BaseException)
    )
)


def run(d: Path, argv: list) -> tuple:
    """One in-process CLI call: its exit status, stdout, stderr and the names of the files it wrote
    into d, which are removed again."""
    before = set(d.iterdir())
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:  # argparse refuses an argument with exit status 2
            code = e.code
    written = set(d.iterdir()) - before
    for p in written:
        p.unlink()
    return code, out.getvalue(), err.getvalue(), sorted(p.name for p in written)


def argv_of(call: str, d: Path, mutated: str | None = None) -> list:
    """The argv of `call`, its file `mutated` read from d's mutated/ directory."""
    if mutated:
        call = call.replace(f"<tmp>/{mutated}", f"<tmp>/mutated/{mutated}")
    return [a.replace("<tmp>", str(d)) for a in shlex.split(call)]


def rebuilt_from_fibers(d: Path, call: str, machine: str):
    """`seq` of the mutated `machine` of a `fiber` call, and of its rebuild from the fiber of each output."""
    system = shlex.split(call)[2].replace("<tmp>/", "")
    path = d / "mutated" / machine
    symbols = dict.fromkeys([*ff.parse_dfao(path.read_text(encoding="utf-8")).output_alphabet, "⊥"])
    argv = ["fibers-to-dfao", "-s", str(d / system), "-o", str(d / "mutated" / "rebuilt.dfao")]
    for i, symbol in enumerate(symbols):
        fiber = d / "mutated" / f"fiber{i}.dfa"
        got = run(d, ["fiber", "-s", str(d / system), "-m", str(path), "--symbol", symbol, "-o", str(fiber)])
        assert got[0] == 0, got
        argv += ["--fiber", f"{symbol}={fiber}"]
    assert run(d, argv)[0] == 0
    seq = ["seq", "-s", str(d / system), "--count", "60", "-m"]
    return run(d, seq + [str(path)]), run(d, seq + [str(d / "mutated" / "rebuilt.dfao")])


@pytest.fixture
def inputs(tmp_path):
    """A directory holding the golden inputs, and an empty mutated/ directory."""
    for name, text in INPUTS.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    (tmp_path / "mutated").mkdir()
    return tmp_path


@pytest.mark.parametrize("call", CALLS, ids=[call.split()[0] for call in CALLS])
def test_a_file_that_is_not_utf8_exits_2_naming_the_file(inputs, call):
    name = next(n for n in re.findall(r"<tmp>/([\w.]+)", call) if n in INPUTS)  # the first file read
    data, path = INPUTS[name].encode("utf-8"), inputs / "mutated" / name
    path.write_bytes(data.replace(b"\n", b"\xff\n", 1))  # the byte 0xff ends the first line
    code, out, err, written = run(inputs, argv_of(call, inputs, name))
    assert (code, out, written) == (2, "", [])
    assert err == f"error: cannot read {path}: byte 0xff at offset {data.index(10)} is not UTF-8\n"


def test_bad_input_exits_2_with_a_message(inputs):
    rng = random.Random(17)
    bad, exits, rebuilds = [], {}, 0

    def check(label, argv):
        code, _out, err, _written = run(inputs, argv)
        exits.setdefault(label, set()).add(code)
        if code not in (0, 2) or LEAKS.search(err):
            bad.append((label, argv, code, err))
        return code

    for call in CALLS:
        check("unmutated", argv_of(call, inputs))
        names = [n for n in re.findall(r"<tmp>/([\w.]+)", call) if n in INPUTS]
        for op in FILE_OPERATORS:
            for _ in range(TRIALS):
                name = rng.choice(names)
                (inputs / "mutated" / name).write_bytes(op(rng, INPUTS[name].encode("utf-8")))
                code = check(op.__name__, argv_of(call, inputs, name))
                if call.startswith("fiber ") and name.endswith(".dfao") and code == 0:
                    want, got = rebuilt_from_fibers(inputs, call, name)
                    assert want[0] == 0 and got == want, (want, got)
                    rebuilds += 1
        words = shlex.split(call)
        numbers = [i for i, a in enumerate(words) if a.isdigit()]
        ranks = [i for i in numbers if words[0] == "rep" or words[i - 1] == "--start"]
        for _ in range(TRIALS if numbers else 0):
            argv = argv_of(call, inputs)
            argv[rng.choice(numbers)] = rng.choice(BAD_NUMBERS)
            check("bad_number", argv)
        for _ in range(2 if ranks else 0):
            argv = argv_of(call, inputs)
            argv[rng.choice(ranks)] = BIG_RANK
            check("big_rank", argv)
    assert not bad, bad[:3]
    # the fuzz stays live: every operator is refused somewhere, and the unmutated calls succeed
    assert exits.pop("unmutated") == {0}
    assert {label: 2 in codes for label, codes in exits.items()} == dict.fromkeys(
        [op.__name__ for op in FILE_OPERATORS] + ["bad_number", "big_rank"], True
    )
    assert rebuilds
