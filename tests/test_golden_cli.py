"""Golden CLI runs: stdout, stderr, exit code and written files, frozen.

Each run starts from the same input files, written from the conftest
machines into a fresh directory; that directory's path reads ``<tmp>`` in
the recorded text.  The records in ``golden_cli.json`` pin the CLI's output
byte for byte, so a change that should not alter behaviour is checked by
running this file.  After a deliberate output change, re-record with::

    PYTHONPATH=src python3 tests/test_golden_cli.py
"""

import contextlib
import io
import json
import shlex
import sys
import tempfile
from pathlib import Path

import pytest

from ans import AutomaticSequence, Dfao, NumerationSystem, fiber
from ans import cli
from ans import fileformat as ff
from conftest import (
    AB,
    ab_star_dfa,
    binary_like_dfa,
    fibonacci_dfa,
    remark_morphism,
    sigma_star_dfa,
    squares_chi_dfao,
    squares_dfa,
    teaching_dfao,
    thue_morse_dfao,
    witness_morphism,
)

GOLDEN = Path(__file__).with_name("golden_cli.json")


def partial_dfao() -> Dfao:
    """Parity of a's, with no move on b after an odd number of a's."""
    trans = {("x", "a"): "y", ("y", "a"): "x", ("x", "b"): "x"}
    return Dfao(AB, ("x", "y"), "x", trans, {"x": "0", "y": "1"}, ("0", "1"))


def write_inputs(d: Path) -> dict:
    """The input files every run reads, by name, as written."""
    tm = AutomaticSequence(NumerationSystem(binary_like_dfa()), thue_morse_dfao())
    texts = {
        "ab.dfa": ff.format_dfa(ab_star_dfa()),
        "teach.dfao": ff.format_dfao(teaching_dfao()),
        "partial.dfao": ff.format_dfao(partial_dfao()),
        "bin.dfa": ff.format_dfa(binary_like_dfa()),
        "tm.dfao": ff.format_dfao(thue_morse_dfao()),
        "tm0.dfa": ff.format_dfa(fiber(tm, "0")),
        "tm1.dfa": ff.format_dfa(fiber(tm, "1")),
        "fib.dfa": ff.format_dfa(fibonacci_dfa()),
        "sq.dfa": ff.format_dfa(squares_dfa()),
        "sqchi.dfao": ff.format_dfao(squares_chi_dfao()),
        "all.dfa": ff.format_dfa(sigma_star_dfa()),
        "w.mor": ff.format_morphism(witness_morphism(), 0),
        "r.mor": ff.format_morphism(remark_morphism(), 0),
    }
    for name, text in texts.items():
        (d / name).write_text(text, encoding="utf-8")
    return texts


# run id -> argv, with "<tmp>" standing for the input directory
RUNS = {
    "rep": "rep -s <tmp>/ab.dfa 0 4 9 100 12345",
    "rep-fibonacci": "rep -s <tmp>/fib.dfa 0 1 7 20 1000",
    "val": "val -s <tmp>/ab.dfa aabbb",
    "val-outside": "val -s <tmp>/ab.dfa abba",
    "val-missing-file": "val -s <tmp>/nope.dfa a",
    "enum": "enum -s <tmp>/ab.dfa --count 12",
    "enum-start-json": "enum -s <tmp>/ab.dfa --count 5 --start 40 --json",
    "enum-squares": "enum -s <tmp>/sq.dfa --count 10 --start 3",
    "seq-teaching": "seq -s <tmp>/ab.dfa -m <tmp>/teach.dfao --count 60",
    "seq-teaching-json": "seq -s <tmp>/ab.dfa -m <tmp>/teach.dfao --count 10 --json",
    "seq-partial": "seq -s <tmp>/ab.dfa -m <tmp>/partial.dfao --count 40",
    "seq-thue-morse": "seq -s <tmp>/bin.dfa -m <tmp>/tm.dfao --count 64",
    "seq-fibonacci-parity": "seq -s <tmp>/fib.dfa -m <tmp>/tm.dfao --count 40",
    "seq-squares": "seq -s <tmp>/sq.dfa -m <tmp>/sqchi.dfao --count 50",
    "seq-alphabet-mismatch": "seq -s <tmp>/bin.dfa -m <tmp>/teach.dfao --count 5",
    "fiber": "fiber -s <tmp>/ab.dfa -m <tmp>/teach.dfao --symbol 2",
    "fiber-unknown-symbol": "fiber -s <tmp>/ab.dfa -m <tmp>/teach.dfao --symbol 9",
    "fiber-bottom-partial": "fiber -s <tmp>/ab.dfa -m <tmp>/partial.dfao --symbol ⊥",
    "fibers-to-dfao": "fibers-to-dfao -s <tmp>/bin.dfa --fiber 0=<tmp>/tm0.dfa --fiber 1=<tmp>/tm1.dfa",
    "fibers-to-dfao-gap": "fibers-to-dfao -s <tmp>/bin.dfa --fiber 0=<tmp>/tm0.dfa",
    "kernel": "kernel -s <tmp>/ab.dfa -m <tmp>/teach.dfao --terms 6",
    "kernel-json": "kernel -s <tmp>/ab.dfa -m <tmp>/teach.dfao --terms 3 --json",
    "kernel-thue-morse": "kernel -s <tmp>/bin.dfa -m <tmp>/tm.dfao --terms 8",
    "kernel-partial": "kernel -s <tmp>/ab.dfa -m <tmp>/partial.dfao --terms 5",
    "kernel-to-dfao": "kernel-to-dfao -s <tmp>/ab.dfa -m <tmp>/teach.dfao --bound 12",
    "kernel-to-dfao-partial": "kernel-to-dfao -s <tmp>/ab.dfa -m <tmp>/partial.dfao --bound 14",
    "kernel-to-dfao-bound": "kernel-to-dfao -s <tmp>/ab.dfa -m <tmp>/teach.dfao --bound 5",
    "gaps": "gaps -s <tmp>/ab.dfa -m <tmp>/teach.dfao --factor 00 --count 200",
    "gaps-json": "gaps -s <tmp>/bin.dfa -m <tmp>/tm.dfao --factor 0110 --count 100 --json",
    "subst": "subst -s <tmp>/ab.dfa -m <tmp>/teach.dfao --count 30",
    "subst-file": "subst -s <tmp>/bin.dfa -m <tmp>/tm.dfao --count 16 -o <tmp>/out.sub",
    "from-morphism": "from-morphism <tmp>/w.mor --machine-out <tmp>/out.dfao",
    "from-morphism-symbols": "from-morphism <tmp>/r.mor --symbols 'w x y z' -o <tmp>/out.dfa",
    "from-morphism-unwritable": "from-morphism <tmp>/w.mor -o <tmp>/out.dfa --machine-out <tmp>/no/m.dfao",
    "fixpoint": "fixpoint <tmp>/w.mor --count 40",
    "fixpoint-remark": "fixpoint <tmp>/r.mor --count 30",
    "complexity": "complexity -s <tmp>/ab.dfa -m <tmp>/teach.dfao --prefix 300 --nmax 6",
    "complexity-json": "complexity -s <tmp>/bin.dfa -m <tmp>/tm.dfao --prefix 200 --nmax 5 --json",
    "complexity-nmax": "complexity -s <tmp>/ab.dfa -m <tmp>/teach.dfao --prefix 10 --nmax 20",
    "witness-quadratic": "witness-quadratic --prefix 2000",
    "binomial-word-json": "binomial-word --count 1200 --check --json",
    "binomial-word": "binomial-word --count 40 --check",
    "equiv": "equiv <tmp>/ab.dfa <tmp>/all.dfa",
    "minimize": "minimize <tmp>/fib.dfa",
    "reduce": "reduce <tmp>/teach.dfao",
    "reduce-file": "reduce <tmp>/partial.dfao -o <tmp>/out.dfao",
}


def run(run_id: str, d: Path) -> dict:
    """One CLI run in-process; returns its exit code, output and written files."""
    before = {p.name for p in d.iterdir()}
    argv = [a.replace("<tmp>", str(d)) for a in shlex.split(RUNS[run_id])]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    written = {p.name: p.read_text(encoding="utf-8") for p in sorted(d.iterdir()) if p.name not in before}
    return {
        "exit": code,
        "stdout": out.getvalue().replace(str(d), "<tmp>"),
        "stderr": err.getvalue().replace(str(d), "<tmp>"),
        "files": written,
    }


def record() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        data = {"inputs": write_inputs(d), "runs": {}}
        for run_id in RUNS:
            data["runs"][run_id] = run(run_id, d)
            for name in data["runs"][run_id]["files"]:
                (d / name).unlink()
    return data


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_runs_are_the_recorded_ones(golden):
    assert list(golden["runs"]) == list(RUNS)


def test_golden_inputs(golden, tmp_path):
    assert write_inputs(tmp_path) == golden["inputs"]


@pytest.mark.parametrize("run_id", RUNS)
def test_golden_cli_run(golden, tmp_path, run_id):
    write_inputs(tmp_path)
    assert run(run_id, tmp_path) == golden["runs"][run_id]


if __name__ == "__main__":
    text = json.dumps(record(), indent=1, ensure_ascii=False) + "\n"
    GOLDEN.write_text(text, encoding="utf-8")
    sys.stdout.write(f"recorded {len(RUNS)} runs in {GOLDEN}\n")
