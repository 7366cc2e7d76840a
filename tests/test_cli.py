import json
import os
import re
import select
import subprocess
import sys
from pathlib import Path

import pytest

import ans
import ans.cli as cli
from ans import fileformat as ff
from conftest import AB, GOLDEN_50, ab_star_dfa, teaching_dfao, witness_morphism


@pytest.fixture
def files(tmp_path):
    paths = {
        "lang": tmp_path / "ab.dfa",
        "machine": tmp_path / "teach.dfao",
        "morphism": tmp_path / "w.mor",
    }
    paths["lang"].write_text(ff.format_dfa(ab_star_dfa()))
    paths["machine"].write_text(ff.format_dfao(teaching_dfao()))
    paths["morphism"].write_text(ff.format_morphism(witness_morphism(), 0))
    return {k: str(v) for k, v in paths.items()} | {"dir": tmp_path}


def run_ok(capsys, argv):
    assert cli.main(argv) == 0
    return capsys.readouterr().out


def test_seq_golden(files, capsys):
    out = run_ok(capsys, ["seq", "-s", files["lang"], "-m", files["machine"], "--count", "50"])
    assert out.strip() == GOLDEN_50


def test_seq_json(files, capsys):
    out = run_ok(capsys, ["seq", "-s", files["lang"], "-m", files["machine"], "--count", "10", "--json"])
    obj = json.loads(out)
    assert obj == {"count": 10, "terms": list(GOLDEN_50[:10])}


def test_rep_and_val_roundtrip(files, capsys):
    out = run_ok(capsys, ["rep", "-s", files["lang"], "0", "4", "9"])
    assert out.splitlines() == ["@eps", "ab", "bbb"]
    assert run_ok(capsys, ["val", "-s", files["lang"], "@eps"]).strip() == "0"
    assert run_ok(capsys, ["val", "-s", files["lang"], "ab"]).strip() == "4"


def test_enum(files, capsys):
    out = run_ok(capsys, ["enum", "-s", files["lang"], "--count", "5"])
    assert out.splitlines() == ["@eps", "a", "b", "aa", "ab"]
    out = run_ok(capsys, ["enum", "-s", files["lang"], "--count", "3", "--start", "4", "--json"])
    assert json.loads(out) == {"start": 4, "words": ["ab", "bb", "aaa"]}


def test_domain_errors_exit_2(files, capsys):
    assert cli.main(["val", "-s", files["lang"], "ba"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert cli.main(["val", "-s", files["lang"], "xy"]) == 2
    assert cli.main(["rep", "-s", str(files["dir"] / "missing.dfa"), "0"]) == 2
    bad = files["dir"] / "bad.dfa"
    bad.write_text("alphabet: a\nstates p\n")
    assert cli.main(["rep", "-s", str(bad), "0"]) == 2
    assert "bad.dfa:2" in capsys.readouterr().err


def test_unwritable_output_exits_2(files, capsys):
    nowhere = files["dir"] / "no" / "such" / "dir"
    assert cli.main(["minimize", files["lang"], "-o", str(nowhere / "min.dfa")]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {nowhere / 'min.dfa'}: ")
    lang_out = files["dir"] / "lang.dfa"
    argv = ["from-morphism", files["morphism"], "-o", str(lang_out), "--machine-out", str(nowhere / "m.dfao")]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {nowhere / 'm.dfao'}: ")


def test_unwritable_machine_out_leaves_no_file(files, capsys):
    nowhere = files["dir"] / "no" / "such" / "dir"
    lang_out, kept = files["dir"] / "fresh.dfa", files["dir"] / "kept.dfa"
    kept.write_text("old\n")
    for out in (lang_out, kept):
        argv = ["from-morphism", files["morphism"], "-o", str(out), "--machine-out", str(nowhere / "m.dfao")]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {nowhere / 'm.dfao'}: ")
    assert not lang_out.exists()
    assert kept.read_text() == "old\n"


def test_complexity_nmax_above_prefix_exits_2(files, capsys):
    argv = ["complexity", "-s", files["lang"], "-m", files["machine"], "--prefix", "10", "--nmax", "20"]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == "error: --nmax 20 exceeds --prefix 10\n"


def test_usage_errors_exit_2(files, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["rep", "-s", files["lang"], "-1"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, flag, message",
    [
        (["seq", "-s", "L", "-m", "M", "--count", "x"], "--count", "expected an integer, got 'x'"),
        (["rep", "-s", "L", "1e3"], "rank", "expected an integer, got '1e3'"),
        (["complexity", "-s", "L", "-m", "M", "--prefix", "1.5", "--nmax", "2"], "--prefix",
         "expected an integer, got '1.5'"),
        (["rep", "-s", "L", "-1"], "rank", "must be nonnegative"),
        (["complexity", "-s", "L", "-m", "M", "--prefix", "9", "--nmax", "0"], "--nmax", "must be positive"),
    ],
    ids=["count-x", "rank-1e3", "prefix-1.5", "rank-negative", "nmax-zero"],
)
def test_bad_integer_names_the_flag_not_the_parser(capsys, argv, flag, message):
    # argparse prints a type function's name when it lets ValueError through
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith(f"error: argument {flag}: {message}\n")
    assert not re.search(r"(?<!\w)_\w", err)


def test_internal_errors_exit_1(files, capsys, monkeypatch):
    def boom(args):
        raise RuntimeError("wires crossed")

    parser = cli.build_parser()
    real_parse = parser.parse_args

    def parse_with_boom(argv=None):
        args = real_parse(argv)
        args.func = boom
        return args

    parser.parse_args = parse_with_boom  # type: ignore[method-assign]
    monkeypatch.setattr(cli, "build_parser", lambda: parser)
    assert cli.main(["val", "-s", files["lang"], "a"]) == 1
    assert "internal error: RuntimeError" in capsys.readouterr().err


def test_fiber_roundtrip(files, capsys, tmp_path):
    fiber_paths = {}
    for symbol in "0123":
        path = tmp_path / f"f{symbol}.dfa"
        assert (
            cli.main(
                ["fiber", "-s", files["lang"], "-m", files["machine"], "--symbol", symbol, "-o", str(path)]
            )
            == 0
        )
        fiber_paths[symbol] = path
    capsys.readouterr()
    rebuilt = tmp_path / "rebuilt.dfao"
    argv = ["fibers-to-dfao", "-s", files["lang"], "-o", str(rebuilt)]
    for symbol, path in fiber_paths.items():
        argv += ["--fiber", f"{symbol}={path}"]
    assert cli.main(argv) == 0
    out = run_ok(capsys, ["seq", "-s", files["lang"], "-m", str(rebuilt), "--count", "50"])
    assert out.strip() == GOLDEN_50


def test_fibers_to_dfao_argument_errors(files, capsys):
    base = ["fibers-to-dfao", "-s", files["lang"]]
    assert cli.main(base + ["--fiber", "0"]) == 2
    assert cli.main(base + ["--fiber", f"0={files['lang']}", "--fiber", f"0={files['lang']}"]) == 2
    err = capsys.readouterr().err
    assert "repeats symbol" in err


def rebuilt_from_fibers(files, capsys, tmp_path, m, symbols):
    """`seq` of machine `m` and of its rebuild from the `fiber` of each symbol, through the CLI."""
    machine, rebuilt = tmp_path / "machine.dfao", tmp_path / "rebuilt.dfao"
    machine.write_text(ff.format_dfao(m))
    argv = ["fibers-to-dfao", "-s", files["lang"], "-o", str(rebuilt)]
    for symbol in symbols:
        path = tmp_path / f"f{symbol}.dfa"
        run_ok(capsys, ["fiber", "-s", files["lang"], "-m", str(machine), "--symbol", symbol, "-o", str(path)])
        argv += ["--fiber", f"{symbol}={path}"]
    run_ok(capsys, argv)
    return tuple(run_ok(capsys, ["seq", "-s", files["lang"], "-m", str(p), "--count", "50"]) for p in (machine, rebuilt))


def test_fibers_to_dfao_takes_a_bottom_fiber(files, capsys, tmp_path):
    # a complete machine may declare ⊥ as an output; its fiber rebuilds like any other
    trans = {(q, a): {"e": "o", "o": "e"}[q] for q in "eo" for a in "ab"}
    m = ans.Dfao(AB, ("e", "o"), "e", trans, {"e": "⊥", "o": "1"}, ("⊥", "1"))
    want, got = rebuilt_from_fibers(files, capsys, tmp_path, m, ("⊥", "1"))
    assert want.startswith("⊥11⊥⊥⊥1111⊥")
    assert got == want


def test_bottom_fiber_of_a_partial_machine_covers_its_dead_runs(files, capsys, tmp_path):
    # y outputs ⊥ and has no move on b: the ⊥ fiber holds y's words and the words whose run dies
    trans = {("x", "a"): "y", ("y", "a"): "x", ("x", "b"): "x"}
    m = ans.Dfao(AB, ("x", "y"), "x", trans, {"x": "0", "y": "⊥"}, ("0", "⊥"))
    want, got = rebuilt_from_fibers(files, capsys, tmp_path, m, ("0", "⊥"))
    assert want.startswith("0⊥00⊥0⊥0⊥00⊥0⊥0⊥0⊥0⊥")
    assert got == want


def test_kernel_text(files, capsys):
    out = run_ok(capsys, ["kernel", "-s", files["lang"], "-m", files["machine"], "--terms", "6"])
    lines = out.splitlines()
    assert lines[0] == "classes: 9"
    assert lines[1].startswith("0 @eps ")
    assert lines[1].endswith(GOLDEN_50[:6])
    assert any(line.endswith("(empty)") for line in lines)


def test_kernel_json(files, capsys):
    out = run_ok(capsys, ["kernel", "-s", files["lang"], "-m", files["machine"], "--json"])
    obj = json.loads(out)
    assert len(obj["classes"]) == 9
    assert obj["classes"][0]["representative"] == "@eps"
    assert obj["classes"][0]["terms"] == list(GOLDEN_50[:20])
    assert [k["empty"] for k in obj["classes"]].count(True) == 1


def test_kernel_to_dfao(files, capsys, tmp_path):
    learned = tmp_path / "learned.dfao"
    argv = ["kernel-to-dfao", "-s", files["lang"], "-m", files["machine"], "--bound", "12", "-o", str(learned)]
    assert cli.main(argv) == 0
    capsys.readouterr()
    out = run_ok(capsys, ["seq", "-s", files["lang"], "-m", str(learned), "--count", "50"])
    assert out.strip() == GOLDEN_50


def write_partial_machine(files, capsys, tmp_path):
    """A partial machine over a*b* and its kernel relearn, as file paths."""
    # no move on b after an odd number of a's: those terms are ⊥
    machine, learned = tmp_path / "partial.dfao", tmp_path / "learned.dfao"
    trans = {("x", "a"): "y", ("y", "a"): "x", ("x", "b"): "x"}
    machine.write_text(ff.format_dfao(ans.Dfao(AB, ("x", "y"), "x", trans, {"x": "0", "y": "1"}, ("0", "1"))))
    argv = ["kernel-to-dfao", "-s", files["lang"], "-m", str(machine), "--bound", "14", "-o", str(learned)]
    assert cli.main(argv) == 0
    capsys.readouterr()
    return str(machine), str(learned)


def test_kernel_to_dfao_partial_machine(files, capsys, tmp_path):
    # the learner reproduces the ⊥ terms of a partial machine
    machine, learned = write_partial_machine(files, capsys, tmp_path)
    want = run_ok(capsys, ["seq", "-s", files["lang"], "-m", machine, "--count", "50"])
    assert want.startswith("0100⊥010⊥00⊥")
    assert run_ok(capsys, ["seq", "-s", files["lang"], "-m", learned, "--count", "50"]) == want


def test_gaps_finds_bottom_on_a_partial_machine(files, capsys, tmp_path):
    # ⊥ is a symbol of the stream whether or not the machine declares it
    machine, learned = write_partial_machine(files, capsys, tmp_path)
    terms = run_ok(capsys, ["seq", "-s", files["lang"], "-m", machine, "--count", "50"]).strip()
    want = run_ok(capsys, ["gaps", "-s", files["lang"], "-m", learned, "--factor", "⊥", "--count", "50"])
    assert want.splitlines()[1] == "positions: " + " ".join(str(i) for i, t in enumerate(terms) if t == "⊥")
    assert run_ok(capsys, ["gaps", "-s", files["lang"], "-m", machine, "--factor", "⊥", "--count", "50"]) == want


def test_kernel_to_dfao_bound_exceeded(files, capsys):
    argv = ["kernel-to-dfao", "-s", files["lang"], "-m", files["machine"], "--bound", "5"]
    assert cli.main(argv) == 2
    assert "not recognized within bound" in capsys.readouterr().err


def test_gaps(files, capsys):
    out = run_ok(capsys, ["gaps", "-s", files["lang"], "-m", files["machine"], "--factor", "00", "--count", "200"])
    lines = out.splitlines()
    assert lines[0] == "occurrences: 4"
    assert lines[1] == "positions: 9 35 77 135"
    assert lines[2] == "gaps: 26 42 58"
    out = run_ok(
        capsys,
        ["gaps", "-s", files["lang"], "-m", files["machine"], "--factor", "00", "--count", "200", "--json"],
    )
    obj = json.loads(out)
    assert obj["positions"] == [9, 35, 77, 135]
    assert obj["gaps"] == [26, 42, 58]


def test_subst_prints_terms(files, capsys, tmp_path):
    sub_path = tmp_path / "teach.sub"
    out = run_ok(
        capsys,
        ["subst", "-s", files["lang"], "-m", files["machine"], "--count", "50", "-o", str(sub_path)],
    )
    assert out.strip() == GOLDEN_50
    parsed = ff.parse_substitution(sub_path.read_text(), str(sub_path))
    from ans import take

    assert "".join(take(parsed.generate(), 50)) == GOLDEN_50


def test_from_morphism_flow(files, capsys, tmp_path):
    lang_out = tmp_path / "w.dfa"
    mach_out = tmp_path / "w.dfao"
    argv = ["from-morphism", files["morphism"], "-o", str(lang_out), "--machine-out", str(mach_out)]
    assert cli.main(argv) == 0
    capsys.readouterr()
    out = run_ok(capsys, ["seq", "-s", str(lang_out), "-m", str(mach_out), "--count", "20"])
    assert [t.removeprefix("s") for t in out.split()] == list("00101120112122011212")
    # the induced language: words with at most two b's
    expect = tmp_path / "expect.dfa"
    expect.write_text(
        "alphabet: a b\nstates: x y z\nstart: x\nfinal: x y z\n"
        "trans: x a x\ntrans: x b y\ntrans: y a y\ntrans: y b z\ntrans: z a z\n"
    )
    assert run_ok(capsys, ["equiv", str(lang_out), str(expect)]).strip() == "equivalent"


@pytest.mark.parametrize("symbols", ["a", "abc", "a a", "@x y", "⊥ y", "# y", "a#b y", "@eps y", "", " "])
def test_from_morphism_refuses_symbols_it_could_not_read_back(files, capsys, symbols):
    # the witness morphism's widest image has 2 letters: a wrong count (an empty
    # list too, not the default), a repeat, a reserved name or a comment mark
    # exits 2 before any file is written
    lang_out, mach_out = files["dir"] / "w.dfa", files["dir"] / "w.dfao"
    argv = ["from-morphism", files["morphism"], "-o", str(lang_out), "--machine-out", str(mach_out)]
    assert cli.main(argv + ["--symbols", symbols]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: --symbols: ")
    assert not lang_out.exists() and not mach_out.exists()


def test_from_morphism_symbols_read_back(files, capsys):
    lang_out, mach_out = files["dir"] / "w.dfa", files["dir"] / "w.dfao"
    argv = ["from-morphism", files["morphism"], "-o", str(lang_out), "--machine-out", str(mach_out)]
    assert cli.main(argv + ["--symbols", "x: y"]) == 0
    assert run_ok(capsys, ["rep", "-s", str(lang_out), "3", "5"]).splitlines() == ["x: x:", "y x:"]
    out = run_ok(capsys, ["seq", "-s", str(lang_out), "-m", str(mach_out), "--count", "6"])
    assert [t.removeprefix("s") for t in out.split()] == list("001011")


def test_gaps_factor_longer_than_count_or_empty_exits_2(files, capsys):
    base = ["gaps", "-s", files["lang"], "-m", files["machine"]]
    assert cli.main(base + ["--factor", "0000", "--count", "3"]) == 2
    assert capsys.readouterr().err == "error: --factor needs 1 to --count 3 symbols, got 4\n"
    assert cli.main(base + ["--factor", "@eps", "--count", "3"]) == 2
    assert capsys.readouterr().err == "error: --factor needs 1 to --count 3 symbols, got 0\n"
    assert run_ok(capsys, base + ["--factor", "000", "--count", "3"]).startswith("occurrences: 0\n")


def test_witness_quadratic_prefix_below_profiled_lengths_exits_2(capsys):
    assert cli.main(["witness-quadratic", "--prefix", "29"]) == 2
    assert capsys.readouterr().err == "error: --prefix 29 is below 30, the longest block length profiled\n"
    assert run_ok(capsys, ["witness-quadratic", "--prefix", "30"]).startswith("prefix: 30\n")


def test_kernel_zero_terms_marks_only_empty_classes(files, capsys):
    out = run_ok(capsys, ["kernel", "-s", files["lang"], "-m", files["machine"], "--terms", "0"])
    lines = out.splitlines()
    assert lines[0] == "classes: 9"
    assert [line for line in lines[1:] if line.endswith("(empty)")] == ["5 ba (empty)"]
    assert lines[1] == "0 @eps"


def test_fixpoint(files, capsys):
    # integer letters were renamed s0 s1 s2 when the morphism was written out
    out = run_ok(capsys, ["fixpoint", files["morphism"], "--count", "16"])
    assert [t.removeprefix("s") for t in out.split()] == list("0112122122212222")


def test_complexity_output(files, capsys):
    out = run_ok(
        capsys,
        ["complexity", "-s", files["lang"], "-m", files["machine"], "--prefix", "500", "--nmax", "5"],
    )
    lines = out.splitlines()
    assert lines[0] == "prefix: 500"
    assert lines[1].startswith("exactness horizon: ")
    assert [ln.split()[0] for ln in lines[2:]] == ["1", "2", "3", "4", "5"]
    out = run_ok(
        capsys,
        ["complexity", "-s", files["lang"], "-m", files["machine"], "--prefix", "500", "--nmax", "5", "--json"],
    )
    obj = json.loads(out)
    assert set(obj) == {"prefix", "n", "p", "ratios", "verdicts", "exactness_horizon"}
    assert obj["p"][0] == 4


def test_witness_quadratic_text(capsys):
    out = run_ok(capsys, ["witness-quadratic", "--prefix", "5000"])
    assert "embedding:" in out and "exponent:" in out and "passed:" in out
    assert "reference growth classes: 1, n, n log log n, n log n, n^2" in out


def test_witness_quadratic_json(capsys):
    out = run_ok(capsys, ["witness-quadratic", "--prefix", "5000", "--json"])
    obj = json.loads(out)
    assert set(obj["verdicts"]) == {"embedding", "runs", "exponent", "passed"}


def test_witness_quadratic_json_key_order_and_counts(capsys):
    # the golden runs leave this JSON out for its float exponent; pin the rest
    obj = json.loads(run_ok(capsys, ["witness-quadratic", "--prefix", "5000", "--json"]))
    assert list(obj) == [
        "prefix", "n", "p", "p_machine", "ratios", "verdicts",
        "exponent", "exponent_threshold", "longest_run", "run_bound", "growth_classes",
    ]
    steps = [2, 2, 2] + [k // 2 for k in range(6, 32)]  # p(n+1) - p(n) for the witness
    p = [3 + sum(steps[:i]) for i in range(30)]
    p_machine = [
        3, 8, 13, 18, 25, 32, 41, 51, 63, 75, 89, 104, 121, 139, 158,
        178, 200, 223, 248, 274, 301, 329, 359, 390, 423, 457, 493, 529, 567, 604,
    ]
    assert (obj["prefix"], obj["n"], obj["p"], obj["p_machine"]) == (5000, list(range(1, 31)), p, p_machine)
    assert obj["ratios"] == [c / n**2 for n, c in zip(obj["n"], p)]
    assert list(obj["verdicts"]) == ["embedding", "runs", "exponent", "passed"]
    assert (obj["longest_run"], obj["run_bound"]) == (98, 12)


def test_binomial_word_output(capsys):
    out = run_ok(capsys, ["binomial-word", "--count", "19"])
    lines = out.splitlines()
    assert lines[0] == "1110111101111011110"
    assert lines[1].startswith("elements: 0 1 2 4")
    out = run_ok(capsys, ["binomial-word", "--count", "2000", "--check"])
    assert "verdict: inconclusive" not in out  # 2000 terms give a real verdict
    assert "growth factor:" in out
    out = run_ok(capsys, ["binomial-word", "--count", "500", "--check", "--json"])
    assert json.loads(out)["check"]["verdicts"]["verdict"] == "inconclusive"


def test_equiv_distinguishes(files, capsys, tmp_path):
    other = tmp_path / "bplus.dfa"
    other.write_text(
        "alphabet: a b\nstates: p q\nstart: p\nfinal: q\n"
        "trans: p a p\ntrans: p b q\ntrans: q b q\n"
    )
    out = run_ok(capsys, ["equiv", files["lang"], str(other)])
    assert out.strip() == "distinguished by: @eps"


def test_minimize_and_reduce(files, capsys, tmp_path):
    bloated = tmp_path / "bloated.dfa"
    bloated.write_text(
        "alphabet: a b\nstates: p p2 q\nstart: p\nfinal: p p2 q\n"
        "trans: p a p2\ntrans: p2 a p\ntrans: p b q\ntrans: p2 b q\ntrans: q b q\n"
    )
    out_path = tmp_path / "min.dfa"
    assert cli.main(["minimize", str(bloated), "-o", str(out_path)]) == 0
    capsys.readouterr()
    minimal = ff.parse_dfa(out_path.read_text())
    assert len(minimal.states) == 2
    out = run_ok(capsys, ["reduce", files["machine"]])
    reduced = ff.parse_dfao(out)
    assert len(reduced.states) == 12


def test_output_flag_leaves_stdout_clean(files, capsys, tmp_path):
    target = tmp_path / "out.dfa"
    assert cli.main(["minimize", files["lang"], "-o", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert target.exists()


# The directory that holds the imported ``ans`` package, so that a child
# process runs the same code as this one wherever pytest was started.
ANS_ROOT = str(Path(ans.__file__).resolve().parent.parent)


def child_env(**overrides):
    """This process's environment with ``ANS_ROOT`` first on ``PYTHONPATH``;
    an override of ``None`` removes the variable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [ANS_ROOT, env.get("PYTHONPATH")]))
    for key, value in overrides.items():
        if value is None:
            env.pop(key, None)
        else:
            env[key] = value
    return env


def runner(argv):
    return subprocess.run(
        [sys.executable, "-m", "ans.cli", *argv],
        capture_output=True,
        text=True,
        timeout=120,
        env=child_env(),
    )


def tty_runner(argv, **overrides):
    """Run the CLI with stdout on a pseudo-terminal, read until EOF."""
    pty = pytest.importorskip("pty")
    master, slave = pty.openpty()
    args = [sys.executable, "-m", "ans.cli", *argv]
    proc = subprocess.Popen(
        args, stdin=subprocess.DEVNULL, stdout=slave, stderr=subprocess.PIPE, env=child_env(**overrides)
    )
    os.close(slave)
    chunks = []
    try:
        while select.select([master], [], [], 120)[0]:
            try:
                chunk = os.read(master, 4096)
            except OSError:  # EIO: the child has closed its end
                break
            if not chunk:
                break
            chunks.append(chunk)
    finally:
        os.close(master)
        proc.kill()  # does nothing once the child has exited
    _, err = proc.communicate(timeout=120)
    return subprocess.CompletedProcess(args, proc.returncode, b"".join(chunks).decode(), err.decode())


def test_byte_determinism(files):
    argv = ["kernel", "-s", files["lang"], "-m", files["machine"], "--json"]
    first = runner(argv)
    second = runner(argv)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert "\x1b" not in first.stdout


def test_json_reemission_identity(files):
    argv = ["complexity", "-s", files["lang"], "-m", files["machine"], "--prefix", "200", "--nmax", "8", "--json"]
    out = runner(argv).stdout
    assert json.dumps(json.loads(out), indent=2, ensure_ascii=False) + "\n" == out


def test_color_env_disables_styling():
    argv = ["witness-quadratic", "--prefix", "2000"]
    styled = tty_runner(argv, ANS_COLOR=None)
    assert styled.returncode == 0, styled.stderr
    assert "\x1b[32mpass\x1b[0m" in styled.stdout
    plain = tty_runner(argv, ANS_COLOR="0")
    assert plain.returncode == 0, plain.stderr
    assert "\x1b" not in plain.stdout
    assert "passed: pass" in plain.stdout
