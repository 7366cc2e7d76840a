"""Smoke tests of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Each workload runs in both modes with every command and every check, so a
change that breaks an oracle, a metric or the record format shows up in
seconds instead of after a full benchmark run.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from oracle import CheckFailed  # noqa: E402
from workloads import Workload  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCHMARK = json.load(fh)

WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
RECORD_FIELDS = {"case", "layer", "size", "seconds", "ns_per_term", "peak_kib",
                 "python", "git_rev", "nproc", "sizes"}


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_checks_out_and_reports_every_metric(workload, trace):
    out = run.run(workload, 7, 0.5, trace, tiny=True)
    result = out["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert out["records"] and all(RECORD_FIELDS <= set(r) for r in out["records"])


def test_the_seed_fixes_the_inputs(tmp_path):
    def written(seed):
        wl = Workload("automata-core", seed, str(tmp_path / str(seed)), tiny=True)
        wl.write_inputs()
        return wl.files

    assert written(1) == written(1)
    assert written(1) != written(2)


def test_a_wrong_output_fails_its_check(tmp_path):
    wl = Workload("poly-growth", 1, str(tmp_path), tiny=True)
    seq = next(c for c in wl.commands if c.case == "seq:teaching")
    good = wl.seqs[0].prefix(seq.terms)
    seq.check(good + "\n", {})
    bad = good[:-1] + ("0" if good[-1] != "0" else "1")
    with pytest.raises(CheckFailed):
        seq.check(bad + "\n", {})


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
