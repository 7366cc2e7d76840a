"""Digest of what every benchmark workload command prints and writes.

    python3 tools/workload_digest.py digest.json [--seeds 1 2 3]

For each workload of ``perfbench/workloads.py`` and each seed, the script
writes the workload's input files to a temporary directory and runs each of
its commands once, in-process, through ``ans.cli.main(argv)``.  It imports
the ``src/`` and ``perfbench/`` of the checkout it lives in and changes
neither.  The JSON file holds, per command, the exit code, stdout, stderr
and the files the command wrote, with the temporary directory replaced by
``<work>``.  Two checkouts behave the same on the workloads when ``cmp``
finds their digests equal.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from ans import cli  # noqa: E402
from workloads import SIZES, Workload  # noqa: E402


def run_command(cmd, workdir: str) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(cmd.argv)
    files = {}
    for path in cmd.outputs:
        try:
            with open(path, encoding="utf-8") as fh:
                files[path.replace(workdir, "<work>")] = fh.read().replace(workdir, "<work>")
        except OSError:
            files[path.replace(workdir, "<work>")] = None
    return {
        "argv": [a.replace(workdir, "<work>") for a in cmd.argv],
        "exit": code,
        "stdout": out.getvalue().replace(workdir, "<work>"),
        "stderr": err.getvalue().replace(workdir, "<work>"),
        "files": files,
    }


def digest(seeds) -> dict:
    runs = {}
    for name in SIZES:
        for seed in seeds:
            with tempfile.TemporaryDirectory() as workdir:
                wl = Workload(name, seed, workdir)
                wl.write_inputs()
                for cmd in wl.commands:
                    runs[f"{name}:{seed}:{cmd.case}"] = run_command(cmd, workdir)
    return runs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("output", help="JSON file to write")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = ap.parse_args(argv)
    runs = digest(args.seeds)
    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump(runs, fh, ensure_ascii=False, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(runs)} commands digested into {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
