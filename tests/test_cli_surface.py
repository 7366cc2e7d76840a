"""The CLI surface, frozen: every subcommand and every argument, in order.

``cli_surface.json`` records, for ``ans`` and each subcommand in the order
``ans --help`` lists them, the name and help text, and for each argparse
action its option strings, destination, whether it is required, its default,
``nargs``, metavar, help text, type and action class.  These are the
parser's declarations, not its rendered text, so the record does not depend
on the Python version that formats the help.  After a deliberate change to
the surface, re-record with::

    PYTHONPATH=src python3 tests/test_cli_surface.py
"""

import argparse
import functools
import json
import sys
from pathlib import Path

from ans import cli

SURFACE = Path(__file__).with_name("cli_surface.json")


def _actions(parser: argparse.ArgumentParser) -> list:
    return [
        {
            "option_strings": a.option_strings,
            "dest": a.dest,
            "required": a.required,
            "default": a.default,
            "nargs": a.nargs,
            "metavar": a.metavar,
            "help": a.help,
            "type": a.type and a.type.__name__,
            "action": type(a).__name__,
        }
        for a in parser._actions
    ]


def _subcommands(parser: argparse.ArgumentParser) -> list:
    (group,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    helps = {c.dest: c.help for c in group._choices_actions}
    return [(name, helps[name], p) for name, p in group.choices.items()]


def surface() -> list:
    parser = cli.build_parser()
    entries = [{"name": parser.prog, "help": parser.description, "actions": _actions(parser)}]
    for name, text, p in _subcommands(parser):
        entries.append({"name": name, "help": text, "actions": _actions(p)})
    return entries


def test_cli_surface_is_frozen():
    assert surface() == json.loads(SURFACE.read_text(encoding="utf-8"))


def test_every_help_renders():
    parser = cli.build_parser()
    assert parser.format_help().startswith("usage: ans ")
    for name, _, p in _subcommands(parser):
        assert p.format_help().startswith(f"usage: ans {name} ")


def _dump(entries: list) -> str:
    """One line per action, so that a diff of the record names the action."""
    line = functools.partial(json.dumps, ensure_ascii=False)
    blocks = []
    for e in entries:
        actions = ",\n".join("  " + line(a) for a in e["actions"])
        blocks.append(f' {{"name": {line(e["name"])}, "help": {line(e["help"])}, "actions": [\n{actions}\n ]}}')
    return "[\n" + ",\n".join(blocks) + "\n]\n"


if __name__ == "__main__":
    SURFACE.write_text(_dump(surface()), encoding="utf-8")
    sys.exit(0)
