"""The call list of tools/cli_outputs.py; no call is run here."""

import argparse
import ast
import importlib.util
import re
from pathlib import Path

from grogweb import cli

TOOL = Path(__file__).resolve().parent.parent / "tools" / "cli_outputs.py"
_spec = importlib.util.spec_from_file_location("cli_outputs", TOOL)
cli_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_outputs)


def leaf_commands(parser, words=()):
    """{command words: (--format choices, default)} for each leaf subcommand."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        fmt, = [a for a in parser._actions if a.dest == "format"]
        return {words: (fmt.choices, fmt.default)}
    return {key: value for word, sub in subs[0].choices.items()
            for key, value in leaf_commands(sub, (*words, word)).items()}


def test_names_are_unique_and_file_safe():
    names = [name for name, _ in cli_outputs.CALLS]
    assert len(set(names)) == len(names)
    assert all(re.fullmatch(r"[a-z0-9][a-z0-9._-]*", name) for name in names)
    assert "inputs" not in names


def test_every_subcommand_and_format_is_called():
    commands = leaf_commands(cli.build_parser())
    assert set(commands) == {("jaco",), ("competition",), ("grog", "solve"), ("grog", "run"),
                             ("enumerate",), ("verify",)}
    for words, (choices, default) in commands.items():
        used = {argv[argv.index("--format") + 1] if "--format" in argv else default
                for _, argv in cli_outputs.CALLS if tuple(argv[:len(words)]) == words}
        assert used == set(choices), words


def test_every_input_a_call_reads_is_written():
    read = {arg.removeprefix("../inputs/") for _, argv in cli_outputs.CALLS
            for arg in argv if arg.startswith("../inputs/")}
    assert read and read <= set(cli_outputs.INPUTS)


def test_the_golden_reports_are_among_the_calls():
    calls = [argv for _, argv in cli_outputs.CALLS]
    for seed in ("42", "1", "20150206"):
        assert ["verify", "--all", "--seed", seed, "--out", "report.json"] in calls
        assert ["verify", "--all", "--seed", seed, "--format", "json"] in calls


def test_imports_nothing_of_the_package():
    tree = ast.parse(TOOL.read_text())
    names = [a.name for node in ast.walk(tree) if isinstance(node, ast.Import) for a in node.names]
    names += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert names and not [n for n in names if n and n.split(".")[0] == "grogweb"]
