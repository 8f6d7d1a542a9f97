"""The README's library example runs as written and prints what it says,
and its CLI flag table is the parser's."""

import argparse
import os
import re
import subprocess
import sys
from pathlib import Path

from thetajordan.cli import RunConfig, parse_args

ROOT = Path(__file__).resolve().parents[1]


def test_library_example_prints_its_comment():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (code,) = re.findall(r"^```python\n(.*?)^```$", readme, re.S | re.M)
    expected = code.rstrip().splitlines()[-1]
    assert expected.startswith("# "), expected
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": "src"},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == expected[2:] + "\n"


def _verify_actions(monkeypatch):
    """The `verify` flags as argparse actions, keyed by option string:
    every action `parse_args` adds, recorded through the public
    `add_argument`, which returns it."""
    actions = {}
    add_argument = argparse.ArgumentParser.add_argument

    def record(self, *args, **kwargs):
        action = add_argument(self, *args, **kwargs)
        if self.prog.endswith(" verify"):
            actions.update(dict.fromkeys(action.option_strings, action))
        return action

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", record)
    parse_args(["verify"])
    return actions


def test_cli_flag_table_matches_parser(monkeypatch):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (table,) = re.findall(r"^\| flag \| values \| default \| meaning \|\n"
                          r"\| --- .*\n((?:\|.*\n)+)", readme, re.M)
    actions = _verify_actions(monkeypatch)
    defaults = RunConfig()
    seen = set()
    for row in table.splitlines():
        flag, values, default, _ = (c.strip() for c in row.strip("|").split("|"))
        flag = flag.strip("`")
        assert flag in actions, f"README lists {flag}, which the parser lacks"
        seen.add(flag)
        action = actions[flag]
        value = getattr(defaults, action.dest)
        # unquoted words stand for an unset default
        if default == "stdout":
            assert value is None, flag
        elif default == "off":
            assert value is None or value is False, flag
        else:
            assert default == f"`{value}`", flag
        # a backticked list is the flag's choices; anything else means none
        if re.fullmatch(r"`[^`]+`(, `[^`]+`)+", values):
            assert values.split(", ") == [f"`{c}`" for c in action.choices], flag
        else:
            assert action.choices is None, flag
    assert seen == set(actions) - {"-h", "--help"}
