"""Byte-for-byte CLI output on recorded commands.

``golden_cli.json`` holds, for each command, the stdout, stderr and exit
code of ``cli.main``: every README example, the five subset checks, the
gate sets, the undecided paths and the input errors.  Every command of
the README's CLI block must be among them.  A change that
alters any of them must say so and record the file again with

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import io
import json
import shlex
from pathlib import Path

import pytest

import tilecert.cli as cli

GOLDEN_PATH = Path(__file__).with_name("golden_cli.json")
GOLDEN = json.loads(GOLDEN_PATH.read_text())
README_PATH = Path(__file__).parent.parent / "README.md"


def run(command: str) -> dict:
    """The stdout, stderr and exit code of one command run through cli.main."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(shlex.split(command))
    return {"command": command, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.mark.parametrize("entry", GOLDEN, ids=[e["command"] for e in GOLDEN])
def test_cli_output_matches_recording(entry):
    assert run(entry["command"]) == entry


def parse_human(text: str) -> dict:
    """Read ``--human`` output back: an indented block is a dict, any other
    value is JSON, or a bare string when it is not valid JSON."""
    root: dict = {}
    stack = [(-1, root)]
    for line in text.splitlines():
        depth = len(line) - len(line.lstrip(" "))
        while stack[-1][0] >= depth:
            stack.pop()
        if line.endswith(":"):
            block: dict = {}
            stack[-1][1][line.strip()[:-1]] = block
            stack.append((depth, block))
            continue
        key, value = line.strip().split(": ", 1)
        try:
            stack[-1][1][key] = json.loads(value)
        except ValueError:
            stack[-1][1][key] = value
    return root


@pytest.mark.parametrize("entry", [e for e in GOLDEN if e["exit"] != 2],
                         ids=[e["command"] for e in GOLDEN if e["exit"] != 2])
def test_human_output_reads_back_as_the_json(entry):
    human = run(entry["command"] + " --human")
    assert human["exit"] == entry["exit"] and human["stderr"] == entry["stderr"]
    assert parse_human(human["stdout"]) == json.loads(entry["stdout"])


def readme_cli_examples() -> list[str]:
    """The commands of the README's CLI block, without ``tilecert`` and comments."""
    section = README_PATH.read_text().split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [" ".join(shlex.split(line, comments=True)[1:]) for line in block.splitlines()
            if line.startswith("tilecert ")]


def test_every_readme_example_is_recorded():
    examples = readme_cli_examples()
    assert len(examples) == 11
    assert set(examples) <= {e["command"] for e in GOLDEN}


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps([run(e["command"]) for e in GOLDEN], indent=1))
