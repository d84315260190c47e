"""README's commands are checked: every ``repro-endure`` line of its ``sh``
blocks must parse with the CLI's own parser, so a renamed or deleted flag
fails here instead of going stale in the documentation."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"
SUBCOMMANDS = ("tune", "workloads", "table", "compare", "online")


def readme_commands() -> list[str]:
    """The ``repro-endure`` lines of README's ``sh`` blocks: continuations
    joined, trailing ``#`` comments cut."""
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.M | re.S):
        for line in re.sub(r"\s*\\\n\s*", " ", block).splitlines():
            line = re.sub(r"\s+#.*$", "", line).strip()
            if line.startswith("repro-endure "):
                commands.append(line)
    return commands


@pytest.mark.parametrize("command", readme_commands())
def test_readme_command_parses(command):
    build_parser().parse_args(shlex.split(command)[1:])


def test_readme_shows_every_subcommand():
    shown = {shlex.split(command)[1] for command in readme_commands()}
    assert set(SUBCOMMANDS) <= shown
