"""README's commands are checked: every ``repro-endure`` line of its ``sh``
blocks must parse with the CLI's own parser, so a renamed or deleted flag
fails here instead of going stale in the documentation.  CHANGES.md lines
have a length ceiling: an entry says what changed, the commit the detail."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"
CHANGES = README.with_name("CHANGES.md")
SUBCOMMANDS = ("tune", "workloads", "table", "compare", "online")

#: Characters one CHANGES.md line may hold, from entry ``FIRST_CAPPED`` on;
#: the lines before it are exempt.
LINE_CEILING = 4_000
FIRST_CAPPED = 54


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


def test_changes_lines_stay_under_the_ceiling():
    lines = CHANGES.read_text().splitlines()
    entries = [re.match(r"PR (\d+):", line) for line in lines]
    start = next(
        (i for i, m in enumerate(entries) if m and int(m.group(1)) >= FIRST_CAPPED), len(lines)
    )
    long = [i + 1 for i in range(start, len(lines)) if len(lines[i]) > LINE_CEILING]
    assert not long, f"CHANGES.md lines over {LINE_CEILING} characters: {long}"
