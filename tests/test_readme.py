"""Every command of the README's command-line block runs as documented."""

import re
import shlex
from pathlib import Path

from quasilocal.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def documented_commands():
    """(argv, exit status) of each 'quasilocal ...' line, in order.

    The status is 0 unless the line ends in a '# exit N' comment.
    """
    section = README.read_text().split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.splitlines():
        if line.startswith("quasilocal "):
            command, _, comment = line.partition("#")
            status = re.fullmatch(r"\s*exit (\d+)\s*", comment)
            commands.append((shlex.split(command)[1:], int(status.group(1)) if status else 0))
    return commands


def test_readme_commands_exit_as_documented(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = documented_commands()
    assert len(commands) >= 9
    for argv, status in commands:
        assert main(argv) == status, argv
