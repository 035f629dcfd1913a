"""Every command of the README's command-line block runs as documented,
and every Python example of its "Evaluations" section runs after the
section's preamble."""

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


def evaluation_examples():
    """The Python blocks of the "Evaluations" section, in order; the first is their preamble."""
    section = README.read_text().split("## Evaluations", 1)[1].split("\n## ", 1)[0]
    return [block.split("```", 1)[0] for block in section.split("```python\n")[1:]]


def test_evaluation_examples_run_after_the_preamble():
    preamble, *examples = evaluation_examples()
    assert len(examples) == 3
    for example in examples:
        namespace = {}
        exec(preamble, namespace)
        exec(example, namespace)
