"""The README's library quick tour and command line run against the current API."""

import shlex
from pathlib import Path

from clustertess.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_readme_quick_tour_runs(capsys):
    tour = README.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(tour, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines()[0] == "True 0.5445 True"


def test_readme_command_line_runs(tmp_path, monkeypatch):
    # every line of the command-line block, continuations joined, is a
    # clustertess command; they run in order, later ones reading the
    # files earlier ones wrote
    blocks = [b.split("```", 1)[0] for b in README.split("```sh\n")[1:]]
    block = next(b for b in blocks if "clustertess " in b)
    commands = [shlex.split(line, comments=True) for line in block.replace("\\\n", " ").splitlines()]
    commands = [argv for argv in commands if argv]
    assert commands and all(argv[0] == "clustertess" for argv in commands)
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv[1:]) == 0, argv
