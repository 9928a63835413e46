"""The README's command-line examples, run in-process through ``main`` and
compared byte for byte with the output the README shows, and its library
example, whose printed lines must equal the comments after its ``print``
calls."""

import re
import shlex
from pathlib import Path

from surfclass.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _sessions():
    """(command, expected stdout) pairs from the text blocks of the
    README's "Command line" section, in order."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    sessions = []
    for block in re.findall(r"```text\n(.*?)```", section, re.S):
        for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, _, output = chunk.partition("\n")
            output = output.rstrip("\n")
            sessions.append((command, output + "\n" if output else ""))
    return sessions


def test_readme_command_examples(tmp_path, monkeypatch, capsys):
    # moves.txt comes from the normalize example, torus.poly from printf,
    # two_points.srf from the text the README shows under `cat`
    monkeypatch.chdir(tmp_path)
    ran = []
    for command, expected in _sessions():
        argv = shlex.split(command)
        target = None
        if ">" in argv:
            argv, target = argv[: argv.index(">")], argv[argv.index(">") + 1]
        program, args = argv[0], argv[1:]
        if program == "surfclass":
            assert main(args) == 0, command
            out = capsys.readouterr().out
            ran.append(" ".join([args[0]] + [a for a in args if a.startswith("--")]))
        elif program == "printf":
            out = args[0].replace("\\n", "\n")
        elif program == "head":
            lines = Path(args[1]).read_text(encoding="utf-8").splitlines(keepends=True)
            out = "".join(lines[: int(args[0].lstrip("-"))])
        elif program == "cat":
            Path(args[0]).write_text(expected, encoding="utf-8")
            out = expected
        else:
            raise AssertionError(f"unknown README command: {command}")
        if target is not None:
            Path(target).write_text(out, encoding="utf-8")
            out = ""
        assert out.encode() == expected.encode(), command
    assert ran == [
        "classify",
        "classify --json",
        "normalize --trace",
        "replay",
        "glue",
        "rational",
    ]


def test_readme_library_example(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```python\n(.*?)```", section, re.S)
    expected = re.findall(r"^print\(.*?\) +# (.*)$", block, re.M)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == expected
    assert len(expected) == 3
