"""The library quick start and the CLI block in README.md, run so that
they keep up with the API and the command line."""

import doctest
import re
import shlex
from pathlib import Path

from trihex.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_examples():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0


def test_readme_cli_block(capsys, monkeypatch, tmp_path):
    # Each `trihex ...` line of the sh blocks runs in order, in one
    # directory, so `tile construct -o tiling.json` feeds the render after
    # it.  A trailing comment that is an integer is the exact output.
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("TRIBONE_MEMO_LIMIT_MB", raising=False)
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
    lines = [line for block in blocks for line in block.splitlines() if line.startswith("trihex ")]
    assert len(lines) == 12
    checked = 0
    for line in lines:
        command, _, comment = line.partition("#")
        code = main(shlex.split(command)[1:])
        out = capsys.readouterr().out
        assert code == 0, line
        if comment.strip().isdigit():
            assert out == comment.strip() + "\n", line
            checked += 1
    assert checked == 4
