"""The README's Library example runs as written and does what its comments
say, and every command of its CLI block parses."""

import re
import shlex
from pathlib import Path

from regext import ExtensionTrace, cli, require_regular

README = Path(__file__).resolve().parent.parent / "README.md"


def library_block() -> str:
    text = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    return re.search(r"```python\n(.*?)```", text, re.S).group(1)


def cli_commands() -> list[list[str]]:
    """The ``regext`` segments of the CLI block's pipelines, comments dropped;
    the ``echo`` segments that feed them are not commands of the tool."""
    text = README.read_text(encoding="utf-8").split("## CLI", 1)[1]
    block = re.search(r"```sh\n(.*?)```", text, re.S).group(1)
    commands = []
    for line in block.splitlines():
        lexer = shlex.shlex(line, posix=True, punctuation_chars="|")
        lexer.whitespace_split = True
        segment: list[str] = []
        for token in [*lexer, "|"]:
            if token != "|":
                segment.append(token)
            elif segment:
                assert segment[0] in ("echo", "regext"), line
                if segment[0] == "regext":
                    commands.append(segment[1:])
                segment = []
    return commands


def test_cli_block_parses(monkeypatch, capsys):
    # a call before the patching builds the process's one parser, which
    # must still dispatch to the patched commands
    assert cli.main(["gen", "--n", "4", "--r", "2"]) == 0
    capsys.readouterr()
    ran = []
    for name in dir(cli):
        if name.startswith("cmd_"):
            monkeypatch.setattr(cli, name, lambda args, name=name: ran.append(name) or 0)
    for argv in cli_commands():
        assert cli.main(argv) == 0, argv
    assert set(ran) == {"cmd_extend", "cmd_check", "cmd_gen", "cmd_match",
                        "cmd_analyze", "cmd_verify"}


def test_library_block_runs(capsys):
    names: dict = {}
    exec(compile(library_block(), str(README), "exec"), names)
    out = capsys.readouterr().out.splitlines()
    assert require_regular(names["g2"]) == 3  # 3-regular supergraph
    trace = names["trace"]
    assert isinstance(trace, ExtensionTrace) and trace.verify(names["g"])
    assert trace.final.m == 15  # all the way to K_6
    assert out[0] == "T1-Dirac True extendable"
