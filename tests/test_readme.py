"""The README's Library example runs as written and does what its comments say."""

import re
from pathlib import Path

from regext import ExtensionTrace, require_regular

README = Path(__file__).resolve().parent.parent / "README.md"


def library_block() -> str:
    text = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    return re.search(r"```python\n(.*?)```", text, re.S).group(1)


def test_library_block_runs(capsys):
    names: dict = {}
    exec(compile(library_block(), str(README), "exec"), names)
    out = capsys.readouterr().out.splitlines()
    assert require_regular(names["g2"]) == 3  # 3-regular supergraph
    trace = names["trace"]
    assert isinstance(trace, ExtensionTrace) and trace.verify(names["g"])
    assert trace.final.m == 15  # all the way to K_6
    assert out[0] == "T1-Dirac True extendable"
