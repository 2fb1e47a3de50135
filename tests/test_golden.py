"""CLI output pinned byte for byte on a fixed corpus.

``golden/corpus.g6`` holds every regular graph up to isomorphism with
n <= 8 (48 lines) and three non-regular graphs.  For each command below,
in JSON and in human mode, ``golden/<name>.out`` is its stdout on that
corpus and ``golden/exit_codes.json`` its exit code.  After an intended output change,
regenerate the files with ``PYTHONPATH=src python tests/test_golden.py``.

``golden/gen.out`` is ``regext gen`` on ``GEN_CELLS``, three seeds each: two
switching cells and one pairing cell.  It pins the seeded sample stream, so
the script above does not rewrite it.

networkx re-checks every Tutte violator that ``match.out`` and
``extend.out`` record, so a regenerated file cannot pin a false certificate.
"""

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from regext import find_clique, parse_graph6
from regext.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
CORPUS = GOLDEN / "corpus.g6"

COMMANDS = {
    "check": ["check", "--json"],
    "analyze": ["analyze", "--json"],
    "match": ["match", "--json", "--certificates"],
    "extend": ["extend", "--json", "--certificates"],
    "check-human": ["check"],
    "analyze-human": ["analyze"],
    "match-human": ["match"],
    "extend-human": ["extend"],
}

GEN_CELLS = [["--n", "40", "--r", "17"], ["--n", "46", "--r", "8"], ["--n", "30", "--r", "5"]]


def run(argv: list[str], source: Path = CORPUS) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv + ["--input", str(source)])
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_output_matches_golden(name):
    code, out = run(COMMANDS[name])
    expected_codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    assert code == expected_codes[name]
    assert out == (GOLDEN / f"{name}.out").read_text(encoding="ascii")


def test_gen_output_matches_golden():
    out = io.StringIO()
    with redirect_stdout(out):
        for cell in GEN_CELLS:
            assert main(["gen", *cell, "--count", "3"]) == 0
    assert out.getvalue() == (GOLDEN / "gen.out").read_text(encoding="ascii")


def test_t5_witnesses_are_half_cliques():
    # every T5 witness recorded in check.out is a clique of n/2, and T5
    # applies exactly where the exhaustive clique search finds one
    results = [json.loads(line) for line in (GOLDEN / "check.out").read_text().splitlines()]
    results = [obj for obj in results if obj["kind"] == "result" and "verdicts" in obj]
    applied = 0
    for obj in results:
        g = parse_graph6(obj["graph6"])
        t5 = next(v for v in obj["verdicts"] if v["rule"] == "T5-Clique")
        if t5["applies"]:
            c = t5["witness"]["vertices"]
            assert len(c) * 2 == g.n, obj["line"]
            assert all(g.has_edge(u, v) for u in c for v in c if u < v), obj["line"]
            applied += 1
        assert t5["applies"] == (g.n % 2 == 0 and 2 * g.degree(0) >= g.n
                                 and find_clique(g, g.n // 2) is not None), obj["line"]
    assert (len(results), applied) == (48, 11)


def test_printed_violators_are_tight(tmp_path):
    # every violator the CLI prints is Tutte-Berge tight against networkx:
    # odd(G - S) - |S| = n - 2 nu(G), where G is the line's graph for match,
    # and for extend the complement of the line's graph plus the printed
    # steps, the level it is stuck at; GJiu]o is stuck a level above its own r
    nx = pytest.importorskip("networkx")
    stuck = tmp_path / "stuck.g6"
    stuck.write_text("GJiu]o\n")
    code, out = run(["extend", "--json", "--certificates", "--target-r", "7",
                     "--backtrack", "1"], stuck)
    assert code == 1
    lines = [*(GOLDEN / "match.out").read_text().splitlines(),
             *(GOLDEN / "extend.out").read_text().splitlines(), *out.splitlines()]
    audited = 0
    for res in map(json.loads, lines):
        if not res.get("violator"):
            continue
        g = nx.from_graph6_bytes(res["graph6"].encode())
        if "stuck_r" in res:
            assert res["stuck_r"] == res["r"] + len(res["steps"]), res
            for step in res["steps"]:
                assert not any(g.has_edge(u, v) for u, v in step), res
                g.add_edges_from(step)
            assert {d for _, d in g.degree} == {res["stuck_r"]}, res
            g = nx.complement(g)
        s = set(res["violator"]["s"])
        odd = sum(len(c) % 2 for c in nx.connected_components(g.subgraph(set(g) - s)))
        nu = len(nx.max_weight_matching(g, maxcardinality=True))
        assert odd == res["violator"]["odd_count"], res
        assert odd - len(s) == len(g) - 2 * nu, res
        audited += 1
    assert audited == 24


if __name__ == "__main__":
    codes = {}
    for name, argv in COMMANDS.items():
        codes[name], out = run(argv)
        (GOLDEN / f"{name}.out").write_text(out, encoding="ascii")
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=1, sort_keys=True) + "\n")
