import argparse
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from regext import (
    RULES,
    TutteViolator,
    add_matching,
    build,
    complement,
    components_after_deletion,
    enumerate_regular,
    format_graph6,
    is_valid_matching,
    parse_graph6,
    require_regular,
    sample_spanning_biclique_regular,
)
from regext.cli import EXIT_STDOUT_CLOSED, main
from families import (
    bridged_cubic,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    balloon_cubic_pair,
    disjoint_union,
    path_graph,
    petersen_graph,
    star_graph,
)


def _load_script(name: str):
    path = Path(__file__).resolve().parent.parent / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


VERIFY_CLAIMS = _load_script("verify_claims")
QUICK = VERIFY_CLAIMS.QUICK
CENSUS_10 = Path(__file__).resolve().parent / "golden" / "census-10.txt"

# `checked` of every QUICK row, pinned from verify as it stood before the
# rule table; every row has zero counterexamples and no skipped cells
QUICK_CHECKED = {"T1": 17, "T2": 40, "T3": 15, "T4": 25, "T5": 15, "L": 60,
                 "C": 34, "L0-balloon": 101, "INEQ": 24575}


def run_cli(capsys, argv, stdin_lines=None, monkeypatch=None):
    if stdin_lines is not None:
        import io

        monkeypatch.setattr(sys, "stdin", io.StringIO("\n".join(stdin_lines) + "\n"))
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out.splitlines(), out.err


def src_env(**extra) -> dict:
    """The environment for a child ``python`` that imports this regext."""
    import regext

    return {**os.environ, **extra,
            "PYTHONPATH": os.path.dirname(os.path.dirname(regext.__file__))}


def run_into_closed_pipe(args, unbuffered=""):
    """Exit code and stderr of ``python args`` writing to a pipe whose read
    end is closed before the child starts, so its first write to stdout
    fails; ``unbuffered`` "1" makes that write the first ``print``."""
    env = src_env(PYTHONUNBUFFERED=unbuffered)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, *args], stdout=write_end,
                              stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    return proc.returncode, proc.stderr


def json_lines(lines):
    return [json.loads(line) for line in lines]


class TestExtendCommand:
    def test_c6_succeeds(self, capsys, monkeypatch):
        g6 = format_graph6(cycle_graph(6))
        code, out, _ = run_cli(capsys, ["extend", "--json", "--certificates"],
                               [g6], monkeypatch)
        assert code == 0
        header, result, summary = json_lines(out)
        assert header["kind"] == "header" and header["command"] == "extend"
        assert result["ok"] and result["final_r"] == 3
        final = parse_graph6(result["final"])
        steps = result["trace"]["steps"]
        cur = cycle_graph(6)
        for step in steps:
            cur = add_matching(cur, [tuple(e) for e in step])
        assert cur == final
        assert summary["ok"] == 1 and summary["failed"] == 0

    def test_k33_fails_with_violator(self, capsys, monkeypatch):
        g6 = format_graph6(complete_bipartite(3, 3))
        code, out, _ = run_cli(capsys, ["extend", "--json"], [g6], monkeypatch)
        assert code == 1
        _, result, summary = json_lines(out)
        assert not result["ok"]
        assert result["violator"] == {"type": "tutte-violator", "s": [], "odd_count": 2}
        assert summary["failed"] == 1

    def test_stuck_steps_replay_to_the_violator(self, capsys, monkeypatch):
        # a greedy dead end at r = 5 for the 4-regular GJiu]o: the violator
        # is one of the complement a level up, reached by the printed step
        code, out, _ = run_cli(capsys, ["extend", "--json", "--certificates",
                                        "--target-r", "7", "--backtrack", "1"],
                               ["GJiu]o"], monkeypatch)
        assert code == 1
        result = json_lines(out)[1]
        assert (result["r"], result["stuck_r"], len(result["steps"])) == (4, 5, 1)
        stuck = parse_graph6(result["graph6"])
        for step in result["steps"]:
            stuck = add_matching(stuck, [tuple(e) for e in step])
        assert require_regular(stuck) == 5
        violator = TutteViolator(frozenset(result["violator"]["s"]),
                                 result["violator"]["odd_count"])
        assert violator.verify(complement(stuck))
        # one alternative per level does not get past the dead end, two do
        code, out, _ = run_cli(capsys, ["extend", "--target-r", "7", "--backtrack", "1"],
                               ["GJiu]o"], monkeypatch)
        assert code == 1 and out[0].startswith("line 1: not extendable at r=5")
        code, out, _ = run_cli(capsys, ["extend", "--target-r", "7", "--backtrack", "2"],
                               ["GJiu]o"], monkeypatch)
        assert (code, out[0]) == (0, "line 1: extended r=4 -> 7: G~~~~{")

    def test_multi_byte_order(self, capsys, monkeypatch):
        # orders above 62 take graph6's four-byte header, in and out, and
        # n = 100 decodes as two column blocks of 64, four tiles; networkx
        # reads each final graph, which must be 60-regular and keep its input
        nx = pytest.importorskip("networkx")
        code, drawn, _ = run_cli(capsys, ["gen", "--n", "100", "--r", "5", "--count", "3"])
        assert code == 0
        code, out, _ = run_cli(capsys, ["extend", "--target-r", "60", "--json",
                                        "--certificates"], drawn, monkeypatch)
        results = [res for res in json_lines(out) if res["kind"] == "result"]
        assert code == 0 and len(results) == 3
        for res in results:
            assert res["ok"], res
            g = nx.from_graph6_bytes(res["graph6"].encode())
            final = nx.from_graph6_bytes(res["final"].encode())
            assert len(g) == len(final) == 100, res["line"]
            assert {d for _, d in final.degree} == {60}, res["line"]
            assert all(final.has_edge(u, v) for u, v in g.edges), res["line"]

    def test_target_r(self, capsys, monkeypatch, tmp_path):
        g = build(8, list(complete_graph(4).edges())
                  + [(u + 4, v + 4) for u, v in complete_graph(4).edges()]
                  + [(i, i + 4) for i in range(4)])
        path = tmp_path / "in.g6"
        path.write_text(format_graph6(g) + "\n")
        code, out, _ = run_cli(capsys, ["extend", "--input", str(path),
                                        "--target-r", "7", "--json"])
        assert code == 0
        result = json_lines(out)[1]
        assert result["final_r"] == 7
        assert parse_graph6(result["final"]) == complete_graph(8)

    def test_parse_error_exit_2(self, capsys, monkeypatch):
        code, out, err = run_cli(capsys, ["extend"], ["C~", "!!notgraph6!!"],
                                 monkeypatch)
        assert code == 2
        assert "line 2" in err

    def test_bad_line_costs_only_its_own_result(self, capsys, monkeypatch):
        lines = [format_graph6(cycle_graph(4)), "!!notgraph6!!",
                 format_graph6(complete_graph(4))]
        code, out, err = run_cli(capsys, ["extend", "--json"], lines, monkeypatch)
        assert code == 2
        assert err.startswith("error: line 2: ") and err.count("\n") == 1
        results = json_lines(out)
        assert [(r["line"], r["ok"]) for r in results[1:-1]] == [(1, True), (3, False)]
        assert results[-1] == {"kind": "summary", "ok": 1, "failed": 1}

    def test_missing_input_file(self, capsys, tmp_path):
        missing = tmp_path / "absent.g6"
        code, out, err = run_cli(capsys, ["extend", "--input", str(missing)])
        assert code == 2 and out == []
        assert err == f"error: {missing}: No such file or directory\n"

    @pytest.mark.parametrize("raw", [b"\xff", "\u00e9".encode()])
    def test_non_ascii_input_file(self, capsys, tmp_path, raw):
        # a stray byte fails its own line, as it does on stdin; line 1 is
        # still answered
        path = tmp_path / "in.g6"
        path.write_bytes(b"A_\n" + raw + b"\n")
        code, out, err = run_cli(capsys, ["extend", "--input", str(path)])
        assert code == 2
        assert out == ["line 1: error: target degree 2 outside 1..1",
                       "summary: ok=0 failed=1"]
        assert err.startswith("error: line 2: non-ASCII character in graph6 line")

    def test_one_search_per_stuck_level(self, capsys, monkeypatch):
        # the stuck level's first search also gives the reported violator
        from regext import extension, matching

        calls = []
        for module, name in ((extension, "complement"), (matching, "_match_array"),
                             (matching, "_gallai_edmonds_violator")):
            fn = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *args, fn=fn, name=name:
                                calls.append(name) or fn(*args))
        code, out, _ = run_cli(capsys, ["extend", "--json"],
                               [format_graph6(complete_bipartite(3, 3))], monkeypatch)
        assert code == 1
        assert json_lines(out)[1]["stuck_r"] == 3
        assert calls == ["complement", "_match_array", "_gallai_edmonds_violator"]

    def test_empty_two_vertex_graph(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, ["extend"], ["A?"], monkeypatch)
        assert code == 0
        assert out[0] == "line 1: extended r=0 -> 1: A_"

    def test_nonregular_error(self, capsys, monkeypatch):
        g6 = format_graph6(build(3, [(0, 1)]))
        code, out, _ = run_cli(capsys, ["extend"], [g6], monkeypatch)
        assert code == 1

    def test_strategy_flag_is_usage_error(self, capsys, monkeypatch):
        # every level of the ladder takes the blossom matcher; no option
        # chooses another
        code, out, err = run_cli(capsys, ["extend", "--strategy", "dirac"],
                                 [format_graph6(cycle_graph(6))], monkeypatch)
        assert code == 2 and out == [] and "--strategy" in err

    def test_log_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("REGEXT_LOG", "debug")
        code, _, _ = run_cli(capsys, ["gen", "--n", "4", "--r", "2"])
        assert code == 0


class TestCheckCommand:
    def test_c6(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, ["check", "--json"],
                               [format_graph6(cycle_graph(6))], monkeypatch)
        assert code == 0
        result = json_lines(out)[1]
        rules = {v["rule"]: v for v in result["verdicts"]}
        assert rules["T1-Dirac"]["applies"]
        assert rules["T1-Dirac"]["conclusion"] == "extendable"

    def test_k33_witness(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, ["check", "--json"],
                               [format_graph6(complete_bipartite(3, 3))], monkeypatch)
        assert code == 0
        rules = {v["rule"]: v for v in json_lines(out)[1]["verdicts"]}
        t4 = rules["T4-Impossible"]
        assert t4["applies"]
        assert sorted(map(len, (t4["witness"]["part_a"], t4["witness"]["part_b"]))) \
            == [3, 3]

    def test_nonregular_exit_1(self, capsys, monkeypatch):
        code, _, _ = run_cli(capsys, ["check"],
                             [format_graph6(build(3, [(0, 1)]))], monkeypatch)
        assert code == 1


class TestMatchCommand:
    def test_petersen(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, ["match", "--json", "--certificates"],
                               [format_graph6(petersen_graph())], monkeypatch)
        assert code == 0
        result = json_lines(out)[1]
        assert result["perfect"] and result["size"] == 5
        m = frozenset(tuple(e) for e in result["matching"])
        assert is_valid_matching(petersen_graph(), m, perfect=True)

    def test_one_search_per_line(self, capsys, monkeypatch):
        # the violator and the printed maximum matching come from one search
        from regext import matching

        searches = []
        search = matching._match_array
        monkeypatch.setattr(matching, "_match_array",
                            lambda g: searches.append(g.n) or search(g))
        lines = [format_graph6(g) for g in
                 (cycle_graph(5), star_graph(3), petersen_graph(), complete_bipartite(3, 3))]
        code, out, _ = run_cli(capsys, ["match", "--json", "--certificates"],
                               lines, monkeypatch)
        assert code == 1
        assert [r["perfect"] for r in json_lines(out)[1:-1]] == [False, False, True, True]
        assert searches == [5, 4, 10, 6]

    def test_odd_cycle_violator(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, ["match", "--json"],
                               [format_graph6(cycle_graph(5))], monkeypatch)
        assert code == 1
        result = json_lines(out)[1]
        assert not result["perfect"] and result["size"] == 2
        assert result["violator"]["s"] == []

    @pytest.mark.parametrize("encoding", ["utf-8", "ascii"])
    def test_non_utf8_stdin(self, encoding):
        # stdin is decoded as --input is, whatever PYTHONIOENCODING says
        import os
        import subprocess
        import sys

        import regext

        env = {**os.environ, "PYTHONIOENCODING": encoding,
               "PYTHONPATH": os.path.dirname(os.path.dirname(regext.__file__))}
        code = "import sys, regext.cli; sys.exit(regext.cli.main(['match']))"
        proc = subprocess.run([sys.executable, "-c", code], input=b"A_\n\xff\n",
                              capture_output=True, env=env, timeout=60)
        assert proc.returncode == 2
        assert proc.stdout == b"line 1: perfect matching with 1 edges\nsummary: ok=1 failed=0\n"
        assert proc.stderr.startswith(b"error: line 2: non-ASCII character in graph6 line")


class TestAnalyzeCommand:
    def test_balloon_graph(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, ["analyze", "--json"],
                               [format_graph6(balloon_cubic_pair())], monkeypatch)
        assert code == 0
        result = json_lines(out)[1]
        assert result["bridges"] == [[4, 9]]
        assert result["b"] == 2
        assert result["r"] == 3 and result["connected"]
        assert sorted(map(len, result["balloons"])) == [5, 5]
        assert result["clique_number"] == 3

    def test_connected_flag(self, capsys, monkeypatch):
        # the empty graph counts as connected
        lines = ["?", format_graph6(disjoint_union(cycle_graph(3), cycle_graph(3))),
                 format_graph6(petersen_graph())]
        code, out, _ = run_cli(capsys, ["analyze", "--json"], lines, monkeypatch)
        assert code == 0
        assert [(r["connected"], len(r["components"])) for r in json_lines(out)[1:-1]] == \
            [(True, 0), (False, 2), (True, 1)]

    def test_bridge_search_only_where_a_bridge_can_be(self, capsys, monkeypatch):
        # an even-r graph and a T4 graph (r = 11, n = 20 < 2r + 4) take their
        # components off the balloon pass; the cubic graph on 2r + 4 = 10
        # vertices with a bridge, and K_2 (r = 1), whose one edge is a bridge,
        # each need one bridge search and one component pass
        from regext import cli, structure

        calls = []
        search = structure.find_bridges
        comps = cli.components_after_deletion
        monkeypatch.setattr(structure, "find_bridges",
                            lambda g: calls.append("find_bridges") or search(g))
        monkeypatch.setattr(cli, "components_after_deletion",
                            lambda g: calls.append("components") or comps(g))
        for g, want in ((cycle_graph(8), []), (complete_graph(5), []),
                        (sample_spanning_biclique_regular(20, 11, 3, odd_parts=True), []),
                        (parse_graph6("I^o??KFB_"), ["find_bridges", "components"]),
                        (parse_graph6("A_"), ["find_bridges", "components"])):
            calls.clear()
            code, out, _ = run_cli(capsys, ["analyze"], [format_graph6(g)], monkeypatch)
            assert (code, calls) == (0, want), g
            assert ("bridges=1 b=2" in out[0]) == bool(want), out[0]

    def test_components_field(self, capsys, monkeypatch):
        graphs = [path_graph(7), star_graph(5), bridged_cubic(16, 2), petersen_graph(),
                  disjoint_union(cycle_graph(4), complete_graph(4))]
        code, out, _ = run_cli(capsys, ["analyze", "--json"], map(format_graph6, graphs),
                               monkeypatch)
        assert code == 0
        for g, result in zip(graphs, json_lines(out)[1:-1], strict=True):
            want = components_after_deletion(g)
            assert result["components"] == [sorted(c) for c in want.blocks], g
            assert result["connected"] == (len(want) <= 1)

    def test_one_clique_search_per_line(self, capsys, monkeypatch):
        from regext import structure

        def no_find_clique(g, k):
            raise AssertionError("analyze called find_clique")

        searches = []
        search = structure._clique_search
        monkeypatch.setattr(structure, "find_clique", no_find_clique)
        monkeypatch.setattr(structure, "_clique_search",
                            lambda g, floor, stop: searches.append(g.n) or search(g, floor, stop))
        lines = [format_graph6(g) for g in
                 (balloon_cubic_pair(), petersen_graph(), complete_graph(6))]
        code, out, _ = run_cli(capsys, ["analyze", "--json"], lines, monkeypatch)
        assert code == 0
        assert [r["clique_number"] for r in json_lines(out)[1:-1]] == [3, 2, 6]
        assert searches == [10, 10, 6]

    def test_certificates_revalidate(self, capsys, monkeypatch):
        # every graph6 string in a report re-parses to a graph on which the
        # attached certificate validates
        g6 = format_graph6(complete_bipartite(3, 3))
        code, out, _ = run_cli(capsys, ["extend", "--json"], [g6], monkeypatch)
        result = json_lines(out)[1]
        host = parse_graph6(result["graph6"])
        from regext import complement

        v = TutteViolator(frozenset(result["violator"]["s"]),
                          result["violator"]["odd_count"])
        assert v.verify(complement(host))


class TestGenCommand:
    def test_enumerate_known_count(self, capsys):
        code, out, _ = run_cli(capsys, ["gen", "--n", "6", "--r", "3", "--enumerate"])
        assert code == 0
        assert len(out) == 2
        for line in out:
            assert parse_graph6(line).n == 6

    def test_sampling_deterministic(self, capsys):
        code, out1, _ = run_cli(capsys, ["gen", "--n", "12", "--r", "3",
                                         "--count", "3", "--seed", "9"])
        code, out2, _ = run_cli(capsys, ["gen", "--n", "12", "--r", "3",
                                         "--count", "3", "--seed", "9"])
        assert out1 == out2 and len(out1) == 3

    def test_parity_error_exit_2(self, capsys):
        code, _, err = run_cli(capsys, ["gen", "--n", "5", "--r", "3"])
        assert code == 2 and "odd" in err

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_enumerate_nonpositive_order_exit_2(self, capsys, n):
        code, out, err = run_cli(capsys, ["gen", "--n", n, "--r", "0", "--enumerate"])
        assert code == 2 and out == []
        assert err == f"error: need 0 <= r < n, got r=0, n={n}\n"

    def test_pipes_into_match(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, ["gen", "--n", "8", "--r", "3",
                                        "--count", "2", "--seed", "1"])
        code, out2, _ = run_cli(capsys, ["match"], out, monkeypatch)
        assert code in (0, 1)
        assert len(out2) == 3  # two results plus summary

    def test_enumeration_pipes_into_check(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, ["gen", "--n", "10", "--r", "3", "--enumerate"])
        assert code == 0
        code, _, _ = run_cli(capsys, ["check", "--json"], out, monkeypatch)
        assert code == 0

    @pytest.mark.parametrize("flag,classes", [([], 60), (["--connected"], 59)])
    def test_enumeration_audited_by_networkx(self, capsys, flag, classes):
        # 60 classes of 4-regular graphs on 10 vertices, 59 of them connected
        # (OEIS A006820), each 4-regular and none isomorphic to another,
        # tested within Weisfeiler-Lehman buckets; colour refinement alone
        # cannot tell regular graphs of one degree apart, so it starts from
        # each vertex's triangle count
        nx = pytest.importorskip("networkx")
        code, out, _ = run_cli(capsys, ["gen", "--n", "10", "--r", "4", "--enumerate", *flag])
        assert code == 0 and len(out) == classes
        buckets = {}
        for line in out:
            g = nx.from_graph6_bytes(line.encode())
            assert len(g) == 10 and {d for _, d in g.degree} == {4}, line
            assert nx.is_connected(g) or not flag, line
            nx.set_node_attributes(g, {v: str(t) for v, t in nx.triangles(g).items()}, "t")
            buckets.setdefault(nx.weisfeiler_lehman_graph_hash(g, node_attr="t"), []).append(g)
        for same in buckets.values():
            for i, g in enumerate(same):
                assert not any(nx.is_isomorphic(g, h) for h in same[:i]), \
                    nx.to_graph6_bytes(g)

    @pytest.mark.parametrize("unbuffered", ["", "1"])
    def test_closed_stdout_ends_quietly(self, unbuffered):
        # `regext gen ... | head -1`: no traceback once the reader is gone,
        # whether the failed write is the final flush or a print in cmd_gen
        code, err = run_into_closed_pipe(
            ["-m", "regext.cli", "gen", "--n", "10", "--r", "3", "--enumerate"], unbuffered)
        assert (code, err) == (EXIT_STDOUT_CLOSED, b"")


class TestVerifyCommand:
    def test_ineq_rule(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "--rule", "INEQ",
                                        "--r-range", "16..40"])
        assert code == 0
        assert "counterexamples 0" in out[0]

    def test_t1_exhaustive_small(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "--rule", "T1",
                                        "--n-range", "4..8", "--json"])
        assert code == 0
        summary = json_lines(out)[-1]
        assert summary["failed"] == 0 and summary["checked"] == 17

    def test_t1_builds_one_dirac_cycle_per_instance(self, capsys, monkeypatch):
        # T1 is checked by the paper's route: each instance's complement
        # gets a Hamiltonian cycle, whose even edges are its perfect matching
        from regext import extension

        cycles = []
        dirac_cycle = extension.dirac_cycle
        monkeypatch.setattr(extension, "dirac_cycle",
                            lambda gc: cycles.append(gc) or dirac_cycle(gc))
        code, out, _ = run_cli(capsys, ["verify", "--rule", "T1", "--json"])
        summary = json_lines(out)[-1]
        assert code == 0 and summary["failed"] == 0
        assert summary["checked"] == len(cycles) == len(set(cycles)) > 17

    # (2, 0) is in T1's region: its extension is K_2, found by the ladder
    # since a Hamiltonian cycle needs n >= 3
    def test_t1_smallest_orders(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "--rule", "T1",
                                        "--n-range", "2..4", "--json"])
        assert code == 0
        summary = json_lines(out)[-1]
        assert summary["failed"] == 0 and summary["checked"] == 3

    def test_l_rule_small(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "--rule", "L",
                                        "--r-range", "17",
                                        "--n-range", "18..20",
                                        "--samples", "3", "--json"])
        assert code == 0
        summary = json_lines(out)[-1]
        assert summary["failed"] == 0 and summary["checked"] == 6

    def test_quick_rows_listed(self):
        assert set(QUICK) == set(QUICK_CHECKED)

    @pytest.mark.parametrize("rule", sorted(QUICK_CHECKED))
    def test_quick_row(self, capsys, rule):
        code, out, _ = run_cli(capsys, ["verify", "--rule", rule, "--json", *QUICK[rule]])
        summary = json_lines(out)[-1]
        assert code == 0
        assert (summary["checked"], summary["failed"], summary["skipped"]) == \
            (QUICK_CHECKED[rule], 0, 0)

    def test_balloons_once_per_graph(self, capsys, monkeypatch):
        # the degree and balloon count belong to the graph: one balloon
        # count per checked graph, not one per vertex set
        from regext import structure

        structure.balloon_bound_checker.cache_clear()
        graphs = []
        count = structure._balloon_count
        monkeypatch.setattr(structure, "_balloon_count",
                            lambda g, r: graphs.append(g) or count(g, r))
        code, out, _ = run_cli(capsys, ["verify", "--rule", "L0-balloon", "--json",
                                        *QUICK["L0-balloon"]])
        summary = json_lines(out)[-1]
        assert (code, summary["checked"], summary["failed"]) == (0, 101, 0)
        assert len(graphs) == 101

    @pytest.mark.parametrize("argv,checked,skipped", [
        # empty hypothesis region: no even-even cell below n = 18
        (["--rule", "T2", "--n-range", "4..6"], 0, 1),
        # r = 13 and r = 15 are outside L (odd r > 15)
        (["--rule", "L", "--r-range", "13..19", "--n-range", "18..40", "--samples", "2"],
         46, 2),
        # n = 10..34 has no split into two 17-regular components
        (["--rule", "C", "--r-range", "17", "--n-range", "10..70", "--samples", "1"],
         17, 13),
        # no samples means no graphs, as for L
        (["--rule", "C", "--r-range", "17", "--samples", "0"], 0, 0),
        # a reversed range is an empty request for every plan, not a clean run
        (["--rule", "T1", "--n-range", "10..4"], 0, 1),
        (["--rule", "L0-balloon", "--n-range", "10..4"], 0, 1),
        (["--rule", "L", "--r-range", "17", "--n-range", "10..4"], 0, 1),
    ])
    def test_notices(self, capsys, argv, checked, skipped):
        code, out, _ = run_cli(capsys, ["verify", "--json", *argv])
        summary = json_lines(out)[-1]
        assert code == 0
        assert (summary["checked"], summary["failed"], summary["skipped"]) == \
            (checked, 0, skipped)

    def test_t4_checks_only_its_rule(self, capsys, monkeypatch):
        # confirming T4 must not run the other rules' witness searches
        from regext import extension

        def no_clique(g):
            raise AssertionError("T4 check ran T5's clique witness")

        monkeypatch.setattr(extension, "half_clique", no_clique)
        code, out, _ = run_cli(capsys, ["verify", "--rule", "T4", "--json", *QUICK["T4"]])
        assert code == 0
        assert json_lines(out)[-1]["checked"] == QUICK_CHECKED["T4"]

    def test_t4_check_on_complete_graph(self):
        # T4's cells include r = n - 1, where every split draws K_n and the
        # ladder has no rung; the check matches the complement directly
        t4 = next(rule for rule in RULES if rule.short == "T4")
        for seed in range(3):
            g = sample_spanning_biclique_regular(6, 5, seed, True)
            assert g == complete_graph(6) and t4.confirm(g) is None

    @pytest.mark.parametrize("rule,finder,broken", [
        ("T3", "spanning_biclique", None),
        ("T5", "half_clique", None),
        ("C", "is_connected", True),
    ])
    def test_broken_witness_finder_is_caught(self, capsys, monkeypatch, rule, finder, broken):
        # each drawn instance carries the rule's structure by construction,
        # so a finder that misses it makes every instance a counterexample,
        # though the conclusion still holds
        from regext import extension

        monkeypatch.setattr(extension, finder, lambda *args, **kwargs: broken)
        code, out, _ = run_cli(capsys, ["verify", "--rule", rule, "--json", *QUICK[rule]])
        lines = json_lines(out)
        assert code == 1
        assert lines[-1]["failed"] == lines[-1]["checked"] == QUICK_CHECKED[rule]
        assert {line["counterexample"]["certificate"]["type"] for line in lines[1:-1]} == \
            {"rule-not-detected"}

    @pytest.mark.parametrize("rule,finder,failed", [
        ("T3", "spanning_biclique", 15),
        ("T4", "spanning_biclique", 18),
        ("T5", "half_clique", 11),
    ])
    def test_swapped_witness_is_caught(self, capsys, monkeypatch, rule, finder, failed):
        # a finder that moves one vertex across its witness still detects
        # the rule, but the witness no longer holds on the graph: the lowest
        # vertex of one side changes places with the lowest of the other.
        # Where every split is a witness (K_n, cliques joined completely)
        # the swapped witness still holds, so not every instance fails
        from regext import extension, structure

        find = getattr(extension, finder)

        def swapped(g, **kwargs):
            w = find(g, **kwargs)
            if isinstance(w, structure.BicliqueWitness):
                a, b = min(w.part_a), min(w.part_b)
                return structure.BicliqueWitness(w.part_a - {a} | {b}, w.part_b - {b} | {a})
            a, b = min(w), min(set(range(g.n)) - w)
            return w - {a} | {b}

        monkeypatch.setattr(extension, finder, swapped)
        code, out, _ = run_cli(capsys, ["verify", "--rule", rule, "--json", *QUICK[rule]])
        lines = json_lines(out)
        assert code == 1
        assert (lines[-1]["checked"], lines[-1]["failed"]) == (QUICK_CHECKED[rule], failed)
        assert {line["counterexample"]["certificate"]["type"] for line in lines[1:-1]} == \
            {"invalid-witness"}

    def test_even_parts_are_caught_for_t4(self, capsys, monkeypatch):
        # T4 needs both parts odd: a finder that drops that requirement
        # returns an even split on two of the quick row's graphs
        from regext import extension

        find = extension.spanning_biclique
        monkeypatch.setattr(extension, "spanning_biclique", lambda g, **kwargs: find(g))
        code, out, _ = run_cli(capsys, ["verify", "--rule", "T4", "--json", *QUICK["T4"]])
        lines = json_lines(out)
        assert (code, lines[-1]["failed"]) == (1, 2)
        assert {line["counterexample"]["certificate"]["type"] for line in lines[1:-1]} == \
            {"invalid-witness"}

    def test_pool_not_loaded_at_import(self):
        import os
        import subprocess
        import sys

        import regext

        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(regext.__file__))}
        code = ("import sys, regext.cli; "
                "sys.exit('concurrent.futures.process' in sys.modules)")
        assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0

    def test_jobs_flag_is_usage_error(self, capsys):
        # verify draws and checks one instance at a time; it has no pool
        code, out, err = run_cli(capsys, ["verify", "--rule", "T1", "--jobs", "2"])
        assert code == 2 and out == [] and "--jobs" in err

    def test_counterexample_names_instance_and_certificate(self, capsys, monkeypatch):
        from regext import extension

        # T1's check takes the even edges of a Dirac cycle; an empty set is
        # no perfect matching
        monkeypatch.setattr(extension, "cycle_to_matching", lambda order: frozenset())
        code, out, _ = run_cli(capsys, ["verify", "--rule", "T1", "--n-range", "4",
                                        "--json"])
        lines = json_lines(out)
        assert code == 1 and lines[-1]["failed"] == lines[-1]["checked"] == 2
        # T1's region at n = 4 is 2r < 4
        graphs = [format_graph6(g) for r in (0, 1) for g in enumerate_regular(4, r)]
        assert [line["counterexample"] for line in lines[1:-1]] == [
            {"graph6": g6, "certificate": {"type": "invalid-matching"}}
            for g6 in graphs]
        # T2's check matches the complement and reports its violator; T2's
        # region at n = 18 is r = 0
        monkeypatch.setattr(extension, "perfect_matching", lambda g: TutteViolator(frozenset(), 1))
        code, out, _ = run_cli(capsys, ["verify", "--rule", "T2", "--n-range", "18",
                                        "--samples", "1", "--json"])
        lines = json_lines(out)
        assert code == 1 and [line["counterexample"] for line in lines[1:-1]] == [
            {"graph6": format_graph6(build(18, [])),
             "certificate": {"type": "tutte-violator", "s": [], "odd_count": 1}}]

    @pytest.mark.parametrize("rule,extra", [
        ("T2", ["--n-range", "4..40"]),
        ("L", ["--r-range", "17", "--n-range", "18..28"]),
    ])
    def test_instances_drawn_lazily(self, rule, extra):
        from dataclasses import replace
        from itertools import islice

        from regext import cli

        opts = dict(zip(extra[::2], extra[1::2]))
        drawn = []

        def sample(n, r, seed):
            drawn.append((n, r))
            return plan.sample(n, r, seed)

        plan = cli._PLANS[rule]
        counting = replace(plan, sample=sample)

        def instances(samples):
            args = argparse.Namespace(n_range=opts.get("--n-range"),
                                      r_range=opts.get("--r-range"),
                                      samples=samples, seed=0)
            return cli._verify_instances(counting, args, [])

        first = list(islice(instances(10 ** 9), 3))
        assert len(drawn) == 3
        assert first == list(instances(3))[:3]

    def test_logging_leaves_root_alone(self, capsys, monkeypatch):
        import logging

        root = logging.getLogger()
        before = (root.level, list(root.handlers))
        # C has no split of n = 10 into two 17-regular components
        argv = ["verify", "--rule", "C", "--r-range", "17", "--n-range", "10",
                "--samples", "1"]
        _, _, err = run_cli(capsys, argv)
        assert (root.level, root.handlers) == before and "skipped" not in err
        monkeypatch.setenv("REGEXT_LOG", "info")
        _, _, err = run_cli(capsys, argv)
        assert (root.level, root.handlers) == before
        assert "regext.cli INFO skipped: n=10, r=17 skipped" in err

    def test_bad_range_message(self, capsys):
        code, out, err = run_cli(capsys, ["verify", "--rule", "T1", "--n-range", "4..x"])
        assert code == 2 and out == []
        assert err.strip() == "error: bad range '4..x'"

    @pytest.mark.parametrize("rule,flag", [
        ("T1", "--r-range"), ("T2", "--r-range"), ("L0-balloon", "--r-range"),
        ("INEQ", "--n-range"),
    ])
    def test_unread_range_is_usage_error(self, capsys, rule, flag):
        # the header would echo the range, and the rule would ignore it
        code, out, err = run_cli(capsys, ["verify", "--rule", rule, "--json",
                                          flag, "4..6"])
        assert code == 2 and out == []
        assert err == f"error: {flag} does not apply to rule {rule}\n"

    def test_reports_byte_identical(self, capsys, monkeypatch):
        argv = ["check", "--json"]
        lines = [format_graph6(g) for g in
                 (cycle_graph(6), complete_bipartite(3, 3), complete_graph(4))]
        _, out1, _ = run_cli(capsys, argv, lines, monkeypatch)
        _, out2, _ = run_cli(capsys, argv, lines, monkeypatch)
        assert out1 == out2


@pytest.mark.parametrize("argv", [
    ["extend", "--backtrack", "-5"],
    ["gen", "--n", "8", "--r", "3", "--count", "-2"],
    ["verify", "--rule", "T1", "--samples", "-1"],
])
def test_negative_count_is_usage_error(capsys, monkeypatch, argv):
    code, out, err = run_cli(capsys, argv, [format_graph6(cycle_graph(6))], monkeypatch)
    assert code == 2 and out == []
    assert err.count("\n") == 1 and err.startswith("error: --")


class TestCachedParser:
    """One argument parser serves every ``main`` call of a process; nothing
    of one call's arguments or environment reaches the next."""

    def test_help_twice_same_bytes(self, capsys):
        outs = []
        for _ in range(2):
            code, out, err = run_cli(capsys, ["--help"])
            assert code == 0 and err == ""
            outs.append(out)
        assert outs[0] == outs[1] and outs[0][0].startswith("usage: regext")

    def test_negative_backtrack_after_extend(self, capsys, monkeypatch):
        lines = [format_graph6(cycle_graph(6))]
        code, out, _ = run_cli(capsys, ["extend", "--backtrack", "1"], lines, monkeypatch)
        assert code == 0 and out
        code, out, err = run_cli(capsys, ["extend", "--backtrack", "-1"], lines, monkeypatch)
        assert code == 2 and out == []
        assert err == "error: --backtrack must be >= 0, got -1\n"

    def test_log_level_read_per_call(self, capsys, monkeypatch):
        # C has no split of n = 10 into two 17-regular components
        argv = ["verify", "--rule", "C", "--r-range", "17", "--n-range", "10",
                "--samples", "1"]
        notice = "regext.cli INFO skipped: n=10, r=17 skipped"
        for level in ("info", "", "info", "error"):
            monkeypatch.setenv("REGEXT_LOG", level)
            _, _, err = run_cli(capsys, argv)
            assert (notice in err) == (level == "info"), level


def test_verify_claims_quick_all_clear(capsys):
    assert VERIFY_CLAIMS.main(["--quick"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "all clear"


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_verify_claims_closed_stdout_ends_quietly(unbuffered):
    code, err = run_into_closed_pipe([VERIFY_CLAIMS.__file__, "--quick"], unbuffered)
    assert (code, err) == (EXIT_STDOUT_CLOSED, b"")


class TestCensusScript:
    census = _load_script("extension_census")

    @pytest.mark.parametrize("max_n", ["11", "12"])
    def test_order_above_cap_is_usage_error(self, capsys, max_n):
        # rejected before the first row, not with a GraphError once the
        # rows reach the cap
        with pytest.raises(SystemExit) as exc:
            self.census.main(["--max-n", max_n])
        out = capsys.readouterr()
        assert exc.value.code == 2 and out.out == ""
        assert out.err.splitlines()[-1].endswith(
            f"error: --max-n {max_n} is above the enumeration cap n = 10")

    @pytest.mark.parametrize("unbuffered", ["", "1"])
    def test_closed_stdout_ends_quietly(self, unbuffered):
        code, err = run_into_closed_pipe(
            [str(Path(self.census.__file__)), "--max-n", "6"], unbuffered)
        assert (code, err) == (EXIT_STDOUT_CLOSED, b"")

    @pytest.mark.parametrize("n,r,forced", [
        # 2K_2 extends, yet T4 is made to apply
        (4, 1, "T4"),
        # K_{3,3} is stuck and T4 applies to it; T1 is made to apply too
        (6, 3, "T1"),
    ])
    def test_soundness_breach_raises(self, monkeypatch, n, r, forced):
        from regext.extension import RULES, TheoremVerdict

        rule = next(rule for rule in RULES if rule.short == forced)
        classify = self.census.classify
        monkeypatch.setattr(self.census, "classify", lambda g: [
            *classify(g), TheoremVerdict(rule.name, True, rule.conclusion)])
        with pytest.raises(AssertionError, match="soundness breach"):
            self.census.census_cell(n, r)

    def test_soundness_breach_raises_under_optimize(self):
        # python -O strips assert statements; the census check must survive
        code = f"""
import importlib.util
from regext.extension import RULES, TheoremVerdict
spec = importlib.util.spec_from_file_location("census", {self.census.__file__!r})
census = importlib.util.module_from_spec(spec)
spec.loader.exec_module(census)
t4 = next(rule for rule in RULES if rule.short == "T4")
classify = census.classify
census.classify = lambda g: [*classify(g), TheoremVerdict(t4.name, True, t4.conclusion)]
census.census_cell(4, 1)
"""
        proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                              text=True, env=src_env(), timeout=120)
        assert proc.returncode == 1
        assert proc.stderr.splitlines()[-1] == (
            "AssertionError: soundness breach at (n, r) = (4, 1): C`")

    def test_rows_below_cap_match_recorded_table(self, capsys):
        assert self.census.main(["--max-n", "10"]) == 0
        assert capsys.readouterr().out == CENSUS_10.read_text()

    def test_table_under_optimize(self):
        # python -O strips assert statements: neither the library nor the
        # census's soundness check may rest on them
        proc = subprocess.run([sys.executable, "-O", self.census.__file__, "--max-n", "10"],
                              capture_output=True, text=True, env=src_env(), timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == CENSUS_10.read_text()
