import contextlib
import io
import json
import re
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings

from leavitt import (
    DEFAULT_DIMENSION_CAP,
    ENUMERATION_CUTOFF,
    Graph,
    HereditarySaturatedSet,
    dump_graph_json,
    enumerate_hs_sets,
    ideals,
    is_regular,
    lattice_with_regularity,
    load_graph,
)
from leavitt import cli, hereditary, verify
from leavitt.cli import main
from leavitt.gfp import max_exact_prime

from .strategies import (
    diamond_chain,
    document_vertex_names,
    graphs,
    graphs_with_named_vertices,
    primes_around,
    ring,
)


@pytest.fixture
def graph_file(tmp_path, loop_with_exit):
    path = tmp_path / "loop_with_exit.json"
    path.write_text(dump_graph_json(loop_with_exit), encoding="utf-8")
    return str(path)


def write_graph(tmp_path, graph, name="g.json"):
    path = tmp_path / name
    path.write_text(dump_graph_json(graph), encoding="utf-8")
    return str(path)


def test_analyze_json(graph_file, capsys):
    assert main(["analyze", "--graph", graph_file, "--generators", "v", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["is_regular"] is False
    assert doc["quotient_condition_L"] is False
    assert doc["ideal"] == ["v"]
    assert doc["bar_closure"] == ["u", "v"]
    assert doc["perp_set"] == []
    assert doc["double_perp_set"] == ["u", "v"]


def test_analyze_text(graph_file, capsys):
    assert main(["analyze", "--graph", graph_file, "--generators", "v"]) == 0
    out = capsys.readouterr().out
    assert "regular: no" in out
    assert "quotient satisfies condition (L): no" in out


def test_analyze_zero_ideal(graph_file, capsys):
    assert main(["analyze", "--graph", graph_file, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ideal"] == []
    assert doc["is_regular"] is True


def test_analyze_long_ring(tmp_path, capsys):
    assert main(["analyze", "--graph", write_graph(tmp_path, ring(3000)), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["is_regular"] is True
    assert doc["quotient_condition_L"] is False


def test_analyze_unknown_vertex(graph_file, capsys):
    assert main(["analyze", "--graph", graph_file, "--generators", "zz"]) == 3
    assert "unknown vertex" in capsys.readouterr().err
    assert main(["analyze", "--graph", graph_file, "--generators", "zz,yy"]) == 3
    assert capsys.readouterr().err == "error: unknown vertex: 'yy'\n"


def test_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken", encoding="utf-8")
    assert main(["analyze", "--graph", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["a,b", " a", ""])
def test_an_id_that_generators_cannot_name_is_a_parse_error(tmp_path, capsys, name):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"vertices": [name, "a"], "edges": []}), encoding="utf-8")
    assert main(["analyze", "--graph", str(path), "--generators", "a"]) == 2
    assert capsys.readouterr().err.startswith(f"error: vertex id {name!r} holds a comma")


def test_an_id_with_white_space_inside_can_be_named(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"vertices": ["a b", "c"], "edges": []}), encoding="utf-8")
    assert main(["perp", "--graph", str(path), "--generators", " a b ,", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["ideal"] == ["a b"]


def test_graph_file_that_is_not_utf8(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"vertices": ["\xff"], "edges": []}')
    assert main(["analyze", "--graph", str(bad)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "UTF-8" in err[0]


def test_missing_file(tmp_path):
    assert main(["analyze", "--graph", str(tmp_path / "none.json")]) == 2


def test_lattice_text(graph_file, capsys):
    assert main(["lattice", "--graph", graph_file]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "3 hereditary saturated sets"
    assert "{} regular=yes" in out
    assert "{v} regular=no" in out
    assert "{u, v} regular=yes" in out


def test_lattice_json(graph_file, capsys):
    assert main(["lattice", "--graph", graph_file, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [entry["vertices"] for entry in doc] == [[], ["v"], ["u", "v"]]
    assert [entry["is_regular"] for entry in doc] == [True, False, True]


def test_lattice_dot(graph_file, capsys):
    assert main(["lattice", "--graph", graph_file, "--dot"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph hs_lattice {")
    assert out.count("->") == 2  # covering relations of the 3-chain
    assert "regular" in out


def test_lattice_dot_escapes_quotes_and_backslashes_in_labels(capsys):
    # calculus-10v's names include loop"q and sink\a
    path = Path(__file__).parent / "golden" / "calculus-10v.json"
    assert main(["lattice", "--graph", str(path), "--dot"]) == 0
    labels = re.findall(r"^  n\d+ \[label=(.*)\];$", capsys.readouterr().out, re.MULTILINE)
    flagged = list(lattice_with_regularity(load_graph(str(path))))
    assert len(labels) == len(flagged)
    for label, (h, reg) in zip(labels, flagged):
        assert re.fullmatch(r'"(?:[^"\\]|\\.)*"', label)
        body = label[1:-1]
        if reg:
            assert body.endswith("\\nregular")
            body = body[: -len("\\nregular")]
        assert re.sub(r"\\(.)", r"\1", body) == cli._format_names(h.sorted_vertices())


def naive_lattice_dot(g):
    """Referee: the Hasse diagram with b covering a when no third set lies
    strictly between them, tested over every triple of sets."""
    flagged = [(h, is_regular(h)) for h in enumerate_hs_sets(g)]
    lines = ["digraph hs_lattice {", "  rankdir=BT;"]
    for i, (h, reg) in enumerate(flagged):
        label = "{" + ", ".join(sorted(h.vertices)) + "}"
        if reg:
            label += "\\nregular"
        lines.append(f'  n{i} [label="{label}"];')
    for i, (a, _ra) in enumerate(flagged):
        for j, (b, _rb) in enumerate(flagged):
            if a.vertices < b.vertices and not any(
                a.vertices < c.vertices < b.vertices for c, _rc in flagged
            ):
                lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def lattice_dot(path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["lattice", "--graph", path, "--dot"]) == 0
    return out.getvalue()


# Loops and parallel edges included; one file, rewritten for each example.
@settings(max_examples=150)
@given(graphs(max_vertices=6, max_edges=10))
def test_lattice_dot_matches_cubic_cover_test(tmp_path_factory, g):
    path = write_graph(tmp_path_factory.getbasetemp(), g, "dot_referee.json")
    assert lattice_dot(path) == naive_lattice_dot(g)


def test_lattice_dot_closure_count_is_bounded(tmp_path, monkeypatch):
    # the Boolean lattice on 10 points: 1024 sets, each with at most 10 closures
    calls = []
    closure = cli.hs_closure

    def counted(graph, subset):
        calls.append(subset)
        return closure(graph, subset)

    monkeypatch.setattr(cli, "hs_closure", counted)
    path = write_graph(tmp_path, Graph(tuple(f"v{i}" for i in range(10)), ()))
    out = lattice_dot(path)
    assert len(calls) <= 1024 * 10
    assert out.count("->") == 10 * 2**9


def lattice_json_by_json_dumps(g):
    entries = [
        {"vertices": list(h.sorted_vertices()), "is_regular": reg}
        for h, reg in lattice_with_regularity(g)
    ]
    return json.dumps(entries, indent=2) + "\n"


# 15 names, with the isolated a, b, z and the loop l 19 vertices: the first
# three in sorted order ('"0', a, b) sit in the third chunk of a mask
THREE_CHUNK_CHAIN = ('"0', "c\\1", "t\t2", "é3", "日4") + tuple(f"v{i:02d}" for i in range(5, 15))


@settings(max_examples=50)
@given(graphs_with_named_vertices(document_vertex_names))
@example(Graph((), ()))
@example(Graph(('"',), ()))
@example(Graph(("\\",), (("l", "\\", "\\"),)))
# Two and three chunks of the lattice pass, with names that need escaping and
# names that do not.  Chains, a cycle, a loop with an exit and a few isolated
# vertices keep the listings short (24, 48 and 24 sets) and flag some sets
# irregular.
@example(Graph(
    ("a", "b", '"', "c\\d", "é", "ta\tb", "v1", "v2", "日"),
    (("e1", "a", "b"), ("e2", "b", "c\\d"), ("e3", '"', "é"), ("e4", "é", '"'),
     ("e5", "ta\tb", "v1"), ("e6", "v1", "v1"), ("e7", "v1", "v2")),
))
@example(Graph(
    tuple(f"v{i}" for i in range(10)),
    (("e1", "v0", "v1"), ("e2", "v1", "v2"), ("e3", "v3", "v4"), ("e4", "v4", "v3"),
     ("e5", "v5", "v5"), ("e6", "v5", "v6"), ("e7", "v6", "v7")),
))
@example(Graph(
    ("a", "b", "z", "l") + THREE_CHUNK_CHAIN,
    tuple((f"c{i}", src, dst) for i, (src, dst) in enumerate(zip(THREE_CHUNK_CHAIN, THREE_CHUNK_CHAIN[1:])))
    + (("loop", "l", "l"), ("exit", "l", THREE_CHUNK_CHAIN[-1])),
))
def test_lattice_json_is_byte_identical_to_json_dumps(tmp_path_factory, g):
    path = write_graph(tmp_path_factory.getbasetemp(), g, "json_writer.json")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["lattice", "--graph", path, "--json"]) == 0
    assert out.getvalue() == lattice_json_by_json_dumps(g)


def test_lattice_json_writer_on_the_empty_graph():
    # a listing is never empty (the empty set is always hereditary saturated),
    # and the empty set's member list is the one written as []
    out = io.StringIO()
    cli._write_lattice_json(Graph((), ()), out)
    assert out.getvalue() == json.dumps([{"vertices": [], "is_regular": True}], indent=2) + "\n"


def test_lattice_json_forms_no_set_objects(tmp_path, monkeypatch, capsys):
    # the writer reads the pass's member lists, so it checks no set object;
    # the wrapper that verify and --dot read still builds every set checked
    built = []
    check = HereditarySaturatedSet.__post_init__
    monkeypatch.setattr(HereditarySaturatedSet, "__post_init__", lambda h: built.append(check(h)))
    g = Graph(tuple(f"v{i:02d}" for i in range(12)), ())
    assert main(["lattice", "--graph", write_graph(tmp_path, g), "--json"]) == 0
    assert len(json.loads(capsys.readouterr().out)) == 4096
    assert built == []
    assert len(list(lattice_with_regularity(g))) == 4096
    assert len(built) == 4096


# A broken pass that forgets each component's edges treats every component
# as free, so it lists sets that break one half of the rule.  The mask-level
# check stops it at the first such set with the checking constructor's error.
@pytest.mark.parametrize("edge, first_broken", [(("a", "b"), ("a",)), (("b", "a"), ("a",))])
def test_lattice_json_refuses_a_broken_pass(tmp_path, monkeypatch, capsys, edge, first_broken):
    g = Graph(("a", "b"), (("e", *edge),))
    monkeypatch.setattr(hereditary, "_bits", lambda mask: iter(()))
    assert main(["lattice", "--graph", write_graph(tmp_path, g), "--json"]) == 5
    with pytest.raises(ValueError) as rejected:
        HereditarySaturatedSet(g, first_broken)
    assert capsys.readouterr().err == f"internal error: ValueError: {rejected.value}\n"


def test_lattice_empty_graph(tmp_path, capsys):
    path = write_graph(tmp_path, Graph((), ()))
    assert main(["lattice", "--graph", path]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "1 hereditary saturated sets"


# The listing is lazy, so its refusal comes at its first step: each mode must
# refuse before it writes anything.  Twenty vertices are still accepted.
def test_lattice_cutoff(tmp_path, capsys):
    big = write_graph(tmp_path, Graph(tuple(f"v{i:02d}" for i in range(ENUMERATION_CUTOFF + 1)), ()))
    chain = write_graph(tmp_path, Graph(
        tuple(f"v{i:02d}" for i in range(ENUMERATION_CUTOFF)),
        tuple((f"e{i}", f"v{i:02d}", f"v{i + 1:02d}") for i in range(ENUMERATION_CUTOFF - 1)),
    ), "chain.json")
    for mode in ([], ["--json"], ["--dot"]):
        assert main(["lattice", "--graph", big, *mode]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "capped at 20" in captured.err

        assert main(["lattice", "--graph", chain, *mode]) == 0
        out = capsys.readouterr().out
        if mode == ["--json"]:
            assert [len(entry["vertices"]) for entry in json.loads(out)] == [0, ENUMERATION_CUTOFF]
        elif mode == ["--dot"]:
            assert out.count("label=") == 2 and out.count("->") == 1
        else:
            assert out.splitlines()[0] == "2 hereditary saturated sets"


class _Discard:
    def write(self, text):
        pass


def test_lattice_json_holds_no_listing():
    # The 2,048 sets of an edgeless 11-vertex graph: the writer reads them one
    # at a time, so its peak is the pass's masks and tables (0.10 MiB);
    # building the whole listing of set objects first peaked at 1.59 MiB.
    g = Graph(tuple(f"v{i:02d}" for i in range(11)), ())
    tracemalloc.start()
    try:
        cli._write_lattice_json(g, _Discard())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**19


def test_quotient(graph_file, capsys):
    assert main(["quotient", "--graph", graph_file, "--generators", "v"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {
        "vertices": ["u"],
        "edges": [{"name": "f", "src": "u", "dst": "u"}],
    }


def test_perp_json(graph_file, capsys):
    assert main(["perp", "--graph", graph_file, "--generators", "v", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"ideal": ["v"], "bar_closure": ["u", "v"], "perp": []}


@pytest.mark.parametrize("command, searches", [("analyze", 2), ("perp", 1)])
def test_one_backward_search_per_link(monkeypatch, graph_file, capsys, command, searches):
    # analyze searches back from H and from perp(H); perp from H alone.  The
    # backward closure of H is the complement of perp(H), so it is read off, not
    # searched again.  The search itself is counted, so a caller holding its own
    # reference to ideals.bar_closure is counted too.
    calls = []
    real = Graph.backward_reach
    monkeypatch.setattr(Graph, "backward_reach", lambda g, s: calls.append(s) or real(g, s))
    assert main([command, "--graph", graph_file, "--generators", "v", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["bar_closure"] == ["u", "v"]
    assert len(calls) == searches


def test_verify_small(capsys):
    code = main(
        ["verify", "--max-vertices", "3", "--max-edges", "4", "--trials", "30"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert out.endswith("result: PASS\n")


def test_verify_json(capsys):
    code = main(
        ["verify", "--max-vertices", "2", "--max-edges", "2", "--trials", "10", "--json"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is True
    assert len(doc["rows"]) == 12


def test_verify_zero_trials(capsys):
    assert main(["verify", "--trials", "0"]) == 0
    out = capsys.readouterr().out
    assert "result: PASS" in out


@pytest.mark.parametrize("flag", ["--trials", "--max-vertices", "--max-edges"])
def test_verify_refuses_negative_bounds(flag, capsys):
    assert main(["verify", flag, "-1"]) == 3
    err = capsys.readouterr().err
    assert flag in err and "non-negative" in err


def test_verify_refuses_max_vertices_past_cutoff(capsys):
    assert main(["verify", "--max-vertices", "21", "--trials", "1", "--max-edges", "0"]) == 4
    assert "--max-vertices 21" in capsys.readouterr().err


def test_verify_refuses_a_non_prime(monkeypatch, capsys):
    with monkeypatch.context() as m:  # refused before any work is started
        m.setattr("leavitt.cli.run_verification", None)
        assert main(["verify", "--prime", "4"]) == 3
    assert capsys.readouterr().err == "error: 4 is not prime\n"
    assert main(["verify", "--prime", "5", "--max-vertices", "2", "--max-edges", "2", "--trials", "3"]) == 0
    assert capsys.readouterr().out.endswith("result: PASS\n")


@pytest.mark.parametrize("error", [ValueError("not hereditary"), RecursionError("too deep")])
def test_internal_error_exits_5(graph_file, monkeypatch, capsys, error):
    def crash(*args):
        raise error

    monkeypatch.setattr("leavitt.cli.analyze", crash)
    assert main(["analyze", "--graph", graph_file]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"internal error: {type(error).__name__}: {error}\n"


def test_verify_refuses_prime_past_the_int64_bound(capsys):
    _good, bad = primes_around(max_exact_prime(DEFAULT_DIMENSION_CAP))
    assert main(["verify", "--prime", str(bad)]) == 3
    assert "int64" in capsys.readouterr().err


def test_verify_is_byte_deterministic(capsys):
    argv = ["verify", "--max-vertices", "3", "--max-edges", "3", "--trials", "25"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second


def test_verify_reports_failure_with_exit_1(monkeypatch, capsys):
    monkeypatch.setattr(ideals, "bar_closure", lambda ideal: ideal.vertices)
    code = main(
        ["verify", "--max-vertices", "3", "--max-edges", "3", "--trials", "1"]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "result: FAIL" in out
    assert "counterexample[perp-vertex-set]:" in out


def test_oracle_check(tmp_path, capsys):
    g = Graph(("a", "b"), (("e", "a", "b"),))
    path = write_graph(tmp_path, g)
    assert main(["oracle-check", "--graph", path]) == 0
    out = capsys.readouterr().out
    assert "oracle dimension: 4 over GF(2)" in out
    assert "FAIL" not in out


def test_oracle_check_matches_its_golden_copy(capsys):
    # 7 vertices, sinks with 3, 6 and 14 paths: oracle dimension 241; GF(2)
    # takes the packed row-reduction kernel, GF(3) and GF(5) the pivot loop
    golden = Path(__file__).parent / "golden"
    for prime in ("5", "3", "2"):
        assert main(["oracle-check", "--graph", str(golden / "oracle-7v.json"), "--prime", prime]) == 0
        want = (golden / f"oracle-check-7v-prime{prime}.txt").read_text(encoding="utf-8")
        assert capsys.readouterr().out == want


def test_oracle_check_reads_each_distinct_ideals_vertex_set_once(monkeypatch, capsys):
    # two reads per lattice set (its annihilator and double annihilator),
    # then one per distinct ideal of the 2^7 subsets: at most 2^sinks of them
    graph_file = str(Path(__file__).parent / "golden" / "oracle-7v.json")
    graph = load_graph(graph_file)
    reads = []
    vertex_set_of = verify.vertex_set_of

    def counted(algebra, ideal):
        reads.append(ideal)
        return vertex_set_of(algebra, ideal)

    monkeypatch.setattr(verify, "vertex_set_of", counted)
    assert main(["oracle-check", "--graph", graph_file, "--prime", "5"]) == 0
    capsys.readouterr()
    lattice = enumerate_hs_sets(graph)
    assert 2 * len(lattice) < len(reads) <= 2 * len(lattice) + 2 ** len(graph.sinks())


# calculus-4v: a loop with an exit (u) next to a sink fed by two parallel
# edges (w -> x): the ideal of {v} is not regular and its annihilator {w, x}
# is not zero.  calculus-10v: four components, among them a loop with an exit
# and a 2-cycle with an exit, and vertex names that JSON must escape (a quote,
# a backslash, a tab, non-ASCII letters): 54 sets, 38 of them not regular.
# The ideal of its sink is not regular, and the quotient by it loses (L).
# Each golden copy is read against the graph its name starts with.
@pytest.mark.parametrize(
    "argv, golden_name",
    [
        (["analyze", "--generators", "v"], "calculus-4v-analyze.txt"),
        (["analyze", "--generators", "v", "--json"], "calculus-4v-analyze.json"),
        (["perp", "--generators", "v", "--json"], "calculus-4v-perp.json"),
        (["quotient", "--generators", "v"], "calculus-4v-quotient.json"),
        (["lattice", "--json"], "calculus-4v-lattice.json"),
        (["lattice", "--dot"], "calculus-4v-lattice.dot"),
        (["lattice", "--json"], "calculus-10v-lattice.json"),
        (["lattice"], "calculus-10v-lattice.txt"),
        (["analyze", "--generators", "sink\\a", "--json"], "calculus-10v-analyze.json"),
        (["lattice", "--dot"], "calculus-10v-lattice.dot"),
    ],
)
def test_calculus_command_matches_its_golden_copy(argv, golden_name, capsys):
    golden = Path(__file__).parent / "golden"
    graph_name = "-".join(golden_name.split("-")[:2]) + ".json"
    command, *flags = argv
    assert main([command, "--graph", str(golden / graph_name), *flags]) == 0
    assert capsys.readouterr().out == (golden / golden_name).read_text(encoding="utf-8")


def test_oracle_check_rejects_cycles(graph_file, capsys):
    assert main(["oracle-check", "--graph", graph_file]) == 3
    assert "acyclic" in capsys.readouterr().err


def test_oracle_check_dimension_cap(tmp_path, capsys):
    vertices = tuple(f"v{i}" for i in range(6))
    edges = []
    for i in range(5):
        edges.append((f"a{i}", f"v{i}", f"v{i+1}"))
        edges.append((f"b{i}", f"v{i}", f"v{i+1}"))
    path = write_graph(tmp_path, Graph(vertices, tuple(edges)))
    assert main(["oracle-check", "--graph", path]) == 4


def test_oracle_check_past_the_lattice_cutoff_is_a_resource_cutoff(tmp_path, capsys):
    # oracle dimension 21, under its cap, but one vertex past the lattice cutoff:
    # a refusal (exit 4), not five failed rows (exit 1).  The cutoff itself is
    # left untested: the lattice-count row scans all 2^20 vertex subsets.
    n = ENUMERATION_CUTOFF + 1
    path = write_graph(tmp_path, Graph(tuple(f"v{i}" for i in range(n)), ()))
    assert main(["oracle-check", "--graph", path]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"capped at {ENUMERATION_CUTOFF}" in captured.err


def test_oracle_check_refuses_a_chain_of_64_diamonds_at_once(tmp_path, capsys):
    # 2^64 paths into the sink: the cap is checked before any path is listed
    path = write_graph(tmp_path, diamond_chain(64))
    start = time.perf_counter()
    assert main(["oracle-check", "--graph", path]) == 4
    assert time.perf_counter() - start < 1
    assert "oracle dimension exceeds the cap" in capsys.readouterr().err


def test_oracle_check_nonprime(tmp_path, capsys):
    path = write_graph(tmp_path, Graph(("a",), ()))
    assert main(["oracle-check", "--graph", path, "--prime", "6"]) == 3


def test_oracle_check_prime_bound(tmp_path, capsys):
    good, bad = primes_around(max_exact_prime(DEFAULT_DIMENSION_CAP))
    path = write_graph(tmp_path, Graph(("a", "b"), (("e", "a", "b"),)))
    assert main(["oracle-check", "--graph", path, "--prime", str(good)]) == 0
    assert "FAIL" not in capsys.readouterr().out
    assert main(["oracle-check", "--graph", path, "--prime", str(bad)]) == 3
    assert "int64" in capsys.readouterr().err
