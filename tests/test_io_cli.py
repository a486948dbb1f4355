import json
import tracemalloc
from pathlib import Path

import pytest

from jrainbow import (
    Colouring,
    FormatError,
    build_graph,
    export_dot,
    parse_dimacs,
    parse_edgelist,
    write_dimacs,
    write_edgelist,
)
from jrainbow import cli, enumerate_graphs
from jrainbow.cli import main
from jrainbow.io import MAX_FILE_BYTES, MAX_VERTICES, read_graph
from jrainbow.theorems import check_all, report

from conftest import family
from oracles import naive_components, naive_rainbow_path_exists


# ---------------------------------------------------------------------------
# Edge-list format
# ---------------------------------------------------------------------------

def test_edgelist_roundtrip_byte_identical():
    g = family("wheel", 6)
    text = write_edgelist(g)
    assert write_edgelist(parse_edgelist(text)) == text


def test_edgelist_parses_comments_and_blanks():
    g = parse_edgelist("# triangle\n3 3\n\n0 1\n1 2\n0 2\n")
    assert g.n == 3 and g.m == 3


def test_edgelist_errors_carry_line_numbers():
    with pytest.raises(FormatError) as err:
        parse_edgelist("3 1\n0 x\n")
    assert err.value.line == 2
    with pytest.raises(FormatError) as err:
        parse_edgelist("3 2\n0 1\n")
    assert "declared 2 edges" in str(err.value)
    with pytest.raises(FormatError):
        parse_edgelist("")
    with pytest.raises(FormatError) as err:
        parse_edgelist("2 1\n0 2\n")
    assert err.value.line == 2


# ---------------------------------------------------------------------------
# DIMACS format
# ---------------------------------------------------------------------------

def test_dimacs_shifts_to_zero_based():
    g = parse_dimacs("c demo\np edge 3 2\ne 1 2\ne 2 3\n")
    assert g.edges == ((0, 1), (1, 2))


def test_dimacs_roundtrip():
    g = family("complete", 4)
    assert parse_dimacs(write_dimacs(g)).edges == g.edges
    assert write_dimacs(g).startswith("p edge 4 6\ne 1 2\n")


def test_dimacs_errors():
    with pytest.raises(FormatError) as err:
        parse_dimacs("e 1 2\n")
    assert "before problem line" in str(err.value)
    with pytest.raises(FormatError):
        parse_dimacs("p edge 2 1\ne 1 1\n")
    with pytest.raises(FormatError):
        parse_dimacs("c nothing else\n")
    # the edge count must be a count, though the 'e' lines need not match it
    for count in ("x", "-5"):
        with pytest.raises(FormatError) as err:
            parse_dimacs(f"c demo\np edge 3 {count}\ne 1 2\n")
        assert err.value.line == 2
    assert parse_dimacs("p edge 3 7\ne 1 2\n").edges == ((0, 1),)


def test_parsers_reject_vertex_counts_above_the_limit():
    assert MAX_VERTICES == 64
    assert parse_edgelist(f"{MAX_VERTICES} 0\n").n == MAX_VERTICES
    assert parse_dimacs(f"p edge {MAX_VERTICES} 0\n").n == MAX_VERTICES
    for parse, text in (
        (parse_edgelist, "# huge\n1000000000 0\n"),
        (parse_dimacs, "c huge\np edge 1000000000 0\n"),
        (parse_edgelist, f"{MAX_VERTICES + 1} 0\n"),
        (parse_dimacs, f"p edge {MAX_VERTICES + 1} 0\n"),
    ):
        with pytest.raises(FormatError) as err:
            parse(text)
        assert err.value.line == text.count("\n")
        assert f"exceeds the limit of {MAX_VERTICES}" in str(err.value)


@pytest.mark.parametrize("parse, header, line", [
    (parse_edgelist, "2 100000\n", "0 1\n"),
    (parse_dimacs, "p edge 2 1\n", "e 1 2\n"),
], ids=["edgelist", "dimacs"])
def test_parsers_hold_less_than_their_text(parse, header, line):
    # a long file of one repeated edge: the parser walks its lines one at a
    # time and keeps the edge once, so it never holds a list of the lines
    text = header + line * 100_000
    tracemalloc.start()
    try:
        g = parse(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.edges == ((0, 1),)
    assert peak < len(text)


@pytest.mark.parametrize("name, text", [
    ("huge.edges", "1000000000 0\n"),
    ("huge.col", "p edge 1000000000 0\n"),
])
def test_cli_rejects_huge_vertex_count_exit_2(tmp_path, capsys, name, text):
    path = tmp_path / name
    path.write_text(text)
    assert main(["analyze", str(path)]) == 2
    err = capsys.readouterr().err
    assert "line 1" in err and f"exceeds the limit of {MAX_VERTICES}" in err


@pytest.mark.parametrize("argv", [["analyze"], ["rainbow", "--all-pairs"]])
def test_cli_rejects_a_file_over_the_byte_cap_exit_2(tmp_path, capsys, argv):
    path = tmp_path / "long.edges"
    path.write_bytes(b"1 0\n" + b"#" * (MAX_FILE_BYTES - 4) + b"\n")
    assert path.stat().st_size == MAX_FILE_BYTES + 1
    assert main([argv[0], str(path), *argv[1:]]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {path}: file is larger than {MAX_FILE_BYTES} bytes\n"


def test_file_of_comments_at_the_byte_cap_parses(tmp_path):
    path = tmp_path / "long.edges"
    path.write_bytes(b"2 1\n0 1\n" + b"#" * (MAX_FILE_BYTES - 9) + b"\n")
    assert path.stat().st_size == MAX_FILE_BYTES
    assert read_graph(path) == build_graph(2, [(0, 1)])


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------

def test_dot_single_vertex():
    out = export_dot(build_graph(1, []), Colouring(1, (1,)))
    assert 'colourclass="c1"' in out


def test_dot_two_vertices_distinct_palette():
    out = export_dot(family("complete", 2), Colouring(2, (1, 2)))
    fills = [line.split('fillcolor="')[1].split('"')[0]
             for line in out.splitlines() if "fillcolor=" in line and "colourclass" in line]
    assert len(fills) == 2 and fills[0] != fills[1]


def test_dot_bold_witness_path():
    c6 = family("cycle", 6)
    out = export_dot(c6, Colouring(3, (1, 2, 3, 1, 2, 3)), [(0, 5, 4, 3, 2, 1)])
    bold = [line for line in out.splitlines() if "style=bold" in line]
    assert len(bold) == 5


def test_dot_uncoloured_plain():
    out = export_dot(family("path", 2))
    assert "colourclass" not in out


def test_dot_palette_cycles_beyond_twelve():
    g = build_graph(13, [])
    col = Colouring(13, tuple(range(1, 14)))
    out = export_dot(g, col)
    assert 'colourclass="c13"' in out


def test_dot_deterministic():
    g = family("wheel", 7)
    assert export_dot(g) == export_dot(g)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_family_cycle6_json(capsys):
    rc = main(["family", "cycle", "6", "--json", "-"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    comp = doc["components"][0]
    assert comp["chi"] == 2
    assert comp["j"]["value"] == 3
    assert doc["whole"]["connectivity"]["chi-exists"]["connected"] is True
    assert doc["family"]["oracle_j"]["value"] == 3


def test_cli_family_cycle5_reports_no_j(capsys):
    rc = main(["family", "cycle", "5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "no J-colouring" in out


def test_cli_expect_admits_exit_code(capsys):
    assert main(["family", "cycle", "5", "--expect-admits"]) == 1
    assert main(["family", "cycle", "6", "--expect-admits"]) == 0
    capsys.readouterr()


def test_cli_analyze_roundtrip(tmp_path, capsys):
    path = tmp_path / "k4.edges"
    path.write_text(write_edgelist(family("complete", 4)))
    rc = main(["analyze", str(path), "--json", "-", "--dot", str(tmp_path / "k4.dot")])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["whole"]["jc"]["value"] == 4
    dot = (tmp_path / "k4.dot").read_text()
    classes = [line.split('colourclass="')[1].split('"')[0]
               for line in dot.splitlines() if "colourclass" in line]
    assert sorted(classes) == ["c1", "c2", "c3", "c4"]


def test_cli_analyze_dimacs(tmp_path, capsys):
    path = tmp_path / "k3.col"
    path.write_text("p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n")
    rc = main(["analyze", str(path), "--json", "-"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["graph"]["n"] == 3 and doc["graph"]["m"] == 3


@pytest.mark.parametrize("name, fmt, text", [
    ("k3.col", "edgelist", "3 3\n0 1\n1 2\n0 2\n"),
    ("k3.edges", "dimacs", "p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n"),
])
def test_cli_analyze_format_overrides_the_suffix(tmp_path, capsys, name, fmt, text):
    path = tmp_path / name
    path.write_text(text)
    assert main(["analyze", str(path), "--json", "-"]) == 2
    assert "line 1" in capsys.readouterr().err
    assert main(["analyze", str(path), "--format", fmt, "--json", "-"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["graph"] == {"n": 3, "m": 3, "components": 1}


def test_cli_malformed_file_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.edges"
    path.write_text("2 1\n0 0\n")
    rc = main(["analyze", str(path)])
    assert rc == 2
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["analyze"], ["rainbow", "--all-pairs"]])
def test_cli_file_that_is_not_utf8_exit_2(tmp_path, capsys, argv):
    path = tmp_path / "utf16.edges"
    path.write_bytes(b"2 1\n\xff\xfe0 1\n")
    assert main([argv[0], str(path), *argv[1:]]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {path}: line 2: not UTF-8: byte 0xff at offset 4\n"


def test_read_graph_accepts_a_byte_order_mark(tmp_path):
    path = tmp_path / "bom.edges"
    path.write_bytes(b"\xef\xbb\xbf3 2\n0 1\n1 2\n")
    assert read_graph(path) == build_graph(3, [(0, 1), (1, 2)])


def test_cli_file_with_a_byte_order_mark_names_the_bad_byte_exactly(tmp_path, capsys):
    path = tmp_path / "bom.edges"
    path.write_bytes(b"\xef\xbb\xbf2 1\n\xff0 1\n")
    assert main(["analyze", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {path}: line 2: not UTF-8: byte 0xff at offset 7\n"


def test_cli_rainbow_pair(tmp_path, capsys):
    path = tmp_path / "c6.edges"
    path.write_text(write_edgelist(family("cycle", 6)))
    rc = main(["rainbow", str(path), "--pair", "0", "1", "--json", "-"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["colouring_source"] == "j-colouring"
    assert doc["pairs"][0]["exists"] is True


def test_cli_rainbow_all_pairs_cross_component(tmp_path, capsys):
    g = build_graph(3, [(0, 1)])
    path = tmp_path / "g.edges"
    path.write_text(write_edgelist(g))
    rc = main(["rainbow", str(path), "--all-pairs", "--json", "-"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    cross = [e for e in doc["pairs"] if e["pair"] == [0, 2]][0]
    assert cross["exists"] is False and cross["reason"] == "different components"


def test_cli_rainbow_all_pairs_match_the_path_oracle(tmp_path, capsys, all_graphs_to_5):
    # every pair of every graph with n <= 5, disconnected ones included,
    # against an exhaustive path scan under the colouring the JSON reports
    path = tmp_path / "g.edges"
    for g in all_graphs_to_5:
        path.write_text(write_edgelist(g))
        assert main(["rainbow", str(path), "--all-pairs", "--json", "-"]) == 0
        doc = json.loads(capsys.readouterr().out)
        local = {}
        for ci, (verts, comp) in enumerate(naive_components(g)):
            col = Colouring(**doc["colourings"][ci])
            for i, v in enumerate(verts):
                local[v] = (ci, i, comp, col)
        for entry in doc["pairs"]:
            (cu, lu, comp, col), (cv, lv, _, _) = (local[x] for x in entry["pair"])
            expected = cu == cv and naive_rainbow_path_exists(comp, col, lu, lv)
            assert entry["exists"] == expected, (g.edges, entry)
            if expected:
                steps = entry["path"]
                assert (steps[0], steps[-1]) == tuple(entry["pair"])
                assert len(set(steps)) == len(steps)
                assert all(g.has_edge(a, b) for a, b in zip(steps, steps[1:]))
                assert {col.assignment[local[x][1]] for x in steps} == set(range(1, col.ell + 1))


def test_cli_rainbow_fallback_colouring(tmp_path, capsys):
    path = tmp_path / "c5.edges"
    path.write_text(write_edgelist(family("cycle", 5)))
    rc = main(["rainbow", str(path), "--all-pairs", "--json", "-"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["colouring_source"] == "chromatic-convention"
    assert all(e["exists"] for e in doc["pairs"])


def test_cli_rainbow_dot_colours_match_json_colouring(tmp_path, capsys):
    # no J-colouring and an infeasible convention: the paths are searched
    # under the chromatic witness, and the DOT must draw that colouring
    path = tmp_path / "g.edges"
    path.write_text(write_edgelist(build_graph(5, [(0, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])))
    dot_path = tmp_path / "g.dot"
    rc = main(["rainbow", str(path), "--all-pairs", "--json", "-", "--dot", str(dot_path)])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["colourings"] == [{"ell": 3, "assignment": [2, 1, 1, 2, 3]}]
    assert sum(e["exists"] for e in doc["pairs"]) == 9
    classes = {}
    for line in dot_path.read_text().splitlines():
        if "colourclass" in line:
            classes[int(line.split()[0])] = line.split('colourclass="c')[1].split('"')[0]
    assert classes == {v: str(c) for v, c in enumerate(doc["colourings"][0]["assignment"])}


@pytest.mark.parametrize("selection", (["--all-pairs"], ["--pair", "0", "1"]))
def test_cli_rainbow_rejects_the_empty_graph_exit_2(tmp_path, capsys, selection):
    path = tmp_path / "empty.edges"
    path.write_text("0 0\n")
    assert main(["rainbow", str(path), *selection, "--json", "-"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: componentwise numbers of the empty graph are undefined\n"


def test_cli_check_json_and_modes(capsys):
    rc = main(["check", "--max-n", "4", "--theorems", "T2,T10", "--connected-only"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert [v["theorem"] for v in doc["verdicts"]] == ["T2", "T2", "T10", "T10"]
    assert all(v["corpus"] == "connected graphs n<=4" for v in doc["verdicts"])


def test_cli_check_rejects_an_empty_claim_selection_exit_2(capsys):
    assert main(["check", "--max-n", "3", "--theorems", ","]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: no claim selected\n"


PETERSEN = str(Path(__file__).parent / "goldens" / "petersen.edges")

# every command with each of its output flags
DESTINATION_CASES = [
    pytest.param(argv, flag, id=f"{argv[0]}{flag[1:]}")
    for argv, flags in (
        (["analyze", PETERSEN], ("--json", "--dot")),
        (["family", "cycle", "5"], ("--json", "--dot")),
        (["rainbow", PETERSEN, "--all-pairs"], ("--json", "--dot")),
        (["check", "--max-n", "8"], ("--json",)),
    )
    for flag in flags
]


@pytest.mark.parametrize("argv, flag", DESTINATION_CASES)
@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_cli_rejects_a_bad_destination_before_any_work(
    tmp_path, capsys, monkeypatch, argv, flag, where
):
    def unreachable(*args, **kwargs):
        raise AssertionError("a graph was read, built, enumerated or checked")

    for name in ("read_graph", "generate", "GraphFacts", "enumerate_graphs", "check_all"):
        monkeypatch.setattr(cli, name, unreachable)
    if where == "directory":
        target, message = tmp_path, f"{flag}: {str(tmp_path)!r} is a directory"
    else:
        target = tmp_path / "no" / "such" / "x.out"
        message = f"{flag}: no directory {str(target.parent)!r}"
    assert main([*argv, flag, str(target)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("argv", [
    ["analyze", PETERSEN, "--dot"],
    ["rainbow", PETERSEN, "--all-pairs", "--json", "-", "--dot"],
    ["check", "--max-n", "3", "--text", "--json"],
], ids=["analyze", "rainbow", "check"])
def test_cli_failed_write_after_the_work_leaves_stdout_empty(tmp_path, capsys, monkeypatch, argv):
    def full_disk(self, *args, **kwargs):
        raise OSError("No space left on device")

    monkeypatch.setattr(Path, "write_text", full_disk)
    assert main([*argv, str(tmp_path / "out")]) == 2
    assert capsys.readouterr() == ("", "error: No space left on device\n")


def test_cli_check_text_prints_the_table_and_writes_the_json(tmp_path, capsys):
    target = tmp_path / "report.json"
    assert main(["check", "--max-n", "5", "--text", "--json", str(target)]) == 0
    corpus = [g for n in range(1, 6) for g in enumerate_graphs(n)]
    verdicts = check_all(corpus, corpus="graphs n<=5")
    assert capsys.readouterr().out == report(verdicts, "text")
    golden = Path(__file__).parent / "goldens" / "check_max_n5_all.json"
    assert target.read_bytes() == golden.read_bytes()


def test_cli_check_runs_a_repeated_claim_once(capsys):
    assert main(["check", "--max-n", "3", "--theorems", "T2,T1,T2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [(v["theorem"], v["mode"]) for v in doc["verdicts"]] == [
        ("T1", None), ("T2", "convention"), ("T2", "exists-max"),
    ]


@pytest.mark.parametrize("argv, n", [
    (["path", "65"], 65),
    (["complete", "90"], 90),
    (["complete_multipartite", "40", "30"], 70),
    (["forest_union", "60", "5"], 65),
])
def test_cli_family_rejects_vertex_counts_above_the_limit(capsys, argv, n):
    assert main(["family", *argv]) == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert f"vertex count {n} exceeds the limit of {MAX_VERTICES}" in captured.err


def test_cli_bad_family_params(capsys):
    rc = main(["family", "cycle", "2"])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_cli_modes_filter(capsys):
    rc = main(["family", "cycle", "6", "--modes", "convention,chi-exists", "--json", "-"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert sorted(doc["components"][0]["rainbow_neighbourhood"]) == ["convention"]
    assert sorted(doc["whole"]["connectivity"]) == ["chi-exists"]
    assert main(["family", "cycle", "6", "--modes", "bogus"]) == 2
    capsys.readouterr()


def test_analysis_document_internally_consistent():
    from jrainbow import analyse_graph
    from jrainbow.graphs import build_graph as bg

    # triangle + C_5 + isolated vertex: one non-admitting component
    g = bg(9, [(0, 1), (1, 2), (0, 2),
               (3, 4), (4, 5), (5, 6), (6, 7), (3, 7)])
    doc = analyse_graph(g)
    jc = doc["whole"]["jc"]
    per = jc["per_component"]
    assert per == [3, None, 1]  # absent values are explicit, never zero
    assert jc["admits"] is False and jc["value"] is None
    ok = bg(4, [(0, 1), (1, 2), (0, 2)])
    doc = analyse_graph(ok)
    jc = doc["whole"]["jc"]
    assert jc["admits"] is True
    assert jc["value"] == max(v for v in jc["per_component"] if v is not None)
    assert [c["j"]["value"] for c in doc["components"]] == jc["per_component"]
