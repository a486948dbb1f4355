import json
import random
import weakref
from collections import Counter

import pytest

from jrainbow import (
    THEOREM_IDS,
    build_graph,
    check,
    check_all,
    chromatic_number,
    decompose,
    enumerate_graphs,
    enumerate_trees,
    j_number,
    jc_number,
    jstarc_number,
    report,
)
from jrainbow import analysis, colouring, connectivity, graphs, jcolouring, neighbourhoods, theorems
from jrainbow.theorems import THEOREM_MODES

from conftest import bench_module, family
from oracles import (
    naive_all_yield,
    naive_chromatic,
    naive_components,
    naive_surjective_proper_colourings,
)


@pytest.fixture(scope="module")
def corpus_to_5():
    return [g for n in range(1, 6) for g in enumerate_graphs(n)]


def test_definition_true_claims_hold(corpus_to_5):
    for tid in ("T1", "T5", "T7", "T8"):
        verdict = check(tid, corpus_to_5, corpus="graphs n<=5")
        assert verdict.status == "HOLDS", verdict
        assert verdict.tested == len(corpus_to_5)


def test_t7_reads_the_minimum_degree_before_the_rainbow_verdict(corpus_to_5, monkeypatch):
    # a J-colouring has at most delta + 1 colours, so no component with
    # J >= 3 has delta < 2, and T7 never needs the verdict search
    def unreachable(*args):
        raise AssertionError("T7 ran a rainbow verdict search")

    monkeypatch.setattr(analysis, "rainbow_connecting_colouring", unreachable)
    assert check("T7", corpus_to_5, corpus="graphs n<=5").status == "HOLDS"


def test_t4_checker_finds_the_order_two_gap():
    # the strict inequality genuinely fails on trees without internal
    # vertices: J(K_2) = J*(K_2) = 2, so the checker must say so
    trees = [t for n in range(2, 7) for t in enumerate_trees(n)]
    verdict = check("T4", trees, corpus="trees 2<=n<=6")
    assert verdict.status == "COUNTEREXAMPLE"
    witness = verdict.witnesses[0]
    assert witness.n == 2 and witness.edges == ((0, 1),)
    # the witness re-verifies through the solvers
    g = witness.graph()
    assert jc_number(g).value == jstarc_number(g).value == 2


def test_t4_holds_on_trees_with_internal_vertices():
    trees = [t for n in range(3, 9) for t in enumerate_trees(n)]
    verdict = check("T4", trees, corpus="trees 3<=n<=8")
    assert verdict.status == "HOLDS"
    assert verdict.tested == len(trees)


def test_t2_needs_a_mode(corpus_to_5):
    with pytest.raises(ValueError, match="mode"):
        check("T2", corpus_to_5)


def test_t2_convention_skips_infeasible():
    double_star = build_graph(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)])
    verdict = check("T2", [double_star], mode="convention")
    assert verdict.skipped == 1 and verdict.tested == 0
    verdict = check("T2", [double_star], mode="exists-max")
    assert verdict.skipped == 0 and verdict.tested == 1


# a connected 8-vertex graph with chi = 3 and J = 4: a chromatic colouring
# never makes every vertex yield, yet a 4-colouring does
ORDER_8_WITNESS = build_graph(8, [
    (0, 2), (0, 3), (0, 5), (1, 2), (1, 3), (1, 4), (2, 7),
    (3, 6), (4, 6), (4, 7), (5, 6), (5, 7), (6, 7),
])


def test_t2_exists_max_and_t3_refuted_at_order_eight():
    g = ORDER_8_WITNESS
    assert g in enumerate_graphs(8)  # the corpus representative itself
    for tid, mode in (("T2", "exists-max"), ("T3", None)):
        verdict = check(tid, [g], corpus="order-8 witness", mode=mode)
        assert verdict.status == "COUNTEREXAMPLE", (tid, mode)
        assert dict(verdict.witnesses[0].details)["admits"] is True
    # the same facts from the brute-force oracles alone
    assert naive_chromatic(g) == 3
    assert any(naive_all_yield(g, c) for c in naive_surjective_proper_colourings(g, 4))
    assert not any(naive_all_yield(g, c) for c in naive_surjective_proper_colourings(g, 3))


def test_t10_c5_probe_is_a_counterexample():
    c5 = family("cycle", 5)
    for mode in THEOREM_MODES["T10"]:
        verdict = check("T10", [c5], corpus="C_5 probe", mode=mode)
        assert verdict.status == "COUNTEREXAMPLE"
        details = dict(verdict.witnesses[0].details)
        assert details["admits"] is False
        assert details["chi_rainbow_connected"] is True


def test_witnesses_reverify(corpus_to_5):
    # every emitted witness must reproduce its recorded refutation
    from jrainbow import is_chi_rainbow_connected

    for verdict in check_all(corpus_to_5, corpus="graphs n<=5"):
        for witness in verdict.witnesses:
            g = witness.graph()
            details = dict(witness.details)
            if verdict.theorem == "T4":
                assert jc_number(g).value == details["jc"]
                assert jstarc_number(g).value == details["jstarc"]
                assert not details["jc"] < details["jstarc"]
            elif verdict.theorem == "T10":
                assert jc_number(g).admits == details["admits"]
                chi_conn = is_chi_rainbow_connected(g, details["chi_mode"]).connected
                assert chi_conn == details["chi_rainbow_connected"]
            else:
                pytest.fail(
                    f"unexpected counterexample for {verdict.theorem}: {witness}"
                )


def test_determinism_across_runs_and_workers(corpus_to_5):
    ref = report(check_all(corpus_to_5, corpus="x"), "json")
    again = report(check_all(corpus_to_5, corpus="x"), "json")
    assert ref == again


def test_report_does_not_depend_on_corpus_order(all_graphs_to_6):
    # facts records are shared across the corpus, so a component first met
    # in another graph must still give the same verdicts and witnesses
    shuffled = list(all_graphs_to_6)
    random.Random(16).shuffle(shuffled)
    assert shuffled != all_graphs_to_6
    ref = report(check_all(all_graphs_to_6, corpus="x"), "json")
    assert report(check_all(shuffled, corpus="x"), "json") == ref


def test_shared_facts_give_the_verdicts_of_fresh_checks(corpus_to_5):
    shared = check_all(corpus_to_5, corpus="x")
    fresh = [
        check(tid, corpus_to_5, corpus="x", mode=mode)
        for tid in THEOREM_IDS
        for mode in THEOREM_MODES[tid]
    ]
    assert [v.to_json_dict() for v in shared] == [v.to_json_dict() for v in fresh]


@pytest.mark.parametrize("run", [check_all, lambda corpus: [check("T1", corpus)]],
                         ids=["check_all", "check-T1"])
def test_live_graph_records_never_exceed_one_block(run, monkeypatch):
    # each block's records are read by every claim and then dropped, so
    # while any claim runs, at most one block of graph records is alive
    corpus = [g for n in range(1, 8) for g in enumerate_graphs(n)]
    assert len(corpus) == 1252
    live = weakref.WeakSet()

    class Tracked(analysis.GraphFacts):
        def __init__(self, *args):
            super().__init__(*args)
            live.add(self)

    sizes = []
    for tid, checker in theorems._CHECKERS.items():
        def sizing(facts, mode, _checker=checker):
            sizes.append(len(live))
            return _checker(facts, mode)

        monkeypatch.setitem(theorems._CHECKERS, tid, sizing)
    monkeypatch.setattr(theorems, "GraphFacts", Tracked)
    verdicts = run(corpus)
    assert len(sizes) == len(corpus) * len(verdicts)
    assert max(sizes) <= theorems._BLOCK


def test_records_of_largest_order_connected_graphs_leave_with_their_block(monkeypatch):
    # such a graph is its own only component, which no other graph of the
    # corpus can hold, so the component table does not keep its record
    corpus = [g for n in range(1, 8) for g in enumerate_graphs(n)]
    live = weakref.WeakSet()

    class Tracked(analysis.ComponentFacts):
        def __init__(self, comp):
            super().__init__(comp)
            if comp.n == 7:
                live.add(self)

    sizes = []

    def sizing(facts, mode):
        sizes.append(len(live))
        return None

    monkeypatch.setattr(analysis, "ComponentFacts", Tracked)
    monkeypatch.setitem(theorems._CHECKERS, "T1", sizing)
    check("T1", corpus)
    assert len(sizes) == len(corpus)
    assert 0 < max(sizes) <= theorems._BLOCK


@pytest.mark.parametrize("run", [check_all, lambda corpus: [check("T1", corpus)]],
                         ids=["check_all", "check-T1"])
def test_failures_kept_never_exceed_a_cap_plus_one_block(run, monkeypatch):
    # T1 fails every graph, and its details live while its failure is kept:
    # only those that can still be among the first WITNESS_CAP, plus one
    # block's new ones before the cut
    corpus = [g for n in range(1, 8) for g in enumerate_graphs(n)]
    live = weakref.WeakSet()
    sizes = []

    class Details(dict):  # set members by identity
        __eq__ = object.__eq__
        __hash__ = object.__hash__

    def failing(facts, mode):
        details = Details(n=facts.graph.n)
        live.add(details)
        sizes.append(len(live))
        return "fails", details

    monkeypatch.setitem(theorems._CHECKERS, "T1", failing)
    verdict = run(corpus)[0]
    assert verdict.theorem == "T1" and verdict.counterexample_count == len(corpus) == 1252
    assert len(sizes) == len(corpus)
    assert max(sizes) <= theorems.WITNESS_CAP + theorems._BLOCK
    first = sorted(corpus, key=lambda g: (g.n, g.m, g.edges))[:theorems.WITNESS_CAP]
    assert [(w.n, w.edges) for w in verdict.witnesses] == [(g.n, g.edges) for g in first]


# the per-component solvers whose calls check_all makes through a record,
# each with the module that defines it
COUNTED = {
    "chromatic_number": colouring,
    "convention_colouring": colouring,
    "has_cycle_length_multiple": graphs,
    "enumerate_j_colourings": jcolouring,
    "min_rainbow_path_lengths": connectivity,
}


@pytest.fixture(scope="module")
def calls_over_check_all_to_7():
    """The corpus of every graph with n <= 7 and, per solver of COUNTED,
    the argument tuples of its calls while check_all runs over that
    corpus, through whichever module binding each call went; and the
    components from which the chi ``exists`` search drew a candidate."""
    corpus = [g for n in range(1, 8) for g in enumerate_graphs(n)]
    calls = {name: [] for name in COUNTED}
    drawn = []
    original_search = analysis._search_colourings

    def candidates(comp, chi, **kwargs):
        first = True
        for col in original_search(comp, chi, **kwargs):
            if first:
                drawn.append(comp)
                first = False
            yield col

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analysis, "_search_colourings", candidates)
        for name, home in COUNTED.items():
            original = getattr(home, name)

            def recording(*args, _original=original, _calls=calls[name]):
                _calls.append(args)
                return _original(*args)

            for module in (analysis, colouring, connectivity, graphs, jcolouring,
                           neighbourhoods, theorems):
                if getattr(module, name, None) is original:
                    patch.setattr(module, name, recording)
        check_all(corpus)
    return corpus, calls, drawn


@pytest.mark.parametrize("name", COUNTED)
def test_check_all_solves_each_distinct_component_once(name, calls_over_check_all_to_7):
    # the corpus has 1610 components but 996 distinct ones, its connected
    # graphs; every claim reads each fact from one record per distinct
    # component, and each use of enumerate_j_colourings (at chi for T2 and
    # T3, at J for the J-rainbow search) opens one stream per component
    corpus, calls, _ = calls_over_check_all_to_7
    components = [comp for g in corpus for comp in decompose(g).components]
    assert len(components) == 1610 and len(set(components)) == 996
    repeated = [args for args, count in Counter(calls[name]).items() if count > 1]
    assert calls[name] and not repeated, repeated[:3]
    if name == "chromatic_number":
        assert len(calls[name]) == 996
    if name == "min_rainbow_path_lengths":
        # T8 reads one record field per distinct J-rainbow connected
        # component with a pair, not one length search per graph
        assert len(calls[name]) == 279


def test_exists_search_draws_only_where_no_certificate_holds(calls_over_check_all_to_7):
    # of the 996 distinct components, the convention colouring or a J-colouring
    # at J = chi certifies 546, the bridge rule refutes 363 of the other 450
    # unseen, and only the remaining 87 draw a candidate, each once
    _, _, drawn = calls_over_check_all_to_7
    assert len(drawn) == len(set(drawn)) == 87


def test_all_yield_chi_matches_the_oracles(all_graphs_to_6):
    # every component of every graph with n <= 6, and the order-8 witness,
    # whose J = 4 exceeds chi = 3
    for g in all_graphs_to_6 + [ORDER_8_WITNESS]:
        expected = tuple(
            any(
                naive_all_yield(comp, c)
                for c in naive_surjective_proper_colourings(comp, naive_chromatic(comp))
            )
            for _, comp in naive_components(g)
        )
        facts = analysis.GraphFacts(g)
        assert tuple(c.all_yield_chi for c in facts.components) == expected, g.edges
    assert not analysis.GraphFacts(ORDER_8_WITNESS).components[0].all_yield_chi


def test_t3_searches_only_components_with_j_above_chi(corpus_to_5, monkeypatch):
    # J >= chi, and at J = chi the J witness already answers T3; no
    # component with n <= 5 has J > chi, so C_6 (J = 3, chi = 2) is added
    corpus = corpus_to_5 + [family("cycle", 6)]
    opened = []
    original = analysis.enumerate_j_colourings

    def counting(g, ell):
        opened.append((g.edges, ell))
        return original(g, ell)

    monkeypatch.setattr(analysis, "enumerate_j_colourings", counting)
    check("T3", corpus)
    above = [
        (comp.edges, chromatic_number(comp)[0])
        for g in corpus
        for comp in decompose(g).components
        if j_number(comp).admits and j_number(comp).value > chromatic_number(comp)[0]
    ]
    assert above == [(family("cycle", 6).edges, 2)]
    assert opened == above


def test_verdicts_are_corpus_monotone(corpus_to_5):
    # HOLDS on a corpus implies HOLDS on any sub-corpus
    small = [g for g in corpus_to_5 if g.n <= 4]
    for tid in ("T1", "T5", "T7", "T8"):
        big = check(tid, corpus_to_5)
        if big.status == "HOLDS":
            assert check(tid, small).status == "HOLDS"


def test_witnesses_sorted_minimal_first():
    trees = [t for n in range(2, 7) for t in enumerate_trees(n)]
    corpus = trees + [build_graph(2, [])]
    verdict = check("T4", corpus)
    keys = [(w.n, len(w.edges)) for w in verdict.witnesses]
    assert keys == sorted(keys)
    assert keys[0] == (2, 0)  # the edgeless pair is the minimal witness


def test_unknown_theorem_rejected(corpus_to_5):
    with pytest.raises(ValueError):
        check("T11", corpus_to_5)
    with pytest.raises(ValueError):
        check_all(corpus_to_5, theorems=["T0"])
    with pytest.raises(ValueError, match="no claim selected"):
        check_all(corpus_to_5, theorems=[])


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def test_report_empty_is_valid_json():
    doc = json.loads(report([], "json"))
    assert doc == {"schema": "theorem-report/1", "verdicts": []}


def test_report_single_row():
    verdict = check("T1", [family("complete", 3)], corpus="K_3")
    text = report([verdict], "text")
    assert "T1" in text and "HOLDS" in text and "K_3" in text


def test_report_renders_counterexamples():
    verdict = check("T4", [build_graph(2, [])], corpus="N_2")
    text = report([verdict], "text")
    assert "counterexample n=2" in text
    doc = json.loads(report([verdict], "json"))
    assert doc["verdicts"][0]["status"] == "COUNTEREXAMPLE"
    assert doc["verdicts"][0]["witnesses"][0]["edges"] == []


def test_report_orders_by_theorem_and_mode(corpus_to_5):
    verdicts = check_all([family("complete", 3)], corpus="K_3")
    doc = json.loads(report(verdicts, "json"))
    ids = [(v["theorem"], v["mode"]) for v in doc["verdicts"]]
    assert ids == sorted(ids, key=lambda t: (int(t[0][1:]), t[1] or ""))
    assert len(ids) == sum(len(THEOREM_MODES[t]) for t in THEOREM_IDS)


def test_every_verdict_matches_the_benchmark_oracle(all_graphs_to_6):
    # bench/checks.py decides each claim by brute force (every colouring,
    # every simple path) and shares no solver code with the checkers
    witness_refutes = bench_module("checks").witness_refutes
    wrong = [
        (v.theorem, v.mode, g.edges)
        for g in all_graphs_to_6
        for v in check_all([g])
        if (v.counterexample_count == 1) != witness_refutes(v.theorem, v.mode, g.n, g.edges)
    ]
    assert not wrong, wrong
