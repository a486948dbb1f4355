import re

import pytest

from jrainbow import (
    Colouring,
    ConventionInfeasibleError,
    FamilySpec,
    GraphFacts,
    NotJColourable,
    build_graph,
    chromatic_number,
    convention_colouring,
    decompose,
    enumerate_graphs,
    enumerate_j_colourings,
    is_chi_rainbow_connected,
    is_jc_rainbow_connected,
    is_j_colouring,
    j_number,
    jc_number,
    min_rainbow_path_lengths,
    rainbow_path_exists,
)
from jrainbow import analysis, colouring, connectivity, jcolouring
from jrainbow.analysis import ComponentFacts
from jrainbow.colouring import _search_colourings
from jrainbow.connectivity import rainbow_connecting_colouring
from jrainbow.graphs import has_bridge

from conftest import count_calls, family, union
from oracles import (
    all_simple_paths,
    naive_all_yield,
    naive_bridges,
    naive_chromatic,
    naive_components,
    naive_min_rainbow_path_lengths,
    naive_rainbow_path_exists,
    naive_surjective_proper_colourings,
)


def test_rainbow_path_k4_hamilton():
    w = rainbow_path_exists(family("complete", 4), Colouring(4, (1, 2, 3, 4)), 0, 1)
    assert w.path == (0, 2, 3, 1)
    assert w.colours_seen == {1, 2, 3, 4}


def test_rainbow_path_c6_avoids_short_edge():
    c6 = family("cycle", 6)
    w = rainbow_path_exists(c6, Colouring(3, (1, 2, 3, 1, 2, 3)), 0, 1)
    assert w.path == (0, 5, 4, 3, 2, 1)


def test_rainbow_path_k2():
    w = rainbow_path_exists(family("complete", 2), Colouring(2, (1, 2)), 0, 1)
    assert w.path == (0, 1)


def test_rainbow_path_rejects_equal_pair():
    with pytest.raises(ValueError, match="distinct"):
        rainbow_path_exists(family("complete", 2), Colouring(2, (1, 2)), 1, 1)


def test_rainbow_path_none_when_impossible():
    # P_3 coloured (1,2,3): the (0,1) side can never collect colour 3
    p3 = family("path", 3)
    assert rainbow_path_exists(p3, Colouring(3, (1, 2, 3)), 0, 1) is None


def test_rainbow_path_witness_validates(connected_to_6):
    for g in connected_to_6[:50]:
        res = j_number(g)
        if not res.admits:
            continue
        for u in range(g.n):
            for v in range(u + 1, g.n):
                w = rainbow_path_exists(g, res.witness, u, v)
                if w is not None:
                    w.validate(g, res.witness)


def test_rainbow_path_matches_naive_enumeration(all_graphs_to_5):
    from jrainbow import is_connected

    for g in all_graphs_to_5:
        if not is_connected(g) or g.n < 2:
            continue
        res = j_number(g)
        if not res.admits:
            continue
        for u in range(g.n):
            for v in range(u + 1, g.n):
                fast = rainbow_path_exists(g, res.witness, u, v) is not None
                slow = naive_rainbow_path_exists(g, res.witness, u, v)
                assert fast == slow


def test_min_rainbow_path_lengths_examples():
    k3 = family("complete", 3)
    assert min_rainbow_path_lengths(k3, Colouring(3, (1, 2, 3))) == {
        (0, 1): 2, (0, 2): 2, (1, 2): 2,
    }
    k2 = family("complete", 2)
    assert min_rainbow_path_lengths(k2, Colouring(2, (1, 2))) == {(0, 1): 1}
    c6 = family("cycle", 6)
    lengths = min_rainbow_path_lengths(c6, Colouring(3, (1, 2, 3, 1, 2, 3)))
    assert lengths[(0, 3)] == 3


def test_min_rainbow_path_lengths_requires_j_colouring():
    with pytest.raises(ValueError, match="J-colouring"):
        min_rainbow_path_lengths(family("path", 4), Colouring(3, (1, 2, 3, 1)))


# ---------------------------------------------------------------------------
# Whole-graph predicates
# ---------------------------------------------------------------------------

def test_jc_rainbow_undefined_for_c5():
    with pytest.raises(NotJColourable):
        is_jc_rainbow_connected(family("cycle", 5))


def test_forests_are_jc_rainbow_connected():
    from jrainbow import enumerate_trees

    for n in range(1, 8):
        for t in enumerate_trees(n):
            assert is_jc_rainbow_connected(t, "exists").connected
    f = union(FamilySpec("path", (4,)), FamilySpec("path", (1,)), FamilySpec("path", (3,)))
    assert is_jc_rainbow_connected(f, "exists").connected


def test_union_of_completes_is_jc_rainbow_connected():
    g = union(FamilySpec("complete", (4,)), FamilySpec("complete", (3,)), FamilySpec("complete", (1,)))
    rep = is_jc_rainbow_connected(g, "exists")
    assert rep.connected
    # every pair inside a non-trivial component received a witness path
    assert len(rep.witness_map()) == 6 + 3


def test_jc_rainbow_given_mode():
    c6 = family("cycle", 6)
    rep = is_jc_rainbow_connected(c6, "given", colourings=(Colouring(3, (1, 2, 3, 1, 2, 3)),))
    assert rep.connected
    # proper and surjective, but vertex 1 fails to yield: not a J-colouring
    with pytest.raises(ValueError, match="J-colouring"):
        is_jc_rainbow_connected(c6, "given", colourings=(Colouring(3, (1, 2, 1, 2, 1, 3)),))
    # the alternating 2-colouring is a J-colouring below the maximum; given mode accepts it
    rep2 = is_jc_rainbow_connected(c6, "given", colourings=(Colouring(2, (1, 2, 1, 2, 1, 2)),))
    assert rep2.connected


def test_jc_rainbow_given_implies_exists(connected_to_6):
    # monotone: some maximum J-colouring verified in given mode => exists
    for g in connected_to_6[:40]:
        res = j_number(g)
        if not res.admits:
            continue
        given = is_jc_rainbow_connected(g, "given", colourings=(res.witness,))
        if given.connected:
            assert is_jc_rainbow_connected(g, "exists").connected


def test_chi_rainbow_examples():
    assert is_chi_rainbow_connected(family("cycle", 6), "convention").connected
    assert is_chi_rainbow_connected(family("complete", 4), "exists").connected


def test_chi_rainbow_c5_probe_settled_by_naive_path_oracle():
    # the value is established by exhaustive path enumeration under the
    # convention colouring, then the predicates must agree with it
    c5 = family("cycle", 5)
    conv = Colouring(3, (1, 2, 1, 2, 3))
    assert all(
        naive_rainbow_path_exists(c5, conv, u, v)
        for u in range(5)
        for v in range(u + 1, 5)
    )
    assert is_chi_rainbow_connected(c5, "convention").connected
    assert is_chi_rainbow_connected(c5, "exists").connected


def test_chi_rainbow_on_disconnected():
    g = union(FamilySpec("complete", (4,)), FamilySpec("null", (2,)))
    rep = is_chi_rainbow_connected(g, "exists")
    assert rep.connected  # trivial components are vacuous
    assert len(rep.colourings) == 3


def test_is_j_colouring_accepts_given_witness():
    c6 = family("cycle", 6)
    rep = is_jc_rainbow_connected(c6, "exists")
    assert rep.connected
    assert rep.colourings[0] is not None
    assert is_j_colouring(c6, rep.colourings[0])
    assert rep.colourings[0].ell == jc_number(c6).value


@pytest.mark.parametrize(
    "predicate, mode, part, home, solver",
    [
        (is_chi_rainbow_connected, "convention", FamilySpec("cycle", (5,)), colouring,
         "chromatic_number"),
        (is_chi_rainbow_connected, "exists", FamilySpec("cycle", (5,)), colouring,
         "chromatic_number"),
        (is_jc_rainbow_connected, "exists", FamilySpec("complete", (3,)), jcolouring,
         "enumerate_j_colourings"),
    ],
)
def test_predicates_solve_equal_components_once(predicate, mode, part, home, solver, monkeypatch):
    # the two equal components of one graph share one facts record, so the
    # predicate calls the solver once, through whichever binding it uses
    original = getattr(home, solver)
    calls = []

    def recording(*args):
        calls.append(args)
        return original(*args)

    for module in (analysis, colouring, connectivity, jcolouring):
        if getattr(module, solver, None) is original:
            monkeypatch.setattr(module, solver, recording)
    assert predicate(union(part, part), mode).connected
    assert len(calls) == 1


def test_invalid_modes_rejected():
    with pytest.raises(ValueError, match="mode"):
        is_jc_rainbow_connected(family("complete", 3), "nope")
    with pytest.raises(ValueError, match="mode"):
        is_chi_rainbow_connected(family("complete", 3), "nope")
    with pytest.raises(ValueError, match="empty"):
        is_chi_rainbow_connected(build_graph(0, []), "exists")


def _naive_failed_pairs(comp, colouring):
    return [
        (u, v)
        for u in range(comp.n)
        for v in range(u + 1, comp.n)
        if not naive_rainbow_path_exists(comp, colouring, u, v)
    ]


def _assert_exists_report(rep, comps, candidate_sets):
    """Each component records a candidate that rainbow-connects all its
    pairs, or None when no candidate does; no failed pairs are kept."""
    assert len(rep.colourings) == len(comps)
    for (_, comp), col, cands in zip(comps, rep.colourings, candidate_sets):
        if col is None:
            assert all(_naive_failed_pairs(comp, c) for c in cands)
        else:
            assert col in cands and not _naive_failed_pairs(comp, col)
    assert rep.connected == (None not in rep.colourings)
    assert rep.failed_pairs == ()


def _naive_j_colourings(comp):
    """Every all-yield surjective proper colouring of the component at its
    largest colour count that has one; empty when there is none.  A
    yielding vertex sees every colour in its closed neighbourhood, so no
    count above the minimum degree + 1 needs trying."""
    top = min(len(comp.adjacency[v]) for v in range(comp.n)) + 1
    for k in range(top, 0, -1):
        found = [c for c in naive_surjective_proper_colourings(comp, k) if naive_all_yield(comp, c)]
        if found:
            return found
    return []


def _assert_failed_pairs(rep, comps, colourings):
    expected = [
        (verts[u], verts[v])
        for (verts, comp), col in zip(comps, colourings)
        for u, v in _naive_failed_pairs(comp, col)
    ]
    assert list(rep.failed_pairs) == expected
    assert rep.connected == (not expected)


def test_whole_graph_predicates_match_brute_force_oracle(all_graphs_to_6):
    # per component: some candidate colouring rainbow-connects every pair
    failures_seen = {"given": 0, "convention": 0}
    for g in all_graphs_to_6:
        comps = naive_components(g)
        chi_sets = [
            naive_surjective_proper_colourings(comp, naive_chromatic(comp))
            for _, comp in comps
        ]
        _assert_exists_report(is_chi_rainbow_connected(g, "exists"), comps, chi_sets)

        j_sets = [_naive_j_colourings(comp) for _, comp in comps]
        if not all(j_sets):
            with pytest.raises(NotJColourable):
                is_jc_rainbow_connected(g, "exists")
        else:
            _assert_exists_report(is_jc_rainbow_connected(g, "exists"), comps, j_sets)
            given = tuple(cands[0] for cands in j_sets)
            rep = is_jc_rainbow_connected(g, "given", colourings=given)
            _assert_failed_pairs(rep, comps, given)
            failures_seen["given"] += bool(rep.failed_pairs)

        try:
            rep = is_chi_rainbow_connected(g, "convention")
        except ConventionInfeasibleError:
            continue
        assert all(col in cands for col, cands in zip(rep.colourings, chi_sets))
        _assert_failed_pairs(rep, comps, rep.colourings)
        failures_seen["convention"] += bool(rep.failed_pairs)
    # both single-colouring modes meet graphs with unconnected pairs
    assert all(failures_seen.values()), failures_seen


# ---------------------------------------------------------------------------
# Bridge rule, witnesses and verdict-only searches
# ---------------------------------------------------------------------------

def test_bridge_rule_refutes_every_colouring_with_three_colours(all_graphs_to_6):
    # a component with a bridge has no rainbow-connecting colouring with
    # ell >= 3 colours, at ell = chi and at ell = J; oracles only
    settled: dict[tuple, list[int]] = {}
    for g in all_graphs_to_6:
        for _, comp in naive_components(g):
            key = (comp.n, comp.edges)
            if key in settled or not naive_bridges(comp):
                continue
            j_colourings = _naive_j_colourings(comp)
            ells = {naive_chromatic(comp)}
            if j_colourings:
                ells.add(j_colourings[0].ell)
            settled[key] = [ell for ell in sorted(ells) if ell >= 3]
            for ell in settled[key]:
                assert all(
                    _naive_failed_pairs(comp, col)
                    for col in naive_surjective_proper_colourings(comp, ell)
                ), (comp, ell)
    assert sum(map(len, settled.values())) > 0


def test_has_bridge_matches_edge_removal_oracle():
    for n in range(1, 8):
        for g in enumerate_graphs(n, connected_only=True):
            assert has_bridge(g) == bool(naive_bridges(g)), g


def _first_oracle_rainbow_path(g, colouring, u, v):
    full = set(range(1, colouring.ell + 1))
    return next(
        (p for p in all_simple_paths(g, u, v) if {colouring.assignment[w] for w in p} == full),
        None,
    )


def test_witnesses_are_the_first_oracle_rainbow_paths(connected_to_6):
    # the search returns the first rainbow path in ascending depth-first
    # order, whatever it prunes or remembers on the way
    for g in connected_to_6:
        colourings = [chromatic_number(g)[1]]
        res = j_number(g)
        if res.admits:
            colourings.append(res.witness)
        for col in colourings:
            for u in range(g.n):
                for v in range(g.n):
                    if u == v:
                        continue
                    w = rainbow_path_exists(g, col, u, v)
                    expected = _first_oracle_rainbow_path(g, col, u, v)
                    assert (None if w is None else w.path) == expected, (g, col, u, v)


def _chi_verdict(g, mode):
    try:
        return is_chi_rainbow_connected(g, mode).connected
    except ConventionInfeasibleError:
        return None


def test_verdicts_equal_reports(all_graphs_to_6):
    for g in all_graphs_to_6:
        facts = GraphFacts(g)
        for mode in ("convention", "exists"):
            assert facts.chi_rainbow_connected(mode) == _chi_verdict(g, mode), (g, mode)
        for ci, comp in enumerate(facts.decomposition.components):
            if facts.jc.per_component[ci].admits:
                expected = is_jc_rainbow_connected(comp, "exists").colourings[0]
            else:
                expected = None
            assert facts.components[ci].jc_rainbow_colouring == expected, (g, ci)


def test_exists_certificates_agree_with_the_candidate_search():
    # the exists verdict may come from the convention colouring or a
    # J-colouring at J = chi; on every connected graph with n <= 7 it must
    # equal the full canonical search's, whichever fact is read first
    for n in range(1, 8):
        for comp in enumerate_graphs(n, connected_only=True):
            chi = chromatic_number(comp)[0]
            candidates = _search_colourings(comp, chi, canonical=True)
            expected = rainbow_connecting_colouring(comp, chi, candidates) is not None
            assert ComponentFacts(comp).exists_connected == expected, comp.edges
            later = ComponentFacts(comp)
            later.convention_connected, later.jc_rainbow_colouring
            assert later.exists_connected == expected, comp.edges


def test_the_convention_verdict_depends_on_the_labelling():
    # the corpus's P_4 is 0-3-2-1: the lexicographically first maximum
    # independent set {0, 1} leaves the edge 2-3, so no convention
    # colouring exists; as 0-3-1-2 the same set leaves {2, 3} independent
    corpus_p4 = build_graph(4, [(0, 3), (1, 2), (2, 3)])
    assert corpus_p4 in enumerate_graphs(4)
    with pytest.raises(ConventionInfeasibleError, match=r"edge \(2, 3\)"):
        is_chi_rainbow_connected(corpus_p4, "convention")
    relabelled = build_graph(4, [(0, 3), (1, 2), (1, 3)])
    report = is_chi_rainbow_connected(relabelled, "convention")
    assert report.connected
    assert report.colourings == (Colouring(2, (1, 1, 2, 2)),)
    # the exists verdict does not depend on the labels
    assert is_chi_rainbow_connected(corpus_p4, "exists").connected
    assert is_chi_rainbow_connected(relabelled, "exists").connected


def test_convention_infeasibility_wins_over_a_bridge_refutation():
    infeasible = next(
        g
        for n in range(1, 7)
        for g in enumerate_graphs(n, connected_only=True)
        if _chi_verdict(g, "convention") is None
    )
    # two triangles joined by a bridge: convention-feasible, refuted by the rule
    bridged = [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)]
    assert GraphFacts(build_graph(6, bridged)).chi_rainbow_connected("convention") is False
    g = build_graph(6 + infeasible.n, bridged + [(u + 6, v + 6) for u, v in infeasible.edges])
    assert len(decompose(g)) == 2
    facts = GraphFacts(g)
    assert facts.chi_rainbow_connected("convention") is None
    assert facts.chi_rainbow_connected("exists") is False
    comp = facts.decomposition.components[1]
    with pytest.raises(ConventionInfeasibleError) as built:
        convention_colouring(comp, chromatic_number(comp)[0])
    with pytest.raises(ConventionInfeasibleError, match=f"^{re.escape(str(built.value))}$"):
        is_chi_rainbow_connected(g, "convention")


def _naive_connects(comp, colouring):
    return all(
        naive_rainbow_path_exists(comp, colouring, u, v)
        for u in range(comp.n)
        for v in range(u + 1, comp.n)
    )


# order-7 inputs: the only connected graphs with n <= 7 on which some
# canonical chi-colourings rainbow-connect every pair and others do not,
# then one whose connecting chi-colouring (1, 2, 1, 2, 1, 2, 3) a memo
# keyed on the path's vertex set alone, without its end, would refute
ORDER_7_CASES = (
    build_graph(7, [(0, 1), (0, 6), (1, 6), (2, 5), (2, 6), (3, 5), (3, 6), (4, 5), (4, 6)]),
    build_graph(7, [(0, 1), (0, 6), (1, 6), (2, 4), (2, 5), (3, 4), (3, 5), (4, 6), (5, 6)]),
    build_graph(7, [(0, 1), (0, 5), (1, 4), (2, 3), (2, 6), (3, 6), (4, 5), (4, 6), (5, 6)]),
)


def test_connecting_colouring_is_the_first_oracle_connecting_candidate(connected_to_6):
    # J candidates, the chi convention colouring and every canonical
    # chi-colouring, each list also reversed; the per-source search must
    # pick the first candidate under which the path oracle joins every pair
    outcomes = {"none": 0, "first": 0, "later": 0}
    for g in connected_to_6 + list(ORDER_7_CASES):
        chi, _ = chromatic_number(g)
        candidate_sets = [(chi, list(_search_colourings(g, chi, canonical=True)))]
        try:
            candidate_sets.append((chi, [convention_colouring(g, chi)]))
        except ConventionInfeasibleError:
            pass
        res = j_number(g)
        if res.admits:
            candidate_sets.append((res.value, list(enumerate_j_colourings(g, res.value))))
        for ell, cands in candidate_sets + [(ell, cands[::-1]) for ell, cands in candidate_sets]:
            expected = next((c for c in cands if _naive_connects(g, c)), None)
            assert rainbow_connecting_colouring(g, ell, cands) == expected, (g, ell)
            if expected is None:
                outcomes["none"] += 1
            else:
                outcomes["first" if expected == cands[0] else "later"] += 1
    assert all(outcomes.values()), outcomes


def test_min_rainbow_path_lengths_match_the_path_oracle(connected_to_6):
    # every J-colouring of every connected graph with n <= 6
    unjoined = 0
    for g in connected_to_6:
        for col in _naive_j_colourings(g):
            expected = naive_min_rainbow_path_lengths(g, col)
            assert list(min_rainbow_path_lengths(g, col).items()) == list(expected.items())
            unjoined += None in expected.values()
    assert unjoined


def test_min_rainbow_path_lengths_search_effort(connected_to_6):
    # DFS steps of T8's search under each J witness; a weaker cut or a
    # lower first depth raises the count
    inputs = [(g, j_number(g).witness) for g in connected_to_6 if j_number(g).admits]
    _, calls = count_calls(
        connectivity,
        "reaches",
        lambda: [min_rainbow_path_lengths(g, col) for g, col in inputs],
    )
    assert (len(inputs), calls) == (65, 3139)



def test_rainbow_verdict_search_effort(connected_to_6):
    # states the verdict search enters for the three rainbow facts of every
    # connected graph with n <= 6; a weaker cut or memo raises the count,
    # and a search that reuses what earlier sources found lowers it
    def verdicts():
        return [
            (f.jc_rainbow_colouring is not None, f.convention_connected, f.exists_connected)
            for f in map(ComponentFacts, connected_to_6)
        ]

    found, calls = count_calls(connectivity, "extend", verdicts)
    assert [sum(v[i] is True for v in found) for i in range(3)] == [64, 72, 94]
    assert (len(found), calls) == (143, 3732)
