import pytest

from jrainbow import (
    Colouring,
    JResult,
    build_graph,
    chromatic_number,
    degree_profile,
    enumerate_graphs,
    is_j_colouring,
    is_j_star_colouring,
    is_proper,
    j_number,
    j_star_number,
    jc_number,
    jstarc_number,
    maximise_colouring,
    minimise_colouring,
)

from conftest import family, union
from jrainbow import FamilySpec, jcolouring
from oracles import brute_force_j_number, naive_clique_number, naive_idomatic_number


def test_jresult_fields_must_agree():
    with pytest.raises(ValueError):
        JResult(admits=True, value=None, witness=None)
    with pytest.raises(ValueError):
        JResult(admits=False, value=3, witness=None)


def test_solves_without_a_colouring_share_one_result():
    # two graphs without a J-colouring, then two with pendants and no
    # J*-colouring, the latter found by the downward J* search
    no_j = [build_graph(4, [(0, 3), (1, 2), (1, 3), (2, 3)]), family("cycle", 5)]
    no_j_star = [
        build_graph(6, [(0, 5), (1, 2), (1, 4), (2, 3), (3, 5), (4, 5)]),
        build_graph(6, [(0, 3), (1, 2), (1, 5), (2, 4), (3, 4), (3, 5), (4, 5)]),
    ]
    assert all(degree_profile(g).pendants for g in no_j_star)
    first, second = (j_number(g) for g in no_j)
    assert first == JResult(admits=False) and first is second
    first_star, second_star = (j_star_number(g) for g in no_j_star)
    assert first_star is second_star is first


def test_is_j_colouring_examples():
    c6 = family("cycle", 6)
    assert is_j_colouring(c6, Colouring(3, (1, 2, 3, 1, 2, 3)))
    assert is_j_colouring(c6, Colouring(2, (1, 2, 1, 2, 1, 2)))
    assert not is_j_colouring(family("path", 4), Colouring(3, (1, 2, 3, 1)))


def test_is_j_colouring_rejects_disconnected():
    with pytest.raises(ValueError, match="disconnected"):
        is_j_colouring(build_graph(3, [(0, 1)]), Colouring(2, (1, 2, 1)))


def test_is_j_star_examples():
    assert is_j_star_colouring(family("path", 4), Colouring(3, (3, 1, 2, 3)))
    star = family("complete_multipartite", 1, 4)
    assert is_j_star_colouring(star, Colouring(5, (1, 2, 3, 4, 5)))
    assert is_j_star_colouring(family("complete", 2), Colouring(2, (1, 2)))


def test_j_number_families():
    assert j_number(family("complete", 5)).value == 5
    assert not j_number(family("cycle", 5)).admits
    res = j_number(family("cycle", 6))
    assert res.value == 3 and res.witness.assignment == (1, 2, 3, 1, 2, 3)
    assert j_number(build_graph(1, [])).value == 1


def test_j_star_number_families():
    assert j_star_number(family("path", 4)).value == 3
    assert j_star_number(family("complete_multipartite", 1, 4)).value == 5
    assert j_star_number(family("complete", 3)).value == 3


def test_solver_rejects_disconnected_and_empty():
    for solver in (j_number, j_star_number):
        with pytest.raises(ValueError):
            solver(build_graph(4, [(0, 1)]))
        with pytest.raises(ValueError):
            solver(build_graph(0, []))


def test_jc_number_examples():
    g = union(FamilySpec("complete", (4,)), FamilySpec("null", (2,)))
    res = jc_number(g)
    assert res.admits and res.value == 4
    assert [r.value for r in res.per_component] == [4, 1, 1]
    assert not res.equal_across_components

    bad = union(FamilySpec("cycle", (5,)), FamilySpec("complete", (2,)))
    assert not jc_number(bad).admits

    assert jc_number(family("null", 5)).value == 1


def test_jc_rejects_empty_graph():
    with pytest.raises(ValueError):
        jc_number(build_graph(0, []))


def test_equal_across_components_iff_values_match():
    equal = union(FamilySpec("complete", (3,)), FamilySpec("cycle", (6,)))
    res = jc_number(equal)
    assert res.equal_across_components and res.value == 3
    unequal = union(FamilySpec("complete", (4,)), FamilySpec("complete", (2,)))
    assert not jc_number(unequal).equal_across_components


def test_jstarc_number():
    g = union(FamilySpec("path", (3,)), FamilySpec("complete", (2,)))
    res = jstarc_number(g)
    assert res.value == 3
    assert [r.value for r in res.per_component] == [3, 2]


def test_witnesses_satisfy_predicates(connected_to_6):
    for g in connected_to_6:
        res = j_number(g)
        if res.admits:
            assert res.witness.ell == res.value
            assert is_j_colouring(g, res.witness)
        res = j_star_number(g)
        if res.admits:
            assert is_j_star_colouring(g, res.witness)


def test_bounds_on_small_graphs(connected_to_6):
    # chi <= J <= delta+1 for admitting graphs; J* <= Delta+1
    for g in connected_to_6:
        profile = degree_profile(g)
        res = j_number(g)
        if res.admits:
            assert chromatic_number(g)[0] <= res.value <= profile.delta + 1
        star = j_star_number(g)
        if star.admits:
            assert star.value <= profile.Delta + 1


def test_solver_matches_brute_force_scan():
    # dual route over every connected graph with n <= 7: the pruned
    # solver against the oracle's own scan of proper colourings, which
    # shares no code with the package's colouring search.  The scan
    # returns the lexicographically first qualifying colouring, which is
    # in first-use order, so the witnesses agree as well as the values
    for n in range(1, 8):
        for g in enumerate_graphs(n, connected_only=True):
            assert j_number(g) == brute_force_j_number(g), g.edges
            assert j_star_number(g) == brute_force_j_number(g, star=True), g.edges


def test_solvers_never_search_below_the_clique_number(connected_to_6, monkeypatch):
    # no proper colouring has fewer colours than omega, so such a search
    # could only fail; the uncached solvers run so every graph is solved
    searched = []
    original = jcolouring._search_colourings

    def counting(g, k, **kwargs):
        searched.append(k)
        return original(g, k, **kwargs)

    monkeypatch.setattr(jcolouring, "_search_colourings", counting)
    for g in connected_to_6:
        omega = naive_clique_number(g)
        for solver in (j_number, j_star_number):
            searched.clear()
            solver.__wrapped__(g)
            assert all(k >= omega for k in searched), (g.edges, solver.__name__, searched)


def test_j_number_is_the_idomatic_number():
    # a J-colouring's classes are the blocks of a partition into maximal
    # independent sets; the oracle finds those sets by subset scan
    for n in range(1, 8):
        for g in enumerate_graphs(n, connected_only=True):
            assert j_number(g).value == naive_idomatic_number(g), g.edges


def test_witness_is_the_smallest_of_several_largest_partitions():
    # order-8 graphs with more than one partition into three maximal
    # independent sets, where the first one the search meets is not the
    # one with the smallest first-use assignment
    for edges in (
        [(0, 1), (0, 5), (1, 4), (2, 4), (2, 7), (3, 5), (3, 6), (4, 7), (5, 6), (6, 7)],
        [(0, 2), (0, 5), (1, 3), (1, 4), (2, 5), (2, 7), (3, 4), (3, 7), (4, 6), (5, 6),
         (6, 7)],
        [(0, 1), (0, 6), (1, 6), (2, 4), (2, 5), (3, 6), (3, 7), (4, 5), (4, 7), (5, 7),
         (6, 7)],
    ):
        g = build_graph(8, edges)
        assert j_number(g) == brute_force_j_number(g), edges


def test_j_star_reuses_j_without_pendant_vertices(connected_to_6, monkeypatch):
    # with every vertex internal, J* asks the J question; graphs with a
    # pendant vertex (and K_1, K_2) still search, and P_4 shows why
    streams = []
    original = jcolouring._search_colourings

    def counting(g, k, **kwargs):
        streams.append(k)
        return original(g, k, **kwargs)

    monkeypatch.setattr(jcolouring, "_search_colourings", counting)
    for g in connected_to_6:
        j = j_number(g)
        streams.clear()
        star = j_star_number.__wrapped__(g)
        if degree_profile(g).delta >= 2:
            assert not streams and star == j, g.edges
        elif star.admits:
            assert streams, g.edges
    p4 = family("path", 4)
    assert j_number(p4).value == 2 and j_star_number.__wrapped__(p4).value == 3


def test_j_at_most_j_star_when_admitting(connected_to_6):
    # a J-colouring is a J*-colouring, so J* >= J whenever J exists
    for g in connected_to_6:
        res = j_number(g)
        if res.admits:
            star = j_star_number(g)
            assert star.admits and star.value >= res.value


# ---------------------------------------------------------------------------
# Minimise / maximise transforms
# ---------------------------------------------------------------------------

def test_minimise_c6_j_colouring():
    c6 = family("cycle", 6)
    out = minimise_colouring(c6, Colouring(3, (1, 2, 3, 1, 2, 3)), is_j_colouring)
    assert out.ell == 2
    assert is_j_colouring(c6, out)


def test_minimise_k3_proper_unchanged():
    out = minimise_colouring(family("complete", 3), Colouring(3, (1, 2, 3)), is_proper)
    assert out.ell == 3


def test_minimise_p3_proper():
    out = minimise_colouring(family("path", 3), Colouring(3, (1, 2, 3)), is_proper)
    assert out == Colouring(2, (1, 2, 1))


def test_minimise_rejects_bad_input():
    with pytest.raises(ValueError, match="property"):
        minimise_colouring(family("cycle", 5), Colouring(3, (1, 2, 1, 2, 3)), is_j_colouring)


def test_minimise_merge_preferred_when_available():
    # on K_2 u K_2 the 3-colouring (1,2,1,3) merges classes 2 and 3
    g = build_graph(4, [(0, 1), (2, 3)])

    def proper(gr, c):
        return is_proper(gr, c)

    out = minimise_colouring(g, Colouring(3, (1, 2, 1, 3)), proper)
    assert out.ell == 2
    assert out.assignment == (1, 2, 1, 2)


def test_maximise_c6_reaches_j_number():
    c6 = family("cycle", 6)
    out = maximise_colouring(c6, Colouring(2, (1, 2, 1, 2, 1, 2)), is_j_colouring)
    assert out.ell == 3
    assert is_j_colouring(c6, out)


def test_maximise_k2_proper_unchanged():
    out = maximise_colouring(family("complete", 2), Colouring(2, (1, 2)), is_proper)
    assert out == Colouring(2, (1, 2))


def test_maximise_p4_j_star():
    out = maximise_colouring(family("path", 4), Colouring(2, (1, 2, 1, 2)), is_j_star_colouring)
    assert out.ell == 3
    assert is_j_star_colouring(family("path", 4), out)


def test_transforms_agree_with_solver_maximum(connected_to_6):
    # maximise from any admitted J-colouring reaches exactly J
    for g in connected_to_6[:60]:
        res = j_number(g)
        if not res.admits:
            continue
        out = maximise_colouring(g, res.witness, is_j_colouring)
        assert out.ell == res.value
