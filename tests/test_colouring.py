import random
from itertools import combinations

import pytest

from jrainbow import (
    Colouring,
    ConventionInfeasibleError,
    build_graph,
    chromatic_number,
    convention_colouring,
    degree_profile,
    enumerate_graphs,
    enumerate_proper_colourings,
    inverse_colouring,
    is_proper,
    maximum_independent_set,
)
from jrainbow.colouring import _search_colourings, clique_number

from conftest import family
from oracles import (
    naive_all_yield,
    naive_chromatic,
    naive_clique_number,
    naive_mis_lex,
    naive_proper_colourings,
    naive_surjective_proper_colourings,
)

PETERSEN = build_graph(
    10,
    [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
     (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
     (5, 7), (7, 9), (9, 6), (6, 8), (8, 5)],
)


def test_colouring_requires_surjectivity():
    with pytest.raises(ValueError):
        Colouring(ell=3, assignment=(1, 1, 2))
    c = Colouring(ell=2, assignment=(1, 2, 1))
    assert c.theta == (2, 1)
    # no vertex uses any of three colours; a count below zero is no count
    for ell in (3, -1):
        with pytest.raises(ValueError):
            Colouring(ell=ell, assignment=())
    # the empty graph's colouring uses exactly its zero colours
    assert Colouring(ell=0, assignment=()).theta == ()


def test_is_proper_examples():
    assert is_proper(family("cycle", 4), Colouring(2, (1, 2, 1, 2)))
    assert not is_proper(family("complete", 3), Colouring(2, (1, 2, 1)))
    assert is_proper(family("cycle", 6), Colouring(3, (1, 2, 3, 1, 2, 3)))


def test_is_proper_rejects_partial_assignment():
    with pytest.raises(ValueError, match="covers"):
        is_proper(family("cycle", 4), Colouring(2, (1, 2, 1)))


def test_chromatic_number_examples():
    assert chromatic_number(family("complete", 4))[0] == 4
    assert chromatic_number(family("cycle", 5))[0] == 3
    # independent backtracking oracle pins the Petersen graph at 3
    assert naive_chromatic(PETERSEN) == 3
    assert chromatic_number(PETERSEN)[0] == 3


def test_chromatic_number_rejects_empty_graph():
    with pytest.raises(ValueError):
        chromatic_number(build_graph(0, []))


def test_chromatic_witness_is_proper_and_exact(all_graphs_to_5):
    for g in all_graphs_to_5:
        chi, witness = chromatic_number(g)
        assert chi == naive_chromatic(g)
        assert witness.ell == chi
        assert is_proper(g, witness)


def test_chromatic_brooks_style_bound(all_graphs_to_6):
    for g in all_graphs_to_6:
        chi, _ = chromatic_number(g)
        assert chi <= degree_profile(g).Delta + 1


def test_clique_number_small():
    assert clique_number(family("complete", 5)) == 5
    assert clique_number(family("cycle", 5)) == 2
    assert clique_number(PETERSEN) == 2


def test_clique_number_matches_subset_scan():
    # every graph with n <= 7, edgeless and disconnected ones included
    assert clique_number(build_graph(0, [])) == naive_clique_number(build_graph(0, [])) == 0
    for n in range(1, 8):
        for g in enumerate_graphs(n):
            assert clique_number(g) == naive_clique_number(g), g.edges


# ---------------------------------------------------------------------------
# Maximum independent sets
# ---------------------------------------------------------------------------

def test_mis_matches_exhaustive_oracle(all_graphs_to_6):
    # all vertices, the empty set and seeded random candidate subsets
    rng = random.Random(2017)
    for g in all_graphs_to_6:
        assert maximum_independent_set(g) == naive_mis_lex(g)
        subsets = [[]] + [[v for v in range(g.n) if rng.random() < 0.6] for _ in range(4)]
        for candidates in subsets:
            assert maximum_independent_set(g, candidates) == naive_mis_lex(g, candidates), (
                g.edges, candidates,
            )


def test_mis_on_subset():
    c5 = family("cycle", 5)
    assert maximum_independent_set(c5, [1, 3, 4]) == {1, 3}


def test_mis_rejects_vertices_outside_the_graph():
    c5 = family("cycle", 5)
    with pytest.raises(ValueError, match="vertex -1 outside 0..4"):
        maximum_independent_set(c5, [5, -1])
    with pytest.raises(ValueError, match="vertex 5 outside 0..4"):
        maximum_independent_set(c5, [0, 5])


# ---------------------------------------------------------------------------
# Convention colouring
# ---------------------------------------------------------------------------

def test_convention_c5():
    c = convention_colouring(family("cycle", 5), 3)
    assert c.assignment == (1, 2, 1, 2, 3)
    assert c.theta == (2, 2, 1)


def test_convention_k3():
    assert convention_colouring(family("complete", 3), 3).theta == (1, 1, 1)


def test_convention_p4():
    c = convention_colouring(family("path", 4), 2)
    assert c.colour_classes() == ((0, 2), (1, 3))
    assert c.theta == (2, 2)


def test_convention_infeasible_double_star():
    # two adjacent centres with two leaves each: the maximum independent
    # set grabs all four leaves, leaving the adjacent centres as a
    # non-independent remainder at ell = chi = 2
    g = build_graph(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)])
    assert chromatic_number(g)[0] == 2
    with pytest.raises(ConventionInfeasibleError):
        convention_colouring(g, 2)
    # one extra class makes the discipline feasible
    c = convention_colouring(g, 3)
    assert c.colour_classes() == ((2, 3, 4, 5), (0,), (1,))


def test_convention_rejects_too_many_classes():
    with pytest.raises(ConventionInfeasibleError):
        convention_colouring(family("complete", 2), 3)


def _mis_chain(g, ell):
    """Classes of the convention colouring by repeated oracle calls: ell-1
    maximum independent sets of what is left, then the remainder; None
    when a class would be empty or the remainder holds an edge."""
    remaining = set(range(g.n))
    classes = []
    for _ in range(ell - 1):
        if not remaining:
            return None
        classes.append(naive_mis_lex(g, remaining))
        remaining -= classes[-1]
    if not remaining or any(g.has_edge(u, v) for u, v in combinations(sorted(remaining), 2)):
        return None
    return classes + [remaining]


def test_convention_classes_are_maximum_independent(all_graphs_to_6):
    # every class is a maximum independent set of the residual graph at
    # its extraction step (the final class is the whole residual), and the
    # colouring is infeasible exactly when that chain fails
    for g in all_graphs_to_6:
        chi, _ = chromatic_number(g)
        for ell in (chi, chi + 1):
            chain = _mis_chain(g, ell)
            if chain is None:
                with pytest.raises(ConventionInfeasibleError):
                    convention_colouring(g, ell)
            else:
                classes = convention_colouring(g, ell).colour_classes()
                assert classes == tuple(tuple(sorted(cls)) for cls in chain), (g.edges, ell)


# ---------------------------------------------------------------------------
# Inverse colouring
# ---------------------------------------------------------------------------

def test_inverse_formula():
    assert inverse_colouring(Colouring(3, (1, 2, 3, 1))).assignment == (3, 2, 1, 3)


def test_inverse_single_colour_fixed_point():
    c = Colouring(1, (1, 1, 1))
    assert inverse_colouring(c) == c


def test_inverse_reverses_theta():
    c = Colouring(2, (1, 1, 1, 2))
    assert c.theta == (3, 1)
    assert inverse_colouring(c).theta == (1, 3)


def test_inverse_is_involution(all_graphs_to_5):
    for g in all_graphs_to_5:
        _, witness = chromatic_number(g)
        assert inverse_colouring(inverse_colouring(witness)) == witness


# ---------------------------------------------------------------------------
# Colouring enumeration
# ---------------------------------------------------------------------------

def test_enumerate_k3_has_six():
    cols = list(enumerate_proper_colourings(family("complete", 3), 3))
    assert len(cols) == 6


def test_enumerate_odd_cycle_two_colours_empty():
    assert list(enumerate_proper_colourings(family("cycle", 5), 2)) == []


def test_enumerate_p3_two_colours():
    cols = [c.assignment for c in enumerate_proper_colourings(family("path", 3), 2)]
    assert cols == [(1, 2, 1), (2, 1, 2)]


def test_enumerate_lex_order_unique_and_complete():
    for g in [family("cycle", 4), family("path", 4), family("complete", 4),
              build_graph(4, [(0, 1), (2, 3)])]:
        for k in range(1, 5):
            got = [c.assignment for c in enumerate_proper_colourings(g, k)]
            assert got == sorted(got)
            assert len(got) == len(set(got))
            expect = [c.assignment for c in naive_surjective_proper_colourings(g, k)]
            assert got == expect


def _first_use(colouring):
    """Colours appear in the order 1, 2, ... along the vertices."""
    top = 0
    for c in colouring.assignment:
        if c > top + 1:
            return False
        top = max(top, c)
    return True


def test_search_matches_the_oracle_in_every_mode(all_graphs_to_5):
    # the plain search lists the oracle's colourings; the canonical one
    # keeps those in first-use order, and covered vertices must yield
    for g in all_graphs_to_5:
        internal = [v for v in range(g.n) if len(g.adjacency[v]) >= 2]
        for k in range(1, g.n + 1):
            expect = list(naive_proper_colourings(g, k))
            assert list(_search_colourings(g, k)) == expect, (g.edges, k)
            canonical = [c for c in expect if _first_use(c)]
            for covered in ((), internal, range(g.n)):
                got = list(_search_colourings(g, k, covered=covered, canonical=True))
                want = [c for c in canonical if naive_all_yield(g, c, covered)]
                assert got == want, (g.edges, k, list(covered))
