import itertools
import random

import networkx as nx
import pytest

from jrainbow import (
    FamilySpec,
    build_graph,
    canonical_form,
    decompose,
    enumerate_graphs,
    enumerate_trees,
    generate,
    is_j_colouring,
    is_j_star_colouring,
    jc_number,
    jstarc_number,
    oracle_j,
    oracle_j_star,
)

from conftest import family
from oracles import naive_canonical_form


def test_generate_cycle_edges():
    g = family("cycle", 6)
    assert set(g.edges) == {(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)}


def test_generate_wheel_structure():
    g = family("wheel", 6)  # hub 0 joined to rim cycle 1..5
    assert g.n == 6
    assert g.degree(0) == 5
    assert all(g.degree(v) == 3 for v in range(1, 6))


def test_generate_multipartite_is_c4():
    g = family("complete_multipartite", 2, 2)
    assert canonical_form(g) == canonical_form(family("cycle", 4))
    assert jc_number(g).value == jc_number(family("cycle", 4)).value == 2


def test_generate_forest_union():
    g = family("forest_union", 3, 1, 2)
    dec = decompose(g)
    assert [c.n for c in dec.components] == [3, 1, 2]
    assert g.m == 3


def test_generate_validates_params():
    with pytest.raises(ValueError):
        generate(FamilySpec("cycle", (2,)))
    with pytest.raises(ValueError):
        generate(FamilySpec("wheel", (3,)))
    with pytest.raises(ValueError):
        generate(FamilySpec("complete_multipartite", (0, 2)))
    with pytest.raises(ValueError):
        generate(FamilySpec("nonsense", (3,)))
    with pytest.raises(ValueError):
        generate(FamilySpec("disjoint_union"))


def test_oracle_examples():
    assert not oracle_j(FamilySpec("cycle", (5,))).admits
    assert oracle_j(FamilySpec("wheel", (10,))).value == 4  # rim 9 divisible by 3
    assert oracle_j(FamilySpec("complete_multipartite", (3, 3, 3))).value == 3
    assert oracle_j(FamilySpec("cycle", (6,))).value == 3
    assert oracle_j(FamilySpec("null", (7,))).value == 1
    assert oracle_j_star(FamilySpec("null", (7,))).value == 1
    assert oracle_j(FamilySpec("complete", (5,))).value == 5


def test_oracle_witnesses_pass_the_predicates():
    specs = [
        FamilySpec("cycle", (6,)),
        FamilySpec("cycle", (9,)),
        FamilySpec("wheel", (10,)),
        FamilySpec("wheel", (9,)),
        FamilySpec("complete", (5,)),
        FamilySpec("complete_multipartite", (2, 3)),
        FamilySpec("path", (6,)),
    ]
    for spec in specs:
        g = generate(spec)
        res = oracle_j(spec)
        assert res.admits
        assert is_j_colouring(g, res.witness)
        star = oracle_j_star(spec)
        assert is_j_star_colouring(g, star.witness)


def test_oracle_disconnected_witness_covers_components():
    spec = FamilySpec(
        "disjoint_union",
        parts=(FamilySpec("complete", (4,)), FamilySpec("null", (2,))),
    )
    res = oracle_j(spec)
    assert res.value == 4
    assert res.witness.assignment == (1, 2, 3, 4, 1, 1)


def test_oracle_matches_solver_on_core_instances():
    # acceptance runs the full grid; here a spot check of each branch
    specs = [
        FamilySpec("null", (4,)),
        FamilySpec("path", (5,)),
        FamilySpec("cycle", (7,)),
        FamilySpec("cycle", (12,)),
        FamilySpec("complete", (6,)),
        FamilySpec("wheel", (8,)),
        FamilySpec("wheel", (6,)),
        FamilySpec("complete_multipartite", (1, 3)),
        FamilySpec("forest_union", (1, 4, 2)),
    ]
    for spec in specs:
        g = generate(spec)
        expected = oracle_j(spec)
        got = jc_number(g)
        assert got.admits == expected.admits
        assert got.value == expected.value
        star_expected = oracle_j_star(spec)
        star_got = jstarc_number(g)
        assert star_got.admits == star_expected.admits
        assert star_got.value == star_expected.value


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

def test_enumeration_counts_match_direct_dedup():
    # independent route: canonicalise every edge subset directly, each
    # form checked against the brute-force oracle
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(n), 2))
        forms = set()
        for bits in range(1 << len(pairs)):
            g = build_graph(n, [pairs[i] for i in range(len(pairs)) if bits >> i & 1])
            form = canonical_form(g)
            assert form == naive_canonical_form(g), g
            forms.add(form)
        assert len(enumerate_graphs(n)) == len(forms)


def test_enumeration_classical_counts():
    # OEIS A000088
    assert [len(enumerate_graphs(n)) for n in range(1, 9)] == [
        1, 2, 4, 11, 34, 156, 1044, 12346,
    ]
    assert [len(enumerate_graphs(n, connected_only=True)) for n in range(1, 8)] == [
        1, 1, 2, 6, 21, 112, 853,
    ]


def test_enumeration_examples():
    assert len(enumerate_graphs(3)) == 4
    assert len(enumerate_graphs(4)) == 11
    assert len(enumerate_graphs(4, connected_only=True)) == 6


def test_enumeration_rejects_out_of_range():
    with pytest.raises(ValueError):
        enumerate_graphs(0)
    with pytest.raises(ValueError):
        enumerate_graphs(9)


def test_enumerators_return_fresh_lists():
    # clearing a returned list must not change later answers, at the same
    # order or at the next one, which is built from it
    graphs, trees = enumerate_graphs(4), enumerate_trees(4)
    expected_graphs, expected_trees = list(graphs), list(trees)
    graphs.clear()
    trees.clear()
    assert enumerate_graphs(4) == expected_graphs
    assert enumerate_trees(4) == expected_trees
    assert len(enumerate_graphs(5)) == 34
    assert len(enumerate_trees(5)) == 3


def test_enumeration_is_canonical_and_duplicate_free():
    for n in range(1, 6):
        graphs = enumerate_graphs(n)
        forms = [canonical_form(g) for g in graphs]
        assert len(set(forms)) == len(forms)
        # representatives are already canonically labelled
        for g, f in zip(graphs, forms):
            assert canonical_form(g) == f


def test_enumeration_matches_the_graph_atlas():
    # networkx's atlas lists every graph on 0..7 vertices: each enumerated
    # class must be isomorphic to exactly one atlas graph of its order
    def key(h):  # isomorphism-invariant bucket
        return h.number_of_nodes(), tuple(sorted(d for _, d in h.degree()))

    unmatched: dict[tuple, list] = {}
    for h in nx.graph_atlas_g():
        if h.number_of_nodes() >= 1:
            unmatched.setdefault(key(h), []).append(h)
    for n in range(1, 8):
        for g in enumerate_graphs(n):
            ours = nx.Graph()
            ours.add_nodes_from(range(n))
            ours.add_edges_from(g.edges)
            bucket = unmatched.get(key(ours), [])
            matches = [h for h in bucket if nx.is_isomorphic(ours, h)]
            assert len(matches) == 1, (n, g)
            bucket.remove(matches[0])
    assert not any(unmatched.values())


def test_tree_counts():
    # OEIS A000055
    assert [len(enumerate_trees(n)) for n in range(1, 11)] == [
        1, 1, 1, 2, 3, 6, 11, 23, 47, 106,
    ]
    # trees n<=6 agree with filtering the full enumeration
    for n in range(1, 7):
        filtered = [
            g for g in enumerate_graphs(n, connected_only=True) if g.m == n - 1
        ]
        assert len(filtered) == len(enumerate_trees(n))


def test_canonical_form_invariant_under_relabelling():
    g = family("wheel", 6)
    base = canonical_form(g)
    for perm in list(itertools.permutations(range(6)))[:40]:
        edges = [(perm[u], perm[v]) for u, v in g.edges]
        assert canonical_form(build_graph(6, edges)) == base


def test_canonical_form_matches_oracle_on_representatives():
    for n in range(1, 8):
        for g in enumerate_graphs(n):
            assert canonical_form(g) == naive_canonical_form(g), g


def test_canonical_form_matches_oracle_on_relabelled_regular_graphs():
    # a single WL class leaves the whole 8! orderings to the search
    rng = random.Random(8)
    regular = [g for g in enumerate_graphs(8) if len({len(a) for a in g.adjacency}) == 1]
    assert len(regular) == 22
    for g in regular:
        perm = list(range(8))
        rng.shuffle(perm)
        h = build_graph(8, [(perm[u], perm[v]) for u, v in g.edges])
        assert canonical_form(h) == naive_canonical_form(h) == canonical_form(g), g
