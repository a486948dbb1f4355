import gc
import hashlib
import itertools
import random
import tracemalloc
from collections import Counter

import networkx as nx
import pytest

from jrainbow import (
    FamilySpec,
    build_graph,
    canonical_form,
    decompose,
    enumerate_graphs,
    enumerate_trees,
    families,
    generate,
    is_j_colouring,
    is_j_star_colouring,
    jc_number,
    jstarc_number,
    oracle_j,
    oracle_j_star,
)
from jrainbow.graphs import neighbour_masks

from conftest import family
from oracles import naive_automorphisms, naive_canonical_form

# sha1 of repr([(g.n, g.edges), ...]) over enumerate_graphs(1..8) and over
# enumerate_trees(1..10), taken from the enumerators that deduplicated
# every filtered augmentation, before orbit pruning
GRAPHS_SHA1 = "e9c014c3fe024828b73b899595d9eb409f0c71de"
TREES_SHA1 = "58df5373eff2e9be1360a3690b218ef442476804"
# sha1 of repr([(spec, generate(spec), oracle_j(spec), oracle_j_star(spec)),
# ...]) over _family_grid(), taken while generate and the oracles still
# wrote each kind's labelling and witnesses separately
FAMILY_SHA1 = "8ce21ee69fca1e362eb80457fb6318386e24a2fc"


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


def _family_grid() -> list[FamilySpec]:
    specs = [FamilySpec(kind, (n,)) for n in range(1, 30) for kind in ("null", "path", "complete")]
    specs += [FamilySpec("cycle", (n,)) for n in range(3, 30)]
    specs += [FamilySpec("wheel", (n,)) for n in range(4, 30)]
    specs += [
        FamilySpec(kind, sizes)
        for parts in range(1, 5)
        for sizes in itertools.product(range(1, 6), repeat=parts)
        for kind in ("complete_multipartite", "forest_union")
    ]
    inner = FamilySpec("disjoint_union", parts=(FamilySpec("path", (3,)), FamilySpec("null", (2,))))
    specs.append(FamilySpec("disjoint_union", parts=(
        FamilySpec("wheel", (7,)),
        inner,
        FamilySpec("complete_multipartite", (1, 4)),
        FamilySpec("cycle", (5,)),
        FamilySpec("forest_union", (1, 2, 4)),
    )))
    return specs


def test_family_outputs_are_pinned():
    # every labelling and witness the family module builds, over a fixed
    # grid of 1701 specs
    outputs = [(s, generate(s), oracle_j(s), oracle_j_star(s)) for s in _family_grid()]
    assert len(outputs) == 1701
    assert hashlib.sha1(repr(outputs).encode()).hexdigest() == FAMILY_SHA1


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


def test_enumeration_output_is_pinned():
    graphs = [(g.n, g.edges) for n in range(1, 9) for g in enumerate_graphs(n)]
    trees = [(t.n, t.edges) for n in range(1, 11) for t in enumerate_trees(n)]
    assert hashlib.sha1(repr(graphs).encode()).hexdigest() == GRAPHS_SHA1
    assert hashlib.sha1(repr(trees).encode()).hexdigest() == TREES_SHA1


def test_enumerated_graphs_are_valid():
    # representatives are built from their forms, with the tuples their
    # order shares, without build_graph
    for n in range(1, 9):
        for g in enumerate_graphs(n):
            assert g == build_graph(g.n, g.edges)
    for n in range(1, 11):
        for t in enumerate_trees(n):
            assert t == build_graph(t.n, t.edges)


def test_enumerated_graphs_of_one_order_share_rows():
    # equal neighbour rows within one order are one object each;
    # test_enumerated_graphs_are_valid checks their values
    corpora = [enumerate_graphs(n) for n in range(1, 8)]
    corpora += [enumerate_trees(n) for n in range(1, 10)]
    for corpus in corpora:
        rows: dict[tuple[int, ...], tuple[int, ...]] = {}
        for g in corpus:
            for row in g.adjacency:
                assert row is rows.setdefault(row, row), g


def test_enumeration_retains_under_half_the_bytes_of_plain_copies():
    # order 7 built afresh (order 6 stays cached) against build_graph
    # copies of the same graphs: 0.27 of their bytes with rows shared,
    # 1.00 with a fresh tuple per row
    enumerate_graphs(6)

    def retained(build):
        gc.collect()
        tracemalloc.start()
        try:
            kept = build()
            gc.collect()
            return kept, tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()

    shared, shared_bytes = retained(lambda: families._all_graphs.__wrapped__(7))
    assert len(shared) == 1044
    _, copied_bytes = retained(lambda: [build_graph(g.n, g.edges) for g in shared])
    assert shared_bytes < copied_bytes / 2, (shared_bytes, copied_bytes)


def test_degree_first_subsets_match_the_full_scan():
    for n in range(1, 7):
        for h in enumerate_graphs(n):
            degrees = [len(a) for a in h.adjacency]
            scan = [
                s for s in range(1 << n) if families._new_vertex_is_maximal(h, degrees, s)
            ]
            assert sorted(families._maximal_subsets(h)) == scan, h


@pytest.mark.usefixtures("one_process")
def test_augmentation_searches_one_subset_per_orbit(monkeypatch):
    searches = Counter()
    search = families._canonical_search

    def counting(masks):
        searches[len(masks)] += 1
        return search(masks)

    expected = families._all_graphs(7)
    monkeypatch.setattr(families, "_canonical_search", counting)
    # build order 7 afresh from the cached order 6, leaving the cache as it is
    assert families._all_graphs.__wrapped__(7) == expected
    # each of the 156 parents is searched once for its automorphisms; every
    # search on 7 vertices is an augmentation, one per (parent, orbit) that
    # passes the filter, against 2091 filtered augmentations in all
    assert searches == {6: 156, 7: 1090}


def _closure(generators, n):
    """The group the permutations generate, by composing until closed."""
    identity = tuple(range(n))
    group, frontier = {identity}, [identity]
    while frontier:
        element = frontier.pop()
        for perm in generators:
            image = tuple(perm[v] for v in element)
            if image not in group:
                group.add(image)
                frontier.append(image)
    return group


def test_search_generators_span_the_automorphism_group():
    rng = random.Random(6)
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            perm = list(range(n))
            rng.shuffle(perm)
            relabelled = build_graph(n, [(perm[u], perm[v]) for u, v in g.edges])
            for h in (g, relabelled):
                _, generators = families._canonical_search(neighbour_masks(h))
                assert _closure(generators, n) == naive_automorphisms(h), h
    for g in enumerate_graphs(7):
        edges = set(g.edges)
        for perm in families._canonical_search(neighbour_masks(g))[1]:
            assert {tuple(sorted((perm[u], perm[v]))) for u, v in g.edges} == edges, g


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
