import dataclasses

import pytest

from jrainbow import (
    build_graph,
    decompose,
    degree_profile,
    enumerate_graphs,
    induced_subgraph,
    is_connected,
)
from jrainbow import graphs
from jrainbow.graphs import Graph, has_cycle_length_multiple, simple_cycle_lengths

from conftest import count_calls, family
from oracles import naive_cycle_lengths


def test_build_triangle():
    g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    assert g.n == 3 and g.m == 3
    assert g.adjacency == ((1, 2), (0, 2), (0, 1))


def test_build_null_graph():
    g = build_graph(4, [])
    assert g.n == 4 and g.m == 0
    assert all(g.degree(v) == 0 for v in range(4))


def test_build_rejects_self_loop():
    with pytest.raises(ValueError, match="self-loop"):
        build_graph(2, [(0, 0)])


def test_build_rejects_out_of_range():
    with pytest.raises(ValueError, match="outside"):
        build_graph(3, [(0, 3)])


def test_build_collapses_duplicates():
    g = build_graph(3, [(0, 1), (1, 0), (0, 1)])
    assert g.edges == ((0, 1),)


def test_decompose_k3_plus_k2():
    g = build_graph(5, [(0, 1), (1, 2), (0, 2), (3, 4)])
    dec = decompose(g)
    assert [c.n for c in dec.components] == [3, 2]
    assert dec.vertices == ((0, 1, 2), (3, 4))
    assert dec.vertex_map[3] == (1, 0)


def test_decompose_connected_cycle():
    assert len(decompose(family("cycle", 5))) == 1


def test_decompose_connected_graph_is_its_own_component(all_graphs_to_5):
    for g in all_graphs_to_5:
        if is_connected(g):
            dec = decompose(g)
            assert dec.components[0] is g
            assert dec.vertices == (tuple(range(g.n)),)
            assert dec.vertex_map == tuple((0, v) for v in range(g.n))


def test_decompose_null_graph():
    dec = decompose(build_graph(4, []))
    assert len(dec) == 4
    assert all(c.n == 1 for c in dec.components)


def test_degree_profile_path():
    p = degree_profile(family("path", 4))
    assert (p.delta, p.Delta) == (1, 2)
    assert p.pendants == {0, 3}
    assert p.internal == {1, 2}


def test_degree_profile_complete():
    p = degree_profile(family("complete", 4))
    assert (p.delta, p.Delta) == (3, 3)
    assert p.pendants == frozenset()
    assert p.internal == {0, 1, 2, 3}


def test_degree_profile_star():
    p = degree_profile(family("complete_multipartite", 1, 4))
    assert (p.delta, p.Delta) == (1, 4)
    assert p.pendants == {1, 2, 3, 4}
    assert p.internal == {0}


def test_degree_profile_isolated_vertex_is_neither():
    p = degree_profile(build_graph(3, [(0, 1)]))
    assert 2 not in p.pendants and 2 not in p.internal


def test_degree_profile_empty_graph_rejected():
    with pytest.raises(ValueError):
        degree_profile(build_graph(0, []))


def test_decompose_reassembles_parent_edges(all_graphs_to_5):
    for g in all_graphs_to_5:
        dec = decompose(g)
        rebuilt = set()
        for ci, comp in enumerate(dec.components):
            verts = dec.vertices[ci]
            rebuilt.update((verts[u], verts[v]) for u, v in comp.edges)
        assert rebuilt == set(g.edges)
        assert sum(c.n for c in dec.components) == g.n


def test_handshake_lemma(all_graphs_to_5):
    for g in all_graphs_to_5:
        assert sum(g.degree(v) for v in range(g.n)) == 2 * g.m


def test_induced_subgraph_relabels():
    g = family("cycle", 5)
    sub, verts = induced_subgraph(g, [1, 2, 4])
    assert verts == (1, 2, 4)
    assert sub.edges == ((0, 1),)  # only edge 1-2 survives


@pytest.mark.parametrize("vertices", [[0, 99], [-1, 1, 2], [3]])
def test_induced_subgraph_rejects_vertices_outside_the_graph(vertices):
    with pytest.raises(ValueError, match="outside 0..2"):
        induced_subgraph(build_graph(3, [(0, 1), (1, 2)]), vertices)


def test_graph_stores_only_its_rows():
    assert [f.name for f in dataclasses.fields(Graph)] == ["n", "adjacency"]
    g = family("cycle", 4)
    assert not hasattr(g, "__dict__")
    assert g.edges == ((0, 1), (0, 3), (1, 2), (2, 3)) and g.m == 4


def test_is_connected():
    assert is_connected(family("cycle", 4))
    assert not is_connected(build_graph(3, [(0, 1)]))
    assert is_connected(build_graph(1, []))


def test_simple_cycle_lengths():
    assert simple_cycle_lengths(family("cycle", 6)) == frozenset({6})
    assert simple_cycle_lengths(family("complete", 4)) == frozenset({3, 4})
    assert simple_cycle_lengths(family("path", 5)) == frozenset()
    assert has_cycle_length_multiple(family("complete", 4), 3)
    assert not has_cycle_length_multiple(family("cycle", 4), 3)


def test_has_cycle_length_multiple_matches_path_oracle():
    for n in range(1, 8):
        for g in enumerate_graphs(n, connected_only=True):
            lengths = naive_cycle_lengths(g)
            for k in (3, 4, 5):
                expected = any(length % k == 0 for length in lengths)
                assert has_cycle_length_multiple(g, k) == expected, (g, k)


def _paths_above_root(g):
    """Simple paths that start at some root and visit only vertices above
    it, the one-vertex paths included."""
    count = 0
    for root in range(g.n):
        stack = [(root,)]
        while stack:
            path = stack.pop()
            count += 1
            stack.extend(path + (x,) for x in g.adjacency[path[-1]] if x > root and x not in path)
    return count


def test_cycle_search_visits_only_paths_above_the_root(connected_to_6):
    # each cycle is searched from its smallest vertex only: one DFS step
    # per path above a root, all of them when no cycle qualifies
    exhausted = 0
    for g in connected_to_6:
        found, calls = count_calls(graphs, "closes", lambda: has_cycle_length_multiple(g, 3))
        if found:
            assert calls <= _paths_above_root(g), g
        else:
            assert calls == _paths_above_root(g), g
            exhausted += 1
    assert exhausted
