"""Property tests on random connected graphs with up to 10 vertices: the
J and J* solvers against independent oracles, and J under relabelling.

The ``derandomize`` profile draws the same examples on every run, so a
failure reproduces and the suite's time does not vary."""

from __future__ import annotations

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from jrainbow import (
    Graph,
    brute_force_j_number,
    build_graph,
    degree_profile,
    j_number,
    j_star_number,
)

from oracles import naive_idomatic_number

settings.register_profile(
    "derandomize", derandomize=True, database=None, deadline=None, max_examples=150
)
settings.load_profile("derandomize")


@st.composite
def connected_graphs(draw, max_n: int = 10) -> Graph:
    """A random spanning tree, which keeps the graph connected, plus each
    further vertex pair with a drawn probability of 0, 1/4, ..., 1."""
    n = draw(st.integers(1, max_n))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    quarters = draw(st.integers(0, 4))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rolls = draw(st.lists(st.integers(0, 3), min_size=len(pairs), max_size=len(pairs)))
    edges += [pair for pair, roll in zip(pairs, rolls) if roll < quarters]
    return build_graph(n, edges)


@given(connected_graphs())
def test_j_number_equals_the_idomatic_oracle(g):
    assert j_number(g).value == naive_idomatic_number(g), g.edges


@given(connected_graphs())
def test_solvers_equal_the_brute_force_scan(g):
    # the scan tries up to (delta+1)! relabellings of every colouring, so
    # denser graphs are left to the idomatic oracle above
    assume(degree_profile(g).delta <= 3)
    assert j_number(g) == brute_force_j_number(g), g.edges
    assert j_star_number(g) == brute_force_j_number(g, star=True), g.edges


@given(connected_graphs(), st.randoms(use_true_random=False))
def test_j_number_is_invariant_under_relabelling(g, rng):
    order = list(range(g.n))
    rng.shuffle(order)
    relabelled = build_graph(g.n, [(order[u], order[v]) for u, v in g.edges])
    before, after = j_number(g), j_number(relabelled)
    assert (before.admits, before.value) == (after.admits, after.value), g.edges
