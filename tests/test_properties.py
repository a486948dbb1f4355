"""Property tests on random connected graphs with up to 10 vertices: the
J and J* solvers against independent oracles, J and the rainbow
neighbourhood number r under relabelling, and the order of the r modes;
with up to 8 vertices, the rainbow-connectivity verdict of the chromatic
witness against a scan of every simple path, and the ``exists`` rainbow
verdicts of any graph, disconnected ones included, under relabelling.
Then the file formats: write-parse round trips, and both parsers fuzzed
on arbitrary text.

The ``derandomize`` profile draws the same examples on every run, so a
failure reproduces and the suite's time does not vary."""

from __future__ import annotations

from itertools import combinations

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from jrainbow import (
    Colouring,
    ConventionInfeasibleError,
    FormatError,
    Graph,
    NotJColourable,
    build_graph,
    chromatic_number,
    degree_profile,
    is_chi_rainbow_connected,
    is_jc_rainbow_connected,
    j_number,
    j_star_number,
    parse_dimacs,
    parse_edgelist,
    rainbow_neighbourhood_number,
    write_dimacs,
    write_edgelist,
)

from jrainbow.connectivity import rainbow_connecting_colouring
from jrainbow.io import MAX_VERTICES

from oracles import brute_force_j_number, naive_idomatic_number, naive_rainbow_path_exists

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


@st.composite
def graphs(draw, max_n: int = 12) -> Graph:
    """Any graph with up to ``max_n`` vertices, the empty and disconnected
    ones included."""
    n = draw(st.integers(0, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return build_graph(n, [pair for pair, keep in zip(pairs, chosen) if keep])


def relabelled(g: Graph, rng) -> Graph:
    order = list(range(g.n))
    rng.shuffle(order)
    return build_graph(g.n, [(order[u], order[v]) for u, v in g.edges])


@given(connected_graphs(), st.randoms(use_true_random=False))
def test_j_number_is_invariant_under_relabelling(g, rng):
    before, after = j_number(g), j_number(relabelled(g, rng))
    assert (before.admits, before.value) == (after.admits, after.value), g.edges


@given(connected_graphs())
def test_r_convention_lies_between_the_exists_modes(g):
    # the convention colouring is one of the chi-colourings that the
    # exists modes range over
    low = rainbow_neighbourhood_number(g, "exists-min").r
    high = rainbow_neighbourhood_number(g, "exists-max").r
    assert low <= high, g.edges
    try:
        middle = rainbow_neighbourhood_number(g, "convention").r
    except ConventionInfeasibleError:
        return
    assert low <= middle <= high, g.edges


@given(connected_graphs(), st.randoms(use_true_random=False))
def test_r_exists_modes_are_invariant_under_relabelling(g, rng):
    h = relabelled(g, rng)
    for mode in ("exists-max", "exists-min"):
        assert rainbow_neighbourhood_number(g, mode).r == rainbow_neighbourhood_number(h, mode).r, (
            g.edges, mode,
        )


def _exists_verdicts(g: Graph) -> tuple:
    """The J^c and chi rainbow verdicts of ``g`` in mode ``exists``, or the
    type of the error that says a predicate is undefined on ``g``: no
    J-colouring, or the empty graph."""
    verdicts = []
    for predicate in (is_jc_rainbow_connected, is_chi_rainbow_connected):
        try:
            verdicts.append(predicate(g, "exists").connected)
        except (NotJColourable, ValueError) as error:
            verdicts.append(type(error))
    return tuple(verdicts)


@given(graphs(max_n=8), st.randoms(use_true_random=False))
def test_exists_rainbow_verdicts_are_invariant_under_relabelling(g, rng):
    # the convention verdicts are not: they read the canonical labelling
    # (tests/test_connectivity.py pins P_4 under two labellings)
    assert _exists_verdicts(g) == _exists_verdicts(relabelled(g, rng)), g.edges


def random_colouring(g: Graph, rng) -> Colouring:
    """A random proper colouring: each vertex, in a shuffled order, takes a
    random colour of 1..n that no coloured neighbour has; the colours used
    are then renumbered 1..ell in increasing order."""
    order = list(range(g.n))
    rng.shuffle(order)
    assignment = [0] * g.n
    for u in order:
        taken = {assignment[w] for w in g.adjacency[u]}
        assignment[u] = rng.choice([c for c in range(1, g.n + 1) if c not in taken])
    used = {c: i for i, c in enumerate(sorted(set(assignment)), start=1)}
    return Colouring(ell=len(used), assignment=tuple(used[c] for c in assignment))


@given(connected_graphs(max_n=8), st.randoms(use_true_random=False))
def test_rainbow_verdict_equals_the_path_oracle(g, rng):
    # the bridge rule and the per-source search against every simple path
    # of every pair, under the chromatic witness and under a random proper
    # colouring, whose extra colours let the search refute bridgeless
    # graphs too; the oracle lists all paths, which on dense graphs with 10
    # vertices is too slow for this suite, hence n <= 8
    for colouring in (chromatic_number(g)[1], random_colouring(g, rng)):
        verdict = rainbow_connecting_colouring(g, colouring.ell, (colouring,)) is not None
        expected = all(
            naive_rainbow_path_exists(g, colouring, u, v)
            for u, v in combinations(range(g.n), 2)
        )
        assert verdict == expected, (g.edges, colouring)


@given(graphs())
def test_edgelist_round_trip(g):
    assert parse_edgelist(write_edgelist(g)) == g


@given(graphs())
def test_dimacs_round_trip(g):
    assert parse_dimacs(write_dimacs(g)) == g


# text built from lines of either format: headers, edges, comments and
# noise, with numbers around the valid range and past the vertex limit
small = st.integers(-1, 5)
format_lines = st.one_of(
    st.tuples(small, small).map(lambda t: f"{t[0]} {t[1]}"),
    st.tuples(st.sampled_from(["p edge", "p col", "p edges"]), small, small).map(
        lambda t: f"{t[0]} {t[1]} {t[2]}"
    ),
    st.tuples(small, small).map(lambda t: f"e {t[0]} {t[1]}"),
    st.sampled_from(["", "c comment", "# comment", "p edge 65 0", "65 0", "p edge 2", "e 1"]),
    st.text(max_size=6),
)
format_like_text = st.lists(format_lines, max_size=8).map("\n".join)


@st.composite
def spliced_files(draw) -> str:
    """A written edge-list or DIMACS file with up to two of those lines
    inserted and possibly one line dropped."""
    write = draw(st.sampled_from([write_edgelist, write_dimacs]))
    lines = write(draw(graphs(max_n=6))).splitlines()
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(format_lines))
    if draw(st.booleans()):
        del lines[draw(st.integers(0, len(lines) - 1))]
    return "\n".join(lines)


@given(st.one_of(st.text(), format_like_text, spliced_files()))
def test_parsers_raise_format_error_or_return_a_valid_graph(text):
    for parse in (parse_edgelist, parse_dimacs):
        try:
            g = parse(text)
        except FormatError:
            continue
        assert isinstance(g, Graph) and g.n <= MAX_VERTICES, (parse, text)
        assert build_graph(g.n, g.edges) == g, (parse, text)
