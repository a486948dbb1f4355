import pytest

from jrainbow import (
    Colouring,
    ConventionInfeasibleError,
    build_graph,
    chromatic_number,
    rainbow_neighbourhood_number,
    yields_rainbow,
)
from jrainbow import colouring

from conftest import count_calls, family
from oracles import naive_all_yield, naive_chromatic, naive_surjective_proper_colourings


def test_yields_complete_graph_everywhere():
    k4 = family("complete", 4)
    c = Colouring(4, (1, 2, 3, 4))
    assert all(yields_rainbow(k4, c, v) for v in range(4))


def test_yields_c5_mixed():
    c5 = family("cycle", 5)
    c = Colouring(3, (1, 2, 1, 2, 3))
    assert yields_rainbow(c5, c, 4)
    assert not yields_rainbow(c5, c, 1)


def test_yields_trivial_graph():
    assert yields_rainbow(build_graph(1, []), Colouring(1, (1,)), 0)


def test_yields_rejects_improper():
    with pytest.raises(ValueError, match="proper"):
        yields_rainbow(family("complete", 3), Colouring(2, (1, 2, 2)), 0)


def test_r_examples():
    assert rainbow_neighbourhood_number(family("complete", 4)).r == 4
    assert rainbow_neighbourhood_number(family("cycle", 5)).r == 3
    assert rainbow_neighbourhood_number(family("cycle", 4)).r == 4


def test_r_rejects_empty_graph():
    with pytest.raises(ValueError):
        rainbow_neighbourhood_number(build_graph(0, []))


def test_r_exists_max_computes_chi_itself():
    # C_4 is bipartite, so under a 2-colouring every vertex sees both
    # colours; a surjective 3-colouring would leave only two yielding,
    # so the function takes no chi from its caller
    c4 = family("cycle", 4)
    assert rainbow_neighbourhood_number(c4, "exists-max").r == 4
    with pytest.raises(TypeError):
        rainbow_neighbourhood_number(c4, "exists-max", 3)


@pytest.mark.parametrize("mode", ["exists-max", "exists-min"])
@pytest.mark.parametrize("chi", [2, 5])
def test_r_exists_modes_reject_a_chi_with_no_colouring(mode, chi):
    # K_3 has no proper 2-colouring and no surjective 5-colouring; no
    # caller's chi is taken, and the function finds chi = 3 itself
    k3 = family("complete", 3)
    with pytest.raises(TypeError):
        rainbow_neighbourhood_number(k3, mode, chi)
    rep = rainbow_neighbourhood_number(k3, mode)
    assert rep.r == 3 and rep.colouring_used.ell == 3


def test_r_convention_propagates_infeasibility():
    double_star = build_graph(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)])
    with pytest.raises(ConventionInfeasibleError):
        rainbow_neighbourhood_number(double_star, "convention")


def test_r_mode_sandwich(all_graphs_to_5):
    # the convention colouring is one chi-colouring among those the
    # existential modes range over
    for g in all_graphs_to_5:
        lo = rainbow_neighbourhood_number(g, "exists-min").r
        hi = rainbow_neighbourhood_number(g, "exists-max").r
        assert lo <= hi
        try:
            mid = rainbow_neighbourhood_number(g, "convention").r
        except ConventionInfeasibleError:
            continue
        assert lo <= mid <= hi


def test_r_reports_reference_their_colouring(all_graphs_to_5):
    for g in all_graphs_to_5[:40]:
        rep = rainbow_neighbourhood_number(g, "exists-max")
        assert rep.colouring_used.ell == chromatic_number(g)[0]
        assert all(0 <= v < g.n for v in rep.yielding)


def _petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return build_graph(10, outer + spokes + inner)


def test_r_exists_modes_match_a_scan_of_every_colouring(all_graphs_to_6):
    # the oracle lists every surjective proper chi-colouring, colour
    # permutations included, in lexicographic order; each mode reports
    # the first colouring reaching its extreme
    larger = [
        family("cycle", 9),
        family("cycle", 11),
        family("wheel", 8),
        family("complete_multipartite", 2, 3, 4),
        _petersen(),
    ]
    for g in all_graphs_to_6 + larger:
        scan = []
        for c in naive_surjective_proper_colourings(g, naive_chromatic(g)):
            yielding = frozenset(v for v in range(g.n) if naive_all_yield(g, c, [v]))
            scan.append((len(yielding), c, yielding))
        for mode, pick in (("exists-max", max), ("exists-min", min)):
            extreme = pick(r for r, _, _ in scan)
            _, colouring, yielding = next(s for s in scan if s[0] == extreme)
            rep = rainbow_neighbourhood_number(g, mode)
            assert (rep.r, rep.colouring_used, rep.yielding) == (
                extreme, colouring, yielding,
            ), (g, mode)


def test_r_exists_modes_search_effort():
    # branch-and-bound nodes on C_15 in each mode; a lost bound or a later
    # stop raises the count
    c15 = family("cycle", 15)
    nodes = {}
    for mode in ("exists-max", "exists-min"):
        rep, nodes[mode] = count_calls(
            colouring, "branch", lambda: rainbow_neighbourhood_number(c15, mode)
        )
        assert rep.r == (15 if mode == "exists-max" else 3)
    assert nodes["exists-max"] <= 382 and nodes["exists-min"] <= 380, nodes


def test_r_exists_min_complete_graph_k9():
    rep = rainbow_neighbourhood_number(family("complete", 9), "exists-min")
    assert rep.r == 9
    assert rep.colouring_used.assignment == tuple(range(1, 10))
