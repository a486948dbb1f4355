"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with ``pytest tests/test_acceptance.py -v -s``).

Criterion 2's strict-inequality claim for acyclic graphs (T4) is
exercised exactly as stated, over all trees of order 2..8, and the test
asserts its refutation at order 2.  The 2-vertex tree K_2 has no
internal vertex, so both invariants equal 2 and ``2 < 2`` fails; the
checker must report K_2 as the one counterexample, and every tree of
order 3..8 must satisfy the claim.  See the test docstring for the full
analysis.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

from jrainbow import (
    Colouring,
    ConventionInfeasibleError,
    FamilySpec,
    build_graph,
    canonical_form,
    check,
    chromatic_number,
    convention_colouring,
    degree_profile,
    enumerate_graphs,
    enumerate_trees,
    generate,
    inverse_colouring,
    is_chi_rainbow_connected,
    is_connected,
    is_jc_rainbow_connected,
    j_number,
    j_star_number,
    jc_number,
    jstarc_number,
    oracle_j,
    oracle_j_star,
    rainbow_neighbourhood_number,
    rainbow_path_exists,
    report,
)
from jrainbow.cli import main
from jrainbow.theorems import THEOREM_MODES

from oracles import (
    naive_all_yield,
    naive_mis_lex,
    naive_rainbow_path_exists,
    naive_surjective_proper_colourings,
)

GOLDEN_DIR = Path(__file__).parent / "goldens"


def _line(criterion: str, ok: bool, summary: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {summary}")


def _connected_corpus(max_n: int):
    return [g for n in range(1, max_n + 1) for g in enumerate_graphs(n, connected_only=True)]


def _full_corpus(max_n: int):
    return [g for n in range(1, max_n + 1) for g in enumerate_graphs(n)]


def _union_graph(graphs):
    offset = 0
    edges = []
    for g in graphs:
        edges.extend((u + offset, v + offset) for u, v in g.edges)
        offset += g.n
    return build_graph(offset, edges)


# ---------------------------------------------------------------------------
# Criterion 1: family-oracle equivalence
# ---------------------------------------------------------------------------

def _criterion1_specs() -> list[FamilySpec]:
    specs: list[FamilySpec] = []
    specs += [FamilySpec("null", (n,)) for n in range(1, 10)]
    specs += [FamilySpec("path", (n,)) for n in range(2, 10)]
    specs += [FamilySpec("cycle", (n,)) for n in range(3, 13)]
    specs += [FamilySpec("complete", (n,)) for n in range(1, 9)]
    specs += [FamilySpec("wheel", (n,)) for n in range(4, 12)]
    for parts in range(1, 4):
        for sizes in itertools.combinations_with_replacement((1, 2, 3), parts):
            specs.append(FamilySpec("complete_multipartite", sizes))
    # forests as unions of paths and stars, total order <= 9
    components = [FamilySpec("path", (k,)) for k in range(1, 9)]
    components += [FamilySpec("complete_multipartite", (1, m)) for m in range(2, 8)]

    def order(c: FamilySpec) -> int:
        return sum(c.params) if c.kind == "complete_multipartite" else c.params[0]

    for count in (2, 3):
        for combo in itertools.combinations_with_replacement(components, count):
            if sum(order(c) for c in combo) <= 9:
                specs.append(FamilySpec("disjoint_union", parts=combo))
    specs += [
        FamilySpec("forest_union", (2, 3, 4)),
        FamilySpec("forest_union", (1, 1, 5)),
        FamilySpec("forest_union", (9,)),
    ]
    return specs


def test_criterion_1_family_oracle_equivalence():
    specs = _criterion1_specs()
    for spec in specs:
        g = generate(spec)
        expect = oracle_j(spec)
        got = jc_number(g)
        assert (got.admits, got.value) == (expect.admits, expect.value), spec.describe()
        expect_star = oracle_j_star(spec)
        got_star = jstarc_number(g)
        assert (got_star.admits, got_star.value) == (
            expect_star.admits,
            expect_star.value,
        ), spec.describe()
        if is_connected(g) and g.n >= 1:
            res = j_number(g)
            assert (res.admits, res.value) == (expect.admits, expect.value)
            star = j_star_number(g)
            assert (star.admits, star.value) == (expect_star.admits, expect_star.value)

    # headline closed forms, asserted directly
    for n in range(1, 9):
        assert jc_number(generate(FamilySpec("complete", (n,)))).value == n
    for sizes in ((1, 2), (2, 2), (2, 3), (3, 3), (1, 2, 3), (3, 3, 3)):
        got = jc_number(generate(FamilySpec("complete_multipartite", sizes)))
        assert got.value == len(sizes)
    for n in range(3, 13):
        admits = jc_number(generate(FamilySpec("cycle", (n,)))).admits
        assert admits == (n % 2 == 0 or n % 3 == 0)
    for order in range(4, 12):
        rim = order - 1
        got = jc_number(generate(FamilySpec("wheel", (order,))))
        if rim % 3 == 0:
            assert got.value == 4
        elif rim % 2 == 0:
            assert got.value == 3
        else:
            assert not got.admits
    for n in range(1, 10):
        g = generate(FamilySpec("null", (n,)))
        assert jc_number(g).value == 1 and jstarc_number(g).value == 1
    _line("1", True, f"solver matches family oracle on {len(specs)} instances")


# ---------------------------------------------------------------------------
# Criterion 2: definition-true claims must HOLD
# ---------------------------------------------------------------------------

def test_criterion_2_definition_true_claims():
    corpus = _full_corpus(6)
    failures = []
    for tid in ("T1", "T5", "T7", "T8"):
        verdict = check(tid, corpus, corpus="graphs n<=6")
        if verdict.status != "HOLDS":
            failures.append(verdict)
    ok = not failures
    _line("2", ok, "T1, T5, T7, T8 HOLD over all graphs n<=6")
    assert ok, report(failures, "text")


def _naive_j_and_j_star(g) -> tuple[int | None, int | None]:
    """J and J* of a connected graph from the brute-force oracles alone:
    the largest colour count with a surjective proper colouring under
    which every vertex (every internal vertex, for J*) yields."""
    internal = [v for v in range(g.n) if len(g.adjacency[v]) >= 2]
    j = j_star = None
    for k in range(1, g.n + 1):
        for colouring in naive_surjective_proper_colourings(g, k):
            if naive_all_yield(g, colouring):
                j = k
            if naive_all_yield(g, colouring, internal):
                j_star = k
    return j, j_star


def test_criterion_2_t4_acyclic_strictness():
    """T4 as stated: every acyclic graph of order >= 2 has jc strictly
    below jstarc, checked over all trees of order 2..8.

    The claim is false, and this test asserts the refutation.  The
    2-vertex tree K_2 has no internal vertex (both endpoints are
    pendant), so every proper surjective colouring is vacuously a
    J*-colouring and J*(K_2) = 2, while the unique proper 2-colouring
    also makes both vertices yield, so J(K_2) = 2.  The strict
    inequality 2 < 2 fails; the correct hypothesis needs a component
    with an internal vertex (order >= 3).  The checker must therefore
    report exactly one counterexample, K_2, and no tree of order 3..8.
    The witness is re-derived through the brute-force oracles, which
    share no code with the solvers.
    """
    trees = [t for n in range(2, 9) for t in enumerate_trees(n)]
    verdict = check("T4", trees, corpus="trees 2<=n<=8")
    witness = verdict.witnesses[0] if len(verdict.witnesses) == 1 else None
    ok = (
        verdict.status == "COUNTEREXAMPLE"
        and verdict.tested == len(trees)
        and verdict.skipped == 0
        and verdict.counterexample_count == 1
        and witness is not None
        and witness.n == 2
        and witness.edges == ((0, 1),)
        and dict(witness.details) == {"jc": 2, "jstarc": 2}
        and _naive_j_and_j_star(witness.graph()) == (2, 2)
    )
    _line("2 (T4)", ok, f"T4 over trees n<=8: {verdict.status} "
          f"({verdict.counterexample_count} counterexample(s))")
    assert ok, (
        f"expected T4 refuted by K_2 alone (J = J* = 2) over {len(trees)} trees, got "
        f"{verdict.status} on {verdict.tested} tested, {verdict.skipped} skipped: "
        + "; ".join(
            f"n={w.n} edges={list(w.edges)}: {w.explanation}" for w in verdict.witnesses
        )
    )


# ---------------------------------------------------------------------------
# Criterion 3: report-only claims are deterministic and re-verifiable
# ---------------------------------------------------------------------------

def _reverify_witness(theorem: str, mode: str | None, witness) -> None:
    g = witness.graph()
    details = dict(witness.details)
    if theorem == "T2":
        assert jc_number(g).admits == details["admits"]
        got = []
        from jrainbow import decompose

        for comp in decompose(g).components:
            rep = rainbow_neighbourhood_number(comp, mode)
            got.append([rep.r, comp.n])
        assert got == [list(x) for x in details["r_per_component"]]
        rhs = all(r == n for r, n in got)
        assert details["admits"] != rhs
    elif theorem == "T3":
        assert jc_number(g).admits == details["admits"]
        assert details["admits"] != details["all_yield_chi_exists"]
    elif theorem == "T6":
        jc = jc_number(g)
        jstarc = jstarc_number(g)
        assert jc.value == details["jc"] and jstarc.value == details["jstarc"]
        assert jstarc.value > jc.value
        dec = jc.decomposition
        for ci in details["argmax_components"]:
            assert not degree_profile(dec.components[ci]).pendants
    elif theorem == "T9":
        lhs = is_jc_rainbow_connected(g, "exists").connected
        assert lhs == details["rainbow_connected"]
        assert lhs != details["condition"]
    elif theorem == "T10":
        assert jc_number(g).admits == details["admits"]
        chi_conn = is_chi_rainbow_connected(g, details["chi_mode"]).connected
        assert chi_conn == details["chi_rainbow_connected"]
        if "jc_rainbow_connected" in details:
            assert (
                is_jc_rainbow_connected(g, "exists").connected
                == details["jc_rainbow_connected"]
            )
        else:
            assert details["admits"] != chi_conn
    else:
        raise AssertionError(f"unexpected counterexample theorem {theorem}")


def test_criterion_3_report_only_claims():
    corpus = _connected_corpus(6)
    theorems = ("T2", "T3", "T6", "T9", "T10")

    def run():
        out = []
        for tid in theorems:
            for mode in THEOREM_MODES[tid]:
                out.append(check(tid, corpus, corpus="connected graphs n<=6", mode=mode))
        return out

    first = run()
    second = run()
    assert report(first, "json") == report(second, "json")

    for verdict in first:
        for witness in verdict.witnesses:
            _reverify_witness(verdict.theorem, verdict.mode, witness)

    # the 5-cycle probe is part of T10's tested set in both modes
    c5 = generate(FamilySpec("cycle", (5,)))
    assert canonical_form(c5) in {canonical_form(g) for g in corpus}
    for mode in THEOREM_MODES["T10"]:
        probe = check("T10", [c5], corpus="C_5 probe", mode=mode)
        assert probe.tested == 1 and probe.skipped == 0

    recorded = {
        f"{v.theorem}[{v.mode}]" if v.mode else v.theorem: v.status for v in first
    }
    _line("3", True, f"deterministic, re-verifiable verdicts: {recorded}")


# ---------------------------------------------------------------------------
# Criterion 4: derived invariants
# ---------------------------------------------------------------------------

def test_criterion_4_derived_invariants():
    # J <= delta+1 and J* <= Delta+1 for every admitting graph with n <= 7.
    # Both bounds are per-component facts and every component of every
    # graph with n <= 7 is itself a connected graph with n <= 7, so the
    # connected corpus covers the disconnected cases too.
    for g in _connected_corpus(7):
        profile = degree_profile(g)
        res = j_number(g)
        if res.admits:
            assert res.value <= profile.delta + 1
        star = j_star_number(g)
        if star.admits:
            assert star.value <= profile.Delta + 1

    # involution on solver-produced colourings
    produced: list[tuple[object, Colouring]] = []

    def collect(g, colouring):
        if colouring is not None:
            produced.append((g, colouring))

    for g in _connected_corpus(6) + [t for n in (7, 8) for t in enumerate_trees(n)]:
        chi, witness = chromatic_number(g)
        collect(g, witness)
        res = j_number(g)
        collect(g, res.witness)
        star = j_star_number(g)
        collect(g, star.witness)
        collect(g, rainbow_neighbourhood_number(g, "exists-max").colouring_used)
        for ell in (chi, chi + 1):
            if ell <= g.n:
                try:
                    collect(g, convention_colouring(g, ell))
                except ConventionInfeasibleError:
                    pass
    for spec in _criterion1_specs():
        collect(None, oracle_j(spec).witness)
        collect(None, oracle_j_star(spec).witness)
    assert len(produced) >= 1000, f"only {len(produced)} solver-produced colourings"
    for _, colouring in produced:
        assert inverse_colouring(inverse_colouring(colouring)) == colouring

    # convention classes are maximum independent sets (exhaustive oracle),
    # over every non-isomorphic graph with n <= 8
    mis_corpus = _full_corpus(8)
    checked = 0
    for g in mis_corpus:
        chi, _ = chromatic_number(g)
        try:
            colouring = convention_colouring(g, chi)
        except ConventionInfeasibleError:
            continue
        remaining = set(range(g.n))
        for cls in colouring.colour_classes():
            assert frozenset(cls) == naive_mis_lex(g, remaining)
            remaining -= set(cls)
            checked += 1
    _line("4", True,
          f"bounds n<=7, involution on {len(produced)} colourings, "
          f"{checked} convention classes MIS-confirmed")


# ---------------------------------------------------------------------------
# Criterion 5: rainbow-path oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_5_rainbow_path_oracle_equivalence():
    pairs_checked = 0
    for g in _connected_corpus(6):
        res = j_number(g)
        if not res.admits or g.n < 2:
            continue
        for u in range(g.n):
            for v in range(u + 1, g.n):
                fast = rainbow_path_exists(g, res.witness, u, v) is not None
                slow = naive_rainbow_path_exists(g, res.witness, u, v)
                assert fast == slow, (g, res.witness, (u, v))
                pairs_checked += 1
    _line("5", True, f"pruned search agrees with naive enumeration on {pairs_checked} pairs")


# ---------------------------------------------------------------------------
# Criterion 6: family rainbow-connectivity reproduction
# ---------------------------------------------------------------------------

def _forest_multisets(max_total: int = 9):
    trees = [t for n in range(1, 6) for t in enumerate_trees(n)]

    def rec(start: int, budget: int, acc: list):
        if acc:
            yield list(acc)
        for i in range(start, len(trees)):
            if trees[i].n <= budget:
                acc.append(trees[i])
                yield from rec(i, budget - trees[i].n, acc)
                acc.pop()

    yield from rec(0, max_total, [])


def test_criterion_6_family_connectivity_reproduction():
    counts = {"forest": 0, "complete": 0, "cycle": 0, "wheel": 0}

    for forest_parts in _forest_multisets(9):
        g = _union_graph(forest_parts)
        assert is_jc_rainbow_connected(g, "exists").connected, g
        counts["forest"] += 1

    complete_orders = range(1, 7)
    for combo in list(itertools.combinations_with_replacement(complete_orders, 1)) + list(
        itertools.combinations_with_replacement(complete_orders, 2)
    ):
        g = _union_graph([generate(FamilySpec("complete", (n,))) for n in combo])
        assert is_jc_rainbow_connected(g, "exists").connected, combo
        counts["complete"] += 1

    cycle_lengths = [n for n in range(3, 13) if n % 2 == 0 or n % 3 == 0]
    for combo in list(itertools.combinations_with_replacement(cycle_lengths, 1)) + list(
        itertools.combinations_with_replacement(cycle_lengths, 2)
    ):
        g = _union_graph([generate(FamilySpec("cycle", (n,))) for n in combo])
        assert is_jc_rainbow_connected(g, "exists").connected, combo
        counts["cycle"] += 1

    wheel_orders = [rim + 1 for rim in range(3, 10) if rim % 2 == 0 or rim % 3 == 0]
    for combo in list(itertools.combinations_with_replacement(wheel_orders, 1)) + list(
        itertools.combinations_with_replacement(wheel_orders, 2)
    ):
        g = _union_graph([generate(FamilySpec("wheel", (n,))) for n in combo])
        assert is_jc_rainbow_connected(g, "exists").connected, combo
        counts["wheel"] += 1

    _line("6", True, f"all unions verified rainbow connected: {counts}")


# ---------------------------------------------------------------------------
# Criterion 7: CLI golden files
# ---------------------------------------------------------------------------

GOLDEN_CASES = [
    ("family_cycle_5.json", ["family", "cycle", "5", "--json", "-"]),
    ("family_wheel_10.json", ["family", "wheel", "10", "--json", "-"]),
    (
        "analyze_k4_2k1.json",
        ["analyze", str(GOLDEN_DIR / "k4_2k1.edges"), "--json", "-"],
    ),
    # J / J* witnesses on 9 to 13 vertices, beyond the enumerated corpus
    ("family_wheel_13.json", ["family", "wheel", "13", "--json", "-"]),
    (
        "family_complete_multipartite_2_3_4.json",
        ["family", "complete_multipartite", "2", "3", "4", "--json", "-"],
    ),
    (
        "analyze_petersen.json",
        ["analyze", str(GOLDEN_DIR / "petersen.edges"), "--json", "-"],
    ),
    (
        "check_max_n5_all.json",
        ["check", "--max-n", "5", "--theorems", "all", "--json", "-"],
    ),
    (
        "check_max_n7_all.json",
        ["check", "--max-n", "7", "--theorems", "all", "--json", "-"],
    ),
    (
        "check_max_n8_t1_t3_t4_t5_t6.json",
        ["check", "--max-n", "8", "--theorems", "T1,T3,T4,T5,T6", "--json", "-"],
    ),
    (
        "rainbow_petersen_all_pairs.txt",
        ["rainbow", str(GOLDEN_DIR / "petersen.edges"), "--all-pairs"],
    ),
    (
        "rainbow_k4_2k1_all_pairs.json",
        ["rainbow", str(GOLDEN_DIR / "k4_2k1.edges"), "--all-pairs", "--json", "-"],
    ),
    # two documents on stdout, in the order the flags name them
    (
        "analyze_petersen_json_dot.txt",
        ["analyze", str(GOLDEN_DIR / "petersen.edges"), "--json", "-", "--dot", "-"],
    ),
    (
        "check_max_n5_text_json.txt",
        ["check", "--max-n", "5", "--text", "--json", "-"],
    ),
]


def test_criterion_7_cli_goldens(capsys):
    for golden_name, argv in GOLDEN_CASES:
        golden = (GOLDEN_DIR / golden_name).read_text()
        rc = main(argv)
        out = capsys.readouterr().out
        assert rc == 0, argv
        assert out == golden, f"output of {argv} differs from {golden_name}"
    # the analyze case expects a componentwise J number of 4
    doc = json.loads((GOLDEN_DIR / "analyze_k4_2k1.json").read_text())
    assert doc["whole"]["jc"]["value"] == 4
    _line("7", True, f"{len(GOLDEN_CASES)} CLI outputs byte-identical to goldens")
