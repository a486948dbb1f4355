"""Output checks, run after the timed region.

Every check compares the program's output against a computation made
apart from the package's solvers (the brute-force oracles of
``tests/oracles.py``, OEIS counts, the networkx graph atlas, closed-form
family values) or against a property the method must have.  The package
is used only for its ``Graph`` container and, for family instances, its
closed-form oracles.  Each check returns a list of error strings; an
empty list means the output passed.
"""

from __future__ import annotations

import copy
import itertools
from functools import lru_cache

from jrainbow import Colouring, build_graph
from jrainbow.families import FamilySpec, oracle_j, oracle_j_star
import oracles
from oracles import (
    all_simple_paths,
    naive_all_yield,
    naive_mis_lex,
    naive_rainbow_path_exists,
    naive_surjective_proper_colourings,
)

# OEIS A000088 (graphs on n nodes) and A001349 (connected graphs), n = 1..8
A000088 = (1, 2, 4, 11, 34, 156, 1044, 12346)
A001349 = (1, 1, 2, 6, 21, 112, 853, 11117)

CONVENTION_MODES = ("convention",)
PROVEN = ("T1", "T5")  # proven bounds: must report HOLDS
WITNESS_CAP = 5

naive_chromatic = lru_cache(maxsize=None)(oracles.naive_chromatic)


# ---------------------------------------------------------------------------
# Naive graph facts (no code shared with the package's solvers)
# ---------------------------------------------------------------------------

def _graph(n: int, edges) -> object:
    return build_graph(n, [tuple(e) for e in edges])


def _component_sets(n: int, edges) -> list[tuple[int, ...]]:
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    seen: set[int] = set()
    out = []
    for s in range(n):
        if s in seen:
            continue
        comp, todo = {s}, [s]
        while todo:
            for x in adj[todo.pop()]:
                if x not in comp:
                    comp.add(x)
                    todo.append(x)
        seen |= comp
        out.append(tuple(sorted(comp)))
    return out


def _components(g) -> list:
    """Connected components as relabelled graphs, ordered by least vertex."""
    out = []
    for verts in _component_sets(g.n, g.edges):
        index = {v: i for i, v in enumerate(verts)}
        out.append(_graph(len(verts), [(index[u], index[v]) for u, v in g.edges
                                       if u in index]))
    return out


def _yield_set(g, assign, vertices) -> bool:
    full = set(range(1, max(assign) + 1))
    for v in vertices:
        seen = {assign[v]} | {assign[u] for u in g.adjacency[v]}
        if seen != full:
            return False
    return True


@lru_cache(maxsize=None)
def _j_colourings(g, k: int, star: bool) -> tuple[tuple[int, ...], ...]:
    """Surjective proper k-colourings of connected ``g`` under which every
    vertex (every internal vertex when ``star``) yields."""
    covered = [v for v in range(g.n) if g.degree(v) >= 2] if star else range(g.n)
    return tuple(c.assignment for c in naive_surjective_proper_colourings(g, k)
                 if _yield_set(g, c.assignment, covered))


@lru_cache(maxsize=None)
def naive_j(g, star: bool = False) -> int | None:
    """J (or J*) of connected ``g`` by exhaustive search.  A yielding
    vertex v sees every colour in N[v], so no count above deg(v) + 1 can
    work for a covered vertex."""
    covered = [v for v in range(g.n) if g.degree(v) >= 2] if star else list(range(g.n))
    cap = min((g.degree(v) + 1 for v in covered), default=g.n)
    for k in range(min(cap, g.n), 0, -1):
        if _j_colourings(g, k, star):
            return k
    return None


def _componentwise(g, star: bool = False) -> tuple[bool, int | None, list]:
    values = [naive_j(c, star) for c in _components(g)]
    admits = all(v is not None for v in values)
    return admits, (max(values) if admits else None), values


@lru_cache(maxsize=None)
def naive_convention(g, ell: int) -> tuple[int, ...] | None:
    """The greedy-maximal colouring as its definition states it: class j
    is the lexicographically smallest maximum independent set of what
    classes 1..j-1 left; the remainder is the last class.  None when that
    does not give ``ell`` non-empty independent classes."""
    remaining = set(range(g.n))
    assign = [0] * g.n
    for j in range(1, ell):
        if not remaining:
            return None
        cls = naive_mis_lex(g, remaining)
        for v in cls:
            assign[v] = j
        remaining -= cls
    if not remaining or any(g.has_edge(u, v) for u, v in itertools.combinations(remaining, 2)):
        return None
    for v in remaining:
        assign[v] = ell
    return tuple(assign)


def _r(g, assign) -> int:
    return sum(_yield_set(g, assign, [v]) for v in range(g.n))


def naive_r(g, mode: str) -> int | None:
    chi = naive_chromatic(g)
    if mode == "convention":
        assign = naive_convention(g, chi)
        return None if assign is None else _r(g, assign)
    values = [_r(g, c.assignment) for c in naive_surjective_proper_colourings(g, chi)]
    return max(values) if mode == "exists-max" else min(values)


def _all_pairs_rainbow(g, assign) -> bool:
    col = Colouring(ell=max(assign), assignment=assign)
    return all(naive_rainbow_path_exists(g, col, u, v)
               for u, v in itertools.combinations(range(g.n), 2))


def _jc_connected(g) -> bool:
    """Every component has a J-colouring under which all its pairs are
    joined by rainbow paths (the graph is assumed to admit J)."""
    return all(any(_all_pairs_rainbow(c, a) for a in _j_colourings(c, naive_j(c), False))
               for c in _components(g))


def _has_cycle_multiple(g, k: int) -> bool:
    # every cycle runs through some edge (u, v) and is a u-v path of >= 3
    # vertices closed by that edge
    return any(len(p) >= 3 and len(p) % k == 0
               for u, v in g.edges for p in all_simple_paths(g, u, v))


def _shortest_rainbow(g, assign, u, v) -> int | None:
    full = set(range(1, max(assign) + 1))
    lengths = [len(p) - 1 for p in all_simple_paths(g, u, v)
               if {assign[w] for w in p} == full]
    return min(lengths, default=None)


# ---------------------------------------------------------------------------
# Claim refutations: True when graph g really refutes the claim in mode
# ---------------------------------------------------------------------------

def _refutes_t1(g, mode):
    return any(naive_j(c) is not None and naive_chromatic(c) > naive_j(c)
               for c in _components(g))


def _refutes_t2(g, mode):
    comps = _components(g)
    rs = [naive_r(c, mode) for c in comps]
    if any(r is None for r in rs):
        return False  # the checker skips such graphs
    return _componentwise(g)[0] != all(r == c.n for r, c in zip(rs, comps))


def _refutes_t3(g, mode):
    rhs = all(any(naive_all_yield(c, col)
                  for col in naive_surjective_proper_colourings(c, naive_chromatic(c)))
              for c in _components(g))
    return _componentwise(g)[0] != rhs


def _refutes_t4(g, mode):
    if g.n < 2 or g.m != g.n - len(_components(g)):
        return False
    jc_ok, jc, _ = _componentwise(g)
    js_ok, js, _ = _componentwise(g, star=True)
    return not (jc_ok and js_ok) or not jc < js


def _refutes_t5(g, mode):
    js_ok, js, _ = _componentwise(g, star=True)
    return js_ok and js > max(g.degree(v) for v in range(g.n)) + 1


def _refutes_t6(g, mode):
    jc_ok, jc, per = _componentwise(g)
    js_ok, js, _ = _componentwise(g, star=True)
    if not (jc_ok and js_ok) or js <= jc:
        return False
    comps = _components(g)
    return not any(per[i] == jc and any(c.degree(v) == 1 for v in range(c.n))
                   for i, c in enumerate(comps))


def _refutes_t7(g, mode):
    for c in _components(g):
        j = naive_j(c)
        if j is None or j < 3 or not _jc_connected(c):
            continue
        if min(c.degree(v) for v in range(c.n)) < 2:
            return True
    return False


def _refutes_t8(g, mode):
    if not _componentwise(g)[0] or not _jc_connected(g):
        return False
    for c in _components(g):
        j = naive_j(c)
        for a in _j_colourings(c, j, False):
            if _all_pairs_rainbow(c, a) and any(
                (s := _shortest_rainbow(c, a, u, v)) is None or s < j - 1
                for u, v in itertools.combinations(range(c.n), 2)
            ):
                return True
    return False


def _refutes_t9(g, mode):
    if not _componentwise(g)[0]:
        return False
    lhs = _jc_connected(g)
    facts = [(naive_j(c), _has_cycle_multiple(c, 3),
              any(c.degree(v) == 1 for v in range(c.n))) for c in _components(g)]
    if mode == "parse-a":
        rhs = any(j <= 2 for j, _, _ in facts) or all(not h or not p for _, h, p in facts)
    else:
        rhs = all(j <= 2 or not h or not p for j, h, p in facts)
    return lhs != rhs


def _refutes_t10(g, mode):
    admits = _componentwise(g)[0]
    chi_conn = True
    for c in _components(g):
        chi = naive_chromatic(c)
        if mode == "convention":
            assign = naive_convention(c, chi)
            if assign is None:
                return False  # the checker skips such graphs
            chi_conn &= _all_pairs_rainbow(c, assign)
        else:
            chi_conn &= any(_all_pairs_rainbow(c, col.assignment)
                            for col in naive_surjective_proper_colourings(c, chi))
    if admits != chi_conn:
        return True
    return admits and _jc_connected(g) != chi_conn


REFUTERS = {
    "T1": _refutes_t1, "T2": _refutes_t2, "T3": _refutes_t3, "T4": _refutes_t4,
    "T5": _refutes_t5, "T6": _refutes_t6, "T7": _refutes_t7, "T8": _refutes_t8,
    "T9": _refutes_t9, "T10": _refutes_t10,
}


@lru_cache(maxsize=None)
def witness_refutes(theorem: str, mode: str | None, n: int, edges: tuple) -> bool:
    return REFUTERS[theorem](_graph(n, edges), mode)


# ---------------------------------------------------------------------------
# Corpus workloads
# ---------------------------------------------------------------------------

def check_corpus(corpus: list, max_n: int) -> list[str]:
    """Per-order counts against OEIS A000088 and A001349."""
    errors = []
    for n in range(1, max_n + 1):
        graphs = [edges for k, edges in corpus if k == n]
        connected = sum(len(_component_sets(n, edges)) == 1 for edges in graphs)
        if len(graphs) != A000088[n - 1]:
            errors.append(f"n={n}: {len(graphs)} graphs, OEIS A000088 says {A000088[n - 1]}")
        if connected != A001349[n - 1]:
            errors.append(f"n={n}: {connected} connected graphs, OEIS A001349 says "
                          f"{A001349[n - 1]}")
    return errors


def check_atlas(corpus: list, max_n: int = 7) -> list[str]:
    """For n <= 7 the corpus and networkx.graph_atlas_g() must match one
    to one as isomorphism classes."""
    import networkx as nx

    def key(g):
        return (g.number_of_nodes(), g.number_of_edges(), tuple(sorted(d for _, d in g.degree())))

    buckets: dict = {}
    for a in nx.graph_atlas_g():
        if 1 <= a.number_of_nodes() <= max_n:
            buckets.setdefault(key(a), []).append(a)
    errors = []
    for n, edges in corpus:
        if n > max_n:
            continue
        g = nx.Graph()
        g.add_nodes_from(range(n))
        g.add_edges_from(map(tuple, edges))
        bucket = buckets.get(key(g), [])
        match = next((i for i, a in enumerate(bucket) if nx.is_isomorphic(a, g)), None)
        if match is None:
            errors.append(f"corpus graph n={n} edges={edges} matches no unused atlas graph")
        else:
            bucket.pop(match)
    left = sum(len(b) for b in buckets.values())
    if left:
        errors.append(f"{left} atlas graphs with n<={max_n} are missing from the corpus")
    return errors


def convention_infeasible_count(corpus: list) -> int:
    """Graphs on which some component has no greedy-maximal chi-colouring:
    exactly the graphs the convention modes must skip."""
    count = 0
    for n, edges in corpus:
        g = _graph(n, edges)
        if any(naive_convention(c, naive_chromatic(c)) is None for c in _components(g)):
            count += 1
    return count


def check_report(doc: dict, expected: list[tuple[str, str | None]], corpus_size: int,
                 infeasible: int | None) -> list[str]:
    """Verdict report of ``jrainbow check``: one verdict per expected
    (claim, mode), counts adding up to the corpus, proven claims holding,
    convention modes skipping exactly the infeasible graphs, and every
    witness refuting its claim under brute force."""
    errors = []
    verdicts = doc.get("verdicts", [])
    got = [(v["theorem"], v["mode"]) for v in verdicts]
    if sorted(got, key=str) != sorted(expected, key=str):
        errors.append(f"verdicts for {got}, expected {expected}")
    for v in verdicts:
        label = v["theorem"] + (f"-{v['mode']}" if v["mode"] else "")
        if v["tested"] + v["skipped"] != corpus_size:
            errors.append(f"{label}: tested {v['tested']} + skipped {v['skipped']} "
                          f"!= corpus size {corpus_size}")
        if v["mode"] not in CONVENTION_MODES and v["skipped"]:
            errors.append(f"{label}: skipped {v['skipped']} graphs outside a convention mode")
        if v["mode"] in CONVENTION_MODES and infeasible is not None \
                and v["skipped"] != infeasible:
            errors.append(f"{label}: skipped {v['skipped']}, but {infeasible} graphs have "
                          "an infeasible convention colouring")
        if v["theorem"] in PROVEN and v["status"] != "HOLDS":
            errors.append(f"{label}: status {v['status']} for a proven bound")
        fails = v["counterexample_count"]
        if (v["status"] == "HOLDS") != (fails == 0) \
                or len(v["witnesses"]) != min(fails, WITNESS_CAP):
            errors.append(f"{label}: status {v['status']}, {fails} counterexamples and "
                          f"{len(v['witnesses'])} witnesses do not agree")
        for w in v["witnesses"]:
            edges = tuple(tuple(e) for e in w["edges"])
            if not witness_refutes(v["theorem"], v["mode"], w["n"], edges):
                errors.append(f"{label}: witness n={w['n']} edges={w['edges']} does not "
                              "refute the claim under brute force")
    return errors


# ---------------------------------------------------------------------------
# analyze-single
# ---------------------------------------------------------------------------

def family_chi(kind: str, params: list[int]) -> list[int]:
    """Chromatic number of each component of a family instance."""
    if kind == "complete":
        return [params[0]]
    if kind == "cycle":
        return [2 if params[0] % 2 == 0 else 3]
    if kind == "wheel":
        return [3 if (params[0] - 1) % 2 == 0 else 4]
    if kind == "complete_multipartite":
        return [len(params)] if len(params) > 1 else [1] * params[0]
    if kind == "forest_union":
        return [1 if k == 1 else 2 for k in params]
    raise ValueError(f"no chi formula for {kind}")


def _proper_surjective(g, assign, ell) -> bool:
    return (len(assign) == g.n and set(assign) == set(range(1, ell + 1))
            and all(assign[u] != assign[v] for u, v in g.edges))


def check_analysis(item: dict, doc: dict, paths: dict) -> list[str]:
    """One graph's analysis document and rainbow-path report."""
    name = item["name"]
    g = _graph(item["n"], item["edges"])
    comps = _components(g)
    verts = _component_sets(g.n, g.edges)
    errors = []

    def err(msg):
        errors.append(f"{name}: {msg}")

    if (doc["graph"]["n"], doc["graph"]["m"]) != (g.n, g.m) or \
            [c["vertices"] for c in doc["components"]] != [list(v) for v in verts]:
        err("graph size or components differ from the input")
        return errors
    for c, entry in zip(comps, doc["components"]):
        ci = entry["index"]
        chi = entry["chi"]
        if chi != naive_chromatic(c):
            err(f"component {ci}: chi={chi}, brute force says {naive_chromatic(c)}")
        if not _proper_surjective(c, entry["chi_witness"]["assignment"], chi):
            err(f"component {ci}: chi witness is not a proper {chi}-colouring")
        delta = min(c.degree(v) for v in range(c.n))
        Delta = max(c.degree(v) for v in range(c.n))
        j, js = entry["j"], entry["j_star"]
        if j["admits"]:
            a = j["witness"]["assignment"]
            if not (_proper_surjective(c, a, j["value"]) and naive_all_yield(
                    c, Colouring(ell=j["value"], assignment=tuple(a)))):
                err(f"component {ci}: J witness fails the all-yield test")
            if not chi <= j["value"] <= delta + 1:
                err(f"component {ci}: chi <= J <= delta+1 fails ({chi}, {j['value']}, {delta})")
            if not js["admits"] or not j["value"] <= js["value"] <= Delta + 1:
                err(f"component {ci}: J <= J* <= Delta+1 fails ({j['value']}, {js['value']}, "
                    f"{Delta})")
        if js["admits"]:
            a = js["witness"]["assignment"]
            internal = [v for v in range(c.n) if c.degree(v) >= 2]
            if not (_proper_surjective(c, a, js["value"]) and _yield_set(c, a, internal)):
                err(f"component {ci}: J* witness fails the internal-yield test")
        rn = entry["rainbow_neighbourhood"]
        for mode, rep in rn.items():
            if rep["feasible"] and (rep["r"] != len(rep["yielding"]) or not 0 <= rep["r"] <= c.n):
                err(f"component {ci}: r[{mode}] disagrees with its yielding set")
        lo, hi = rn["exists-min"]["r"], rn["exists-max"]["r"]
        mid = rn["convention"]["r"] if rn["convention"]["feasible"] else lo
        if not lo <= mid <= hi:
            err(f"component {ci}: r[exists-min] <= r[convention] <= r[exists-max] fails "
                f"({lo}, {mid}, {hi})")
    family = item.get("family")
    if family:
        spec = FamilySpec(family["kind"], tuple(family["params"]))
        want_chi = family_chi(family["kind"], family["params"])
        if [c["chi"] for c in doc["components"]] != want_chi:
            err(f"chi per component {[c['chi'] for c in doc['components']]}, "
                f"family formula says {want_chi}")
        for key, oracle in (("jc", oracle_j(spec)), ("jstarc", oracle_j_star(spec))):
            block = doc["whole"][key]
            if (block["admits"], block["value"]) != (oracle.admits, oracle.value):
                err(f"{key}=({block['admits']}, {block['value']}), closed form says "
                    f"({oracle.admits}, {oracle.value})")
    errors.extend(f"{name}: {e}" for e in check_paths(g, verts, paths))
    return errors


def check_paths(g, verts: list[tuple[int, ...]], paths: dict) -> list[str]:
    """Every reported rainbow path is a simple path of the input graph
    whose colours cover its component's colouring."""
    errors = []
    where = {v: (ci, li) for ci, vs in enumerate(verts) for li, v in enumerate(vs)}
    colourings = paths["colourings"]
    if len(paths["pairs"]) != g.n * (g.n - 1) // 2:
        errors.append(f"{len(paths['pairs'])} pair entries for {g.n} vertices")
    for e in paths["pairs"]:
        u, v = e["pair"]
        if where[u][0] != where[v][0]:
            if e["exists"]:
                errors.append(f"pair {u},{v}: path across components")
            continue
        if not e["exists"]:
            continue
        p = e["path"]
        if not p or any(where.get(w, (None,))[0] != where[u][0] for w in p):
            errors.append(f"pair {u},{v}: reported path {p} leaves the component")
            continue
        col = colourings[where[u][0]]
        colours = {col["assignment"][where[w][1]] for w in p}
        if (p[0], p[-1]) != (u, v) or len(set(p)) != len(p) \
                or not all(g.has_edge(a, b) for a, b in zip(p, p[1:])) \
                or colours != set(range(1, col["ell"] + 1)):
            errors.append(f"pair {u},{v}: reported path {p} is not a rainbow path")
    return errors


# ---------------------------------------------------------------------------
# Self-test: planted errors must be caught
# ---------------------------------------------------------------------------

def self_test_corpus(doc: dict, corpus: list, max_n: int, expected, corpus_size,
                     infeasible) -> list[str]:
    """Corrupt a verdict, a witness and a count in turn; each corrupted
    copy must fail a check.  Returns the corruptions that went unseen."""
    missed = []
    bad = copy.deepcopy(doc)
    proven = next(v for v in bad["verdicts"] if v["theorem"] in PROVEN)
    proven["status"] = "COUNTEREXAMPLE"
    if not check_report(bad, expected, corpus_size, infeasible):
        missed.append("proven claim reported as refuted")
    bad = copy.deepcopy(doc)
    refuted = [v for v in bad["verdicts"] if v["witnesses"]]
    if refuted:
        # the triangle refutes none of the claims
        refuted[-1]["witnesses"][0]["edges"] = [[0, 1], [0, 2], [1, 2]]
        refuted[-1]["witnesses"][0]["n"] = 3
        if not check_report(bad, expected, corpus_size, infeasible):
            missed.append("witness replaced by a graph that refutes nothing")
    bad = copy.deepcopy(doc)
    bad["verdicts"][0]["tested"] += 1
    if not check_report(bad, expected, corpus_size, infeasible):
        missed.append("tested count off by one")
    if not check_corpus(corpus[:-1], max_n):
        missed.append("corpus missing one graph")
    return missed


def self_test_analysis(items: list, docs: list, paths: list) -> list[str]:
    missed = []
    fam = next(i for i, item in enumerate(items) if item.get("family"))
    bad = copy.deepcopy(docs[fam])
    block = bad["whole"]["jc"]
    block["admits"], block["value"] = True, (block["value"] or 0) + 1
    if not check_analysis(items[fam], bad, paths[fam]):
        missed.append("J value off by one")
    bad = copy.deepcopy(docs[fam])
    bad["components"][0]["chi"] += 1
    if not check_analysis(items[fam], bad, paths[fam]):
        missed.append("chi off by one")
    for i, p in enumerate(paths):
        found = next((e for e in p["pairs"] if e["exists"] and len(e["path"]) > 2), None)
        if found is not None:
            bad = copy.deepcopy(p)
            entry = next(e for e in bad["pairs"] if e["pair"] == found["pair"])
            entry["path"] = entry["path"][:1] + entry["path"][2:]
            if not check_analysis(items[i], docs[i], bad):
                missed.append("rainbow path with a vertex removed")
            break
    return missed
