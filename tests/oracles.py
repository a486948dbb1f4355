"""Independent brute-force oracles used to derive and cross-check expected
values.  Deliberately naive: none of the pruning or bookkeeping of the
package's solvers is shared, so agreement is meaningful."""

from __future__ import annotations

import itertools

from jrainbow import Colouring, Graph, JResult, build_graph


def naive_is_k_colourable(g: Graph, k: int) -> bool:
    """Plain backtracking over colour assignments with conflict abort."""
    assign = [0] * g.n

    def rec(i: int) -> bool:
        if i == g.n:
            return True
        for c in range(1, k + 1):
            if all(assign[u] != c for u in g.adjacency[i] if u < i):
                assign[i] = c
                if rec(i + 1):
                    return True
        assign[i] = 0
        return False

    return rec(0)


def naive_chromatic(g: Graph) -> int:
    for k in range(1, g.n + 1):
        if naive_is_k_colourable(g, k):
            return k
    raise AssertionError("unreachable")


def naive_clique_number(g: Graph) -> int:
    """Size of the largest vertex subset whose pairs are all edges, by
    scanning subsets from the largest size down; 0 without vertices."""
    for size in range(g.n, 0, -1):
        for combo in itertools.combinations(range(g.n), size):
            if all(g.has_edge(u, v) for u, v in itertools.combinations(combo, 2)):
                return size
    return 0


def naive_surjective_proper_colourings(g: Graph, k: int) -> list[Colouring]:
    """Filter the full k^n assignment space."""
    out = []
    for assign in itertools.product(range(1, k + 1), repeat=g.n):
        if set(assign) != set(range(1, k + 1)):
            continue
        if all(assign[u] != assign[v] for u, v in g.edges):
            out.append(Colouring(ell=k, assignment=assign))
    return out


def naive_proper_colourings(g: Graph, k: int):
    """Every surjective proper k-colouring in lexicographic order of
    assignment vectors, by plain backtracking in vertex order: a colour
    already on an earlier neighbour is never tried, and a branch stops
    when the vertices left are too few for the colours still unused."""
    assign = [0] * g.n

    def rec(i: int, used: frozenset[int]):
        if i == g.n:
            yield Colouring(ell=k, assignment=tuple(assign))
            return
        for c in range(1, k + 1):
            if any(assign[u] == c for u in g.adjacency[i] if u < i):
                continue
            now_used = used | {c}
            if k - len(now_used) > g.n - i - 1:
                continue
            assign[i] = c
            yield from rec(i + 1, now_used)

    yield from rec(0, frozenset())


def brute_force_j_number(g: Graph, star: bool = False) -> JResult:
    """J (or J*) number of connected ``g``: colour counts from the degree
    cap downward, at each the first of :func:`naive_proper_colourings`
    under which every vertex (for J*, every vertex of degree >= 2) sees
    all colours, tested whole by :func:`naive_all_yield`.  The first hit
    is the lexicographically first such colouring at the largest count."""
    if star:
        vertices = [v for v in range(g.n) if g.degree(v) >= 2]
        cap = min((g.degree(v) + 1 for v in vertices), default=g.n)
    else:
        vertices = None
        cap = min(g.degree(v) for v in range(g.n)) + 1
    for k in range(cap, 0, -1):
        for colouring in naive_proper_colourings(g, k):
            if naive_all_yield(g, colouring, vertices):
                return JResult(admits=True, value=k, witness=colouring)
    return JResult(admits=False)


def naive_mis_lex(g: Graph, candidates=None) -> frozenset[int]:
    """Lexicographically smallest maximum independent set by scanning
    combinations from the largest size down (combinations yield in
    lexicographic order)."""
    verts = sorted(candidates) if candidates is not None else list(range(g.n))
    for size in range(len(verts), 0, -1):
        for combo in itertools.combinations(verts, size):
            if all(not g.has_edge(u, v) for u, v in itertools.combinations(combo, 2)):
                return frozenset(combo)
    return frozenset()


def all_simple_paths(g: Graph, u: int, v: int):
    """Every simple path from u to v, no pruning."""
    path = [u]
    on_path = {u}

    def rec():
        w = path[-1]
        if w == v:
            yield tuple(path)
            return
        for x in g.adjacency[w]:
            if x not in on_path:
                path.append(x)
                on_path.add(x)
                yield from rec()
                path.pop()
                on_path.remove(x)

    yield from rec()


def naive_rainbow_path_exists(g: Graph, colouring: Colouring, u: int, v: int) -> bool:
    full = set(range(1, colouring.ell + 1))
    for path in all_simple_paths(g, u, v):
        if {colouring.assignment[w] for w in path} == full:
            return True
    return False


def naive_cycle_lengths(g: Graph) -> set[int]:
    """Lengths of the simple cycles of ``g``: every cycle is an edge (u, v)
    closed by a simple u-v path of three or more vertices."""
    return {
        len(path)
        for u, v in g.edges
        for path in all_simple_paths(g, u, v)
        if len(path) >= 3
    }


def naive_min_rainbow_path_lengths(
    g: Graph, colouring: Colouring
) -> dict[tuple[int, int], int | None]:
    """Fewest edges of a colour-covering simple path per pair u < v, or
    None, by scanning every simple path of the pair."""
    full = set(range(1, colouring.ell + 1))
    return {
        (u, v): min(
            (
                len(path) - 1
                for path in all_simple_paths(g, u, v)
                if {colouring.assignment[w] for w in path} == full
            ),
            default=None,
        )
        for u, v in itertools.combinations(range(g.n), 2)
    }


def naive_components(g: Graph) -> list[tuple[list[int], Graph]]:
    """Connected components by flood fill, ordered by smallest vertex: the
    ascending parent ids of each and its induced subgraph on local ids."""
    out = []
    seen: set[int] = set()
    for start in range(g.n):
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            for x in g.adjacency[stack.pop()]:
                if x not in comp:
                    comp.add(x)
                    stack.append(x)
        seen |= comp
        verts = sorted(comp)
        local = {v: i for i, v in enumerate(verts)}
        edges = [(local[u], local[v]) for u, v in g.edges if u in comp]
        out.append((verts, build_graph(len(verts), edges)))
    return out


def naive_bridges(g: Graph) -> list[tuple[int, int]]:
    """Edges whose removal leaves more components than ``g`` has."""
    count = len(naive_components(g))
    return [
        e for e in g.edges
        if len(naive_components(build_graph(g.n, [f for f in g.edges if f != e]))) > count
    ]


def naive_all_yield(g: Graph, colouring: Colouring, vertices=None) -> bool:
    """Every vertex (or every one of ``vertices``) sees all colours in its
    closed neighbourhood."""
    full = set(range(1, colouring.ell + 1))
    for v in range(g.n) if vertices is None else vertices:
        seen = {colouring.assignment[v]}
        seen.update(colouring.assignment[u] for u in g.adjacency[v])
        if seen != full:
            return False
    return True


def _naive_wl_classes(g: Graph) -> list[int]:
    """Stable 1-dimensional Weisfeiler-Leman colour classes as canonical
    integers: start from degrees, replace each colour by the rank of
    (colour, sorted neighbour colours) until the list stops changing."""
    colours = [g.degree(v) for v in range(g.n)]
    for _ in range(g.n):
        raw = [
            (colours[v], tuple(sorted(colours[u] for u in g.adjacency[v])))
            for v in range(g.n)
        ]
        mapping = {sig: i for i, sig in enumerate(sorted(set(raw)))}
        new = [mapping[raw[v]] for v in range(g.n)]
        if new == colours:
            break
        colours = new
    return colours


def naive_canonical_form(g: Graph) -> tuple[int, int]:
    """(n, minimum edge mask) over every vertex ordering that keeps the WL
    classes in ascending blocks, by trying each such ordering; the edge
    {u, v} at positions a < b sets bit a*n + b."""
    n = g.n
    if n == 0:
        return (0, 0)
    classes = _naive_wl_classes(g)
    groups: dict[int, list[int]] = {}
    for v, c in enumerate(classes):
        groups.setdefault(c, []).append(v)
    # bit[a][b]: the mask bit of an edge between positions a and b
    bit = [[1 << (min(a, b) * n + max(a, b)) for b in range(n)] for a in range(n)]
    pos = [0] * n
    best = None
    for arrangement in itertools.product(
        *(itertools.permutations(groups[c]) for c in sorted(groups))
    ):
        for p, v in enumerate(itertools.chain.from_iterable(arrangement)):
            pos[v] = p
        mask = sum(bit[pos[u]][pos[v]] for u, v in g.edges)
        if best is None or mask < best:
            best = mask
    return (n, best)


def naive_automorphisms(g: Graph) -> set[tuple[int, ...]]:
    """Every permutation of the vertices, as the tuple of their images,
    that maps the edge set onto itself."""
    edges = {frozenset(e) for e in g.edges}
    return {
        perm
        for perm in itertools.permutations(range(g.n))
        if all(frozenset((perm[u], perm[v])) in edges for u, v in g.edges)
    }


def naive_idomatic_number(g: Graph) -> int | None:
    """Most blocks in a partition of the vertices into maximal independent
    sets, or None when no such partition exists.  The maximal independent
    sets come from a scan of every vertex subset; the partition from
    trying each set that holds the smallest vertex left."""
    vertices = range(g.n)
    neighbours = [set(g.adjacency[v]) for v in vertices]
    maximal = []
    for size in range(1, g.n + 1):
        for combo in itertools.combinations(vertices, size):
            chosen = frozenset(combo)
            if any(neighbours[v] & chosen for v in combo):
                continue
            if all(v in chosen or neighbours[v] & chosen for v in vertices):
                maximal.append(chosen)

    def most(left: frozenset[int]) -> int | None:
        if not left:
            return 0
        first = min(left)
        counts = [most(left - s) for s in maximal if first in s and s <= left]
        counts = [c + 1 for c in counts if c is not None]
        return max(counts, default=None)

    return most(frozenset(vertices))
