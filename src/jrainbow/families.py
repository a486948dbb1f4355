"""Graph family generators, closed-form J-number oracles, and exhaustive
enumeration of small non-isomorphic graphs and trees.

Each family instance is built from its connected pieces: a null graph
(or a one-part multipartite graph) is a row of K_1, a forest union a row
of paths, a disjoint union the pieces of its parts.  Each connected kind
has one construction that gives its labelled edges and its J and J*
witnesses, so ``generate`` lays the pieces side by side and the oracles
read J^c and J*^c off them, without running a solver, from facts that
pin each kind down:

  complete K_n     J = J* = n (closed neighbourhoods are everything)
  paths P_n        J = 2 (bipartition) from order 2 on; J* = 3 from order 3
  cycles C_n       admit iff n = 0 mod 2 or mod 3; J = 3 when 3 | n else 2,
                   capped by delta+1 = 3 and realised by periodic patterns
  wheels W_n       (hub + rim C_{n-1}) J = 4 when 3 | rim, J = 3 when rim
                   even and not divisible by 3, otherwise no J-colouring
  complete multipartite with parts n_1..n_l: J = l (colour by part);
                   stars reach J* = Delta+1

Pendant-free pieces have J* = J.  Every witness is formula-built, so
tests can validate it through the colouring predicates without
consulting the solvers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cache
from typing import NamedTuple

from . import _shares
from .colouring import Colouring
from .graphs import Graph, build_graph, is_connected, neighbour_masks
from .jcolouring import JResult


@dataclass(frozen=True)
class FamilySpec:
    """A named family instance.

    kind: one of null, path, cycle, complete, wheel, complete_multipartite,
    forest_union, disjoint_union.  ``params`` holds the orders (or part
    sizes; for forest_union the path-component orders); ``parts`` holds the
    sub-specs of a disjoint_union.
    """

    kind: str
    params: tuple[int, ...] = ()
    parts: tuple["FamilySpec", ...] = field(default=())

    def describe(self) -> str:
        if self.kind == "disjoint_union":
            return " + ".join(p.describe() for p in self.parts)
        return f"{self.kind}({', '.join(map(str, self.params))})"


KINDS = (
    "null",
    "path",
    "cycle",
    "complete",
    "wheel",
    "complete_multipartite",
    "forest_union",
    "disjoint_union",
)


def _validate(spec: FamilySpec) -> None:
    kind, params = spec.kind, spec.params
    if kind not in KINDS:
        raise ValueError(f"unknown family kind {kind!r}")
    if kind == "disjoint_union":
        if not spec.parts:
            raise ValueError("disjoint_union needs at least one part")
        for part in spec.parts:
            _validate(part)
        return
    if spec.parts:
        raise ValueError(f"{kind} takes no sub-specs")
    if not params:
        raise ValueError(f"{kind} needs at least one parameter")
    if kind in ("null", "path", "complete") and (len(params) != 1 or params[0] < 1):
        raise ValueError(f"{kind} takes one order >= 1, got {params}")
    if kind == "cycle" and (len(params) != 1 or params[0] < 3):
        raise ValueError(f"cycle takes one order >= 3, got {params}")
    if kind == "wheel" and (len(params) != 1 or params[0] < 4):
        raise ValueError(f"wheel takes one total order >= 4, got {params}")
    if kind == "complete_multipartite" and any(p < 1 for p in params):
        raise ValueError(f"part sizes must be >= 1, got {params}")
    if kind == "forest_union" and any(p < 1 for p in params):
        raise ValueError(f"component orders must be >= 1, got {params}")


# ---------------------------------------------------------------------------
# Connected pieces: one labelled construction per connected kind, with the
# witnesses that hold under that labelling
# ---------------------------------------------------------------------------

class _Piece(NamedTuple):
    """A connected graph on vertices 0..n-1 with its J and J* witness
    assignments; a witness is None where the piece has no such colouring,
    and its largest colour is the number."""

    n: int
    edges: list[tuple[int, int]]
    j: tuple[int, ...] | None
    j_star: tuple[int, ...] | None


def _periodic(n: int, period: int) -> tuple[int, ...]:
    return tuple(i % period + 1 for i in range(n))


def _complete(n: int) -> _Piece:
    colours = tuple(range(1, n + 1))
    return _Piece(n, list(itertools.combinations(range(n), 2)), colours, colours)


def _path(n: int) -> _Piece:
    # below order 3 the period-3 pattern is 1, or 1 2: J* = n
    return _Piece(n, [(i, i + 1) for i in range(n - 1)], _periodic(n, 2), _periodic(n, 3))


def _cycle(n: int) -> _Piece:
    j = _periodic(n, 3) if n % 3 == 0 else _periodic(n, 2) if n % 2 == 0 else None
    return _Piece(n, [(i, (i + 1) % n) for i in range(n)], j, j)


def _wheel(n: int) -> _Piece:
    # the rim 1..n-1 keeps its cycle colouring and the hub takes one more
    rim = _cycle(n - 1)
    edges = [(0, i) for i in range(1, n)] + [(u + 1, v + 1) for u, v in rim.edges]
    j = None if rim.j is None else (max(rim.j) + 1,) + rim.j
    return _Piece(n, edges, j, j)


def _complete_multipartite(*sizes: int) -> _Piece:
    # a star has only its centre internal, so each leaf takes its own J* colour
    blocks = [range(end - size, end) for size, end in zip(sizes, itertools.accumulate(sizes))]
    edges = [(u, v) for a, b in itertools.combinations(blocks, 2) for u in a for v in b]
    j = tuple(colour for colour, size in enumerate(sizes, start=1) for _ in range(size))
    j_star = j
    if len(sizes) == 2 and min(sizes) == 1 and max(sizes) >= 2:
        leaves = tuple(range(2, max(sizes) + 2))
        j_star = (1,) + leaves if sizes[0] == 1 else leaves + (1,)
    return _Piece(sum(sizes), edges, j, j_star)


_PIECES = {
    "complete": _complete,
    "path": _path,
    "cycle": _cycle,
    "wheel": _wheel,
    "complete_multipartite": _complete_multipartite,
}


def _connected_pieces(spec: FamilySpec) -> list[_Piece]:
    """The connected pieces of a spec, in vertex order."""
    kind, params = spec.kind, spec.params
    if kind == "disjoint_union":
        return [piece for part in spec.parts for piece in _connected_pieces(part)]
    if kind == "forest_union":
        return [_path(k) for k in params]
    if kind == "null" or (kind == "complete_multipartite" and len(params) == 1):
        return [_complete(1)] * params[0]
    return [_PIECES[kind](*params)]


def generate(spec: FamilySpec) -> Graph:
    """Canonical labelled construction of the family instance: its
    connected pieces side by side in contiguous id blocks.

    Cycles use rim order 0..n-1; wheels put the hub at vertex 0 with the
    rim 1..n-1 in cycle order; multipartite parts occupy contiguous id
    blocks.
    """
    _validate(spec)
    offset = 0
    edges = []
    for piece in _connected_pieces(spec):
        edges.extend((u + offset, v + offset) for u, v in piece.edges)
        offset += piece.n
    return build_graph(offset, edges)


# ---------------------------------------------------------------------------
# Closed-form oracles
# ---------------------------------------------------------------------------

def _componentwise(witnesses: list[tuple[int, ...] | None]) -> JResult:
    """The componentwise result whose witness lays the pieces' witnesses
    side by side (each piece keeps colours 1..J_i)."""
    if any(w is None for w in witnesses):
        return JResult(admits=False)
    assignment = tuple(itertools.chain.from_iterable(witnesses))
    value = max(assignment)
    return JResult(admits=True, value=value, witness=Colouring(ell=value, assignment=assignment))


def oracle_j(spec: FamilySpec) -> JResult:
    """Closed-form componentwise J number of the family instance, with a
    formula-built witness; admits=False when some component admits no
    J-colouring."""
    _validate(spec)
    return _componentwise([piece.j for piece in _connected_pieces(spec)])


def oracle_j_star(spec: FamilySpec) -> JResult:
    """Closed-form componentwise J* number, symmetric to :func:`oracle_j`."""
    _validate(spec)
    return _componentwise([piece.j_star for piece in _connected_pieces(spec)])


# ---------------------------------------------------------------------------
# Canonical forms and exhaustive enumeration of small graphs
# ---------------------------------------------------------------------------

def _wl_classes(adjacency: list[list[int]]) -> list[int]:
    """Stable 1-dimensional Weisfeiler-Leman colour classes of the graph
    with these neighbour lists, encoded as canonical integers
    (isomorphism-invariant)."""
    n = len(adjacency)
    colours = [len(a) for a in adjacency]
    for _ in range(n):
        get = colours.__getitem__
        raw = [(c, tuple(sorted(map(get, a)))) for c, a in zip(colours, adjacency)]
        mapping = {sig: i for i, sig in enumerate(sorted(set(raw)))}
        new = [mapping[sig] for sig in raw]
        if new == colours:
            break
        colours = new
        if len(mapping) == n:  # every class a singleton: the next round repeats it
            break
    return colours


def _canonical_search(masks: list[int]) -> tuple[int, list[tuple[int, ...]]]:
    """Canonical edge mask of the graph with neighbour masks ``masks``,
    and generators of its automorphism group.

    The mask is the minimum relabelled edge mask over all vertex orderings
    that respect the WL colour classes.  Restricting to class-respecting
    orderings is exact because any isomorphism preserves WL classes.  An
    edge whose endpoints sit at positions a < b sets bit a*n + b.  The
    minimum is found by branch and bound, filling positions from n-1
    downward: once positions p..n-1 are filled, every mask bit >= p*n
    (rows p..n-1) is fixed, so a partial ordering whose fixed high bits
    exceed the incumbent's cannot lead to a smaller mask and is cut.  For
    the same reason only the candidates whose new row is smallest are
    tried at each position, and of two twins (vertices whose swap is an
    automorphism) only one, since their subtrees mirror each other.

    Two orderings with the same mask differ by an automorphism, and every
    optimal ordering is reached from a visited one by twin swaps.  So the
    twin transpositions, plus the map from the first optimal leaf to each
    other one, generate the whole group (McKay & Piperno, "Practical
    graph isomorphism, II", 2014).  A generator is a tuple holding each
    vertex's image.
    """
    n = len(masks)
    adjacency = []
    for mask in masks:
        neighbours = []
        while mask:
            low = mask & -mask
            neighbours.append(low.bit_length() - 1)
            mask ^= low
        adjacency.append(neighbours)
    classes = _wl_classes(adjacency)
    groups: dict[int, list[int]] = {}
    for v, c in enumerate(classes):
        groups.setdefault(c, []).append(v)
    # slots[p]: the class whose block holds position p
    slots = [groups[c] for c in sorted(classes)]
    # twins[v]: the vertices w with N(v) - w == N(w) - v, whose swap is an
    # automorphism: those with v's open neighbourhood (w not adjacent to
    # v) or with v's closed one (w adjacent).  No vertex has twins of both
    # kinds, so each group below is a twin class.
    twins = [0] * n
    generators: list[tuple[int, ...]] = []
    for keys in (masks, [mask | 1 << v for v, mask in enumerate(masks)]):
        alike: dict[int, list[int]] = {}
        for v, key in enumerate(keys):
            alike.setdefault(key, []).append(v)
        for members in alike.values():
            for i, v in enumerate(members[:-1]):
                for w in members[i + 1:]:
                    twins[v] |= 1 << w
                    twins[w] |= 1 << v
                    swap = list(range(n))
                    swap[v], swap[w] = w, v
                    generators.append(tuple(swap))
    # row[v]: bitmask of the positions already holding a neighbour of v
    row = [0] * n
    placed = [False] * n
    order = [0] * n  # order[p]: the vertex at position p
    best = -1
    leaves: list[list[int]] = []  # the orderings visited that reach best

    def place(p: int, high: int) -> None:
        nonlocal best
        if p < 0:  # the bound below has cut every leaf above best
            if high != best:
                best = high
                leaves.clear()
            leaves.append(order[:])
            return
        candidates = [v for v in slots[p] if not placed[v]]
        low = min([row[v] for v in candidates])
        shift = p * n
        high |= low << shift
        if best >= 0 and high >> shift > best >> shift:
            return
        bit = 1 << p
        skip = 0
        for v in candidates:
            if row[v] != low or skip >> v & 1:
                continue
            skip |= twins[v]
            placed[v] = True
            order[p] = v
            for u in adjacency[v]:
                row[u] |= bit
            place(p - 1, high)
            for u in adjacency[v]:
                row[u] ^= bit
            placed[v] = False

    place(n - 1, 0)
    first = leaves[0]
    for other in leaves[1:]:
        image = [0] * n
        for v, w in zip(first, other):
            image[v] = w
        generators.append(tuple(image))
    return best, generators


def canonical_form(g: Graph) -> tuple[int, int]:
    """Canonical (n, edge-bitmask) pair: the minimum relabelled edge mask
    over all vertex orderings that respect the WL colour classes; see
    :func:`_canonical_search`."""
    return (g.n, _canonical_search(neighbour_masks(g))[0])


def _graph_from_form(form: tuple[int, int], shared: dict) -> Graph:
    """The graph whose edges are the set bits of a canonical form.  Bit
    u*n + v (u < v) rises with (u, v), so every neighbour row comes out
    ascending, as :func:`build_graph` leaves it.

    ``shared`` is one dict per enumerated order (hash-consing: Filliatre
    & Conchon, "Type-safe modular hash-consing", 2006) that maps each row
    to itself.  So the graphs built through one dict hold one tuple object
    per distinct neighbour row."""
    n, mask = form
    adjacency: list[list[int]] = [[] for _ in range(n)]
    while mask:
        low = mask & -mask
        u, v = divmod(low.bit_length() - 1, n)
        adjacency[u].append(v)
        adjacency[v].append(u)
        mask ^= low
    return Graph(n, tuple(shared.setdefault(row, row) for row in map(tuple, adjacency)))


def _orbit(subset: int, generators: list[tuple[int, ...]]) -> set[int]:
    """The images of a vertex bitmask under the group the generators span."""
    orbit = {subset}
    frontier = [subset]
    while frontier:
        current = frontier.pop()
        for perm in generators:
            image = 0
            for v, w in enumerate(perm):
                if current >> v & 1:
                    image |= 1 << w
            if image not in orbit:
                orbit.add(image)
                frontier.append(image)
    return orbit


def _augmented_forms(parents, candidates) -> set[tuple[int, int]]:
    """Canonical forms of the graphs made by joining a new vertex to a
    subset of a parent's vertices, for every parent and every subset that
    ``candidates(parent)`` yields as a vertex bitmask.

    Subsets in one orbit of the parent's automorphism group give
    isomorphic graphs, so only the first of each orbit is built (McKay,
    "Isomorph-free exhaustive generation", 1998); ``candidates`` must
    accept whole orbits or none.  The global set of forms still removes
    the isomorphic graphs that different parents or orbits give.
    """
    forms: set[tuple[int, int]] = set()
    for h in parents:
        n = h.n + 1
        masks = neighbour_masks(h)
        generators = _canonical_search(masks)[1]
        new = 1 << h.n
        seen: set[int] = set()
        for subset in candidates(h):
            if subset in seen:
                continue
            seen |= _orbit(subset, generators)
            augmented = [m | new if subset >> v & 1 else m for v, m in enumerate(masks)]
            augmented.append(subset)
            forms.add((n, _canonical_search(augmented)[0]))
    return forms


def _new_vertex_is_maximal(h: Graph, degrees: list[int], subset: int) -> bool:
    """Whether joining a new vertex to the ``subset`` mask of ``h``'s
    vertices gives it the largest signature (degree, sorted neighbour
    degrees) in the augmented graph.  Ties count as largest."""
    d = subset.bit_count()
    new_degrees = [deg + (subset >> v & 1) for v, deg in enumerate(degrees)]
    top = max(new_degrees)
    if top != d:
        return top < d
    own = sorted(new_degrees[v] for v in range(h.n) if subset >> v & 1)
    for v, deg in enumerate(new_degrees):
        if deg == d:
            theirs = [new_degrees[u] for u in h.adjacency[v]]
            if subset >> v & 1:
                theirs.append(d)
            if sorted(theirs) > own:
                return False
    return True


def _maximal_subsets(h: Graph):
    """The subsets of ``h``'s vertices, as bitmasks, that pass
    :func:`_new_vertex_is_maximal`.  Only the sizes that can pass are
    generated: a new vertex of degree d below the maximum degree Delta of
    ``h`` is outranked, and so is one of degree Delta joined to a vertex
    of degree Delta, which then reaches Delta + 1."""
    degrees = [len(a) for a in h.adjacency]
    top = max(degrees)
    below = [v for v, deg in enumerate(degrees) if deg < top]
    for d in range(top, h.n + 1):
        for combo in itertools.combinations(below if d == top else range(h.n), d):
            subset = sum(1 << v for v in combo)
            if _new_vertex_is_maximal(h, degrees, subset):
                yield subset


# Parents per process of an order's augmentations.  Five alternating fresh
# runs of one order on two forked processes against one (2-CPU Xeon,
# Python 3.11.7) put the median at 18 against 13 ms for order 6 (34
# parents) and 90 against 104 ms for order 7 (156).  So order 7 forks on
# two CPUs and order 6 stays serial.
_PARENTS_PER_SHARE = 64


def _forms_slice(lo: int, hi: int, n: int) -> set[tuple[int, int]]:
    """The forms that order n's augmentations of the parents ``lo .. hi - 1``
    of order n - 1 give."""
    return _augmented_forms(_all_graphs(n - 1)[lo:hi], _maximal_subsets)


@cache
def _all_graphs(n: int) -> tuple[Graph, ...]:
    """All non-isomorphic graphs on n vertices via vertex augmentation:
    attach a new vertex n-1 to subsets of each (n-1)-vertex graph and
    deduplicate by canonical form.  The parents are shared among one
    forked worker per CPU, which take slices of them as they come free,
    once there are at least ``_PARENTS_PER_SHARE`` parents per process
    (orders 7 and 8 on a machine with more than one CPU); the sort makes
    the union of the slices' forms the same for any process count.

    An augmentation is skipped unless vertex n-1 has the largest
    isomorphism-invariant signature (degree, sorted neighbour degrees).
    The filter loses no class: every graph G has a vertex w of largest
    signature, G - w is isomorphic to some listed (n-1)-vertex graph, and
    joining n-1 to the image of w's neighbours gives a labelled copy of G
    that passes.  The filter is invariant under the parent's
    automorphisms, so one subset per orbit suffices.
    """
    if n == 1:
        return (_graph_from_form((1, 0), {}),)
    parents = len(_all_graphs(n - 1))
    count = _shares.share_count(parents, _PARENTS_PER_SHARE)
    forms, *others = _shares.run(_forms_slice, count, parents, n)
    forms.update(*others)
    ordered = sorted(forms, key=lambda f: (f[1].bit_count(), f[1]))
    shared: dict = {}
    return tuple(_graph_from_form(f, shared) for f in ordered)


def enumerate_graphs(n: int, connected_only: bool = False) -> list[Graph]:
    """All non-isomorphic graphs on n vertices (1 <= n <= 8), one canonical
    representative each, ordered by (edge count, canonical form)."""
    if not 1 <= n <= 8:
        raise ValueError(f"enumeration supported for 1 <= n <= 8, got {n}")
    graphs = _all_graphs(n)
    if connected_only:
        return [g for g in graphs if is_connected(g)]
    return list(graphs)


@cache
def _trees(n: int) -> tuple[Graph, ...]:
    """Trees of order n, cached as a tuple so that no caller can change
    what later calls return; see :func:`enumerate_trees`."""
    if n == 1:
        return (_graph_from_form((1, 0), {}),)
    forms = _augmented_forms(_trees(n - 1), lambda t: [1 << v for v in range(t.n)])
    shared: dict = {}
    return tuple(_graph_from_form(f, shared) for f in sorted(forms, key=lambda f: f[1]))


def enumerate_trees(n: int) -> list[Graph]:
    """All non-isomorphic trees on n vertices (n >= 1), by leaf
    augmentation (one leaf per orbit of the smaller tree's automorphism
    group) with canonical-form deduplication."""
    if n < 1:
        raise ValueError(f"tree order must be >= 1, got {n}")
    return list(_trees(n))
