"""Exact rainbow-path search and the rainbow-connectivity predicates.

A rainbow path for a colouring with ell colours is a simple path whose
vertex colours cover all of {1..ell}.  A graph is componentwise-J rainbow
connected when, under a per-component J-colouring, every pair of distinct
vertices inside a component is joined by such a path; chi-rainbow
connectivity asks the same of per-component chromatic colourings.

The path search is exact: depth-first over simple paths, neighbours
ascending, on int bitmasks of vertices and colours.  A branch is
abandoned when a flood fill through the vertices off the path no longer
reaches the target or cannot collect the colours still missing; that
test may overestimate what one simple path can collect, so it never
prunes a viable branch.  A (end vertex, on-path mask) state that fails
is remembered as dead for the rest of the pair's search, since nothing
else decides whether it extends.  Pruning and memo only skip dead
branches, so the first path found is the first rainbow path in
depth-first order.  Worst-case exponential; desk scale.

Searching a component for a rainbow-connecting colouring needs only a
verdict per candidate, and that search runs per source, not per pair:
one depth-first search from source u, over the same states and cut by
the same flood fill, marks every vertex v > u that a rainbow path
reaches, with one memo for all of them.  The sources run in ascending
order, and a candidate is dropped at its first failing source.  A
component with a bridge has no rainbow-connecting colouring with three
or more colours (the bridge is the only path between its endpoints and
shows two), so it needs no path search.  Only reported colourings are
scanned pair by pair for witnesses, by the per-pair search, which also
fixes which path each pair reports.

The predicates read each component's colouring off its
``analysis.ComponentFacts`` record, so equal components share one solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable, Sequence

from .colouring import Colouring, convention_colouring, is_proper
from .graphs import ComponentDecomposition, Graph, has_bridge, neighbour_masks
from .jcolouring import NotJColourable, is_j_colouring

JC_MODES = ("given", "exists")
CHI_MODES = ("convention", "exists")


@dataclass(frozen=True)
class RainbowWitness:
    """A colour-covering simple path between one vertex pair."""

    pair: tuple[int, int]
    path: tuple[int, ...]
    colours_seen: frozenset[int]

    def validate(self, g: Graph, colouring: Colouring) -> None:
        """Re-check every invariant independently of the search that
        produced this witness."""
        u, v = self.pair
        if not self.path or (self.path[0], self.path[-1]) != (u, v):
            raise AssertionError("path endpoints do not match the pair")
        if len(set(self.path)) != len(self.path):
            raise AssertionError("path revisits a vertex")
        for a, b in zip(self.path, self.path[1:]):
            if not g.has_edge(a, b):
                raise AssertionError(f"path step ({a}, {b}) is not an edge")
        seen = frozenset(colouring.assignment[w] for w in self.path)
        if seen != self.colours_seen:
            raise AssertionError("recorded colour set does not match the path")
        if seen != frozenset(range(1, colouring.ell + 1)):
            raise AssertionError("path does not cover the full colour set")


def _flood(
    masks: Sequence[int], bits: Sequence[int], w: int, free: int, stop: int = 0
) -> tuple[int, int]:
    """The flood fill from w through the vertices of ``free``: the mask of
    vertices it reaches and the mask of their colours.  It may end at a
    vertex of ``stop`` but neither passes through it nor collects its
    colour.  Both searches cut a branch on it: the reach overestimates
    what one simple path from w can visit, and the colours what it can
    collect, so no viable branch is cut."""
    colours = 0
    reach = frontier = masks[w] & free
    while frontier:
        step = 0
        rest = frontier & ~stop
        while rest:
            low = rest & -rest
            x = low.bit_length() - 1
            step |= masks[x]
            colours |= bits[x]
            rest ^= low
        frontier = step & free & ~reach
        reach |= frontier
    return reach, colours


def rainbow_path_finder(
    g: Graph, colouring: Colouring
) -> Callable[[int, int], RainbowWitness | None]:
    """The witness search of ``g`` under the proper ``colouring``: a
    function of a pair (u, v) of distinct vertices that returns the first
    rainbow (u, v)-path in depth-first order, neighbours ascending,
    validated, or None.  Vertex and colour sets are int bitmasks.  A state
    is the current end w of the path and the mask of path vertices;
    whether it extends to a rainbow path ending at v depends on nothing
    else, so a state found dead is not entered again in that pair's
    search."""
    if not is_proper(g, colouring):
        raise ValueError("colouring is not proper on this graph")
    masks = neighbour_masks(g)
    adjacency = g.adjacency
    n = g.n
    bits = [1 << (c - 1) for c in colouring.assignment]
    full = (1 << colouring.ell) - 1

    def find(u: int, v: int) -> RainbowWitness | None:
        target = 1 << v
        dead: set[int] = set()
        path = [u]

        def extend(w: int, on_path: int, seen: int) -> bool:
            state = on_path * n + w
            if state in dead:
                return False
            reach, colours = _flood(masks, bits, w, ~on_path, target)
            if not reach & target or seen | bits[v] | colours != full:
                dead.add(state)
                return False
            for x in adjacency[w]:
                if x == v:
                    if seen | bits[v] == full:
                        path.append(v)
                        return True
                elif not on_path >> x & 1:
                    path.append(x)
                    if extend(x, on_path | 1 << x, seen | bits[x]):
                        return True
                    path.pop()
            dead.add(state)
            return False

        if not extend(u, 1 << u, bits[u]):
            return None
        witness = RainbowWitness(
            pair=(u, v),
            path=tuple(path),
            colours_seen=frozenset(colouring.assignment[x] for x in path),
        )
        witness.validate(g, colouring)
        return witness

    return find


def rainbow_path_exists(
    g: Graph, colouring: Colouring, u: int, v: int
) -> RainbowWitness | None:
    """First rainbow (u,v)-path in depth-first order, or None.

    The colouring must be proper; u and v must be distinct.  Neighbours
    are explored in ascending order, so the witness is deterministic.
    """
    if u == v:
        raise ValueError("rainbow paths are defined for pairs of distinct vertices")
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise ValueError(f"pair ({u}, {v}) outside 0..{g.n - 1}")
    return rainbow_path_finder(g, colouring)(u, v)


def _connects_every_pair(masks: Sequence[int], colouring: Colouring) -> bool:
    """The verdict search of one component, given its neighbour masks:
    True when ``colouring`` joins every pair of distinct vertices by a
    rainbow path.

    The sources u run in ascending order, each with one depth-first
    search over states (end w, on-path mask) that keeps the mask of
    targets v > u still unreached, and the search stops at the first
    source that misses one.  On entering a state it marks every
    unreached target next to w, off the path, whose colour completes the
    colour set.  The flood fill from w through the vertices off the path
    cuts a state that reaches no unreached target or misses a colour.
    The unreached mask only shrinks, so a state cut or fully explored
    stays dead for the rest of the source's search, and one memo serves
    every target of the source."""
    n = len(masks)
    bits = [1 << (c - 1) for c in colouring.assignment]
    full = (1 << colouring.ell) - 1
    # the targets whose colour completes a path that misses these colours
    completing = {0: (1 << n) - 1}
    for x, bit in enumerate(bits):
        completing[bit] = completing.get(bit, 0) | 1 << x
    unreached = 0
    dead: set[int] = set()

    def extend(w: int, on_path: int, seen: int) -> bool:
        nonlocal unreached
        state = on_path * n + w
        if state in dead:
            return False
        free = ~on_path
        unreached &= ~(masks[w] & free & completing.get(full & ~seen, 0))
        if not unreached:
            return True
        reach, colours = _flood(masks, bits, w, free)
        if reach & unreached and seen | colours == full:
            rest = masks[w] & free
            while rest:
                low = rest & -rest
                x = low.bit_length() - 1
                if extend(x, on_path | low, seen | bits[x]):
                    return True
                rest ^= low
        dead.add(state)
        return False

    for u in range(n - 1):
        unreached = ((1 << n) - 1) & (-1 << (u + 1))
        dead.clear()
        if not extend(u, 1 << u, bits[u]):
            return False
    return True


def rainbow_connecting_colouring(
    comp: Graph, ell: int, candidates: Iterable[Colouring]
) -> Colouring | None:
    """The first of ``candidates`` under which every pair of distinct
    vertices of the connected graph ``comp`` is joined by a rainbow path,
    or None when there is none.  Every candidate is a proper colouring
    with ``ell`` colours.

    With ell >= 3 a bridge refutes every candidate unseen: its endpoints
    are joined by no path but the bridge itself.  Otherwise each
    candidate gets its own verdict search, which drops it at its first
    failing source.
    """
    if ell >= 3 and has_bridge(comp):
        return None
    masks = neighbour_masks(comp)
    return next((col for col in candidates if _connects_every_pair(masks, col)), None)


def min_rainbow_path_lengths(
    g: Graph, colouring: Colouring
) -> dict[tuple[int, int], int | None]:
    """Shortest rainbow path length (edge count) for every distinct vertex
    pair of connected ``g`` under a J-colouring; None when a pair has no
    rainbow path.

    A rainbow path shows all ell colours, so it has at least ell vertices
    and ell - 1 edges.  Each pair is searched by iterative deepening from
    that floor: a depth-first search on bitmasks for a path with exactly
    the current number of edges, cut where the colours still missing
    outnumber the edges left."""
    if not is_j_colouring(g, colouring):
        raise ValueError("expected a J-colouring of a connected graph")
    masks = neighbour_masks(g)
    bits = [1 << (c - 1) for c in colouring.assignment]
    full = (1 << colouring.ell) - 1
    floor = max(colouring.ell - 1, 1)

    def reaches(w: int, v: int, on_path: int, seen: int, left: int) -> bool:
        # is there a rainbow path w..v with ``left`` more edges, off the path?
        if left == 1:
            return bool(masks[w] >> v & 1) and seen | bits[v] == full
        if (full & ~seen).bit_count() > left:
            return False
        rest = masks[w] & ~on_path & ~(1 << v)
        while rest:
            low = rest & -rest
            x = low.bit_length() - 1
            if reaches(x, v, on_path | low, seen | bits[x], left - 1):
                return True
            rest ^= low
        return False

    out: dict[tuple[int, int], int | None] = {}
    for u, v in combinations(range(g.n), 2):
        out[(u, v)] = next(
            (d for d in range(floor, g.n) if reaches(u, v, 1 << u, bits[u], d)), None
        )
    return out


# ---------------------------------------------------------------------------
# Whole-graph connectivity predicates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConnectivityReport:
    """Verdict for one graph, with the per-component colourings that were
    used and a witness path per vertex pair (parent vertex ids)."""

    connected: bool
    mode: str
    colourings: tuple[Colouring | None, ...]
    witness_paths: tuple[tuple[tuple[int, int], tuple[int, ...]], ...]
    failed_pairs: tuple[tuple[int, int], ...] = ()

    def witness_map(self) -> dict[tuple[int, int], tuple[int, ...]]:
        return dict(self.witness_paths)


def _report(
    dec: ComponentDecomposition, mode: str, colourings: Sequence[Colouring | None]
) -> ConnectivityReport:
    """Report on one colouring per component (None where a search found
    none that connects): every pair's witness path or failure, in pair
    order, on parent vertex ids."""
    witness_paths: list[tuple[tuple[int, int], tuple[int, ...]]] = []
    failed_pairs: list[tuple[int, int]] = []
    for verts, comp, col in zip(dec.vertices, dec.components, colourings):
        if col is None:
            continue
        find = rainbow_path_finder(comp, col)
        for u, v in combinations(range(comp.n), 2):
            w = find(u, v)
            if w is None:
                failed_pairs.append((verts[u], verts[v]))
            else:
                witness_paths.append(((verts[u], verts[v]), tuple(verts[x] for x in w.path)))
    return ConnectivityReport(
        connected=None not in colourings and not failed_pairs,
        mode=mode,
        colourings=tuple(colourings),
        witness_paths=tuple(witness_paths),
        failed_pairs=tuple(failed_pairs),
    )


def is_jc_rainbow_connected(
    g: Graph,
    mode: str = "exists",
    colourings: tuple[Colouring, ...] | None = None,
) -> ConnectivityReport:
    """Componentwise-J rainbow connectivity of ``g``.

    mode="given" evaluates the supplied per-component J-colourings;
    mode="exists" searches every maximum J-colouring of each component for
    one that rainbow-connects all of its pairs.  Trivial components are
    vacuously connected.  Raises :class:`NotJColourable` when some
    component admits no J-colouring, since the predicate is undefined
    there.
    """
    from .analysis import GraphFacts

    if mode not in JC_MODES:
        raise ValueError(f"mode must be one of {JC_MODES}, got {mode!r}")
    facts = GraphFacts(g)
    if not facts.jc.admits:
        raise NotJColourable(
            "predicate undefined: some component admits no J-colouring"
        )
    dec = facts.decomposition
    if mode == "given":
        if colourings is None or len(colourings) != len(dec):
            raise ValueError(
                f"given mode needs one colouring per component ({len(dec)})"
            )
        for comp, col in zip(dec.components, colourings):
            if not is_j_colouring(comp, col):
                raise ValueError("supplied colouring is not a J-colouring of its component")
    else:
        colourings = tuple(c.jc_rainbow_colouring for c in facts.components)
    return _report(dec, mode, colourings)


def is_chi_rainbow_connected(g: Graph, mode: str = "exists") -> ConnectivityReport:
    """Chromatic rainbow connectivity of ``g``.

    Per component, the colour universe is that component's chi colours:
    mode="convention" uses the greedy-maximal chi-colouring (its
    infeasibility propagates), mode="exists" searches every surjective
    proper chi-colouring for one that rainbow-connects all pairs.
    """
    from .analysis import GraphFacts

    if g.n == 0:
        raise ValueError("connectivity of the empty graph is undefined")
    if mode not in CHI_MODES:
        raise ValueError(f"mode must be one of {CHI_MODES}, got {mode!r}")
    facts = GraphFacts(g)
    if mode == "convention":
        # where the record holds none, building it again raises the error
        colourings = [
            c.convention or convention_colouring(c.graph, c.chromatic[0])
            for c in facts.components
        ]
    else:
        colourings = [c.exists_colouring for c in facts.components]
    return _report(facts.decomposition, mode, colourings)
