"""Proper colourings, exact chromatic number and the greedy-maximal
convention colouring.

Colour indices are 1-based (c_1..c_ell).  Every :class:`Colouring` is
surjective onto {1..ell}: a colouring that skips a colour cannot be
represented, which keeps the "minimum parameter" discipline an invariant
of the type rather than a property to re-check everywhere.

Three searches live here.  The exhaustive colouring search behind
:func:`enumerate_proper_colourings` also finds the chromatic number, the
chromatic candidates of rainbow connectivity, J* on components with a
pendant vertex and the J-colourings of
:func:`jrainbow.jcolouring.enumerate_j_colourings`: it optionally
enforces full colour coverage on the closed neighbourhoods of a chosen
vertex set, pruning as soon as a neighbourhood is completely assigned.
A branch and bound in the same vertex order finds the chi-colouring with
the most or the fewest rainbow neighbourhoods, for the exists modes of
the rainbow neighbourhood number r.  One clique search gives the clique
number that bounds chi from below and, run on the complement, the
maximum independent sets that form the classes of the convention
colouring.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Iterable, Iterator

from .graphs import Graph, neighbour_masks


class ConventionInfeasibleError(ValueError):
    """The greedy-maximal discipline cannot realise the demanded number of
    colour classes on this graph."""


@dataclass(frozen=True)
class Colouring:
    """Total colour assignment vertex -> {1..ell}, surjective onto it."""

    ell: int
    assignment: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.ell < 1 and self.assignment:
            raise ValueError(f"need at least one colour, got ell={self.ell}")
        used = set(self.assignment)
        if self.assignment and used != set(range(1, self.ell + 1)):
            raise ValueError(
                f"assignment must use every colour in 1..{self.ell}, used {sorted(used)}"
            )

    @property
    def n(self) -> int:
        return len(self.assignment)

    @property
    def theta(self) -> tuple[int, ...]:
        """Per-colour vertex counts theta(c_1)..theta(c_ell)."""
        counts = [0] * self.ell
        for c in self.assignment:
            counts[c - 1] += 1
        return tuple(counts)

    def colour_classes(self) -> tuple[tuple[int, ...], ...]:
        classes: list[list[int]] = [[] for _ in range(self.ell)]
        for v, c in enumerate(self.assignment):
            classes[c - 1].append(v)
        return tuple(tuple(cls) for cls in classes)

    def to_json_dict(self) -> dict:
        return {"ell": self.ell, "assignment": list(self.assignment)}


def is_proper(g: Graph, colouring: Colouring) -> bool:
    """True iff every edge is bichromatic.  The assignment must cover all
    vertices of ``g`` exactly."""
    if colouring.n != g.n:
        raise ValueError(
            f"colouring covers {colouring.n} vertices, graph has {g.n}"
        )
    a = colouring.assignment
    return all(a[u] != a[v] for u, v in g.edges)


def inverse_colouring(colouring: Colouring) -> Colouring:
    """Relabel colours by c_j -> c_{ell-(j-1)}.  An involution."""
    ell = colouring.ell
    return Colouring(
        ell=ell,
        assignment=tuple(ell - (c - 1) for c in colouring.assignment),
    )


# ---------------------------------------------------------------------------
# Exhaustive colouring search
# ---------------------------------------------------------------------------

def _finish_index(g: Graph, vertices: Iterable[int]) -> list[list[int]]:
    """finish_at[i]: the given vertices whose closed neighbourhood becomes
    fully assigned when vertex i receives its colour."""
    finish_at: list[list[int]] = [[] for _ in range(g.n)]
    for w in set(vertices):
        finish_at[max(g.adjacency[w] + (w,))].append(w)
    return finish_at


def _search_colourings(
    g: Graph,
    k: int,
    *,
    covered: Iterable[int] = (),
    canonical: bool = False,
) -> Iterator[tuple[int, ...]]:
    """Yield surjective proper k-colour assignment vectors of ``g`` in
    lexicographic order.

    covered: vertices whose closed neighbourhood must contain all k
        colours; each is checked as soon as its neighbourhood is fully
        assigned, which prunes hard.
    canonical: emit one representative per colour permutation (colours
        appear in first-use order).
    """
    n = g.n
    if k < 1:
        return
    if n == 0:
        return
    full = (1 << k) - 1
    finish_at = _finish_index(g, covered)
    adjacency = g.adjacency
    assign = [0] * n

    def closed_mask(w: int) -> int:
        mask = 1 << (assign[w] - 1)
        for u in adjacency[w]:
            mask |= 1 << (assign[u] - 1)
        return mask

    def rec(i: int, used_mask: int, used_count: int) -> Iterator[tuple[int, ...]]:
        if i == n:
            yield tuple(assign)
            return
        forbidden = 0
        for u in adjacency[i]:
            if u < i:
                forbidden |= 1 << (assign[u] - 1)
        limit = min(k, used_count + 1) if canonical else k
        remaining = n - i - 1
        for c in range(1, limit + 1):
            bit = 1 << (c - 1)
            if forbidden & bit:
                continue
            new_count = used_count if used_mask & bit else used_count + 1
            if k - new_count > remaining:
                continue
            assign[i] = c
            if all(closed_mask(w) == full for w in finish_at[i]):
                yield from rec(i + 1, used_mask | bit, new_count)
        assign[i] = 0

    yield from rec(0, 0, 0)


def _extreme_yield_colouring(g: Graph, k: int, maximise: bool) -> tuple[int, ...]:
    """The lexicographically first surjective proper k-colour assignment
    vector of ``g`` under which the most (``maximise``) or the fewest
    vertices see all k colours in their closed neighbourhood.

    Depth-first branch and bound in vertex order, with the first-use
    colour limit and the surjectivity cut of the canonical
    :func:`_search_colourings`.
    A vertex is counted once its closed neighbourhood is fully assigned.
    A branch is cut when it cannot strictly beat the best count found so
    far, so only strictly better leaves are reached, and the first leaf
    at the extreme is the one returned.  Once the best count is n (or 0)
    that cut ends every open branch at its next vertex.  ``g`` must be
    non-empty and k-colourable.
    """
    n = g.n
    full = (1 << k) - 1
    finish_at = _finish_index(g, range(n))
    closed = [(w,) + g.adjacency[w] for w in range(n)]
    earlier = [[u for u in g.adjacency[i] if u < i] for i in range(n)]
    # undecided[i]: vertices not yet counted or ruled out once vertex i
    # has its colour
    undecided = [n - done for done in accumulate(map(len, finish_at))]
    bits = [0] * n  # colour c of a vertex as the bit 1 << (c - 1)
    best = -1 if maximise else n + 1
    best_bits: list[int] = []

    def branch(i: int, used_count: int, count: int) -> None:
        nonlocal best, best_bits
        if i == n:
            best, best_bits = count, bits[:]
            return
        forbidden = 0
        for u in earlier[i]:
            forbidden |= bits[u]
        remaining = n - i - 1
        for c in range(min(k, used_count + 1)):
            bit = 1 << c
            if forbidden & bit:
                continue
            new_count = used_count + (c == used_count)  # colours 1..used_count are in use
            if k - new_count > remaining:
                continue
            bits[i] = bit
            yielding = count
            for w in finish_at[i]:
                mask = 0
                for u in closed[w]:
                    mask |= bits[u]
                if mask == full:
                    yielding += 1
            if maximise:
                if yielding + undecided[i] <= best:
                    continue
            elif yielding >= best:
                continue
            branch(i + 1, new_count, yielding)

    branch(0, 0, 0)
    return tuple(b.bit_length() for b in best_bits)


def enumerate_proper_colourings(g: Graph, k: int) -> Iterator[Colouring]:
    """Every surjective proper k-colouring of ``g`` exactly once, in
    lexicographic order of assignment vectors.  Empty stream when none
    exist.  Intended for desk-scale graphs."""
    if k < 1:
        raise ValueError(f"colour count must be positive, got {k}")
    for assign in _search_colourings(g, k):
        yield Colouring(ell=k, assignment=assign)


# ---------------------------------------------------------------------------
# Chromatic number
# ---------------------------------------------------------------------------

def greedy_colouring(g: Graph) -> Colouring:
    """Greedy upper-bound colouring: vertices by descending degree, each
    takes the smallest colour free among its coloured neighbours."""
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    assign = [0] * g.n
    for v in order:
        taken = {assign[u] for u in g.adjacency[v] if assign[u]}
        c = 1
        while c in taken:
            c += 1
        assign[v] = c
    return Colouring(ell=max(assign), assignment=tuple(assign))


def _largest_clique(masks: list[int], candidates: int) -> int:
    """Lexicographically smallest maximum clique inside the ``candidates``
    mask, as a mask; ``masks[v]`` is the neighbour mask of vertex v.

    Branch and bound on int bitmasks: a clique grows by the lowest
    candidate first, whose neighbours among the candidates become the next
    candidates, and then goes on without it.  A branch stops when all its
    candidates together could not strictly beat the largest clique found
    so far, and only a strictly larger clique replaces it, so the first
    maximum clique met, the lexicographically smallest, is kept.
    """
    best = best_size = 0

    def grow(chosen: int, size: int, candidates: int) -> None:
        nonlocal best, best_size
        while candidates:
            if size + candidates.bit_count() <= best_size:
                return
            low = candidates & -candidates
            candidates ^= low
            grow(chosen | low, size + 1, candidates & masks[low.bit_length() - 1])
        if size > best_size:
            best, best_size = chosen, size

    grow(0, 0, candidates)
    return best


def _non_neighbour_masks(g: Graph) -> list[int]:
    """Neighbour masks of the complement of ``g``: its cliques are the
    independent sets of ``g``."""
    everything = (1 << g.n) - 1
    return [everything ^ mask ^ (1 << v) for v, mask in enumerate(neighbour_masks(g))]


def clique_number(g: Graph) -> int:
    """Exact clique number (0 for the empty graph)."""
    return _largest_clique(neighbour_masks(g), (1 << g.n) - 1).bit_count()


def chromatic_number(g: Graph) -> tuple[int, Colouring]:
    """Exact chromatic number with a witness colouring on exactly chi
    colours.

    Backtracking between a clique lower bound and a greedy upper bound;
    exactness is mandatory, speed is not.
    """
    if g.n == 0:
        raise ValueError("chromatic number of the empty graph is undefined")
    greedy = greedy_colouring(g)
    lower = clique_number(g)
    for k in range(lower, greedy.ell):
        for assign in _search_colourings(g, k, canonical=True):
            return k, Colouring(ell=k, assignment=assign)
    return greedy.ell, greedy


# ---------------------------------------------------------------------------
# Maximum independent sets and the convention colouring
# ---------------------------------------------------------------------------

def maximum_independent_set(
    g: Graph, candidates: Iterable[int] | None = None
) -> frozenset[int]:
    """Lexicographically smallest maximum independent set of the subgraph
    induced on ``candidates`` (default: all vertices): the clique search
    run on the complement."""
    allowed = (1 << g.n) - 1
    if candidates is not None:
        allowed = 0
        for v in sorted(set(candidates)):
            if not 0 <= v < g.n:
                raise ValueError(f"vertex {v} outside 0..{g.n - 1}")
            allowed |= 1 << v
    found = _largest_clique(_non_neighbour_masks(g), allowed)
    return frozenset(v for v in range(g.n) if found >> v & 1)


def convention_colouring(g: Graph, ell: int) -> Colouring:
    """Greedy-maximal colouring in exactly ``ell`` classes.

    Class 1 is a maximum independent set of ``g``; class j is a maximum
    independent set of the residual graph left by classes 1..j-1; the
    final class is the remainder, which must itself be independent.  Ties
    between equal-size maximum independent sets break to the
    lexicographically smallest vertex set, so the result is deterministic.

    Raises :class:`ConventionInfeasibleError` when the discipline cannot
    produce exactly ``ell`` non-empty proper classes.
    """
    if g.n == 0:
        raise ValueError("cannot colour the empty graph")
    if ell < 1:
        raise ValueError(f"need at least one colour class, got {ell}")
    non_neighbours = _non_neighbour_masks(g)
    remaining = (1 << g.n) - 1
    assign = [ell] * g.n
    for j in range(1, ell):
        if not remaining:
            raise ConventionInfeasibleError(
                f"convention infeasible at ell={ell}: no vertices left for class {j}"
            )
        cls = _largest_clique(non_neighbours, remaining)
        remaining ^= cls
        for v in range(g.n):
            if cls >> v & 1:
                assign[v] = j
    if not remaining:
        raise ConventionInfeasibleError(
            f"convention infeasible at ell={ell}: no vertices left for class {ell}"
        )
    rem = [v for v in range(g.n) if remaining >> v & 1]
    for i, u in enumerate(rem):
        for v in rem[i + 1:]:
            if g.has_edge(u, v):
                raise ConventionInfeasibleError(
                    f"convention infeasible at ell={ell}: remainder contains edge ({u}, {v})"
                )
    return Colouring(ell=ell, assignment=tuple(assign))


ColouringPredicate = Callable[[Graph, Colouring], bool]
