"""Proper colourings, exact chromatic number and the greedy-maximal
convention colouring.

Colour indices are 1-based (c_1..c_ell).  Every :class:`Colouring` is
surjective onto {1..ell}: a colouring that skips a colour cannot be
represented, which keeps the "minimum parameter" discipline an invariant
of the type rather than a property to re-check everywhere.

Two colouring searches walk one vertex plan (:func:`_plan`), hold
colour c as the bit 1 << (c - 1) and hand out :class:`Colouring`
objects.  The exhaustive search behind :func:`enumerate_proper_colourings` also finds
the chromatic number, the chromatic candidates of rainbow connectivity,
J* on components with a pendant vertex and the J-colourings of
:func:`jrainbow.jcolouring.enumerate_j_colourings`: it optionally
enforces full colour coverage on the closed neighbourhoods of a chosen
vertex set, pruning as soon as a neighbourhood is completely assigned.
A branch and bound over the same plan finds the chi-colouring with the
most or the fewest rainbow neighbourhoods, for the exists modes of the
rainbow neighbourhood number r.  One clique search gives the clique
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
        # only the empty graph's colouring, ell = 0 on no vertex, has no colour
        if self.ell < 1 and (self.assignment or self.ell < 0):
            raise ValueError(f"need at least one colour, got ell={self.ell}")
        used = set(self.assignment)
        if used != set(range(1, self.ell + 1)):
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
    return all(a[v] != c for c, row in zip(a, g.adjacency) for v in row)


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

def _plan(g: Graph, covered: Iterable[int]) -> tuple[list, list, list]:
    """The vertex plan both colouring searches walk, in vertex order:
    earlier[i], the neighbours of vertex i coloured before it;
    finish_at[i], the ``covered`` vertices whose closed neighbourhood
    becomes fully assigned when vertex i receives its colour; and
    closed[w], the closed neighbourhood of vertex w."""
    covered = set(covered)
    earlier, finish_at, closed = [], [[] for _ in range(g.n)], []
    for v, neighbours in enumerate(g.adjacency):
        earlier.append([u for u in neighbours if u < v])
        closed.append((v,) + neighbours)
        if v in covered:
            finish_at[max(closed[v])].append(v)
    return earlier, finish_at, closed


def _search_colourings(
    g: Graph,
    k: int,
    *,
    covered: Iterable[int] = (),
    canonical: bool = False,
) -> Iterator[Colouring]:
    """Yield the surjective proper k-colourings of ``g`` in lexicographic
    order of assignment vectors.

    covered: vertices whose closed neighbourhood must contain all k
        colours; each is checked as soon as its neighbourhood is fully
        assigned, which prunes hard.
    canonical: emit one representative per colour permutation (colours
        appear in first-use order).
    """
    n = g.n
    if k < 1 or n == 0:
        return
    full = (1 << k) - 1
    earlier, finish_at, closed = _plan(g, covered)
    bits = [0] * n  # colour c of a vertex as the bit 1 << (c - 1)

    def rec(i: int, used_mask: int, used_count: int) -> Iterator[Colouring]:
        if i == n:
            yield Colouring(ell=k, assignment=tuple(map(int.bit_length, bits)))
            return
        forbidden = 0
        for u in earlier[i]:
            forbidden |= bits[u]
        limit = min(k, used_count + 1) if canonical else k
        remaining = n - i - 1
        for c in range(limit):
            bit = 1 << c
            if forbidden & bit:
                continue
            new_count = used_count if used_mask & bit else used_count + 1
            if k - new_count > remaining:
                continue
            bits[i] = bit
            for w in finish_at[i]:
                mask = 0
                for u in closed[w]:
                    mask |= bits[u]
                if mask != full:
                    break
            else:
                yield from rec(i + 1, used_mask | bit, new_count)

    yield from rec(0, 0, 0)


def _extreme_yield_colouring(g: Graph, k: int, maximise: bool) -> Colouring | None:
    """The lexicographically first surjective proper k-colouring of ``g``
    under which the most (``maximise``) or the fewest vertices see all k
    colours in their closed neighbourhood; None when there is none.

    Depth-first branch and bound over the plan of the canonical
    :func:`_search_colourings`, with its first-use colour limit and its
    surjectivity cut.
    A vertex is counted once its closed neighbourhood is fully assigned.
    A branch is cut when it cannot strictly beat the best count found so
    far, so only strictly better leaves are reached, and the first leaf
    at the extreme is the one returned.  Once the best count is n (or 0)
    that cut ends every open branch at its next vertex.
    """
    n = g.n
    full = (1 << k) - 1
    earlier, finish_at, closed = _plan(g, range(n))
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
    if not best_bits:
        return None
    return Colouring(ell=k, assignment=tuple(map(int.bit_length, best_bits)))


def enumerate_proper_colourings(g: Graph, k: int) -> Iterator[Colouring]:
    """Every surjective proper k-colouring of ``g`` exactly once, in
    lexicographic order of assignment vectors.  Empty stream when none
    exist.  Intended for desk-scale graphs."""
    if k < 1:
        raise ValueError(f"colour count must be positive, got {k}")
    yield from _search_colourings(g, k)


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
        for colouring in _search_colourings(g, k, canonical=True):
            return k, colouring
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
