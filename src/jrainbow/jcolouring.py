"""J and J* numbers of connected graphs and their componentwise
generalisations for arbitrary graphs.

A J-colouring is a surjective proper colouring under which every vertex
yields a rainbow neighbourhood; J(G) is the largest colour count any such
colouring achieves.  J* relaxes the requirement to internal vertices only
(degree >= 2), so pendant and isolated vertices are unconstrained.  For a
disconnected graph the componentwise numbers request the colouring per
component and take the maximum, and exist exactly when every component
admits one.

Since a yielding vertex v needs all ell colours inside N[v], any
J-colouring satisfies ell <= delta(G)+1, and a J*-colouring satisfies
ell <= min over internal vertices of (deg+1).  Under a J-colouring every
colour class is independent and dominates every other vertex, so the
classes are maximal independent sets and J is the most blocks of a
partition of V into maximal independent sets: the idomatic number of
Cockayne and Hedetniemi (1977).  :func:`j_number` decides it by exact
cover over those sets, which it lists lazily by Bron-Kerbosch on int
bitmasks.  Without pendant vertices every vertex is internal, so J* is
J.  For K_1, K_2 and components with a pendant vertex the J* solver
searches colour counts downward from its cap to the clique number omega
(no proper colouring has fewer colours) and returns the first success,
which is the maximum by construction.  Every witness is the first
qualifying colouring in first-use order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from .colouring import (
    Colouring,
    ColouringPredicate,
    _search_colourings,
    clique_number,
    enumerate_proper_colourings,
    is_proper,
)
from .graphs import (
    ComponentDecomposition,
    Graph,
    decompose,
    degree_profile,
    is_connected,
    neighbour_masks,
)
from .neighbourhoods import _yields


class NotJColourable(ValueError):
    """Raised by predicates that are only defined for graphs admitting a
    componentwise J-colouring."""


@dataclass(frozen=True)
class JResult:
    """Outcome of a J- or J*-number solve: either the graph admits no such
    colouring, or the maximum colour count plus a witness."""

    admits: bool
    value: int | None = None
    witness: Colouring | None = None

    def __post_init__(self) -> None:
        if self.admits != (self.value is not None) or self.admits != (
            self.witness is not None
        ):
            raise ValueError("admits, value and witness must be present together")

    def to_json_dict(self) -> dict:
        return {
            "admits": self.admits,
            "value": self.value,
            "witness": self.witness.to_json_dict() if self.witness else None,
        }


# shared by every solve without a colouring, since the caches keep each result
_NO_COLOURING = JResult(admits=False)


@dataclass(frozen=True)
class ComponentaResult:
    """Componentwise solve: per-component results plus the maximum."""

    decomposition: ComponentDecomposition
    per_component: tuple[JResult, ...]

    def __post_init__(self) -> None:
        if not self.per_component:
            raise ValueError("componentwise numbers of the empty graph are undefined")

    @property
    def admits(self) -> bool:
        return all(r.admits for r in self.per_component)

    @property
    def value(self) -> int | None:
        if not self.admits:
            return None
        return max(r.value for r in self.per_component)  # type: ignore[type-var]

    @property
    def equal_across_components(self) -> bool:
        if not self.admits:
            return False
        values = {r.value for r in self.per_component}
        return len(values) == 1

    def to_json_dict(self) -> dict:
        """Summary with the per-component values (witnesses are in each
        per-component :class:`JResult`)."""
        return {
            "admits": self.admits,
            "value": self.value,
            "equal_across_components": self.equal_across_components,
            "per_component": [r.value for r in self.per_component],
        }


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------

def _require_connected(g: Graph, op: str) -> None:
    if g.n == 0:
        raise ValueError(f"{op}: graph has no vertices")
    if not is_connected(g):
        raise ValueError(f"{op}: graph is disconnected; use the componentwise operation")


def is_j_colouring(g: Graph, colouring: Colouring) -> bool:
    """True iff ``colouring`` is proper on connected ``g`` and every vertex
    yields a rainbow neighbourhood."""
    _require_connected(g, "is_j_colouring")
    if not is_proper(g, colouring):
        return False
    return all(_yields(g, colouring, v) for v in range(g.n))


def is_j_star_colouring(g: Graph, colouring: Colouring) -> bool:
    """True iff ``colouring`` is proper on connected ``g`` and every
    internal vertex (degree >= 2) yields a rainbow neighbourhood.  Graphs
    without internal vertices accept any proper surjective colouring."""
    _require_connected(g, "is_j_star_colouring")
    if not is_proper(g, colouring):
        return False
    internal = degree_profile(g).internal
    return all(_yields(g, colouring, v) for v in internal)


# ---------------------------------------------------------------------------
# Solvers
# ---------------------------------------------------------------------------

def _solve_max(g: Graph, covered: frozenset[int], cap: int) -> JResult:
    """Largest k in omega..cap admitting a surjective proper k-colouring
    whose ``covered`` vertices all yield; first witness in canonical
    order.  No proper colouring has fewer colours than the clique number
    omega, so no smaller k is tried.  Serves the J* solver on graphs with
    a pendant vertex."""
    for k in range(min(cap, g.n), clique_number(g) - 1, -1):
        for witness in _search_colourings(g, k, covered=covered, canonical=True):
            return JResult(admits=True, value=k, witness=witness)
    return _NO_COLOURING


def _maximal_independent_sets(
    closed: list[int], chosen: int, candidates: int, excluded: int
) -> Iterator[int]:
    """Maximal independent sets of the whole graph that contain ``chosen``
    and lie inside ``chosen | candidates``, lazily: Bron-Kerbosch with
    pivoting, run on the complement.  ``closed[v]`` is the closed
    neighbourhood mask of v.  ``excluded`` vertices join no set, but each
    needs a neighbour in every set yielded."""
    if not candidates:
        if not excluded:
            yield chosen
        return
    # every extension holds the pivot or a neighbour of it, else the pivot
    # could still join; the pivot leaving the fewest branches wins, and
    # one leaving none ends the search here
    branches = candidates
    rest = candidates | excluded
    while rest:
        low = rest & -rest
        rest ^= low
        pivot_branches = candidates & closed[low.bit_length() - 1]
        if pivot_branches.bit_count() < branches.bit_count():
            if not pivot_branches:
                return
            branches = pivot_branches
    while branches:
        low = branches & -branches
        branches ^= low
        keep = ~closed[low.bit_length() - 1]
        yield from _maximal_independent_sets(
            closed, chosen | low, candidates & keep, excluded & keep
        )
        candidates ^= low
        excluded |= low


def _largest_mis_partition(g: Graph) -> Colouring | None:
    """First-use colouring whose classes are the lexicographically
    smallest partition of the vertices of ``g`` into the most maximal
    independent sets, or None when no such partition exists.

    Exact cover on int bitmasks: the lowest uncovered vertex opens the
    next block, which is any maximal independent set of the whole graph
    inside the uncovered vertices, and the search recurses on the rest.
    Blocks therefore take colours 1, 2, ... in first-use order.  Each
    block dominates every vertex outside it, so at most |N[w] & uncovered|
    blocks remain for any vertex w, which is never more than delta+1 in
    all.  Once a partition is known, a branch is cut when it cannot beat
    that block count, or can only tie it with no smaller assignment: the
    uncovered vertices will all take colours above the current count.
    """
    n = g.n
    closed = [mask | 1 << v for v, mask in enumerate(neighbour_masks(g))]
    everything = (1 << n) - 1
    colour = [0] * n
    best = 0
    witness: list[int] = []

    def cover(uncovered: int, blocks: int) -> None:
        nonlocal best, witness
        if not uncovered:
            if blocks > best or (blocks == best and colour < witness):
                best, witness = blocks, colour[:]
            return
        nxt = blocks + 1
        if best:
            most = blocks + min((mask & uncovered).bit_count() for mask in closed)
            if most < best:
                return
            if most == best and [
                nxt if uncovered >> v & 1 else c for v, c in enumerate(colour)
            ] >= witness:
                return
        low = uncovered & -uncovered
        keep = ~closed[low.bit_length() - 1]
        for block in _maximal_independent_sets(
            closed, low, uncovered & keep, (everything ^ uncovered) & keep
        ):
            members = block
            while members:
                bit = members & -members
                members ^= bit
                colour[bit.bit_length() - 1] = nxt
            cover(uncovered ^ block, nxt)

    cover(everything, 0)
    return Colouring(ell=best, assignment=tuple(witness)) if best else None


@lru_cache(maxsize=None)
def j_number(g: Graph) -> JResult:
    """Maximum colour count over J-colourings of connected ``g``, or
    admits=False when no colour count works.  The colour classes of a
    J-colouring are exactly the blocks of a partition into maximal
    independent sets, so J is the most such blocks (the idomatic number)
    and the witness is the first J-colouring at that count in first-use
    order."""
    _require_connected(g, "j_number")
    witness = _largest_mis_partition(g)
    if witness is None:
        return _NO_COLOURING
    return JResult(admits=True, value=witness.ell, witness=witness)


@lru_cache(maxsize=None)
def j_star_number(g: Graph) -> JResult:
    """Maximum colour count over J*-colourings of connected ``g``.  Without
    pendant vertices every vertex is internal, so this is J itself."""
    _require_connected(g, "j_star_number")
    internal = degree_profile(g).internal
    if len(internal) == g.n:
        return j_number(g)
    if internal:
        cap = min(g.degree(v) for v in internal) + 1
    else:
        cap = g.n  # K_1 and K_2: any proper surjective colouring qualifies
    return _solve_max(g, covered=internal, cap=cap)


def enumerate_j_colourings(g: Graph, k: int) -> Iterator[Colouring]:
    """All surjective proper k-colourings of connected ``g`` in which every
    vertex yields, one representative per colour permutation."""
    _require_connected(g, "enumerate_j_colourings")
    yield from _search_colourings(g, k, covered=range(g.n), canonical=True)


def jc_number(g: Graph) -> ComponentaResult:
    """Componentwise J number: admits iff every component admits a
    J-colouring; value is the maximum per-component J."""
    dec = decompose(g)
    return ComponentaResult(dec, tuple(j_number(comp) for comp in dec.components))


def jstarc_number(g: Graph) -> ComponentaResult:
    """Componentwise J* number, symmetric to :func:`jc_number`."""
    dec = decompose(g)
    return ComponentaResult(dec, tuple(j_star_number(comp) for comp in dec.components))


# ---------------------------------------------------------------------------
# Minimise / maximise transforms
# ---------------------------------------------------------------------------

def _class_partitions(ell: int, groups: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Partitions of colours 1..ell into exactly ``groups`` non-empty
    blocks, in restricted-growth order; blocks ordered by smallest member."""

    def rec(i: int, blocks: list[list[int]]) -> Iterator[tuple[tuple[int, ...], ...]]:
        if i > ell:
            if len(blocks) == groups:
                yield tuple(tuple(b) for b in blocks)
            return
        # cannot finish if even opening a new block per remaining colour is too few
        if len(blocks) + (ell - i + 1) < groups:
            return
        for b in blocks:
            b.append(i)
            yield from rec(i + 1, blocks)
            b.pop()
        if len(blocks) < groups:
            blocks.append([i])
            yield from rec(i + 1, blocks)
            blocks.pop()

    yield from rec(1, [])


def _merge_classes(
    colouring: Colouring, partition: tuple[tuple[int, ...], ...]
) -> Colouring:
    relabel: dict[int, int] = {}
    for new_c, block in enumerate(sorted(partition, key=lambda b: b[0]), start=1):
        for old_c in block:
            relabel[old_c] = new_c
    return Colouring(
        ell=len(partition),
        assignment=tuple(relabel[c] for c in colouring.assignment),
    )


def minimise_colouring(
    g: Graph, colouring: Colouring, prop: ColouringPredicate
) -> Colouring:
    """Proper colouring with the fewest colours satisfying ``prop``, at
    most the input's colour count.

    At each target count, class-merge quotients of the input are tried
    first (any merge sequence amounts to a partition of the colour classes
    with independent block unions, so the search runs over those
    partitions); if no quotient works, all surjective proper colourings at
    that count are searched.  Exhaustive; desk scale only.
    """
    if not prop(g, colouring):
        raise ValueError("input colouring does not satisfy the property")
    for groups in range(1, colouring.ell + 1):
        for partition in _class_partitions(colouring.ell, groups):
            merged = _merge_classes(colouring, partition)
            if is_proper(g, merged) and prop(g, merged):
                return merged
        if groups < colouring.ell:
            for candidate in enumerate_proper_colourings(g, groups):
                if prop(g, candidate):
                    return candidate
    return colouring  # unreachable: the identity partition reproduces the input


def maximise_colouring(
    g: Graph, colouring: Colouring, prop: ColouringPredicate
) -> Colouring:
    """Proper colouring with the most colours satisfying ``prop``, found by
    re-searching all surjective proper k-colourings for k above the input's
    colour count.  Returns the input when nothing larger satisfies
    ``prop``."""
    if not prop(g, colouring):
        raise ValueError("input colouring does not satisfy the property")
    for k in range(g.n, colouring.ell, -1):
        for candidate in enumerate_proper_colourings(g, k):
            if prop(g, candidate):
                return candidate
    return colouring
