"""Rainbow-neighbourhood predicates and the rainbow neighbourhood number.

A vertex v *yields* a rainbow neighbourhood under a colouring when its
closed neighbourhood N[v] contains at least one vertex of every colour
class.  The rainbow neighbourhood number r is the count of yielding
vertices; it depends on which chromatic colouring is used, so three modes
are exposed:

convention   the deterministic greedy-maximal colouring on chi colours
exists-max   the maximum of r over all surjective proper chi-colourings
exists-min   the minimum over the same set

The exists modes do not list the chi-colourings: one exact branch and
bound (``colouring._extreme_yield_colouring``) finds the
lexicographically first colouring that reaches the extreme.
"""

from __future__ import annotations

from dataclasses import dataclass

from .colouring import (
    Colouring,
    _extreme_yield_colouring,
    chromatic_number,
    convention_colouring,
    is_proper,
)
from .graphs import Graph

MODES = ("convention", "exists-max", "exists-min")


@dataclass(frozen=True)
class RainbowReport:
    """Yielding-vertex census for one colouring of one graph."""

    yielding: frozenset[int]
    colouring_used: Colouring

    @property
    def r(self) -> int:
        return len(self.yielding)


def yields_rainbow(g: Graph, colouring: Colouring, v: int) -> bool:
    """True iff the colour set of N[v] equals {1..ell}.

    The colouring must be proper on ``g``.
    """
    if not is_proper(g, colouring):
        raise ValueError("colouring is not proper on this graph")
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} outside 0..{g.n - 1}")
    return _yields(g, colouring, v)


def _yields(g: Graph, colouring: Colouring, v: int) -> bool:
    seen = {colouring.assignment[v]}
    seen.update(colouring.assignment[u] for u in g.adjacency[v])
    return len(seen) == colouring.ell


def yielding_vertices(g: Graph, colouring: Colouring) -> frozenset[int]:
    """All vertices that yield rainbow neighbourhoods under ``colouring``
    (assumed proper)."""
    return frozenset(v for v in range(g.n) if _yields(g, colouring, v))


def rainbow_neighbourhood_number(g: Graph, mode: str = "convention") -> RainbowReport:
    """Count vertices yielding rainbow neighbourhoods under a chromatic
    colouring of ``g``, selected per ``mode`` (see module docstring).

    The exists modes report the lexicographically first chromatic
    colouring reaching the extreme of r.  Permuting colours leaves r
    unchanged, and that colouring uses its colours in first-use order, so
    a depth-first branch and bound over those colourings alone finds it.
    It walks them in lexicographic order, cuts only branches that cannot
    strictly improve on the best r found so far, and keeps only strict
    improvements, so the first colouring met at the extreme is the one
    kept.  It is meant for desk-scale graphs.  In convention mode a
    :class:`~jrainbow.colouring.ConventionInfeasibleError` propagates when
    the greedy-maximal discipline cannot realise that many classes.
    """
    if g.n == 0:
        raise ValueError("rainbow neighbourhood number of the empty graph is undefined")
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    chi, _ = chromatic_number(g)
    if mode == "convention":
        colouring = convention_colouring(g, chi)
    else:
        colouring = _extreme_yield_colouring(g, chi, mode == "exists-max")
    return RainbowReport(yielding=yielding_vertices(g, colouring), colouring_used=colouring)
