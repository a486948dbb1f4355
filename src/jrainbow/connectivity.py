"""Exact rainbow-path search and the rainbow-connectivity predicates.

A rainbow path for a colouring with ell colours is a simple path whose
vertex colours cover all of {1..ell}.  A graph is componentwise-J rainbow
connected when, under a per-component J-colouring, every pair of distinct
vertices inside a component is joined by such a path; chi-rainbow
connectivity asks the same of per-component chromatic colourings.

The path search is exact: depth-first over simple paths, abandoning a
branch when the target is no longer reachable or when the colours still
missing cannot all be collected from vertices reachable without revisits.
That reachability test may overestimate what one simple path can collect,
so it never prunes a viable branch.  Worst-case exponential; desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator

from .colouring import (
    Colouring,
    _search_colourings,
    chromatic_number,
    convention_colouring,
    is_proper,
)
from .graphs import ComponentDecomposition, Graph, decompose
from .jcolouring import (
    NotJColourable,
    enumerate_j_colourings,
    is_j_colouring,
    jc_number,
)

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


def _reachable(g: Graph, start: int, blocked: set[int]) -> set[int]:
    seen = {start}
    stack = [start]
    while stack:
        w = stack.pop()
        for x in g.adjacency[w]:
            if x not in seen and x not in blocked:
                seen.add(x)
                stack.append(x)
    return seen


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
    if not is_proper(g, colouring):
        raise ValueError("colouring is not proper on this graph")
    full = frozenset(range(1, colouring.ell + 1))
    assign = colouring.assignment

    path = [u]
    on_path = {u}

    def dfs() -> tuple[int, ...] | None:
        w = path[-1]
        blocked = on_path - {w}
        reach = _reachable(g, w, blocked)
        if v not in reach:
            return None
        collectable = {assign[x] for x in reach}
        collectable.update(assign[x] for x in path)
        if not full <= collectable:
            return None
        for x in g.adjacency[w]:
            if x == v:
                candidate = tuple(path) + (v,)
                if full <= {assign[y] for y in candidate}:
                    return candidate
            elif x not in on_path:
                path.append(x)
                on_path.add(x)
                found = dfs()
                path.pop()
                on_path.remove(x)
                if found is not None:
                    return found
        return None

    found = dfs()
    if found is None:
        return None
    witness = RainbowWitness(
        pair=(u, v),
        path=found,
        colours_seen=frozenset(assign[w] for w in found),
    )
    witness.validate(g, colouring)
    return witness


def min_rainbow_path_lengths(
    g: Graph, colouring: Colouring
) -> dict[tuple[int, int], int | None]:
    """Shortest rainbow path length (edge count) for every distinct vertex
    pair of connected ``g`` under a J-colouring; None when a pair has no
    rainbow path."""
    if not is_j_colouring(g, colouring):
        raise ValueError("expected a J-colouring of a connected graph")
    full = frozenset(range(1, colouring.ell + 1))
    assign = colouring.assignment
    out: dict[tuple[int, int], int | None] = {}
    for u, v in combinations(range(g.n), 2):
        best: int | None = None
        path = [u]
        on_path = {u}

        def dfs() -> None:
            nonlocal best
            if best is not None and len(path) - 1 >= best:
                return  # any extension is at least one edge longer
            w = path[-1]
            for x in g.adjacency[w]:
                if x == v:
                    if full <= {assign[y] for y in path} | {assign[v]}:
                        length = len(path)
                        if best is None or length < best:
                            best = length
                elif x not in on_path:
                    path.append(x)
                    on_path.add(x)
                    dfs()
                    path.pop()
                    on_path.remove(x)

        dfs()
        out[(u, v)] = best
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

    def to_json_dict(self) -> dict:
        return {
            "connected": self.connected,
            "mode": self.mode,
            "colourings": [c.to_json_dict() if c else None for c in self.colourings],
            "witness_paths": [
                {"pair": list(pair), "path": list(path)}
                for pair, path in self.witness_paths
            ],
            "failed_pairs": [list(p) for p in self.failed_pairs],
        }


def _scan_pairs(
    comp: Graph, colouring: Colouring, stop_at_failure: bool
) -> tuple[list[tuple[tuple[int, int], tuple[int, ...]]], list[tuple[int, int]]]:
    """Witness paths and failed pairs of ``comp`` under ``colouring``, in
    pair order; with ``stop_at_failure`` the scan ends at the first failure."""
    witnesses: list[tuple[tuple[int, int], tuple[int, ...]]] = []
    failed: list[tuple[int, int]] = []
    for u, v in combinations(range(comp.n), 2):
        w = rainbow_path_exists(comp, colouring, u, v)
        if w is None:
            failed.append((u, v))
            if stop_at_failure:
                break
        else:
            witnesses.append(((u, v), w.path))
    return witnesses, failed


def _to_parent(verts: tuple[int, ...], local: Iterable[int]) -> tuple[int, ...]:
    return tuple(verts[w] for w in local)


def _rainbow_connectivity(
    dec: ComponentDecomposition,
    mode: str,
    candidates: Iterable[Iterable[Colouring]],
) -> ConnectivityReport:
    """Per component, the first candidate colouring that rainbow-connects
    every pair.  In mode "exists" a component without one records None;
    in the other modes each component has a single candidate, recorded
    with its witnesses and failed pairs whether or not it connects."""
    search = mode == "exists"
    used: list[Colouring | None] = []
    witness_paths: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    failed_pairs: list[tuple[int, ...]] = []
    for verts, comp, cands in zip(dec.vertices, dec.components, candidates):
        chosen = None
        for col in cands:
            wit, failed = _scan_pairs(comp, col, stop_at_failure=search)
            if search and failed:
                continue
            chosen = col
            witness_paths.extend(
                (_to_parent(verts, pair), _to_parent(verts, path)) for pair, path in wit
            )
            failed_pairs.extend(_to_parent(verts, pair) for pair in failed)
            break
        used.append(chosen)
    return ConnectivityReport(
        connected=None not in used and not failed_pairs,
        mode=mode,
        colourings=tuple(used),
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
    if mode not in JC_MODES:
        raise ValueError(f"mode must be one of {JC_MODES}, got {mode!r}")
    result = jc_number(g)
    if not result.admits:
        raise NotJColourable(
            "predicate undefined: some component admits no J-colouring"
        )
    dec = result.decomposition
    if mode == "given":
        if colourings is None or len(colourings) != len(dec):
            raise ValueError(
                f"given mode needs one colouring per component ({len(dec)})"
            )
        for comp, col in zip(dec.components, colourings):
            if not is_j_colouring(comp, col):
                raise ValueError("supplied colouring is not a J-colouring of its component")
        candidates = [(col,) for col in colourings]
    else:
        candidates = [
            enumerate_j_colourings(comp, res.value)
            for comp, res in zip(dec.components, result.per_component)
        ]
    return _rainbow_connectivity(dec, mode, candidates)


def _canonical_colourings(comp: Graph, chi: int) -> Iterator[Colouring]:
    # rainbow connectivity is invariant under colour permutation, so one
    # representative per permutation class suffices
    for assign in _search_colourings(comp, chi, canonical=True):
        yield Colouring(ell=chi, assignment=assign)


def is_chi_rainbow_connected(g: Graph, mode: str = "exists") -> ConnectivityReport:
    """Chromatic rainbow connectivity of ``g``.

    Per component, the colour universe is that component's chi colours:
    mode="convention" uses the greedy-maximal chi-colouring (its
    infeasibility propagates), mode="exists" searches every surjective
    proper chi-colouring for one that rainbow-connects all pairs.
    """
    if g.n == 0:
        raise ValueError("connectivity of the empty graph is undefined")
    if mode not in CHI_MODES:
        raise ValueError(f"mode must be one of {CHI_MODES}, got {mode!r}")
    dec = decompose(g)
    candidates = []
    for comp in dec.components:
        chi, _ = chromatic_number(comp)
        if mode == "convention":
            candidates.append((convention_colouring(comp, chi),))
        else:
            candidates.append(_canonical_colourings(comp, chi))
    return _rainbow_connectivity(dec, mode, candidates)
