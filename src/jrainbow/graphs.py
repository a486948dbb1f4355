"""Finite simple undirected graphs over contiguous vertex ids.

A graph stores its neighbour rows only.  Graphs are immutable and
hashable, so every algorithm in this package is a pure function and
results may be cached or computed concurrently without coordination.
Disconnected, edgeless and trivial graphs are all first-class; only the
empty graph (n = 0) is rejected by the operations that need a vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence


@dataclass(frozen=True, slots=True)
class Graph:
    """A simple undirected graph on vertices 0..n-1.

    ``adjacency`` holds an ascending neighbour tuple per vertex; ``edges``
    (sorted (u, v) pairs, u < v) and ``m`` are read off it.  Build with
    :func:`build_graph`, which validates, not the raw constructor.
    """

    n: int
    adjacency: tuple[tuple[int, ...], ...]

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple((u, v) for u, row in enumerate(self.adjacency) for v in row if u < v)

    @property
    def m(self) -> int:
        return sum(map(len, self.adjacency)) // 2

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adjacency[u]

    def __repr__(self) -> str:  # compact, deterministic
        return f"Graph(n={self.n}, edges={list(self.edges)})"


def build_graph(n: int, edges: Iterable[Sequence[int]]) -> Graph:
    """Validate and build a :class:`Graph`.

    Duplicate edges (in either orientation) are collapsed.  Self-loops and
    endpoints outside 0..n-1 are rejected.
    """
    if n < 0:
        raise ValueError(f"vertex count must be non-negative, got {n}")
    seen: set[tuple[int, int]] = set()
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop at vertex {u} is not allowed in a simple graph")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) has an endpoint outside 0..{n - 1}")
        seen.add((u, v) if u < v else (v, u))
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in seen:
        adj[u].append(v)
        adj[v].append(u)
    return Graph(n, tuple(tuple(sorted(row)) for row in adj))


def neighbour_masks(g: Graph) -> list[int]:
    """Each neighbour row as an int bitmask (bit u for vertex u).  Built
    afresh on every call, so nothing stays cached on each graph of a
    corpus; the bitmask searches take it once per search."""
    masks = []
    for row in g.adjacency:
        mask = 0
        for v in row:
            mask |= 1 << v
        masks.append(mask)
    return masks


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph induced on ``vertices``, its parent rows mapped to ids
    0..k-1 in ascending parent order, and the parent-id tuple."""
    verts = tuple(sorted(set(vertices)))
    if verts and not 0 <= verts[0] <= verts[-1] < g.n:
        raise ValueError(f"vertex {verts[0] if verts[0] < 0 else verts[-1]} outside 0..{g.n - 1}")
    index = {v: i for i, v in enumerate(verts)}
    rows = tuple(tuple(index[u] for u in g.adjacency[v] if u in index) for v in verts)
    return Graph(len(verts), rows), verts


def _flood(g: Graph, start: int) -> set[int]:
    """Vertices reachable from ``start``."""
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for u in g.adjacency[v]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return seen


def is_connected(g: Graph) -> bool:
    """True for graphs with at most one vertex and for connected graphs."""
    return g.n <= 1 or len(_flood(g, 0)) == g.n


def has_bridge(g: Graph) -> bool:
    """True when some edge of ``g`` lies on no cycle, so that removing it
    disconnects its endpoints.  Tarjan's linear-time low-link search ("A
    note on finding the bridges of a graph", 1974): tree edge (p, v) is a
    bridge when no back edge from v's subtree reaches p or above."""
    disc = [-1] * g.n  # discovery time
    low = [0] * g.n  # earliest discovery time one back edge reaches from the subtree
    clock = 0
    for root in range(g.n):
        if disc[root] >= 0:
            continue
        disc[root] = low[root] = clock
        clock += 1
        stack = [(root, -1, iter(g.adjacency[root]))]
        while stack:
            v, parent, nbrs = stack[-1]
            for x in nbrs:
                if disc[x] < 0:
                    disc[x] = low[x] = clock
                    clock += 1
                    stack.append((x, v, iter(g.adjacency[x])))
                    break
                if x != parent:
                    low[v] = min(low[v], disc[x])
            else:
                stack.pop()
                if parent >= 0:
                    if low[v] > disc[parent]:
                        return True
                    low[parent] = min(low[parent], low[v])
    return False


@dataclass(frozen=True)
class ComponentDecomposition:
    """Partition of a graph into maximal connected subgraphs.

    ``components[i]`` is the i-th component with local vertex ids;
    ``vertices[i]`` lists its parent vertex ids in ascending order (the
    local id of ``vertices[i][j]`` is j); the derived ``vertex_map[v]``
    gives (component index, local id) for parent vertex v.  Components are
    ordered by their smallest parent vertex id.  A connected graph is its
    own single component.
    """

    parent: Graph
    components: tuple[Graph, ...]
    vertices: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.components)

    @property
    def vertex_map(self) -> tuple[tuple[int, int], ...]:
        vmap: list[tuple[int, int]] = [(-1, -1)] * self.parent.n
        for ci, verts in enumerate(self.vertices):
            for li, pv in enumerate(verts):
                vmap[pv] = (ci, li)
        return tuple(vmap)


def decompose(g: Graph) -> ComponentDecomposition:
    """Split ``g`` into connected components, deterministically ordered."""
    unvisited = set(range(g.n))
    groups: list[tuple[int, ...]] = []
    while unvisited:  # each new start is the smallest unvisited vertex
        seen = _flood(g, min(unvisited))
        unvisited -= seen
        groups.append(tuple(sorted(seen)))
    if len(groups) == 1:
        comps: tuple[Graph, ...] = (g,)
    else:
        comps = tuple(induced_subgraph(g, grp)[0] for grp in groups)
    return ComponentDecomposition(parent=g, components=comps, vertices=tuple(groups))


@dataclass(frozen=True)
class DegreeProfile:
    delta: int
    Delta: int
    pendants: frozenset[int]
    internal: frozenset[int]


def degree_profile(g: Graph) -> DegreeProfile:
    """Minimum/maximum degree plus the pendant (degree 1) and internal
    (degree >= 2) vertex sets.  Isolated vertices are neither."""
    if g.n == 0:
        raise ValueError("degree profile of the empty graph is undefined")
    degs = [g.degree(v) for v in range(g.n)]
    return DegreeProfile(
        delta=min(degs),
        Delta=max(degs),
        pendants=frozenset(v for v, d in enumerate(degs) if d == 1),
        internal=frozenset(v for v, d in enumerate(degs) if d >= 2),
    )


def simple_cycle_lengths(g: Graph) -> frozenset[int]:
    """Lengths of all simple cycles in ``g``.

    Each cycle is enumerated once: its smallest vertex is the root and the
    two traversal directions are collapsed by requiring the second vertex
    to be smaller than the last.  Intended for desk-scale graphs; the
    package itself asks only :func:`has_cycle_length_multiple`.
    """
    lengths: set[int] = set()
    for root in range(g.n):
        # path[0] == root, every other path vertex > root
        stack: list[tuple[int, tuple[int, ...]]] = [(root, (root,))]
        while stack:
            v, path = stack.pop()
            for u in g.adjacency[v]:
                if u == root and len(path) >= 3 and path[1] < path[-1]:
                    lengths.add(len(path))
                elif u > root and u not in path:
                    stack.append((u, path + (u,)))
    return frozenset(lengths)


def has_cycle_length_multiple(g: Graph, k: int) -> bool:
    """True when some simple cycle of ``g`` has length divisible by ``k``.

    A depth-first search on bitmasks roots each cycle at its smallest
    vertex, keeps every other path vertex above the root, and stops at the
    first path of three or more vertices, a multiple of ``k``, whose end
    is adjacent to the root.
    """
    masks = neighbour_masks(g)

    def closes(root: int, w: int, on_path: int, length: int) -> bool:
        if length >= 3 and length % k == 0 and masks[w] >> root & 1:
            return True
        rest = masks[w] & ~on_path
        while rest:
            low = rest & -rest
            if closes(root, low.bit_length() - 1, on_path | low, length + 1):
                return True
            rest ^= low
        return False

    # vertices at or below the root start on the path, so none is visited
    return any(closes(root, root, (2 << root) - 1, 1) for root in range(g.n))
