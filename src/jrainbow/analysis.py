"""One-stop analysis document: every invariant this package computes for
one graph, as a JSON-ready dict.

The dict is the machine contract (stable keys, versioned schema); the
text rendering is derived from it and never computed separately.  Values
that do not exist are explicit ``admits: false`` / ``null`` markers,
never zero.
"""

from __future__ import annotations

import json
from functools import cached_property
from typing import Iterable

from .colouring import (
    Colouring,
    ConventionInfeasibleError,
    _search_colourings,
    chromatic_number,
    convention_colouring,
)
from .connectivity import (
    CHI_MODES,
    min_rainbow_path_lengths,
    rainbow_connecting_colouring,
)
from .graphs import DegreeProfile, Graph, decompose, degree_profile, has_cycle_length_multiple
from .jcolouring import (
    ComponentaResult,
    JResult,
    enumerate_j_colourings,
    j_number,
    j_star_number,
)
from .neighbourhoods import MODES as RAINBOW_MODES
from .neighbourhoods import rainbow_neighbourhood_number, yielding_vertices

CONNECTIVITY_MODES = ("jc-exists", "chi-convention", "chi-exists")
ALL_MODES = RAINBOW_MODES + CONNECTIVITY_MODES


class ComponentFacts:
    """The facts of one connected component that the claim checker, the
    analysis document and the CLI read, each derived in one place,
    computed on first use and then kept.  None marks what does not exist.
    Every fact is a pure function of the exact component ``Graph``, so one
    record serves every graph that has that component."""

    def __init__(self, comp: Graph) -> None:
        self.graph = comp

    @cached_property
    def chromatic(self) -> tuple[int, Colouring]:
        """chi and its witness."""
        return chromatic_number(self.graph)

    @cached_property
    def convention(self) -> Colouring | None:
        """The convention chi-colouring, None where the greedy-maximal
        discipline cannot realise chi classes."""
        try:
            return convention_colouring(self.graph, self.chromatic[0])
        except ConventionInfeasibleError:
            return None

    @cached_property
    def profile(self) -> DegreeProfile:
        return degree_profile(self.graph)

    @cached_property
    def cycle_multiple_of_3(self) -> bool:
        """Whether some simple cycle has a length divisible by 3."""
        return has_cycle_length_multiple(self.graph, 3)

    @cached_property
    def j(self) -> JResult:
        return j_number(self.graph)

    @cached_property
    def j_star(self) -> JResult:
        return j_star_number(self.graph)

    @cached_property
    def all_yield_chi(self) -> bool:
        """Whether some surjective proper chi-colouring makes every vertex
        yield, i.e. is a J-colouring on chi colours.  A J-colouring is
        proper, so J >= chi: without J there is none, at J = chi the J
        witness is one, and only J > chi needs a search."""
        chi = self.chromatic[0]
        return self.j.admits and (
            self.j.value == chi
            or next(enumerate_j_colourings(self.graph, chi), None) is not None
        )

    @cached_property
    def jc_rainbow_colouring(self) -> Colouring | None:
        """First maximum J-colouring that rainbow-connects all pairs; None
        when there is none or J is undefined."""
        if not self.j.admits:
            return None
        k = self.j.value
        return rainbow_connecting_colouring(self.graph, k, enumerate_j_colourings(self.graph, k))

    @cached_property
    def convention_connected(self) -> bool | None:
        """Whether the convention colouring rainbow-connects all pairs;
        None where it is infeasible."""
        if self.convention is None:
            return None
        chi = self.chromatic[0]
        return rainbow_connecting_colouring(self.graph, chi, (self.convention,)) is not None

    @cached_property
    def exists_colouring(self) -> Colouring | None:
        """The first canonical chi-colouring that rainbow-connects all
        pairs; None when there is none."""
        chi = self.chromatic[0]
        candidates = _search_colourings(self.graph, chi, canonical=True)
        return rainbow_connecting_colouring(self.graph, chi, candidates)

    @cached_property
    def exists_connected(self) -> bool:
        """Whether some chi-colouring rainbow-connects all pairs.  Two
        colourings the record already holds certify a positive: the
        convention colouring when it connects, and the connecting
        J-colouring when J = chi, which is then itself a chi-colouring.
        Rainbow connectivity is invariant under colour permutation, so
        either settles the verdict; only without one is
        ``exists_colouring`` searched.  A certificate need not be the
        first canonical colouring that connects, so it does not stand in
        for ``exists_colouring``."""
        chi = self.chromatic[0]
        if self.convention_connected or (
            self.j.admits and self.j.value == chi and self.jc_rainbow_colouring is not None
        ):
            return True
        return self.exists_colouring is not None

    @cached_property
    def short_rainbow_pair(self) -> tuple[tuple[int, int], int | None] | None:
        """For claim T8: the first pair, in pair order, whose shortest
        rainbow path under ``jc_rainbow_colouring`` is missing (None) or
        has fewer than J - 1 edges, with that length; None when every
        pair is long enough.  Only that pair is kept, not every length."""
        lengths = min_rainbow_path_lengths(self.graph, self.jc_rainbow_colouring)
        floor = self.j.value - 1
        return next(
            ((pair, length) for pair, length in lengths.items()
             if length is None or length < floor),
            None,
        )


class GraphFacts:
    """The facts of one graph: its decomposition, one
    :class:`ComponentFacts` per component (indexed like
    ``decomposition.components``) and the componentwise results built
    from them.

    ``table`` maps each component ``Graph`` to its record; a component the
    table already holds reuses that record, so records built on one table
    solve each distinct component once.  Without a table the graph's own
    components still share records where they are equal.
    """

    def __init__(self, g: Graph, table: dict[Graph, ComponentFacts] | None = None) -> None:
        self.graph = g
        self.decomposition = decompose(g)
        table = {} if table is None else table
        records = []
        for comp in self.decomposition.components:
            record = table.get(comp)
            if record is None:
                record = table[comp] = ComponentFacts(comp)
            records.append(record)
        self.components = tuple(records)

    @cached_property
    def jc(self) -> ComponentaResult:
        return ComponentaResult(self.decomposition, tuple(c.j for c in self.components))

    @cached_property
    def jstarc(self) -> ComponentaResult:
        return ComponentaResult(self.decomposition, tuple(c.j_star for c in self.components))

    @property
    def jc_rainbow_connected(self) -> bool | None:
        """Componentwise-J rainbow connectivity (mode "exists"); None when
        some component admits no J-colouring."""
        if not self.jc.admits:
            return None
        return all(c.jc_rainbow_colouring is not None for c in self.components)

    def chi_rainbow_connected(self, mode: str) -> bool | None:
        """Chromatic rainbow connectivity in ``mode``; None when the
        convention colouring of some component is infeasible, even where
        another component would refute it."""
        if mode == "convention":
            if any(c.convention is None for c in self.components):
                return None
            return all(c.convention_connected for c in self.components)
        if mode == "exists":
            return all(c.exists_connected for c in self.components)
        raise ValueError(f"mode must be one of {CHI_MODES}, got {mode!r}")


def _yielding(comp: ComponentFacts, mode: str) -> frozenset[int] | None:
    """The vertices of component ``comp`` that yield rainbow neighbourhoods
    under its chromatic colouring in rainbow-neighbourhood ``mode``; None
    where the convention colouring is infeasible."""
    if mode != "convention":
        return rainbow_neighbourhood_number(comp.graph, mode).yielding
    return None if comp.convention is None else yielding_vertices(comp.graph, comp.convention)


def analyse_graph(
    g: Graph | GraphFacts,
    rainbow_modes: Iterable[str] = RAINBOW_MODES,
    connectivity_modes: Iterable[str] = CONNECTIVITY_MODES,
) -> dict:
    """Assemble the full analysis document for ``g``, a graph or its record."""
    facts = g if isinstance(g, GraphFacts) else GraphFacts(g)
    g = facts.graph
    if g.n == 0:
        raise ValueError("cannot analyse the empty graph")
    dec = facts.decomposition
    components = []
    for ci, (verts, comp) in enumerate(zip(dec.vertices, facts.components)):
        chi, chi_witness = comp.chromatic
        entry: dict = {
            "index": ci,
            "vertices": list(verts),
            "n": comp.graph.n,
            "m": comp.graph.m,
            "chi": chi,
            "chi_witness": chi_witness.to_json_dict(),
            "j": comp.j.to_json_dict(),
            "j_star": comp.j_star.to_json_dict(),
            "rainbow_neighbourhood": {},
        }
        for mode in rainbow_modes:
            yielding = _yielding(comp, mode)
            entry["rainbow_neighbourhood"][mode] = {
                "feasible": yielding is not None,
                "r": None if yielding is None else len(yielding),
                "yielding": None if yielding is None else sorted(yielding),
            }
        components.append(entry)

    connectivity: dict = {}
    for mode in connectivity_modes:
        if mode == "jc-exists":
            connected = facts.jc_rainbow_connected
        else:
            connected = facts.chi_rainbow_connected(mode.removeprefix("chi-"))
        connectivity[mode] = {"defined": connected is not None, "connected": connected}

    return {
        "schema": "janalysis/1",
        "graph": {"n": g.n, "m": g.m, "components": len(dec)},
        "components": components,
        "whole": {
            "jc": facts.jc.to_json_dict(),
            "jstarc": facts.jstarc.to_json_dict(),
            "connectivity": connectivity,
        },
    }


def dump_json(doc: dict) -> str:
    """Canonical serialisation: sorted keys, two-space indent, newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def render_text(doc: dict) -> str:
    """Human summary, derived entirely from the JSON document."""
    lines = []
    graph = doc["graph"]
    lines.append(
        f"graph: {graph['n']} vertices, {graph['m']} edges, "
        f"{graph['components']} component(s)"
    )
    for comp in doc["components"]:
        j = comp["j"]
        js = comp["j_star"]
        j_text = f"J={j['value']}" if j["admits"] else "no J-colouring"
        js_text = f"J*={js['value']}" if js["admits"] else "no J*-colouring"
        lines.append(
            f"  component {comp['index']} (vertices {comp['vertices']}): "
            f"chi={comp['chi']}, {j_text}, {js_text}"
        )
        for mode, rep in sorted(comp["rainbow_neighbourhood"].items()):
            if rep["feasible"]:
                lines.append(f"    r[{mode}] = {rep['r']} of {comp['n']}")
            else:
                lines.append(f"    r[{mode}]: convention infeasible")
    whole = doc["whole"]
    for key, label in (("jc", "J^c"), ("jstarc", "J*^c")):
        block = whole[key]
        if block["admits"]:
            extra = " (equal across components)" if block["equal_across_components"] else ""
            lines.append(f"{label} = {block['value']}{extra}")
        else:
            lines.append(f"no {label}-colouring")
    for mode, verdict in sorted(whole["connectivity"].items()):
        if not verdict["defined"]:
            lines.append(f"{mode}: undefined")
        else:
            lines.append(f"{mode}: {'connected' if verdict['connected'] else 'not connected'}")
    return "\n".join(lines) + "\n"
