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
    chromatic_number,
    convention_colouring,
)
from .connectivity import _chi_candidates, rainbow_connecting_colouring
from .graphs import DegreeProfile, Graph, decompose, degree_profile, has_cycle_length_multiple
from .jcolouring import (
    ComponentaResult,
    _componentwise,
    enumerate_j_colourings,
    j_number,
    j_star_number,
)
from .neighbourhoods import MODES as RAINBOW_MODES
from .neighbourhoods import rainbow_neighbourhood_number, yielding_vertices

CONNECTIVITY_MODES = ("jc-exists", "chi-convention", "chi-exists")
ALL_MODES = RAINBOW_MODES + CONNECTIVITY_MODES


class GraphFacts:
    """The per-graph facts that the claim checker, the analysis document
    and the CLI read, each derived in one place.

    The graph is decomposed on construction; every other fact is computed
    on first use and then kept.  Per-component facts are indexed like
    ``decomposition.components``; None marks what does not exist.
    """

    def __init__(self, g: Graph) -> None:
        self.graph = g
        self.decomposition = decompose(g)

    @cached_property
    def chromatic(self) -> tuple[tuple[int, Colouring], ...]:
        """(chi, witness) per component."""
        return tuple(chromatic_number(comp) for comp in self.decomposition.components)

    @cached_property
    def convention(self) -> tuple[Colouring | None, ...]:
        """Per component: its convention chi-colouring, None where the
        greedy-maximal discipline cannot realise chi classes."""
        colourings = []
        for comp, (chi, _) in zip(self.decomposition.components, self.chromatic):
            try:
                colourings.append(convention_colouring(comp, chi))
            except ConventionInfeasibleError:
                colourings.append(None)
        return tuple(colourings)

    @cached_property
    def degree_profiles(self) -> tuple[DegreeProfile, ...]:
        return tuple(degree_profile(comp) for comp in self.decomposition.components)

    @cached_property
    def cycle_multiple_of_3(self) -> tuple[bool, ...]:
        """Per component: whether some simple cycle has a length divisible
        by 3."""
        return tuple(
            has_cycle_length_multiple(comp, 3) for comp in self.decomposition.components
        )

    @cached_property
    def jc(self) -> ComponentaResult:
        return _componentwise(self.decomposition, j_number)

    @cached_property
    def jstarc(self) -> ComponentaResult:
        return _componentwise(self.decomposition, j_star_number)

    @cached_property
    def all_yield_chi(self) -> tuple[bool, ...]:
        """Per component: whether some surjective proper chi-colouring makes
        every vertex yield, i.e. is a J-colouring on chi colours.  A
        J-colouring is proper, so J >= chi: without J there is none, at
        J = chi the J witness is one, and only J > chi needs a search."""
        return tuple(
            res.admits
            and (res.value == chi or next(enumerate_j_colourings(comp, chi), None) is not None)
            for comp, res, (chi, _) in zip(
                self.decomposition.components, self.jc.per_component, self.chromatic
            )
        )

    # memo tables of the two methods below, made on first use: most
    # records of a corpus run never need them
    @cached_property
    def _jc_rainbow(self) -> dict[int, Colouring | None]:
        return {}

    @cached_property
    def _chi_rainbow(self) -> dict[str, bool | None]:
        return {}

    def jc_rainbow_colouring(self, ci: int) -> Colouring | None:
        """First maximum J-colouring of component ``ci`` that rainbow-connects
        all of its pairs; None when there is none or J is undefined there."""
        if ci not in self._jc_rainbow:
            comp = self.decomposition.components[ci]
            res = self.jc.per_component[ci]
            self._jc_rainbow[ci] = (
                rainbow_connecting_colouring(
                    comp, res.value, enumerate_j_colourings(comp, res.value)
                )
                if res.admits else None
            )
        return self._jc_rainbow[ci]

    @property
    def jc_rainbow_connected(self) -> bool | None:
        """Componentwise-J rainbow connectivity (mode "exists"); None when
        some component admits no J-colouring."""
        if not self.jc.admits:
            return None
        return all(
            self.jc_rainbow_colouring(ci) is not None
            for ci in range(len(self.decomposition))
        )

    def chi_rainbow_connected(self, mode: str) -> bool | None:
        """Chromatic rainbow connectivity in ``mode``; None when the
        convention colouring of some component is infeasible, even where
        another component would refute it."""
        if mode not in self._chi_rainbow:
            comps = self.decomposition.components
            chis = [chi for chi, _ in self.chromatic]
            if mode == "convention" and None in self.convention:
                self._chi_rainbow[mode] = None
            else:
                candidates = (
                    [(colouring,) for colouring in self.convention]
                    if mode == "convention"
                    else [_chi_candidates(comp, chi, mode) for comp, chi in zip(comps, chis)]
                )
                self._chi_rainbow[mode] = all(
                    rainbow_connecting_colouring(comp, chi, cands) is not None
                    for comp, chi, cands in zip(comps, chis, candidates)
                )
        return self._chi_rainbow[mode]


def _yielding(facts: GraphFacts, ci: int, mode: str) -> frozenset[int] | None:
    """The vertices of component ``ci`` that yield rainbow neighbourhoods
    under its chromatic colouring in rainbow-neighbourhood ``mode``; None
    where the convention colouring is infeasible."""
    comp = facts.decomposition.components[ci]
    if mode != "convention":
        return rainbow_neighbourhood_number(comp, mode, facts.chromatic[ci][0]).yielding
    colouring = facts.convention[ci]
    return None if colouring is None else yielding_vertices(comp, colouring)


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
    jc, jstarc = facts.jc, facts.jstarc
    components = []
    for ci, comp in enumerate(dec.components):
        chi, chi_witness = facts.chromatic[ci]
        entry: dict = {
            "index": ci,
            "vertices": list(dec.vertices[ci]),
            "n": comp.n,
            "m": comp.m,
            "chi": chi,
            "chi_witness": chi_witness.to_json_dict(),
            "j": jc.per_component[ci].to_json_dict(),
            "j_star": jstarc.per_component[ci].to_json_dict(),
            "rainbow_neighbourhood": {},
        }
        for mode in rainbow_modes:
            yielding = _yielding(facts, ci, mode)
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
            "jc": jc.to_json_dict(),
            "jstarc": jstarc.to_json_dict(),
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
