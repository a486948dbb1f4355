"""One-stop analysis document: every invariant this package computes for
one graph, as a JSON-ready dict.

The dict is the machine contract (stable keys, versioned schema); the
text rendering is derived from it and never computed separately.  Values
that do not exist are explicit ``admits: false`` / ``null`` markers,
never zero.
"""

from __future__ import annotations

import json
from typing import Iterable

from .colouring import ConventionInfeasibleError, chromatic_number
from .connectivity import is_chi_rainbow_connected, is_jc_rainbow_connected
from .graphs import Graph, decompose
from .jcolouring import NotJColourable, jc_number, jstarc_number
from .neighbourhoods import MODES as RAINBOW_MODES
from .neighbourhoods import rainbow_neighbourhood_number

CONNECTIVITY_MODES = ("jc-exists", "chi-convention", "chi-exists")
ALL_MODES = RAINBOW_MODES + CONNECTIVITY_MODES


def analyse_graph(
    g: Graph,
    rainbow_modes: Iterable[str] = RAINBOW_MODES,
    connectivity_modes: Iterable[str] = CONNECTIVITY_MODES,
) -> dict:
    """Assemble the full analysis document for ``g``."""
    if g.n == 0:
        raise ValueError("cannot analyse the empty graph")
    dec = decompose(g)
    jc = jc_number(g)
    jstarc = jstarc_number(g)
    components = []
    for ci, comp in enumerate(dec.components):
        chi, chi_witness = chromatic_number(comp)
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
            try:
                rep = rainbow_neighbourhood_number(comp, mode)
            except ConventionInfeasibleError:
                entry["rainbow_neighbourhood"][mode] = {
                    "feasible": False,
                    "r": None,
                    "yielding": None,
                }
            else:
                entry["rainbow_neighbourhood"][mode] = {
                    "feasible": True,
                    "r": rep.r,
                    "yielding": sorted(rep.yielding),
                }
        components.append(entry)

    connectivity: dict = {}
    for mode in connectivity_modes:
        side, sub_mode = mode.split("-", 1)
        predicate, undefined = (
            (is_jc_rainbow_connected, NotJColourable)
            if side == "jc"
            else (is_chi_rainbow_connected, ConventionInfeasibleError)
        )
        try:
            connected = predicate(g, sub_mode).connected
        except undefined:
            connectivity[mode] = {"defined": False, "connected": None}
        else:
            connectivity[mode] = {"defined": True, "connected": connected}

    return {
        "schema": "janalysis/1",
        "graph": {"n": g.n, "m": g.m, "components": len(dec)},
        "components": components,
        "whole": {
            "jc": {
                "admits": jc.admits,
                "value": jc.value,
                "equal_across_components": jc.equal_across_components,
                "per_component": [r.value for r in jc.per_component],
            },
            "jstarc": {
                "admits": jstarc.admits,
                "value": jstarc.value,
                "equal_across_components": jstarc.equal_across_components,
                "per_component": [r.value for r in jstarc.per_component],
            },
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
