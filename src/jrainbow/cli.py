"""Command-line front end.

Subcommands:

  analyze <file>          full invariant analysis of a graph file
  family <kind> <params>  build a named family instance and analyze it
  check                   run the claim checker over enumerated graphs
  rainbow <file>          rainbow paths for one pair or all pairs

Each command returns its texts and their destinations; ``main`` checks
every ``--json`` / ``--dot`` path before any work, then writes the files
and, after them, stdout (``-``).

Exit codes: 0 success; 1 when --expect-admits was set but the graph
admits no componentwise J-colouring; 2 on input errors (malformed files
are reported with line numbers, and a graph file or a family instance
may have at most 64 vertices, ``io.MAX_VERTICES``), on a destination
that is a directory or lies in none, and on a failed write.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache
from itertools import combinations
from pathlib import Path

from . import __version__
from .analysis import (
    ALL_MODES,
    CONNECTIVITY_MODES,
    GraphFacts,
    analyse_graph,
    dump_json,
    render_text,
)
from .colouring import Colouring
from .connectivity import rainbow_path_finder
from .families import KINDS, FamilySpec, enumerate_graphs, generate, oracle_j, oracle_j_star
from .graphs import ComponentDecomposition, Graph
from .io import MAX_VERTICES, FormatError, export_dot, read_graph
from .neighbourhoods import MODES as RAINBOW_MODES
from .theorems import THEOREM_IDS, check_all, report, select_claims


@cache  # parse_args does not change the parser, so one serves every call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jrainbow",
        description="Exact analysis of J-colourings, rainbow neighbourhoods "
        "and rainbow connectivity for small graphs.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="analyse a graph file")
    analyze.add_argument("file", help="graph file (edge list, or DIMACS .col)")
    analyze.add_argument(
        "--format", choices=("auto", "edgelist", "dimacs"), default="auto",
        help="input format; DIMACS vertex ids are 1-based and shifted to "
        "0-based internally (default: auto, by .col suffix)",
    )
    _add_analysis_flags(analyze)

    family = sub.add_parser("family", help="analyse a named family instance")
    family.add_argument("kind", choices=[k for k in KINDS if k != "disjoint_union"])
    family.add_argument(
        "params", type=int, nargs="+",
        help="orders / part sizes (wheel takes its total order: hub + rim)",
    )
    _add_analysis_flags(family)

    chk = sub.add_parser("check", help="run the claim checker over all "
                         "non-isomorphic graphs up to a size")
    chk.add_argument("--max-n", type=int, required=True, help="largest vertex count (<= 8)")
    chk.add_argument(
        "--theorems", default="all",
        help="comma-separated claim ids (T1..T10) or 'all'",
    )
    chk.add_argument("--connected-only", action="store_true")
    chk.add_argument("--text", action="store_true", help="print the text table instead of JSON")
    chk.add_argument("--json", metavar="PATH", help="write the JSON report to PATH ('-' = stdout)")

    rainbow = sub.add_parser("rainbow", help="rainbow paths under a J-colouring "
                             "(falling back to a chromatic colouring)")
    rainbow.add_argument("file")
    rainbow.add_argument(
        "--format", choices=("auto", "edgelist", "dimacs"), default="auto")
    group = rainbow.add_mutually_exclusive_group(required=True)
    group.add_argument("--pair", nargs=2, type=int, metavar=("U", "V"))
    group.add_argument("--all-pairs", action="store_true")
    for cmd in (analyze, family, rainbow):
        cmd.add_argument("--json", metavar="PATH", help="write the JSON document to PATH ('-' = stdout)")
        cmd.add_argument("--dot", metavar="PATH", help="write a DOT rendering to PATH ('-' = stdout)")
    return parser


def _add_analysis_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--modes", default="all",
        help="comma-separated analysis modes out of "
        f"{', '.join(ALL_MODES)} (default: all)",
    )
    sub.add_argument(
        "--expect-admits", action="store_true",
        help="exit 1 when the graph admits no componentwise J-colouring",
    )


# what a command returns: its exit code and its (text, destination) pairs
# in the order it writes them, where a destination of None or "-" is stdout
Result = tuple[int, list[tuple[str, str | None]]]
_STDOUT = (None, "-")


def _parse_modes(spec: str) -> tuple[list[str], list[str]]:
    if spec == "all":
        return list(RAINBOW_MODES), list(CONNECTIVITY_MODES)
    tokens = [t.strip() for t in spec.split(",") if t.strip()]
    rainbow = [t for t in tokens if t in RAINBOW_MODES]
    connectivity = [t for t in tokens if t in CONNECTIVITY_MODES]
    unknown = [t for t in tokens if t not in RAINBOW_MODES + CONNECTIVITY_MODES]
    if unknown:
        raise ValueError(f"unknown modes: {', '.join(unknown)}")
    return rainbow, connectivity


def _component_colourings(facts: GraphFacts) -> tuple[str, list[Colouring]]:
    """Colouring source and one colouring per component: the J-witnesses
    when the graph admits a componentwise J-colouring, else each
    component's convention chromatic colouring, or its chromatic witness
    where the convention is infeasible."""
    if facts.jc.admits:
        return "j-colouring", [c.j.witness for c in facts.components]
    return "chromatic-convention", [
        c.chromatic[1] if c.convention is None else c.convention for c in facts.components
    ]


def _dot_colouring(dec: ComponentDecomposition, colourings: list[Colouring]) -> Colouring:
    """Colouring used for DOT output: the per-component colourings of
    :func:`_component_colourings`, the ones ``rainbow`` searches its paths
    under, merged on the parent ids."""
    assign = [0] * dec.parent.n
    for verts, col in zip(dec.vertices, colourings):
        for li, pv in enumerate(verts):
            assign[pv] = col.assignment[li]
    return Colouring(ell=max(assign), assignment=tuple(assign))


def _run_analysis(g: Graph, args: argparse.Namespace, extra: dict | None = None) -> Result:
    rainbow_modes, connectivity_modes = _parse_modes(args.modes)
    facts = GraphFacts(g)
    doc = analyse_graph(facts, rainbow_modes=rainbow_modes, connectivity_modes=connectivity_modes)
    if extra:
        doc.update(extra)
    outputs = [(render_text(doc) if args.json is None else dump_json(doc), args.json)]
    if args.dot is not None:
        _, colourings = _component_colourings(facts)
        outputs.append((export_dot(g, _dot_colouring(facts.decomposition, colourings)), args.dot))
    return int(args.expect_admits and not doc["whole"]["jc"]["admits"]), outputs


def _cmd_analyze(args: argparse.Namespace) -> Result:
    return _run_analysis(read_graph(args.file, args.format), args)


def _cmd_family(args: argparse.Namespace) -> Result:
    spec = FamilySpec(args.kind, tuple(args.params))
    n = sum(spec.params)  # the vertex count of every kind offered here
    if n > MAX_VERTICES:
        raise ValueError(
            f"{spec.describe()}: vertex count {n} exceeds the limit of {MAX_VERTICES}"
        )
    g = generate(spec)
    oracle = {
        "family": {
            "kind": spec.kind,
            "params": list(spec.params),
            "oracle_j": oracle_j(spec).to_json_dict(),
            "oracle_j_star": oracle_j_star(spec).to_json_dict(),
        }
    }
    return _run_analysis(g, args, extra=oracle)


def _cmd_check(args: argparse.Namespace) -> Result:
    if not 1 <= args.max_n <= 8:
        raise ValueError(f"--max-n must be in 1..8, got {args.max_n}")
    if args.theorems == "all":
        theorems = list(THEOREM_IDS)
    else:
        theorems = [t.strip() for t in args.theorems.split(",") if t.strip()]
    select_claims(theorems)  # reject a bad id before the enumeration
    graphs = []
    for n in range(1, args.max_n + 1):
        graphs.extend(enumerate_graphs(n, connected_only=args.connected_only))
    corpus = f"{'connected ' if args.connected_only else ''}graphs n<={args.max_n}"
    verdicts = check_all(graphs, corpus=corpus, theorems=theorems)
    outputs = [(report(verdicts, "text"), None)] if args.text else []
    if not args.text or args.json is not None:
        outputs.append((report(verdicts, "json"), args.json))
    return 0, outputs


def _cmd_rainbow(args: argparse.Namespace) -> Result:
    g = read_graph(args.file, args.format)
    if g.n == 0:
        raise ValueError("componentwise numbers of the empty graph are undefined")
    facts = GraphFacts(g)
    dec = facts.decomposition
    source, comp_colourings = _component_colourings(facts)
    if args.pair:
        u, v = args.pair
        if not (0 <= u < g.n and 0 <= v < g.n):
            raise ValueError(f"pair ({u}, {v}) outside 0..{g.n - 1}")
        if u == v:
            raise ValueError("rainbow paths need two distinct vertices")
        pairs = [(min(u, v), max(u, v))]
    else:
        pairs = list(combinations(range(g.n), 2))
    entries = []
    witness_paths = []
    vertex_map = dec.vertex_map
    finders = [
        rainbow_path_finder(comp, col) for comp, col in zip(dec.components, comp_colourings)
    ]
    for u, v in pairs:
        cu, lu = vertex_map[u]
        cv, lv = vertex_map[v]
        if cu != cv:
            entries.append({"pair": [u, v], "exists": False, "path": None,
                            "reason": "different components"})
            continue
        witness = finders[cu](lu, lv)
        if witness is None:
            entries.append({"pair": [u, v], "exists": False, "path": None, "reason": None})
        else:
            parent_path = [dec.vertices[cu][w] for w in witness.path]
            witness_paths.append(parent_path)
            entries.append({"pair": [u, v], "exists": True, "path": parent_path,
                            "colours": sorted(witness.colours_seen)})
    doc = {
        "schema": "rainbow-paths/1",
        "graph": {"n": g.n, "m": g.m},
        "colouring_source": source,
        "colourings": [c.to_json_dict() for c in comp_colourings],
        "pairs": entries,
    }
    text = dump_json(doc) if args.json is not None else "".join(map(_pair_line, entries))
    outputs = [(text, args.json)]
    if args.dot is not None:
        outputs.append((export_dot(g, _dot_colouring(dec, comp_colourings), witness_paths), args.dot))
    return 0, outputs


def _pair_line(e: dict) -> str:
    if e["exists"]:
        return f"{e['pair'][0]} {e['pair'][1]}: {' '.join(map(str, e['path']))}\n"
    reason = f" ({e['reason']})" if e["reason"] else ""
    return f"{e['pair'][0]} {e['pair'][1]}: no rainbow path{reason}\n"


_COMMANDS = {
    "analyze": _cmd_analyze,
    "family": _cmd_family,
    "check": _cmd_check,
    "rainbow": _cmd_rainbow,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        for flag in ("json", "dot"):  # fail before the work, not on the write
            dest = vars(args).get(flag)
            if dest in _STDOUT:
                continue
            if not Path(dest).parent.is_dir():
                raise ValueError(f"--{flag}: no directory {str(Path(dest).parent)!r}")
            if Path(dest).is_dir():
                raise ValueError(f"--{flag}: {dest!r} is a directory")
        code, outputs = _COMMANDS[args.command](args)
        for text, dest in outputs:
            if dest not in _STDOUT:
                Path(dest).write_text(text)
        sys.stdout.write("".join(text for text, dest in outputs if dest in _STDOUT))
        return code
    except FormatError as exc:
        print(f"error: {args.file}: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
