"""File formats: plain edge lists, DIMACS colouring instances, DOT export.

Edge-list format: first line "n m", then m lines "u v" with 0-based
endpoints.  DIMACS: "c" comment lines, one "p edge n m" header, then
"e u v" lines with 1-based endpoints (shifted to 0-based internally and
shifted back on export).  Both parsers reject a header declaring more
than MAX_VERTICES vertices, before allocating anything for them: the
exact searches are exponential, so such inputs could never finish.  They
walk the text line by line and keep each distinct edge once.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Iterable, Iterator

from .colouring import Colouring
from .graphs import Graph, build_graph


MAX_VERTICES = 64
MAX_FILE_BYTES = 1 << 20  # a 64-vertex graph takes about 20 KB


class FormatError(ValueError):
    """Malformed input file; carries the offending 1-based line number."""

    def __init__(self, line: int, message: str) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


# a line as str.splitlines cuts it, with its break (the last may have none)
_BREAKS = "\n\r\v\f\x1c-\x1e\x85\u2028\u2029"
_LINE = re.compile(f"([^{_BREAKS}]*)(?:\r\n|[{_BREAKS}])?")


def _lines(text: str) -> Iterator[str]:
    """``text.splitlines()``, one line at a time; the one empty match, at
    the end of the text, is no line."""
    return (match[1] for match in _LINE.finditer(text) if match[0])


def parse_edgelist(text: str) -> Graph:
    """Parse the edge-list format.  Blank lines and '#' comments are
    ignored."""
    n = m = None
    edges: set[tuple[int, int]] = set()
    count = 0  # edge lines
    for lineno, raw in enumerate(_lines(text), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if n is None:
            if len(fields) != 2:
                raise FormatError(lineno, f"expected header 'n m', got {raw.strip()!r}")
            try:
                n, m = int(fields[0]), int(fields[1])
            except ValueError:
                raise FormatError(lineno, f"header values must be integers, got {raw.strip()!r}")
            if n < 0 or m < 0:
                raise FormatError(lineno, "header values must be non-negative")
            if n > MAX_VERTICES:
                raise FormatError(lineno, f"vertex count {n} exceeds the limit of {MAX_VERTICES}")
            continue
        if len(fields) != 2:
            raise FormatError(lineno, f"expected edge 'u v', got {raw.strip()!r}")
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise FormatError(lineno, f"edge endpoints must be integers, got {raw.strip()!r}")
        if u == v or not (0 <= u < n and 0 <= v < n):
            raise FormatError(lineno, f"invalid edge ({u}, {v}) for n={n}")
        count += 1
        edges.add((u, v) if u < v else (v, u))
    if n is None:
        raise FormatError(1, "missing 'n m' header")
    if count != m:
        raise FormatError(lineno, f"header declared {m} edges but file contains {count}")
    return build_graph(n, edges)


def write_edgelist(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def parse_dimacs(text: str) -> Graph:
    """Parse a DIMACS .col instance ('p edge n m' header, 1-based 'e u v'
    lines).  The declared edge count must be a non-negative integer but is
    not enforced against the 'e' lines: real instances often misreport it
    and duplicates collapse anyway."""
    n = None
    edges: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(_lines(text), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] == "p":
            if n is not None:
                raise FormatError(lineno, "duplicate problem line")
            if len(fields) != 4 or fields[1] not in ("edge", "edges", "col"):
                raise FormatError(lineno, f"expected 'p edge n m', got {line!r}")
            try:
                n, m = int(fields[2]), int(fields[3])
            except ValueError:
                raise FormatError(lineno, f"header values must be integers, got {line!r}")
            if n < 0 or m < 0:
                raise FormatError(lineno, "header values must be non-negative")
            if n > MAX_VERTICES:
                raise FormatError(lineno, f"vertex count {n} exceeds the limit of {MAX_VERTICES}")
        elif fields[0] == "e":
            if n is None:
                raise FormatError(lineno, "edge line before problem line")
            if len(fields) != 3:
                raise FormatError(lineno, f"expected 'e u v', got {line!r}")
            try:
                u, v = int(fields[1]) - 1, int(fields[2]) - 1
            except ValueError:
                raise FormatError(lineno, f"edge endpoints must be integers, got {line!r}")
            if not (0 <= u < n and 0 <= v < n) or u == v:
                raise FormatError(lineno, f"invalid edge ({u + 1}, {v + 1}) for n={n}")
            edges.add((u, v) if u < v else (v, u))
        else:
            raise FormatError(lineno, f"unrecognised line {line!r}")
    if n is None:
        raise FormatError(1, "missing problem line 'p edge n m'")
    return build_graph(n, edges)


def write_dimacs(g: Graph) -> str:
    lines = [f"p edge {g.n} {g.m}"]
    lines.extend(f"e {u + 1} {v + 1}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def read_graph(path: str | Path, fmt: str = "auto") -> Graph:
    """Read a UTF-8 graph file of at most MAX_FILE_BYTES bytes, with or
    without a byte-order mark; fmt is 'edgelist', 'dimacs' or 'auto' (by
    the .col suffix)."""
    p = Path(path)
    with p.open("rb") as f:
        data = f.read(MAX_FILE_BYTES + 1)
    if len(data) > MAX_FILE_BYTES:
        raise ValueError(f"{path}: file is larger than {MAX_FILE_BYTES} bytes")
    try:
        # dropped after decoding, so that a bad byte's offset counts the mark
        text = data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise FormatError(
            data.count(b"\n", 0, exc.start) + 1,
            f"not UTF-8: byte {data[exc.start]:#04x} at offset {exc.start}",
        ) from None
    if fmt == "auto":
        fmt = "dimacs" if p.suffix.lower() == ".col" else "edgelist"
    if fmt == "edgelist":
        return parse_edgelist(text)
    if fmt == "dimacs":
        return parse_dimacs(text)
    raise ValueError(f"format must be 'edgelist', 'dimacs' or 'auto', got {fmt!r}")


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------

# fixed 12-colour palette, cycled for colour classes beyond 12
PALETTE = (
    "#a6cee3",
    "#1f78b4",
    "#b2df8a",
    "#33a02c",
    "#fb9a99",
    "#e31a1c",
    "#fdbf6f",
    "#ff7f00",
    "#cab2d6",
    "#6a3d9a",
    "#ffff99",
    "#b15928",
)


def export_dot(
    g: Graph,
    colouring: Colouring | None = None,
    witness_paths: Iterable[Iterable[int]] | None = None,
) -> str:
    """Deterministic DOT rendering.

    Coloured vertices carry a ``colourclass="c<j>"`` attribute and a fill
    from the fixed 12-colour palette (cycling beyond 12); edges lying on
    any witness path are drawn bold.
    """
    bold: set[tuple[int, int]] = set()
    if witness_paths:
        for path in witness_paths:
            seq = list(path)
            for a, b in zip(seq, seq[1:]):
                bold.add((a, b) if a < b else (b, a))
    lines = ["graph G {", "  node [shape=circle style=filled fillcolor=white];"]
    for v in range(g.n):
        if colouring is not None:
            c = colouring.assignment[v]
            fill = PALETTE[(c - 1) % len(PALETTE)]
            lines.append(f'  {v} [colourclass="c{c}" fillcolor="{fill}"];')
        else:
            lines.append(f"  {v};")
    for u, v in g.edges:
        if (u, v) in bold:
            lines.append(f"  {u} -- {v} [style=bold penwidth=2.5];")
        else:
            lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
