"""Empirical checker for ten claims about J-colourings over enumerated
graph corpora.

Each claim is treated as a hypothesis, never as an axiom: the checker
evaluates it graph by graph with the exact solvers and reports HOLDS or a
list of concrete, independently re-verifiable counterexamples.  The
claims, in the checker's own labels:

  T1   a connected graph admitting a J-colouring has chi <= J
  T2   a graph admits a componentwise J-colouring iff every component has
       rainbow neighbourhood number r = n_i (modes: convention, exists-max)
  T3   a graph admits a componentwise J-colouring iff every component has
       some surjective proper chi_i-colouring under which all vertices yield
  T4   every acyclic graph of order >= 2 has jc < jstarc (strict)
  T5   when defined, jstarc <= max component Delta + 1
  T6   jstarc > jc forces a pendant vertex in some component whose J equals jc
  T7   a component with J >= 3 that is J-rainbow connected has delta >= 2
  T8   in a componentwise-J rainbow connected graph every pair admits a
       path of length >= J_i - 1
  T9   a graph admitting a componentwise J-colouring is rainbow connected
       iff some component has J <= 2, or no component containing a cycle of
       length divisible by 3 has a pendant vertex (modes: the two parses
       parse-a = mixed quantifiers as written, parse-b = per-component)
  T10  admitting a componentwise J-colouring, chi-rainbow connectivity and
       componentwise-J rainbow connectivity are all equivalent (modes:
       chi-side convention / exists)

Graphs on which a convention colouring is infeasible are skipped (and
counted) in convention modes.  Verdicts are deterministic.  The
evaluators read a :class:`~jrainbow.analysis.GraphFacts` record.  A
``check`` or ``check_all`` call walks the corpus in blocks, builds each
block's graph records, runs every selected claim and mode over them and
then drops them, so the live graph records never exceed one block per
process.  A large corpus (n <= 8 on a machine with more than one CPU)
is shared among one forked worker per CPU, each with its own component
table, which take slices of the corpus as they come free; a smaller one
is checked in-process.  Each process computes each distinct component's
facts once, and the report is the same for any process count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from . import _shares
from .analysis import GraphFacts, _yielding, dump_json
from .graphs import Graph, build_graph

WITNESS_CAP = 5

THEOREM_IDS = ("T1", "T2", "T3", "T4", "T5", "T6", "T7", "T8", "T9", "T10")

THEOREM_MODES: dict[str, tuple[str | None, ...]] = {
    "T1": (None,),
    "T2": ("convention", "exists-max"),
    "T3": (None,),
    "T4": (None,),
    "T5": (None,),
    "T6": (None,),
    "T7": (None,),
    "T8": (None,),
    "T9": ("parse-a", "parse-b"),
    "T10": ("convention", "exists"),
}


@dataclass(frozen=True)
class Witness:
    """A counterexample graph plus the measured facts that refute the claim."""

    n: int
    edges: tuple[tuple[int, int], ...]
    explanation: str
    details: tuple[tuple[str, object], ...]

    def graph(self) -> Graph:
        return build_graph(self.n, self.edges)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "edges": [list(e) for e in self.edges],
            "explanation": self.explanation,
            "details": {k: v for k, v in self.details},
        }


@dataclass(frozen=True)
class TheoremVerdict:
    theorem: str
    mode: str | None
    corpus: str
    tested: int
    skipped: int
    status: str  # "HOLDS" or "COUNTEREXAMPLE"
    counterexample_count: int
    witnesses: tuple[Witness, ...]

    def to_json_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "mode": self.mode,
            "corpus": self.corpus,
            "tested": self.tested,
            "skipped": self.skipped,
            "status": self.status,
            "counterexample_count": self.counterexample_count,
            "witnesses": [w.to_json_dict() for w in self.witnesses],
        }


# ---------------------------------------------------------------------------
# Per-graph evaluators: return None (pass), "skip", or (explanation, details)
# ---------------------------------------------------------------------------

_SKIP = "skip"


def _check_t1(facts: GraphFacts, mode: str | None) -> object:
    for ci, comp in enumerate(facts.components):
        res = comp.j
        if not res.admits:
            continue
        chi, _ = comp.chromatic
        if not chi <= res.value:
            return (
                f"component {ci} admits a J-colouring with J={res.value} < chi={chi}",
                {"component": ci, "chi": chi, "j": res.value},
            )
    return None


def _check_t2(facts: GraphFacts, mode: str | None) -> object:
    admits = facts.jc.admits
    # r = n on a component exactly when some chi-colouring makes every
    # vertex yield, so exists-max computes r only for a counterexample
    if mode == "exists-max" and admits == all(c.all_yield_chi for c in facts.components):
        return None
    yielding = [_yielding(c, mode) for c in facts.components]
    if None in yielding:
        return _SKIP
    per_component = [(len(ys), c.graph.n) for ys, c in zip(yielding, facts.components)]
    rhs = all(r == n for r, n in per_component)
    if admits != rhs:
        return (
            f"admits={admits} but r_chi=n on all components is {rhs} (mode {mode})",
            {"admits": admits, "r_per_component": per_component},
        )
    return None


def _check_t3(facts: GraphFacts, mode: str | None) -> object:
    admits = facts.jc.admits
    rhs = all(c.all_yield_chi for c in facts.components)
    if admits != rhs:
        return (
            f"admits={admits} but existence of an all-yield chi-colouring per component is {rhs}",
            {"admits": admits, "all_yield_chi_exists": rhs},
        )
    return None


def _check_t4(facts: GraphFacts, mode: str | None) -> object:
    g = facts.graph
    if g.n < 2 or g.m != g.n - len(facts.decomposition):  # not a forest
        return None
    jc, jstarc = facts.jc, facts.jstarc
    if not (jc.admits and jstarc.admits):
        return (
            "acyclic graph of order >= 2 without both componentwise numbers defined",
            {"jc_admits": jc.admits, "jstarc_admits": jstarc.admits},
        )
    if not jc.value < jstarc.value:
        return (
            f"acyclic graph of order {g.n} with jc={jc.value} and jstarc={jstarc.value}: "
            "strict inequality fails",
            {"jc": jc.value, "jstarc": jstarc.value},
        )
    return None


def _check_t5(facts: GraphFacts, mode: str | None) -> object:
    jstarc = facts.jstarc
    if not jstarc.admits:
        return None
    bound = max(c.profile.Delta for c in facts.components) + 1
    if not jstarc.value <= bound:
        return (
            f"jstarc={jstarc.value} exceeds max component Delta + 1 = {bound}",
            {"jstarc": jstarc.value, "max_delta_plus_1": bound},
        )
    return None


def _check_t6(facts: GraphFacts, mode: str | None) -> object:
    jc, jstarc = facts.jc, facts.jstarc
    if not (jc.admits and jstarc.admits):
        return None
    if jstarc.value <= jc.value:
        return None
    argmax = [ci for ci, res in enumerate(jc.per_component) if res.value == jc.value]
    if any(facts.components[ci].profile.pendants for ci in argmax):
        return None
    return (
        f"jstarc={jstarc.value} > jc={jc.value} yet no argmax component has a pendant vertex",
        {"jc": jc.value, "jstarc": jstarc.value, "argmax_components": argmax},
    )


def _check_t7(facts: GraphFacts, mode: str | None) -> object:
    for ci, comp in enumerate(facts.components):
        res = comp.j
        delta = comp.profile.delta
        # delta first: the rainbow verdict is a search, delta is not
        if not res.admits or res.value < 3 or delta >= 2:
            continue
        if comp.jc_rainbow_colouring is not None:
            return (
                f"component {ci} has J={res.value} >= 3 and is J-rainbow connected "
                f"but delta={delta} < 2",
                {"component": ci, "j": res.value, "delta": delta},
            )
    return None


def _check_t8(facts: GraphFacts, mode: str | None) -> object:
    if not facts.jc_rainbow_connected:  # undefined or not connected
        return None
    for ci, comp in enumerate(facts.components):
        if comp.graph.n < 2:
            continue
        short = comp.short_rainbow_pair
        if short is not None:
            pair, length = short
            j_i = comp.j.value
            return (
                f"component {ci} pair {pair}: shortest rainbow path length "
                f"{length} < J-1 = {j_i - 1}",
                {"component": ci, "pair": list(pair), "length": length, "j": j_i},
            )
    return None


def _check_t9(facts: GraphFacts, mode: str | None) -> object:
    lhs = facts.jc_rainbow_connected
    if lhs is None:
        return None
    rows = [
        (c.j.value, c.cycle_multiple_of_3, bool(c.profile.pendants)) for c in facts.components
    ]
    cycle_clause_all = all((not has3) or (not pendant) for _, has3, pendant in rows)
    if mode == "parse-a":
        rhs = any(j_i <= 2 for j_i, _, _ in rows) or cycle_clause_all
    else:  # parse-b: per-component disjunction
        rhs = all(
            j_i <= 2 or (not has3) or (not pendant) for j_i, has3, pendant in rows
        )
    if lhs != rhs:
        return (
            f"rainbow connected={lhs} but the {mode} condition evaluates to {rhs}",
            {
                "rainbow_connected": lhs,
                "condition": rhs,
                "component_facts": [
                    {"j": j_i, "has_cycle_mult3": has3, "has_pendant": pendant}
                    for j_i, has3, pendant in rows
                ],
            },
        )
    return None


def _check_t10(facts: GraphFacts, mode: str | None) -> object:
    admits = facts.jc.admits
    chi_conn = facts.chi_rainbow_connected(mode)
    if chi_conn is None:
        return _SKIP
    if admits != chi_conn:
        return (
            f"admits componentwise J-colouring = {admits} but chi-rainbow connected "
            f"({mode}) = {chi_conn}",
            {"admits": admits, "chi_rainbow_connected": chi_conn, "chi_mode": mode},
        )
    if admits:
        jc_conn = facts.jc_rainbow_connected
        if jc_conn != chi_conn:
            return (
                f"chi-rainbow connected ({mode}) = {chi_conn} but componentwise-J "
                f"rainbow connected = {jc_conn}",
                {
                    "admits": admits,
                    "chi_rainbow_connected": chi_conn,
                    "jc_rainbow_connected": jc_conn,
                    "chi_mode": mode,
                },
            )
    return None


_CHECKERS: dict[str, Callable[[GraphFacts, str | None], object]] = {
    "T1": _check_t1,
    "T2": _check_t2,
    "T3": _check_t3,
    "T4": _check_t4,
    "T5": _check_t5,
    "T6": _check_t6,
    "T7": _check_t7,
    "T8": _check_t8,
    "T9": _check_t9,
    "T10": _check_t10,
}


# ---------------------------------------------------------------------------
# Corpus runner
# ---------------------------------------------------------------------------

# Graph records live while every selected claim reads their block of the
# corpus.  Ten interleaved rounds of check_all over n <= 8, all claims (2-CPU
# Xeon, Python 3.11.7), put the CPU-time median at 4.01 s with the whole
# corpus as one block, 4.25 s with blocks of 16 graphs, 3.90 s with 32 and
# 4.07 s with 64, and the peak RSS at 58.5, 44.9, 45.0 and 46.5 MB.
_BLOCK = 32

# Graphs per process of the corpus loop.  Each process solves the
# components it meets in its own table, so small components are solved
# once per process.  Five alternating fresh runs of check_all, all claims,
# over the first graphs with n <= 7, on two forked processes against one
# (2-CPU Xeon, Python 3.11.7), put the median at 31 against 26 ms for 156
# graphs, 49 against 57 ms for 256, 81 against 144 ms for 512 and 223
# against 285 ms for all 1252.  So forking pays from about 256 graphs on;
# 256 per process forks from 512, which takes in n <= 7 and leaves n <= 6
# (208 graphs) serial.
_GRAPHS_PER_SHARE = 256


def check(
    theorem_id: str,
    graphs: Sequence[Graph],
    corpus: str = "",
    mode: str | None = None,
) -> TheoremVerdict:
    """Evaluate one claim over a graph corpus, graph by graph.  Each
    process of the corpus loop (see :func:`_run`) keeps one component
    record per distinct component, and builds the graph records it needs
    one block of the corpus at a time."""
    if theorem_id not in _CHECKERS:
        raise ValueError(f"unknown theorem id {theorem_id!r}")
    modes = THEOREM_MODES[theorem_id]
    if mode is None and len(modes) > 1:
        raise ValueError(f"{theorem_id} needs a mode from {modes}")
    if mode is not None and mode not in modes:
        raise ValueError(f"{theorem_id} mode must be one of {modes}, got {mode!r}")
    return _run(graphs, corpus, [(theorem_id, mode)])[0]


def check_all(
    graphs: Sequence[Graph],
    corpus: str = "",
    theorems: Iterable[str] | None = None,
) -> list[TheoremVerdict]:
    """Run the selected claims (default: all), each once in every mode,
    ordered by theorem id then mode.  Each process of the corpus loop (see
    :func:`_run`) keeps one component record per distinct component; each
    graph's record is built once, read by every claim and mode while its
    block of the corpus is checked, and then dropped."""
    return _run(graphs, corpus, select_claims(theorems))


def select_claims(theorems: Iterable[str] | None = None) -> list[tuple[str, str | None]]:
    """The (claim, mode) pairs that :func:`check_all` runs for the selected
    claim ids (default: all), ordered by theorem id then mode.  Raises
    ``ValueError`` on an unknown id or an empty selection."""
    selected = tuple(dict.fromkeys(THEOREM_IDS if theorems is None else theorems))
    if not selected:
        raise ValueError("no claim selected")
    for tid in selected:
        if tid not in _CHECKERS:
            raise ValueError(f"unknown theorem id {tid!r}")
    ordered = sorted(selected, key=lambda t: int(t[1:]))
    return [(tid, mode) for tid in ordered for mode in THEOREM_MODES[tid]]


def _run(graphs: Sequence[Graph], corpus: str, claims: list) -> list[TheoremVerdict]:
    """The corpus loop of :func:`check` and :func:`check_all`: one verdict
    per (claim, mode) of ``claims``, each evaluated graph by graph.  The
    corpus is shared among one forked worker per CPU, which take slices
    of it as they come free, once there are at least
    ``_GRAPHS_PER_SHARE`` graphs per process; see :func:`_claims_slice`.
    The slices' counts are summed and their kept failures merged in
    witness order, which is total, so the verdicts are the same for any
    process count."""
    count = _shares.share_count(len(graphs), _GRAPHS_PER_SHARE)
    top = max((g.n for g in graphs), default=0)
    table: dict = {}
    slices = _shares.run(_claims_slice, count, len(graphs), graphs, claims, top, table)
    verdicts = []
    for c, (theorem_id, mode) in enumerate(claims):
        skipped = sum(part[c][0] for part in slices)
        failed = sorted(
            (item for part in slices for item in part[c][2]),
            key=lambda item: _witness_order(graphs, item[0]),
        )[:WITNESS_CAP]
        witnesses = tuple(
            Witness(graphs[i].n, graphs[i].edges, explanation, tuple(sorted(details.items())))
            for i, explanation, details in failed
        )
        verdicts.append(TheoremVerdict(
            theorem=theorem_id,
            mode=mode,
            corpus=corpus,
            tested=len(graphs) - skipped,
            skipped=skipped,
            status="COUNTEREXAMPLE" if failed else "HOLDS",
            counterexample_count=sum(part[c][1] for part in slices),
            witnesses=witnesses,
        ))
    return verdicts


def _witness_order(graphs: Sequence[Graph], i: int) -> tuple:
    g = graphs[i]
    return (g.n, g.m, g.edges, i)


def _claims_slice(
    lo: int, hi: int, graphs: Sequence[Graph], claims: list, top: int, table: dict
) -> list[list]:
    """The corpus loop over ``graphs[lo:hi]``, in blocks of ``_BLOCK``
    graphs, with the process's component ``table`` (a forked worker's
    own copy, kept from slice to slice).  The records built for a block
    share that table, and every claim reads them before the next block
    is built.  A connected graph of the corpus's largest order ``top`` is
    its own only component, which no other graph can hold, so its record
    leaves the table with its block.

    Per claim it returns the skipped count, the failure count and the
    first ``WITNESS_CAP`` failures in witness order, as (corpus index,
    explanation, details); each block's new failures are sorted with the
    kept ones and cut back to ``WITNESS_CAP``."""
    tallies = [[0, 0, []] for _ in claims]
    for start in range(lo, hi, _BLOCK):
        block = []
        for i in range(start, min(start + _BLOCK, hi)):
            facts = GraphFacts(graphs[i], table)
            if facts.graph.n == top and len(facts.components) == 1:
                del table[facts.graph]
            block.append((i, facts))
        for (theorem_id, mode), tally in zip(claims, tallies):
            checker, kept = _CHECKERS[theorem_id], tally[2]
            before = len(kept)
            for i, facts in block:
                outcome = checker(facts, mode)
                if outcome == _SKIP:
                    tally[0] += 1
                elif outcome is not None:
                    explanation, details = outcome  # type: ignore[misc]
                    kept.append((i, explanation, details))
            if len(kept) > before:
                tally[1] += len(kept) - before
                kept.sort(key=lambda item: _witness_order(graphs, item[0]))
                del kept[WITNESS_CAP:]
    return tallies


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def report(verdicts: Sequence[TheoremVerdict], fmt: str = "text") -> str:
    """Render verdicts as a versioned JSON document or as a text table
    derived from that same document."""
    doc = {
        "schema": "theorem-report/1",
        "verdicts": [
            v.to_json_dict()
            for v in sorted(verdicts, key=lambda v: (int(v.theorem[1:]), v.mode or ""))
        ],
    }
    if fmt == "json":
        return dump_json(doc)
    if fmt != "text":
        raise ValueError(f"format must be 'text' or 'json', got {fmt!r}")
    lines = []
    header = f"{'theorem':<9}{'mode':<13}{'status':<16}{'tested':>7}{'skipped':>9}  corpus"
    lines.append(header)
    lines.append("-" * len(header))
    for v in doc["verdicts"]:
        lines.append(
            f"{v['theorem']:<9}{(v['mode'] or '-'):<13}{v['status']:<16}"
            f"{v['tested']:>7}{v['skipped']:>9}  {v['corpus']}"
        )
        for w in v["witnesses"]:
            lines.append(f"    counterexample n={w['n']} edges={w['edges']}")
            lines.append(f"      {w['explanation']}")
    return "\n".join(lines) + "\n"
