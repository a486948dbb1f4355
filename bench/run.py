"""jrainbow benchmark: runs one workload (or all of them), checks the
outputs, and prints every metric by name with its unit.

    python3 bench/run.py --workload check-n7 --seed 1 --seconds 34 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 34

Run it from the repository root.  Every repetition runs in its own
interpreter (bench/worker.py), so the module-level caches of jrainbow
start cold each time.  With --trace 0 the last line of stdout is a JSON
object with the end-to-end metrics; with --trace 1 it has the per-layer
metrics of a traced run and the tracing overhead.  A record with the
machine, Python version, git sha, command and each metric's median,
quartiles and sample count is written to --record.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
DEADLINE_S = 170.0  # a run must end within 180 s
SETUP_SAMPLES = 5

ALL_MODES = {
    "T1": [None], "T2": ["convention", "exists-max"], "T3": [None], "T4": [None],
    "T5": [None], "T6": [None], "T7": [None], "T8": [None],
    "T9": ["parse-a", "parse-b"], "T10": ["convention", "exists"],
}

WORKLOADS = {
    "check-n7": {"kind": "corpus", "max_n": 7, "theorems": "all"},
    "corpus-n8": {"kind": "corpus", "max_n": 8, "theorems": "T1,T3,T4,T5,T6"},
    "analyze-single": {"kind": "analyze"},
}

# analyze-single: family instances with closed forms, then random regular
# graphs of these (order, degree) shapes, three rounds
FAMILIES = (
    ("complete", (9,)),
    ("wheel", (12,)),
    ("cycle", (15,)),
    ("complete_multipartite", (2, 3, 4)),
    ("forest_union", (1, 2, 3, 7)),
)
RANDOM_SHAPES = ((10, 3), (11, 4), (12, 3), (10, 4), (12, 4)) * 3

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("graph_checks_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


def _per_layer() -> list[tuple[str, str, str, str]]:
    """(metric, unit, span name, field) of every per-layer metric."""
    rows = [
        ("families.enumerate_graphs.s", "families.enumerate_graphs", "s"),
        ("families.canonical_form.calls", "families.canonical_form", "calls"),
        ("families.canonical_form.s", "families.canonical_form", "s"),
        ("connectivity.rainbow_path_exists.calls", "connectivity.rainbow_path_exists", "calls"),
        ("connectivity.rainbow_path_exists.found", "connectivity.rainbow_path_exists", "found"),
        ("connectivity.rainbow_path_exists.found_ratio", "connectivity.rainbow_path_exists",
         "found_ratio"),
        ("connectivity.rainbow_path_exists.s", "connectivity.rainbow_path_exists", "s"),
        ("connectivity.rainbow_path_exists.self_s", "connectivity.rainbow_path_exists", "self_s"),
        ("connectivity.is_chi_rainbow_connected.s", "connectivity.is_chi_rainbow_connected", "s"),
        ("connectivity.is_jc_rainbow_connected.s", "connectivity.is_jc_rainbow_connected", "s"),
        ("connectivity.min_rainbow_path_lengths.s", "connectivity.min_rainbow_path_lengths", "s"),
        ("colouring.search.assignments", "colouring.search", "yielded"),
        ("colouring.search.s", "colouring.search", "s"),
        ("colouring.enumerate_proper_colourings.yielded",
         "colouring.enumerate_proper_colourings", "yielded"),
        ("colouring.chromatic_number.calls", "colouring.chromatic_number", "calls"),
        ("colouring.chromatic_number.s", "colouring.chromatic_number", "s"),
        ("colouring.convention_colouring.s", "colouring.convention_colouring", "s"),
        ("neighbourhoods.rainbow_neighbourhood_number.calls",
         "neighbourhoods.rainbow_neighbourhood_number", "calls"),
        ("neighbourhoods.rainbow_neighbourhood_number.s",
         "neighbourhoods.rainbow_neighbourhood_number", "s"),
        ("jcolouring.j_number.calls", "jcolouring.j_number", "calls"),
        ("jcolouring.j_number.misses", "jcolouring.j_number", "misses"),
        ("jcolouring.j_number.s", "jcolouring.j_number", "s"),
        ("jcolouring.j_star_number.calls", "jcolouring.j_star_number", "calls"),
        ("jcolouring.j_star_number.misses", "jcolouring.j_star_number", "misses"),
        ("jcolouring.j_star_number.s", "jcolouring.j_star_number", "s"),
        ("jcolouring.enumerate_j_colourings.yielded", "jcolouring.enumerate_j_colourings",
         "yielded"),
        ("graphs.decompose.calls", "graphs.decompose", "calls"),
        ("graphs.decompose.s", "graphs.decompose", "s"),
        ("graphs.simple_cycle_lengths.s", "graphs.simple_cycle_lengths", "s"),
    ]
    rows += [(f"theorems.{t}{'-' + m if m else ''}.s", f"theorems.{t}{'-' + m if m else ''}", "s")
             for t, modes in ALL_MODES.items() for m in modes]
    rows += [
        ("analysis.analyse_graph.s", "analysis.analyse_graph", "s"),
        ("analysis.dump_json.s", "analysis.dump_json", "s"),
        ("io.read_graph.s", "io.read_graph", "s"),
        ("cli.main.s", "cli.main", "s"),
    ]
    units = {"s": "s", "self_s": "s", "found_ratio": "ratio"}
    return [(name, units.get(field, "count"), span, field) for name, span, field in rows]


PER_LAYER = _per_layer()


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def family_edges(kind: str, params: tuple[int, ...]) -> tuple[int, list[tuple[int, int]]]:
    """Labelled family instance: order and edge list."""
    if kind == "complete":
        n = params[0]
        return n, [(u, v) for u in range(n) for v in range(u + 1, n)]
    if kind == "cycle":
        n = params[0]
        return n, [(i, (i + 1) % n) for i in range(n)]
    if kind == "wheel":
        n = params[0]
        rim = list(range(1, n))
        return n, [(0, v) for v in rim] + [(v, rim[i % len(rim)]) for i, v in enumerate(rim, 1)]
    if kind == "complete_multipartite":
        blocks, start = [], 0
        for size in params:
            blocks.append(range(start, start + size))
            start += size
        return start, [(u, v) for a in range(len(blocks)) for b in range(a + 1, len(blocks))
                       for u in blocks[a] for v in blocks[b]]
    if kind == "forest_union":
        edges, start = [], 0
        for k in params:
            edges += [(start + i, start + i + 1) for i in range(k - 1)]
            start += k
        return start, edges
    raise ValueError(kind)


def random_regular(n: int, d: int, rng: random.Random) -> list[tuple[int, int]]:
    """Uniform simple d-regular graph on n vertices by the pairing model,
    redrawing until the pairing has no loop and no repeated edge."""
    while True:
        points = [v for v in range(n) for _ in range(d)]
        rng.shuffle(points)
        edges = {tuple(sorted(points[i:i + 2])) for i in range(0, len(points), 2)}
        if len(edges) == n * d // 2 and all(u != v for u, v in edges):
            return sorted(edges)


def analyze_inputs(seed: int, folder: Path) -> list[dict]:
    """Write the analyze-single graphs as edge-list files."""
    items = []
    for kind, params in FAMILIES:
        n, edges = family_edges(kind, params)
        items.append({"name": f"{kind}{list(params)}", "n": n, "edges": edges,
                      "family": {"kind": kind, "params": list(params)}})
    rng = random.Random(seed)
    for i, (n, d) in enumerate(RANDOM_SHAPES):
        items.append({"name": f"random{i}-n{n}-d{d}", "n": n, "edges": random_regular(n, d, rng)})
    folder.mkdir(parents=True)
    for i, item in enumerate(items):
        path = folder / f"g{i:02d}.edges"
        lines = [f"{item['n']} {len(item['edges'])}"] + [f"{u} {v}" for u, v in item["edges"]]
        path.write_text("\n".join(lines) + "\n")
        item["path"] = str(path)
    return items


def expected_verdicts(theorems: str) -> list[tuple[str, str | None]]:
    ids = list(ALL_MODES) if theorems == "all" else theorems.split(",")
    return [(t, m) for t in ids for m in ALL_MODES[t]]


# ---------------------------------------------------------------------------
# Repetitions
# ---------------------------------------------------------------------------

class Runner:
    """Spawns worker repetitions of one workload and keeps their results."""

    def __init__(self, name: str, seed: int, work: Path, started: float) -> None:
        self.wl = WORKLOADS[name]
        self.work = work
        self.started = started
        self.items = analyze_inputs(seed, work / "inputs") if self.wl["kind"] == "analyze" else []
        self.reps: list[dict] = []
        self.spawned = 0

    def ops(self) -> int:
        if self.wl["kind"] == "corpus":
            return len(expected_verdicts(self.wl["theorems"]))
        return len(self.items)

    def run(self, *, trace: bool = False, setup_only: bool = False, kind: str | None = None) -> dict:
        self.spawned += 1
        rep_dir = self.work / f"rep{self.spawned:02d}"
        rep_dir.mkdir()
        spec = {
            "kind": kind or self.wl["kind"],
            "trace": trace,
            "setup_only": setup_only,
            "max_n": self.wl.get("max_n"),
            "theorems": self.wl.get("theorems"),
            "inputs": [item["path"] for item in self.items],
            "dump_corpus": False,
            "result": str(rep_dir / "result.json"),
            "spans": str(rep_dir / "spans.bin"),
        }
        if spec["kind"] == "corpus":
            spec["outputs"] = [str(rep_dir / "report.json")]
            spec["dump_corpus"] = not setup_only and not any(r.get("corpus") for r in self.reps)
        else:
            spec["outputs"] = [[str(rep_dir / f"doc{i:02d}.json"), str(rep_dir / f"paths{i:02d}.json")]
                               for i in range(len(self.items))]
        spec_path = rep_dir / "spec.json"
        spec_path.write_text(json.dumps(spec))
        env = dict(os.environ, PYTHONHASHSEED="0")
        env.pop("PYTHONPATH", None)
        budget = max(5.0, DEADLINE_S - (time.perf_counter() - self.started))
        rep = {"trace": trace, "setup_only": setup_only, "spec": spec, "ok": False}
        began = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), str(spec_path)],
                                  cwd=ROOT, env=env, timeout=budget,
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        except subprocess.TimeoutExpired:
            rep["error"] = f"timed out after {budget:.0f} s"
        else:
            if proc.returncode == 0:
                rep.update(json.loads(Path(spec["result"]).read_text()))
                rep["ok"] = True
            else:
                rep["error"] = proc.stderr.strip().splitlines()[-1:] or [f"exit {proc.returncode}"]
        rep["rep_s"] = time.perf_counter() - began
        if kind is None:
            self.reps.append(rep)
        return rep

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def full(self, trace: bool) -> list[dict]:
        return [r for r in self.reps if not r["setup_only"] and r["trace"] == trace]

    # -- outputs of one repetition -------------------------------------------
    def outputs(self, rep: dict) -> list:
        """Parsed outputs per operation; None where the operation failed."""
        if not rep["ok"]:
            return [None] * self.ops()
        if self.wl["kind"] == "corpus":
            path = Path(rep["spec"]["outputs"][0])
            if rep["exit_codes"] != [0] or not path.exists():
                return [None] * self.ops()
            doc = json.loads(path.read_text())
            got = {(v["theorem"], v["mode"]): v for v in doc["verdicts"]}
            return [got.get(key) for key in expected_verdicts(self.wl["theorems"])]
        out = []
        for code, (doc_path, paths_path) in zip(rep["exit_codes"], rep["spec"]["outputs"]):
            ok = code == 0 and Path(doc_path).exists() and Path(paths_path).exists()
            out.append((json.loads(Path(doc_path).read_text()),
                        json.loads(Path(paths_path).read_text())) if ok else None)
        return out

    def work_done(self, rep: dict) -> int:
        """Graph checks of one repetition: tested + skipped over every
        verdict, or graphs analysed."""
        outs = [o for o in self.outputs(rep) if o is not None]
        if self.wl["kind"] == "corpus":
            return sum(v["tested"] + v["skipped"] for v in outs)
        return len(outs)


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def run_checks(runner: Runner) -> list[str]:
    """Independent output checks and the planted-error self-test, on the
    first repetition with output; every other repetition must produce the
    same outputs."""
    import checks

    errors = []
    for rep in runner.reps:
        if rep["ok"]:
            for fn, info in rep["cache_info_start"].items():
                if info != {"hits": 0, "misses": 0, "currsize": 0}:
                    errors.append(f"rep started with a warm {fn} cache: {info}")
    full = [r for r in runner.reps if r["ok"] and not r["setup_only"]]
    if not full:
        return errors + ["no repetition produced output"]
    outs = [runner.outputs(r) for r in full]
    first = outs[0]
    for other in outs[1:]:
        for a, b in zip(first, other):
            if a is not None and b is not None and a != b:
                errors.append("repetitions disagree on an output")
                break
    wl = runner.wl
    if wl["kind"] == "corpus":
        corpus = next((r["corpus"] for r in full if r.get("corpus")), None)
        if corpus is None:
            return errors + ["no repetition wrote the corpus"]
        max_n = wl["max_n"]
        expected = expected_verdicts(wl["theorems"])
        doc = {"verdicts": [v for v in first if v is not None]}
        conv = any(m == "convention" for _, m in expected)
        infeasible = checks.convention_infeasible_count(corpus) if conv else None
        errors += checks.check_corpus(corpus, max_n)
        errors += checks.check_atlas(corpus)
        present = [k for k, v in zip(expected, first) if v is not None]
        errors += checks.check_report(doc, present, len(corpus), infeasible)
        missed = checks.self_test_corpus(doc, corpus, max_n, present, len(corpus), infeasible)
    else:
        items, docs, paths = [], [], []
        for item, out in zip(runner.items, first):
            if out is not None:
                items.append(item)
                docs.append(out[0])
                paths.append(out[1])
                errors += checks.check_analysis(item, out[0], out[1])
        missed = checks.self_test_analysis(items, docs, paths)
    errors += [f"self-test: planted error not caught: {m}" for m in missed]
    traced = [r for r in runner.full(trace=True) if r["ok"]]
    if any(_counts(r) != _counts(traced[0]) for r in traced):
        errors.append("traced repetitions disagree on a count")
    return errors


def _counts(rep: dict) -> dict:
    return {name: value for name, unit, value in _layer_values(rep) if unit == "count"}


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def summarise(samples: list[float]) -> dict:
    if len(samples) >= 2:
        q1, median, q3 = statistics.quantiles(samples, n=4)
        median = statistics.median(samples)
    else:
        q1 = median = q3 = samples[0]
    return {"median": median, "q1": q1, "q3": q3, "samples": len(samples)}


def end_to_end(runner: Runner) -> dict[str, dict]:
    full = [r for r in runner.full(trace=False) if r["ok"]]
    setups = [r["setup_s"] for r in runner.reps if r["ok"] and not r["trace"]]
    series = {
        "wall_s": [r["wall_s"] for r in full],
        "setup_s": setups,
        "solve_s": [r["solve_s"] for r in full],
        "graph_checks_per_s": [runner.work_done(r) / r["solve_s"] for r in full],
        "peak_rss_mb": [r["peak_rss_mb"] for r in full],
    }
    return {name: dict(summarise(series[name]), unit=unit) for name, unit in END_TO_END
            if series[name]}


def _layer_values(rep: dict) -> list[tuple[str, str, float]]:
    trace = rep["spans_summary"]
    out = []
    for name, unit, span, field in PER_LAYER:
        if field == "misses":
            value = rep["cache_info_end"][span]["misses"] - rep["cache_info_start"][span]["misses"]
        elif field == "found_ratio":
            stats = trace.get(span, {})
            value = stats["found"] / stats["calls"] if stats.get("calls") else 0.0
        else:
            value = trace.get(span, {}).get(field, 0)
        out.append((name, unit, value))
    return out


def per_layer(runner: Runner) -> dict[str, dict]:
    traced = [r for r in runner.full(trace=True) if r["ok"]]
    untraced = [r for r in runner.full(trace=False) if r["ok"]]
    if not traced:
        return {}
    table: dict[str, dict] = {}
    for name, unit, _, _ in PER_LAYER:
        values = [dict((n, v) for n, _, v in _layer_values(r))[name] for r in traced]
        table[name] = dict(summarise(values), unit=unit)
    walls = [r["wall_s"] for r in traced]
    table["trace.wall_s"] = dict(summarise(walls), unit="s")
    if untraced:
        over = statistics.median(walls) - statistics.median(r["wall_s"] for r in untraced)
        table["trace.overhead_s"] = dict(summarise([over]), unit="s")
    return table


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------

def _another(elapsed: float, reps: list[dict], seconds: int) -> bool:
    """Whether to start one more full repetition.  A run makes whole
    repetitions, as many as bring its measured time nearest to `seconds`:
    it starts another unless that one, at the median length so far, would
    end more than half a repetition past `seconds`."""
    typical = statistics.median(r["rep_s"] for r in reps)
    return elapsed + typical / 2 < seconds


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    started = time.perf_counter()
    work = OUT / f"{name}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(name, seed, work, started)
    runner.run(kind="import")  # compile bytecode once, as an installed package has it

    t0 = runner.elapsed()
    if trace:
        runner.run(trace=False)
        runner.run(trace=True)
        while _another(runner.elapsed() - t0, runner.full(trace=True), seconds):
            runner.run(trace=True)
    else:
        runner.run()
        while _another(runner.elapsed() - t0, runner.full(trace=False), seconds):
            runner.run()
        # more set-up samples, where they are cheap next to the run length
        setups = [r["setup_s"] for r in runner.reps if r["ok"]]
        missing = SETUP_SAMPLES - len(setups)
        if setups and statistics.median(setups) * missing <= seconds / 2:
            for _ in range(missing):
                runner.run(setup_only=True)

    attempted = failed = 0
    for rep in runner.reps:
        if not rep["setup_only"]:
            outs = runner.outputs(rep)
            attempted += len(outs)
            failed += sum(o is None for o in outs)
    errors = run_checks(runner)
    metrics = per_layer(runner) if trace else end_to_end(runner)
    return {
        "workload": name,
        "trace": trace,
        "correct": not errors,
        "errors": errors,
        "attempted": attempted,
        "failed": failed,
        "rep_errors": [r["error"] for r in runner.reps if not r["ok"]],
        "metrics": metrics,
        "elapsed_s": runner.elapsed(),
    }


def print_result(res: dict) -> None:
    label = f"{res['workload']} ({'traced' if res['trace'] else 'untraced'})"
    print(f"== {label}: {res['attempted']} operations attempted, {res['failed']} failed, "
          f"checks {'passed' if res['correct'] else 'FAILED'}, {res['elapsed_s']:.1f} s")
    for err in res["errors"][:20] + res["rep_errors"][:5]:
        print(f"   error: {err}")
    for name, m in res["metrics"].items():
        print(f"   {name:<52} {m['median']:>14.6g} {m['unit']:<6} "
              f"(q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n={m['samples']})")


def machine() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "platform": platform.platform()}


def git_sha() -> str | None:
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=34)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", default=str(OUT / "record.json"),
                        help="where to write the JSON record of this run")
    args = parser.parse_args(argv)
    for needed in (ROOT / "src" / "jrainbow" / "__init__.py", ROOT / "tests" / "oracles.py"):
        if not needed.is_file():
            print(f"error: {needed.relative_to(ROOT)} not found; run from a jrainbow checkout",
                  file=sys.stderr)
            return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(BENCH)]

    if args.workload == "all":
        plan = [(w, t) for w in WORKLOADS for t in (False, True)]
    else:
        plan = [(args.workload, bool(args.trace))]
    results = []
    for name, trace in plan:
        res = run_workload(name, args.seed, args.seconds, trace)
        print_result(res)
        results.append(res)

    record = {
        "schema": "jrainbow-bench/1",
        "machine": machine(),
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "command": [Path(sys.executable).name, "bench/run.py", *(argv or sys.argv[1:])],
        "seed": args.seed,
        "seconds": args.seconds,
        "runs": results,
    }
    Path(args.record).parent.mkdir(parents=True, exist_ok=True)
    Path(args.record).write_text(json.dumps(record, indent=2) + "\n")

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {k: {"value": v["median"], "unit": v["unit"]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
