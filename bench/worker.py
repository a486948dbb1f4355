"""One repetition of one workload, in a fresh interpreter.

Usage: python3 bench/worker.py SPEC.json

SPEC names the workload, the input and output paths, and whether to
trace.  The worker times set-up and solve, then (outside the timed
region) writes what the checks need to SPEC["result"].  Nothing of
jrainbow is imported before the clock starts, so import cost counts as
set-up, as it does for a user.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

T0 = time.perf_counter()

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(Path(__file__).resolve().parent))


def main(spec_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text())
    kind = spec["kind"]

    import jrainbow
    import jrainbow.cli
    from tracing import Tracer, cache_info

    if not Path(jrainbow.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"jrainbow imported from {jrainbow.__file__}, not from {ROOT / 'src'}")
    cold = cache_info()
    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        tracer.install()
    families = sys.modules["jrainbow.families"]
    io = sys.modules["jrainbow.io"]

    # set-up: what a user pays before any claim or analysis runs
    if kind == "corpus":
        for n in range(1, spec["max_n"] + 1):
            families.enumerate_graphs(n)
    elif kind == "analyze":
        for path in spec["inputs"]:
            io.read_graph(path)
    T1 = time.perf_counter()

    exit_codes: list[int] = []
    if spec["setup_only"] or kind == "import":
        pass
    elif kind == "corpus":
        exit_codes.append(jrainbow.cli.main([
            "check", "--max-n", str(spec["max_n"]), "--theorems", spec["theorems"],
            "--json", spec["outputs"][0],
        ]))
    else:
        for path, (doc_out, paths_out) in zip(spec["inputs"], spec["outputs"]):
            code = jrainbow.cli.main(["analyze", path, "--json", doc_out])
            if code == 0:
                code = jrainbow.cli.main(["rainbow", path, "--all-pairs", "--json", paths_out])
            exit_codes.append(code)
    T2 = time.perf_counter()
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {
        "setup_s": T1 - T0,
        "solve_s": T2 - T1,
        "wall_s": T2 - T0,
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "exit_codes": exit_codes,
        "cache_info_start": cold,
    }
    if tracer is not None:
        tracer.uninstall()
        result["cache_info_end"] = cache_info()
        result["spans_summary"] = tracer.summary()
        tracer.write(Path(spec["spans"]))
    if spec["dump_corpus"]:
        corpus = []
        for n in range(1, spec["max_n"] + 1):
            corpus.extend([g.n, [list(e) for e in g.edges]] for g in families.enumerate_graphs(n))
        result["corpus"] = corpus
    Path(spec["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])
