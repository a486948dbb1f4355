"""The benchmark's tracer (bench/tracing.py) finds package functions by
name, so a function it names must not vanish from the package unnoticed.
The benchmark runner (bench/run.py) and its output checks
(bench/checks.py) list every claim and mode, so a claim or mode added to
the package alone fails here.  The tracer and runner files are parsed
here, never imported or run; the checks file is loaded by path.  The
call counter the search-effort tests use is checked here too, and so is
that importing the package loads no process pool."""

import ast
import importlib
import inspect
import os
import subprocess
import sys

from jrainbow.theorems import THEOREM_IDS, THEOREM_MODES

from conftest import BENCH, bench_module, count_calls


def _bench_literal(file: str, name: str):
    """The literal value bench/<file> assigns to the module-level
    ``name``."""
    path = BENCH / file
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == name for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{path} assigns no {name}")


def _resolve(module: str, function: str):
    return getattr(importlib.import_module(f"jrainbow.{module}"), function, None)


def test_every_traced_function_resolves_on_the_package():
    # a "gen" target is wrapped as a generator, a "fn" target as a call;
    # the lru_cache solvers have their cache_info() read on every run
    wrong = [
        f"{module}.{function}"
        for module, function, kind in _bench_literal("tracing.py", "TARGETS")
        if not callable(_resolve(module, function))
        or inspect.isgeneratorfunction(_resolve(module, function)) != (kind == "gen")
    ]
    uncached = [
        f"{module}.{function}"
        for module, function in _bench_literal("tracing.py", "CACHED")
        if not hasattr(_resolve(module, function), "cache_info")
    ]
    assert not wrong and not uncached, (wrong, uncached)


def test_the_benchmark_lists_every_claim_and_mode():
    modes = {t: tuple(m) for t, m in _bench_literal("run.py", "ALL_MODES").items()}
    assert modes == THEOREM_MODES
    assert tuple(bench_module("checks").REFUTERS) == THEOREM_IDS


def _three_items():
    yield from range(3)
    yield 3


def test_count_calls_counts_a_resumed_generator_once():
    # the profiler reports each resumption and the close as a call
    def draw_three_then_close():
        items = _three_items()
        drawn = [next(items) for _ in range(3)]
        items.close()
        return drawn

    drawn, calls = count_calls(sys.modules[__name__], "_three_items", draw_three_then_close)
    assert (drawn, calls) == ([0, 1, 2], 1)


def test_importing_the_package_loads_no_process_pool():
    # the pool's modules are imported only when a stage forks workers, so
    # runs that never fork, such as check --max-n 7 and analyze, keep the
    # peak memory they had without them
    src = str(BENCH.parent / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    probe = (
        "import sys, jrainbow, jrainbow.cli; "
        "print(sorted(m for m in sys.modules "
        "if m.partition('.')[0] == 'multiprocessing' or m.startswith('concurrent')))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"
