"""The benchmark's tracer (bench/tracing.py) finds package functions by
name, so a function it names must not vanish from the package unnoticed.
The tracer file is parsed here, never imported or run."""

import ast
import importlib
import inspect
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing_literal(name: str):
    """The literal value bench/tracing.py assigns to the module-level
    ``name``."""
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == name for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACING} assigns no {name}")


def _resolve(module: str, function: str):
    return getattr(importlib.import_module(f"jrainbow.{module}"), function, None)


def test_every_traced_function_resolves_on_the_package():
    # a "gen" target is wrapped as a generator, a "fn" target as a call;
    # the lru_cache solvers have their cache_info() read on every run
    wrong = [
        f"{module}.{function}"
        for module, function, kind in _tracing_literal("TARGETS")
        if not callable(_resolve(module, function))
        or inspect.isgeneratorfunction(_resolve(module, function)) != (kind == "gen")
    ]
    uncached = [
        f"{module}.{function}"
        for module, function in _tracing_literal("CACHED")
        if not hasattr(_resolve(module, function), "cache_info")
    ]
    assert not wrong and not uncached, (wrong, uncached)
