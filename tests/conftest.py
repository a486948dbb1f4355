from __future__ import annotations

import importlib.util
import sys
from functools import cache
from pathlib import Path

import pytest

from jrainbow import FamilySpec, Graph, _shares, enumerate_graphs, generate


def family(kind: str, *params: int, parts=()) -> Graph:
    return generate(FamilySpec(kind, tuple(params), parts=tuple(parts)))


def union(*specs: FamilySpec) -> Graph:
    return generate(FamilySpec("disjoint_union", parts=tuple(specs)))


BENCH = Path(__file__).resolve().parent.parent / "bench"


@cache
def bench_module(name: str):
    """The module bench/<name>.py, loaded by path so that bench/ stays off
    sys.path; loaded once per session."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def count_calls(module, name: str, run):
    """The result of ``run()`` and how many calls it made to Python
    functions named ``name`` defined in ``module``, nested ones included.
    The profiler reports every resumption of a generator as a call, so
    frames are counted, not those events; each counted frame is held
    until the run ends, so no later frame can reuse its id."""
    frames = {}

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_name == name and code.co_filename == module.__file__:
            frames[id(frame)] = frame

    sys.setprofile(profile)
    try:
        result = run()
    finally:
        sys.setprofile(None)
    return result, len(frames)


@pytest.fixture
def one_process(monkeypatch):
    """Keep every corpus stage in the calling process, for tests that count
    work done there: on more than one CPU, the claim stage of n <= 7 and
    the enumeration of order 7 run in forked workers."""
    monkeypatch.setattr(_shares, "cpus", lambda: 1)


@pytest.fixture(scope="session")
def all_graphs_to_5() -> list[Graph]:
    return [g for n in range(1, 6) for g in enumerate_graphs(n)]


@pytest.fixture(scope="session")
def all_graphs_to_6() -> list[Graph]:
    return [g for n in range(1, 7) for g in enumerate_graphs(n)]


@pytest.fixture(scope="session")
def connected_to_6() -> list[Graph]:
    return [g for n in range(1, 7) for g in enumerate_graphs(n, connected_only=True)]
