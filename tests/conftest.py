from __future__ import annotations

import sys

import pytest

from jrainbow import FamilySpec, Graph, enumerate_graphs, generate


def family(kind: str, *params: int, parts=()) -> Graph:
    return generate(FamilySpec(kind, tuple(params), parts=tuple(parts)))


def union(*specs: FamilySpec) -> Graph:
    return generate(FamilySpec("disjoint_union", parts=tuple(specs)))


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


@pytest.fixture(scope="session")
def all_graphs_to_5() -> list[Graph]:
    return [g for n in range(1, 6) for g in enumerate_graphs(n)]


@pytest.fixture(scope="session")
def all_graphs_to_6() -> list[Graph]:
    return [g for n in range(1, 7) for g in enumerate_graphs(n)]


@pytest.fixture(scope="session")
def connected_to_6() -> list[Graph]:
    return [g for n in range(1, 7) for g in enumerate_graphs(n, connected_only=True)]
