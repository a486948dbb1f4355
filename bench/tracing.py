"""Tracing from outside the package: wrap public functions of jrainbow in
every module namespace that bound them, and record one span per call.

Nothing inside ``src/`` is changed.  A wrapper looks the original up once,
so every call that goes through a module global (``check_all`` calling
``check``, ``jc_number`` calling ``j_number``) is seen; calls through a
reference taken before :meth:`Tracer.install` (a dict built at import
time, a closure) are not.

Spans are kept in flat arrays and written out by :meth:`Tracer.write`.
Each span has a name, a parent span id (-1 for a root), a start and an
end in seconds since the tracer was made, and its busy time.  For a plain
function busy time is end - start.  A generator gets one span for its
whole life, but only the time spent inside ``next()`` is busy: time its
consumer spends between two items belongs to the consumer.  Self time is
busy time minus the busy time of the spans nested inside it.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from pathlib import Path

# (module, function, kind); kind "gen" marks generator functions whose
# yields are counted.  The span name is "<module>.<function>", except that
# _search_colourings is "colouring.search" and theorems.check is named per
# (claim, mode), as "theorems.T10-exists".
TARGETS = (
    ("families", "enumerate_graphs", "fn"),
    ("families", "canonical_form", "fn"),
    ("graphs", "decompose", "fn"),
    ("graphs", "simple_cycle_lengths", "fn"),
    ("colouring", "_search_colourings", "gen"),
    ("colouring", "enumerate_proper_colourings", "gen"),
    ("colouring", "chromatic_number", "fn"),
    ("colouring", "convention_colouring", "fn"),
    ("neighbourhoods", "rainbow_neighbourhood_number", "fn"),
    ("jcolouring", "j_number", "fn"),
    ("jcolouring", "j_star_number", "fn"),
    ("jcolouring", "enumerate_j_colourings", "gen"),
    ("connectivity", "rainbow_path_exists", "fn"),
    ("connectivity", "is_chi_rainbow_connected", "fn"),
    ("connectivity", "is_jc_rainbow_connected", "fn"),
    ("connectivity", "min_rainbow_path_lengths", "fn"),
    ("theorems", "check", "fn"),
    ("analysis", "analyse_graph", "fn"),
    ("analysis", "dump_json", "fn"),
    ("io", "read_graph", "fn"),
    ("cli", "main", "fn"),
)

RENAMED = {("colouring", "_search_colourings"): "colouring.search"}

# lru_cache-wrapped solvers whose cache_info() is read for misses
CACHED = (("jcolouring", "j_number"), ("jcolouring", "j_star_number"))


def _check_span_name(theorem_id: str, graphs=None, corpus: str = "", mode=None, workers: int = 1) -> str:
    """Span name of one ``theorems.check`` call: one per (claim, mode)."""
    return f"theorems.{theorem_id}" + (f"-{mode}" if mode else "")


class _Stats:
    __slots__ = ("calls", "inclusive", "self_time", "yielded", "found", "active")

    def __init__(self) -> None:
        self.calls = 0
        self.inclusive = 0.0
        self.self_time = 0.0
        self.yielded = 0
        self.found = 0
        self.active = 0  # open frames of this name, so recursion counts once


class Tracer:
    """Span recorder.  Single-threaded: the benchmark worker runs the
    package in one thread, so one frame stack is enough."""

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.stats: dict[str, _Stats] = {}
        # one entry per span
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_busy = array("d")
        # open frames: [span id, name, child busy time]
        self._stack: list[list] = []
        self._installed: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------
    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.stats[name] = _Stats()
        return nid

    def _open(self, name: str, start: float) -> int:
        sid = len(self.span_name)
        self.span_name.append(self._name_id(name))
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_start.append(start - self.origin)
        self.span_end.append(0.0)
        self.span_busy.append(0.0)
        self.stats[name].calls += 1
        return sid

    def _enter(self, sid: int, name: str) -> None:
        self._stack.append([sid, name, 0.0])
        self.stats[name].active += 1

    def _leave(self, sid: int, name: str, start: float, end: float) -> None:
        frame = self._stack.pop()
        busy = end - start
        st = self.stats[name]
        st.active -= 1
        st.self_time += busy - frame[2]
        if st.active == 0:
            st.inclusive += busy
        if self._stack:
            self._stack[-1][2] += busy
        self.span_end[sid] = end - self.origin
        self.span_busy[sid] += busy

    def wrap_function(self, fn, name: str, namer=None):
        tracer = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = namer(*args, **kwargs) if namer else name
            start = clock()
            sid = tracer._open(span, start)
            tracer._enter(sid, span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._leave(sid, span, start, clock())
            if result is not None:
                tracer.stats[span].found += 1
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def wrap_generator(self, fn, name: str):
        tracer = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            sid = None
            try:
                while True:
                    start = clock()
                    if sid is None:
                        sid = tracer._open(name, start)
                    tracer._enter(sid, name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer._leave(sid, name, start, clock())
                    tracer.stats[name].yielded += 1
                    yield item
            finally:
                inner.close()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- installation --------------------------------------------------
    def install(self) -> None:
        """Replace every target, in every loaded jrainbow module that
        holds it, by its traced wrapper."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if (key == "jrainbow" or key.startswith("jrainbow.")) and m is not None]
        for mod_name, fn_name, kind in TARGETS:
            home = importlib.import_module(f"jrainbow.{mod_name}")
            original = getattr(home, fn_name)
            name = RENAMED.get((mod_name, fn_name), f"{mod_name}.{fn_name}")
            if kind == "gen":
                wrapper = self.wrap_generator(original, name)
            elif (mod_name, fn_name) == ("theorems", "check"):
                wrapper = self.wrap_function(original, name, namer=_check_span_name)
            else:
                wrapper = self.wrap_function(original, name)
            self._name_id(name)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._installed.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._installed):
            setattr(mod, attr, original)
        self._installed.clear()

    # -- results ---------------------------------------------------------
    def summary(self) -> dict:
        """Per-name calls, inclusive seconds, self seconds, yields and
        non-None results."""
        return {
            name: {"calls": st.calls, "s": st.inclusive, "self_s": st.self_time,
                   "yielded": st.yielded, "found": st.found}
            for name, st in self.stats.items()
        }

    def write(self, path: Path) -> None:
        """Write the spans: a JSON header line, then the five arrays back
        to back in native byte order (int32 name, int32 parent, float64
        start, end and busy seconds)."""
        if self._stack:
            raise RuntimeError("spans still open at write time")
        header = {
            "names": self.names,
            "count": len(self.span_name),
            "layout": ["name:i4", "parent:i4", "start:f8", "end:f8", "busy:f8"],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_start,
                        self.span_end, self.span_busy):
                arr.tofile(fh)


def cache_info() -> dict:
    """cache_info() of the cached solvers, read from the unwrapped
    lru_cache objects."""
    out = {}
    for mod_name, fn_name in CACHED:
        fn = getattr(importlib.import_module(f"jrainbow.{mod_name}"), fn_name)
        while not hasattr(fn, "cache_info"):  # look through a traced wrapper
            fn = fn.__wrapped__
        info = fn.cache_info()
        out[f"{mod_name}.{fn_name}"] = {"hits": info.hits, "misses": info.misses,
                                        "currsize": info.currsize}
    return out
