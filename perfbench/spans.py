"""Span tracing of keikit from outside the package.

Tracing rebinds each traced public function in every keikit module that
holds it, so calls through `from .folding import encode_kei` in iso and
through `folding.classify` in cli are both caught.  Spans (id, parent,
name, start, end) are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import sys
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

# Public functions traced per module.  "Class.method" wraps a classmethod;
# a bare class name wraps its constructor.
TRACED = {
    "textio": ("read_row_block",),
    "magma": (
        "Magma.from_text",
        "classify",
        "check_axiom_ld",
        "check_axiom_unique_left_division",
        "check_axiom_idempotent",
        "check_axiom_involutory",
    ),
    "digraph": ("enumerate_digraphs", "find_graph_isomorphism", "is_graph_isomorphism"),
    "folding": ("encode_kei", "derive_dynamical_quandle", "detect_folded", "decode_graph"),
    "iso": ("reduction_check", "magma_iso_search", "magma_iso_bruteforce", "is_magma_isomorphism"),
    "groups": ("FiniteGroup",),
    "sigma": ("check_sigma_identities", "check_sigma_implies_ld"),
    "cli": ("main",),
}

SEARCH = "iso.magma_iso_search"
CLASSIFY = "magma.classify"
ENCODE = "folding.encode_kei"
GLUE = "bench.pass"


class Tracer:
    """Records nested spans of one single-threaded process."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.found = 0
        self.classify_peak_mb = 0.0
        self._stack: list[int] = []
        self._next_id = 0

    def _open(self) -> tuple[int, int]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid: int, parent: int, name: str, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans.append((sid, parent, name, start, end))

    @contextmanager
    def span(self, name: str):
        sid, parent = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(sid, parent, name, start)

    def wrap(self, name: str, fn):
        eager = inspect.isgeneratorfunction(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = self._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                # Every caller lists the generator at once, so running it
                # inside the span times its work without changing results.
                return iter(list(result)) if eager else result
            finally:
                self._close(sid, parent, name, start)

        return traced


def _count_found(tracer: Tracer, fn):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        result = fn(*args, **kwargs)
        tracer.found += result is not None
        return result

    return counted


def _measure_peak(tracer: Tracer, fn):
    @functools.wraps(fn)
    def measured(*args, **kwargs):
        tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            peak = tracemalloc.get_traced_memory()[1] / 2**20
            tracemalloc.stop()
            tracer.classify_peak_mb = max(tracer.classify_peak_mb, peak)

    return measured


def install(tracer: Tracer) -> dict[str, object]:
    """Wrap every function in TRACED; return the originals by span name.

    A name missing from the package is skipped with a note on stderr,
    so the benchmark still runs against a version that renamed it.
    """
    originals: dict[str, object] = {}
    for mod_name in TRACED:
        importlib.import_module(f"keikit.{mod_name}")
    modules = [m for k, m in list(sys.modules.items()) if k == "keikit" or k.startswith("keikit.")]
    for mod_name, names in TRACED.items():
        module = sys.modules[f"keikit.{mod_name}"]
        for name in names:
            span_name = f"{mod_name}.{name}"
            owner_name, _, method = name.partition(".")
            original = getattr(module, owner_name, None)
            if original is None or (method and method not in vars(original)):
                print(f"trace: keikit.{span_name} not found, not traced", file=sys.stderr)
                continue
            if method:  # a classmethod such as Magma.from_text
                func = vars(original)[method].__func__
                originals[span_name] = func
                setattr(original, method, classmethod(tracer.wrap(span_name, func)))
                continue
            if inspect.isclass(original):  # time construction, keep the class
                originals[span_name] = original.__init__
                original.__init__ = tracer.wrap(span_name, original.__init__)
                continue
            inner = original
            if span_name == SEARCH:
                inner = _count_found(tracer, inner)
            elif span_name == CLASSIFY:
                inner = _measure_peak(tracer, inner)
            wrapped = tracer.wrap(span_name, inner)
            originals[span_name] = original
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)
    return originals


def _covered(spans) -> dict[int, float]:
    """Total duration of each span's direct children, by span id."""
    covered: dict[int, float] = defaultdict(float)
    for sid, parent, name, start, end in spans:
        if parent >= 0:
            covered[parent] += end - start
    return covered


def self_times(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, total self time, and the longest span.

    Self time is a span's duration minus the durations of its direct
    children; in one thread children nest inside their parent, so that
    is the part of the interval the children cover.
    """
    covered = _covered(spans)
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "max_s": 0.0})
    for sid, parent, name, start, end in spans:
        entry = out[name]
        entry["calls"] += 1
        entry["self_s"] += (end - start) - covered[sid]
        entry["max_s"] = max(entry["max_s"], end - start)
    return dict(out)


def subtree_self_sum(spans, root: str) -> float:
    """Total self time of the spans named root and all their descendants.

    Span ids are assigned on entry, so a parent's id is below its children's.
    """
    covered = _covered(spans)
    inside: dict[int, bool] = {}
    total = 0.0
    for sid, parent, name, start, end in sorted(spans):
        inside[sid] = name == root or inside.get(parent, False)
        if inside[sid]:
            total += (end - start) - covered[sid]
    return total


def write_spans(spans, path) -> None:
    """Write spans as gzipped tab-separated lines, one per span."""
    with gzip.open(path, "wt", encoding="utf-8") as out:
        out.write("id\tparent\tname\tstart\tend\n")
        for sid, parent, name, start, end in spans:
            out.write(f"{sid}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\n")
