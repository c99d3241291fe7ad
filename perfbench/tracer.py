"""In-memory span tracer for the benchmark's traced runs.

``Tracer.install()`` wraps every public plain function defined in a
``chainlab`` module at every module global that names it: ``gpw`` reaches
``is_chainable_with`` through its own global and ``logic`` reaches
``literal_type`` through its own, so both bindings are replaced.  Nested
calls through those globals therefore open nested spans, and a function's
self time is its span time minus the time its child spans cover.  Calls a
function makes through local names (closures, private helpers) stay inside
its own self time.

A span is ``(name_id, start, end, parent_index)`` with ``perf_counter``
times; spans stay in memory and are written out once, at the end of a run.
``perf_counter`` reads CLOCK_MONOTONIC on Linux, so spans a child process
exports line up with the parent's.
"""

from __future__ import annotations

import inspect
import json
import math
import sys
import time
import types
from collections import Counter, defaultdict

clock = time.perf_counter


def _short_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[tuple[int, float, float, int] | None] = []
        self._stack: list[int] = []
        self.counters: Counter = Counter()
        self._seen_forms: set = set()
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append((self.name_id(name), clock(), 0.0, self._stack[-1] if self._stack else -1))
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        nid, start, _, parent = self.spans[idx]
        self.spans[idx] = (nid, start, clock(), parent)
        self._stack.pop()

    def record(self, name: str, start: float, end: float) -> None:
        """Add an already-finished top-level span, e.g. one timed before
        install()."""
        self.spans.append((self.name_id(name), start, end, -1))

    def merge(self, exported: dict, parent: int) -> None:
        """Graft spans exported by a child process under span ``parent``."""
        base = len(self.spans)
        ids = [self.name_id(n) for n in exported["names"]]
        for nid, start, end, par in exported["spans"]:
            self.spans.append((ids[nid], start, end, parent if par < 0 else base + par))
        self.counters.update(exported["counters"])

    def _wrap(self, fn, name: str):
        nid = self.name_id(name)
        spans, stack = self.spans, self._stack
        observe = self._observer(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (nid, start, clock(), parent)
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _observer(self, name: str):
        """Work counters recorded where the work happens (outside the span)."""
        c = self.counters
        if name == "morphism.canonical_form":
            seen = self._seen_forms

            def observe(args, kwargs, result):
                y = args[0] if args else kwargs["y"]
                if y in seen:
                    c["morphism.canonical_form.repeats"] += 1
                else:
                    seen.add(y)

            return observe
        if name == "chainability.is_chainable_with":
            def observe(args, kwargs, result):
                c["chainability.is_chainable_with.true"] += bool(result)
            return observe
        if name == "chainability.find_chain_order":
            def observe(args, kwargs, result):
                c["chainability.find_chain_order.found"] += result is not None
            return observe
        if name == "gpw.enumerate_chaining_orders":
            def observe(args, kwargs, result):
                y = args[0] if args else kwargs["y"]
                f_set = args[1] if len(args) > 1 else kwargs["f_set"]
                rest = y.size - len(set(f_set))
                c["gpw.enumerate_chaining_orders.candidates"] += math.factorial(rest)
                c["gpw.enumerate_chaining_orders.orders_found"] += len(result.orders)
            return observe
        if name == "gpw.classify_family":
            def observe(args, kwargs, result):
                c[f"gpw.classify_family.tag.{result.tag}"] += 1
            return observe
        return None

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        """Replace every public chainlab function at every module global."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "chainlab" or n.startswith("chainlab.")]
        wrappers: dict[object, object] = {}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if not (
                    isinstance(value, types.FunctionType)
                    and value.__module__.startswith("chainlab")
                    and not value.__name__.startswith("_")
                    and not inspect.isgeneratorfunction(value)
                ):
                    continue
                if value not in wrappers:
                    wrappers[value] = self._wrap(value, _short_name(value))
                setattr(module, attr, wrappers[value])
                self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    # -- summaries ----------------------------------------------------------

    def export(self) -> dict:
        return {"names": self.names, "spans": self.spans, "counters": dict(self.counters)}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.export(), fh, separators=(",", ":"))

    def summary(self) -> dict:
        """Per span name: calls and self milliseconds; plus the number of
        find_chain_order calls made directly by kernel (frozen sets tried)."""
        child = defaultdict(float)
        for span in self.spans:
            nid, start, end, parent = span
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        self_ms: defaultdict = defaultdict(float)
        names = self.names
        kernel_id = self._ids.get("chainability.kernel")
        find_id = self._ids.get("chainability.find_chain_order")
        sets_tried = 0
        for idx, (nid, start, end, parent) in enumerate(self.spans):
            calls[names[nid]] += 1
            self_ms[names[nid]] += (end - start - child[idx]) * 1e3
            if nid == find_id and parent >= 0 and self.spans[parent][0] == kernel_id:
                sets_tried += 1
        counters = dict(self.counters)
        counters["chainability.kernel.sets_tried"] = sets_tried
        return {"calls": dict(calls), "self_ms": dict(self_ms), "counters": counters}
