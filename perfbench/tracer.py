"""Outside-in span recorder for the library's public functions.

``install`` wraps every function in ``subrec.__all__``, plus
``cli.analyze``, ``cli.emit_report``, ``FactorLanguage.ensure`` and
``IncidenceMatrix.power``, in every ``subrec.*`` module namespace that
binds it, so the program's own calls between modules are what gets
traced.  Spans stay in memory as lists
``[name, parent, start, end, op, exception, info]`` and are written out
once, at the end.  Counters are read after a span closes; the context
bucket sizes of the verifier are computed only in ``finish``, after the
operation, so none of this work lands inside a span.

Nothing here runs unless a traced child calls ``install``.
"""

from __future__ import annotations

import collections
import inspect
import json
import math
import sys
import time
from collections import defaultdict

LOG10_2 = math.log10(2)

EXTRA_TARGETS = (
    ("subrec.cli", None, "analyze"),
    ("subrec.cli", None, "emit_report"),
    ("subrec.language", "FactorLanguage", "ensure"),
    ("subrec.morphism", "IncidenceMatrix", "power"),
)


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = 0
        self._pending_buckets: list[tuple[list, object, int]] = []

    def wrap(self, name: str, fn, note=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0.0, self.op, None, None]
            stack.append(len(spans))
            spans.append(span)
            result = None
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[3] = clock()
                stack.pop()
                if note is not None:
                    span[6] = note(self, span, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def finish(self):
        """Fill in the deferred verifier bucket sizes; call after each op."""
        sizes: dict[tuple[int, int], int] = {}
        for span, window, L in self._pending_buckets:
            key = (id(window), L)
            if key not in sizes:
                sizes[key] = largest_bucket(window.content, L)
            span[6]["bucket"] = sizes[key]
        self._pending_buckets.clear()

    def dump(self, path):
        self.finish()
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.spans, f)


def largest_bucket(content: str, L: int) -> int:
    """Size of the largest group of verifier positions sharing a context:
    positions L .. len-1-L, keyed by their (2L+1)-letter neighbourhood."""
    width = 2 * L + 1
    counts = collections.Counter(content[i : i + width] for i in range(len(content) - width + 1))
    return max(counts.values(), default=0)


# Notes: counters read after the call returns, outside the span's time.
# ``result`` is None when the call raised.


def _arg(args, kwargs, pos, key):
    return kwargs[key] if key in kwargs else args[pos] if len(args) > pos else None


def _note_ensure(rec, span, args, kwargs, result):
    n = _arg(args, kwargs, 1, "n")
    words = args[0]._slices.get(n) if span[5] is None else None
    return {"n": n} if words is None else {"n": n, "words": len(words)}


def _note_power(rec, span, args, kwargs, result):
    if result is None:
        return None
    top = max(entry for row in result.rows for entry in row)
    return {"digits": int(top.bit_length() * LOG10_2) + 1}


def _note_window(rec, span, args, kwargs, result):
    if result is None:
        return None
    left, right = result.tower[0]
    return {"letters": len(left) + len(right), "levels": len(result.tower)}


def _note_verify(rec, span, args, kwargs, result):
    window, L = _arg(args, kwargs, 0, "window"), _arg(args, kwargs, 1, "L")
    if result is not None:
        rec._pending_buckets.append((span, window, L))
    return {"L": L}


def _note_bound(rec, span, args, kwargs, result):
    info = {"mode": _arg(args, kwargs, 1, "mode")}
    if result is not None:
        info.update(N=int(result.N), R=int(result.R))
    return info


NOTES = {
    "language.FactorLanguage.ensure": _note_ensure,
    "morphism.IncidenceMatrix.power": _note_power,
    "fixedpoint.build_window": _note_window,
    "recognizability.verify_constant": _note_verify,
    "recognizability.recognizability_bound": _note_bound,
}


def _span_name(fn) -> str:
    """``<layer>.<qualified name>``, the layer being the defining module."""
    layer = fn.__module__.rsplit(".", 1)[-1]
    return f"{layer}.{getattr(fn, '__qualname__', fn.__name__)}"


def install(rec: Recorder):
    """Wrap the traced functions in place."""
    import subrec
    import subrec.cli  # noqa: F401  (the CLI is not imported by the package)

    targets = []
    for attr in subrec.__all__:
        obj = getattr(subrec, attr)
        if callable(obj) and not isinstance(obj, type) and not inspect.ismodule(obj):
            targets.append((obj, _span_name(obj)))
    for module_name, owner, attr in EXTRA_TARGETS:
        holder = sys.modules[module_name]
        if owner is None:
            obj = getattr(holder, attr)
            targets.append((obj, _span_name(obj)))
        else:
            cls = getattr(holder, owner)
            obj = cls.__dict__[attr]
            name = _span_name(obj)
            setattr(cls, attr, rec.wrap(name, obj, NOTES.get(name)))

    modules = [m for n, m in sys.modules.items() if n == "subrec" or n.startswith("subrec.")]
    for obj, name in targets:
        wrapper = rec.wrap(name, obj, NOTES.get(name))
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is obj:
                    setattr(module, key, wrapper)


# ---------------------------------------------------------------------------
# Aggregation (harness side)


def self_times(spans) -> list[float]:
    """Span duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[1] >= 0:
            child[span[1]] += span[3] - span[2]
    return [span[3] - span[2] - child[i] for i, span in enumerate(spans)]


class LayerTotals:
    """Per-pass sums of self time, calls and failures by span name and
    layer, plus the size counters the benchmark reports."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.failed = defaultdict(int)
        self.exceptions = defaultdict(collections.Counter)
        self.counters = defaultdict(int)
        self.maxima = defaultdict(int)
        self.lost_ops = 0  # traced operations whose spans were never written

    def add(self, spans):
        for span, own in zip(spans, self_times(spans)):
            name, exc, info = span[0], span[5], span[6] or {}
            layer = name.split(".", 1)[0]
            for key in (name, layer):
                self.self_s[key] += own
                self.calls[key] += 1
                if exc is not None:
                    self.failed[key] += 1
                    self.exceptions[key][exc] += 1
            if name == "recognizability.recognizability_bound" and info.get("mode"):
                self.self_s[f"{name}.{info['mode']}"] += own
            if name == "language.FactorLanguage.ensure":
                n = info.get("n") or 0
                self.maxima["language.closure_len"] = max(self.maxima["language.closure_len"], n)
                if "words" in info:
                    words = info["words"]
                    self.maxima["language.closure_words"] = max(self.maxima["language.closure_words"], words)
                    self.maxima["language.closure_letters"] = max(
                        self.maxima["language.closure_letters"], words * n)
            if "bucket" in info:
                self.maxima["recognizability.verifier.max_bucket"] = max(
                    self.maxima["recognizability.verifier.max_bucket"], info["bucket"])
            if "digits" in info:
                self.maxima["morphism.matrix_power.max_digits"] = max(
                    self.maxima["morphism.matrix_power.max_digits"], info["digits"])
            if "letters" in info:
                self.counters["fixedpoint.window_letters"] += info["letters"]
                self.counters["fixedpoint.tower_levels"] += info["levels"]
            if "R" in info and info["mode"] == "empirical_exact":
                self.counters["recognizability.bound_N"] += info["N"]
                self.counters["recognizability.bound_R"] += info["R"]
