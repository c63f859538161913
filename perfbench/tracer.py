"""Span tracer that wraps the public functions of the momentsearch layers.

A layer is one package module. Every public function of a layer module,
and every public method of a class defined there, is wrapped at each name
through which callers reach it (``momentsearch.costs.embed_clips`` is the
same function as ``momentsearch.model.embed_clips``, so both names get the
wrapper). A function that no longer exists is simply not wrapped: its
metrics read 0 and it is listed in ``absent``.

Each wrapped call is one span. A span's self time is its duration minus
the durations of the wrapped calls made inside it, so the self times of
all spans in an operation add up to the time spent inside wrapped calls.
Spans are aggregated in memory per function: calls, total (inclusive)
time and self time. Nested calls of the same function count once in the
inclusive total.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time

LAYERS = ("dataio", "model", "enumeration", "costs", "retrieval", "index", "training")
PACKAGE = "momentsearch"


class FnStats:
    __slots__ = ("calls", "total", "self_time", "depth", "items_in", "items_out")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.depth = 0
        self.items_in = 0
        self.items_out = 0


def _sized(x) -> int:
    try:
        return len(x)
    except TypeError:
        return 0


# Functions whose argument and result sizes are recorded: (index of the
# argument whose length is "items in", or None) -- the result length is
# always "items out".
SIZE_PROBES = {
    "retrieval.nms": 0,
    "enumeration.enumerate_moments": None,
    "costs.score_moments": None,
}


# Accessors that do less work per call than a wrapper costs (a few us);
# their time stays in the caller's self time.
UNWRAPPED = {
    "enumeration.stride_clips", "dataio.Corpus.features_for", "dataio.Corpus.video",
    "training.TrainDataset.context_for", "training.TrainDataset.intra_pool",
}


class Tracer:
    """Installs span wrappers while active; aggregates per-function stats."""

    def __init__(self):
        self.stats: dict[str, FnStats] = {}
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []
        self.wrapped: list[str] = []

    def snapshot(self) -> dict[str, tuple]:
        """Per function: (calls, inclusive s, self s, items in, items out)."""
        return {n: (s.calls, s.total, s.self_time, s.items_in, s.items_out)
                for n, s in self.stats.items()}

    # -- installation -----------------------------------------------------

    def discover(self) -> dict[str, object]:
        """Map ``layer.qualname`` to the function object for every public
        function or method defined in a layer module."""
        found = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for name, obj in vars(mod).items():
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    found[f"{layer}.{name}"] = obj
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for attr, member in vars(obj).items():
                        if not attr.startswith("_") and inspect.isfunction(member):
                            found[f"{layer}.{name}.{attr}"] = member
        return {k: v for k, v in found.items() if k not in UNWRAPPED}

    def install(self) -> None:
        if self._patches:
            return
        functions = self.discover()
        wrappers = {id(fn): self._wrap(fn, key) for key, fn in functions.items()}
        for key, fn in functions.items():
            layer, *owner = key.split(".")
            if len(owner) == 2:  # a method: patch it on its class
                cls = getattr(sys.modules[f"{PACKAGE}.{layer}"], owner[0])
                self._patch(cls, owner[1], wrappers[id(fn)])
        # A function is patched under every name a package module binds it to.
        for name, mod in list(sys.modules.items()):
            if name == PACKAGE or name.startswith(PACKAGE + "."):
                for attr, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and id(obj) in wrappers:
                        self._patch(mod, attr, wrappers[id(obj)])
        self.wrapped = sorted(functions)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _patch(self, owner, name, wrapper) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def _wrap(self, fn, key):
        stats = self.stats.setdefault(key, FnStats())
        stack = self._stack  # per open span: time spent in its wrapped children
        clock = time.perf_counter
        probe_arg = SIZE_PROBES.get(key, False)

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            stats.depth += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                stats.depth -= 1
                if stack:
                    stack[-1] += elapsed
                stats.calls += 1
                stats.self_time += elapsed - children
                if stats.depth == 0:
                    stats.total += elapsed
            if probe_arg is not False:
                if probe_arg is not None:
                    stats.items_in += _sized(args[probe_arg])
                stats.items_out += _sized(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", key)
        wrapper.__qualname__ = getattr(fn, "__qualname__", key)
        wrapper.__doc__ = fn.__doc__
        return wrapper


ZERO_SPAN = (0, 0.0, 0.0, 0, 0)  # a snapshot row of a function never called


def delta(after: dict, before: dict) -> dict:
    """Per-function difference of two snapshots."""
    return {name: tuple(a - b for a, b in zip(row, before.get(name, ZERO_SPAN)))
            for name, row in after.items()}


def add(total: dict, part: dict) -> None:
    for name, row in part.items():
        total[name] = tuple(a + b for a, b in zip(total.get(name, ZERO_SPAN), row))
