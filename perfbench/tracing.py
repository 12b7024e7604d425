"""Span tracing of esrsim's layers from outside the package.

:class:`Tracer` wraps every public module-level function of the traced
modules, a few methods and constructors that are layer boundaries, numpy's
``eigh``/``eigvalsh`` (counted as the ``linalg`` layer), and the private
``model._effect_operator`` (every dense effect built goes through it). A
wrapper is rebound in every esrsim module that holds the function by name,
because ``from .model import split_event`` copies the reference: patching
only the defining module would miss those callers.

Spans carry an id, name, start, end, parent id and thread, and are kept in
memory until :meth:`Tracer.write`. A span's self time is its duration minus
the durations of its direct children in the same thread. Spans opened in
pool threads (the sampler's block generators) have no parent; they overlap
the ``run_experiment`` span that waits for them, so they are timed and
counted but left out of the layer shares.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import itertools
import json
import threading
import time
from collections import Counter, defaultdict

import numpy as np

# The traced layers: the package's modules, minus ``errors``, which does no work.
LAYERS = ("scenario", "linalg", "model", "measurement", "apparatus", "sampling", "cli")
# Self time not inside any traced span: the benchmark's own loop.
HARNESS = "harness"

# Class attributes that are layer boundaries: (module, class, attribute).
_METHODS = (
    ("model", "PureState", "__post_init__"),
    ("sampling", "RngSpec", "__post_init__"),
    ("sampling", "RngSpec", "generator"),
    ("sampling", "RngSpec", "block_generator"),
)
# Private functions wrapped because a per-layer metric counts them.
_PRIVATE = (("model", "_effect_operator"),)
# numpy kernels the package calls through ``np.linalg``.
_NUMPY = ("eigh", "eigvalsh")


def _pov_events(result, bound) -> dict[str, int]:
    return {"model.pov_events_checked": int(result.events_checked)}


def _blocks(result, bound) -> dict[str, int]:
    from esrsim import sampling
    size = sampling.BLOCK_SIZE
    return {"sampling.blocks": (int(bound.arguments["trials"]) + size - 1) // size}


# Counters read off a call's result or arguments, by span name.
_OBSERVERS = {
    "model.verify_pov_axioms": _pov_events,
    "sampling.run_experiment": _blocks,
}


class Tracer:
    """Records spans and counters while installed; see the module docstring."""

    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        self._name_ids: dict[str, int] = {}
        # (id, name id, start, end, parent id or -1, self seconds, main thread?)
        self.spans: list[tuple] = []
        self.counters: Counter = Counter()
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _name_id(self, name: str, layer: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return self._name_ids[name]

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self) -> list:
        stack = self._stack()
        frame = [next(self._ids), stack[-1][0] if stack else -1, 0.0]
        stack.append(frame)
        return frame

    def _close(self, frame: list, nid: int, start: float, end: float) -> None:
        stack = self._stack()
        stack.pop()
        duration = end - start
        if stack:
            stack[-1][2] += duration
        self.spans.append((frame[0], nid, start, end, frame[1], duration - frame[2],
                           threading.get_ident() == self._main))

    @contextlib.contextmanager
    def span(self, name: str, layer: str = HARNESS):
        """Record one span opened by the benchmark itself around the ``with`` body."""
        nid = self._name_id(name, layer)
        frame = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(frame, nid, start, time.perf_counter())

    def wrap(self, fn, name: str, layer: str):
        nid = self._name_id(name, layer)
        observe = _OBSERVERS.get(name)
        signature = inspect.signature(fn) if observe else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._open()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame, nid, start, clock())
            if observe is not None:
                self.counters.update(observe(result, signature.bind(*args, **kwargs)))
            return result

        return traced

    # -- installation --------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap the layer boundaries and rebind them wherever they are imported."""
        package = importlib.import_module("esrsim")
        modules = {layer: importlib.import_module(f"esrsim.{layer}") for layer in LAYERS}
        holders = [package, *modules.values()]

        # original function -> wrapper; keyed by id, compared by identity
        wrappers: dict[int, tuple[object, object]] = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    wrappers[id(obj)] = obj, self.wrap(obj, f"{layer}.{attr}", layer)
        for layer, attr in _PRIVATE:
            obj = getattr(modules[layer], attr)
            wrappers[id(obj)] = obj, self.wrap(obj, f"{layer}.{attr}", layer)

        for holder in holders:
            for attr, obj in list(vars(holder).items()):
                original, wrapper = wrappers.get(id(obj), (None, None))
                if original is obj:
                    self._patch(holder, attr, wrapper)

        for layer, cls_name, attr in _METHODS:
            cls = getattr(modules[layer], cls_name)
            name = f"{layer}.{cls_name}" if attr == "__post_init__" else f"{layer}.{attr}"
            self._patch(cls, attr, self.wrap(vars(cls)[attr], name, layer))

        for attr in _NUMPY:
            self._patch(np.linalg, attr, self.wrap(getattr(np.linalg, attr),
                                                   f"linalg.{attr}", "linalg"))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading -------------------------------------------------------------

    def mark(self) -> tuple[int, Counter]:
        """Position to pass to :meth:`summarize` for the spans recorded after it."""
        return len(self.spans), Counter(self.counters)

    def summarize(self, since: tuple[int, Counter]) -> dict:
        """Calls and self time per span name and self time per layer since a mark.

        Layer self time counts main-thread spans only (see the module docstring).
        """
        first, counters_before = since
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        layer_s: defaultdict = defaultdict(float)
        for _, nid, _, _, _, own, main in self.spans[first:]:
            name = self.names[nid]
            calls[name] += 1
            self_s[name] += own
            if main:
                layer_s[self.layers[nid]] += own
        counters = Counter(self.counters)
        counters.subtract(counters_before)
        return {"calls": dict(calls), "self_s": dict(self_s),
                "layer_s": dict(layer_s), "counters": dict(+counters)}

    def write(self, path) -> None:
        """Write the spans as JSON lines: a header naming them, then one per span."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"names": self.names, "layers": self.layers,
                                     "fields": ["id", "name", "start", "end", "parent",
                                                "self_s", "main_thread"]}) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")

