"""Spans around flexarray's public functions, recorded from outside the package.

``Tracer.installed()`` replaces every public function of the layer modules
with a wrapper at every name any ``flexarray`` module binds it under (a
function imported with ``from .channel import sector_block`` is looked up in
the importing module, so wrapping only its home module would miss those
calls). Each wrapper records one span: function id, parent span, start, end
and the exception it raised, if any. Spans are kept in flat arrays in memory
and analysed after the run; leaving the context restores every original.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("geometry", "radiation", "channel", "estimation", "precoding", "bayesopt", "harness")
PACKAGE = "flexarray"
MARK = "__perfbench_span__"
OTHER_ERROR = 127


def public_functions(layer: str) -> dict:
    """Public functions defined (not just imported) in ``flexarray.<layer>``."""
    module = importlib.import_module(f"{PACKAGE}.{layer}")
    return {name: obj for name, obj in vars(module).items()
            if inspect.isfunction(obj) and obj.__module__ == module.__name__
            and not name.startswith("_")}


def package_modules() -> list:
    return [module for name, module in list(sys.modules.items())
            if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def wrapped_names() -> list:
    """``module.name`` of every binding that currently holds a span wrapper."""
    return [f"{module.__name__}.{name}" for module in package_modules()
            for name, obj in vars(module).items() if getattr(obj, MARK, False)]


class Tracer:
    """In-memory span recorder.

    Args:
        notes: maps a span name (``layer.function``) to ``f(args, kwargs,
            result)``; its return value is stored in ``notes`` under the span
            index when the call returns.
        error_types: exception classes to tell apart; a span that raised
            ``error_types[i]`` gets status ``i + 1``, any other exception
            ``OTHER_ERROR``, and a normal return 0.
    """

    def __init__(self, notes: dict | None = None, error_types: tuple = ()):
        self.names: list[str] = []
        self.layers: list[str] = []
        self.fid = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.status = array("b")
        self.notes: dict = {}
        self._note_fns = dict(notes or {})
        self._error_types = tuple(error_types)
        self._stack = [-1]
        self._wrappers: dict = {}
        self._bindings: list = []

    def __len__(self) -> int:
        return len(self.fid)

    def _status_of(self, exc: BaseException) -> int:
        for code, kind in enumerate(self._error_types, start=1):
            if isinstance(exc, kind):
                return code
        return OTHER_ERROR

    def _wrap(self, func, layer: str):
        """Return a span-recording wrapper of ``func``, attributed to ``layer``."""
        fid = len(self.names)
        name = f"{layer}.{func.__name__}"
        self.names.append(name)
        self.layers.append(layer)
        note = self._note_fns.get(name)
        fids, parents, starts, ends, status = self.fid, self.parent, self.start, self.end, self.status
        stack, notes, status_of, clock = self._stack, self.notes, self._status_of, time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = len(fids)
            fids.append(fid)
            parents.append(stack[-1])
            status.append(0)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                status[index] = status_of(exc)
                raise
            finally:
                ends[index] = clock()
                stack.pop()
            if note is not None:
                notes[index] = note(args, kwargs, result)
            return result

        setattr(wrapper, MARK, True)
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every public layer function at every binding, restore on exit.

        The wrappers are made on first use and reused, so spans recorded
        across several installations share one function table."""
        if self._bindings or wrapped_names():
            raise RuntimeError("span wrappers are already installed")
        if not self._wrappers:
            for layer in LAYERS:
                for func in public_functions(layer).values():
                    self._wrappers[func] = self._wrap(func, layer)
        wrappers = self._wrappers
        try:
            for module in package_modules():
                for name, obj in list(vars(module).items()):
                    if inspect.isfunction(obj) and obj in wrappers:
                        self._bindings.append((module, name, obj))
                        setattr(module, name, wrappers[obj])
            yield self
        finally:
            for module, name, original in reversed(self._bindings):
                setattr(module, name, original)
            self._bindings.clear()
        left = wrapped_names()
        if left:
            raise RuntimeError(f"span wrappers left installed: {left}")

    def arrays(self) -> dict:
        """Span columns as numpy arrays (copies), for analysis and saving."""
        return {"fid": np.array(self.fid, dtype=np.int32),
                "parent": np.array(self.parent, dtype=np.int32),
                "start": np.array(self.start, dtype=float),
                "end": np.array(self.end, dtype=float),
                "status": np.array(self.status, dtype=np.int8)}


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the union of its children's intervals.

    A child is any span whose ``parent`` is the span's index (-1: no
    parent). Child intervals are clipped to the parent's interval, and
    overlapping children are counted once.
    """
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    order = np.argsort(start, kind="stable").tolist()
    starts, ends, parents = start.tolist(), end.tolist(), np.asarray(parent).tolist()
    covered = [0.0] * len(starts)
    reach = list(starts)  # end of the children's union swept so far, per parent
    for i in order:
        p = parents[i]
        if p < 0:
            continue
        lo = max(starts[i], reach[p])
        hi = min(ends[i], ends[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return end - start - np.array(covered)
