"""In-memory span tracer that wraps ionread functions from outside the package.

``Tracer.wrap`` replaces a module attribute with thin wrappers.  Each call
records one span (name, start, end, parent) in flat arrays; nothing is
aggregated or written until ``summary`` and ``save`` run at the end.  A
function's self time is its span minus the spans of the calls it made.

Names re-imported into another module (``lstm.adadelta_step``,
``mlp.confusion``) are separate attributes and are wrapped there too, because
the importing module looks them up in its own namespace.  A target that no
longer exists is skipped, so it reports zero calls instead of failing.
Calls made in another process (generation workers forked from the traced
one) are passed straight through and not recorded.
"""
from __future__ import annotations

import os
import time
from array import array
from collections import defaultdict
from typing import Callable

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.shots = array("q")  # work units of the call, -1 when not counted
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._pid = os.getpid()

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.shots.append(-1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, value: float = 1.0) -> None:
        self.counters[key] += value

    def current(self, prefix: str) -> str | None:
        """Name of the innermost open span that starts with ``prefix``."""
        for idx in reversed(self._stack):
            name = self.names[self.name_id[idx]]
            if name.startswith(prefix):
                return name
        return None

    def wrap(
        self,
        module,
        attr: str,
        name: str | Callable[..., str],
        shots: Callable[..., int] | None = None,
        after: Callable[..., None] | None = None,
    ) -> None:
        """Replace ``module.attr`` by a recording wrapper.

        ``name`` is a fixed span name or a function of the call's arguments.
        ``shots(result, *args, **kwargs)`` gives the work units of a call and
        ``after(tracer, result, *args, **kwargs)`` may record counters; both
        run after the call returns.
        """
        original = getattr(module, attr, None)
        if original is None:
            return
        tracer = self

        def wrapper(*args, **kwargs):
            if os.getpid() != tracer._pid:
                return original(*args, **kwargs)
            span = name if isinstance(name, str) else name(*args, **kwargs)
            idx = tracer._open(span)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(idx)
            if shots is not None:
                tracer.shots[idx] = shots(result, *args, **kwargs)
            if after is not None:
                after(tracer, result, *args, **kwargs)
            return result

        wrapper.__wrapped__ = original
        setattr(module, attr, wrapper)
        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- reporting ---------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive and self seconds, work units."""
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        shots = np.frombuffer(self.shots, dtype=np.int64)
        duration = end - start
        covered = np.zeros_like(duration)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], duration[has_parent])
        self_time = duration - covered
        out = {}
        for nid, name in enumerate(self.names):
            mask = name_id == nid
            out[name] = {
                "calls": int(mask.sum()),
                "total_s": float(duration[mask].sum()),
                "self_s": float(self_time[mask].sum()),
                "shots": int(np.maximum(shots[mask], 0).sum()),
            }
        return out

    def root_seconds(self) -> float:
        """Time covered by top-level spans."""
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        roots = np.frombuffer(self.parent, dtype=np.int32) < 0
        return float((end[roots] - start[roots]).sum())

    def save(self, path: str) -> None:
        np.savez_compressed(
            path,
            names=np.asarray(self.names, dtype=str),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            shots=np.frombuffer(self.shots, dtype=np.int64),
        )
