"""Host-time spans for the traced benchmark run.

A :class:`SpanRecorder` replaces public methods of the simulator's layer
classes with wrappers that record one span per call: name, start, end
and the span that was open when the call began (its parent).  Spans
live in flat in-memory arrays while the run goes on and are written out
once, when it ends.  A span's *self time* is its duration minus the part
covered by its direct children, so the self times of every span plus the
time outside any span add up to the traced wall time exactly.

Wrappers are installed on the classes, before the machine is built, so
every instance — including forks unpickled later — goes through them,
and :meth:`SpanRecorder.restore` puts the original functions back.  A
process forked while wrappers are installed (a pool worker) restores
the originals in the child, so spans are recorded in the parent only.
"""

from __future__ import annotations

import functools
import os
import time
import weakref
from array import array
from contextlib import contextmanager

import numpy as np

ROOT = -1  # parent index of a span opened outside any other span


class SpanRecorder:
    """Records nested host-time spans around wrapped layer methods."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self._stack = [ROOT]
        self._patches: list[tuple[type, str, object]] = []
        # A weak reference keeps the fork hook from pinning the recorder.
        ref = weakref.ref(self)
        os.register_at_fork(after_in_child=lambda: _restore_if_alive(ref))

    def __len__(self) -> int:
        return len(self.starts)

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        """``fn`` wrapped so that every call records a span called ``name``."""
        name_id = self._name_id(name)
        name_ids, parents, starts, ends = (
            self.name_ids, self.parents, self.starts, self.ends,
        )
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return wrapper

    def install(self, targets) -> None:
        """Wrap each ``(name, owner_class, attribute)`` in ``targets``.

        The attribute must be defined on ``owner_class`` itself, so that
        restoring it cannot shadow an inherited definition.
        """
        for name, owner, attribute in targets:
            original = owner.__dict__[attribute]
            self._patches.append((owner, attribute, original))
            setattr(owner, attribute, self.wrap(name, original))

    def restore(self) -> None:
        """Put every wrapped function back, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    @contextmanager
    def installed(self, targets):
        """Wrappers installed for the ``with`` block, restored afterwards."""
        self.install(targets)
        try:
            yield self
        finally:
            self.restore()

    # -- results ------------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """The spans as numpy columns (times in ns, parents as span indices)."""
        return {
            "name": np.frombuffer(self.name_ids, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parents, dtype=np.int64).copy(),
            "start_ns": np.frombuffer(self.starts, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.ends, dtype=np.int64).copy(),
        }

    def durations_ns(self, name: str) -> np.ndarray:
        """Durations of every span called ``name``, in recording order."""
        spans = self.arrays()
        chosen = spans["name"] == self._ids.get(name, -1)
        return (spans["end_ns"] - spans["start_ns"])[chosen]

    def layer_times(self) -> dict[str, dict]:
        """``{name: {"calls": n, "self_s": s}}`` for every span name seen."""
        return layer_times(self.names, self.arrays())

    def save(self, path) -> None:
        """Write every span to ``path`` (numpy ``.npz``: columns + name table)."""
        np.savez(path, names=np.array(self.names, dtype=str), **self.arrays())


def _restore_if_alive(ref) -> None:
    recorder = ref()
    if recorder is not None:
        recorder.restore()


def self_times_ns(spans: dict[str, np.ndarray]) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    Children nest inside their parent (a call returns before its caller
    does), so the children's durations are exactly the covered part.
    """
    duration = spans["end_ns"] - spans["start_ns"]
    parent = spans["parent"]
    nested = parent != ROOT
    covered = np.bincount(
        parent[nested], weights=duration[nested], minlength=len(duration)
    )
    return duration - covered.astype(np.int64)


def layer_times(names: list[str], spans: dict[str, np.ndarray]) -> dict[str, dict]:
    """Per-name call counts and summed self time in seconds."""
    self_ns = self_times_ns(spans)
    ids = spans["name"]
    calls = np.bincount(ids, minlength=len(names))
    self_sum = np.bincount(ids, weights=self_ns, minlength=len(names))
    return {
        name: {"calls": int(calls[i]), "self_s": float(self_sum[i]) / 1e9}
        for i, name in enumerate(names)
    }


def top_level_ns(spans: dict[str, np.ndarray]) -> int:
    """Summed duration of the spans opened outside any other span."""
    top = spans["parent"] == ROOT
    return int((spans["end_ns"][top] - spans["start_ns"][top]).sum())
