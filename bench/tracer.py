"""In-memory span tracer that instruments rydsim from outside.

A :class:`Tracer` replaces each target function with a wrapper that records
one span per call: a name, start and end times, the index of the enclosing
span (its parent) and an optional work figure (amplitudes, bytes, flips).
Module-level functions are replaced in every loaded ``rydsim`` namespace
that holds them, so ``from .gates import controlled_flip`` aliases are
traced too; methods are replaced on their class.  Nothing under ``src/``
changes, and leaving :meth:`Tracer.installed` restores every original.

Hot helpers whose per-call time is not wanted (``pauli_mul``, ``heff``) get
a counting wrapper without a span.

Spans recorded inside process-pool workers stay in the worker and are lost:
with ``RYDSIM_WORKERS`` > 1 the pooled part of a run is one opaque span of
its caller.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Target:
    """One function to instrument.

    ``attr`` is ``"name"`` for a module function or ``"Class.name"`` for a
    method.  ``classify(args, kwargs)`` may return one of ``variants`` to
    file the span under another name; ``work(args, kwargs, result)``
    returns the work figure stored with the span.
    """

    module: str
    attr: str
    name: str
    work: Callable | None = None
    classify: Callable | None = None
    variants: tuple[str, ...] = ()
    count_only: bool = False


@dataclass
class SpanStats:
    """Aggregates of all spans filed under one name."""

    calls: int
    total_s: float
    self_s: float
    work: float
    durations_s: np.ndarray


class Tracer:
    def __init__(self, targets):
        self.targets = tuple(targets)
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self.counts: dict[str, int] = {}
        self._stack = [-1]

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _span_wrapper(self, fn, target: Target):
        default = self._id(target.name)
        variant_ids = {v: self._id(v) for v in target.variants}
        classify, work_of = target.classify, target.work
        name_id, parent, start, end, work = (
            self.name_id, self.parent, self.start, self.end, self.work)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(name_id)
            name_id.append(default if classify is None
                           else variant_ids[classify(args, kwargs)])
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            work.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if work_of is not None:
                work[idx] = work_of(args, kwargs, result)
            return result

        return wrapper

    def _count_wrapper(self, fn, target: Target):
        counts = self.counts
        name = target.name
        counts[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap(self, fn, target: Target):
        if target.count_only:
            return self._count_wrapper(fn, target)
        return self._span_wrapper(fn, target)

    @contextmanager
    def installed(self):
        """Instrument every target for the duration of the block."""
        patches = []  # (holder, attribute, original), restored in reverse
        by_identity = {}  # id(original function) -> (original, wrapper)
        try:
            for target in self.targets:
                module = importlib.import_module(target.module)
                owner, _, attr = target.attr.rpartition(".")
                if owner:
                    holder = getattr(module, owner)
                    original = holder.__dict__[attr]
                    setattr(holder, attr, self._wrap(original, target))
                    patches.append((holder, attr, original))
                else:
                    original = getattr(module, attr)
                    by_identity[id(original)] = (original, self._wrap(original, target))
            for mod_name, module in list(sys.modules.items()):
                if mod_name != "rydsim" and not mod_name.startswith("rydsim."):
                    continue
                for key, value in list(vars(module).items()):
                    hit = by_identity.get(id(value))
                    if hit is not None and hit[0] is value:
                        setattr(module, key, hit[1])
                        patches.append((module, key, value))
            yield self
        finally:
            for holder, attr, original in reversed(patches):
                setattr(holder, attr, original)

    # -- derived figures --------------------------------------------------

    def span_count(self) -> int:
        return len(self.name_id)

    def stats(self) -> dict[str, SpanStats]:
        """Per-name aggregates; self time is a span's duration minus the
        durations of its direct child spans."""
        names = np.frombuffer(self.name_id, dtype=np.int32)
        parents = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(
            self.start, dtype=np.float64)
        work = np.frombuffer(self.work, dtype=np.float64)
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_time = dur - child
        out = {}
        for nid, name in enumerate(self.names):
            mask = names == nid
            out[name] = SpanStats(
                calls=int(mask.sum()),
                total_s=float(dur[mask].sum()),
                self_s=float(self_time[mask].sum()),
                work=float(work[mask].sum()),
                durations_s=dur[mask],
            )
        return out


def tail_percentile(n: int) -> float | None:
    """Highest of the reported percentiles with at least ten samples
    beyond it, or None when there are fewer than 20 samples."""
    for permille in (999, 990, 900, 500):
        if n * (1000 - permille) >= 10 * 1000:
            return permille / 10.0
    return None
