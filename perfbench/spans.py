"""Per-layer span recorder for the traced benchmark run.

Nothing under ``src/`` is instrumented.  Instead, :class:`Tracer` wraps the
public functions at each layer boundary from the outside and rebinds every
reference to them that the loaded ``repro.*`` modules hold (module
globals, values of module-level dicts such as the planner registry, and
function defaults), so a call reaches the wrapper however the caller
imported the function.  :meth:`Tracer.uninstall` restores every binding.

Spans are kept in memory as ``(boundary, id, start, end, parent, thread,
self)`` tuples and written out once, by :meth:`Tracer.dump`.  Self time
is computed per thread: a span's duration minus the time its child spans on
the same thread cover.  Work a boundary hands to another thread (the
monitor recording the controllers overlap with replay) is a root span on
that thread, so busy seconds may add up to more than the wall time.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
import types

#: Kernel entry points that replay a trace (their first argument is the
#: address array; ``batch_run_threaded`` carries one per task).
NATIVE_REPLAY = ("lru_run", "rrip_run", "dip_run", "pdp_run", "random_run",
                 "multi_lru_run", "part_lru_run", "part_srrip_run",
                 "tadrrip_run", "belady_run", "vantage_run",
                 "batch_run_threaded")

#: Layer boundaries: metric prefix -> (module, qualified name) targets.
BOUNDARIES = {
    "workloads.trace_gen": [
        ("repro.workloads.spec_profiles", "AppProfile.trace"),
        ("repro.workloads.tracestore", "TraceStore.get"),
        ("repro.workloads.tracestore", "TraceStore.put")],
    "native.replay": [("repro.cache._native", f"NativeKernel.{name}")
                      for name in NATIVE_REPLAY],
    "native.stack_hist": [
        ("repro.cache._native", "NativeKernel.stack_hist_chunk"),
        ("repro.cache._native", "NativeKernel.stack_hist_run")],
    "cache.h3": [("repro.cache.hashing", "H3Hash.hash_array")],
    "cache.replay": [("repro.cache.talus_cache", "TalusCache.run_chunk")],
    "cache.reconfigure": [
        ("repro.cache.talus_cache", "TalusCache.configure_many")],
    "monitor.record": [
        ("repro.monitor.umon", "CombinedUMON.record_trace"),
        ("repro.monitor.stack_distance",
         "IncrementalStackMonitor.record_trace")],
    "monitor.curve": [
        ("repro.monitor.umon", "UMON.miss_curve"),
        ("repro.monitor.umon", "CombinedUMON.miss_curve"),
        ("repro.monitor.stack_distance", "StackDistanceMonitor.miss_curve"),
        ("repro.monitor.stack_distance",
         "IncrementalStackMonitor.miss_curve"),
        ("repro.monitor.multipoint", "MultiPointMonitor.miss_curve")],
    "monitor.drift": [("repro.monitor.drift", "CurveDriftTracker.update")],
    "core.hull": [("repro.core.convexhull", "lower_convex_hull_points")],
    "core.talus_plan": [("repro.core.talus", "plan_shadow_partitions")],
    "partitioning.plan": [
        ("repro.partitioning.hill_climbing", "hill_climbing"),
        ("repro.partitioning.lookahead", "lookahead"),
        ("repro.partitioning.fair", "fair")],
    "sim.replan": [("repro.sim.reconfigure", "plan_shared_allocations")],
    "jobs.wait": [
        ("repro.jobs.queue", "Job.result"),
        ("repro.jobs.queue", "JobQueue.wait"),
        ("repro.jobs.queue", "JobQueue.join")],
    "jobs.bank_put": [("repro.jobs.bank", "ResultBank.put")],
    "jobs.bank_get": [("repro.jobs.bank", "ResultBank.get")],
}

#: The benchmark's own span around each top-level call into ``sim`` (the
#: controller's ``handle``, ``run_mix_sweep``, ``run_matrix_sweep``); its
#: self time is the time no child span covers.
TOP = "sim.self"
NAMES = (TOP, *BOUNDARIES)


def _replay_accesses(name: str, args) -> int:
    """Simulated accesses one native replay call covers."""
    if name == "batch_run_threaded":
        tasks, num_tasks = args[1], args[2]
        return sum(int(tasks[i].n) for i in range(num_tasks))
    if name == "multi_lru_run":
        return int(args[1].size) * int(args[2])
    return int(args[1].size)


def _resolve(module: str, qualname: str):
    owner = importlib.import_module(module)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.replay_accesses = 0
        self._pid = os.getpid()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._undo: list = []       # closures that restore one binding
        self.rebound = 0

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, index: int, fn, args, kwargs):
        """Run ``fn`` inside one span of boundary ``NAMES[index]``."""
        if os.getpid() != self._pid:    # forked worker: not traced
            return fn(*args, **kwargs)
        stack = self._stack()
        frame = [0.0, next(self._ids)]  # child time on this thread, id
        parent = stack[-1][1] if stack else 0
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - start
            if stack:
                stack[-1][0] += duration
            span = (index, frame[1], start, end, parent,
                    threading.get_ident(), duration - frame[0])
            with self._lock:
                self.spans.append(span)

    def top(self, fn, *args, **kwargs):
        """Time one top-level call as a root ``sim.self`` span."""
        return self.call(0, fn, args, kwargs)

    # ------------------------------------------------------------------ #
    # Installation
    # ------------------------------------------------------------------ #
    def _wrap(self, index: int, fn, replay: str | None):
        """A span-recording stand-in for ``fn``; ``replay`` names a native
        replay entry point whose accesses are counted too."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if replay is not None and os.getpid() == tracer._pid:
                accesses = _replay_accesses(replay, args)
                with tracer._lock:
                    tracer.replay_accesses += accesses
            return tracer.call(index, fn, args, kwargs)
        return wrapper

    def _set(self, owner, attr, value) -> None:
        if isinstance(owner, dict):
            old = owner[attr]
            owner[attr] = value
            self._undo.append(lambda: owner.__setitem__(attr, old))
        else:
            old = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            setattr(owner, attr, value)
            self._undo.append(lambda: setattr(owner, attr, old))

    def install(self) -> None:
        """Wrap every boundary and rebind every reference to it."""
        swaps: dict[int, object] = {}
        for index, name in enumerate(NAMES[1:], start=1):
            for module, qualname in BOUNDARIES[name]:
                owner, attr = _resolve(module, qualname)
                fn = owner.__dict__[attr] if isinstance(owner, type) \
                    else getattr(owner, attr)
                replay = attr if name == "native.replay" else None
                wrapper = self._wrap(index, fn, replay)
                self._set(owner, attr, wrapper)
                swaps[id(fn)] = wrapper
        self.rebound = self._rebind(swaps)

    def _rebind(self, swaps: dict) -> int:
        """Point every other reference in ``repro.*`` at the wrappers."""
        count = 0

        def fix_defaults(fn) -> None:
            nonlocal count
            if not isinstance(fn, types.FunctionType):
                return
            if fn.__defaults__ and any(id(d) in swaps
                                       for d in fn.__defaults__):
                old = fn.__defaults__
                fn.__defaults__ = tuple(swaps.get(id(d), d) for d in old)
                self._undo.append(lambda: setattr(fn, "__defaults__", old))
                count += 1
            if fn.__kwdefaults__ and any(id(d) in swaps for d in
                                         fn.__kwdefaults__.values()):
                old = dict(fn.__kwdefaults__)
                fn.__kwdefaults__ = {k: swaps.get(id(v), v)
                                     for k, v in old.items()}
                self._undo.append(
                    lambda: setattr(fn, "__kwdefaults__", old))
                count += 1

        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "repro"
                                      or modname.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in swaps:
                    self._set(module, attr, swaps[id(value)])
                    count += 1
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in swaps:
                            self._set(value, key, swaps[id(item)])
                            count += 1
                elif isinstance(value, types.FunctionType):
                    fix_defaults(value)
                elif isinstance(value, type) and \
                        value.__module__ == modname:
                    for member in vars(value).values():
                        fix_defaults(member)
        return count

    def uninstall(self) -> None:
        """Restore every binding :meth:`install` changed."""
        while self._undo:
            self._undo.pop()()

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #
    def totals(self, first: int = 0) -> dict:
        """Busy self seconds and call counts per boundary, over the spans
        recorded since span number ``first``."""
        seconds = dict.fromkeys(NAMES, 0.0)
        calls = dict.fromkeys(NAMES, 0)
        for index, *_, self_s in self.spans[first:]:
            seconds[NAMES[index]] += self_s
            calls[NAMES[index]] += 1
        return {"seconds": seconds, "calls": calls,
                "replay_accesses": self.replay_accesses}

    def dump(self, path) -> None:
        """Write the recorded spans as JSON (one list per span)."""
        with open(path, "w") as handle:
            json.dump({"names": NAMES,
                       "fields": ["name", "id", "start", "end", "parent",
                                  "thread", "self_s"],
                       "spans": [[NAMES[s[0]], *s[1:]]
                                 for s in self.spans]}, handle)
