"""Thread-parallel batched replay over the native kernels.

The native replay kernels (:mod:`repro.cache._native`) release the GIL for
the duration of each call and keep *all* state in caller-owned arrays, so
N independent config replays are embarrassingly parallel: no two tasks
share a byte of mutable state.  This module is the Python side of the
``batch_run_threaded`` dispatcher in ``_sweepkernel.c``:

* a :class:`ReplayTask` packages one cache's replay of one trace — either
  as a flat ``BatchTask`` argument record for the native dispatcher, or as
  a pure-Python fallback closure when the cache (or the host) has no
  kernel path;
* :func:`run_tasks` packs all native tasks into one ctypes array, makes a
  *single* ``batch_run_threaded`` call (one GIL release, C worker threads
  inside), then commits each task's statistics.

A cache's ``replay_task`` is its one encoding of a kernel call: its
serial entry points (``run``, ``run_chunk``, ``run_partitioned``) are
one-task batches, ``run_tasks([cache.replay_task(...)], threads=1)``.
Results are therefore **bit-identical to serial execution at any thread
count**: the kernels never read another task's state, and each task's
misses land in its own ``result``/``miss_out`` slots.  ``REPRO_THREADS``
(or an explicit ``threads=``) controls the worker width.

Caches advertise the fast path by implementing ``replay_task``
(:class:`~repro.cache.arraycache.ArraySetAssociativeCache`,
:class:`~repro.cache.arraycache.ArrayBeladyCache`,
:class:`~repro.cache.partition.array.ArrayPartitionedCache`,
:class:`~repro.cache.partition.array.ArrayVantageCache`,
:class:`~repro.cache.talus_cache.TalusCache`).  Tasks built without a
kernel degrade to their fallback closure inside the same
:func:`run_tasks` call, so callers never special-case ``REPRO_NATIVE=0``.
"""

from __future__ import annotations

import ctypes
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterable, Sequence

import numpy as np

from ..workloads.tracestore import TraceStore
from ._native import BatchTask, get_kernel, native_available, resolve_threads

__all__ = ["ReplayTask", "run_tasks", "resolve_parallel", "thread_width",
           "deal", "fan_out", "i64_ptr", "u64_ptr"]


def resolve_parallel() -> str:
    """How the drivers fan independent work out: "threads" or "processes".

    The one execution rule, observed rather than chosen: with the native
    kernel (and therefore the GIL-releasing batch dispatcher) replays go
    through :func:`run_tasks` and mixes through a thread pool; without it
    the pure-Python replay would serialize on the GIL, so independent
    units fan out over a process pool (:func:`fan_out`) instead.
    """
    return "threads" if native_available() else "processes"


def thread_width(threads: int | None, max_workers: int = 1) -> int:
    """Width of a threaded dispatch: an explicit ``threads=``, else a
    driver's ``max_workers`` when above 1, else
    :func:`~repro.cache._native.resolve_threads`'s default."""
    if threads is None and max_workers > 1:
        threads = max_workers
    return resolve_threads(threads)


def deal(items: Iterable, n: int) -> list[list]:
    """Deal ``items`` round-robin into at most ``n`` non-empty groups.

    The one sharding rule of every process fan-out (:func:`fan_out`,
    supervised jobs, the job CLI).  Item ``i`` lands in group
    ``i % groups``; no group is empty, so empty input gives ``[]``.
    """
    items = list(items)
    n = max(1, min(int(n), len(items)))
    return [items[i::n] for i in range(n)] if items else []


def fan_out(fn: Callable, units: Sequence, workers: int, *args,
            trace=None, trace_store=None) -> list:
    """Run ``fn(source, *args, group)`` over ``deal(units, workers)``.

    The one process-pool fan-out of the drivers.  ``fn`` is a picklable
    module-level function returning one result per unit of its group, in
    group order; the results come back in ``units`` order.  ``trace``
    reaches every call as ``source``: an address array is put once into
    ``trace_store`` (a temporary store, closed on return, when not given)
    so workers attach one materialised copy instead of unpickling their
    own; anything else (a ``TraceHandle``, a ``ChunkedTrace``, ``None``)
    is passed as is.  A single group runs in-process on ``trace`` itself.
    """
    groups = deal(units, workers)
    if len(groups) < 2:
        return [result for group in groups
                for result in fn(trace, *args, group)]
    store, source = None, trace
    if isinstance(trace, np.ndarray):
        store = trace_store if trace_store is not None else TraceStore()
        source = store.put(trace)
    try:
        with ProcessPoolExecutor(max_workers=len(groups)) as pool:
            futures = [pool.submit(fn, source, *args, group)
                       for group in groups]
            results = [future.result() for future in futures]
    finally:
        if store is not None and trace_store is None:
            store.close()
    # Unit i was dealt to group i % n, at position i // n.
    n = len(groups)
    return [results[i % n][i // n] for i in range(len(units))]


def i64_ptr(array: np.ndarray):
    """``int64_t *`` for a C-contiguous int64 array (no copy, no cast).

    Raises rather than copies: these arrays are the caller's live
    simulation state, and a silent copy would discard the kernel's writes.
    """
    if array.dtype != np.int64 or not array.flags["C_CONTIGUOUS"]:
        raise ValueError("state arrays must be C-contiguous int64")
    return array.ctypes.data_as(ctypes.POINTER(ctypes.c_int64))


def u64_ptr(array: np.ndarray):
    """``uint64_t *`` for a C-contiguous uint64 array (see :func:`i64_ptr`)."""
    if array.dtype != np.uint64 or not array.flags["C_CONTIGUOUS"]:
        raise ValueError("RNG state must be C-contiguous uint64")
    return array.ctypes.data_as(ctypes.POINTER(ctypes.c_uint64))


class ReplayTask:
    """One cache's replay of one trace, executable in a threaded batch.

    Parameters
    ----------
    fields:
        ``BatchTask`` member values (pointers from :func:`i64_ptr` /
        :func:`u64_ptr`, plain ints, and ``epsilon`` as float) for the
        native dispatcher, or ``None`` when this task can only run through
        its fallback.
    refs:
        Arrays that must stay alive while the kernel may dereference the
        packed pointers (the address trace and any buffers created for
        this task; long-lived cache state is kept alive by the cache).
    commit:
        Called with the task's non-negative kernel result after the batch
        returns; folds the replay into the cache's statistics.
    fallback:
        Zero-argument closure replaying through the cache's Python path
        (statistics included) — used when ``fields`` is ``None``.
    misses:
        Optional caller-visible per-partition miss array (partitioned
        kinds); the kernel writes it in place, the fallback must fill it.
    """

    __slots__ = ("fields", "refs", "misses", "_commit", "_fallback",
                 "_after")

    def __init__(self, *, fields: dict | None = None,
                 refs: Sequence[np.ndarray] = (),
                 commit: Callable[[int], None] | None = None,
                 fallback: Callable[[], None] | None = None,
                 misses: np.ndarray | None = None):
        if fields is None and fallback is None:
            raise ValueError("a ReplayTask needs fields or a fallback")
        self.fields = fields
        self.refs = tuple(refs)
        self.misses = misses
        self._commit = commit
        self._fallback = fallback
        self._after: list[Callable[[], None]] = []

    @property
    def native(self) -> bool:
        """Whether this task joins the native batched dispatch."""
        return self.fields is not None

    def add_callback(self, hook: Callable[[], None]) -> "ReplayTask":
        """Chain a post-commit hook (runs on both paths, in add order).

        This is how wrappers fold their own statistics on top of the base
        cache's commit — e.g. :class:`~repro.cache.talus_cache.TalusCache`
        adding its logical-partition fold over the partitioned base task.
        """
        self._after.append(hook)
        return self

    def commit(self, result: int) -> None:
        """Fold a finished native task into the cache's statistics."""
        if result < 0:
            raise RuntimeError(
                f"native batched replay rejected a task (result={result})")
        if self._commit is not None:
            self._commit(int(result))
        for hook in self._after:
            hook()

    def run_fallback(self) -> None:
        """Replay through the Python fallback (identical results)."""
        self._fallback()
        for hook in self._after:
            hook()


def run_tasks(tasks: Iterable[ReplayTask],
              threads: int | None = None) -> list[ReplayTask]:
    """Execute a batch of independent replay tasks, threaded when possible.

    All native tasks are packed into one ctypes array and dispatched in a
    single ``batch_run_threaded`` call — the GIL is released once for the
    whole batch and the C worker threads claim tasks from an atomic work
    queue.  Fallback-only tasks then run serially in submission order.
    ``threads`` defaults to :func:`~repro.cache._native.resolve_threads`
    (``REPRO_THREADS`` or the host core count); any width, including 1,
    produces bit-identical results.
    """
    tasks = list(tasks)
    native = [t for t in tasks if t.native]
    if native:
        kernel = get_kernel()
        if kernel is None:
            # Tasks were built against a kernel that has since become
            # unavailable (should not happen: replay_task checks first).
            raise RuntimeError("native kernel unavailable for batched tasks")
        packed = (BatchTask * len(native))()
        for slot, task in zip(packed, native):
            for name, value in task.fields.items():
                setattr(slot, name, value)
        kernel.batch_run_threaded(packed, len(native),
                                  resolve_threads(threads))
        for slot, task in zip(packed, native):
            task.commit(int(slot.result))
    for task in tasks:
        if not task.native:
            task.run_fallback()
    return tasks
