"""Sampled simulation driver: detailed windows out of a long trace.

The pFSA/SMARTS recipe for traces too long to replay exactly:

1. place *detailed windows* through the trace (:class:`SamplingSpec`:
   window length plus an inter-window gap or a target window count);
2. warm each window's cache state — either per-window
   (``warming="window"``: replay a bounded warmup prefix into a cold
   cache and discard its statistics) or by a serial *functional
   fast-forward* pass that streams the whole trace once and emits a
   :class:`~repro.sampling.checkpoint.CacheCheckpoint` at every window
   boundary (``warming="checkpoint"``);
3. simulate the windows in detail through one window engine,
   :func:`simulate_window_units`: every window's warmup, then every
   window, as two :func:`~repro.cache.threadbatch.run_tasks` batches —
   threaded and native when the kernel is present, each task's serial
   fallback otherwise, where the units may fan over a process pool
   (``max_workers > 1``, the trace shared through a
   :class:`~repro.workloads.tracestore.TraceStore` memmap or generated on
   demand from a :class:`~repro.workloads.scale.ChunkedTrace`);
4. aggregate the per-window miss rates into a point estimate with a
   confidence interval (:class:`~repro.sampling.estimator.SampledResult`).

``warming="window"`` is what buys wall-clock speedup: only
``n_windows * (warmup + window)`` accesses are ever simulated (and, for
a :class:`ChunkedTrace`, *generated*).  ``warming="checkpoint"`` still
pays one full-speed pass but yields *exact* warm state — every window
then reproduces the uninterrupted replay bit for bit, which is how the
tests prove the checkpoint layer end to end — and is the natural mode
when many policies/sizes will be sampled from the same warmed positions.
In this codebase the fast-forward runs at full fidelity: the array
kernels are already tag/recency-only (there is no data state to skip),
so reduced-fidelity warming would change nothing.

Determinism: windows draw per-window seeds through the shared
identity-derived helper (:func:`repro.cache.hashing.derive_seed`, token
``"sampling-window|<start>"``) — a function of the window's *position*,
never of execution order, worker identity or resume history — so
serial, threaded, pooled and resumed-from-bank runs are bit-identical.

``supervise=True`` routes the windows through the fault-tolerant job
runtime (:mod:`repro.jobs`): each window banks under its own content
address, so a SIGKILLed worker resumes mid-estimate without recomputing
finished windows.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..cache.cache import CacheStats
from ..cache.factory import SEEDED_POLICIES
from ..cache.hashing import derive_seed
from ..cache.spec import CacheSpec, PartitionSpec, TalusSpec, build
from ..cache.talus_cache import TalusCache
from ..cache.threadbatch import (ReplayTask, deal, fan_out, resolve_parallel,
                                 run_tasks, thread_width)
from ..workloads.access import Trace
from ..workloads.scale import ChunkedTrace
from ..workloads.tracestore import TraceHandle, TraceStore
from .checkpoint import CacheCheckpoint, snapshot
from .estimator import SampledResult, WindowResult

__all__ = ["SamplingSpec", "run_sampled", "run_exact", "warm_checkpoints",
           "window_seed"]

WARMING_MODES = ("window", "checkpoint")

#: Fast-forward / exact-replay streaming chunk (accesses per step).
DEFAULT_CHUNK = 1 << 16


def window_seed(base_seed: int, start: int) -> int:
    """Identity-derived seed of the window at trace position ``start``."""
    return derive_seed(base_seed, f"sampling-window|{int(start)}")


@dataclass(frozen=True)
class SamplingSpec:
    """Declarative description of one sampled replay.

    Exactly one of ``gap`` (accesses skipped between consecutive
    windows) or ``n_windows`` (evenly spaced window count) places the
    windows; ``offset`` shifts the first window (set it to at least
    ``warmup`` so even the first window gets a full warmup prefix).
    """

    window: int                 #: detailed window length in accesses
    gap: int | None = None      #: accesses between consecutive windows
    n_windows: int | None = None  #: alternatively: evenly spaced count
    warmup: int | None = None   #: per-window warmup accesses
    confidence: float = 0.95    #: two-sided confidence level of the CI
    warming: str = "window"     #: "window" | "checkpoint"
    offset: int = 0             #: trace position of the first window
    base_seed: int | None = None  #: root of per-window seed derivation

    def __post_init__(self):
        if self.window <= 0:
            raise ValueError("window must be positive")
        if (self.gap is None) == (self.n_windows is None):
            raise ValueError("set exactly one of gap= or n_windows=")
        if self.gap is not None and self.gap < 0:
            raise ValueError("gap must be non-negative")
        if self.n_windows is not None and self.n_windows <= 0:
            raise ValueError("n_windows must be positive")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError("confidence must be in (0, 1)")
        if self.warming not in WARMING_MODES:
            raise ValueError(f"warming must be one of {WARMING_MODES}, "
                             f"got {self.warming!r}")
        if self.offset < 0:
            raise ValueError("offset must be non-negative")
        if self.warmup is not None and self.warmup < 0:
            raise ValueError("warmup must be non-negative")

    @property
    def warmup_accesses(self) -> int:
        """Effective warmup length (default: two windows; 0 when the
        checkpoint pass provides exact warm state)."""
        if self.warmup is not None:
            return self.warmup
        return 2 * self.window if self.warming == "window" else 0

    def windows_for(self, n_accesses: int) -> tuple[tuple[int, int], ...]:
        """Systematic ``(start, stop)`` window placement over a trace."""
        w = self.window
        if self.offset + w > n_accesses:
            raise ValueError(
                f"trace of {n_accesses} accesses cannot fit one "
                f"{w}-access window at offset {self.offset}")
        if self.n_windows is not None:
            span = n_accesses - self.offset
            period = max(w, span // self.n_windows)
            starts = [self.offset + k * period
                      for k in range(self.n_windows)]
            starts = [s for s in starts if s + w <= n_accesses]
        else:
            starts = list(range(self.offset, n_accesses - w + 1,
                                w + self.gap))
        return tuple((s, s + w) for s in starts)


# --------------------------------------------------------------------- #
# Trace views: uniform random access over every trace flavour
# --------------------------------------------------------------------- #
@dataclass
class _ArrayView:
    addresses: np.ndarray
    instructions: int = 0

    @property
    def n_accesses(self) -> int:
        return int(self.addresses.size)

    def segment(self, start: int, stop: int) -> np.ndarray:
        return self.addresses[max(0, start):stop]


def _as_view(trace):
    """Anything the driver accepts -> an object with ``segment``/
    ``n_accesses``/``instructions`` (ChunkedTrace already is one)."""
    if isinstance(trace, ChunkedTrace):
        return trace
    if isinstance(trace, _ArrayView):
        return trace
    if isinstance(trace, TraceHandle):
        return _ArrayView(trace.array(), int(trace.instructions))
    if isinstance(trace, Trace):
        return _ArrayView(
            np.ascontiguousarray(trace.addresses, dtype=np.int64),
            int(trace.instructions))
    addrs = np.ascontiguousarray(np.asarray(trace, dtype=np.int64))
    if addrs.ndim != 1:
        raise ValueError("trace must be one-dimensional")
    return _ArrayView(addrs)


def _check_cache_spec(cache):
    if isinstance(cache, (CacheSpec, TalusSpec)):
        return cache
    if isinstance(cache, PartitionSpec):
        raise ValueError(
            "run_sampled drives single-stream caches; a bare PartitionSpec "
            "needs per-access partition ids — wrap it in a TalusSpec or "
            "sample each partition's stream separately")
    raise TypeError(f"cache must be a CacheSpec or TalusSpec, "
                    f"got {type(cache).__name__}")


def _spec_with_seed(cache, seed):
    if seed is None or not isinstance(cache, CacheSpec):
        return cache
    return replace(cache, seed=seed)


def _seeded(cache) -> bool:
    return isinstance(cache, CacheSpec) and cache.policy in SEEDED_POLICIES


def _replay(cache, addrs) -> None:
    if len(addrs) == 0:
        return
    if isinstance(cache, TalusCache):
        cache.run(addrs, 0)
    else:
        cache.run(addrs)


def _replay_task(cache, addrs) -> ReplayTask:
    """This cache's ReplayTask for ``addrs``; a cache with no batch entry
    point (object backend) gets a task whose fallback is :func:`_replay`."""
    maker = getattr(cache, "replay_task", None)
    if maker is None:
        return ReplayTask(fallback=lambda: _replay(cache, addrs))
    if isinstance(cache, TalusCache):
        return maker(addrs, 0)
    return maker(addrs)


def _counts(cache) -> tuple[int, int]:
    """(accesses, misses) consumed by ``cache`` so far."""
    stats = (cache.total_stats() if isinstance(cache, TalusCache)
             else cache.stats)
    return int(stats.accesses), int(stats.misses)


# --------------------------------------------------------------------- #
# Window units (shared by the serial, pooled and supervised paths)
# --------------------------------------------------------------------- #
def window_units(spec: SamplingSpec, cache, n_accesses: int) -> tuple:
    """Per-window work units ``(index, warm_start, start, stop, seed)``.

    Seeds are derived here, in the parent, as a pure function of window
    identity — executors (threads, pools, supervised workers, bank
    resumes) receive them readymade and cannot diverge.
    """
    windows = spec.windows_for(n_accesses)
    warmup = spec.warmup_accesses
    seeded = spec.base_seed is not None and _seeded(cache)
    units = []
    for index, (start, stop) in enumerate(windows):
        seed = window_seed(spec.base_seed, start) if seeded else None
        units.append((index, start - min(warmup, start), start, stop, seed))
    return tuple(units)


def simulate_window_units(source, cache, units,
                          threads: int | None = None) -> list[tuple]:
    """Replay window units against ``source`` (the one window engine).

    ``source`` may be a ChunkedTrace, TraceHandle, Trace or address
    array; returns ``(index, start, accesses, misses, warmup)`` tuples.
    A unit's last field is its per-window seed (:func:`window_units`), or
    under ``warming="checkpoint"`` the window's warm
    :class:`~repro.sampling.checkpoint.CacheCheckpoint`.  Every window
    gets its own cache, and the units replay as two :func:`run_tasks`
    batches — all warmups, then all windows — threaded and native with
    the kernel, each task's serial fallback without it.  Pure function of
    its arguments: the threaded, pooled and supervised legs all funnel
    through it and agree bit for bit.
    """
    view = _as_view(source)
    replayers = [state.build() if isinstance(state, CacheCheckpoint)
                 else build(_spec_with_seed(cache, state))
                 for *_, state in units]
    run_tasks([_replay_task(replayer, view.segment(warm_start, start))
               for replayer, (_, warm_start, start, _, _)
               in zip(replayers, units) if start > warm_start],
              threads=threads)
    baselines = [_counts(replayer) for replayer in replayers]
    run_tasks([_replay_task(replayer, view.segment(start, stop))
               for replayer, (_, _, start, stop, _) in zip(replayers, units)],
              threads=threads)
    out = []
    for replayer, (index, warm_start, start, _, _), (a0, m0) in zip(
            replayers, units, baselines):
        a1, m1 = _counts(replayer)
        out.append((index, start, a1 - a0, m1 - m0, start - warm_start))
    return out


# --------------------------------------------------------------------- #
# Functional-warming fast-forward
# --------------------------------------------------------------------- #
def warm_checkpoints(trace, cache, spec: SamplingSpec, *,
                     chunk: int = DEFAULT_CHUNK) -> list[CacheCheckpoint]:
    """Stream the trace once, emitting a checkpoint at each window start.

    The serial functional-warming pass of ``warming="checkpoint"``: the
    cache consumes every access (windows included — state at window
    ``k`` reflects the full prefix), and the returned checkpoints carry
    ``position`` = the window's start.  The trace is consumed in
    ``chunk``-access steps, so a :class:`ChunkedTrace` is never
    materialized.
    """
    _check_cache_spec(cache)
    view = _as_view(trace)
    windows = spec.windows_for(view.n_accesses)
    replayer = build(cache)
    checkpoints = []
    pos = 0
    for start, _ in windows:
        while pos < start:
            step = min(chunk, start - pos)
            _replay(replayer, view.segment(pos, pos + step))
            pos += step
        checkpoints.append(snapshot(replayer, position=start))
    return checkpoints


def run_exact(trace, cache, *, chunk: int = DEFAULT_CHUNK) -> CacheStats:
    """Exact streaming replay of the whole trace (the validation
    baseline for :func:`run_sampled`; works on a ChunkedTrace without
    materializing it)."""
    _check_cache_spec(cache)
    view = _as_view(trace)
    replayer = build(cache)
    pos = 0
    while pos < view.n_accesses:
        _replay(replayer, view.segment(pos, pos + chunk))
        pos += chunk
    accesses, misses = _counts(replayer)
    return CacheStats(accesses=accesses, hits=accesses - misses,
                      misses=misses, instructions=view.instructions)


# --------------------------------------------------------------------- #
# Driver
# --------------------------------------------------------------------- #
def run_sampled(trace, cache, spec: SamplingSpec, *,
                threads: int | None = None,
                max_workers: int | None = None,
                trace_store: TraceStore | None = None,
                supervise: bool = False, bank=None, queue=None,
                faults=None) -> SampledResult:
    """Estimate ``cache``'s MPKI on ``trace`` from sampled windows.

    Parameters mirror :func:`repro.sim.sweep.run_sweep`.  With the native
    kernel the windows run as one GIL-releasing native batch (``threads``
    wide); without it they spread over a process pool when
    ``max_workers > 1`` (windows sharded round-robin; the trace rides a
    TraceStore memmap, or is regenerated block-on-demand when it is a
    :class:`ChunkedTrace`).  ``supervise=True`` runs the windows through
    the fault-tolerant job runtime with per-window banking in ``bank``
    (``faults`` is the fault-injection hook, tests only).  Results are
    bit-identical across all execution strategies.

    Returns a :class:`~repro.sampling.estimator.SampledResult`; compare
    against :func:`run_exact` with ``result.error_vs_exact(...)``.
    """
    _check_cache_spec(cache)
    view = _as_view(trace)
    n = view.n_accesses
    max_workers = max_workers if max_workers is not None else 1
    # What pool workers receive: a ChunkedTrace or TraceHandle as is, else
    # the address array (fan_out shares it through one TraceStore).
    pool_source = (trace if isinstance(trace, (ChunkedTrace, TraceHandle))
                   else view.addresses)

    if spec.warming == "checkpoint":
        if supervise:
            raise ValueError(
                "warming='checkpoint' is a serial validation pass and is "
                "not supervised; use warming='window' with supervise=True")
        units = tuple((i, ckpt.position, ckpt.position,
                       ckpt.position + spec.window, ckpt)
                      for i, ckpt in enumerate(
                          warm_checkpoints(trace, cache, spec)))
    else:
        units = window_units(spec, cache, n)
    if supervise:
        from ..jobs import SamplingJob, as_trace_source, run_jobs
        source = as_trace_source(trace)
        shards = run_jobs(
            [SamplingJob(trace=source, cache=cache, units=shard,
                         fault=None if faults is None
                         else faults.get(index))
             for index, shard in enumerate(deal(units, max_workers))],
            bank=bank, queue=queue, max_workers=max_workers)
        rows = [row for shard in shards for row in shard]
    elif resolve_parallel() == "threads":
        rows = simulate_window_units(view, cache, units,
                                     thread_width(threads, max_workers))
    else:
        rows = fan_out(simulate_window_units, units, max_workers, cache,
                       trace=pool_source, trace_store=trace_store)

    windows = tuple(WindowResult(index=index, start=start,
                                 accesses=accesses, misses=misses,
                                 warmup_accesses=warmup)
                    for index, start, accesses, misses, warmup
                    in sorted(rows))
    return SampledResult(windows=windows, total_accesses=n,
                         instructions=view.instructions,
                         confidence=spec.confidence, warming=spec.warming)
