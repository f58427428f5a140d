"""Batched sweep engine: many cache configurations, one trace pass.

Every figure of the paper is a *sweep* — a miss/MPKI curve over many cache
sizes, policies, or schemes.  The seed implementation replayed the full
trace once per point through the object-model cache; this module separates
the *what* (a :class:`SweepSpec` describing all the points) from the *how*
(interchangeable simulation backends):

* ``object`` — the reference per-set policy-object model.  All configs of
  the sweep advance together in a single streaming pass over the trace
  (the trace is materialized and decoded once, not once per point).
* ``array``  — the numpy/native array cache
  (:mod:`repro.cache.arraycache`): each config is replayed by a compiled
  kernel, typically 10-30x faster than the object model.
* ``auto``   — the array backend for every policy (the matrix is total):
  bit-identical to the object model on the exact tier (LRU, LIP, SRRIP,
  PDP), seeded-deterministic on the randomized tier, miss-count-exact
  for Belady.  This is the default; ask for ``backend="object"``
  explicitly to stream the reference model.

One in-process engine, :func:`_simulate_chunk`, replays every sweep: the
plain ``(policy, size)`` sweep, spec-based configs, and the policy ×
scheme matrix (:func:`run_matrix_sweep`, whose cells are
:func:`matrix_configs`).  Every built cache with a ``replay_task`` becomes
one :class:`~repro.cache.threadbatch.ReplayTask` of a single
:func:`~repro.cache.threadbatch.run_tasks` call; object-model and builder
caches with no ``replay_task`` stream serially in one per-access pass.
Independent configs run in parallel by the one execution rule of
:func:`~repro.cache.threadbatch.resolve_parallel`, which follows from
whether the native kernel is present:

* with the kernel, that call is one GIL-releasing ``batch_run_threaded``
  dispatch into the native kernel (width from ``threads=``,
  ``max_workers`` or ``REPRO_THREADS``);
* without it (``REPRO_NATIVE=0``), each task runs its serial fallback,
  and independent configs fan out over a process pool when
  ``max_workers > 1`` (:func:`~repro.cache.threadbatch.fan_out`), with
  the address array shared through a
  :class:`~repro.workloads.tracestore.TraceStore` memmap so workers
  attach to one materialized trace instead of re-pickling it.

Results are independent of the execution strategy: every config derives a
deterministic seed from ``(base_seed, config index)``, so serial, batched,
threaded and pooled runs all agree bit for bit.

Example
-------
>>> spec = SweepSpec(sizes_mb=(1, 2, 4, 8), policies=("LRU", "SRRIP"))
>>> result = run_sweep(trace, spec)
>>> result.mpki_curve("LRU")        # MissCurve over the four sizes
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Hashable, Sequence

import numpy as np

from ..cache.cache import CacheStats
from ..cache.factory import BACKENDS, build_cache
from ..cache.hashing import derive_seed
from ..cache.threadbatch import (deal, fan_out, resolve_parallel, run_tasks,
                                 thread_width)
from ..core.misscurve import MissCurve
from ..workloads.access import Trace
from ..workloads.scale import paper_mb_to_lines
from ..workloads.tracestore import TraceHandle, TraceStore

__all__ = ["SweepConfig", "SweepSpec", "SweepResult", "run_sweep",
           "run_matrix_sweep", "matrix_cells", "matrix_configs",
           "MATRIX_SCHEMES", "DEFAULT_WAYS"]

#: Default associativity of simulated caches (scaled stand-in for the
#: paper's 32-way LLC).
DEFAULT_WAYS = 16


def _derive_seed(base_seed: int, policy: str, size_mb: float) -> int:
    """Deterministic per-config seed, a stable function of the point itself.

    Deriving from ``(policy, size)`` rather than the config's position in
    the sweep makes seeds independent of execution order and sweep
    composition: a point simulated alone, in a batched sweep, or in a
    process-pool worker always draws the same stream.  (The shared
    primitive is :func:`repro.cache.hashing.derive_seed`; the sampling
    driver derives its per-window seeds the same way.)
    """
    return derive_seed(base_seed, f"{policy}|{float(size_mb)!r}")


@dataclass(frozen=True)
class SweepConfig:
    """One point of a sweep.

    Standard points are ``(policy, size_mb)`` pairs simulated through
    :func:`repro.cache.factory.build_cache`.  Richer organizations ride
    the same engine two ways:

    * ``spec`` — a declarative :mod:`repro.cache.spec` spec
      (:class:`~repro.cache.spec.TalusSpec`, an explicit
      :class:`~repro.cache.spec.CacheSpec`, or a bare
      :class:`~repro.cache.spec.PartitionSpec`, which replays every
      access into partition 0).  Specs are picklable, so these configs
      can fan out over a process pool, and caches whose backend supports
      batched replay run one native-kernel pass instead of joining the
      per-access streaming loop.
    * ``builder`` — a zero-argument callable returning any object with an
      ``access(address) -> bool`` method (the legacy escape hatch, e.g.
      for custom policy factories).  Builder configs always run
      in-process.
    """

    key: Hashable
    size_mb: float
    policy: str = "LRU"
    ways: int = DEFAULT_WAYS
    seed: int | None = None
    policy_kwargs: tuple = ()
    builder: Callable[[], object] | None = field(
        default=None, compare=False)
    spec: object | None = None

    @property
    def capacity_lines(self) -> int:
        """Simulated capacity in lines."""
        return paper_mb_to_lines(self.size_mb)

    def build(self, backend: str, trace=None):
        """Instantiate the cache for this config on ``backend``.

        ``spec`` and ``builder`` configs carry their own backend choice;
        ``backend`` applies to the standard (policy, size) points.
        ``trace`` is attached to offline (Belady) configs whose spec does
        not already carry one — MIN replays exactly the sweep's trace.
        """
        if self.spec is not None:
            from ..cache.spec import build as build_spec
            spec = self.spec
            if (trace is not None and getattr(spec, "policy", None) == "Belady"
                    and getattr(spec, "trace", None) is None):
                spec = spec.with_trace(trace)
            return build_spec(spec)
        if self.builder is not None:
            return self.builder()
        if self.policy == "Belady":
            from ..cache.spec import CacheSpec
            spec = CacheSpec(capacity_lines=self.capacity_lines,
                             ways=self.ways, policy="Belady",
                             backend=backend,
                             policy_kwargs=self.policy_kwargs)
            if trace is not None:
                spec = spec.with_trace(trace)
            return spec.build()  # no trace -> the spec's clear error
        return build_cache(self.capacity_lines, ways=self.ways,
                           policy=self.policy, backend=backend,
                           seed=self.seed, **dict(self.policy_kwargs))


@dataclass(frozen=True)
class SweepSpec:
    """A full sweep: the cross product of sizes and policies.

    Parameters
    ----------
    sizes_mb:
        Target cache sizes in paper MB (deduplicated and sorted).
    policies:
        Replacement policies to sweep (one full size-curve each).
    ways:
        Associativity of every simulated cache.
    backend:
        "object", "array" or "auto" (see module docstring).
    max_workers:
        Above 1, the thread width when no explicit ``threads=`` is given
        (native kernel), or the process-pool width (without it).
    base_seed:
        Root of the deterministic per-config seed derivation for policies
        with randomized behaviour.  ``None`` (the default) keeps every
        policy's historical default seed, so sweeps reproduce the
        one-run-per-size reference exactly.
    """

    sizes_mb: tuple[float, ...]
    policies: tuple[str, ...] = ("LRU",)
    ways: int = DEFAULT_WAYS
    backend: str = "auto"
    max_workers: int = 1
    base_seed: int | None = None

    def __post_init__(self):
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}; "
                             f"known: {BACKENDS}")
        if self.max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if not self.policies:
            raise ValueError("policies must not be empty")
        sizes = tuple(sorted(set(float(s) for s in self.sizes_mb)))
        if not sizes:
            raise ValueError("sizes_mb must not be empty")
        object.__setattr__(self, "sizes_mb", sizes)
        object.__setattr__(self, "policies", tuple(self.policies))

    def expand(self) -> tuple[SweepConfig, ...]:
        """All sweep points, with deterministic per-config seeds."""
        configs = []
        for policy in self.policies:
            for size_mb in self.sizes_mb:
                seed = (None if self.base_seed is None
                        else _derive_seed(self.base_seed, policy, size_mb))
                configs.append(SweepConfig(
                    key=(policy, size_mb), size_mb=size_mb, policy=policy,
                    ways=self.ways, seed=seed))
        return tuple(configs)


class SweepResult:
    """Per-config statistics of a sweep, with curve helpers."""

    def __init__(self, stats: dict[Hashable, CacheStats],
                 instructions: int = 0):
        self.stats = stats
        self.instructions = instructions
        #: Per-config :class:`~repro.sampling.estimator.SampledResult`
        #: when the sweep ran with ``sampling=`` (else empty).  The
        #: entry is ``None`` for analytic points (zero capacity).
        self.sampled: dict[Hashable, object] = {}

    @classmethod
    def merge(cls, parts) -> "SweepResult":
        """Union of sweep results over disjoint config shards (the parts
        of one sharded sweep, e.g. supervised jobs)."""
        stats: dict[Hashable, CacheStats] = {}
        instructions = 0
        for part in parts:
            stats.update(part.stats)
            instructions = part.instructions or instructions
        return cls(stats, instructions=instructions)

    def __getitem__(self, key: Hashable) -> CacheStats:
        return self.stats[key]

    def __len__(self) -> int:
        return len(self.stats)

    def misses(self, key: Hashable) -> int:
        """Miss count of one sweep point."""
        return self.stats[key].misses

    def mpki(self, key: Hashable) -> float:
        """MPKI of one sweep point (needs trace instructions)."""
        stats = self.stats[key]
        instructions = stats.instructions or self.instructions
        if instructions <= 0:
            raise ValueError("instructions not recorded; cannot compute MPKI")
        return 1000.0 * stats.misses / instructions

    def mpki_curve(self, policy: str) -> MissCurve:
        """MPKI miss curve over all sizes recorded for ``policy``."""
        sizes = sorted(k[1] for k in self.stats
                       if isinstance(k, tuple) and len(k) == 2
                       and k[0] == policy)
        if not sizes:
            raise KeyError(f"no sweep points for policy {policy!r}")
        return MissCurve(np.asarray(sizes, dtype=float),
                         np.asarray([self.mpki((policy, s)) for s in sizes]))


def _extract_stats(cache) -> CacheStats:
    """Statistics of any cache organization the sweep can drive (a bare
    partitioned cache sums its per-partition stats)."""
    stats = getattr(cache, "stats", None)
    if isinstance(stats, CacheStats):
        return stats
    logical = getattr(cache, "logical_stats", None)
    if logical:
        return logical[0]
    partition_stats = getattr(cache, "partition_stats", None)
    if partition_stats:
        total = CacheStats()
        for s in partition_stats:
            total.accesses += s.accesses
            total.hits += s.hits
            total.misses += s.misses
        return total
    raise TypeError(f"cannot extract stats from {type(cache).__name__}")


def _addresses(trace) -> tuple[np.ndarray, int]:
    """A sweep trace as a contiguous int64 address array plus its
    instruction count (0 for a bare address sequence)."""
    if isinstance(trace, Trace):
        addrs = np.ascontiguousarray(trace.addresses, dtype=np.int64)
        instructions = trace.instructions
    else:
        addrs = np.ascontiguousarray(np.asarray(trace, dtype=np.int64))
        instructions = 0
    if addrs.ndim != 1:
        raise ValueError("trace must be one-dimensional")
    return addrs, instructions


def _all_miss_stats(n_accesses: int) -> CacheStats:
    """A zero-capacity config: every access misses."""
    return CacheStats(accesses=n_accesses, hits=0, misses=n_accesses)


def _stream_object_pass(addrs: np.ndarray, caches: Sequence[object]) -> None:
    """Advance every cache by one access per trace element, one trace pass
    (a bare partitioned cache takes every access into partition 0)."""
    accessors = [(lambda a, access=cache.access: access(a, 0))
                 if hasattr(cache, "partition_stats") else cache.access
                 for cache in caches]
    if len(accessors) == 1:
        access = accessors[0]
        for a in addrs.tolist():
            access(a)
        return
    for a in addrs.tolist():
        for access in accessors:
            access(a)


def _simulate_chunk(addrs: np.ndarray | TraceHandle, backend: str,
                    configs: Sequence[SweepConfig],
                    threads: int | None = None
                    ) -> list[tuple[Hashable, CacheStats]]:
    """Simulate a group of configs over one trace (worker entry point).

    Returns ``(key, stats)`` pairs in ``configs`` order.  ``addrs`` may be
    a :class:`TraceHandle`, which pool workers attach zero-copy instead of
    receiving the pickled array.  Every built cache with a
    ``replay_task`` becomes one :class:`ReplayTask` of a single
    :func:`run_tasks` call: one threaded native dispatch with the kernel
    (bit-identical to serial per-config replays at any ``threads``
    width), each task's serial fallback without it.  A bare partitioned
    cache replays every access into partition 0 through one all-zeros
    partition lane the whole call shares.  Caches with no
    ``replay_task`` (the object model) advance together in one
    per-access streaming pass.
    """
    if isinstance(addrs, TraceHandle):
        addrs = addrs.array()
    out = dict.fromkeys(config.key for config in configs)
    tasks, streamed = [], []
    lane = None
    for config in configs:
        if (config.spec is None and config.builder is None
                and config.capacity_lines <= 0):
            out[config.key] = _all_miss_stats(int(addrs.size))
            continue
        cache = config.build(backend, addrs)
        maker = getattr(cache, "replay_task", None)
        if maker is None:
            streamed.append((config.key, cache))
        elif hasattr(cache, "partition_stats"):
            if lane is None:
                lane = np.zeros(addrs.size, dtype=np.int64)
            tasks.append((config.key, cache, maker(addrs, lane)))
        else:
            tasks.append((config.key, cache, maker(addrs)))
    if tasks:
        run_tasks([task for _, _, task in tasks], threads=threads)
        out.update((key, _extract_stats(cache)) for key, cache, _ in tasks)
    if streamed:
        _stream_object_pass(addrs, [cache for _, cache in streamed])
        out.update((key, _extract_stats(cache)) for key, cache in streamed)
    return list(out.items())


def _run_sweep_sampled(trace, configs, sampling, *, backend: str,
                       max_workers: int,
                       threads: int | None, trace_store, supervise: bool,
                       bank) -> SweepResult:
    """The ``sampling=`` execution path of :func:`run_sweep`.

    Each config's MPKI comes from a sampled estimate
    (:func:`repro.sampling.driver.run_sampled`) instead of an exact
    replay; parallelism applies across each config's detailed windows.
    The trace may be a :class:`~repro.workloads.scale.ChunkedTrace` —
    it is never materialized.
    """
    from ..cache.spec import CacheSpec
    from ..sampling.driver import _as_view, run_sampled
    view = _as_view(trace)
    n = view.n_accesses
    instructions = int(view.instructions)
    stats: dict[Hashable, CacheStats] = {}
    sampled: dict[Hashable, object] = {}
    for config in configs:
        if config.builder is not None:
            raise ValueError(
                "builder-based sweep configs cannot run sampled: the "
                "sampling driver builds per-window caches from a "
                "picklable spec; describe the point with spec= or "
                "(policy, size) instead")
        if config.spec is not None:
            cache_spec = config.spec
        elif config.capacity_lines <= 0:
            stats[config.key] = _all_miss_stats(n)
            stats[config.key].instructions = instructions
            sampled[config.key] = None
            continue
        else:
            cache_spec = CacheSpec(
                capacity_lines=config.capacity_lines, ways=config.ways,
                policy=config.policy, backend=backend, seed=config.seed,
                policy_kwargs=config.policy_kwargs)
        result = run_sampled(
            trace, cache_spec, sampling,
            threads=threads, max_workers=max_workers,
            trace_store=trace_store, supervise=supervise, bank=bank)
        sampled[config.key] = result
        misses = int(round(result.estimated_misses))
        stats[config.key] = CacheStats(
            accesses=n, hits=n - misses, misses=misses,
            instructions=instructions)
    out = SweepResult(stats, instructions=instructions)
    out.sampled = sampled
    return out


#: Partitioning schemes :func:`run_matrix_sweep` covers.  "none" is a plain
#: (unpartitioned) set-associative cache; futility scaling is excluded —
#: it is the one scheme with no array twin, so it cannot join the single
#: threaded dispatch (sweep it separately with ``backend="object"``).
MATRIX_SCHEMES = ("none", "way", "set", "ideal", "vantage")


def matrix_cells(sizes_mb: Sequence[float],
                 policies: Sequence[str],
                 schemes: Sequence[str] = MATRIX_SCHEMES
                 ) -> tuple[tuple[str, str, float], ...]:
    """The ``(policy, scheme, size_mb)`` cells of a matrix sweep.

    One tuple per sweep point, in the deterministic order
    :func:`run_matrix_sweep` simulates (and keys) them; the cells of one
    ``(policy, scheme)`` row group contiguously.  Belady is offline with
    no partitioned organization, so its cells exist for scheme ``"none"``
    only — other schemes simply skip it.
    """
    cells = []
    for policy in policies:
        for scheme in schemes:
            if scheme not in MATRIX_SCHEMES:
                raise ValueError(
                    f"unknown matrix scheme {scheme!r}; known: "
                    f"{MATRIX_SCHEMES} (futility scaling has no array "
                    f"twin; sweep it separately with backend='object')")
            if policy == "Belady" and scheme != "none":
                continue
            for size_mb in sizes_mb:
                cells.append((policy, scheme, float(size_mb)))
    if not cells:
        raise ValueError("the matrix is empty: no (policy, scheme, size) "
                         "cells to simulate")
    return tuple(cells)


def matrix_configs(sizes_mb: Sequence[float],
                   policies: Sequence[str],
                   schemes: Sequence[str] = MATRIX_SCHEMES, *,
                   num_partitions: int = 1,
                   ways: int = DEFAULT_WAYS,
                   backend: str = "auto",
                   seed: int | None = None) -> tuple[SweepConfig, ...]:
    """The :func:`matrix_cells` of a matrix sweep as :class:`SweepConfig`
    points, keyed ``(policy, scheme, size_mb)``.

    Scheme ``"none"`` cells carry a :class:`~repro.cache.spec.CacheSpec`,
    the others a :class:`~repro.cache.spec.PartitionSpec` of
    ``num_partitions`` partitions (the sweep replays every access into
    partition 0).  Randomized policies get a per-cell seed derived from
    ``(seed, policy, scheme, size)`` — independent of sharding, so any
    grouping of the configs (supervised shards, job CLI) is
    bit-identical to one :func:`run_matrix_sweep` call.
    """
    from ..cache.factory import SEEDED_POLICIES
    from ..cache.spec import CacheSpec, PartitionSpec
    cells = matrix_cells(sizes_mb, policies, schemes)
    if num_partitions < 1:
        raise ValueError("num_partitions must be >= 1")
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; known: {BACKENDS}")
    configs = []
    for cell in cells:
        policy, scheme, size_mb = cell
        capacity = paper_mb_to_lines(size_mb)
        cell_seed = (None if seed is None or policy not in SEEDED_POLICIES
                     else _derive_seed(seed, f"{policy}|{scheme}", size_mb))
        if scheme == "none":
            spec = CacheSpec(capacity_lines=capacity, ways=ways,
                             policy=policy, backend=backend, seed=cell_seed)
        else:
            spec = PartitionSpec(
                scheme=scheme, capacity_lines=capacity,
                num_partitions=num_partitions, policy=policy, ways=ways,
                backend=backend,
                policy_kwargs=() if cell_seed is None
                else (("seed", cell_seed),))
        configs.append(SweepConfig(key=cell, size_mb=size_mb, policy=policy,
                                   ways=ways, spec=spec))
    return tuple(configs)


def run_matrix_sweep(trace: Trace | np.ndarray | Sequence[int],
                     *, sizes_mb: Sequence[float],
                     policies: Sequence[str] = ("LRU",),
                     schemes: Sequence[str] = MATRIX_SCHEMES,
                     num_partitions: int = 1,
                     ways: int = DEFAULT_WAYS,
                     backend: str = "auto",
                     threads: int | None = None,
                     seed: int | None = None) -> SweepResult:
    """Sweep the whole policy × scheme × size matrix in one threaded pass.

    :func:`run_sweep` over :func:`matrix_configs`: every cell — each
    replacement policy on each partitioning scheme at each size — becomes
    one :class:`~repro.cache.threadbatch.ReplayTask`, and with the native
    kernel the entire matrix executes as a single GIL-releasing
    ``batch_run_threaded`` dispatch over *one* shared copy of the trace (a
    :class:`~repro.workloads.tracestore.TraceStore` memmap).  Partitioned
    cells take every access into partition 0.  Results are keyed
    ``(policy, scheme, size_mb)`` and are bit-identical at any thread
    width.

    ``backend="object"`` instead streams every cell through the reference
    object model, access by access, on one core — the baseline
    ``benchmarks/bench_matrix_sweep.py`` measures the threaded matrix
    against.  A supervised, banked matrix is
    ``run_sweep(trace, matrix_configs(...), supervise=True, bank=...)``.
    """
    configs = matrix_configs(sizes_mb, policies, schemes,
                             num_partitions=num_partitions, ways=ways,
                             backend=backend, seed=seed)
    addrs, _ = _addresses(trace)
    store = TraceStore()
    try:
        # All cells replay the store's one materialized copy.  Keep this
        # put: it is the only workloads.trace_gen call in a timed
        # perfbench matrix_sweep run, whose traced check requires that
        # layer to be nonzero.
        shared = store.put(addrs).array()
        if isinstance(trace, Trace):
            shared = replace(trace, addresses=shared)
        return run_sweep(shared, configs, threads=threads)
    finally:
        store.close()


def run_sweep(trace: Trace | np.ndarray | Sequence[int],
              spec: SweepSpec | Sequence[SweepConfig],
              *, backend: str | None = None,
              max_workers: int | None = None,
              threads: int | None = None,
              trace_store: TraceStore | None = None,
              supervise: bool = False,
              bank=None,
              sampling=None) -> SweepResult:
    """Simulate every config of ``spec`` against ``trace``.

    The trace is materialized once; all configs consume the same address
    array.  With the object backend the configs advance together in a
    single streaming pass; with the array backend each config is replayed
    by the native kernel.  ``backend``/``max_workers`` override the spec.

    The fan-out follows whether the native kernel is present (module
    docstring): with it, all batch-capable configs execute in one threaded
    native dispatch (width from ``threads=``, else ``max_workers`` when
    above 1, else ``REPRO_THREADS`` or the usable core count); without it,
    standard and spec-based configs spread over a process pool when
    ``max_workers > 1``, sharing the trace through ``trace_store`` (a
    temporary store when not given).  Builder configs always run serially
    in-process because their closures may not be picklable.  Results are
    bit-identical regardless of the execution strategy.

    ``supervise=True`` (default off, preserving the in-process fast
    path) routes the sweep through the fault-tolerant job runtime
    (:mod:`repro.jobs`): supervised worker processes with heartbeat
    watchdogs and bounded retry, per-config results banked in ``bank``
    so interrupted sweeps resume.  Builder configs are rejected there
    (their closures are neither picklable nor content-addressable);
    results are bit-identical to the in-process path.

    ``sampling=`` (a :class:`~repro.sampling.driver.SamplingSpec`)
    switches every config to a *sampled* estimate: detailed windows out
    of the trace instead of an exact replay, with per-config
    :class:`~repro.sampling.estimator.SampledResult` objects (point
    estimate + confidence interval) in the returned result's
    ``.sampled`` dict.  The trace may then be a
    :class:`~repro.workloads.scale.ChunkedTrace` of 10^8+ accesses — it
    is never materialized.  ``supervise``/``bank`` compose with it
    (per-window banking); builder configs are rejected.
    """
    if isinstance(spec, SweepSpec):
        configs = spec.expand()
        backend = backend if backend is not None else spec.backend
        max_workers = (max_workers if max_workers is not None
                       else spec.max_workers)
    else:
        configs = tuple(spec)
        backend = backend if backend is not None else "auto"
        max_workers = max_workers if max_workers is not None else 1
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; known: {BACKENDS}")
    keys = [config.key for config in configs]
    if len(set(keys)) != len(keys):
        raise ValueError("sweep config keys must be unique")
    if sampling is not None:
        return _run_sweep_sampled(
            trace, configs, sampling, backend=backend,
            max_workers=max_workers, threads=threads,
            trace_store=trace_store, supervise=supervise, bank=bank)
    if supervise:
        from ..jobs import SweepJob, as_trace_source, run_jobs
        source = as_trace_source(trace)
        return SweepResult.merge(run_jobs(
            [SweepJob(trace=source, configs=shard, backend=backend)
             for shard in deal(configs, max_workers)],
            bank=bank, max_workers=max_workers))
    addrs, instructions = _addresses(trace)
    stats: dict[Hashable, CacheStats] = {}
    if resolve_parallel() == "threads":
        width = thread_width(threads, max_workers)
        stats.update(_simulate_chunk(addrs, backend, configs, threads=width))
    else:
        local = configs
        poolable = [c for c in configs if c.builder is None]
        if max_workers > 1 and len(poolable) > 1:
            stats.update(fan_out(_simulate_chunk, poolable, max_workers,
                                 backend, trace=addrs,
                                 trace_store=trace_store))
            local = [c for c in configs if c.builder is not None]
        stats.update(_simulate_chunk(addrs, backend, local))

    for config_stats in stats.values():
        if instructions and not config_stats.instructions:
            config_stats.instructions = instructions
    return SweepResult(stats, instructions=instructions)
