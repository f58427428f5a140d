"""Thread-determinism tests for the batched native dispatcher.

The contract under test (docs/ARCHITECTURE.md, "Threading model"): a
:class:`~repro.cache.threadbatch.ReplayTask` batch produces **bit-identical
results at any thread count** — the tasks share no mutable state, so the
worker width only changes wall-clock time, never a single counter.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.cache import _native
from repro.cache._native import resolve_threads
from repro.cache.arraycache import (ARRAY_POLICIES, ArrayBeladyCache,
                                   ArraySetAssociativeCache)
from repro.cache.partition.array import (ArrayPartitionedCache,
                                         ArrayVantageCache)
from repro.cache.talus_cache import TalusCache
from repro.cache.threadbatch import (ReplayTask, fan_out, i64_ptr,
                                     resolve_parallel, run_tasks,
                                     thread_width, u64_ptr)
from repro.sim.sweep import SweepSpec, run_sweep
from repro.workloads.generators import zipfian

#: Thread widths every determinism test sweeps (1 is the serial loop).
WIDTHS = (1, 2, 8)

#: The per-kernel replay bindings; every replay goes through the batch
#: dispatcher instead, so no serial entry point may call one of these.
REPLAY_METHODS = ("lru_run", "rrip_run", "dip_run", "pdp_run", "random_run",
                  "part_lru_run", "part_srrip_run", "tadrrip_run",
                  "belady_run", "vantage_run")

#: Chunk boundaries of the single-path replays (the middle one is empty).
CHUNKS = (slice(0, 2_500), slice(2_500, 2_500), slice(2_500, None))


def _trace(n=20_000, seed=3):
    return zipfian(8_000, n, seed=seed).addresses


def _drop_kernel(monkeypatch):
    """Run the rest of the test as ``REPRO_NATIVE=0`` would."""
    monkeypatch.setattr(_native, "_kernel", None)
    monkeypatch.setattr(_native, "_kernel_tried", True)


def _sweep_records(result):
    return {key: (s.accesses, s.hits, s.misses)
            for key, s in result.stats.items()}


def _shard_rows(source, scale, group):
    """A fan_out worker: one row per unit, tagged with the worker's pid.

    Pool workers get the trace as a TraceHandle; in-process calls get it
    as passed."""
    if hasattr(source, "array"):
        source = source.array()
    total = 0 if source is None else int(np.sum(source))
    return [(unit, unit * scale + total, os.getpid()) for unit in group]


def _single_path_scenarios():
    """``(name, build, serial, task)`` per serial entry point: ``serial``
    replays one chunk through the entry point, ``task`` builds the same
    chunk's replay task."""
    addrs = _trace(6_000)
    parts = np.arange(addrs.size, dtype=np.int64) % 4
    tids = (np.arange(addrs.size, dtype=np.int64) // 7) % 4

    def plain(policy, **kwargs):
        return lambda: ArraySetAssociativeCache(32, 4, policy=policy,
                                                **kwargs)

    def partitioned(scheme, policy, sizes=None):
        def build():
            if scheme == "vantage":
                return ArrayVantageCache(512, 4, policy=policy)
            cache = ArrayPartitionedCache(scheme, 512, 4, policy=policy,
                                          ways=8)
            if sizes is not None:
                cache.reallocate(sizes)
            return cache
        return build

    def talus(base, rate):
        def build():
            cache = TalusCache(base(), num_logical=2)
            cache.shadow_pair(1).sampler.set_rate(rate)
            return cache
        return build

    run = (lambda c, s: c.run(addrs[s]), lambda c, s: c.replay_task(addrs[s]))
    run_chunk = (lambda c, s: c.run_chunk(addrs[s]),
                 lambda c, s: c.replay_task(addrs[s]))
    threaded = (lambda c, s: c.run_chunk(addrs[s], thread_ids=tids[s]),
                lambda c, s: c.replay_task(addrs[s], thread_ids=tids[s]))
    tagged = (lambda c, s: c.run_partitioned(addrs[s], parts[s]),
              lambda c, s: c.replay_task(addrs[s], parts[s]))
    logical = (lambda c, s: c.run_chunk(addrs[s], 1),
               lambda c, s: c.replay_task(addrs[s], 1))
    scenarios = [(policy, plain(policy), *run)
                 for policy in ARRAY_POLICIES
                 if policy not in ("Belady", "TA-DRRIP")]
    scenarios += [
        ("TA-DRRIP", plain("TA-DRRIP", num_streams=4), *threaded),
        ("Belady", lambda: ArrayBeladyCache(600, addrs), *run_chunk),
        ("way LRU", partitioned("way", "LRU"), *tagged),
        ("set SRRIP", partitioned("set", "SRRIP"), *tagged),
        ("ideal LRU", partitioned("ideal", "LRU"), *tagged),
        # Reallocating partition 1 to nothing resize_ways(0)s its region.
        ("ideal PDP, one zero-way region",
         partitioned("ideal", "PDP", [256, 0, 128, 128]), *tagged),
        ("way DRRIP", partitioned("way", "DRRIP"), *tagged),
        ("vantage LRU", partitioned("vantage", "LRU"), *tagged),
        ("vantage DRRIP", partitioned("vantage", "DRRIP"), *tagged),
        ("talus on way", talus(partitioned("way", "LRU"), 0.4), *logical),
        ("talus on vantage", talus(partitioned("vantage", "SRRIP"), 0.6),
         *logical),
    ]
    return scenarios


def _state_digest(cache):
    return (cache.stats.accesses, cache.stats.hits, cache.stats.misses,
            int(cache.tags.sum()), int(cache.stamp.sum()))


class TestResolvers:
    def test_resolve_threads_precedence(self, monkeypatch):
        monkeypatch.setenv("REPRO_THREADS", "3")
        assert resolve_threads(5) == 5          # explicit beats env
        assert resolve_threads() == 3           # env beats the host
        monkeypatch.delenv("REPRO_THREADS")
        assert resolve_threads() >= 1           # host floor
        assert resolve_threads(0) == 1          # clamped to 1
        monkeypatch.setenv("REPRO_THREADS", "lots")
        with pytest.raises(ValueError, match="REPRO_THREADS"):
            resolve_threads()

    def test_resolve_threads_counts_the_affinity_set(self, monkeypatch):
        """Under a cpuset or taskset limit the default width is the cores
        this process may run on, not the host's core count."""
        monkeypatch.delenv("REPRO_THREADS", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5},
                            raising=False)
        assert resolve_threads() == 3
        monkeypatch.delattr(os, "sched_getaffinity")
        assert resolve_threads() == 64          # no affinity API

    def test_thread_width_precedence(self, monkeypatch):
        monkeypatch.setenv("REPRO_THREADS", "3")
        assert thread_width(5, max_workers=4) == 5   # explicit threads
        assert thread_width(None, max_workers=4) == 4
        assert thread_width(None, max_workers=1) == 3  # then the default

    def test_resolve_parallel(self):
        expected = "threads" if _native.native_available() else "processes"
        assert resolve_parallel() == expected

    def test_pointer_helpers_never_copy(self):
        with pytest.raises(ValueError, match="int64"):
            i64_ptr(np.zeros(4, dtype=np.float64))
        with pytest.raises(ValueError, match="contiguous"):
            i64_ptr(np.zeros((4, 4), dtype=np.int64)[:, 0])
        with pytest.raises(ValueError, match="uint64"):
            u64_ptr(np.zeros(4, dtype=np.int64))


class TestReplayTaskDeterminism:
    """Bit-identity of threaded batches vs the serial entry points."""

    @pytest.mark.parametrize("policy", ["LRU", "SRRIP", "PDP"])
    def test_single_policy_all_widths(self, policy):
        addrs = _trace()
        serial = ArraySetAssociativeCache(64, 8, policy=policy)
        serial.run(addrs)
        for width in WIDTHS:
            cache = ArraySetAssociativeCache(64, 8, policy=policy)
            run_tasks([cache.replay_task(addrs)], threads=width)
            assert _state_digest(cache) == _state_digest(serial), \
                (policy, width)

    def test_many_tasks_all_widths(self):
        """A full batch (several policies and sizes at once) stays
        bit-identical at every width — the acceptance shape of the
        dispatcher itself."""
        addrs = _trace()
        configs = [(sets, ways, policy)
                   for policy in ("LRU", "SRRIP", "PDP")
                   for sets, ways in ((16, 4), (64, 8), (256, 4))]
        serial = [ArraySetAssociativeCache(s, w, policy=p)
                  for s, w, p in configs]
        for cache in serial:
            cache.run(addrs)
        for width in WIDTHS:
            batch = [ArraySetAssociativeCache(s, w, policy=p)
                     for s, w, p in configs]
            run_tasks([c.replay_task(addrs) for c in batch], threads=width)
            for ref, cache in zip(serial, batch):
                assert _state_digest(cache) == _state_digest(ref), width

    def test_partitioned_kernel_all_widths(self):
        addrs = _trace(12_000)
        parts = (np.arange(addrs.size, dtype=np.int64) % 4)
        serial = ArrayPartitionedCache("way", 4096, 4, policy="SRRIP")
        _, serial_misses = serial.run_partitioned(addrs, parts)
        for width in WIDTHS:
            cache = ArrayPartitionedCache("way", 4096, 4, policy="SRRIP")
            task = cache.replay_task(addrs, parts)
            run_tasks([task], threads=width)
            assert np.array_equal(task.misses, serial_misses), width
            for p in range(4):
                assert (cache.partition_stats[p].misses
                        == serial.partition_stats[p].misses), (p, width)

    def test_talus_on_vantage_all_widths(self):
        addrs = _trace(12_000)
        serial = TalusCache(ArrayVantageCache(4096, 4), num_logical=2)
        serial.run(addrs, 1)
        for width in WIDTHS:
            cache = TalusCache(ArrayVantageCache(4096, 4), num_logical=2)
            run_tasks([cache.replay_task(addrs, logical=1)], threads=width)
            assert (cache.logical_stats[1].misses
                    == serial.logical_stats[1].misses), width
            assert (cache.base.partition_stats[2].misses
                    == serial.base.partition_stats[2].misses), width

    def test_run_sweep_modes_identical(self, monkeypatch):
        """The two execution legs — the threaded native dispatch at any
        width, and the process pool without the kernel — agree."""
        trace = zipfian(8_000, 15_000, seed=5)
        spec = SweepSpec(sizes_mb=(0.5, 1.0), policies=("LRU", "SRRIP"))
        base = _sweep_records(run_sweep(trace, spec, threads=1))
        results = {"threads=8": run_sweep(trace, spec, threads=8),
                   "max_workers=2": run_sweep(trace, spec, max_workers=2)}
        _drop_kernel(monkeypatch)
        results["serial"] = run_sweep(trace, spec)
        results["pool"] = run_sweep(trace, spec, max_workers=2)
        for leg, result in results.items():
            assert _sweep_records(result) == base, leg


@pytest.mark.skipif(not _native.native_available(),
                    reason="needs the native kernel")
class TestSinglePath:
    """Every serial entry point executes its own ``replay_task``."""

    def test_serial_entry_points_are_one_task_batches(self, monkeypatch):
        """With the per-kernel replay bindings disabled, every serial
        entry point — plain policies, TA-DRRIP streams, chunked Belady,
        way/set/ideal/Vantage partitions, Talus, an empty chunk and a
        zero-way region — still replays, and lands on the state and
        statistics of a width-2 batch of the same replays."""
        def refuse(*args, **kwargs):
            raise AssertionError("a serial entry point called a per-kernel "
                                 "replay binding")

        for name in REPLAY_METHODS:
            monkeypatch.setattr(_native.NativeKernel, name, refuse)
        scenarios = _single_path_scenarios()
        serial = [build() for _, build, _, _ in scenarios]
        batched = [build() for _, build, _, _ in scenarios]
        for chunk in CHUNKS:
            for cache, (_, _, replay, _) in zip(serial, scenarios):
                replay(cache, chunk)
            run_tasks([task(cache, chunk) for cache, (_, _, _, task)
                       in zip(batched, scenarios)], threads=2)
        for (name, build, _, _), cache, ref in zip(scenarios, serial,
                                                   batched):
            digest = cache.snapshot().digest()
            assert digest == ref.snapshot().digest(), name
            assert digest != build().snapshot().digest(), name


class TestFallbackPath:
    """``REPRO_NATIVE=0`` semantics: no kernel, same numbers."""

    @pytest.fixture
    def no_kernel(self, monkeypatch):
        _drop_kernel(monkeypatch)

    def test_tasks_degrade_to_fallback(self, no_kernel):
        addrs = _trace(6_000)
        serial = ArraySetAssociativeCache(32, 4, policy="SRRIP")
        serial.run(addrs)
        cache = ArraySetAssociativeCache(32, 4, policy="SRRIP")
        task = cache.replay_task(addrs)
        assert not task.native
        run_tasks([task], threads=8)
        assert _state_digest(cache) == _state_digest(serial)

    def test_auto_mode_prefers_processes(self, no_kernel):
        assert resolve_parallel() == "processes"

    def test_replay_task_requires_fields_or_fallback(self):
        with pytest.raises(ValueError, match="fields or a fallback"):
            ReplayTask()


class TestFanOut:
    """The one process-pool fan-out (:func:`fan_out`)."""

    def test_results_come_back_in_unit_order(self):
        units = list(range(7))
        rows = fan_out(_shard_rows, units, 3, 10,
                       trace=np.arange(4, dtype=np.int64))
        assert [(u, v) for u, v, _ in rows] == [(u, 10 * u + 6)
                                                for u in units]
        # The groups ran in worker processes, not in this one.
        assert os.getpid() not in {pid for _, _, pid in rows}

    def test_one_group_runs_in_process(self):
        for workers, units in ((1, [1, 2, 3]), (4, [5])):
            rows = fan_out(_shard_rows, units, workers, 2, trace=None)
            assert rows == [(u, 2 * u, os.getpid()) for u in units]
        assert fan_out(_shard_rows, [], 4, 2, trace=None) == []

    def test_owned_store_closed_passed_store_kept(self, monkeypatch):
        from repro.workloads import TraceStore
        created = []

        class Recording(TraceStore):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                created.append(self)

        monkeypatch.setattr("repro.cache.threadbatch.TraceStore", Recording)
        addrs = np.arange(16, dtype=np.int64)
        fan_out(_shard_rows, [1, 2], 2, 1, trace=addrs)
        assert len(created) == 1
        with pytest.raises(RuntimeError, match="closed"):
            created[0].put(addrs)
        passed = Recording()
        try:
            rows = fan_out(_shard_rows, [1, 2], 2, 1, trace=addrs,
                           trace_store=passed)
            assert [v for _, v, _ in rows] == [1 + 120, 2 + 120]
            assert len(passed) == 1
            passed.put(addrs)                   # still open
        finally:
            passed.close()
