"""Array-backed partitioned caches: the Talus/partition fast path.

This is the partitioned counterpart of
:class:`repro.cache.arraycache.ArraySetAssociativeCache`.  Way, set and
ideal partitioning all share one structural property the object model
enforces implicitly: partitions are *independent regions* — no line ever
moves between partitions and no replacement decision reads another
partition's state.  That independence is what makes a batched fast path
possible:

* each partition's state lives in numpy matrices (for way/set
  partitioning, slices of one flat per-line buffer, so a single native
  kernel call can replay an interleaved multi-partition access stream with
  per-line partition ownership and per-partition occupancy targets);
* a whole trace *with per-access partition ids* is replayed by
  :meth:`ArrayPartitionedCache.run_partitioned` in one pass — one
  ``part_lru_run``/``part_srrip_run`` kernel call for the recency/RRIP
  policies, or one existing per-region kernel call per partition for the
  rest (PDP and the seeded tier), which is equivalent exactly because the
  regions are independent;
* idealized (fully-associative) partitioning runs LRU through a one-shot
  stack-distance pass per partition (hit iff stack distance < allocation),
  which is bit-identical to a fully-associative
  :class:`~repro.cache.replacement.lru.LRUPolicy` region and avoids an
  O(allocation) scan per access.

Exactness matches the plain array cache: LRU, LIP and SRRIP (and PDP via
the per-region path) are bit-identical to the object-model schemes in
:mod:`repro.cache.partition`; BIP/DIP/BRRIP/DRRIP/TA-DRRIP/Random are
deterministic per seed but draw from splitmix64 streams, with set-dueling
state per region rather than shared across a shadow pair — the same
seeded-deterministic tier as the plain array cache.  Idealized
(fully-associative) partitions run any array policy: LRU keeps the
stack-distance batch replay below, every other policy runs as a
single-set :class:`~repro.cache.arraycache.ArraySetAssociativeCache`
region whose one set *is* the fully-associative partition.

Allocations are granted with the *same* rounding helpers as the object
schemes (:func:`~repro.cache.partition.way.round_to_ways`,
:func:`~repro.cache.partition.setpart.round_to_sets`,
:func:`~repro.cache.partition.base.trim_line_allocations`).

Vantage is the one scheme whose partitions are *not* independent — every
managed partition demotes its victims into one shared unmanaged region —
so it gets its own organization, :class:`ArrayVantageCache`: a linked-list
node pool plus a (tag, region)-keyed hash table replayed by the
``vantage_run`` kernel.  Managed regions run any policy of the array
family (per-region RRPV/protecting-distance side state rides on the node
pool); the deterministic policies (LRU, LIP, SRRIP, PDP) are bit-identical
to the object :class:`~repro.cache.partition.vantage.
VantagePartitionedCache`, the randomized tier is seeded-deterministic.
Futility scaling is the only remaining object-only scheme (its
feedback-controlled insertion probabilities have no array twin — use
``backend="object"``).

Warm reallocation
-----------------
:meth:`ArrayPartitionedCache.reallocate` (which ``set_allocations`` routes
through) resizes partitions *in place*, warm: shrinking a partition evicts
per-policy victims exactly as the object schemes' ``set_capacity`` does
(oldest lines for the recency family, highest-RRPV-then-oldest for RRIP
with the same eviction-driven aging, oldest-unprotected for PDP, dropped
trailing sets for set partitioning), and growing only adds empty capacity
— no resident line ever moves between partitions.
:meth:`ArrayVantageCache.reallocate` does the same for Vantage, demoting
each trimmed partition's LRU victims into the unmanaged region.  This is
what lets the interval-based reconfiguration loops
(:mod:`repro.sim.reconfigure`, :mod:`repro.sim.multicore`) run on the
array backend: ``run_chunk``/``reallocate`` alternate on a warm cache
with results bit-identical to the object model for the exact policy tier.

State ownership in the resumable runtime
----------------------------------------
Every byte of simulation state is owned by the cache object as plain
numpy arrays and passed *into* each kernel call (nothing lives on the C
side between calls): the flat tags/stamp/RRPV buffers and shared access
counter here, the node pool / region lists / hash table of
:class:`ArrayVantageCache`, and the per-policy side state inside each
:class:`~repro.cache.arraycache.ArraySetAssociativeCache` region.  That
caller-ownership is the whole resumability contract — a replay can stop
at any access, be resumed by the pure-Python twin (or vice versa), be
interleaved with warm reallocation, or be pickled conceptually as "the
arrays", and the result never changes.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .._native import (KIND_PART_LRU, KIND_PART_SRRIP, KIND_VANTAGE,
                       get_kernel)
from ..arraycache import (ARRAY_POLICIES, ArraySetAssociativeCache,
                          _dueling_roles, _next_pow2, _splitmix64, _uniform01)
from ..cache import _fold, materialize_addresses
from ..hashing import _MASK64, GOLDEN64, mix64, seed_mix
from ..replacement.lru import LRUPolicy
from ..threadbatch import ReplayTask, i64_ptr, run_tasks, u64_ptr
from .base import PartitionedCache, trim_line_allocations
from .setpart import round_to_sets
from .vantage import vantage_managed_lines
from .way import round_to_ways

__all__ = ["ArrayPartitionedCache", "ArrayVantageCache", "ARRAY_SCHEMES"]

#: Partitioning schemes the array backend implements.
ARRAY_SCHEMES = ("ideal", "way", "set", "vantage")

#: Schemes built on independent set-associative regions (the
#: :class:`ArrayPartitionedCache` flat-buffer machinery); Vantage is
#: line-granular with a shared victim region and lives in
#: :class:`ArrayVantageCache` instead.
_SET_ASSOC_SCHEMES = ("ideal", "way", "set")

#: Policies replayed by the interleaved multi-region part kernels.
_PART_KERNEL_POLICIES = ("LRU", "LIP", "SRRIP")

#: Managed-region policy codes of the native Vantage kernel (must match
#: the ``VPOL_*`` enum in ``_sweepkernel.c``).
_VPOL = {"LRU": 0, "LIP": 1, "BIP": 2, "DIP": 3, "SRRIP": 4, "BRRIP": 5,
         "DRRIP": 6, "TA-DRRIP": 7, "PDP": 8, "Random": 9}

#: Vantage managed-region policies whose victims come from the RRPV scan.
_VT_RRIP = ("SRRIP", "BRRIP", "DRRIP", "TA-DRRIP")

_ROLE_FOLLOWER, _ROLE_LEADER_SRRIP, _ROLE_LEADER_BRRIP = 0, 1, 2

_EMPTY = -1


def _tagged_trace(trace, parts, num_partitions: int):
    """A validated partition-tagged trace: contiguous int64
    ``(addrs, parts)`` plus the per-partition access counts."""
    addrs = materialize_addresses(trace)
    parts = np.ascontiguousarray(np.asarray(parts, dtype=np.int64))
    if addrs.shape != parts.shape or addrs.ndim != 1:
        raise ValueError("trace and parts must be 1-D and equally long")
    if addrs.size and (int(parts.min()) < 0
                       or int(parts.max()) >= num_partitions):
        raise ValueError(f"partition ids must be in [0, {num_partitions})")
    accesses = np.bincount(parts, minlength=num_partitions).astype(np.int64)
    return addrs, parts, accesses


class _FastIdealLRURegion:
    """A fully-associative LRU region with a stack-distance batch replay.

    The per-access path is the object model itself (an
    :class:`~repro.cache.replacement.lru.LRUPolicy`); the batch path
    replays the region's resident lines (LRU -> MRU) followed by the new
    accesses through the native ``stack_hist_run`` kernel and counts hits
    as accesses with stack distance below the allocation — which is the
    stack property, so results are bit-identical to the per-access path.
    """

    def __init__(self, capacity: int):
        self.capacity = int(capacity)
        self._policy = LRUPolicy(self.capacity)

    def access(self, address: int) -> bool:
        return self._policy.access(int(address))

    def set_capacity(self, capacity: int) -> None:
        """Warm-resize the region (shrinking evicts LRU overflow)."""
        self.capacity = int(capacity)
        self._policy.set_capacity(self.capacity)

    def occupancy(self) -> int:
        return len(self._policy)

    def _run_python(self, addrs: np.ndarray) -> int:
        misses = 0
        access = self._policy.access
        for a in addrs.tolist():
            if not access(a):
                misses += 1
        return misses

    def run_batch(self, addrs: np.ndarray) -> int:
        """Replay ``addrs``; returns the miss count and updates the state."""
        n = int(addrs.size)
        if n == 0:
            return 0
        if self.capacity == 0:
            return n
        kernel = get_kernel()
        if kernel is None:
            return self._run_python(addrs)
        resident = np.asarray(list(self._policy.resident()), dtype=np.int64)
        replay = np.concatenate([resident, addrs]) if resident.size else addrs
        hist = np.zeros(replay.size, dtype=np.int64)
        cold = kernel.stack_hist_run(replay, hist)
        if cold < 0:  # scratch allocation failed inside the kernel
            return self._run_python(addrs)
        hits = int(hist[:min(self.capacity, hist.size)].sum())
        # The resident-prefix accesses are all cold (distinct tags), so
        # every counted hit belongs to the new accesses.
        misses = n - hits
        # Final LRU state: the last `capacity` distinct addresses, most
        # recent at MRU.
        reversed_replay = replay[::-1]
        uniq, first = np.unique(reversed_replay, return_index=True)
        recent_first = uniq[np.argsort(first)][: self.capacity]
        policy = LRUPolicy(self.capacity)
        for tag in recent_first[::-1].tolist():
            policy.access(int(tag))
        self._policy = policy
        return misses


class ArrayPartitionedCache(PartitionedCache):
    """Way/set/ideal partitioning with numpy state and batched native replay.

    Parameters
    ----------
    scheme:
        One of the set-associative-region schemes ("ideal", "way",
        "set").  Vantage couples partitions through its shared unmanaged
        region and is implemented by :class:`ArrayVantageCache`; futility
        scaling stays object-only.
    capacity_lines, num_partitions, ways:
        As in :func:`repro.cache.partition.make_partitioned_cache`; the
        way/set geometries derive the set count exactly as the object
        factory does.
    policy:
        One of :data:`~repro.cache.arraycache.ARRAY_POLICIES` except the
        offline "Belady" (which has no partitioned organization).
        Idealized partitions are fully associative: LRU rides the
        stack-distance batch replay, every other policy a single-set
        array region.
    hashed_index, index_seed:
        Set-index scheme of the way/set organizations (same hash as the
        object model).
    min_ways_per_partition:
        Way-partitioning coarsening floor (as in
        :class:`~repro.cache.partition.way.WayPartitionedCache`).
    policy_kwargs:
        Extra policy parameters (e.g. ``seed`` or ``epsilon``), forwarded
        to every region's :class:`ArraySetAssociativeCache`.
    """

    def __init__(self, scheme: str, capacity_lines: int, num_partitions: int,
                 policy: str = "LRU", ways: int = 16,
                 hashed_index: bool = False, index_seed: int = 0,
                 min_ways_per_partition: int = 1, **policy_kwargs):
        scheme = scheme.lower()
        if scheme not in _SET_ASSOC_SCHEMES:
            raise ValueError(
                f"ArrayPartitionedCache implements the set-associative-region "
                f"schemes {_SET_ASSOC_SCHEMES}, not {scheme!r}; Vantage has "
                f"its own array organization (ArrayVantageCache), and "
                f"futility scaling is object-only")
        if capacity_lines <= 0:
            raise ValueError("capacity_lines must be positive")
        if num_partitions <= 0:
            raise ValueError("num_partitions must be positive")
        if policy == "Belady":
            raise ValueError(
                "Belady is offline and replays one attached trace; it has "
                "no partitioned organization — supported partition "
                f"policies: {tuple(p for p in ARRAY_POLICIES if p != 'Belady')}")
        if policy not in ARRAY_POLICIES:
            raise ValueError(
                f"array backend does not implement {policy!r}; "
                f"supported: {ARRAY_POLICIES}")
        if scheme == "ideal":
            capacity = capacity_lines
            num_sets = 0
        else:
            if scheme == "way":
                num_sets = max(1, capacity_lines // ways)
                if num_partitions > ways:
                    raise ValueError(
                        f"cannot way-partition {ways} ways into "
                        f"{num_partitions} partitions")
            else:
                num_sets = max(num_partitions, capacity_lines // ways)
            capacity = num_sets * ways
        super().__init__(capacity, num_partitions)
        self.scheme = scheme
        self.scheme_name = scheme
        self.policy = policy
        self.ways = ways
        self.num_sets = num_sets
        self.hashed_index = bool(hashed_index)
        self.index_seed = index_seed
        self.min_ways = min_ways_per_partition
        self._policy_kwargs = dict(policy_kwargs)
        if scheme == "way":
            self._way_alloc = round_to_ways(
                [self.capacity_lines / num_partitions] * num_partitions,
                num_sets, ways, self.min_ways)
            # The object model builds each partition's policy regions once,
            # at this equal-split allocation, and later reallocations only
            # change capacities — so capacity-derived policy parameters
            # (PDP's tuning) are frozen at these way counts.  Recorded so
            # the array regions can replicate that exactly.
            self._initial_ways = list(self._way_alloc)
        elif scheme == "set":
            base_sets = num_sets // num_partitions
            self._set_alloc = [base_sets] * num_partitions
            self._set_alloc[0] += num_sets - base_sets * num_partitions
        else:
            base = capacity // num_partitions
            self._line_alloc = [base] * num_partitions
            # As with way partitioning above: the object model derives
            # capacity-dependent policy parameters (PDP's tuning) once, at
            # the construction-time equal split.
            self._initial_lines = list(self._line_alloc)
        self._rebuild_regions()

    # ------------------------------------------------------------------ #
    # Region construction
    # ------------------------------------------------------------------ #
    def _region_geometries(self) -> list[tuple[int, int]]:
        """Per-partition (num_sets, ways) geometry.

        Zero-allocation way/set partitions keep a degenerate (but
        well-shaped) geometry — ``(num_sets, 0)`` / ``(0, ways)`` — so a
        warm-resized zero-capacity region's arrays still line up with the
        flat buffers; the kernels treat any zero dimension as all-miss.
        """
        if self.scheme == "way":
            return [(self.num_sets, w) for w in self._way_alloc]
        if self.scheme == "set":
            return [(s, self.ways) for s in self._set_alloc]
        return [(1, c) if c > 0 else (0, 0) for c in self._line_alloc]

    def _rebuild_regions(self) -> None:
        if self.scheme == "ideal":
            self._regions = [self._make_ideal_region(p, c)
                             for p, c in enumerate(self._line_alloc)]
            self._flat_ready = False
            return
        self._regions = []
        for p, (sets_p, ways_p) in enumerate(self._region_geometries()):
            if sets_p <= 0 or ways_p <= 0:
                self._regions.append(None)
                continue
            kwargs = self._region_policy_kwargs(p, ways_p)
            self._regions.append(ArraySetAssociativeCache(
                sets_p, ways_p, policy=self.policy,
                hashed_index=self.hashed_index, index_seed=self.index_seed,
                **kwargs))
        self._link_flat_state()

    def _make_ideal_region(self, partition: int, lines: int):
        """One fully-associative ideal region of ``lines`` capacity.

        LRU keeps the stack-distance batch replay of
        :class:`_FastIdealLRURegion`; every other policy runs as a
        single-set :class:`~repro.cache.arraycache.
        ArraySetAssociativeCache` whose one set *is* the
        fully-associative region.
        """
        if lines <= 0:
            return None
        if self.policy == "LRU":
            return _FastIdealLRURegion(lines)
        kwargs = self._region_policy_kwargs(partition, lines)
        return ArraySetAssociativeCache(1, lines, policy=self.policy,
                                        **kwargs)

    def _region_policy_kwargs(self, partition: int, ways_p: int) -> dict:
        """Policy kwargs for one region, replicating object-model quirks.

        Way-partitioned (and idealized) PDP regions in the object model
        keep the tuning parameters derived from their *construction-time*
        (equal-split) capacity even after reallocation shrinks or grows
        them — only the capacity itself changes.  The array regions are
        rebuilt at the final way count, so the construction-time
        derivations are passed explicitly to stay bit-identical.
        """
        kwargs = dict(self._policy_kwargs)
        if self.policy != "PDP" or self.scheme == "set":
            return kwargs
        construction = (self._initial_ways if self.scheme == "way"
                        else self._initial_lines)[partition]
        w0 = max(construction, 1)
        interval = kwargs.get("recompute_interval")
        if interval is None:
            interval = max(128, 16 * w0)
        factor = kwargs.get("max_distance_factor", 3.0)
        max_candidate = max(1, int(factor * w0))
        initial = kwargs.get("initial_distance")
        if not initial:
            initial = max(1, construction)
        kwargs.update(
            recompute_interval=interval,
            initial_distance=initial,
            # Chosen so int(factor * ways_p) lands exactly on the object
            # model's construction-time candidate bound.
            max_distance_factor=(max_candidate + 0.5) / max(ways_p, 1),
        )
        return kwargs

    def _link_flat_state(self) -> None:
        """Re-point region matrices into one flat per-line buffer.

        Lines of all partitions live in a single tags/stamp (and, for the
        RRIP family, RRPV) buffer, each partition owning the slice
        described by the region geometry arrays — the layout the
        interleaved ``part_*_run`` kernels replay in one call.  The region
        objects keep views into the same memory, so the per-access Python
        path and the kernels stay interchangeable.

        Existing region state is *copied* into the (re-)built flat buffer,
        so re-linking after a warm :meth:`reallocate` preserves resident
        lines, recency and RRPVs; at construction the regions are freshly
        initialized, making the copy equivalent to the initial fill.
        """
        self._flat_ready = self.policy in _PART_KERNEL_POLICIES
        geoms = self._region_geometries()
        self._region_sets = np.array([g[0] for g in geoms], dtype=np.int64)
        self._region_ways = np.array([g[1] for g in geoms], dtype=np.int64)
        lengths = self._region_sets * self._region_ways
        self._region_off = np.zeros(self.num_partitions, dtype=np.int64)
        np.cumsum(lengths[:-1], out=self._region_off[1:])
        if not self._flat_ready:
            return
        total = int(lengths.sum())
        self._flat_tags = np.full(total, _EMPTY, dtype=np.int64)
        self._flat_stamp = np.zeros(total, dtype=np.int64)
        rrip = self.policy == "SRRIP"
        max_rrpv = 3
        self._flat_rrpv = None
        if rrip:
            for region in self._regions:
                if region is not None:
                    max_rrpv = region.max_rrpv
                    break
            self._flat_rrpv = np.full(total, max_rrpv, dtype=np.int64)
        self._max_rrpv = max_rrpv
        counter = int(getattr(self, "_shared_counter", np.zeros(1))[0])
        self._shared_counter = np.array([counter], dtype=np.int64)
        for p, region in enumerate(self._regions):
            if region is None:
                continue
            start = int(self._region_off[p])
            end = start + int(lengths[p])
            shape = (region.num_sets, region.ways)
            self._flat_tags[start:end] = region.tags.ravel()
            self._flat_stamp[start:end] = region.stamp.ravel()
            region.tags = self._flat_tags[start:end].reshape(shape)
            region.stamp = self._flat_stamp[start:end].reshape(shape)
            if rrip:
                self._flat_rrpv[start:end] = region.rrpv.ravel()
                region.rrpv = self._flat_rrpv[start:end].reshape(shape)
            region._counter = self._shared_counter

    # ------------------------------------------------------------------ #
    # PartitionedCache interface
    # ------------------------------------------------------------------ #
    def set_allocations(self, sizes: Sequence[float]) -> list[int]:
        return self.reallocate(sizes)

    def reallocate(self, sizes: Sequence[float]) -> list[int]:
        """Apply new capacity targets to *warm* partitions, in place.

        The warm-reallocation entry point of the resumable runtime (the
        object schemes' ``set_allocations`` semantics): shrinking a
        partition evicts its policy's victims (repeated ``evict_one``
        order — see :meth:`ArraySetAssociativeCache.resize_ways` /
        :meth:`~repro.cache.arraycache.ArraySetAssociativeCache.resize_sets`),
        growing adds empty capacity, and surviving lines never move between
        partitions.  Partitions resized to zero keep their region object
        (and its capacity-independent side state, e.g. PDP's reuse
        sampler), again matching the object model's zero-capacity regions.

        Returns the granted allocations, rounded with the same helpers the
        object schemes use.
        """
        sizes = self._check_requests(sizes)
        if self.scheme == "way":
            new = round_to_ways(sizes, self.num_sets, self.ways, self.min_ways)
            current = self._way_alloc
        elif self.scheme == "set":
            new = round_to_sets(sizes, self.num_sets, self.ways)
            current = self._set_alloc
        else:
            new = trim_line_allocations(sizes, self.capacity_lines)
            current = self._line_alloc
        if new == current:
            return self.granted_allocations()
        if self.scheme == "ideal":
            for p, lines in enumerate(new):
                region = self._regions[p]
                if region is None:
                    self._regions[p] = self._make_ideal_region(p, lines)
                elif isinstance(region, _FastIdealLRURegion):
                    region.set_capacity(lines)
                else:
                    region.resize_ways(lines)
            self._line_alloc = new
            return self.granted_allocations()
        for p, region in enumerate(self._regions):
            if region is None:
                if new[p] <= 0:
                    continue
                geometry = ((self.num_sets, new[p]) if self.scheme == "way"
                            else (new[p], self.ways))
                kwargs = self._region_policy_kwargs(p, geometry[1])
                self._regions[p] = ArraySetAssociativeCache(
                    geometry[0], geometry[1], policy=self.policy,
                    hashed_index=self.hashed_index,
                    index_seed=self.index_seed, **kwargs)
            elif self.scheme == "way":
                region.resize_ways(new[p])
            else:
                region.resize_sets(new[p])
        if self.scheme == "way":
            self._way_alloc = new
        else:
            self._set_alloc = new
        self._link_flat_state()
        return self.granted_allocations()

    def granted_allocations(self) -> list[int]:
        if self.scheme == "way":
            return [w * self.num_sets for w in self._way_alloc]
        if self.scheme == "set":
            return [s * self.ways for s in self._set_alloc]
        return list(self._line_alloc)

    def access(self, address: int, partition: int) -> bool:
        self._check_partition(partition)
        region = self._regions[partition]
        if region is None:
            self.record(partition, False)
            return False
        hit = region.access(address)
        self.record(partition, hit)
        return hit

    def partition_occupancy(self, partition: int) -> int:
        self._check_partition(partition)
        region = self._regions[partition]
        return 0 if region is None else region.occupancy()

    # ------------------------------------------------------------------ #
    # Batched replay
    # ------------------------------------------------------------------ #
    def run_partitioned(self, trace, parts) -> tuple[np.ndarray, np.ndarray]:
        """Replay a trace with per-access partition ids in one batch.

        A one-task batch of :meth:`replay_task`.

        Parameters
        ----------
        trace:
            Addresses (any form :func:`materialize_addresses` accepts).
        parts:
            Partition id of each access (int array, same length).

        Returns
        -------
        (accesses, misses):
            Per-partition int64 access and miss counts of this replay.
            Per-partition statistics are updated as the per-access path
            would (counts are order-independent, so both paths agree).
        """
        task, accesses = self._tagged_task(trace, parts)
        run_tasks([task], threads=1)
        return accesses, task.misses

    def run_chunk(self, trace, parts) -> tuple[np.ndarray, np.ndarray]:
        """Replay one chunk of a partition-tagged trace.

        The chunked entry point of the resumable runtime: identical to
        :meth:`run_partitioned` (state carries across calls, so chunked
        and one-shot replays are bit-identical at any boundary), named to
        make call sites that interleave replay chunks with
        :meth:`reallocate` read naturally.
        """
        return self.run_partitioned(trace, parts)

    def replay_task(self, trace, parts):
        """One batchable :class:`~repro.cache.threadbatch.ReplayTask`
        replaying a partition-tagged trace.

        The one encoding of this cache's ``part_lru_run``/
        ``part_srrip_run`` call (:meth:`run_partitioned` executes it as a
        one-task batch).  Ideal partitions, the policies without a part
        kernel, a missing kernel and an empty chunk fall back to one
        replay per region.  Per-partition misses land in the task's
        ``misses`` array on both paths.
        """
        return self._tagged_task(trace, parts)[0]

    def _tagged_task(self, trace, parts):
        """:meth:`replay_task` plus the replay's per-partition accesses."""
        addrs, parts, accesses = _tagged_trace(trace, parts,
                                               self.num_partitions)
        miss_out = np.zeros(self.num_partitions, dtype=np.int64)
        touched = np.flatnonzero(accesses).tolist()

        def fold_partitions() -> None:
            for p in touched:
                _fold(self.partition_stats[p], int(accesses[p]),
                      int(miss_out[p]))

        if not self._flat_ready or get_kernel() is None or addrs.size == 0:
            def fallback() -> None:
                for p in touched:
                    sub = addrs[parts == p]
                    region = self._regions[p]
                    if region is None:
                        miss_out[p] = sub.size
                    elif isinstance(region, _FastIdealLRURegion):
                        miss_out[p] = region.run_batch(sub)
                    else:
                        before = region.stats.misses
                        region.run(sub)
                        miss_out[p] = region.stats.misses - before
                fold_partitions()
            return ReplayTask(fallback=fallback, misses=miss_out), accesses
        if bool(np.any(addrs == _EMPTY)):
            raise ValueError("address -1 is reserved as the empty-way "
                             "sentinel; the array backend cannot cache it")
        fields = {
            "kind": (KIND_PART_SRRIP if self.policy == "SRRIP"
                     else KIND_PART_LRU),
            "addrs": i64_ptr(addrs), "n": int(addrs.size),
            "parts": i64_ptr(parts),
            "num_regions": self.num_partitions,
            "region_sets": i64_ptr(self._region_sets),
            "region_ways": i64_ptr(self._region_ways),
            "region_off": i64_ptr(self._region_off),
            "tags": i64_ptr(self._flat_tags),
            "stamp": i64_ptr(self._flat_stamp),
            "counter": i64_ptr(self._shared_counter),
            "miss_out": i64_ptr(miss_out),
            "hashed": 1 if self.hashed_index else 0,
            "index_seed": self.index_seed,
        }
        if self.policy == "SRRIP":
            fields.update(rrpv=i64_ptr(self._flat_rrpv),
                          max_rrpv=self._max_rrpv)
        else:
            fields.update(lip=1 if self.policy == "LIP" else 0)

        def commit(_total: int) -> None:
            # Keep the per-region counters coherent with the per-region
            # fallback, which replays through each region's own run().
            for p in touched:
                region = self._regions[p]
                if region is not None:
                    _fold(region.stats, int(accesses[p]), int(miss_out[p]))
            fold_partitions()

        task = ReplayTask(fields=fields, refs=(addrs, parts, miss_out),
                          commit=commit, misses=miss_out)
        return task, accesses

    # ------------------------------------------------------------------ #
    def reset_stats(self) -> None:
        super().reset_stats()
        for region in self._regions:
            if isinstance(region, ArraySetAssociativeCache):
                region.reset_stats()

    def snapshot(self, position: int = 0, meta: dict | None = None):
        """Capture the warm state as a picklable, content-hashable
        :class:`~repro.sampling.checkpoint.CacheCheckpoint`."""
        from ...sampling.checkpoint import snapshot
        return snapshot(self, position=position, meta=meta)

    def restore(self, checkpoint) -> None:
        """Rewind this cache to ``checkpoint``'s state, in place."""
        from ...sampling.checkpoint import restore_into
        restore_into(self, checkpoint)

    def to_spec(self):
        """A :class:`~repro.cache.spec.PartitionSpec` rebuilding this cache."""
        from ..spec import PartitionSpec
        return PartitionSpec(
            scheme=self.scheme,
            capacity_lines=self.capacity_lines,
            num_partitions=self.num_partitions,
            policy=self.policy,
            ways=self.ways,
            backend="array",
            hashed_index=self.hashed_index,
            index_seed=self.index_seed,
            targets=tuple(float(g) for g in self.granted_allocations()),
            policy_kwargs=tuple(sorted(self._policy_kwargs.items())),
            scheme_kwargs=self._spec_scheme_kwargs(),
        )

    def _spec_scheme_kwargs(self) -> tuple:
        if self.scheme == "way" and self.min_ways != 1:
            return (("min_ways_per_partition", self.min_ways),)
        return ()

    def __repr__(self) -> str:
        return (f"ArrayPartitionedCache(scheme={self.scheme!r}, "
                f"capacity={self.capacity_lines} lines, "
                f"partitions={self.num_partitions}, policy={self.policy!r})")


class ArrayVantageCache(PartitionedCache):
    """Vantage partitioning with caller-owned array state and native replay.

    The object model (:class:`~repro.cache.partition.vantage.
    VantagePartitionedCache`) couples its partitions through a shared
    *unmanaged* victim region, which is why Vantage could not ride the
    independent-region machinery of :class:`ArrayPartitionedCache`.  This
    organization instead keeps the whole cache — per-partition
    fully-associative LRU lists over the managed ~90 % plus the shared
    insertion-ordered unmanaged region — as an intrusive doubly-linked
    node pool and one open-addressing hash table, all in caller-owned
    numpy arrays:

    * ``node_tag``/``node_prev``/``node_next`` — the node pool
      (``capacity + 1`` entries; free nodes chained through ``node_next``);
    * ``head``/``tail``/``occ`` — per-region list anchors (region
      ``num_partitions`` is the unmanaged region); head is the LRU/oldest
      end;
    * ``ht_tag``/``ht_reg``/``ht_node`` — a linear-probing table keyed by
      ``(tag, region)`` with backward-shift deletion (the same tag may be
      resident in several regions at once, as with per-region dicts).

    Managed regions run any replacement policy of the array family (the
    object model's ``policy_factory``): the per-node side state — RRPV
    bucket + bucket-entrant stamp for the RRIP family, protection
    deadline for PDP — lives in two pool-parallel arrays
    (``node_aux``/``node_stamp``), and the per-region PDP
    clock/distance/reuse-sampler state in per-partition rows.  The
    deterministic policies (LRU, LIP, SRRIP, PDP) are **bit-identical**
    to the object model; BIP/DIP/BRRIP/DRRIP/TA-DRRIP/Random are
    seeded-deterministic, drawing from one shared splitmix64 stream with
    per-region duel roles (TA-DRRIP duels per partition: in a
    partitioned cache the partition *is* the thread).  Belady is offline
    and has no partitioned organization.

    A whole partition-tagged trace is replayed by one ``vantage_run``
    kernel call (:meth:`run_partitioned`); without a compiler the same
    algorithm runs in pure Python over the same arrays, so the two paths
    are interchangeable mid-stream.  Warm reallocation
    (:meth:`reallocate` / ``set_allocations``) trims regions in place
    through ``vantage_realloc``, demoting each region's per-policy
    victims into the unmanaged region exactly as the object scheme does
    — which is what puts the default ``scheme="vantage"``
    reconfiguration loops on the fast path.
    """

    scheme_name = "vantage"

    def __init__(self, capacity_lines: int, num_partitions: int,
                 policy: str = "LRU", unmanaged_fraction: float = 0.10,
                 m_bits: int = 2, epsilon: float = 1.0 / 32.0,
                 seed: int = 0, recompute_interval: int | None = None,
                 max_distance_factor: float = 3.0,
                 initial_distance: int | None = None):
        if policy == "Belady":
            raise ValueError(
                "Belady is offline and replays one attached trace; it has "
                "no partitioned organization — supported Vantage region "
                f"policies: {tuple(_VPOL)}")
        if policy not in _VPOL:
            raise ValueError(
                f"array-backed Vantage partitioning does not implement "
                f"{policy!r}; supported region policies: {tuple(_VPOL)}")
        if not 0.0 <= unmanaged_fraction < 1.0:
            raise ValueError("unmanaged_fraction must be in [0, 1)")
        if m_bits < 1 or m_bits > 8:
            raise ValueError("m_bits must be in [1, 8]")
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError("epsilon must be in [0, 1]")
        super().__init__(capacity_lines, num_partitions)
        self.policy = policy
        self._pol = _VPOL[policy]
        self.m_bits = m_bits
        self.max_rrpv = (1 << m_bits) - 1
        self.epsilon = float(epsilon)
        self.seed = seed
        self.unmanaged_fraction = float(unmanaged_fraction)
        pk = {}
        if m_bits != 2:
            pk["m_bits"] = m_bits
        if epsilon != 1.0 / 32.0:
            pk["epsilon"] = float(epsilon)
        if seed != 0:
            pk["seed"] = seed
        if recompute_interval is not None:
            pk["recompute_interval"] = recompute_interval
        if max_distance_factor != 3.0:
            pk["max_distance_factor"] = max_distance_factor
        if initial_distance is not None:
            pk["initial_distance"] = initial_distance
        self._policy_kwargs = pk
        self._managed = vantage_managed_lines(capacity_lines,
                                              unmanaged_fraction)
        self._unm_cap = capacity_lines - self._managed
        base = self._managed // num_partitions
        self._caps = np.full(num_partitions, base, dtype=np.int64)
        # Node pool: capacity + 1 entries (one spare absorbs the transient
        # overshoot of insert-then-trim demotion into the unmanaged region).
        pool = capacity_lines + 1
        self._node_tag = np.zeros(pool, dtype=np.int64)
        self._node_prev = np.full(pool, -1, dtype=np.int64)
        nxt = np.arange(1, pool + 1, dtype=np.int64)
        nxt[-1] = -1
        self._node_next = nxt
        self._head = np.full(num_partitions + 1, -1, dtype=np.int64)
        self._tail = np.full(num_partitions + 1, -1, dtype=np.int64)
        self._occ = np.zeros(num_partitions + 1, dtype=np.int64)
        self._free = np.zeros(1, dtype=np.int64)
        tsize = 64
        while tsize < 2 * pool:
            tsize <<= 1
        self._ht_tag = np.zeros(tsize, dtype=np.int64)
        self._ht_reg = np.zeros(tsize, dtype=np.int64)
        self._ht_node = np.full(tsize, -1, dtype=np.int64)
        # Per-policy side state.  node_aux/node_stamp parallel the node
        # pool (RRPV + bucket-entrant stamp for the RRIP family, the
        # protection deadline for PDP); the RNG/PSEL/roles state mirrors
        # ArraySetAssociativeCache with one region per partition.
        self._counter = np.zeros(1, dtype=np.int64)
        self._rng_state = np.array([mix64(seed)], dtype=np.uint64)
        self._psel_max = (1 << 10) - 1
        if policy == "TA-DRRIP":
            # Thread-aware dueling: each partition is a thread, so PSEL
            # counters are per partition with address-hash constituencies.
            self._psel = np.full(num_partitions, self._psel_max // 2,
                                 dtype=np.int64)
            self._leader_levels = max(1, int(round(1024 / 32.0)))
        else:
            self._psel = np.array([self._psel_max // 2], dtype=np.int64)
            self._leader_levels = max(1, int(round(1024 / 16.0)))
        self._roles = (_dueling_roles(num_partitions)
                       if policy in ("DIP", "DRRIP")
                       else np.zeros(num_partitions, dtype=np.int64))
        need_nodes = policy in _VT_RRIP or policy == "PDP"
        aux_len = pool if need_nodes else 1
        self._node_aux = np.zeros(aux_len, dtype=np.int64)
        self._node_stamp = np.zeros(aux_len, dtype=np.int64)
        if policy == "PDP":
            self._init_pdp_state(base, recompute_interval,
                                 max_distance_factor, initial_distance)
        elif (recompute_interval is not None or max_distance_factor != 3.0
              or initial_distance is not None):
            raise ValueError("recompute_interval/max_distance_factor/"
                             "initial_distance apply to PDP only")
        else:
            # Unused policy side state still crosses the ctypes boundary
            # (ndpointer arguments reject None), as size-1 dummies the
            # kernel never dereferences for this policy.
            self._hist_stride = 1
            self._ls_size = 1
            self._pdp_clock = np.zeros(1, dtype=np.int64)
            self._pdp_dp = np.zeros(1, dtype=np.int64)
            self._pdp_samples = np.zeros(1, dtype=np.int64)
            self._pdp_hist = np.zeros(1, dtype=np.int64)
            self._vp_maxdp = np.zeros(1, dtype=np.int64)
            self._vp_interval = np.ones(1, dtype=np.int64)
            self._vp_clear = np.zeros(1, dtype=np.int64)
            self._ls_tags = np.full(1, _EMPTY, dtype=np.int64)
            self._ls_clocks = np.zeros(1, dtype=np.int64)
            self._ls_count = np.zeros(1, dtype=np.int64)

    def _init_pdp_state(self, base: int, recompute_interval: int | None,
                        max_distance_factor: float,
                        initial_distance: int | None) -> None:
        """Per-region PDP state, tuned at the construction-time equal
        split (``base`` lines per partition) exactly as the object model
        freezes :class:`~repro.cache.replacement.pdp.PDPPolicy`'s
        capacity-derived parameters."""
        cap0 = max(int(base), 1)
        if recompute_interval is None:
            recompute_interval = max(128, 16 * cap0)
        if recompute_interval < 16:
            raise ValueError("recompute_interval must be >= 16")
        if max_distance_factor <= 0:
            raise ValueError("max_distance_factor must be positive")
        max_dp = max(1, int(max_distance_factor * cap0))
        initial_dp = (initial_distance if initial_distance
                      else max(1, int(base)))
        clear = 8 * max(int(base), 64)
        n = self.num_partitions
        self._hist_stride = max_dp + 1
        self._ls_size = _next_pow2(2 * (clear + recompute_interval + 1))
        self._pdp_clock = np.zeros(n, dtype=np.int64)
        self._pdp_dp = np.full(n, initial_dp, dtype=np.int64)
        self._pdp_samples = np.zeros(n, dtype=np.int64)
        self._pdp_hist = np.zeros((n, self._hist_stride), dtype=np.int64)
        self._vp_maxdp = np.full(n, max_dp, dtype=np.int64)
        self._vp_interval = np.full(n, recompute_interval, dtype=np.int64)
        self._vp_clear = np.full(n, clear, dtype=np.int64)
        self._ls_tags = np.full((n, self._ls_size), _EMPTY, dtype=np.int64)
        self._ls_clocks = np.zeros((n, self._ls_size), dtype=np.int64)
        self._ls_count = np.zeros(n, dtype=np.int64)

    # ------------------------------------------------------------------ #
    @property
    def partitionable_lines(self) -> int:
        return self._managed

    @property
    def unmanaged_capacity(self) -> int:
        """Capacity of the unmanaged region in lines."""
        return self._unm_cap

    def unmanaged_occupancy(self) -> int:
        """Number of lines currently resident in the unmanaged region."""
        return int(self._occ[self.num_partitions])

    def partition_occupancy(self, partition: int) -> int:
        self._check_partition(partition)
        return int(self._occ[partition])

    def granted_allocations(self) -> list[int]:
        return [int(c) for c in self._caps]

    # ------------------------------------------------------------------ #
    # Allocation
    # ------------------------------------------------------------------ #
    def set_allocations(self, sizes: Sequence[float]) -> list[int]:
        return self.reallocate(sizes)

    def reallocate(self, sizes: Sequence[float]) -> list[int]:
        """Apply new managed-region targets to the *warm* cache, in place.

        Shrinking a partition demotes its LRU victims (in eviction order)
        into the unmanaged region — the object scheme's
        ``set_capacity``-then-demote semantics — and growing only raises
        the budget; resident lines never move between managed partitions.
        """
        sizes = self._check_requests(sizes)
        granted = trim_line_allocations(sizes, self._managed)
        new_caps = np.asarray(granted, dtype=np.int64)
        kernel = get_kernel()
        if kernel is not None:
            result = kernel.vantage_realloc(
                self.num_partitions, new_caps, self._unm_cap, self._pol,
                self.max_rrpv, self._rng_state, self._node_aux,
                self._node_stamp, self._pdp_clock, self._pdp_dp,
                self._ht_tag, self._ht_reg, self._ht_node, self._node_tag,
                self._node_prev, self._node_next, self._head, self._tail,
                self._occ, self._free)
            if result < 0:
                raise RuntimeError("native Vantage reallocation failed")
        else:
            self._realloc_python(granted)
        self._caps = new_caps
        return list(granted)

    # ------------------------------------------------------------------ #
    # Access paths
    # ------------------------------------------------------------------ #
    def access(self, address: int, partition: int) -> bool:
        self._check_partition(partition)
        _, misses = self.run_partitioned(
            np.asarray([address], dtype=np.int64),
            np.asarray([partition], dtype=np.int64))
        return int(misses[partition]) == 0

    def run_partitioned(self, trace, parts) -> tuple[np.ndarray, np.ndarray]:
        """Replay a partition-tagged trace as a one-task batch of
        :meth:`replay_task` (see
        :meth:`ArrayPartitionedCache.run_partitioned`)."""
        task, accesses = self._tagged_task(trace, parts)
        run_tasks([task], threads=1)
        return accesses, task.misses

    def run_chunk(self, trace, parts) -> tuple[np.ndarray, np.ndarray]:
        """Replay one chunk (state carries across calls; chunked and
        one-shot replays are bit-identical at any boundary)."""
        return self.run_partitioned(trace, parts)

    def replay_task(self, trace, parts):
        """One batchable :class:`~repro.cache.threadbatch.ReplayTask`
        replaying a partition-tagged trace: the one encoding of this
        cache's ``vantage_run`` call (:meth:`run_partitioned` executes it
        as a one-task batch).  Without a kernel, or on an empty chunk, the
        task falls back to the pure-Python twin."""
        return self._tagged_task(trace, parts)[0]

    def _tagged_task(self, trace, parts):
        """:meth:`replay_task` plus the replay's per-partition accesses."""
        addrs, parts, accesses = _tagged_trace(trace, parts,
                                               self.num_partitions)
        miss_out = np.zeros(self.num_partitions, dtype=np.int64)
        touched = np.flatnonzero(accesses).tolist()

        def commit(_total: int) -> None:
            for p in touched:
                _fold(self.partition_stats[p], int(accesses[p]),
                      int(miss_out[p]))

        if get_kernel() is None or addrs.size == 0:
            def fallback() -> None:
                self._replay_python(addrs, parts, miss_out)
                commit(0)
            return ReplayTask(fallback=fallback, misses=miss_out), accesses
        fields = {
            "kind": KIND_VANTAGE,
            "addrs": i64_ptr(addrs), "n": int(addrs.size),
            "parts": i64_ptr(parts),
            "num_regions": self.num_partitions,
            "caps": i64_ptr(self._caps), "unm_cap": self._unm_cap,
            "mode": self._pol, "max_rrpv": self.max_rrpv,
            "epsilon": self.epsilon,
            "counter": i64_ptr(self._counter),
            "rng_state": u64_ptr(self._rng_state),
            "roles": i64_ptr(self._roles), "psel": i64_ptr(self._psel),
            "psel_max": self._psel_max,
            "leader_levels": self._leader_levels,
            "node_aux": i64_ptr(self._node_aux),
            "node_stamp": i64_ptr(self._node_stamp),
            "clock": i64_ptr(self._pdp_clock), "dp": i64_ptr(self._pdp_dp),
            "sample_count": i64_ptr(self._pdp_samples),
            "hist": i64_ptr(self._pdp_hist),
            "hist_stride": self._hist_stride,
            "vp_maxdp": i64_ptr(self._vp_maxdp),
            "vp_interval": i64_ptr(self._vp_interval),
            "vp_clear": i64_ptr(self._vp_clear),
            "ls_tags": i64_ptr(self._ls_tags),
            "ls_clocks": i64_ptr(self._ls_clocks),
            "ls_count": i64_ptr(self._ls_count),
            "ls_size": self._ls_size,
            "ht_tag": i64_ptr(self._ht_tag),
            "ht_reg": i64_ptr(self._ht_reg),
            "ht_node": i64_ptr(self._ht_node),
            "tsize": int(self._ht_tag.size),
            "node_tag": i64_ptr(self._node_tag),
            "node_prev": i64_ptr(self._node_prev),
            "node_next": i64_ptr(self._node_next),
            "head": i64_ptr(self._head), "tail": i64_ptr(self._tail),
            "occ": i64_ptr(self._occ), "free_io": i64_ptr(self._free),
            "miss_out": i64_ptr(miss_out),
        }
        task = ReplayTask(fields=fields, refs=(addrs, parts, miss_out),
                          commit=commit, misses=miss_out)
        return task, accesses

    # ------------------------------------------------------------------ #
    # Pure-Python twin of the kernel (same arrays, same algorithm)
    # ------------------------------------------------------------------ #
    def _state_lists(self):
        """The array state as plain lists (fast pure-Python mutation)."""
        return (self._ht_tag.tolist(), self._ht_reg.tolist(),
                self._ht_node.tolist(), self._node_tag.tolist(),
                self._node_prev.tolist(), self._node_next.tolist(),
                self._head.tolist(), self._tail.tolist(), self._occ.tolist(),
                self._node_aux.tolist(), self._node_stamp.tolist())

    def _write_back(self, state) -> None:
        (ht_tag, ht_reg, ht_node, node_tag, node_prev, node_next,
         head, tail, occ, node_aux, node_stamp) = state
        self._ht_tag[:] = ht_tag
        self._ht_reg[:] = ht_reg
        self._ht_node[:] = ht_node
        self._node_tag[:] = node_tag
        self._node_prev[:] = node_prev
        self._node_next[:] = node_next
        self._head[:] = head
        self._tail[:] = tail
        self._occ[:] = occ
        self._node_aux[:] = node_aux
        self._node_stamp[:] = node_stamp

    def _pdp_recompute(self, p: int) -> None:
        """Mirror PDPPolicy._recompute_dp / select_protecting_distance
        for managed region ``p`` (same arithmetic as the kernel's
        ``pdp_recompute``)."""
        hist = self._pdp_hist[p]
        max_dp = int(self._vp_maxdp[p])
        total = int(self._pdp_samples[p])
        if np.any(hist[1:] != 0) and total > 0:
            best_dp, best_score = max_dp, -1.0
            hits = weighted = 0
            for dp in range(1, max_dp + 1):
                hits += int(hist[dp])
                weighted += dp * int(hist[dp])
                misses = total - hits
                occupancy = weighted + dp * misses
                if occupancy <= 0:
                    continue
                score = hits / occupancy
                if score > best_score:
                    best_score = score
                    best_dp = dp
            self._pdp_dp[p] = best_dp
        # Decay the sample so the policy adapts to phase changes.
        decayed = np.where(hist > 1, (hist + 1) // 2, 0)
        decayed[0] = 0
        self._pdp_hist[p] = decayed
        if self._ls_count[p] > int(self._vp_clear[p]):
            self._ls_tags[p].fill(_EMPTY)
            self._ls_count[p] = 0

    def _make_ops(self, state, free_box):
        """Closure bundle mirroring the C helpers over list state.

        The list/hash-table structure lives in plain lists (``state``);
        the small policy side state (RNG, PSEL, PDP rows, shared stamp
        counter) is mutated on the numpy arrays directly, exactly as the
        kernel does.
        """
        (ht_tag, ht_reg, ht_node, node_tag, node_prev, node_next,
         head, tail, occ, node_aux, node_stamp) = state
        tmask = len(ht_node) - 1
        unm = self.num_partitions
        unm_cap = self._unm_cap
        pol = self.policy
        max_rrpv = self.max_rrpv
        epsilon = self.epsilon
        rng = self._rng_state
        psel = self._psel
        psel_max = self._psel_max
        roles = self._roles
        leader_levels = self._leader_levels
        counter = self._counter

        def home(tag, region):
            return mix64((tag & _MASK64) ^ seed_mix(region + 1)) & tmask

        def lookup(tag, region):
            slot = home(tag, region)
            while ht_node[slot] >= 0:
                if ht_tag[slot] == tag and ht_reg[slot] == region:
                    return slot
                slot = (slot + 1) & tmask
            return -1

        def insert(tag, region, node):
            slot = home(tag, region)
            while ht_node[slot] >= 0:
                slot = (slot + 1) & tmask
            ht_tag[slot] = tag
            ht_reg[slot] = region
            ht_node[slot] = node

        def delete(slot):
            ht_node[slot] = -1
            hole = slot
            i = (slot + 1) & tmask
            while ht_node[i] >= 0:
                h = home(ht_tag[i], ht_reg[i])
                if ((i - h) & tmask) >= ((i - hole) & tmask):
                    ht_tag[hole] = ht_tag[i]
                    ht_reg[hole] = ht_reg[i]
                    ht_node[hole] = ht_node[i]
                    ht_node[i] = -1
                    hole = i
                i = (i + 1) & tmask

        def list_remove(node, region):
            prev, nxt = node_prev[node], node_next[node]
            if prev >= 0:
                node_next[prev] = nxt
            else:
                head[region] = nxt
            if nxt >= 0:
                node_prev[nxt] = prev
            else:
                tail[region] = prev
            occ[region] -= 1

        def list_push(node, region):
            last = tail[region]
            node_prev[node] = last
            node_next[node] = -1
            if last >= 0:
                node_next[last] = node
            else:
                head[region] = node
            tail[region] = node
            occ[region] += 1

        def list_push_front(node, region):
            first = head[region]
            node_next[node] = first
            node_prev[node] = -1
            if first >= 0:
                node_prev[first] = node
            else:
                tail[region] = node
            head[region] = node
            occ[region] += 1

        def pdp_record(p, a):
            # vt_pdp_record: advance region p's clock, sample the bounded
            # reuse distance, periodically recompute dp.
            self._pdp_clock[p] += 1
            clk = int(self._pdp_clock[p])
            tags = self._ls_tags[p]
            clocks = self._ls_clocks[p]
            lmask = self._ls_size - 1
            slot = mix64(a) & lmask
            while tags[slot] != _EMPTY and tags[slot] != a:
                slot = (slot + 1) & lmask
            if tags[slot] == a:
                d = clk - int(clocks[slot])
                if d <= int(self._vp_maxdp[p]):
                    self._pdp_hist[p, d] += 1
            else:
                tags[slot] = a
                self._ls_count[p] += 1
            clocks[slot] = clk
            self._pdp_samples[p] += 1
            if self._pdp_samples[p] % int(self._vp_interval[p]) == 0:
                self._pdp_recompute(p)

        def duel(role, idx):
            # Saturating PSEL update shared by DIP/DRRIP/TA-DRRIP.
            if role == _ROLE_LEADER_SRRIP and psel[idx] < psel_max:
                psel[idx] += 1
            elif role == _ROLE_LEADER_BRRIP and psel[idx] > 0:
                psel[idx] -= 1

        def evict_one(p):
            # vt_evict_one: select (and for RRIP, age) but do not unlink.
            if occ[p] <= 0:
                return -1
            if pol in _VT_RRIP:
                maxp = -1
                m = head[p]
                while m >= 0:
                    if node_aux[m] > maxp:
                        maxp = node_aux[m]
                    m = node_next[m]
                victim, best = -1, None
                m = head[p]
                while m >= 0:
                    if node_aux[m] == maxp and (best is None
                                                or node_stamp[m] < best):
                        best = node_stamp[m]
                        victim = m
                    m = node_next[m]
                d = max_rrpv - maxp
                if d > 0:
                    m = head[p]
                    while m >= 0:
                        node_aux[m] += d
                        m = node_next[m]
                return victim
            if pol == "PDP":
                # Oldest unprotected line, else the oldest line (no clock
                # advance here).
                clk = int(self._pdp_clock[p])
                m = head[p]
                while m >= 0:
                    if node_aux[m] <= clk:
                        return m
                    m = node_next[m]
                return head[p]
            if pol == "Random":
                k = _splitmix64(rng) % occ[p]
                m = head[p]
                while k:
                    m = node_next[m]
                    k -= 1
                return m
            # Recency family: the list head is the LRU line.
            return head[p]

        def policy_hit(p, node, a):
            # vt_policy_hit: region.access(tag) on a resident line.
            if pol in _VT_RRIP:
                node_aux[node] = 0
                counter[0] += 1
                node_stamp[node] = int(counter[0])
            elif pol == "PDP":
                pdp_record(p, a)
                node_aux[node] = int(self._pdp_clock[p] + self._pdp_dp[p])
                list_remove(node, p)
                list_push(node, p)
            elif pol == "Random":
                pass
            else:
                list_remove(node, p)
                list_push(node, p)

        def policy_insert(p, node, a):
            # vt_policy_insert: metadata, duel bookkeeping, insert position.
            if pol == "LIP":
                list_push_front(node, p)
            elif pol == "BIP":
                if _uniform01(rng) >= epsilon:
                    list_push_front(node, p)
                else:
                    list_push(node, p)
            elif pol == "DIP":
                role = int(roles[p])
                duel(role, 0)
                bip = (role == _ROLE_LEADER_BRRIP
                       or (role == _ROLE_FOLLOWER
                           and int(psel[0]) > psel_max // 2))
                if bip and _uniform01(rng) >= epsilon:
                    list_push_front(node, p)
                else:
                    list_push(node, p)
            elif pol in _VT_RRIP:
                ins = max_rrpv - 1
                bimodal = False
                if pol == "BRRIP":
                    bimodal = True
                elif pol == "DRRIP":
                    role = int(roles[p])
                    duel(role, 0)
                    bimodal = (role == _ROLE_LEADER_BRRIP
                               or (role == _ROLE_FOLLOWER
                                   and int(psel[0]) > psel_max // 2))
                elif pol == "TA-DRRIP":
                    bucket = (a * GOLDEN64) & 1023
                    if bucket < leader_levels:
                        role = _ROLE_LEADER_SRRIP
                    elif bucket < 2 * leader_levels:
                        role = _ROLE_LEADER_BRRIP
                    else:
                        role = _ROLE_FOLLOWER
                    duel(role, p)
                    bimodal = (role == _ROLE_LEADER_BRRIP
                               or (role == _ROLE_FOLLOWER
                                   and int(psel[p]) > psel_max // 2))
                if bimodal and _uniform01(rng) >= epsilon:
                    ins = max_rrpv
                node_aux[node] = ins
                counter[0] += 1
                node_stamp[node] = int(counter[0])
                list_push(node, p)
            elif pol == "PDP":
                pdp_record(p, a)
                node_aux[node] = int(self._pdp_clock[p] + self._pdp_dp[p])
                list_push(node, p)
            else:
                # LRU / Random: MRU (insertion-order) end.
                list_push(node, p)

        def release(node):
            node_next[node] = free_box[0]
            free_box[0] = node

        def demote(tag):
            if unm_cap == 0:
                return
            slot = lookup(tag, unm)
            if slot >= 0:
                node = ht_node[slot]
                list_remove(node, unm)
                list_push(node, unm)
            else:
                node = free_box[0]
                free_box[0] = node_next[node]
                node_tag[node] = tag
                list_push(node, unm)
                insert(tag, unm, node)
            while occ[unm] > unm_cap:
                victim = head[unm]
                delete(lookup(node_tag[victim], unm))
                list_remove(victim, unm)
                release(victim)

        def evict_and_demote(p):
            # vt_evict_and_demote: unlink the chosen victim, demote it.
            victim = evict_one(p)
            if victim < 0:
                return
            vtag = node_tag[victim]
            delete(lookup(vtag, p))
            list_remove(victim, p)
            release(victim)
            demote(vtag)

        def insert_managed(a, p, cap):
            if cap == 0:
                demote(a)
                return
            if occ[p] >= cap:
                evict_and_demote(p)
            node = free_box[0]
            free_box[0] = node_next[node]
            node_tag[node] = a
            insert(a, p, node)
            policy_insert(p, node, a)

        return (lookup, delete, list_remove, list_push, release, demote,
                insert_managed, evict_and_demote, policy_hit, ht_node)

    def _replay_python(self, addrs: np.ndarray, parts: np.ndarray,
                       miss_out: np.ndarray) -> None:
        if addrs.size == 0:
            return
        state = self._state_lists()
        free_box = [int(self._free[0])]
        (lookup, delete, list_remove, list_push, release, demote,
         insert_managed, evict_and_demote, policy_hit,
         ht_node) = self._make_ops(state, free_box)
        caps = self._caps.tolist()
        unm = self.num_partitions
        misses = [0] * self.num_partitions
        for a, p in zip(addrs.tolist(), parts.tolist()):
            slot = lookup(a, p)
            if slot >= 0:
                policy_hit(p, ht_node[slot], a)
                continue
            uslot = lookup(a, unm)
            if uslot >= 0:
                node = ht_node[uslot]
                list_remove(node, unm)
                delete(uslot)
                release(node)
                insert_managed(a, p, caps[p])
                continue
            misses[p] += 1
            insert_managed(a, p, caps[p])
        self._write_back(state)
        self._free[0] = free_box[0]
        miss_out += np.asarray(misses, dtype=np.int64)

    def _realloc_python(self, new_caps: Sequence[int]) -> None:
        state = self._state_lists()
        free_box = [int(self._free[0])]
        ops = self._make_ops(state, free_box)
        evict_and_demote = ops[7]
        occ = state[8]
        for p in range(self.num_partitions):
            while occ[p] > new_caps[p]:
                evict_and_demote(p)
        self._write_back(state)
        self._free[0] = free_box[0]

    # ------------------------------------------------------------------ #
    def snapshot(self, position: int = 0, meta: dict | None = None):
        """Capture the warm state as a picklable, content-hashable
        :class:`~repro.sampling.checkpoint.CacheCheckpoint`."""
        from ...sampling.checkpoint import snapshot
        return snapshot(self, position=position, meta=meta)

    def restore(self, checkpoint) -> None:
        """Rewind this cache to ``checkpoint``'s state, in place."""
        from ...sampling.checkpoint import restore_into
        restore_into(self, checkpoint)

    def to_spec(self):
        """A :class:`~repro.cache.spec.PartitionSpec` rebuilding this cache."""
        from ..spec import PartitionSpec
        return PartitionSpec(
            scheme="vantage",
            capacity_lines=self.capacity_lines,
            num_partitions=self.num_partitions,
            policy=self.policy,
            backend="array",
            targets=tuple(float(g) for g in self.granted_allocations()),
            policy_kwargs=tuple(sorted(self._policy_kwargs.items())),
            scheme_kwargs=self._spec_scheme_kwargs(),
        )

    def _spec_scheme_kwargs(self) -> tuple:
        if self.unmanaged_fraction != 0.10:
            return (("unmanaged_fraction", self.unmanaged_fraction),)
        return ()

    def __repr__(self) -> str:
        return (f"ArrayVantageCache(capacity={self.capacity_lines} lines, "
                f"partitions={self.num_partitions}, "
                f"unmanaged={self._unm_cap} lines)")
