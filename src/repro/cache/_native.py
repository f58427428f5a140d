"""On-demand compilation and loading of the native sweep kernels.

The array-backed cache (:mod:`repro.cache.arraycache`) keeps all of its
state in numpy arrays; replaying a trace through that state is a tight
per-access loop that pure Python executes ~15-30x slower than necessary.
This module compiles ``_sweepkernel.c`` into a small shared library with
whatever C compiler the host has (``cc``/``gcc``/``clang``) and exposes it
through :mod:`ctypes` — no Python headers, build backends, or third-party
packages are involved, so the build degrades gracefully: when no compiler
is available (or ``REPRO_NATIVE=0`` is set) :func:`get_kernel` returns
``None`` and callers fall back to the pure-Python replay path, which
produces identical results.

The compiled library is cached under the user's cache directory keyed by a
hash of the C source, so recompilation happens only when the source
changes.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

__all__ = ["get_kernel", "native_available", "disable_native",
           "NativeKernel", "BatchTask",
           "resolve_threads",
           "KIND_LRU", "KIND_RRIP", "KIND_DIP", "KIND_PDP", "KIND_RANDOM",
           "KIND_PART_LRU", "KIND_PART_SRRIP", "KIND_VANTAGE",
           "KIND_TADRRIP", "KIND_BELADY"]

_SOURCE = Path(__file__).with_name("_sweepkernel.c")

_I64 = np.ctypeslib.ndpointer(dtype=np.int64, flags="C_CONTIGUOUS")
_U64 = np.ctypeslib.ndpointer(dtype=np.uint64, flags="C_CONTIGUOUS")

_kernel = None
_kernel_tried = False

#: Task kinds of the threaded batch dispatcher; must match the
#: BATCH_KIND_* enum in _sweepkernel.c.
(KIND_LRU, KIND_RRIP, KIND_DIP, KIND_PDP, KIND_RANDOM,
 KIND_PART_LRU, KIND_PART_SRRIP, KIND_VANTAGE,
 KIND_TADRRIP, KIND_BELADY) = range(10)

_P64 = ctypes.POINTER(ctypes.c_int64)
_PU64 = ctypes.POINTER(ctypes.c_uint64)


class BatchTask(ctypes.Structure):
    """ctypes mirror of the C ``batch_task`` record (one replay per task).

    The field order must match the struct declaration in
    ``_sweepkernel.c`` exactly; every member is 8 bytes, so there is no
    padding to worry about.  Unused members of a given kind stay NULL/0
    (the zero-initialized default of a fresh ``(BatchTask * n)()`` array).
    """

    _fields_ = [
        ("kind", ctypes.c_int64),
        ("addrs", _P64),
        ("n", ctypes.c_int64),
        ("parts", _P64),
        ("tags", _P64),
        ("stamp", _P64),
        ("rrpv", _P64),
        ("counter", _P64),
        ("rng_state", _PU64),
        ("roles", _P64),
        ("psel", _P64),
        ("expires", _P64),
        ("clock", _P64),
        ("dp", _P64),
        ("sample_count", _P64),
        ("hist", _P64),
        ("ls_tags", _P64),
        ("ls_clocks", _P64),
        ("ls_count", _P64),
        ("region_sets", _P64),
        ("region_ways", _P64),
        ("region_off", _P64),
        ("miss_out", _P64),
        ("caps", _P64),
        ("ht_tag", _P64),
        ("ht_reg", _P64),
        ("ht_node", _P64),
        ("node_tag", _P64),
        ("node_prev", _P64),
        ("node_next", _P64),
        ("head", _P64),
        ("tail", _P64),
        ("occ", _P64),
        ("free_io", _P64),
        ("num_sets", ctypes.c_int64),
        ("ways", ctypes.c_int64),
        ("max_rrpv", ctypes.c_int64),
        ("mode", ctypes.c_int64),
        ("lip", ctypes.c_int64),
        ("hashed", ctypes.c_int64),
        ("index_seed", ctypes.c_int64),
        ("psel_max", ctypes.c_int64),
        ("leader_levels", ctypes.c_int64),
        ("max_dp", ctypes.c_int64),
        ("interval", ctypes.c_int64),
        ("clear_threshold", ctypes.c_int64),
        ("tsize", ctypes.c_int64),
        ("num_regions", ctypes.c_int64),
        ("unm_cap", ctypes.c_int64),
        ("node_aux", _P64),
        ("node_stamp", _P64),
        ("vp_maxdp", _P64),
        ("vp_interval", _P64),
        ("vp_clear", _P64),
        ("next_use", _P64),
        ("heap_key", _P64),
        ("heap_tag", _P64),
        ("heap_io", _P64),
        ("hist_stride", ctypes.c_int64),
        ("ls_size", ctypes.c_int64),
        ("heap_cap", ctypes.c_int64),
        ("capacity", ctypes.c_int64),
        ("num_streams", ctypes.c_int64),
        ("epsilon", ctypes.c_double),
        ("result", ctypes.c_int64),
    ]


def resolve_threads(threads: int | None = None) -> int:
    """Effective worker-thread width for a batched replay.

    Resolution order: an explicit ``threads=`` argument, the
    ``REPRO_THREADS`` environment variable, then the cores this process
    may run on (its CPU affinity set, which a cpuset or ``taskset`` limit
    shrinks below ``os.cpu_count()``).  Always at least 1.
    """
    if threads is None:
        env = os.environ.get("REPRO_THREADS", "").strip()
        if env:
            try:
                threads = int(env)
            except ValueError:
                raise ValueError(
                    f"REPRO_THREADS must be an integer, got {env!r}")
    if threads is None:
        threads = (len(os.sched_getaffinity(0))
                   if hasattr(os, "sched_getaffinity")
                   else os.cpu_count() or 1)
    return max(1, int(threads))


class NativeKernel:
    """ctypes bindings for the compiled replay and monitoring kernels.

    One method per exported C function: ``lru_run`` (LRU/LIP), ``rrip_run``
    (SRRIP/BRRIP/DRRIP), ``dip_run`` (BIP/DIP), ``pdp_run`` (protecting
    distance), ``random_run`` (seeded random replacement), ``multi_lru_run``
    (several LRU/LIP configs in one trace pass), ``stack_hist_run``
    (one-shot Mattson stack-distance histogram), ``stack_hist_chunk`` /
    ``stack_state_rehash`` (the incremental, caller-owned-state variant),
    ``tadrrip_run`` (thread-aware DRRIP with per-thread PSEL),
    ``belady_run`` (Belady MIN over precomputed next-use indices),
    and ``vantage_run`` / ``vantage_realloc`` (line-granular Vantage
    partitioning, managed regions running any of the recency/RRIP/PDP/
    Random policies, with a shared unmanaged region).
    All replay kernels accept modulo or hashed set indexing, and all are
    chunk-resumable: state is passed in and returned, so split replays are
    bit-identical to one-shot replays.

    Caches replay only through :meth:`batch_run_threaded`: each cache's
    ``replay_task`` is its one encoding of a kernel call, and its serial
    entry points are one-task batches.  The per-kernel replay methods
    (``lru_run`` ... ``vantage_run``) stay bound as benchmark boundaries:
    ``perfbench`` wraps each by name to time the native layer.
    """

    def __init__(self, lib: ctypes.CDLL):
        self.lib = lib
        lib.lru_run.restype = ctypes.c_int64
        lib.lru_run.argtypes = [
            _I64, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
            _I64, _I64, _I64,
            ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
        ]
        lib.random_run.restype = ctypes.c_int64
        lib.random_run.argtypes = [
            _I64, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
            _I64, _U64, ctypes.c_int64, ctypes.c_int64,
        ]
        lib.multi_lru_run.restype = ctypes.c_int64
        lib.multi_lru_run.argtypes = [
            _I64, ctypes.c_int64, ctypes.c_int64,
            _I64, _I64, _I64, _I64, _I64, _I64, _I64,
            ctypes.c_int64, ctypes.c_int64, _I64,
        ]
        lib.stack_hist_chunk.restype = ctypes.c_int64
        lib.stack_hist_chunk.argtypes = [
            _I64, ctypes.c_int64,
            _I64, _I64, ctypes.c_int64,
            _I64, ctypes.c_int64, _I64, _I64, _I64,
            _I64, ctypes.c_int64,
        ]
        lib.stack_state_rehash.restype = None
        lib.stack_state_rehash.argtypes = [
            _I64, _I64, ctypes.c_int64, _I64, _I64, ctypes.c_int64,
        ]
        lib.rrip_run.restype = ctypes.c_int64
        lib.rrip_run.argtypes = [
            _I64, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
            ctypes.c_int64, _I64, _I64, _I64, _I64,
            ctypes.c_int64, ctypes.c_double, _U64, _I64, _I64,
            ctypes.c_int64, ctypes.c_int64,
            ctypes.c_int64, ctypes.c_int64,
        ]
        lib.dip_run.restype = ctypes.c_int64
        lib.dip_run.argtypes = [
            _I64, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
            _I64, _I64, _I64,
            ctypes.c_int64, ctypes.c_double, _U64, _I64, _I64,
            ctypes.c_int64, ctypes.c_int64,
            ctypes.c_int64, ctypes.c_int64,
        ]
        lib.pdp_run.restype = ctypes.c_int64
        lib.pdp_run.argtypes = [
            _I64, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
            _I64, _I64, _I64, _I64, _I64, _I64, _I64, _I64,
            ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
            _I64, _I64, _I64, ctypes.c_int64,
            ctypes.c_int64, ctypes.c_int64,
        ]
        lib.stack_hist_run.restype = ctypes.c_int64
        lib.stack_hist_run.argtypes = [_I64, ctypes.c_int64, _I64]
        lib.part_lru_run.restype = ctypes.c_int64
        lib.part_lru_run.argtypes = [
            _I64, _I64, ctypes.c_int64, ctypes.c_int64,
            _I64, _I64, _I64,
            _I64, _I64, _I64,
            ctypes.c_int64, ctypes.c_int64, ctypes.c_int64, _I64,
        ]
        lib.part_srrip_run.restype = ctypes.c_int64
        lib.part_srrip_run.argtypes = [
            _I64, _I64, ctypes.c_int64, ctypes.c_int64,
            _I64, _I64, _I64,
            _I64, _I64, _I64, _I64,
            ctypes.c_int64, ctypes.c_int64, ctypes.c_int64, _I64,
        ]
        lib.tadrrip_run.restype = ctypes.c_int64
        lib.tadrrip_run.argtypes = [
            _I64, _I64, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
            ctypes.c_int64, _I64, _I64, _I64, _I64,
            ctypes.c_double, _U64, _I64,
            ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
            ctypes.c_int64, ctypes.c_int64, _I64,
        ]
        lib.belady_run.restype = ctypes.c_int64
        lib.belady_run.argtypes = [
            _I64, _I64, ctypes.c_int64, ctypes.c_int64,
            _I64, _I64, ctypes.c_int64,
            _I64, _I64, ctypes.c_int64, _I64,
        ]
        lib.vantage_run.restype = ctypes.c_int64
        lib.vantage_run.argtypes = [
            _I64, _I64, ctypes.c_int64, ctypes.c_int64, _I64,
            ctypes.c_int64,
            ctypes.c_int64, ctypes.c_int64, ctypes.c_double,
            _I64, _U64, _I64, _I64, ctypes.c_int64, ctypes.c_int64,
            _I64, _I64,
            _I64, _I64, _I64, _I64, ctypes.c_int64,
            _I64, _I64, _I64,
            _I64, _I64, _I64, ctypes.c_int64,
            _I64, _I64, _I64, ctypes.c_int64,
            _I64, _I64, _I64,
            _I64, _I64, _I64, _I64, _I64,
        ]
        lib.vantage_realloc.restype = ctypes.c_int64
        lib.vantage_realloc.argtypes = [
            ctypes.c_int64, _I64, ctypes.c_int64,
            ctypes.c_int64, ctypes.c_int64, _U64,
            _I64, _I64, _I64, _I64,
            _I64, _I64, _I64, ctypes.c_int64,
            _I64, _I64, _I64,
            _I64, _I64, _I64, _I64,
        ]
        # The threaded batch dispatcher.  Libraries compiled from this
        # source always export it (the -DREPRO_SERIAL_BATCH variant runs
        # the same tasks serially), and _library_path folds the dispatcher
        # symbols into the cache key, so no loaded library can lack it.
        lib.batch_run_threaded.restype = ctypes.c_int64
        lib.batch_run_threaded.argtypes = [
            ctypes.POINTER(BatchTask), ctypes.c_int64, ctypes.c_int64,
        ]

    def lru_run(self, addrs, num_sets, ways, tags, stamp, counter,
                lip=0, hashed=0, index_seed=0) -> int:
        return int(self.lib.lru_run(addrs, addrs.size, num_sets, ways,
                                    tags, stamp, counter, lip, hashed,
                                    index_seed))

    def rrip_run(self, addrs, num_sets, ways, max_rrpv, tags, rrpv, stamp,
                 counter, mode, epsilon, rng_state, roles, psel,
                 psel_max, leader_levels, hashed=0, index_seed=0) -> int:
        return int(self.lib.rrip_run(addrs, addrs.size, num_sets, ways,
                                     max_rrpv, tags, rrpv, stamp, counter,
                                     mode, epsilon, rng_state, roles, psel,
                                     psel_max, leader_levels, hashed,
                                     index_seed))

    def dip_run(self, addrs, num_sets, ways, tags, stamp, counter, mode,
                epsilon, rng_state, roles, psel, psel_max, leader_levels,
                hashed=0, index_seed=0) -> int:
        return int(self.lib.dip_run(addrs, addrs.size, num_sets, ways,
                                    tags, stamp, counter, mode, epsilon,
                                    rng_state, roles, psel, psel_max,
                                    leader_levels, hashed, index_seed))

    def pdp_run(self, addrs, num_sets, ways, tags, stamp, counter, expires,
                clock, dp, sample_count, hist, max_dp, interval,
                clear_threshold, ls_tags, ls_clocks, ls_count, tsize,
                hashed=0, index_seed=0) -> int:
        return int(self.lib.pdp_run(addrs, addrs.size, num_sets, ways,
                                    tags, stamp, counter, expires, clock,
                                    dp, sample_count, hist, max_dp,
                                    interval, clear_threshold, ls_tags,
                                    ls_clocks, ls_count, tsize, hashed,
                                    index_seed))

    def random_run(self, addrs, num_sets, ways, tags, rng_state,
                   hashed=0, index_seed=0) -> int:
        return int(self.lib.random_run(addrs, addrs.size, num_sets, ways,
                                       tags, rng_state, hashed, index_seed))

    def multi_lru_run(self, addrs, num_configs, cfg_sets, cfg_ways, cfg_off,
                      tags, stamp, counters, lip, miss_out,
                      hashed=0, index_seed=0) -> int:
        """Replay one trace through several LRU/LIP configs in one pass;
        fills per-config miss counts into ``miss_out`` and returns the
        total."""
        return int(self.lib.multi_lru_run(addrs, addrs.size, num_configs,
                                          cfg_sets, cfg_ways, cfg_off, tags,
                                          stamp, counters, lip, hashed,
                                          index_seed, miss_out))

    def stack_hist_run(self, addrs, hist) -> int:
        """Fill ``hist`` with stack-distance counts; returns cold misses
        (or -1 when scratch allocation failed and nothing was written)."""
        return int(self.lib.stack_hist_run(addrs, addrs.size, hist))

    def stack_hist_chunk(self, addrs, tab_tags, tab_vals, tree, pos, live,
                         cold, hist) -> int:
        """Advance a caller-owned incremental stack-distance state by one
        chunk; returns 0, or -1 when the state arrays are too small for the
        chunk (grow and retry)."""
        return int(self.lib.stack_hist_chunk(
            addrs, addrs.size, tab_tags, tab_vals, tab_tags.size, tree,
            tree.size - 1, pos, live, cold, hist, hist.size))

    def stack_state_rehash(self, old_tags, old_vals, new_tags,
                           new_vals) -> None:
        """Re-probe every occupied slot of a last-position table into a
        larger caller-allocated table (``new_vals`` pre-filled with -1)."""
        self.lib.stack_state_rehash(old_tags, old_vals, old_tags.size,
                                    new_tags, new_vals, new_tags.size)

    def part_lru_run(self, addrs, parts, num_regions, region_sets,
                     region_ways, region_off, tags, stamp, counter, lip,
                     miss_out, hashed=0, index_seed=0) -> int:
        """Interleaved multi-partition LRU/LIP replay; fills per-partition
        miss counts into ``miss_out`` and returns the total (-1 on a bad
        partition id)."""
        return int(self.lib.part_lru_run(addrs, parts, addrs.size,
                                         num_regions, region_sets,
                                         region_ways, region_off, tags,
                                         stamp, counter, lip, hashed,
                                         index_seed, miss_out))

    def part_srrip_run(self, addrs, parts, num_regions, region_sets,
                       region_ways, region_off, tags, rrpv, stamp, counter,
                       max_rrpv, miss_out, hashed=0, index_seed=0) -> int:
        """Interleaved multi-partition SRRIP replay (see part_lru_run)."""
        return int(self.lib.part_srrip_run(addrs, parts, addrs.size,
                                           num_regions, region_sets,
                                           region_ways, region_off, tags,
                                           rrpv, stamp, counter, max_rrpv,
                                           hashed, index_seed, miss_out))

    def tadrrip_run(self, addrs, threads, num_sets, ways, max_rrpv, tags,
                    rrpv, stamp, counter, epsilon, rng_state, psel,
                    num_streams, psel_max, leader_levels, miss_out,
                    hashed=0, index_seed=0) -> int:
        """Thread-aware DRRIP replay: per-thread PSEL counters dueled by
        address constituency; fills per-thread miss counts into
        ``miss_out`` and returns the total (-1 on a thread id outside
        ``[0, num_streams)``)."""
        return int(self.lib.tadrrip_run(addrs, threads, addrs.size,
                                        num_sets, ways, max_rrpv, tags,
                                        rrpv, stamp, counter, epsilon,
                                        rng_state, psel, num_streams,
                                        psel_max, leader_levels, hashed,
                                        index_seed, miss_out))

    def belady_run(self, addrs, next_use, capacity, ht_tag, ht_val,
                   heap_key, heap_tag, heap_io) -> int:
        """Belady MIN replay over a fully-associative cache of ``capacity``
        lines, fed by precomputed next-use indices (see
        ``belady_next_use``); returns misses (-2 on heap overflow /
        corruption — defensive, cannot happen when the heap holds
        ``len(addrs) + 1`` slots)."""
        return int(self.lib.belady_run(addrs, next_use, addrs.size,
                                       capacity, ht_tag, ht_val,
                                       ht_tag.size, heap_key, heap_tag,
                                       heap_key.size, heap_io))

    def vantage_run(self, addrs, parts, num_parts, caps, unm_cap, pol,
                    max_rrpv, epsilon, counter, rng_state, roles, psel,
                    psel_max, leader_levels, node_aux, node_stamp,
                    pdp_clock, pdp_dp, pdp_sample, pdp_hist, hist_stride,
                    vp_maxdp, vp_interval, vp_clear, ls_tags, ls_clocks,
                    ls_count, ls_size, ht_tag, ht_reg, ht_node, node_tag,
                    node_prev, node_next, head, tail, occ, free_io,
                    miss_out) -> int:
        """Partition-tagged Vantage replay (fully-associative managed
        regions running the ``pol`` replacement policy, plus the shared
        unmanaged region); fills per-partition miss counts into
        ``miss_out`` and returns the total (negative on a bad partition
        id / exhausted node pool — both defensive).  Policy side state the
        selected ``pol`` does not read may be size-1 dummies."""
        return int(self.lib.vantage_run(addrs, parts, addrs.size, num_parts,
                                        caps, unm_cap, pol, max_rrpv,
                                        epsilon, counter, rng_state, roles,
                                        psel, psel_max, leader_levels,
                                        node_aux, node_stamp, pdp_clock,
                                        pdp_dp, pdp_sample, pdp_hist,
                                        hist_stride, vp_maxdp, vp_interval,
                                        vp_clear, ls_tags, ls_clocks,
                                        ls_count, ls_size, ht_tag, ht_reg,
                                        ht_node, ht_tag.size, node_tag,
                                        node_prev, node_next, head, tail,
                                        occ, free_io, miss_out))

    def vantage_realloc(self, num_parts, new_caps, unm_cap, pol, max_rrpv,
                        rng_state, node_aux, node_stamp, pdp_clock, pdp_dp,
                        ht_tag, ht_reg, ht_node, node_tag, node_prev,
                        node_next, head, tail, occ, free_io) -> int:
        """Warm Vantage reallocation: trim each managed region to its new
        capacity via the ``pol`` victim policy, demoting evicted victims
        into the unmanaged region."""
        return int(self.lib.vantage_realloc(num_parts, new_caps, unm_cap,
                                            pol, max_rrpv, rng_state,
                                            node_aux, node_stamp, pdp_clock,
                                            pdp_dp, ht_tag, ht_reg, ht_node,
                                            ht_tag.size, node_tag, node_prev,
                                            node_next, head, tail, occ,
                                            free_io))

    def batch_run_threaded(self, tasks, num_tasks: int,
                           num_threads: int) -> int:
        """Execute ``num_tasks`` independent replay tasks across up to
        ``num_threads`` worker threads (serial under the
        ``REPRO_SERIAL_BATCH`` build); each task's outcome lands in its
        own ``result`` member.  Returns the thread count actually used.

        ``tasks`` is a ``(BatchTask * num_tasks)()`` ctypes array; the GIL
        is released for the whole call, which is what lets Python-level
        thread pools overlap other work with a running batch."""
        return int(self.lib.batch_run_threaded(tasks, num_tasks,
                                               num_threads))


def _cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME")
    if base:
        return Path(base) / "repro-kernels"
    home = Path.home()
    if os.access(home, os.W_OK):
        return home / ".cache" / "repro-kernels"
    return Path(tempfile.gettempdir()) / "repro-kernels"


def _find_compiler() -> str | None:
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


#: Extra compile flags per build variant, preferred first: the threaded
#: batch dispatcher needs -pthread; when the compiler rejects that flag the
#: retry compiles the same entry points with a serial dispatcher.
_FLAG_VARIANTS = (("-pthread",), ("-DREPRO_SERIAL_BATCH",))

#: Thread-entry symbols of the batch dispatcher.  Folded into the
#: cached-library key so a cache populated before the dispatcher existed
#: (same base flags, different exports) can never be picked up.
_BATCH_SYMBOLS = "batch_run_threaded,batch_threads_available"


def _variant_flags(extra: tuple[str, ...]) -> list[str]:
    """Full compile flags for one build variant.

    ``REPRO_NATIVE_CFLAGS`` appends user flags to every variant (e.g.
    ``-fsanitize=thread`` for the CI race-detection smoke build); they are
    part of the cache key, so sanitizer and plain builds coexist.
    """
    user = os.environ.get("REPRO_NATIVE_CFLAGS", "").split()
    return ["-O3", "-shared", "-fPIC", *extra, *user]


def _library_path(cache: Path, source: bytes, flags: list[str],
                  suffix: str) -> Path:
    key = source + b"|" + " ".join(flags).encode() + b"|" + \
        _BATCH_SYMBOLS.encode()
    digest = hashlib.sha256(key).hexdigest()[:16]
    return cache / f"sweepkernel-{digest}.{suffix}"


def _build_library() -> Path | None:
    if not _SOURCE.exists():
        return None
    source = _SOURCE.read_bytes()
    suffix = "dll" if sys.platform == "win32" else "so"
    cache = _cache_dir()
    candidates = [(extra, _library_path(cache, source,
                                        _variant_flags(extra), suffix))
                  for extra in _FLAG_VARIANTS]
    for _, lib_path in candidates:
        if lib_path.exists():
            return lib_path
    compiler = _find_compiler()
    if compiler is None:
        return None
    for extra, lib_path in candidates:
        tmp_path = None
        try:
            cache.mkdir(parents=True, exist_ok=True)
            with tempfile.NamedTemporaryFile(
                    suffix=f".{suffix}", dir=cache, delete=False) as tmp:
                tmp_path = Path(tmp.name)
            cmd = [compiler, *_variant_flags(extra),
                   str(_SOURCE), "-o", str(tmp_path)]
            subprocess.run(cmd, check=True, capture_output=True, timeout=120)
            os.replace(tmp_path, lib_path)  # atomic vs concurrent builders
            return lib_path
        except (OSError, subprocess.SubprocessError):
            try:
                if tmp_path is not None:
                    tmp_path.unlink(missing_ok=True)
            except OSError:
                pass
    return None


def get_kernel() -> NativeKernel | None:
    """The compiled kernel bindings, or None when unavailable.

    The first call attempts the build; the result (including failure) is
    cached for the life of the process.  Set ``REPRO_NATIVE=0`` to force
    the pure-Python fallback.
    """
    global _kernel, _kernel_tried
    if _kernel_tried:
        return _kernel
    _kernel_tried = True
    if os.environ.get("REPRO_NATIVE", "1") == "0":
        return None
    lib_path = _build_library()
    if lib_path is None:
        return None
    try:
        _kernel = NativeKernel(ctypes.CDLL(str(lib_path)))
    except OSError:
        _kernel = None
    return _kernel


def native_available() -> bool:
    """Whether the native replay kernels can be used."""
    return get_kernel() is not None


def disable_native() -> None:
    """Force the pure-Python fallback for the rest of this process.

    The supervised job runtime's degradation ladder calls this in a
    worker that is retrying a job after a native-kernel fault (SIGSEGV,
    OOM kill, compiler breakage): it drops any already-loaded kernel,
    pins the process-lifetime build cache to "unavailable", and sets
    ``REPRO_NATIVE=0`` so grandchild processes degrade too.  Every
    kernel lookup happens through :func:`get_kernel` at use time, so the
    switch takes effect immediately regardless of how the worker was
    started (fork inherits the parent's cached kernel; spawn would
    rebuild it).  There is deliberately no ``enable_native`` inverse —
    a degraded worker stays degraded for its lifetime.
    """
    global _kernel, _kernel_tried
    os.environ["REPRO_NATIVE"] = "0"
    _kernel = None
    _kernel_tried = True
