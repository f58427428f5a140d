"""The benchmark's four workloads.

Each workload builds its inputs from the seed in ``__init__`` (the set-up
the benchmark times), runs one timed top-level call per :meth:`run`, and
checks its own outputs in :meth:`check`.  A workload's *ops* are the units
its checks count: controller events, mixes, or matrix cells.  The
``nonzero`` / ``zero`` sets are the layer-coverage predictions for a
traced run: boundaries that must record calls, and layers that must not.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import tempfile
import time
import traceback
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.cache.hashing import derive_seed
from repro.jobs.bank import ResultBank
from repro.sim.controller import AccessBatch, AppDepart, OnlineTalusController
from repro.sim.mixsweep import MixSweepSpec, run_mix_sweep
from repro.sim.multicore import ChurnSpec, churn_events
from repro.sim.sweep import matrix_cells, run_matrix_sweep
from repro.workloads.mixes import random_mixes
from repro.workloads.spec_profiles import get_profile

#: Seed of the churn schedule and of the mix compositions.  Both stay
#: fixed so that every seed asks for the same work: drawn from ``--seed``,
#: the schedule ran 861 to 1091 events (814k to 1036k accesses) over ten
#: seeds.  ``--seed`` draws every address trace instead.
SHAPE_SEED = 2015
#: Layers with no boundary call in a workload that never plans.
PLANNING_LAYERS = ("monitor.", "core.", "partitioning.", "sim.replan")
#: The supervised job runtime's layer.
JOBS_LAYERS = ("jobs.",)


def digest_of(payload) -> str:
    """Short hash of a JSON-able record of simulated counters."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _timed(tracer, fn, *args, **kwargs):
    """Call ``fn``, as a ``sim.self`` span when tracing."""
    if tracer is None:
        return fn(*args, **kwargs)
    return tracer.top(fn, *args, **kwargs)


def _attempt(tracer, fn, *args, **kwargs):
    """:func:`_timed`, returning None (every op failed) on an error."""
    try:
        return _timed(tracer, fn, *args, **kwargs)
    except Exception:
        traceback.print_exc()
        return None


def _redraw_traces(events: list, spec: ChurnSpec) -> list:
    """``events`` with every app's accesses drawn from ``spec.base_seed``.

    Each app keeps its profile and its disjoint address range; its trace
    is regenerated as :func:`churn_events` would for ``spec`` and batched
    from the same cursor positions.
    """
    if spec.trace_accesses % spec.batch_accesses:
        raise ValueError("trace_accesses must be a multiple of "
                         "batch_accesses")
    traces, cursors, out = {}, {}, []
    for event in events:
        if not isinstance(event, AccessBatch):
            out.append(event)
            continue
        app = event.app
        if app not in traces:
            name, counter = app.rsplit("#", 1)
            trace = get_profile(name).trace(
                spec.trace_accesses,
                seed=derive_seed(spec.base_seed, f"churn-trace|{counter}"))
            traces[app] = trace.addresses + np.int64((int(counter) + 1) << 32)
            cursors[app] = 0
        start = cursors[app]
        end = start + event.addresses.size
        out.append(AccessBatch(app, traces[app][start:end]))
        cursors[app] = end % spec.trace_accesses
    return out


class Churn:
    """The online controller on a churning 16..32-app schedule."""

    name = "churn"
    op = "event"
    nonzero = frozenset({
        "sim.self", "native.stack_hist", "cache.h3", "cache.replay",
        "cache.reconfigure", "monitor.record", "monitor.curve",
        "monitor.drift", "core.hull", "core.talus_plan", "partitioning.plan",
        "sim.replan"})
    zero = JOBS_LAYERS

    def __init__(self, seed: int):
        self.spec = ChurnSpec(
            total_mb=8.0, max_apps=32, initial_apps=16, min_apps=16,
            steps=48, batch_accesses=1_000, trace_accesses=48_000,
            arrive_prob=0.35, depart_prob=0.30, qos_prob=0.25,
            qos_floor_mb_max=0.25, qos_max_fraction=0.5, base_seed=seed)
        schedule = churn_events(replace(self.spec, base_seed=SHAPE_SEED))
        self.events = _redraw_traces(schedule, self.spec)
        self.ops = len(self.events)
        self.accesses = sum(int(e.addresses.size) for e in self.events
                            if isinstance(e, AccessBatch))

    def run(self, tracer=None) -> dict:
        """Feed the schedule one event at a time, timing each ``handle``."""
        latencies, replanned, failed = [], [], set()
        clock = time.perf_counter
        start = clock()
        controller = _timed(tracer, OnlineTalusController,
                            self.spec.total_mb, max_apps=self.spec.max_apps)
        with controller:
            for seq, event in enumerate(self.events):
                before = len(controller.replans)
                t0 = clock()
                try:
                    _timed(tracer, controller.handle, event)
                except Exception:
                    failed.add(seq)
                latencies.append(clock() - t0)
                replanned.append(len(controller.replans) > before)
        wall = clock() - start
        return {"wall": wall, "result": controller.result(),
                "partitionable": controller.partitionable,
                "latencies": latencies, "replanned": replanned,
                "failed": failed}

    def check(self, out) -> set:
        """Seqs of events whose records break a controller guarantee."""
        bad = set(out["failed"])
        result = out["result"]
        batches = {b.seq: b for b in result.batches}
        replans = {r.seq: r for r in result.replans}
        slot_of: dict = {}
        for seq, event in enumerate(self.events):
            if isinstance(event, AccessBatch):
                batch = batches.get(seq)
                if batch is None or batch.accesses != event.addresses.size:
                    bad.add(seq)
            replan = replans.get(seq)
            if replan is None:
                if isinstance(event, AppDepart):
                    bad.add(seq)       # a departure always replans
                continue
            active = [slot for slot, app in enumerate(replan.apps)
                      if app is not None]
            if any(replan.granted[s] + 1e-6 < replan.floors[s]
                   for s in active):
                bad.add(seq)
            if active and abs(sum(replan.granted)
                              - out["partitionable"]) > 1e-6:
                bad.add(seq)
            if isinstance(event, AppDepart):
                slot = slot_of.get(event.app)
                if (slot is None or event.app in replan.apps
                        or replan.granted[slot] != 0.0):
                    bad.add(seq)
            slot_of = {app: slot for slot, app in enumerate(replan.apps)
                       if app is not None}
        return bad

    def digest(self, out) -> str:
        return digest_of(out["result"].to_payload())

    def model(self, out) -> dict:
        batches = out["result"].batches
        misses = sum(b.misses for b in batches)
        accesses = sum(b.accesses for b in batches)
        replans = out["result"].replans
        noop = sum(1 for prev, cur in zip(replans, replans[1:])
                   if cur.granted == prev.granted)
        return {"sim_miss_rate": misses / accesses,
                "sim.replan_noop_ratio": noop / len(replans)}


class MixSweep:
    """The serial Fig. 12 mix sweep: 8 mixes x 8 apps, Talus+V/LRU."""

    name = "mix_sweep"
    op = "mix"
    nonzero = frozenset({
        "sim.self", "workloads.trace_gen", "native.replay",
        "native.stack_hist", "cache.h3", "cache.replay", "cache.reconfigure",
        "monitor.record", "monitor.curve", "core.hull", "core.talus_plan",
        "partitioning.plan", "sim.replan"})
    zero = JOBS_LAYERS

    def __init__(self, seed: int):
        self.mixes = random_mixes(8, apps_per_mix=8, seed=SHAPE_SEED)
        self.spec = MixSweepSpec(total_mb=4.0, trace_accesses=120_000,
                                 interval_accesses=30_000, base_seed=seed)
        self.ops = len(self.mixes)
        self.accesses = sum(len(mix.apps) for mix in self.mixes) \
            * self.spec.trace_accesses

    def run(self, tracer=None) -> dict:
        start = time.perf_counter()
        result = _attempt(tracer, run_mix_sweep, self.mixes, self.spec,
                          max_workers=1)
        return {"wall": time.perf_counter() - start, "result": result}

    def check(self, out) -> set:
        """Mixes missing, or whose intervals lose or invent accesses."""
        if out["result"] is None:
            return set(range(self.ops))
        records = out["result"].records
        bad = set()
        for index, mix in enumerate(self.mixes):
            record = records.get(mix.name)
            if record is None or any(
                    sum(r.accesses[app] for r in record.intervals)
                    != self.spec.trace_accesses
                    for app in range(len(mix.apps))):
                bad.add(index)
        return bad

    def digest(self, out) -> str:
        if out["result"] is None:
            return "failed"
        return digest_of([record.to_payload()
                          for record in out["result"].records.values()])

    def model(self, out) -> dict:
        result = out["result"]
        intervals = [r for rec in result.records.values()
                     for r in rec.intervals]
        misses = sum(sum(r.misses) for r in intervals)
        accesses = sum(sum(r.accesses) for r in intervals)
        return {"sim_miss_rate": misses / accesses,
                "gmean_weighted_speedup": result.gmean_speedup("weighted")}


class SupervisedMix(MixSweep):
    """The same mixes through the supervised job runtime and a bank."""

    name = "supervised_mix"
    nonzero = frozenset({"sim.self", "jobs.wait", "jobs.bank_put",
                         "jobs.bank_get"})
    zero = ()

    def __init__(self, seed: int, scratch, workers: int):
        super().__init__(seed)
        self.scratch = scratch
        self.workers = workers
        self.reference = None

    def _sweep(self, bank):
        return run_mix_sweep(self.mixes, self.spec, supervise=True,
                             bank=bank, max_workers=self.workers)

    def run(self, tracer=None) -> dict:
        """A cold submission into a fresh bank (timed), then a warm one."""
        directory = tempfile.mkdtemp(prefix="bank-", dir=self.scratch)
        try:
            bank = ResultBank(directory)
            start = time.perf_counter()
            result = _attempt(tracer, self._sweep, bank)
            wall = time.perf_counter() - start
            start = time.perf_counter()
            warm = _attempt(tracer, self._sweep, bank)
            resume = time.perf_counter() - start
            stats = bank.stats()
            # Read the entries' metadata off disk: a ResultBank.get here
            # would count as bank traffic in a traced run.
            attempts = [json.loads(path.read_text())["meta"]["attempts"]
                        for path in Path(directory).glob("??/*.json")]
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        return {"wall": wall, "result": result, "warm": warm,
                "resume": resume, "bank_hits": stats["hits"],
                "bank_gets": stats["hits"] + stats["misses"],
                "retries": sum(a - 1 for a in attempts),
                "units": len(attempts)}

    def check(self, out) -> set:
        """Also: warm and in-process records equal the cold ones."""
        bad = super().check(out)
        if bad or out["warm"] is None:
            return set(range(self.ops))
        if self.reference is None:
            self.reference = MixSweep.run(self)["result"]
        cold = out["result"].records
        for index, mix in enumerate(self.mixes):
            name = mix.name
            if (name not in cold
                    or cold[name] != out["warm"].records.get(name)
                    or cold[name] != self.reference.records.get(name)):
                bad.add(index)
        return bad


class MatrixSweep:
    """Every policy x scheme x size cell over one omnetpp trace."""

    name = "matrix_sweep"
    op = "cell"
    policies = ("LRU", "SRRIP", "DRRIP", "TA-DRRIP", "Belady")
    schemes = ("none", "way", "set", "ideal", "vantage")
    sizes_mb = (0.5, 1.0, 2.0)
    nonzero = frozenset({"sim.self", "workloads.trace_gen",
                         "native.replay"})
    zero = PLANNING_LAYERS + JOBS_LAYERS

    def __init__(self, seed: int):
        self.seed = seed
        self.trace = get_profile("omnetpp").trace(n_accesses=200_000,
                                                  seed=seed)
        self.cells = matrix_cells(self.sizes_mb, self.policies,
                                  self.schemes)
        self.ops = len(self.cells)
        self.accesses = self.ops * len(self.trace)

    def run(self, tracer=None) -> dict:
        start = time.perf_counter()
        result = _attempt(tracer, run_matrix_sweep, self.trace,
                          sizes_mb=self.sizes_mb, policies=self.policies,
                          schemes=self.schemes, num_partitions=2,
                          seed=self.seed)
        return {"wall": time.perf_counter() - start, "result": result}

    def check(self, out) -> set:
        """Cells that lose accesses, or that beat Belady's MIN."""
        if out["result"] is None:
            return set(range(self.ops))
        stats = out["result"].stats
        n = len(self.trace)
        bad = set()
        for index, (policy, scheme, size) in enumerate(self.cells):
            cell = stats.get((policy, scheme, size))
            if cell is None or cell.accesses != n \
                    or cell.hits + cell.misses != cell.accesses:
                bad.add(index)
                continue
            oracle = stats.get(("Belady", "none", size))
            if scheme == "none" and (oracle is None
                                     or oracle.misses > cell.misses):
                bad.add(index)
        return bad

    def digest(self, out) -> str:
        if out["result"] is None:
            return "failed"
        stats = out["result"].stats
        return digest_of([[list(map(str, cell)), s.accesses, s.hits,
                           s.misses, s.bypasses]
                          for cell, s in stats.items()])

    def model(self, out) -> dict:
        stats = out["result"].stats.values()
        return {"sim_miss_rate": sum(s.misses for s in stats)
                / sum(s.accesses for s in stats)}


WORKLOADS = {cls.name: cls for cls in (Churn, MixSweep, MatrixSweep,
                                       SupervisedMix)}
