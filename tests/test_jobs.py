"""Unit tests for the job runtime: keys, bank, queue, payloads, CLI."""

import json
import os

import numpy as np
import pytest

from repro.cache.threadbatch import deal
from repro.jobs import (CacheJob, FaultPlan, InlineTrace, JobFailed, JobQueue,
                        JobState, MixSweepJob, ResultBank, RetryPolicy,
                        SweepJob, TraceRef, as_trace_source, canonical_json,
                        code_version, job_key, run_jobs)
from repro.jobs.cli import main as cli_main
from tests.faults import fault_queue, small_spec, small_trace


class TestKeys:
    def test_canonical_json_is_order_insensitive(self):
        assert canonical_json({"b": 1, "a": (1, 2)}) == \
            canonical_json({"a": [1, 2], "b": 1})

    def test_numpy_scalars_reduce_to_plain_numbers(self):
        assert canonical_json({"x": np.int64(3)}) == canonical_json({"x": 3})

    def test_dataclasses_key_by_compare_fields_only(self):
        clean = SweepJob.from_spec(small_trace(), small_spec())
        faulted = SweepJob.from_spec(small_trace(), small_spec(),
                                     fault=FaultPlan("exception"))
        assert job_key(clean) == job_key(faulted)

    def test_semantic_changes_change_the_key(self):
        base = SweepJob.from_spec(small_trace(), small_spec())
        other = SweepJob.from_spec(small_trace(),
                                   small_spec(sizes_mb=(0.5, 1.0)))
        assert job_key(base) != job_key(other)

    def test_execution_width_is_not_part_of_a_mix_key(self):
        """A resubmission at another width hits the same bank entries."""
        from dataclasses import replace

        from repro.sim.mixsweep import MixSweepSpec
        from repro.workloads.mixes import random_mixes
        mix, = random_mixes(1, apps_per_mix=2, seed=3)
        spec = MixSweepSpec(total_mb=2.0, trace_accesses=9000,
                            interval_accesses=3000)
        key = job_key(MixSweepJob(spec=spec, mix=mix))
        assert key == job_key(MixSweepJob(
            spec=replace(spec, max_workers=4), mix=mix))
        assert key != job_key(MixSweepJob(
            spec=replace(spec, base_seed=7), mix=mix))

    def test_code_version_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_CODE_VERSION", "pinned-token")
        assert code_version() == "pinned-token"

    def test_code_version_changes_the_key(self, monkeypatch):
        payload = SweepJob.from_spec(small_trace(), small_spec())
        monkeypatch.setenv("REPRO_CODE_VERSION", "v-one")
        first = job_key(payload)
        monkeypatch.setenv("REPRO_CODE_VERSION", "v-two")
        assert job_key(payload) != first

    def test_unkeyable_objects_are_rejected(self):
        with pytest.raises(TypeError, match="canonicalize"):
            canonical_json({"f": lambda: None})


class TestTraceSources:
    def test_trace_ref_materializes_deterministically(self):
        ref = TraceRef("mcf", 2_000, seed=5)
        a, b = ref.materialize(), ref.materialize()
        assert np.array_equal(a.addresses, b.addresses)
        assert a.instructions == b.instructions

    def test_inline_trace_keys_by_digest_not_array(self):
        addrs = np.arange(100, dtype=np.int64)
        one = InlineTrace.from_trace(addrs)
        two = InlineTrace.from_trace(addrs.copy())
        assert job_key(one) == job_key(two)
        assert job_key(one) != job_key(InlineTrace.from_trace(addrs + 1))

    def test_as_trace_source_passthrough_and_coercion(self):
        ref = TraceRef("mcf", 1_000)
        assert as_trace_source(ref) is ref
        inline = as_trace_source(small_trace())
        assert isinstance(inline, InlineTrace)


class TestResultBank:
    def test_round_trip_with_meta(self, tmp_path):
        bank = ResultBank(tmp_path)
        key = "ab" * 32
        bank.put(key, {"v": 1.5}, meta={"degraded": False})
        assert bank.get(key, with_meta=True) == ({"v": 1.5},
                                                 {"degraded": False})
        assert key in bank
        assert bank.stats()["writes"] == 1

    def test_corrupt_entry_evicted_not_crashed_on(self, tmp_path):
        bank = ResultBank(tmp_path)
        key = "cd" * 32
        path = bank.put(key, [1, 2, 3])
        path.write_text('{"key": "' + key + '", "payload": [9], '
                        '"meta": {}, "digest": "bogus"}')
        assert bank.get(key) is None
        assert bank.evictions == 1
        assert path.with_suffix(".corrupt").exists()
        # And the slot is writable again afterwards.
        bank.put(key, [1, 2, 3])
        assert bank.get(key) == [1, 2, 3]

    def test_gc_reports_evictions(self, tmp_path):
        bank = ResultBank(tmp_path)
        good, bad = "11" * 32, "22" * 32
        bank.put(good, "ok")
        bank.put(bad, "soon-corrupt")
        bank._path(bad).write_text("{ torn")
        report = bank.gc()
        assert report["checked"] == 2
        assert report["evicted"] == [bad]

    def test_malformed_keys_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="malformed"):
            ResultBank(tmp_path).get("../escape")


class TestRetryPolicy:
    def test_deterministic_and_decorrelated(self):
        policy = RetryPolicy(backoff_base=0.1, jitter=0.5)
        assert policy.delay("k1", 1) == policy.delay("k1", 1)
        assert policy.delay("k1", 1) != policy.delay("k2", 1)

    def test_exponential_growth(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_factor=2.0,
                             jitter=0.0)
        assert policy.delay("k", 2) == pytest.approx(0.2)
        assert policy.delay("k", 3) == pytest.approx(0.4)


class TestJobQueue:
    def test_identical_submissions_dedupe_to_one_job(self, tmp_path):
        with fault_queue(tmp_path) as queue:
            first = queue.submit(SweepJob.from_spec(small_trace(),
                                                    small_spec()))
            second = queue.submit(SweepJob.from_spec(small_trace(),
                                                     small_spec()))
            assert first is second
            first.result()

    def test_bank_satisfies_resubmission_across_queues(self, tmp_path):
        payload = SweepJob.from_spec(small_trace(), small_spec())
        with fault_queue(tmp_path) as queue:
            ran = queue.submit(payload)
            direct = ran.result()
        with fault_queue(tmp_path) as queue:
            hit = queue.submit(payload)
            banked = hit.result()
        assert hit.meta.get("bank_hit") is True
        assert hit.attempts == 0
        assert {k: (s.accesses, s.hits, s.misses)
                for k, s in banked.stats.items()} == \
               {k: (s.accesses, s.hits, s.misses)
                for k, s in direct.stats.items()}

    def test_exception_retries_then_fails(self, tmp_path):
        plan = FaultPlan("exception", attempts=tuple(range(10)))
        with fault_queue(tmp_path, max_retries=1) as queue:
            job = queue.submit(SweepJob.from_spec(small_trace(),
                                                  small_spec(), fault=plan))
            queue.wait(job, timeout=60.0)
        assert job.state == JobState.FAILED
        assert job.attempts == 2
        assert "FaultInjected" in job.error

    def test_close_cancels_outstanding_jobs(self, tmp_path):
        queue = fault_queue(tmp_path, job_timeout=600.0)
        job = queue.submit(SweepJob.from_spec(
            small_trace(), small_spec(),
            fault=FaultPlan("hang", attempts=tuple(range(10)))))
        queue.close()
        assert job.state == JobState.CANCELLED

    def test_builder_configs_are_rejected(self):
        from repro.sim.sweep import SweepConfig
        config = SweepConfig(key="custom", size_mb=1.0,
                             builder=lambda: object())
        with pytest.raises(ValueError, match="builder"):
            SweepJob(trace=as_trace_source(small_trace()),
                     configs=(config,))


class TestRunJobs:
    def test_results_come_back_in_submission_order(self, tmp_path):
        sizes = (2.0, 0.5, 1.0)
        payloads = [SweepJob.from_spec(small_trace(),
                                       small_spec(sizes_mb=(size,)))
                    for size in sizes]
        results = run_jobs(payloads, bank=tmp_path, max_workers=2)
        assert [list(result.stats) for result in results] == \
            [[("LRU", size)] for size in sizes]

    @pytest.fixture
    def closed(self, monkeypatch):
        """Every queue closed during the test, in closing order."""
        closed = []
        close = JobQueue.close

        def recording_close(queue):
            closed.append(queue)
            close(queue)
        monkeypatch.setattr(JobQueue, "close", recording_close)
        return closed

    def test_queue_passed_in_stays_open(self, tmp_path, closed):
        with fault_queue(tmp_path) as queue:
            run_jobs([SweepJob.from_spec(small_trace(), small_spec())],
                     queue=queue)
            assert closed == []
            later = queue.submit(SweepJob.from_spec(
                small_trace(), small_spec(sizes_mb=(4.0,))))
            later.result()
            assert later.state == JobState.SUCCEEDED
        assert closed == [queue]

    def test_owned_queue_is_closed(self, tmp_path, closed):
        run_jobs([SweepJob.from_spec(small_trace(), small_spec())],
                 bank=tmp_path)
        assert len(closed) == 1

    def test_failing_payload_raises_job_failed(self, tmp_path):
        plan = FaultPlan("exception", attempts=tuple(range(10)))
        with fault_queue(tmp_path, max_retries=0) as queue:
            with pytest.raises(JobFailed, match="FaultInjected"):
                run_jobs([SweepJob.from_spec(small_trace(), small_spec(),
                                             fault=plan)], queue=queue)

    def test_supervised_sweep_keeps_backend_override(self, tmp_path):
        from repro.sim.sweep import SweepSpec, run_sweep
        from repro.workloads.spec_profiles import get_profile
        trace = get_profile("mcf").trace(n_accesses=20_000, seed=3)
        spec = SweepSpec(policies=("DRRIP", "BIP"), sizes_mb=(0.5, 1.0),
                         backend="object", base_seed=5)
        direct = run_sweep(trace, spec, backend="auto")
        supervised = run_sweep(trace, spec, backend="auto", supervise=True,
                               bank=tmp_path)
        assert {k: s.misses for k, s in supervised.stats.items()} == \
            {k: s.misses for k, s in direct.stats.items()}


class TestDeal:
    @pytest.mark.parametrize("count", [1, 2, 5, 7, 12])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 20])
    def test_groups_are_nonempty_and_keep_every_item_once(self, count, n):
        items = list(range(count))
        groups = deal(items, n)
        assert 1 <= len(groups) <= min(n, count)
        assert all(groups)
        assert sorted(item for group in groups for item in group) == items
        # Round-robin: item i lands in group i % len(groups).
        for index, group in enumerate(groups):
            assert group == items[index::len(groups)]

    def test_empty_input_gives_no_groups(self):
        assert deal([], 4) == []
        assert deal(iter(()), 1) == []

    def test_n_larger_than_item_count_gives_singletons(self):
        assert deal("abc", 10) == [["a"], ["b"], ["c"]]


class TestPayloadRoundTrips:
    def test_cache_job_matches_direct_replay(self, tmp_path):
        from repro.cache.spec import CacheSpec, build
        trace = small_trace()
        spec = CacheSpec(capacity_lines=2048, policy="LRU")
        cache = build(spec)
        cache.run(trace.addresses)
        with fault_queue(tmp_path) as queue:
            stats = queue.submit(CacheJob(trace=trace, cache=spec)).result()
        assert (stats.accesses, stats.hits, stats.misses) == \
            (cache.stats.accesses, cache.stats.hits, cache.stats.misses)

    def test_partition_spec_rejected_with_clear_error(self):
        from repro.cache.spec import PartitionSpec
        spec = PartitionSpec(scheme="ideal", capacity_lines=2048,
                             num_partitions=2)
        with pytest.raises(TypeError, match="TalusSpec"):
            CacheJob(trace=small_trace(), cache=spec)

    def test_mix_record_payload_round_trip(self, tmp_path):
        from repro.sim.mixsweep import (MixRunRecord, MixSweepSpec,
                                        run_mix_sweep)
        from repro.workloads.mixes import random_mixes
        mixes = random_mixes(2, apps_per_mix=2)
        spec = MixSweepSpec(total_mb=2.0, trace_accesses=6_000,
                            interval_accesses=3_000)
        direct = run_mix_sweep(mixes, spec)
        for record in direct.records.values():
            clone = MixRunRecord.from_payload(record.to_payload())
            assert clone == record
        supervised = run_mix_sweep(mixes, spec, supervise=True,
                                   bank=tmp_path)
        for name, record in direct.records.items():
            assert supervised.records[name] == record


class TestMatrixSweepJobs:
    """A supervised matrix is ``run_sweep`` over ``matrix_configs``: its
    cells ride ordinary :class:`SweepJob` shards."""

    KWARGS = dict(sizes_mb=(0.25, 0.5), policies=("LRU", "TA-DRRIP"),
                  schemes=("none", "way"), num_partitions=2, seed=9)

    @staticmethod
    def _configs(**overrides):
        from repro.sim.sweep import matrix_configs
        kwargs = {**TestMatrixSweepJobs.KWARGS, **overrides}
        return matrix_configs(kwargs.pop("sizes_mb"),
                              kwargs.pop("policies"),
                              kwargs.pop("schemes"), **kwargs)

    def test_configs_key_every_matrix_cell(self):
        from repro.cache.spec import CacheSpec, PartitionSpec
        from repro.sim.sweep import matrix_cells
        configs = self._configs()
        assert tuple(c.key for c in configs) == matrix_cells(
            self.KWARGS["sizes_mb"], self.KWARGS["policies"],
            self.KWARGS["schemes"])
        for config in configs:
            policy, scheme, _ = config.key
            spec_type = CacheSpec if scheme == "none" else PartitionSpec
            assert isinstance(config.spec, spec_type), config.key
            assert config.spec.policy == policy
        # Randomized policies carry a per-cell seed; LRU carries none.
        seeded = [c for c in configs if c.key[0] == "TA-DRRIP"]
        assert all(c.spec.seed is not None for c in seeded
                   if c.key[1] == "none")
        assert all(dict(c.spec.policy_kwargs).get("seed") is not None
                   for c in seeded if c.key[1] != "none")

    def test_supervised_matrix_matches_direct_and_resumes(self, tmp_path):
        from repro.sim.sweep import run_matrix_sweep, run_sweep
        trace = small_trace()
        direct = run_matrix_sweep(trace, **self.KWARGS)
        supervised = run_sweep(trace, self._configs(), supervise=True,
                               bank=tmp_path, max_workers=2)
        assert set(supervised.stats) == set(direct.stats)
        for key, stats in direct.stats.items():
            assert supervised.stats[key].misses == stats.misses, key
            assert supervised.stats[key].accesses == stats.accesses, key
        # A resubmission replays nothing: every cell is already banked.
        bank = ResultBank(tmp_path)
        source = as_trace_source(trace)
        for shard in deal(self._configs(), 2):
            job = SweepJob(trace=source, configs=shard)
            for config in shard:
                assert bank.get(job.unit_key(config)) is not None, \
                    config.key
        resumed = run_sweep(trace, self._configs(), supervise=True,
                            bank=tmp_path, max_workers=2)
        for key, stats in direct.stats.items():
            assert resumed.stats[key].misses == stats.misses, key

    def test_unit_keys_are_shard_independent(self):
        source = as_trace_source(small_trace())
        configs = self._configs()
        whole = SweepJob(trace=source, configs=configs)
        solo = SweepJob(trace=source, configs=configs[:1])
        assert solo.unit_key(configs[0]) == whole.unit_key(configs[0])

    def test_empty_matrix_rejected(self):
        # Belady has no partitioned organization: no cells remain.
        with pytest.raises(ValueError, match="cell"):
            self._configs(policies=("Belady",), schemes=("way",))


class TestCli:
    def _submit(self, bank, capsys):
        code = cli_main(["--bank", str(bank), "submit", "--profile", "mcf",
                         "--accesses", "3000", "--sizes", "0.5,1",
                         "--policies", "LRU", "--workers", "2"])
        out = json.loads(capsys.readouterr().out)
        return code, out

    def test_submit_status_gc_round_trip(self, tmp_path, capsys):
        bank = tmp_path / "bank"
        code, report = self._submit(bank, capsys)
        assert code == 0
        assert all(j["state"] == "succeeded" for j in report["jobs"])
        assert report["bank"]["entries"] > 0

        assert cli_main(["--bank", str(bank), "status"]) == 0
        status = json.loads(capsys.readouterr().out)
        assert {j["state"] for j in status["jobs"]} == {"succeeded"}
        assert all(j["pid"] == os.getpid() for j in status["jobs"])

        assert cli_main(["--bank", str(bank), "gc"]) == 0
        gc_report = json.loads(capsys.readouterr().out)
        assert gc_report["bank"]["evicted"] == []
        assert sorted(gc_report["pruned_jobs"]) == \
            sorted(j["id"] for j in status["jobs"])

    def test_resubmit_hits_bank(self, tmp_path, capsys):
        bank = tmp_path / "bank"
        self._submit(bank, capsys)
        code, report = self._submit(bank, capsys)
        assert code == 0
        assert all(j["meta"].get("bank_hit") for j in report["jobs"])

    def test_matrix_submit(self, tmp_path, capsys):
        bank = tmp_path / "bank"
        argv = ["--bank", str(bank), "submit", "--profile", "mcf",
                "--accesses", "3000", "--sizes", "0.5",
                "--policies", "LRU,SRRIP", "--schemes", "none,way",
                "--partitions", "2", "--workers", "2"]
        assert cli_main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        # The four cells are dealt into one SweepJob shard per worker.
        assert len(report["jobs"]) == 2
        assert all(j["payload"] == "SweepJob" for j in report["jobs"])
        assert all(j["state"] == "succeeded" for j in report["jobs"])
        # Resubmission is satisfied straight from the bank.
        assert cli_main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert all(j["meta"].get("bank_hit") for j in report["jobs"])

    def test_cancel_writes_markers(self, tmp_path, capsys):
        bank = tmp_path / "bank"
        assert cli_main(["--bank", str(bank), "cancel", "--all"]) == 0
        assert (bank / "cancel" / "all").exists()
        capsys.readouterr()
