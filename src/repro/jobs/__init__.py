"""Fault-tolerant job runtime for long sweeps.

A supervised execution layer over the declarative spec API: jobs are
frozen, picklable payloads (:class:`SweepJob`, :class:`MixSweepJob`,
:class:`SamplingJob`, :class:`ControllerJob`, :class:`CacheJob`)
wrapping the existing
``SweepSpec``/``MixSweepSpec``/``CacheSpec``/``ChurnSpec`` descriptors
(a policy × scheme matrix rides ``SweepJob`` as
:func:`~repro.sim.sweep.matrix_configs` configs);
the :class:`JobQueue` runs each attempt in a fresh supervised worker
process with heartbeat and wall-clock watchdogs, bounded retry with
exponential backoff, cancellation, a degradation ladder that retries
native-kernel crashes under ``REPRO_NATIVE=0``, and a persistent
content-addressed :class:`ResultBank` that dedupes identical
submissions and lets interrupted sweeps resume.

:func:`run_jobs` is the one supervised entry point: the sim drivers'
``supervise=True`` branches (:func:`repro.sim.sweep.run_sweep`,
:func:`repro.sim.mixsweep.run_mix_sweep`,
:func:`repro.sampling.driver.run_sampled`,
:func:`repro.sim.multicore.run_churn`) build their payloads and call
it.  ``python -m repro.jobs`` is the operator CLI.  Fault recovery is
provable: :mod:`repro.jobs.faults` injects worker deaths
deterministically, and the fault suite asserts recovered results
bit-identical to unfaulted serial runs.
"""

from .bank import DEFAULT_BANK_ENV, ResultBank
from .drivers import run_jobs
from .faults import FAULT_KINDS, FaultInjected, FaultPlan
from .keys import canonical_digest, canonical_json, code_version, job_key
from .payloads import (CacheJob, ControllerJob, InlineTrace, JobContext,
                       MixSweepJob, SamplingJob, SweepJob, TraceRef,
                       as_trace_source)
from .queue import Job, JobFailed, JobQueue, JobState, RetryPolicy
from .supervisor import SupervisedWorker, WorkerOutcome

__all__ = [
    "ResultBank", "DEFAULT_BANK_ENV",
    "JobQueue", "Job", "JobState", "JobFailed", "RetryPolicy",
    "SupervisedWorker", "WorkerOutcome",
    "SweepJob", "MixSweepJob", "ControllerJob",
    "CacheJob", "SamplingJob",
    "TraceRef", "InlineTrace", "as_trace_source", "JobContext",
    "FaultPlan", "FaultInjected", "FAULT_KINDS",
    "job_key", "code_version", "canonical_json", "canonical_digest",
    "run_jobs",
]
