"""The single supervised entry point of the sim drivers.

``supervise=True`` on :func:`~repro.sim.sweep.run_sweep`,
:func:`~repro.sim.mixsweep.run_mix_sweep`,
:func:`~repro.sampling.driver.run_sampled` and
:func:`~repro.sim.multicore.run_churn` builds the driver's frozen job
payloads (:class:`~repro.jobs.payloads.SweepJob`,
:class:`~repro.jobs.payloads.MixSweepJob`,
:class:`~repro.jobs.payloads.SamplingJob`,
:class:`~repro.jobs.payloads.ControllerJob`) and hands them to
:func:`run_jobs`; a supervised matrix sweep is ``run_sweep(trace,
matrix_configs(...), supervise=True, bank=...)``, its cells dealt into
``SweepJob`` shards like any other sweep configs.
Results are bit-identical to the unsupervised path, because every
per-unit seed in this codebase is a stable function of the unit's
identity, never of its position in a batch or of which worker ran it.
"""

from __future__ import annotations

from .bank import ResultBank
from .queue import JobQueue

__all__ = ["run_jobs"]


def run_jobs(payloads, *, bank: ResultBank | str | None = None,
             queue: JobQueue | None = None, max_workers: int = 2,
             job_timeout: float | None = 600.0) -> list:
    """Run ``payloads`` supervised; return their results in submission order.

    The payloads go to ``queue`` when one is given (it stays open, and
    ``bank``/``max_workers``/``job_timeout`` are its own business);
    otherwise to a :class:`~repro.jobs.queue.JobQueue` over ``bank`` that
    this call owns and closes before returning.  Each result is the
    payload's loaded domain object; a job that does not succeed raises
    :class:`~repro.jobs.queue.JobFailed`.
    """
    owns_queue = queue is None
    if owns_queue:
        queue = JobQueue(bank, max_workers=max_workers,
                         job_timeout=job_timeout)
    try:
        jobs = [queue.submit(payload) for payload in payloads]
        return [job.result() for job in jobs]
    finally:
        if owns_queue:
            queue.close()
