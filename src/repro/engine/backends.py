"""Pluggable execution backends for batched evaluations.

Every backend funnels through :func:`execute_job` — one shared
protect-and-measure code path — so backends can only differ in *where*
work runs, never in *what* is computed.  Combined with the LPPM layer's
per-(seed, user) RNG derivation (independent of trace order and of the
process doing the work), this makes process-parallel results
bit-identical to serial ones.

Two levels of parallelism are used, chosen by batch shape:

* **job-level** — each (params, seed) job is one task; the natural fit
  for sweeps, where a batch holds dozens of independent jobs;
* **trace-level** — with fewer jobs than workers (e.g. a single
  verification evaluation), each job runs in the parent but fans its
  per-trace protection out to the pool through the ``mapper`` hook of
  :meth:`repro.lppm.LPPM.protect`.

Protection without a ``mapper`` — the serial backend, and every job
executed *inside* a pool worker — routes through the columnar
``protect_block`` path over ``Dataset.columns()``, so both backends get
the vectorised mechanisms for free; only the lone-job trace-level fan
out keeps the picklable per-trace function.  All three paths are
bit-identical by the LPPM layer's construction.
"""

from __future__ import annotations

import abc
import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from ..analysis import current_cache
from ..resilience.events import record_event
from ..resilience.faults import fire as _fire_fault
from .jobs import EvalJob

if TYPE_CHECKING:
    from ..framework.spec import SystemDefinition
    from ..mobility import Dataset

__all__ = [
    "ExecutionBackend",
    "SerialBackend",
    "ProcessPoolBackend",
    "execute_job",
    "default_max_workers",
]


def default_max_workers() -> int:
    """Worker count when the caller does not specify one."""
    return os.cpu_count() or 1


def execute_job(
    system: "SystemDefinition",
    dataset: "Dataset",
    job: EvalJob,
    mapper=None,
) -> Tuple[float, float]:
    """Run one protect + measure execution; the single source of truth.

    ``mapper`` is forwarded to :meth:`LPPM.protect` so callers can
    parallelise the per-trace protection without touching the metric
    evaluation (metrics see whole datasets).  Without one, protection
    takes the columnar block path (vectorised where the mechanism
    supports it); the dataset's planar block is memoised on the
    ``Dataset``, so every job over the same dataset shares one
    concatenation.

    The protected dataset is announced to the ambient analysis cache as
    one-off, so its artifacts are shared by the two metrics in memory
    but never spilled: nothing asks for them again.
    """
    lppm = system.make_lppm(**job.params_dict)
    if mapper is None:
        # No keyword: mechanisms that override protect() with the
        # historical (dataset, seed) signature keep working serially.
        protected = lppm.protect(dataset, seed=job.seed)
    else:
        protected = lppm.protect(dataset, seed=job.seed, mapper=mapper)
    current_cache().announce_one_off(protected)
    privacy = system.privacy_metric.evaluate(dataset, protected)
    utility = system.utility_metric.evaluate(dataset, protected)
    return (float(privacy), float(utility))


class ExecutionBackend(abc.ABC):
    """Executes a batch of cache-missed jobs."""

    #: Human-readable backend name (mirrors the CLI ``--engine`` knob).
    name: str = "abstract"

    #: Re-entrant lock a caller should hold across a *series* of
    #: :meth:`run` calls for one logical batch, or ``None`` when the
    #: backend is stateless.  The engine submits chunked batches; for
    #: pooled backends, interleaving chunks from different (system,
    #: dataset) pairs would rebuild the warm pool on every alternation,
    #: so the engine leases the backend for the whole chunk series.
    batch_lock: Optional[threading.RLock] = None

    @abc.abstractmethod
    def run(
        self,
        system: "SystemDefinition",
        dataset: "Dataset",
        jobs: Sequence[EvalJob],
        key: Optional[Tuple[str, str]] = None,
    ) -> List[Tuple[float, float]]:
        """(privacy, utility) per job, in job order.

        ``key`` is an optional (system signature, dataset fingerprint)
        content key; pooled backends use it to recognise "same work,
        new objects" and keep their workers warm.
        """


class SerialBackend(ExecutionBackend):
    """In-process, one job at a time — the reference implementation."""

    name = "serial"

    def run(self, system, dataset, jobs, key=None):
        return [execute_job(system, dataset, job) for job in jobs]


# ----------------------------------------------------------------------
# Process pool
# ----------------------------------------------------------------------
# Worker-side globals, installed once per worker by the pool
# initializer so the (potentially large) dataset is not re-pickled with
# every job.
_WORKER_SYSTEM: Optional["SystemDefinition"] = None
_WORKER_DATASET: Optional["Dataset"] = None


def _init_worker(
    system: "SystemDefinition",
    dataset: "Dataset",
    dataset_fp: Optional[str] = None,
    analysis_spill_dir: Optional[str] = None,
) -> None:
    global _WORKER_SYSTEM, _WORKER_DATASET
    _WORKER_SYSTEM = system
    _WORKER_DATASET = dataset
    if dataset_fp is not None or analysis_spill_dir is not None:
        from ..analysis import default_cache

        cache = default_cache()
        if dataset_fp is not None:
            # Seed the worker's process-local analysis cache by
            # fingerprint (artifacts are computed in-worker and
            # memoised there, never pickled across the process
            # boundary): every job this worker runs shares one
            # actual-side stay-point/POI extraction.
            cache.seed_dataset(dataset, dataset_fp)
        if analysis_spill_dir is not None:
            # Join the engine's shared spill directory: this worker's
            # extractions persist for siblings and restarts, and it
            # starts warm from theirs.
            cache.attach_spill(analysis_spill_dir)


def _run_job_in_worker(job: EvalJob) -> Tuple[float, float]:
    assert _WORKER_SYSTEM is not None and _WORKER_DATASET is not None
    return execute_job(_WORKER_SYSTEM, _WORKER_DATASET, job)


class ProcessPoolBackend(ExecutionBackend):
    """``concurrent.futures`` process pool; bit-identical to serial.

    Pools persist across :meth:`run` calls: the job-level pool keeps
    its (system, dataset) initializer payload until a batch arrives for
    a different pair, so iterative callers (ALP probes, refinement
    bisection) do not pay pool startup plus dataset shipping on every
    step.  Call :meth:`close` (or rely on finalisation) to release the
    worker processes.

    The backend is a singleton resource with mutable pool state, so
    :meth:`run` and :meth:`close` serialise on :attr:`batch_lock` —
    without it, a concurrent batch for a *different* (system, dataset)
    pair would shut the pool down under a running ``map``.  The lock is
    re-entrant and public: the engine holds it across one batch's whole
    chunk series, so two concurrent sweeps over different datasets
    alternate per *batch* (one pool rebuild each) instead of per chunk
    (a rebuild every alternation).  The protect + measure work inside a
    batch still parallelises across the pool's processes.

    Parameters
    ----------
    max_workers:
        Pool size; defaults to the machine's CPU count.
    analysis_spill_dir:
        Optional shared analysis-spill directory handed to each pool
        worker's initializer, so per-process analysis caches persist
        their artifacts for (and warm-start from) sibling processes.
    """

    name = "process"

    def __init__(
        self,
        max_workers: Optional[int] = None,
        analysis_spill_dir=None,
    ) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        self.max_workers = int(max_workers or default_max_workers())
        self.analysis_spill_dir = (
            str(analysis_spill_dir)
            if analysis_spill_dir is not None else None
        )
        self.batch_lock = threading.RLock()
        # Guards the pool fields and the closed flag.  A forced close
        # (timed-out lease) runs WITHOUT batch_lock, so pool selection
        # and teardown must synchronise on this narrower lock; lock
        # order where both are held is batch_lock, then this.
        self._state_lock = threading.Lock()
        # Set by a timed-out close(): the backend is being abandoned at
        # process exit, and a leaseholder's next chunk must not rebuild
        # the pools (concurrent.futures' atexit hook would then wait
        # for them, unbounding the shutdown the timeout bounded).
        self._closed = False
        self._job_pool: Optional[ProcessPoolExecutor] = None
        # What the current job pool's workers hold, as a content key
        # when the caller supplies one (so equal-but-not-identical
        # systems/datasets reuse the warm pool) or as strong references
        # to the exact pair otherwise (pinning ids against recycling).
        self._job_pool_key: Optional[Tuple[str, str]] = None
        self._job_pool_for: Optional[tuple] = None
        self._trace_pool: Optional[ProcessPoolExecutor] = None
        # Degradation counters, surfaced through degradation events.
        self.pool_rebuilds = 0
        self.serial_fallbacks = 0

    @staticmethod
    def _mp_context():
        """Prefer fork where available: cheap startup, and classes
        defined outside installed modules stay importable in workers."""
        methods = multiprocessing.get_all_start_methods()
        if "fork" in methods:
            return multiprocessing.get_context("fork")
        return multiprocessing.get_context()

    def _check_open(self) -> None:
        """Refuse pool (re)builds after a forced close.

        Caller holds ``_state_lock``, so the check cannot interleave
        with the forced close's flag-set-and-null sequence.
        """
        if self._closed:
            raise RuntimeError(
                "ProcessPoolBackend was force-closed during shutdown"
            )

    def _job_pool_of(self, system, dataset, key) -> ProcessPoolExecutor:
        with self._state_lock:
            self._check_open()
            if self._job_pool is not None:
                if key is not None and self._job_pool_key == key:
                    # Same content: the workers' baked-in objects
                    # compute identical results, whichever instances
                    # they are.
                    return self._job_pool
                current = self._job_pool_for
                if key is None and current is not None and (
                    current[0] is system and current[1] is dataset
                ):
                    return self._job_pool
                # Idle (batch_lock is held, so nothing is in flight):
                # this shutdown returns promptly.
                self._job_pool.shutdown(wait=True)
            self._job_pool = ProcessPoolExecutor(
                max_workers=self.max_workers,
                mp_context=self._mp_context(),
                initializer=_init_worker,
                initargs=(system, dataset, key[1] if key else None,
                          self.analysis_spill_dir),
            )
            self._job_pool_key = key
            self._job_pool_for = (system, dataset)
            return self._job_pool

    def _discard_job_pool(self) -> None:
        """Release a broken job pool without waiting on its corpses."""
        with self._state_lock:
            pool = self._job_pool
            self._job_pool = None
            self._job_pool_key = None
            self._job_pool_for = None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    def _discard_trace_pool(self) -> None:
        with self._state_lock:
            pool = self._trace_pool
            self._trace_pool = None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    def _trace_pool_of(self, workers: int) -> ProcessPoolExecutor:
        with self._state_lock:
            self._check_open()
            if self._trace_pool is None:
                self._trace_pool = ProcessPoolExecutor(
                    max_workers=workers, mp_context=self._mp_context()
                )
            return self._trace_pool

    def close(self, timeout_s: Optional[float] = None) -> None:
        """Shut down the worker pools (idempotent).

        ``timeout_s`` bounds how long to wait for an in-flight batch's
        lease.  On timeout the pools are released *without* waiting for
        running work — the daemon's SIGTERM path uses this so process
        exit stays bounded by ``--grace`` even when a cancelled job is
        still mid-chunk (the leaseholder may then see its map fail,
        which its job worker reports as a failed job; the process is
        exiting either way).
        """
        if timeout_s is None:
            acquired = self.batch_lock.acquire()
        else:
            acquired = self.batch_lock.acquire(timeout=max(0.0, timeout_s))
        with self._state_lock:
            if not acquired:
                # Forced close: refuse rebuilds, or a leaseholder's
                # next chunk would resurrect a pool the exit path
                # cannot reap.
                self._closed = True
            job_pool, trace_pool = self._job_pool, self._trace_pool
            self._job_pool = None
            self._job_pool_key = None
            self._job_pool_for = None
            self._trace_pool = None
        try:
            for pool in (job_pool, trace_pool):
                if pool is not None:
                    if acquired:
                        pool.shutdown(wait=True)
                    else:
                        pool.shutdown(wait=False, cancel_futures=True)
        finally:
            if acquired:
                self.batch_lock.release()

    def __del__(self):  # pragma: no cover - finalisation best effort
        try:
            self.close()
        except Exception:
            pass

    def run(self, system, dataset, jobs, key=None):
        jobs = list(jobs)
        if not jobs:
            return []
        if self.max_workers <= 1:
            return SerialBackend().run(system, dataset, jobs)
        with self.batch_lock:
            if len(jobs) >= 2:
                # Job-level parallelism: the dataset ships to the
                # workers once, via the pool initializer.  A crashed
                # worker (OOM-killed, segfaulted, injected) breaks the
                # whole pool; results are content-addressed and cached
                # per chunk, so replaying this batch on a fresh pool is
                # exactly-once.  A second crash means something
                # systematic — degrade to serial rather than loop.
                pool = self._job_pool_of(system, dataset, key)
                if _fire_fault("pool.crash"):
                    pool.submit(os._exit, 1)
                try:
                    return list(pool.map(_run_job_in_worker, jobs))
                except BrokenProcessPool:
                    self.pool_rebuilds += 1
                    record_event(
                        "pool.rebuilt",
                        jobs=len(jobs),
                        action="replaying the batch on a fresh pool",
                    )
                    self._discard_job_pool()
                    pool = self._job_pool_of(system, dataset, key)
                    if _fire_fault("pool.crash"):
                        pool.submit(os._exit, 1)
                    try:
                        return list(pool.map(_run_job_in_worker, jobs))
                    except BrokenProcessPool:
                        self.serial_fallbacks += 1
                        record_event(
                            "pool.serial-fallback",
                            jobs=len(jobs),
                            action="rebuilt pool crashed too; "
                                   "running the batch serially",
                        )
                        self._discard_job_pool()
                        return SerialBackend().run(system, dataset, jobs)
            # A lone job cannot be split across workers at the job
            # level; parallelise inside it instead, across the
            # dataset's traces.
            workers = min(self.max_workers, max(1, len(dataset)))
            if workers <= 1:
                return SerialBackend().run(system, dataset, jobs)
            pool = self._trace_pool_of(workers)

            def trace_mapper(fn, traces):
                # Chunking bounds how often fn (carrying the LPPM,
                # which may embed dataset-sized state like an elastic
                # density prior) is pickled: once per chunk, not once
                # per trace.
                chunksize = max(1, len(traces) // workers)
                return pool.map(fn, traces, chunksize=chunksize)

            try:
                return [
                    execute_job(system, dataset, job, mapper=trace_mapper)
                    for job in jobs
                ]
            except BrokenProcessPool:
                self.serial_fallbacks += 1
                record_event(
                    "pool.serial-fallback",
                    jobs=len(jobs),
                    action="trace pool crashed; "
                           "running the batch serially",
                )
                self._discard_trace_pool()
                return SerialBackend().run(system, dataset, jobs)
