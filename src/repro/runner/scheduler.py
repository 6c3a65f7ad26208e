"""The fault-tolerant job scheduler.

:class:`Runner` executes a batch of :class:`~repro.runner.specs.JobSpec`
on a ``multiprocessing`` pool with:

* **cache-aware scheduling** — jobs whose content-addressed result is
  already on disk never reach a worker (``runner.cache.hits`` counts
  them), so re-running a sweep recomputes only changed cells and a
  killed run resumes where it left off;
* **per-job timeouts** — a stalled job is abandoned, the pool is torn
  down (reclaiming the stuck worker) and rebuilt for the survivors;
* **retry with exponential backoff** — a failed or timed-out job is
  resubmitted up to ``max_retries`` times, waiting
  ``backoff_base * backoff_factor**(attempt-1)`` (capped) between
  attempts;
* **worker-death recovery** — a worker killed mid-job breaks the whole
  ``ProcessPoolExecutor``; the scheduler requeues every unfinished job
  (without charging them a retry) and rebuilds the pool, bounded by
  ``max_pool_restarts``;
* **graceful degradation to serial** — if the pool cannot start, or
  keeps breaking past the restart budget, the remaining jobs run
  in-process, where only Python-level failures (not hard crashes or
  timeouts) can occur.

Everything is instrumented through :mod:`repro.obs`: counters for
scheduled/completed/retried/failed jobs, cache hits/misses, worker
deaths, timeouts, pool restarts and serial fallbacks; a histogram of
per-job durations; and optional JSONL tracer events and spans.  The
metric names are catalogued in ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent import futures as cf
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.obs import MetricsRegistry, StatsSnapshot, Tracer
from repro.obs.spans import SpanHandle, SpanTracer
from repro.runner.cache import ResultCache, TraceCache
from repro.runner.specs import JobResult, JobSpec
from repro.runner.worker import execute_job

try:  # BrokenProcessPool lives next to ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool
except ImportError:  # pragma: no cover - ancient pythons
    BrokenProcessPool = cf.BrokenExecutor  # type: ignore[misc]


def _default_start_method() -> str:
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


@dataclass
class RunnerConfig:
    """Tuning knobs for one :class:`Runner`."""

    #: Pool size; ``1`` means in-process serial execution (no pool).
    max_workers: int = field(
        default_factory=lambda: max(1, min(os.cpu_count() or 1, 8))
    )
    #: Seconds to wait for one job's result before abandoning it
    #: (``None`` disables; serial execution cannot enforce timeouts).
    job_timeout: Optional[float] = 600.0
    #: Failed/timed-out executions are retried this many times.
    max_retries: int = 2
    #: First retry delay in seconds.
    backoff_base: float = 0.05
    #: Multiplier per further attempt.
    backoff_factor: float = 2.0
    #: Upper bound on one backoff sleep.
    backoff_max: float = 2.0
    #: Pool rebuilds (after worker death or timeout) before degrading
    #: to serial execution.
    max_pool_restarts: int = 2
    #: Multiprocessing start method ("fork" where available).
    start_method: str = field(default_factory=_default_start_method)

    def backoff(self, attempt: int) -> float:
        """Sleep before retry number ``attempt`` (1-based)."""
        delay = self.backoff_base * self.backoff_factor ** max(0, attempt - 1)
        return min(delay, self.backoff_max)


class _Attempt:
    """Mutable scheduling state for one pending job."""

    __slots__ = ("spec", "failures", "error", "span")

    def __init__(self, spec: JobSpec) -> None:
        self.spec = spec
        self.failures = 0
        self.error: Optional[str] = None
        #: Open ``runner.job`` span (queue -> final result), when tracing.
        self.span: Optional[SpanHandle] = None


ProgressFn = Callable[[JobResult, int, int], None]


class Runner:
    """Parallel, fault-tolerant, cache-aware experiment executor."""

    def __init__(
        self,
        cache: Optional[ResultCache] = None,
        trace_cache: Optional[TraceCache] = None,
        config: Optional[RunnerConfig] = None,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        spans: Optional[SpanTracer] = None,
        progress: Optional[ProgressFn] = None,
    ) -> None:
        self.cache = cache
        self.trace_cache = trace_cache
        self.config = config or RunnerConfig()
        self.registry = registry or MetricsRegistry()
        self.tracer = tracer
        #: Hierarchical span tracer; when its sink is shard-backed, the
        #: trace context is wire-propagated into every pool worker.
        self.spans = spans
        self.progress = progress
        self._build_metrics()

    # -------------------------------------------------------------- metrics

    def _build_metrics(self) -> None:
        reg = self.registry
        self._scheduled = reg.counter(
            "runner.jobs.scheduled", unit="jobs",
            description="Jobs submitted to the runner (incl. cache hits)",
        )
        self._completed = reg.counter(
            "runner.jobs.completed", unit="jobs",
            description="Jobs computed to a snapshot this run",
        )
        self._failed = reg.counter(
            "runner.jobs.failed", unit="jobs",
            description="Jobs abandoned after exhausting retries",
        )
        self._retried = reg.counter(
            "runner.jobs.retried", unit="attempts",
            description="Failed/timed-out executions resubmitted",
        )
        self._timeouts = reg.counter(
            "runner.jobs.timeouts", unit="jobs",
            description="Executions abandoned at the per-job timeout",
        )
        self._cache_hits = reg.counter(
            "runner.cache.hits", unit="jobs",
            description="Jobs served from the on-disk result cache",
        )
        self._cache_misses = reg.counter(
            "runner.cache.misses", unit="jobs",
            description="Jobs whose result was not cached",
        )
        self._worker_deaths = reg.counter(
            "runner.workers.deaths", unit="events",
            description="Pool breakages from a worker dying mid-job",
        )
        self._pool_restarts = reg.counter(
            "runner.pool.restarts", unit="events",
            description="Pool teardown/rebuild cycles",
        )
        self._serial_fallbacks = reg.counter(
            "runner.serial_fallbacks", unit="events",
            description="Degradations to in-process serial execution",
        )
        self._duration = reg.histogram(
            "runner.job.duration_seconds", unit="seconds",
            description="Per-job execution wall-clock (fresh computations)",
            mode="bounded",
        )
        self._heartbeat = reg.gauge(
            "runner.heartbeat", unit="seconds",
            description="Wall-clock epoch time of the scheduler's last "
                        "observed progress (submit or result)",
        )

    def _beat(self) -> None:
        self._heartbeat.set(time.time())

    # ---------------------------------------------------------------- run

    def run(self, specs: Sequence[JobSpec]) -> Dict[str, JobResult]:
        """Execute ``specs``; returns ``{job_id: JobResult}``.

        Jobs present in the result cache are returned without executing.
        The call never raises for job failures — inspect
        :attr:`JobResult.status` (``"ok"`` / ``"failed"``).
        """
        specs = list(specs)
        ids = [spec.job_id for spec in specs]
        duplicates = sorted({i for i in ids if ids.count(i) > 1})
        if duplicates:
            raise ValueError(
                f"duplicate job ids in batch: {', '.join(duplicates)} "
                "(run overlapping suites separately)"
            )
        if self.spans is not None:
            with self.spans.span("runner.run", jobs=len(specs)):
                return self._run_batch(specs)
        return self._run_batch(specs)

    def _run_batch(self, specs: List[JobSpec]) -> Dict[str, JobResult]:
        results: Dict[str, JobResult] = {}
        self._total = len(specs)
        self._beat()
        pending: List[_Attempt] = []
        for spec in specs:
            self._scheduled.inc()
            cached = self.cache.get(spec) if self.cache else None
            if cached is not None:
                self._cache_hits.inc()
                self._trace("runner.cache_hit", job=spec.job_id)
                self._finish(
                    results,
                    JobResult(spec, "ok", cached, from_cache=True, attempts=0),
                )
            else:
                self._cache_misses.inc()
                attempt = _Attempt(spec)
                if self.spans is not None:
                    # One async span per job, queue -> final result; the
                    # worker's spans attach underneath via the wire
                    # context in the payload.
                    attempt.span = self.spans.begin(
                        "runner.job", kind="async",
                        job=spec.job_id, spec_kind=spec.kind,
                    )
                    self.spans.event("runner.job_queued", job=spec.job_id)
                self._trace("runner.cache_miss", job=spec.job_id)
                pending.append(attempt)

        if pending and self.config.max_workers > 1:
            pending = self._run_parallel(pending, results)
            if pending:
                self._serial_fallbacks.inc()
                self._trace("runner.serial_fallback", jobs=len(pending))
        if pending:
            self._run_serial(pending, results)
        return results

    # ----------------------------------------------------------- parallel

    def _make_executor(self) -> cf.ProcessPoolExecutor:
        context = multiprocessing.get_context(self.config.start_method)
        return cf.ProcessPoolExecutor(
            max_workers=self.config.max_workers, mp_context=context
        )

    def _payload(
        self,
        spec: JobSpec,
        in_subprocess: bool,
        span: Optional[SpanHandle] = None,
    ) -> Dict[str, object]:
        payload = {
            "spec": spec.to_dict(),
            "trace_cache_dir": (
                str(self.trace_cache.root.parent)
                if self.trace_cache is not None
                else None
            ),
            "in_subprocess": in_subprocess,
        }
        if (
            self.spans is not None
            and span is not None
            and self.spans.sink.shard_dir is not None
        ):
            # Wire-propagate the job span: the worker opens its own
            # shard in the same directory and continues the tree here.
            payload["trace"] = {
                "dir": self.spans.sink.shard_dir,
                "context": self.spans.context(span).to_wire(),
            }
        return payload

    def _run_parallel(
        self, pending: List[_Attempt], results: Dict[str, JobResult]
    ) -> List[_Attempt]:
        """Pool execution; returns attempts left for the serial fallback."""
        restarts = 0
        while pending:
            try:
                executor = self._make_executor()
            except (OSError, ValueError) as error:
                self._trace("runner.pool_start_failed", error=repr(error))
                return pending

            wave, pending = pending, []
            submitted = {}
            for attempt in wave:
                if attempt.failures:
                    time.sleep(self.config.backoff(attempt.failures))
                self._trace(
                    "runner.job_dispatch", job=attempt.spec.job_id,
                    attempt=attempt.failures + 1,
                )
                self._beat()
                future = executor.submit(
                    execute_job,
                    self._payload(attempt.spec, True, attempt.span),
                )
                submitted[future] = attempt
            broken = False
            timed_out = False
            for future, attempt in submitted.items():
                if broken:
                    # The pool died: requeue without charging a retry —
                    # this job may never have started.
                    pending.append(attempt)
                    continue
                try:
                    output = future.result(timeout=self.config.job_timeout)
                except cf.TimeoutError:
                    timed_out = True
                    self._timeouts.inc()
                    self._record_failure(
                        attempt,
                        f"timed out after {self.config.job_timeout}s",
                        pending, results,
                    )
                except BrokenProcessPool:
                    broken = True
                    self._worker_deaths.inc()
                    self._trace("runner.worker_death", job=attempt.spec.job_id)
                    pending.append(attempt)
                except Exception as error:  # job raised in the worker
                    self._record_failure(
                        attempt, repr(error), pending, results
                    )
                else:
                    self._record_success(attempt, output, results)
            executor.shutdown(wait=not (broken or timed_out),
                              cancel_futures=True)
            if broken or timed_out:
                restarts += 1
                self._pool_restarts.inc()
                if restarts > self.config.max_pool_restarts:
                    return pending
        return []

    # ------------------------------------------------------------- serial

    def _run_serial(
        self, pending: List[_Attempt], results: Dict[str, JobResult]
    ) -> None:
        """In-process execution (``max_workers=1`` or pool fallback)."""
        for attempt in pending:
            while True:
                if attempt.failures:
                    time.sleep(self.config.backoff(attempt.failures))
                self._trace(
                    "runner.job_dispatch", job=attempt.spec.job_id,
                    attempt=attempt.failures + 1, serial=True,
                )
                self._beat()
                try:
                    output = execute_job(
                        self._payload(attempt.spec, False, attempt.span)
                    )
                except Exception as error:
                    retrying = self._record_failure(
                        attempt, repr(error), None, results
                    )
                    if retrying:
                        continue
                    break
                else:
                    self._record_success(attempt, output, results)
                    break

    # ---------------------------------------------------------- accounting

    def _record_success(
        self,
        attempt: _Attempt,
        output: Dict[str, object],
        results: Dict[str, JobResult],
    ) -> None:
        snapshot = StatsSnapshot.from_dict(output["snapshot"])
        duration = float(output.get("duration", 0.0))
        self._completed.inc()
        self._duration.record(duration)
        if self.cache is not None:
            self.cache.put(attempt.spec, snapshot)
        self._trace(
            "runner.job_done", job=attempt.spec.job_id,
            attempts=attempt.failures + 1, duration=duration,
        )
        if self.spans is not None and attempt.span is not None:
            self.spans.finish(
                attempt.span, status="ok",
                attempts=attempt.failures + 1, duration=duration,
            )
        self._finish(
            results,
            JobResult(
                attempt.spec, "ok", snapshot,
                attempts=attempt.failures + 1, duration=duration,
            ),
        )

    def _record_failure(
        self,
        attempt: _Attempt,
        error: str,
        pending: Optional[List[_Attempt]],
        results: Dict[str, JobResult],
    ) -> bool:
        """Charge one failed execution; returns True when retrying."""
        attempt.failures += 1
        attempt.error = error
        if attempt.failures <= self.config.max_retries:
            self._retried.inc()
            self._trace(
                "runner.job_retry", job=attempt.spec.job_id,
                failures=attempt.failures, error=error,
            )
            if pending is not None:
                pending.append(attempt)
            return True
        self._failed.inc()
        self._trace(
            "runner.job_failed", job=attempt.spec.job_id, error=error
        )
        if self.spans is not None and attempt.span is not None:
            self.spans.finish(
                attempt.span, status="failed", error=error,
            )
        self._finish(
            results,
            JobResult(
                attempt.spec, "failed",
                attempts=attempt.failures, error=error,
            ),
        )
        return False

    def _finish(self, results: Dict[str, JobResult], result: JobResult) -> None:
        results[result.spec.job_id] = result
        self._beat()
        if self.progress is not None:
            self.progress(result, len(results), self._total)

    def _trace(self, name: str, **fields) -> None:
        if self.spans is not None:
            self.spans.event(name, **fields)
        elif self.tracer is not None:
            self.tracer.event(name, **fields)
