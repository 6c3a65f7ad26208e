"""repro.trace — the zero-copy columnar trace format and sharded replay.

The ``.ltrace`` container is the on-disk/wire representation
of the reproduction's traces: versioned, checksummed, mmap-friendly
numpy sections a reader maps once and replays without materialising
per-event python objects.

* :mod:`~repro.trace.format` — the container itself (prologue, aligned
  sections, JSON directory, crc32 integrity, zero-copy reader) and
  :class:`StorageFormatError`, raised for every unreadable container;
* :mod:`~repro.trace.convert` — access-trace kind: the
  :class:`~repro.workloads.trace.AccessTrace` columns plus an epoch
  index, and the :class:`ColumnarAccessTrace` replay view; and the
  epoch-stream kind for :class:`~repro.workloads.trace.EpochStream`;
* :mod:`~repro.trace.rows` — the numpy-free row layout of a commit
  stream, shared by the event-trace kind and the taint service's
  ``events`` batches;
* :mod:`~repro.trace.record` — event-trace kind: a
  :class:`TraceRecorder` observer that captures a CPU's full commit
  stream, and :func:`replay_events` to drive any observer from it;
* :mod:`~repro.trace.shard` — shard planning (epoch-snapped cuts, the
  ``REPRO_TRACE_SHARDS`` knob);
* :mod:`~repro.trace.replay` — the sharded replay: the stateless
  :func:`shard_partial` of :mod:`repro.kernels.replay` per shard, its
  exact carry-over :func:`merge_partials` in the parent, in-process
  and runner-pool entry points.

The load-bearing invariant, enforced by ``tests/test_trace_format.py``
/ ``tests/test_trace_shards.py`` and re-proved by ``repro-check``'s
``columnar`` oracle path: a sharded multicore columnar replay is
bit-identical to the per-access scalar replay, for any shard plan.
``docs/TRACE.md`` documents the format and knobs.

Exports resolve on first access, so recording a trace or decoding its
rows never loads numpy.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.trace.convert": (
        "ACCESS_KIND", "EPOCH_KIND", "ColumnarAccessTrace",
        "columnar_trace_bytes", "epoch_starts", "load_columnar_epochs",
        "load_columnar_trace", "save_columnar_epochs", "save_columnar_trace",
    ),
    "repro.trace.format": (
        "ColumnarFile", "StorageFormatError", "TRACE_MAGIC", "TRACE_VERSION",
        "to_bytes", "write_columnar",
    ),
    "repro.trace.record": (
        "EVENT_KIND", "TraceRecorder", "iter_events", "replay_events",
    ),
    "repro.trace.replay": (
        "ColumnarReplayResult", "ShardPartial", "configs_from_blob",
        "merge_baseline_partials", "merge_partials", "publish_trace_metrics",
        "replay_baseline_columnar", "replay_columnar",
        "replay_columnar_pooled", "shard_job_specs", "shard_partial",
    ),
    "repro.trace.shard": (
        "SHARDS_ENV_VAR", "explicit_plan", "plan_shards",
        "resolve_shard_count",
    ),
})
