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
"""

from repro.trace.convert import (
    ACCESS_KIND,
    EPOCH_KIND,
    ColumnarAccessTrace,
    columnar_trace_bytes,
    epoch_starts,
    load_columnar_epochs,
    load_columnar_trace,
    save_columnar_epochs,
    save_columnar_trace,
)
from repro.trace.format import (
    ColumnarFile,
    StorageFormatError,
    TRACE_MAGIC,
    TRACE_VERSION,
    to_bytes,
    write_columnar,
)
from repro.trace.record import (
    EVENT_KIND,
    TraceRecorder,
    access_window,
    iter_events,
    replay_events,
)
from repro.trace.replay import (
    ColumnarReplayResult,
    ShardPartial,
    configs_from_blob,
    merge_baseline_partials,
    merge_partials,
    publish_trace_metrics,
    replay_baseline_columnar,
    replay_columnar,
    replay_columnar_pooled,
    shard_job_specs,
    shard_partial,
)
from repro.trace.shard import (
    SHARDS_ENV_VAR,
    explicit_plan,
    plan_shards,
    resolve_shard_count,
)

__all__ = [
    "ACCESS_KIND",
    "EPOCH_KIND",
    "EVENT_KIND",
    "SHARDS_ENV_VAR",
    "TRACE_MAGIC",
    "TRACE_VERSION",
    "ColumnarAccessTrace",
    "ColumnarFile",
    "ColumnarReplayResult",
    "ShardPartial",
    "StorageFormatError",
    "TraceRecorder",
    "access_window",
    "columnar_trace_bytes",
    "configs_from_blob",
    "epoch_starts",
    "explicit_plan",
    "iter_events",
    "load_columnar_epochs",
    "load_columnar_trace",
    "merge_baseline_partials",
    "merge_partials",
    "plan_shards",
    "publish_trace_metrics",
    "replay_baseline_columnar",
    "replay_columnar",
    "replay_columnar_pooled",
    "replay_events",
    "resolve_shard_count",
    "save_columnar_epochs",
    "save_columnar_trace",
    "shard_job_specs",
    "shard_partial",
    "to_bytes",
    "write_columnar",
]
