"""Structured JSONL event tracer.

Where the metrics registry answers "how many / how long on average",
the tracer answers "what happened, in order": mode switches, epoch
boundaries, timeout fires, reconciles.  Each record is one JSON object
per line — trivially greppable, loadable with ``jq`` or
``json.loads`` per line, and append-only so a crashed run keeps its
prefix.

Records carry:

* ``ts`` — seconds since the tracer was created (monotonic clock);
* ``type`` — ``"event"``;
* ``name`` — dotted event name (``slatch.trap``, ``slatch.return``);
* any keyword fields the instrumentation site supplies.

Spans are :class:`~repro.obs.spans.SpanTracer`'s: it writes its
``span_begin``/``span_close`` records through :meth:`Tracer.write`.

Usage::

    from repro.obs import Tracer

    tracer = Tracer()                      # in-memory
    tracer.event("slatch.trap", pc=0x1048)
    for record in tracer.records():
        print(record["name"], record["ts"])

    Tracer(path="run.jsonl")               # streamed to disk instead
    Tracer(shard_dir="trace-out")          # multi-process shard mode

**Shard mode** is what makes the tracer safe for concurrent and
multi-process use: ``Tracer(shard_dir=...)`` writes to a per-process
file ``<dir>/run.<pid>.jsonl``, so no two processes ever share a file.
A forked child that inherits the tracer detects the pid change on its
next emit and transparently reopens its own shard.  Every line is
written with a single ``os.write`` on an ``O_APPEND`` descriptor, so
lines are appended atomically and a record is either fully present or
(at worst, after a hard kill mid-write) a truncated *final* line —
which :func:`read_jsonl` tolerates by skipping it with a warning.
``repro-trace`` merges the shards back into one ordered timeline.
"""

from __future__ import annotations

import json
import os
import time
import warnings
from typing import Dict, List, Optional


class Tracer:
    """Append-only JSONL tracer: in-memory, file-backed, or sharded.

    Args:
        path: destination file; ``None`` keeps records in memory
            (retrievable via :meth:`records`).
        clock: monotonic time source (overridable for tests).
        shard_dir: per-process shard directory (mutually exclusive with
            ``path``); the actual file is ``<dir>/run.<pid>.jsonl``.
    """

    def __init__(
        self,
        path: Optional[str] = None,
        clock=time.monotonic,
        shard_dir: Optional[str] = None,
    ) -> None:
        if path is not None and shard_dir is not None:
            raise ValueError("path and shard_dir are mutually exclusive")
        self.path = path
        self.shard_dir = str(shard_dir) if shard_dir is not None else None
        self._clock = clock
        self._epoch = clock()
        self._records: List[Dict] = []
        self._fd: Optional[int] = None
        self._pid: Optional[int] = None
        if self.shard_dir is not None:
            os.makedirs(self.shard_dir, exist_ok=True)
            self._open_shard()
        elif path is not None:
            self._fd = self._open_append(path)
            self._pid = os.getpid()

    # ------------------------------------------------------------- writing

    @staticmethod
    def _open_append(path: str) -> int:
        return os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)

    def _open_shard(self) -> None:
        pid = os.getpid()
        self.path = os.path.join(self.shard_dir, f"run.{pid}.jsonl")
        self._fd = self._open_append(self.path)
        self._pid = pid

    def _emit(self, record: Dict) -> None:
        if self.shard_dir is not None and os.getpid() != self._pid:
            # Forked child still holding the parent's shard: switch to
            # a file of its own before the first write.
            if self._fd is not None:
                os.close(self._fd)
            self._open_shard()
        if self._fd is not None:
            line = json.dumps(record, sort_keys=True) + "\n"
            # One os.write per line on an O_APPEND fd: the append is a
            # single atomic syscall, so concurrent writers (and signal
            # interruptions) can at worst truncate the final line.
            os.write(self._fd, line.encode("utf-8"))
        else:
            self._records.append(record)

    def _now(self) -> float:
        return self._clock() - self._epoch

    def write(self, record: Dict) -> None:
        """Append one prebuilt record verbatim (no ``ts`` added).

        The low-level entry point used by
        :class:`~repro.obs.spans.SpanTracer`, which stamps its own
        wall-clock timestamps so shards from different processes merge
        onto one timeline.
        """
        self._emit(record)

    def event(self, name: str, **fields) -> None:
        """Record one point-in-time event."""
        record = {"ts": self._now(), "type": "event", "name": name}
        record.update(fields)
        self._emit(record)

    # ------------------------------------------------------------- reading

    def records(self) -> List[Dict]:
        """In-memory records (empty when file-backed; read the file)."""
        return list(self._records)

    def events(self, name: Optional[str] = None) -> List[Dict]:
        """In-memory event records, optionally filtered by name."""
        return [
            r for r in self._records
            if r["type"] == "event" and (name is None or r["name"] == name)
        ]

    # ----------------------------------------------------------- lifecycle

    def flush(self) -> None:
        """No-op kept for API compatibility (writes are unbuffered)."""

    def close(self) -> None:
        """Close the backing file (in-memory records stay readable)."""
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def read_jsonl(path: str, strict: bool = False) -> List[Dict]:
    """Load every record of a JSONL trace file.

    A truncated *final* line — the signature a crashed or killed writer
    leaves behind — is skipped with a :class:`RuntimeWarning` instead of
    raising, so a flight-recorder dump or shard merge still sees every
    complete record.  Corruption anywhere else (or any parse failure
    with ``strict=True``) still raises, because a mangled interior line
    means the file is damaged, not merely cut short.
    """
    records = []
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.readlines()
    last = len(lines) - 1
    for index, line in enumerate(lines):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            records.append(json.loads(stripped))
        except json.JSONDecodeError as error:
            if index == last and not strict:
                warnings.warn(
                    f"{path}: skipping truncated final line ({error})",
                    RuntimeWarning,
                    stacklevel=2,
                )
                continue
            raise
    return records
