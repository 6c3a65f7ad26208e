"""Content-addressed on-disk caches for the experiment runner.

Two layers, both keyed by sha256 content hashes and both safe against
concurrent writers (atomic ``os.replace`` of a temp file) and against
killed runs (a partial write never becomes visible, so a resumed sweep
recomputes only the cells that never landed):

* :class:`ResultCache` — finished job results as
  ``<key>.json`` documents carrying the spec, the format/package
  versions, and the job's :class:`~repro.obs.StatsSnapshot`.  Any
  mismatch (corrupt JSON, stale version, spec collision) reads as a
  miss, never as an error.
* :class:`TraceCache` — the expensive intermediate artefacts (epoch
  streams and access traces) as ``.ltrace`` containers via
  :mod:`repro.trace.convert`, shared between pool workers, the
  benchmark harness, and the ``repro-run`` CLI so one generation pass
  feeds every consumer.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Optional, Union

from repro.obs.snapshot import StatsSnapshot
from repro.runner.specs import JobSpec, _package_version
from repro.trace.convert import (
    ColumnarAccessTrace,
    load_columnar_epochs,
    save_columnar_epochs,
    save_columnar_trace,
)
from repro.trace.format import TRACE_VERSION, atomic_write
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.trace import AccessTrace, EpochStream

#: Bumped on incompatible result-document layout changes.
RESULT_FORMAT_VERSION = 1

PathLike = Union[str, Path]


def _atomic_write_text(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` without exposing partial content."""
    path.parent.mkdir(parents=True, exist_ok=True)
    atomic_write(path, lambda handle: handle.write(text.encode("utf-8")))


class ResultCache:
    """On-disk store of finished job snapshots, keyed by spec content."""

    def __init__(self, root: PathLike) -> None:
        self.root = Path(root) / "results"

    def path_for(self, spec: JobSpec) -> Path:
        """The document path a spec's result lives at."""
        return self.root / f"{spec.key()}.json"

    def get(self, spec: JobSpec) -> Optional[StatsSnapshot]:
        """Load a cached snapshot, or ``None`` on miss/corruption/staleness."""
        path = self.path_for(spec)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        if not isinstance(payload, dict):
            return None
        if payload.get("result_format_version") != RESULT_FORMAT_VERSION:
            return None
        if payload.get("package_version") != _package_version():
            return None
        if payload.get("spec") != spec.to_dict():
            return None
        try:
            return StatsSnapshot.from_dict(payload["snapshot"])
        except (KeyError, TypeError, ValueError):
            return None

    def put(self, spec: JobSpec, snapshot: StatsSnapshot) -> Path:
        """Persist a result document atomically; returns its path."""
        path = self.path_for(spec)
        document = {
            "result_format_version": RESULT_FORMAT_VERSION,
            "package_version": _package_version(),
            "spec": spec.to_dict(),
            "snapshot": snapshot.to_dict(),
        }
        _atomic_write_text(path, json.dumps(document, indent=2))
        return path

    def clear(self) -> int:
        """Delete every cached result; returns the number removed."""
        removed = 0
        if self.root.is_dir():
            for path in self.root.glob("*.json"):
                path.unlink()
                removed += 1
        return removed

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*.json"))


def _load_access_trace(path: Path) -> AccessTrace:
    with ColumnarAccessTrace(path) as view:
        return view.to_access_trace()


class TraceCache:
    """On-disk store of generated workload artefacts (``.ltrace``).

    Keys digest the profile's calibrated parameters, the generator
    seed, the artefact kind and scale, the container format version,
    and the package version — so a recalibrated profile or a format
    bump regenerates exactly the affected artefacts.  Unreadable, stale
    or wrong-kind files are regenerated in place, never fatal.
    """

    def __init__(self, root: PathLike) -> None:
        self.root = Path(root) / "traces"

    def _key(self, generator: WorkloadGenerator, kind: str, scale: int) -> str:
        import dataclasses

        payload = {
            "trace_format_version": TRACE_VERSION,
            "package_version": _package_version(),
            "profile": dataclasses.asdict(generator.profile),
            "seed": generator.seed,
            "kind": kind,
            "scale": scale,
        }
        blob = json.dumps(payload, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()

    def path_for(
        self, generator: WorkloadGenerator, kind: str, scale: int
    ) -> Path:
        """The container path one artefact lives at."""
        key = self._key(generator, kind, scale)[:16]
        return self.root / f"{generator.profile.name}-{kind}-{key}.ltrace"

    def _load_or_build(self, path: Path, loader, builder, saver):
        try:
            return loader(path)
        except (FileNotFoundError, ValueError):
            # StorageFormatError is a ValueError, as is the artefact
            # constructors' own validation: either way, rebuild.
            pass
        artefact = builder()
        self.root.mkdir(parents=True, exist_ok=True)
        saver(artefact, path)
        return artefact

    def epoch_stream(
        self, generator: WorkloadGenerator, total_instructions: int
    ) -> EpochStream:
        """Cached :meth:`WorkloadGenerator.epoch_stream`."""
        path = self.path_for(generator, "epochs", total_instructions)
        return self._load_or_build(
            path,
            load_columnar_epochs,
            lambda: generator.epoch_stream(total_instructions),
            save_columnar_epochs,
        )

    def access_trace(
        self, generator: WorkloadGenerator, total_instructions: int
    ) -> AccessTrace:
        """Cached :meth:`WorkloadGenerator.access_trace`."""
        path = self.path_for(generator, "trace", total_instructions)
        return self._load_or_build(
            path,
            _load_access_trace,
            lambda: generator.access_trace(total_instructions),
            save_columnar_trace,
        )

    def _files(self):
        if not self.root.is_dir():
            return []
        return [path for path in self.root.iterdir() if path.is_file()]

    def clear(self) -> int:
        """Delete every file under the trace directory (including
        artefacts of earlier formats); returns the number removed."""
        files = self._files()
        for path in files:
            path.unlink()
        return len(files)

    def __len__(self) -> int:
        return len(self._files())
