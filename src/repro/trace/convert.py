"""Workload artefacts as columnar ``.ltrace`` containers.

The access-trace kind stores the exact parallel arrays of
:class:`repro.workloads.trace.AccessTrace` plus its taint layout and a
precomputed *epoch index*: the access indices where a new epoch begins
(taint-active flag flips).  The epoch index is what the shard planner
cuts at, so shard boundaries coincide with the trace's natural locality
boundaries without rescanning ``active_epoch`` at replay time.
Loading does not materialise python objects: :class:`ColumnarAccessTrace`
exposes the mmapped sections directly, and the replay kernels slice
them zero-copy.

The epoch-stream kind stores an :class:`~repro.workloads.trace.EpochStream`
as its two row-aligned columns, ``lengths`` and ``tainted_counts``.
"""

from __future__ import annotations

from typing import Dict, Optional, Union

import numpy as np

from repro.trace.format import ColumnarFile, PathLike, to_bytes, write_columnar
from repro.workloads.trace import AccessTrace, EpochStream, TaintLayout

ACCESS_KIND = "access-trace"
EPOCH_KIND = "epoch-stream"

#: Row-aligned per-access sections, in pinned v1 order.
_ACCESS_COLUMNS = (
    ("addresses", np.int64),
    ("sizes", np.int64),
    ("is_write", np.bool_),
    ("tainted", np.bool_),
    ("gap_before", np.int64),
    ("active_epoch", np.bool_),
)


def epoch_starts(active_epoch: np.ndarray) -> np.ndarray:
    """Access indices where a new epoch begins (index 0 included)."""
    n = len(active_epoch)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    flags = np.asarray(active_epoch, dtype=bool)
    changes = np.flatnonzero(flags[1:] != flags[:-1]) + 1
    return np.concatenate(
        [np.zeros(1, dtype=np.int64), changes.astype(np.int64)]
    )


def _access_arrays(trace: AccessTrace) -> Dict[str, np.ndarray]:
    arrays: Dict[str, np.ndarray] = {}
    for name, dtype in _ACCESS_COLUMNS:
        arrays[name] = np.ascontiguousarray(
            getattr(trace, name), dtype=dtype
        )
    arrays["epoch_starts"] = epoch_starts(arrays["active_epoch"])
    arrays["extents"] = trace.layout.extents
    arrays["accessed_pages"] = np.fromiter(
        sorted(trace.layout.accessed_pages), dtype=np.int64,
        count=len(trace.layout.accessed_pages),
    )
    return arrays


def save_columnar_trace(trace: AccessTrace, path: PathLike) -> None:
    """Write an :class:`AccessTrace` as a columnar ``.ltrace`` file."""
    write_columnar(
        path, ACCESS_KIND, _access_arrays(trace), {"name": trace.name}
    )


def columnar_trace_bytes(trace: AccessTrace) -> bytes:
    """In-memory :func:`save_columnar_trace` (wire transport, tests)."""
    return to_bytes(ACCESS_KIND, _access_arrays(trace), {"name": trace.name})


class ColumnarAccessTrace:
    """Zero-copy replay view over a columnar access trace.

    Exposes the same parallel arrays as
    :class:`~repro.workloads.trace.AccessTrace` but backed by the
    mapped file: slicing ``addresses[start:stop]`` hands the kernels a
    view of the on-disk bytes.  ``layout`` materialises lazily (it is
    only needed once, to bulk-load the CTT).
    """

    def __init__(self, source: Union[PathLike, bytes, "ColumnarFile"]) -> None:
        if isinstance(source, ColumnarFile):
            self.file = source
        else:
            self.file = ColumnarFile(source)
        self.file.require_kind(ACCESS_KIND)
        for name, _ in _ACCESS_COLUMNS:
            setattr(self, name, self.file.array(name))
        self.epoch_starts = self.file.array("epoch_starts")
        self.name = str(self.file.meta.get("name", ""))
        if len({len(getattr(self, name)) for name, _ in _ACCESS_COLUMNS}) > 1:
            raise self.file._fail(
                "access-trace sections are misaligned — corrupt directory"
            )
        self._layout: Optional[TaintLayout] = None

    def __len__(self) -> int:
        return len(self.addresses)

    @property
    def access_count(self) -> int:
        """Number of memory accesses in the window."""
        return len(self.addresses)

    @property
    def nbytes(self) -> int:
        """Mapped container size in bytes."""
        return self.file.nbytes

    @property
    def layout(self) -> TaintLayout:
        """The taint layout (materialised once, cached)."""
        if self._layout is None:
            extents = self.file.array("extents")
            if extents.ndim != 2 or extents.shape[1] != 2:
                raise self.file._fail(
                    f"extents must be an (N, 2) array, got shape "
                    f"{extents.shape}"
                )
            pages = self.file.array("accessed_pages")
            self._layout = TaintLayout(
                extents=extents,
                accessed_pages=set(pages.tolist()),
            )
        return self._layout

    def to_access_trace(self) -> AccessTrace:
        """Materialise the object-path :class:`AccessTrace` (bridging)."""
        return AccessTrace(
            name=self.name,
            addresses=np.array(self.addresses),
            sizes=np.array(self.sizes),
            is_write=np.array(self.is_write),
            tainted=np.array(self.tainted),
            gap_before=np.array(self.gap_before),
            active_epoch=np.array(self.active_epoch),
            layout=self.layout,
        )

    def close(self) -> None:
        """Release the underlying map."""
        self.file.close()

    def __enter__(self) -> "ColumnarAccessTrace":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def load_columnar_trace(
    source: Union[PathLike, bytes]
) -> ColumnarAccessTrace:
    """Open a columnar access trace for zero-copy replay.

    Raises :class:`~repro.trace.format.StorageFormatError` on any
    integrity problem (see :mod:`repro.trace.format`).
    """
    return ColumnarAccessTrace(source)


def save_columnar_epochs(stream: EpochStream, path: PathLike) -> None:
    """Write an :class:`EpochStream` as a columnar ``.ltrace`` file."""
    write_columnar(
        path, EPOCH_KIND,
        {
            "lengths": np.ascontiguousarray(stream.lengths, dtype=np.int64),
            "tainted_counts": np.ascontiguousarray(
                stream.tainted_counts, dtype=np.int64
            ),
        },
        {"name": stream.name},
    )


def load_columnar_epochs(source: Union[PathLike, bytes]) -> EpochStream:
    """Read an epoch stream written by :func:`save_columnar_epochs`.

    The columns are copied out of the map, so the stream outlives the
    file.  Raises :class:`~repro.trace.format.StorageFormatError` on any
    integrity problem, a missing or misaligned column included.
    """
    with ColumnarFile(source) as handle:
        handle.require_kind(EPOCH_KIND)
        lengths = np.array(handle.array("lengths"))
        tainted_counts = np.array(handle.array("tainted_counts"))
        if len(lengths) != len(tainted_counts):
            raise handle._fail(
                "epoch-stream sections are misaligned — corrupt directory"
            )
        return EpochStream(
            name=str(handle.meta.get("name", "")),
            lengths=lengths,
            tainted_counts=tainted_counts,
        )
