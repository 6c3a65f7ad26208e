"""The ``.ltrace`` columnar container (v1 binary layout).

An ``.ltrace`` file is a flat sequence of named numpy array *sections*
behind a tiny fixed prologue, laid out so a reader can map the whole
file once and hand zero-copy array views straight to the replay
kernels:

=========  ==========================================================
offset     contents
=========  ==========================================================
0          prologue, 32 bytes: magic ``LTRC``, format version (u16),
           flags (u16), directory offset (u64), directory length
           (u64), directory crc32 (u32), 4 pad bytes
32         section payloads, each aligned to a 64-byte boundary
dir_off    JSON directory: the container kind, writer metadata, and
           one entry per section (name, dtype descriptor, shape, byte
           offset, byte length, crc32)
=========  ==========================================================

Integrity model: every open verifies the prologue, the directory
checksum, every field of every section entry, and each section's crc32
before any array is exposed.  A truncated tail, a flipped byte, a
foreign magic, a forged directory, or a format version from a newer
build all raise :class:`StorageFormatError` instead of mis-replaying —
corruption is a loud failure, never a wrong answer.

Sections are little-endian regardless of host order; dtype descriptors
round-trip through the directory JSON, so structured (record) arrays
are first-class.  The reader accepts a filesystem path (mmap-backed)
or a ``bytes`` object (zero-copy ``frombuffer`` views), which is what
lets the serving layer replay a wire-delivered trace without touching
disk.
"""

from __future__ import annotations

import io
import json
import math
import mmap
import os
import struct
import uuid
import zlib
from pathlib import Path
from typing import (
    BinaryIO, Callable, Dict, List, NamedTuple, Optional, Tuple, Union,
)

import numpy as np

#: File magic; the first four bytes of every ``.ltrace``.
TRACE_MAGIC = b"LTRC"

#: Format version this build writes and the newest it can read.
TRACE_VERSION = 1

#: Prologue layout: magic, version, flags, directory offset/length/crc.
_PROLOGUE = struct.Struct("<4sHHQQI4x")

#: Section payloads start on multiples of this (numpy-friendly).
_ALIGN = 64

PathLike = Union[str, Path]


class StorageFormatError(ValueError):
    """A container is unreadable, truncated, or from an incompatible build."""


class _Section(NamedTuple):
    """One verified directory entry."""

    dtype: np.dtype
    shape: Tuple[int, ...]
    offset: int


def _descr_to_json(dtype: np.dtype):
    """A JSON-serialisable dtype descriptor (str or nested lists)."""
    if dtype.names is None:
        return dtype.str
    return np.lib.format.dtype_to_descr(dtype)


def _descr_from_json(descr) -> np.dtype:
    """Inverse of :func:`_descr_to_json` (JSON turns tuples into lists)."""
    if isinstance(descr, str):
        return np.dtype(descr)
    return np.dtype([tuple(field) for field in descr])


def _pad(stream: io.BufferedIOBase, position: int) -> int:
    """Advance ``stream`` to the next :data:`_ALIGN` boundary."""
    remainder = position % _ALIGN
    if remainder:
        fill = _ALIGN - remainder
        stream.write(b"\0" * fill)
        position += fill
    return position


def write_columnar(
    destination: Union[PathLike, io.BufferedIOBase],
    kind: str,
    arrays: Dict[str, np.ndarray],
    meta: Optional[Dict[str, object]] = None,
) -> None:
    """Write named arrays as one ``.ltrace`` container.

    ``kind`` tags what the sections mean (``"access-trace"`` /
    ``"event-trace"``); ``meta`` is small JSON-able writer metadata
    (trace name, string tables, ...).  Section order follows ``arrays``
    insertion order and is part of the pinned v1 layout.
    """
    if hasattr(destination, "write"):
        _write_stream(destination, kind, arrays, meta or {})
        return
    atomic_write(
        destination,
        lambda stream: _write_stream(stream, kind, arrays, meta or {}),
    )


def atomic_write(path: PathLike, write: Callable[[BinaryIO], object]) -> None:
    """Publish ``path`` by calling ``write`` on a fresh binary stream.

    The stream is a uniquely named temp file next to ``path``, renamed
    over it only once ``write`` returns: a crashed writer never leaves a
    partial file at ``path``, and concurrent writers of one path never
    share a temp file.  (Exclusive create rather than ``mkstemp``, so
    the umask still sets the published file's mode.)
    """
    path = Path(path)
    temporary = path.with_name(f"{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(temporary, "xb") as stream:
            write(stream)
        os.replace(temporary, path)
    except BaseException:
        try:
            os.unlink(temporary)
        except OSError:
            pass
        raise


def to_bytes(
    kind: str,
    arrays: Dict[str, np.ndarray],
    meta: Optional[Dict[str, object]] = None,
) -> bytes:
    """In-memory :func:`write_columnar` (wire transport, tests)."""
    buffer = io.BytesIO()
    _write_stream(buffer, kind, arrays, meta or {})
    return buffer.getvalue()


def _write_stream(
    stream: io.BufferedIOBase,
    kind: str,
    arrays: Dict[str, np.ndarray],
    meta: Dict[str, object],
) -> None:
    stream.write(b"\0" * _PROLOGUE.size)
    position = _PROLOGUE.size
    sections: List[Dict[str, object]] = []
    for name, array in arrays.items():
        array = np.ascontiguousarray(array)
        if array.dtype.names is None and array.dtype.byteorder == ">":
            array = array.astype(array.dtype.newbyteorder("<"))
        position = _pad(stream, position)
        payload = array.tobytes()
        stream.write(payload)
        sections.append({
            "name": name,
            "dtype": _descr_to_json(array.dtype),
            "shape": list(array.shape),
            "offset": position,
            "nbytes": len(payload),
            "crc32": zlib.crc32(payload) & 0xFFFFFFFF,
        })
        position += len(payload)
    directory = json.dumps(
        {"kind": kind, "meta": meta, "sections": sections},
        sort_keys=True, separators=(",", ":"),
    ).encode()
    position = _pad(stream, position)
    stream.write(directory)
    stream.seek(0)
    stream.write(_PROLOGUE.pack(
        TRACE_MAGIC, TRACE_VERSION, 0,
        position, len(directory), zlib.crc32(directory) & 0xFFFFFFFF,
    ))
    stream.seek(0, io.SEEK_END)


class ColumnarFile:
    """A verified, zero-copy view over one ``.ltrace`` container.

    Opening maps the file (or wraps the given bytes), validates the
    prologue and directory, and checksums every section eagerly, so a
    corrupt container fails at open time with a
    :class:`StorageFormatError` naming the problem.  ``array(name)``
    returns a read-only numpy view directly over the mapped bytes — no
    copies, no per-event objects.
    """

    def __init__(self, source: Union[PathLike, bytes, bytearray]) -> None:
        if isinstance(source, (bytes, bytearray)):
            self._name = "<bytes>"
            self._mmap = None
            self._buffer = bytes(source)
        else:
            path = Path(source)
            self._name = str(path)
            if not path.exists():
                raise FileNotFoundError(self._name)
            with open(path, "rb") as handle:
                if path.stat().st_size == 0:
                    raise StorageFormatError(
                        f"{self._name}: empty file is not an .ltrace container"
                    )
                self._mmap = mmap.mmap(
                    handle.fileno(), 0, access=mmap.ACCESS_READ
                )
            self._buffer = memoryview(self._mmap)
        self.kind, self.meta, self._sections = self._validate()

    # ------------------------------------------------------------- validate

    def _fail(self, problem: str) -> "StorageFormatError":
        return StorageFormatError(f"{self._name}: {problem}")

    def _validate(self) -> Tuple[str, Dict, Dict[str, _Section]]:
        buffer = self._buffer
        total = len(buffer)
        if total < _PROLOGUE.size:
            raise self._fail(
                f"file is {total} bytes, shorter than the {_PROLOGUE.size}-"
                "byte prologue — truncated or not an .ltrace container"
            )
        magic, version, _flags, dir_offset, dir_length, dir_crc = (
            _PROLOGUE.unpack(bytes(buffer[:_PROLOGUE.size]))
        )
        if magic != TRACE_MAGIC:
            raise self._fail(
                f"bad magic {magic!r} (expected {TRACE_MAGIC!r}) — "
                "not an .ltrace container"
            )
        if version > TRACE_VERSION:
            raise self._fail(
                f"format version {version} is newer than this build "
                f"reads (v{TRACE_VERSION}) — upgrade to replay this trace"
            )
        if version < 1:
            raise self._fail(f"invalid format version {version}")
        if dir_offset + dir_length > total:
            raise self._fail(
                "directory extends past end of file — truncated tail"
            )
        directory_bytes = bytes(buffer[dir_offset:dir_offset + dir_length])
        if zlib.crc32(directory_bytes) & 0xFFFFFFFF != dir_crc:
            raise self._fail("directory checksum mismatch — corrupt file")
        try:
            directory = json.loads(directory_bytes)
            kind = str(directory["kind"])
            meta = dict(directory["meta"])
            entries = list(directory["sections"])
        except (ValueError, KeyError, TypeError) as error:
            raise self._fail(f"unreadable directory ({error})") from error
        sections: Dict[str, _Section] = {}
        for entry in entries:
            name, dtype = self._check_entry(entry)
            offset, nbytes = entry["offset"], entry["nbytes"]
            if offset + nbytes > total:
                raise self._fail(
                    f"section {name!r} extends past end of file — "
                    "truncated tail"
                )
            payload = buffer[offset:offset + nbytes]
            if zlib.crc32(payload) & 0xFFFFFFFF != entry["crc32"]:
                raise self._fail(
                    f"section {name!r} checksum mismatch — corrupt file"
                )
            sections[name] = _Section(dtype, tuple(entry["shape"]), offset)
        return kind, meta, sections

    def _check_entry(self, entry: object) -> Tuple[str, np.dtype]:
        """Type- and range-check every field of one directory entry;
        returns the section's name and dtype."""
        named = isinstance(entry, dict) and isinstance(entry.get("name"), str)
        if not named:
            raise self._fail(
                f"section entry {entry!r:.80} is not an object with a "
                "name — corrupt directory"
            )
        name = entry["name"]

        def invalid(field: str) -> StorageFormatError:
            return self._fail(
                f"section {name!r} has an invalid {field} "
                f"({entry.get(field)!r:.80}) — corrupt directory"
            )

        # ``type(...) is int``: a JSON true is an int subclass, not a size.
        for field in ("offset", "nbytes", "crc32"):
            if type(entry.get(field)) is not int or entry[field] < 0:
                raise invalid(field)
        shape = entry.get("shape")
        if not isinstance(shape, list) or any(
            type(side) is not int or side < 0 for side in shape
        ):
            raise invalid("shape")
        try:
            dtype = _descr_from_json(entry.get("dtype"))
        except (TypeError, ValueError):
            raise invalid("dtype") from None
        if dtype.hasobject or dtype.itemsize == 0:
            raise invalid("dtype")
        if dtype.itemsize * math.prod(shape) != entry["nbytes"]:
            raise self._fail(
                f"section {name!r} shape/dtype disagree with its byte "
                "length — corrupt directory"
            )
        return name, dtype

    def require_kind(self, kind: str) -> None:
        """Raise :class:`StorageFormatError` unless this is a ``kind``
        container."""
        if self.kind != kind:
            raise self._fail(f"not an {kind} container (kind={self.kind!r})")

    # --------------------------------------------------------------- access

    @property
    def name(self) -> str:
        """Origin of the container (path, or ``<bytes>``)."""
        return self._name

    @property
    def nbytes(self) -> int:
        """Total mapped size in bytes."""
        return len(self._buffer)

    def section_names(self) -> List[str]:
        """Section names in file order."""
        return list(self._sections)

    def array(self, name: str) -> np.ndarray:
        """A read-only zero-copy array view of one section."""
        try:
            section = self._sections[name]
        except KeyError:
            raise self._fail(
                f"{self.kind} container has no section {name!r} — "
                "truncated file or incompatible writer"
            ) from None
        view = np.frombuffer(
            self._buffer, dtype=section.dtype,
            count=math.prod(section.shape), offset=section.offset,
        )
        view = view.reshape(section.shape)
        view.flags.writeable = False
        return view

    def close(self) -> None:
        """Release the underlying map (views become invalid)."""
        if self._mmap is not None:
            try:
                if isinstance(self._buffer, memoryview):
                    self._buffer.release()
                self._buffer = b""
                self._mmap.close()
            except BufferError:
                # Array views are still alive; the map is released when
                # the last of them is garbage-collected.
                pass
            self._mmap = None

    def __enter__(self) -> "ColumnarFile":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
