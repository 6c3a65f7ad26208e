"""Taint tag storage: shadow memory and the taint register file.

Shadow memory keeps one tag byte per program byte (0 = clean, non-zero =
tainted; the tag value can carry a source colour).  Storage is sparse —
pages of shadow tags are allocated only when a byte in the page is first
tainted — so fully clean programs cost nothing, mirroring how libdft's
tagmap behaves in practice.

The taint register file (TRF) holds one tag per register byte (4 tags per
32-bit register), matching the byte-level register taint the paper's TRF
stores (Figure 7, component B).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Set, Tuple

_PAGE_SIZE = 4096
_PAGE_SHIFT = 12
_MASK32 = 0xFFFFFFFF

#: Extents per :meth:`ShadowMemory.fill_extents` chunk.
_FILL_CHUNK = 1 << 13

#: The tags of a clean register, and of a register uniformly tagged
#: ``t`` (``_UNIFORM[t]``).
_CLEAN = bytes(4)
_UNIFORM = [bytes([tag]) * 4 for tag in range(256)]


class ShadowMemory:
    """Sparse byte-granular taint tags for a 32-bit address space."""

    def __init__(self) -> None:
        self._pages: Dict[int, bytearray] = {}
        self._tainted_byte_count = 0

    # ------------------------------------------------------------- queries

    def get(self, address: int) -> int:
        """Tag of the byte at ``address`` (0 if clean)."""
        page = self._pages.get((address & _MASK32) >> _PAGE_SHIFT)
        if page is None:
            return 0
        return page[address & (_PAGE_SIZE - 1)]

    def get_range(self, address: int, length: int) -> bytes:
        """Tags of ``length`` bytes starting at ``address``."""
        address &= _MASK32
        offset = address & (_PAGE_SIZE - 1)
        if 0 < length <= _PAGE_SIZE - offset:  # within one page
            page = self._pages.get(address >> _PAGE_SHIFT)
            if page is None:
                return bytes(length)
            return bytes(page[offset : offset + length])
        return bytes(self.get((address + i) & _MASK32) for i in range(length))

    def any_tainted(self, address: int, length: int) -> bool:
        """True if any byte in [address, address+length) is tainted."""
        address &= _MASK32
        offset = address & (_PAGE_SIZE - 1)
        if 0 < length <= _PAGE_SIZE - offset:  # within one page
            page = self._pages.get(address >> _PAGE_SHIFT)
            return page is not None and (
                page.count(0, offset, offset + length) != length
            )
        for offset in range(length):
            if self.get((address + offset) & _MASK32):
                return True
        return False

    def all_tainted(self, address: int, length: int) -> bool:
        """True if every byte in the range is tainted."""
        for offset in range(length):
            if not self.get((address + offset) & _MASK32):
                return False
        return True

    @property
    def tainted_byte_count(self) -> int:
        """Number of currently tainted bytes."""
        return self._tainted_byte_count

    def tainted_pages(self) -> Set[int]:
        """Page numbers containing at least one tainted byte."""
        return {
            number
            for number, page in self._pages.items()
            if any(page)
        }

    def iter_tainted_bytes(self) -> Iterator[int]:
        """Yield the address of every tainted byte (ascending)."""
        for number in sorted(self._pages):
            page = self._pages[number]
            base = number << _PAGE_SHIFT
            for offset, tag in enumerate(page):
                if tag:
                    yield base + offset

    def region_clean(self, address: int, length: int) -> bool:
        """True if no byte in the region is tainted (alias for clarity)."""
        return not self.any_tainted(address, length)

    def iter_tainted_domains(self, domain_size: int) -> Iterator[int]:
        """Yield the base address of every ``domain_size``-aligned region
        containing at least one tainted byte (ascending; bulk scan)."""
        if domain_size < 1 or _PAGE_SIZE % domain_size:
            raise ValueError("domain_size must divide the page size")
        for number in sorted(self._pages):
            page = self._pages[number]
            if not any(page):
                continue
            base = number << _PAGE_SHIFT
            for offset in range(0, _PAGE_SIZE, domain_size):
                if any(page[offset : offset + domain_size]):
                    yield base + offset

    def tainted_domain_bases(self, domain_size: int) -> "np.ndarray":
        """Vectorised twin of :meth:`iter_tainted_domains`.

        Returns the same base addresses as one ascending int64 array; the
        per-page scan reduces a (domains, domain_size) view instead of
        slicing python bytearrays, which is what makes bulk-loading a
        LATCH module from a large shadow cheap (the columnar replay path
        pays this on every open).
        """
        import numpy as np

        if domain_size < 1 or _PAGE_SIZE % domain_size:
            raise ValueError("domain_size must divide the page size")
        per_page = _PAGE_SIZE // domain_size
        chunks = []
        for number in sorted(self._pages):
            tags = np.frombuffer(self._pages[number], dtype=np.uint8)
            hits = tags.reshape(per_page, domain_size).any(axis=1)
            if hits.any():
                base = np.int64(number << _PAGE_SHIFT)
                chunks.append(
                    base + np.flatnonzero(hits).astype(np.int64) * domain_size
                )
        if not chunks:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(chunks)

    # ------------------------------------------------------------ mutation

    def set(self, address: int, tag: int) -> None:
        """Set the tag of one byte; ``tag`` 0 clears."""
        address &= _MASK32
        number = address >> _PAGE_SHIFT
        page = self._pages.get(number)
        if page is None:
            if tag == 0:
                return
            page = bytearray(_PAGE_SIZE)
            self._pages[number] = page
        offset = address & (_PAGE_SIZE - 1)
        old = page[offset]
        page[offset] = tag & 0xFF
        if old == 0 and tag:
            self._tainted_byte_count += 1
        elif old and tag == 0:
            self._tainted_byte_count -= 1

    def set_range(self, address: int, length: int, tag: int) -> None:
        """Set every byte in the range to ``tag`` (bulk, per-page)."""
        if length <= 0:
            return
        tag &= 0xFF
        address &= _MASK32
        remaining = length
        cursor = address
        while remaining:
            number = cursor >> _PAGE_SHIFT
            offset = cursor & (_PAGE_SIZE - 1)
            chunk = min(remaining, _PAGE_SIZE - offset)
            page = self._pages.get(number)
            if page is None:
                if tag:
                    page = bytearray(_PAGE_SIZE)
                    self._pages[number] = page
                    page[offset : offset + chunk] = bytes([tag]) * chunk
                    self._tainted_byte_count += chunk
            else:
                old = page[offset : offset + chunk]
                old_tainted = chunk - old.count(0)
                page[offset : offset + chunk] = bytes([tag]) * chunk
                new_tainted = chunk if tag else 0
                self._tainted_byte_count += new_tainted - old_tainted
            cursor = (cursor + chunk) & _MASK32
            remaining -= chunk

    def fill_extents(self, extents, tag: int = 1) -> None:
        """:meth:`set_range` for every ``(start, length)`` row, a page at
        a time: chunks of rows are cut at page boundaries (wrapping at
        2^32) and merged into a byte-per-byte cover mask."""
        from repro.kernels.classify import as_index_array

        pairs = as_index_array(extents).reshape(-1, 2)
        for first in range(0, len(pairs), _FILL_CHUNK):
            self._fill_pages(pairs[first : first + _FILL_CHUNK], tag)

    def _fill_pages(self, pairs, tag: int) -> None:
        import numpy as np

        from repro.kernels.classify import expand_ranges, unique_sorted

        pairs = pairs[pairs[:, 1] > 0]
        starts = pairs[:, 0]
        ends = starts + pairs[:, 1]
        first = starts >> _PAGE_SHIFT
        pages, offsets = expand_ranges(first, ((ends - 1) >> _PAGE_SHIFT) - first + 1)
        if not len(pages):
            return
        # Clip each extent to its pages, then move each piece from its
        # page to that page's row of the mask.
        counts = np.diff(offsets)
        wrapped = pages & (_MASK32 >> _PAGE_SHIFT)
        numbers = unique_sorted(wrapped)
        shift = (np.searchsorted(numbers, wrapped) - pages) << _PAGE_SHIFT
        lo = np.maximum(np.repeat(starts, counts), pages << _PAGE_SHIFT) + shift
        hi = np.minimum(np.repeat(ends, counts), (pages + 1) << _PAGE_SHIFT) + shift
        # Merge overlapping or touching pieces so no two edges collide.
        order = np.argsort(lo)
        lo, reach = lo[order], np.maximum.accumulate(hi[order])
        head = np.flatnonzero(np.concatenate(([True], lo[1:] > reach[:-1])))
        edges = np.zeros(len(numbers) * _PAGE_SIZE + 1, dtype=np.int8)
        edges[lo[head]] = 1
        edges[reach[np.append(head[1:], len(lo)) - 1]] = -1
        cover = np.cumsum(edges, dtype=np.int8, out=edges)[:-1].view(bool)
        tag &= 0xFF
        for number, row in zip(numbers.tolist(), cover.reshape(-1, _PAGE_SIZE)):
            page = self._pages.get(number)
            if page is None:
                if not tag:
                    continue
                page = self._pages[number] = bytearray(_PAGE_SIZE)
            view = np.frombuffer(page, dtype=np.uint8)
            before = np.count_nonzero(view)
            view[row] = tag
            self._tainted_byte_count += np.count_nonzero(view) - before

    def set_tags(self, address: int, tags: bytes) -> None:
        """Copy a vector of tags starting at ``address``."""
        address &= _MASK32
        offset = address & (_PAGE_SIZE - 1)
        length = len(tags)
        if 0 < length <= _PAGE_SIZE - offset:  # within one page
            number = address >> _PAGE_SHIFT
            page = self._pages.get(number)
            clean = tags.count(0)
            if page is None:
                if clean == length:
                    return
                page = self._pages[number] = bytearray(_PAGE_SIZE)
            end = offset + length
            self._tainted_byte_count += page.count(0, offset, end) - clean
            page[offset:end] = tags
            return
        for offset, tag in enumerate(tags):
            self.set((address + offset) & _MASK32, tag)

    def clear_range(self, address: int, length: int) -> None:
        """Remove taint from the range."""
        self.set_range(address, length, 0)

    def clear_all(self) -> None:
        """Remove all taint."""
        self._pages.clear()
        self._tainted_byte_count = 0


class TaintRegisterFile:
    """Byte-level taint for the 16 architectural registers.

    Each register carries four tag bytes, held as one immutable
    ``bytes``, so :meth:`get` hands out the stored object and a write
    replaces it.  The aggregate per-register bitmask view
    (:meth:`mask`, :meth:`load_mask`) supports the ``strf``
    instruction, which reloads the hardware TRF from a register bitmask
    after a software-DIFT epoch (Table 5 of the paper).

    A per-register "any byte tainted" bitmask is kept up to date on
    every write, so :meth:`is_tainted`, :meth:`any_tainted` and
    :meth:`register_mask` are integer operations.
    """

    REGISTER_COUNT = 16
    BYTES_PER_REGISTER = 4

    def __init__(self) -> None:
        self._tags: List[bytes] = [_CLEAN] * self.REGISTER_COUNT
        self._live = 0  # bit r set iff any byte of register r is tainted

    def get(self, register: int) -> bytes:
        """The four tag bytes of ``register``."""
        return self._tags[register]

    def set(self, register: int, tags: bytes) -> None:
        """Replace the tag bytes of ``register``."""
        if register == 0:
            return  # r0 is hard-wired zero and can never be tainted
        if type(tags) is not bytes or len(tags) != 4:
            tags = bytes(tags[:4]).ljust(4, b"\x00")
        self._tags[register] = tags
        if tags == _CLEAN:
            self._live &= ~(1 << register)
        else:
            self._live |= 1 << register

    def taint(self, register: int, tag: int = 1) -> None:
        """Taint every byte of ``register`` with ``tag``."""
        self.set(register, _UNIFORM[tag] if 0 <= tag < 256
                 else bytes([tag]) * 4)

    def clear(self, register: int) -> None:
        """Remove taint from ``register``."""
        self._tags[register] = _CLEAN
        self._live &= ~(1 << register)

    def is_tainted(self, register: int) -> bool:
        """True if any byte of ``register`` is tainted."""
        return bool(self._live >> register & 1)

    def any_tainted(self, registers) -> bool:
        """True if any of ``registers`` carries taint."""
        live = self._live
        for register in registers:
            if live >> register & 1:
                return True
        return False

    def union(self, *registers: int) -> bytes:
        """Byte-wise union (max) of the tags of several registers."""
        out = _CLEAN
        live = self._live
        for register in registers:
            if not live >> register & 1:
                continue
            tags = self._tags[register]
            if out == _CLEAN:
                out = tags
            elif tags != out:
                out = bytes(map(max, out, tags))
        return out

    def mask(self) -> int:
        """Pack the TRF into a bitmask: bit (4*reg + byte) = tainted."""
        value = 0
        for register in range(self.REGISTER_COUNT):
            for byte_index in range(self.BYTES_PER_REGISTER):
                if self._tags[register][byte_index]:
                    value |= 1 << (register * self.BYTES_PER_REGISTER + byte_index)
        return value

    def load_mask(self, mask: int, tag: int = 1) -> None:
        """Reload the TRF from a bitmask (the ``strf`` semantics)."""
        self.clear_all()
        for register in range(1, self.REGISTER_COUNT):
            bits = mask >> (register * self.BYTES_PER_REGISTER)
            self.set(register, bytes(
                tag if bits >> byte_index & 1 else 0
                for byte_index in range(self.BYTES_PER_REGISTER)
            ))

    def register_mask(self) -> int:
        """Pack the TRF into a 16-bit mask: bit r = register r tainted.

        This is the coarse view a 32-bit ``strf`` operand can carry; the
        byte-precise :meth:`mask` needs 64 bits and is used internally.
        """
        return self._live

    def load_register_mask(self, mask: int, tag: int = 1) -> None:
        """Reload the TRF from a per-register bitmask (``strf`` semantics)."""
        for register in range(self.REGISTER_COUNT):
            if mask & (1 << register):
                self.taint(register, tag)
            else:
                self.clear(register)

    def clear_all(self) -> None:
        """Remove taint from every register."""
        self._tags[:] = [_CLEAN] * self.REGISTER_COUNT
        self._live = 0

    def tainted_registers(self) -> Tuple[int, ...]:
        """Registers carrying any taint."""
        return tuple(
            register
            for register in range(self.REGISTER_COUNT)
            if self._live >> register & 1
        )
