"""Demand-paged byte-addressable memory.

Pages are 4 KiB, matching the page granularity the paper uses for its
spatial-locality analysis (Tables 3 and 4) and for the TLB taint bits.
Pages are allocated on first touch; reads from never-written pages return
zeroes but still count as accesses, which matters for the "pages accessed"
statistics.
"""

from __future__ import annotations

from typing import Dict, Iterator, Set

#: Page size in bytes (4 KiB, as in the paper's analysis).
PAGE_SIZE = 4096
_PAGE_SHIFT = 12
_MASK32 = 0xFFFFFFFF


class MemoryFault(Exception):
    """Raised on invalid memory operations (misalignment, bad range)."""


def page_number(address: int) -> int:
    """Page number containing ``address``."""
    return (address & _MASK32) >> _PAGE_SHIFT


def page_base(address: int) -> int:
    """Base address of the page containing ``address``."""
    return address & ~(PAGE_SIZE - 1) & _MASK32


class PagedMemory:
    """A sparse 32-bit address space backed by 4 KiB pages."""

    def __init__(self) -> None:
        self._pages: Dict[int, bytearray] = {}
        self._accessed_pages: Set[int] = set()

    # ------------------------------------------------------------ plumbing

    def _page_for(self, address: int, create: bool) -> bytearray:
        number = page_number(address)
        self._accessed_pages.add(number)
        page = self._pages.get(number)
        if page is None:
            page = bytearray(PAGE_SIZE)
            if create:
                self._pages[number] = page
        return page

    @property
    def accessed_pages(self) -> Set[int]:
        """Page numbers touched by any read or write so far."""
        return set(self._accessed_pages)

    @property
    def resident_pages(self) -> int:
        """Number of pages actually allocated."""
        return len(self._pages)

    def reset_access_tracking(self) -> None:
        """Forget which pages were accessed (allocation is untouched)."""
        self._accessed_pages.clear()

    # ------------------------------------------------------------ raw bytes

    def read_bytes(self, address: int, length: int) -> bytes:
        """Read ``length`` bytes starting at ``address``."""
        if length < 0:
            raise MemoryFault(f"negative read length {length}")
        address &= _MASK32
        out = bytearray()
        remaining = length
        cursor = address
        while remaining:
            page = self._page_for(cursor, create=False)
            offset = cursor & (PAGE_SIZE - 1)
            chunk = min(remaining, PAGE_SIZE - offset)
            out += page[offset : offset + chunk]
            cursor = (cursor + chunk) & _MASK32
            remaining -= chunk
        return bytes(out)

    def write_bytes(self, address: int, payload: bytes) -> None:
        """Write ``payload`` starting at ``address``."""
        address &= _MASK32
        cursor = address
        view = memoryview(payload)
        while view:
            page = self._page_for(cursor, create=True)
            offset = cursor & (PAGE_SIZE - 1)
            chunk = min(len(view), PAGE_SIZE - offset)
            page[offset : offset + chunk] = view[:chunk]
            cursor = (cursor + chunk) & _MASK32
            view = view[chunk:]

    # ------------------------------------------------------- typed accesses

    def read_uint(self, address: int, size: int) -> int:
        """Read a little-endian unsigned integer of ``size`` bytes."""
        address &= _MASK32
        offset = address & (PAGE_SIZE - 1)
        if 0 < size <= PAGE_SIZE - offset:  # within one page
            page = self._page_for(address, create=False)
            return int.from_bytes(page[offset : offset + size], "little")
        return int.from_bytes(self.read_bytes(address, size), "little")

    def read_int(self, address: int, size: int) -> int:
        """Read a little-endian signed integer of ``size`` bytes."""
        return int.from_bytes(
            self.read_bytes(address, size), "little", signed=True
        )

    def write_uint(self, address: int, value: int, size: int) -> None:
        """Write a little-endian unsigned integer of ``size`` bytes."""
        payload = (value & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
        address &= _MASK32
        offset = address & (PAGE_SIZE - 1)
        if 0 < size <= PAGE_SIZE - offset:  # within one page
            page = self._page_for(address, create=True)
            page[offset : offset + size] = payload
            return
        self.write_bytes(address, payload)

    def read_cstring(self, address: int, max_length: int = 4096) -> bytes:
        """Read a NUL-terminated string (terminator excluded)."""
        out = bytearray()
        for offset in range(max_length):
            byte = self.read_bytes((address + offset) & _MASK32, 1)[0]
            if byte == 0:
                return bytes(out)
            out.append(byte)
        raise MemoryFault(f"unterminated string at {address:#x}")

    # ------------------------------------------------------------ iteration

    def iter_nonzero_pages(self) -> Iterator[int]:
        """Yield page numbers of allocated pages (in increasing order)."""
        return iter(sorted(self._pages))
