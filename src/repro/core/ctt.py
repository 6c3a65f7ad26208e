"""The Coarse Taint Table (CTT).

The CTT is the in-memory data structure holding one taint bit per domain
(Figure 7, component D).  One 32-bit word packs 32 domain bits, so the
coarse state for 1 KiB of memory with 32-byte domains — or 2 KiB with
64-byte domains — fits in a single word, which is what lets the tiny CTC
achieve high hit rates.

Storage here is sparse (word index → word value, zero words elided), the
Python analogue of the paper's lazily allocated in-memory table.
"""

from __future__ import annotations

from typing import Dict, Iterator, Set

from repro.core.domains import DOMAINS_PER_WORD, DomainGeometry

_MASK32 = 0xFFFFFFFF

#: log2(DOMAINS_PER_WORD): domain index → CTT word index shift.
_WORD_SHIFT = DOMAINS_PER_WORD.bit_length() - 1


class CoarseTaintTable:
    """Sparse bitmap of per-domain taint bits."""

    def __init__(self, geometry: DomainGeometry) -> None:
        self.geometry = geometry
        self._words: Dict[int, int] = {}
        self._domain_shift = geometry.domain_size.bit_length() - 1

    # ------------------------------------------------------------- queries

    def word(self, word_index: int) -> int:
        """The 32-bit CTT word at ``word_index`` (0 when never set)."""
        return self._words.get(word_index, 0)

    def is_domain_tainted(self, address: int) -> bool:
        """Coarse taint status of the domain containing ``address``."""
        word = self._words.get(self.geometry.word_index(address))
        if not word:
            return False
        return bool(word & (1 << self.geometry.bit_offset(address)))

    def any_domain_tainted(self, address: int, length: int) -> bool:
        """True if any domain overlapped by the byte range is tainted.

        Wrap-aware: a range crossing the top of the 32-bit space checks
        the wrapped-around domains too.  Ranges inside one domain (the
        common case: every machine access is at most 4 bytes) take an
        inline path of one dict probe plus a bit test.
        """
        words = self._words
        if not words:
            return False
        address &= _MASK32
        shift = self._domain_shift
        first = address >> shift
        if length <= 1 or (address + length - 1) >> shift == first:
            word = words.get(first >> _WORD_SHIFT, 0)
            return bool(word >> (first & (DOMAINS_PER_WORD - 1)) & 1)
        for base in self.geometry.domain_bases_in_range(address, max(length, 1)):
            if self.is_domain_tainted(base):
                return True
        return False

    def tainted_domain_count(self) -> int:
        """Number of domains currently marked tainted."""
        return sum(bin(word).count("1") for word in self._words.values())

    def tainted_words(self) -> Set[int]:
        """Indices of CTT words with at least one tainted domain."""
        return set(self._words)

    def iter_tainted_domains(self) -> Iterator[int]:
        """Yield the global index of every tainted domain (ascending)."""
        for word_index in sorted(self._words):
            word = self._words[word_index]
            for bit in range(DOMAINS_PER_WORD):
                if word & (1 << bit):
                    yield word_index * DOMAINS_PER_WORD + bit

    # ------------------------------------------------------------ mutation

    def set_domain(self, address: int) -> bool:
        """Mark the domain of ``address`` tainted; True if it changed."""
        word_index = self.geometry.word_index(address)
        bit = 1 << self.geometry.bit_offset(address)
        word = self._words.get(word_index, 0)
        if word & bit:
            return False
        self._words[word_index] = word | bit
        return True

    def clear_domain(self, address: int) -> bool:
        """Mark the domain of ``address`` clean; True if it changed."""
        word_index = self.geometry.word_index(address)
        bit = 1 << self.geometry.bit_offset(address)
        word = self._words.get(word_index, 0)
        if not word & bit:
            return False
        word &= ~bit
        if word:
            self._words[word_index] = word
        else:
            del self._words[word_index]
        return True

    def set_word(self, word_index: int, value: int) -> None:
        """Replace an entire CTT word (used by bulk loads in tests)."""
        value &= (1 << DOMAINS_PER_WORD) - 1
        if value:
            self._words[word_index] = value
        else:
            self._words.pop(word_index, None)

    def clear_all(self) -> None:
        """Reset the table to the all-clean state."""
        self._words.clear()

    # ----------------------------------------------------------- coherence

    def page_word_or(self, page_number: int) -> int:
        """OR of all CTT words covering ``page_number``.

        Non-zero means the page contains at least one tainted domain —
        exactly the condition the TLB taint bits summarise.
        """
        words_per_page = self.geometry.page_domains
        first_word = page_number * words_per_page
        combined = 0
        for offset in range(words_per_page):
            combined |= self._words.get(first_word + offset, 0)
        return combined

    def page_taint_bits(self, page_number: int) -> int:
        """Per-page bitmask: bit *k* set if page-level domain *k* is tainted."""
        words_per_page = self.geometry.page_domains
        first_word = page_number * words_per_page
        bits = 0
        for offset in range(words_per_page):
            if self._words.get(first_word + offset, 0):
                bits |= 1 << offset
        return bits
