"""Zero-length and page-wrapping accesses, memory → LATCH, both paths.

The machine's :class:`~repro.machine.memory.PagedMemory` wraps at the
top of the 32-bit space and accepts zero-length transfers; the coarse
structures must agree on both conventions, and per-access
``check_memory`` and the product replay (``shard_partial`` merged by
``merge_latch_partials``, as one shard or under any shard plan) must
produce identical flags *and* counters for them.
"""

import numpy as np
import pytest

from repro.core.latch import LatchConfig, LatchModule
from repro.dift.tags import ShadowMemory
from repro.kernels.replay import merge_latch_partials, shard_partial
from repro.machine.memory import PagedMemory

_TOP = 0xFFFF_FFFF


def product_coarse_flags(latch, addresses, sizes, cuts=()):
    """Coarse flags of the product replay over the shards ``cuts`` make
    (the whole window as one shard by default)."""
    edges = [0, *cuts, len(addresses)]
    partials = [
        shard_partial(addresses[start:stop], sizes[start:stop], None, latch)
        for start, stop in zip(edges, edges[1:])
    ]
    merge_latch_partials(partials, latch)
    return np.concatenate([partial.coarse for partial in partials])


class TestMemoryEdges:
    def test_zero_length_read_and_write(self):
        memory = PagedMemory()
        assert memory.read_bytes(0x5000, 0) == b""
        memory.write_bytes(0x5000, b"")
        assert memory.resident_pages == 0  # no page materialised

    def test_write_wrapping_address_space(self):
        memory = PagedMemory()
        memory.write_bytes(_TOP - 1, b"wrap")
        assert memory.read_bytes(_TOP - 1, 4) == b"wrap"
        assert memory.read_bytes(0, 2) == b"ap"

    def test_read_wrapping_address_space(self):
        memory = PagedMemory()
        memory.write_bytes(0, b"lo")
        memory.write_bytes(_TOP, b"x")
        assert memory.read_bytes(_TOP, 3) == b"xlo"


class TestLatchEdges:
    @pytest.mark.parametrize("use_tlb", [True, False])
    def test_zero_length_check_probes_one_byte(self, use_tlb):
        # The scalar path floors sizes at one byte: a zero-length access
        # still consults its domain (matching effective_sizes()).
        latch = LatchModule(LatchConfig(use_tlb_bits=use_tlb))
        latch.update_memory_tags(0x1000, b"\x01")
        assert latch.check_memory(0x1000, 0).coarse_tainted
        assert not latch.check_memory(0x9000, 0).coarse_tainted

    def test_zero_length_update_is_a_no_op(self):
        latch = LatchModule()
        shadow = ShadowMemory()
        latch.update_memory_tags(0x1000, b"")
        assert not latch.check_memory(0x1000, 1).coarse_tainted
        latch.check_invariants(shadow)

    @pytest.mark.parametrize("use_tlb", [True, False])
    def test_page_wrapping_check_sees_both_sides(self, use_tlb):
        latch = LatchModule(LatchConfig(use_tlb_bits=use_tlb))
        shadow = ShadowMemory()
        latch.update_memory_tags(0x0, b"\x01")
        shadow.set(0x0, 1)
        assert latch.check_memory(_TOP - 1, 4).coarse_tainted
        latch.check_invariants(shadow)


class TestBackendAgreementOnEdges:
    """Scalar check_memory loop vs the product replay."""

    EDGE_ACCESSES = [
        (0x1000, 0),          # zero length, tainted domain
        (0x9000, 0),          # zero length, cold page
        (_TOP - 1, 4),        # wraps the address space
        (0xFFFF_F800, 0x900), # wraps at page-domain granularity
        (0x0FFE, 4),          # ordinary page straddle
        (0x103E, 4),          # domain straddle
        (_TOP, 1),            # last byte
        (0x0, 1),             # first byte
    ]

    def _loaded_shadow(self):
        shadow = ShadowMemory()
        for address in (0x0, 0x1000, _TOP - 1):
            shadow.set(address, 1)
        return shadow

    @pytest.mark.parametrize("use_tlb", [True, False])
    def test_flags_and_counters_identical(self, use_tlb):
        shadow = self._loaded_shadow()
        config = LatchConfig(ctc_entries=4, tlb_entries=4,
                             use_tlb_bits=use_tlb)

        scalar = LatchModule(config)
        scalar.bulk_load_from_shadow(shadow)
        scalar_flags = [
            scalar.check_memory(address, size).coarse_tainted
            for address, size in self.EDGE_ACCESSES
        ]

        addresses = np.array([a for a, _ in self.EDGE_ACCESSES])
        sizes = np.array([s for _, s in self.EDGE_ACCESSES])
        # One shard (the product's whole-window call), then shard plans
        # cutting between the wrap and straddle accesses.
        for cuts in ((), (3,), (1, 2, 5, 7)):
            vector = LatchModule(config)
            vector.bulk_load_from_shadow(shadow)
            vector_flags = product_coarse_flags(vector, addresses, sizes, cuts)

            assert list(vector_flags) == scalar_flags, cuts
            assert vector.stats == scalar.stats, cuts
            assert vector.ctc.stats == scalar.ctc.stats, cuts
            if use_tlb:
                tlb, reference = vector.tlb_bits, scalar.tlb_bits
                assert tlb.tlb.stats == reference.tlb.stats, cuts
                assert tlb.checks == reference.checks, cuts
                assert tlb.hot_checks == reference.hot_checks, cuts

    @pytest.mark.parametrize("use_tlb", [True, False])
    def test_every_tainted_byte_flagged_on_both_backends(self, use_tlb):
        shadow = self._loaded_shadow()
        config = LatchConfig(use_tlb_bits=use_tlb)
        for backend in ("scalar", "vector"):
            latch = LatchModule(config)
            latch.bulk_load_from_shadow(shadow)
            for byte in shadow.iter_tainted_bytes():
                if backend == "scalar":
                    flag = latch.check_memory(byte, 1).coarse_tainted
                else:
                    flag = bool(product_coarse_flags(
                        latch, np.array([byte]), np.array([1])
                    )[0])
                assert flag, f"{backend} missed byte {byte:#x}"
