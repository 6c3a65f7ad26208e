"""Shadow memory and taint register file tests."""

import pytest
from hypothesis import given, strategies as st

from repro.dift.tags import ShadowMemory, TaintRegisterFile


class TestShadowMemory:
    def test_default_clean(self):
        shadow = ShadowMemory()
        assert shadow.get(0x1234) == 0
        assert not shadow.any_tainted(0, 1 << 16)
        assert shadow.tainted_byte_count == 0

    def test_set_and_get(self):
        shadow = ShadowMemory()
        shadow.set(0x100, 7)
        assert shadow.get(0x100) == 7
        assert shadow.get(0x101) == 0

    def test_range_operations(self):
        shadow = ShadowMemory()
        shadow.set_range(0x10, 8, 1)
        assert shadow.all_tainted(0x10, 8)
        assert shadow.any_tainted(0x17, 2)
        assert not shadow.all_tainted(0x10, 9)
        shadow.clear_range(0x10, 4)
        assert not shadow.any_tainted(0x10, 4)
        assert shadow.any_tainted(0x14, 4)

    def test_byte_count_tracks_set_and_clear(self):
        shadow = ShadowMemory()
        shadow.set_range(0, 10, 1)
        assert shadow.tainted_byte_count == 10
        shadow.set(0, 2)  # retag, not a new byte
        assert shadow.tainted_byte_count == 10
        shadow.clear_range(0, 5)
        assert shadow.tainted_byte_count == 5

    def test_clearing_clean_byte_is_noop(self):
        shadow = ShadowMemory()
        shadow.set(0x9999, 0)
        assert shadow.tainted_byte_count == 0

    def test_set_tags_vector(self):
        shadow = ShadowMemory()
        shadow.set_tags(0x20, b"\x01\x00\x02")
        assert shadow.get_range(0x20, 3) == b"\x01\x00\x02"

    def test_tainted_pages(self):
        shadow = ShadowMemory()
        shadow.set(0x1000, 1)
        shadow.set(0x5005, 1)
        assert shadow.tainted_pages() == {1, 5}
        shadow.clear_range(0x1000, 1)
        assert shadow.tainted_pages() == {5}

    def test_iter_tainted_bytes_sorted(self):
        shadow = ShadowMemory()
        shadow.set(0x5000, 1)
        shadow.set(0x1003, 1)
        shadow.set(0x1001, 1)
        assert list(shadow.iter_tainted_bytes()) == [0x1001, 0x1003, 0x5000]

    def test_cross_page_range(self):
        shadow = ShadowMemory()
        shadow.set_range(0xFFE, 4, 1)  # spans pages 0 and 1
        assert shadow.any_tainted(0x1000, 1)
        assert shadow.any_tainted(0xFFE, 1)

    def test_clear_all(self):
        shadow = ShadowMemory()
        shadow.set_range(0, 100, 1)
        shadow.clear_all()
        assert shadow.tainted_byte_count == 0
        assert not shadow.any_tainted(0, 100)

    def test_iter_tainted_domains(self):
        shadow = ShadowMemory()
        shadow.set(0x100, 1)       # domain 0x100
        shadow.set(0x13F, 1)       # same 64 B domain
        shadow.set(0x2005, 1)      # domain 0x2000
        assert list(shadow.iter_tainted_domains(64)) == [0x100, 0x2000]

    def test_iter_tainted_domains_validates_size(self):
        with pytest.raises(ValueError):
            list(ShadowMemory().iter_tainted_domains(48))

    def test_bulk_set_range_counts(self):
        shadow = ShadowMemory()
        shadow.set_range(0xFF0, 0x40, 1)  # crosses a page boundary
        assert shadow.tainted_byte_count == 0x40
        shadow.set_range(0xFF0, 0x10, 2)  # retag, no count change
        assert shadow.tainted_byte_count == 0x40
        shadow.set_range(0x1000, 0x10, 0)  # clear part on the second page
        assert shadow.tainted_byte_count == 0x30

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=0x1FFF),
                st.integers(min_value=1, max_value=64),
                st.integers(min_value=0, max_value=2),
            ),
            max_size=60,
        )
    )
    def test_set_range_matches_per_byte_model(self, operations):
        shadow = ShadowMemory()
        model = {}
        for address, length, tag in operations:
            shadow.set_range(address, length, tag)
            for offset in range(length):
                if tag:
                    model[address + offset] = tag
                else:
                    model.pop(address + offset, None)
        assert shadow.tainted_byte_count == len(model)
        for address, tag in model.items():
            assert shadow.get(address) == tag

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=0x3FFF),
                st.integers(min_value=0, max_value=3),
            ),
            max_size=200,
        )
    )
    def test_matches_dict_model(self, operations):
        """Shadow memory behaves exactly like a dict of byte → tag."""
        shadow = ShadowMemory()
        model = {}
        for address, tag in operations:
            shadow.set(address, tag)
            if tag:
                model[address] = tag
            else:
                model.pop(address, None)
        assert shadow.tainted_byte_count == len(model)
        for address, tag in model.items():
            assert shadow.get(address) == tag


class TestTaintRegisterFile:
    def test_default_clean(self):
        trf = TaintRegisterFile()
        assert not any(trf.is_tainted(r) for r in range(16))

    def test_taint_and_clear(self):
        trf = TaintRegisterFile()
        trf.taint(5)
        assert trf.is_tainted(5)
        assert trf.get(5) == b"\x01\x01\x01\x01"
        trf.clear(5)
        assert not trf.is_tainted(5)

    def test_r0_immune(self):
        trf = TaintRegisterFile()
        trf.taint(0)
        assert not trf.is_tainted(0)
        trf.set(0, b"\x01\x01\x01\x01")
        assert not trf.is_tainted(0)

    def test_partial_byte_taint(self):
        trf = TaintRegisterFile()
        trf.set(3, b"\x01\x00\x00\x00")
        assert trf.is_tainted(3)
        assert trf.get(3) == b"\x01\x00\x00\x00"

    def test_set_pads_short_tags(self):
        trf = TaintRegisterFile()
        trf.set(2, b"\x01")
        assert trf.get(2) == b"\x01\x00\x00\x00"

    def test_any_tainted(self):
        trf = TaintRegisterFile()
        trf.taint(7)
        assert trf.any_tainted((1, 7))
        assert not trf.any_tainted((1, 2))
        assert not trf.any_tainted(())

    def test_union(self):
        trf = TaintRegisterFile()
        trf.set(1, b"\x01\x00\x00\x00")
        trf.set(2, b"\x00\x02\x00\x00")
        assert trf.union(1, 2) == b"\x01\x02\x00\x00"

    def test_byte_mask_roundtrip(self):
        trf = TaintRegisterFile()
        trf.set(1, b"\x01\x00\x01\x00")
        trf.taint(9)
        mask = trf.mask()
        other = TaintRegisterFile()
        other.load_mask(mask)
        assert other.is_tainted(1) and other.is_tainted(9)
        assert other.get(1)[0] and not other.get(1)[1]

    def test_register_mask_roundtrip(self):
        trf = TaintRegisterFile()
        trf.taint(4)
        trf.taint(11)
        mask = trf.register_mask()
        assert mask == (1 << 4) | (1 << 11)
        other = TaintRegisterFile()
        other.taint(2)  # should be cleared by the load
        other.load_register_mask(mask)
        assert other.tainted_registers() == (4, 11)

    def test_load_register_mask_ignores_r0_bit(self):
        trf = TaintRegisterFile()
        trf.load_register_mask(1)  # bit 0 = r0
        assert not trf.is_tainted(0)

    def test_clear_all(self):
        trf = TaintRegisterFile()
        for register in range(16):
            trf.taint(register)
        trf.clear_all()
        assert trf.tainted_registers() == ()

    @given(st.lists(st.tuples(
        st.sampled_from(["set", "taint", "clear", "load_mask",
                         "load_register_mask", "clear_all"]),
        st.integers(min_value=0, max_value=15),
        st.binary(max_size=6),
        st.integers(min_value=0, max_value=(1 << 64) - 1),
    ), max_size=40))
    def test_register_view_tracks_every_write(self, operations):
        # register_mask / is_tainted / any_tainted read a bitmask kept
        # up to date on each write; it must match the tag bytes.
        trf = TaintRegisterFile()
        for name, register, tags, mask in operations:
            if name == "set":
                trf.set(register, tags)
            elif name == "taint":
                trf.taint(register, tag=mask & 1)
            elif name == "clear":
                trf.clear(register)
            elif name == "load_mask":
                trf.load_mask(mask)
            elif name == "load_register_mask":
                trf.load_register_mask(mask & 0xFFFF)
            else:
                trf.clear_all()
            live = [r for r in range(16) if any(trf.get(r))]
            assert trf.register_mask() == sum(1 << r for r in live)
            assert [r for r in range(16) if trf.is_tainted(r)] == live
            assert trf.tainted_registers() == tuple(live)
            assert trf.any_tainted(range(16)) == bool(live)
