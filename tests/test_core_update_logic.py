"""Figure 12 update-chain tests, including behavioural equivalence."""

import pytest
from hypothesis import given, strategies as st

from repro.core.ctc import CoarseTaintCache
from repro.core.ctt import CoarseTaintTable
from repro.core.domains import DomainGeometry
from repro.core.update_logic import (
    UpdateChain,
    decode_one_hot,
    masked_or_reduce,
)
from repro.dift.tags import ShadowMemory


class TestPrimitives:
    def test_decoder_one_hot(self):
        lines = decode_one_hot(3, 8)
        assert lines == [False, False, False, True, False, False, False, False]

    def test_decoder_range_checked(self):
        with pytest.raises(ValueError):
            decode_one_hot(8, 8)

    def test_masked_or_excludes_selected(self):
        select = [True, False, False]
        assert not masked_or_reduce([True, False, False], select)
        assert masked_or_reduce([True, True, False], select)


class TestChainSemantics:
    def setup_method(self):
        self.chain = UpdateChain(width=16)

    def test_setting_taint_sets_coarse_bit(self):
        result = self.chain.update([False] * 16, offset=5, new_tag_tainted=True)
        assert result.coarse_bit
        assert result.new_tags[5]
        assert result.page_bit

    def test_clearing_last_tag_clears_coarse_bit(self):
        tags = [False] * 16
        tags[5] = True
        result = self.chain.update(tags, offset=5, new_tag_tainted=False)
        assert not result.coarse_bit
        assert not result.page_bit

    def test_clearing_one_of_many_keeps_coarse_bit(self):
        tags = [False] * 16
        tags[5] = True
        tags[9] = True
        result = self.chain.update(tags, offset=5, new_tag_tainted=False)
        # The updated tag clears, but another tag keeps the domain hot.
        assert result.coarse_bit
        assert not result.new_tags[5]
        assert result.new_tags[9]

    def test_retagging_a_tainted_slot_with_taint(self):
        tags = [False] * 16
        tags[5] = True
        result = self.chain.update(tags, offset=5, new_tag_tainted=True)
        assert result.coarse_bit

    def test_sibling_units_hold_page_bit(self):
        tags = [False] * 16
        tags[5] = True
        result = self.chain.update(
            tags, offset=5, new_tag_tainted=False, sibling_units_or=True
        )
        assert not result.coarse_bit
        assert result.page_bit  # another domain under the page is hot

    def test_width_validation(self):
        with pytest.raises(ValueError):
            self.chain.update([False] * 8, offset=0, new_tag_tainted=True)
        with pytest.raises(ValueError):
            UpdateChain(width=0)


class TestBehaviouralEquivalence:
    """The gate network computes exactly what the CTC update path does.

    One 8-byte domain with byte-granularity tags: the chain's inputs are
    the domain's 8 precise tags; the behavioural path is
    ``CoarseTaintCache.update_taint`` with the immediate (Figure 12)
    clear policy over a shadow memory holding the same tags.
    """

    @given(
        st.integers(min_value=0, max_value=255),  # pre-update tag byte mask
        st.integers(min_value=0, max_value=7),    # which byte is written
        st.booleans(),                            # new tag value
    )
    def test_matches_ctc_immediate_update(self, tag_mask, offset, taint):
        geometry = DomainGeometry(domain_size=8)
        ctt = CoarseTaintTable(geometry)
        ctc = CoarseTaintCache(geometry, ctt, entries=4)
        shadow = ShadowMemory()

        base = 0x1000
        tags = [bool(tag_mask & (1 << index)) for index in range(8)]
        for index, tainted in enumerate(tags):
            if tainted:
                shadow.set(base + index, 1)
        if any(tags):
            ctt.set_domain(base)

        # Behavioural update.
        shadow.set(base + offset, 1 if taint else 0)
        ctc.update_taint(
            base + offset,
            tainted=taint,
            defer_clear=False,
            clean_oracle=shadow.region_clean,
        )

        # Gate-level evaluation.
        chain = UpdateChain(width=8)
        expected = chain.update(tags, offset=offset, new_tag_tainted=taint)

        assert ctt.is_domain_tainted(base) == expected.coarse_bit
        assert shadow.any_tainted(base, 8) == any(expected.new_tags)
        # Chained page level: this is the page's only hot word, so the
        # page summary equals the word's occupancy.
        page_hot = ctt.page_word_or(base // geometry.page_size) != 0
        assert page_hot == expected.page_bit
