"""Coarse Taint Table tests."""

import random

import pytest

from repro.core.ctt import CoarseTaintTable
from repro.core.domains import DomainGeometry


def make_table(domain_size=64):
    return CoarseTaintTable(DomainGeometry(domain_size=domain_size))


class TestBits:
    def test_initially_clean(self):
        table = make_table()
        assert not table.is_domain_tainted(0x1234)
        assert table.tainted_domain_count() == 0

    def test_set_and_clear(self):
        table = make_table()
        assert table.set_domain(0x100)
        assert table.is_domain_tainted(0x100)
        assert table.is_domain_tainted(0x13F)  # same 64 B domain
        assert not table.is_domain_tainted(0x140)
        assert table.clear_domain(0x100)
        assert not table.is_domain_tainted(0x100)

    def test_idempotent_returns(self):
        table = make_table()
        assert table.set_domain(0)
        assert not table.set_domain(0)
        assert table.clear_domain(0)
        assert not table.clear_domain(0)

    def test_zero_words_elided(self):
        table = make_table()
        table.set_domain(0x100)
        table.clear_domain(0x100)
        assert table.tainted_words() == set()

    def test_any_domain_tainted_over_range(self):
        table = make_table()
        table.set_domain(0x80)
        assert table.any_domain_tainted(0x40, 0x100)
        assert not table.any_domain_tainted(0x100, 0x40)
        assert table.any_domain_tainted(0x7F, 2)  # straddles into domain

    def test_word_value(self):
        table = make_table()
        table.set_domain(0)       # bit 0 of word 0
        table.set_domain(64 * 5)  # bit 5
        assert table.word(0) == 0b100001
        assert table.word(1) == 0

    def test_set_word(self):
        table = make_table()
        table.set_word(2, 0xF)
        assert table.is_domain_tainted(2 * 2048)
        table.set_word(2, 0)
        assert not table.is_domain_tainted(2 * 2048)

    def test_iter_tainted_domains(self):
        table = make_table()
        table.set_domain(64 * 40)
        table.set_domain(0)
        assert list(table.iter_tainted_domains()) == [0, 40]

    def test_clear_all(self):
        table = make_table()
        table.set_domain(0)
        table.clear_all()
        assert table.tainted_domain_count() == 0


def _walk(table, address, length):
    """The generic wrap-aware walk ``any_domain_tainted`` short-cuts."""
    return any(
        table.is_domain_tainted(base)
        for base in table.geometry.domain_bases_in_range(
            address, max(length, 1)
        )
    )


class TestAnyDomainTaintedFastPath:
    @pytest.mark.parametrize("domain_size", [1, 8, 64, 128])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_generic_walk(self, domain_size, seed):
        rng = random.Random(seed)
        table = make_table(domain_size)
        span = table.geometry.word_span
        top = 1 << 32
        for _ in range(400):
            address = rng.choice((
                rng.randrange(top),
                rng.randrange(4 * span),
                top - rng.randrange(1, 2 * span),
                rng.randrange(top, 2 * top),       # unmasked alias
                rng.randrange(64) * domain_size - rng.randrange(2),
            ))
            length = rng.choice((
                rng.randrange(-3, 1), 1, 2, 4, domain_size,
                domain_size + 1, rng.randrange(3 * span),
            ))
            table.clear_all()
            if rng.random() < 0.8:
                for word in {
                    table.geometry.word_index(address),
                    table.geometry.word_index(address + max(length, 1) - 1),
                    0,
                    table.geometry.total_words - 1,
                }:
                    bits = rng.getrandbits(32) & rng.getrandbits(32)
                    table.set_word(word, bits)
            assert table.any_domain_tainted(address, length) == _walk(
                table, address, length
            ), (hex(address), length)

    def test_wrapping_range_sees_low_domains(self):
        table = make_table()
        table.set_domain(0)
        assert table.any_domain_tainted(0xFFFFFFFE, 4)
        assert not table.any_domain_tainted(0xFFFFFFFE, 2)

    def test_nonpositive_length_checks_one_domain(self):
        table = make_table()
        table.set_domain(0x100)
        assert table.any_domain_tainted(0x100, 0)
        assert table.any_domain_tainted(0x13F, -4)
        assert not table.any_domain_tainted(0xFF, 0)


class TestPageSummaries:
    def test_page_word_or(self):
        table = make_table()
        table.set_domain(0x0800)  # second half of page 0
        assert table.page_word_or(0) != 0
        assert table.page_word_or(1) == 0

    def test_page_taint_bits_per_word(self):
        table = make_table()
        table.set_domain(0x0000)  # page 0, page-domain 0
        table.set_domain(0x1800)  # page 1, page-domain 1
        assert table.page_taint_bits(0) == 0b01
        assert table.page_taint_bits(1) == 0b10
        assert table.page_taint_bits(2) == 0
