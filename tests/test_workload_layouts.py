"""Array-native taint layouts against their per-extent oracles.

Layouts are drawn a page at a time, stored as one (N, 2) int64 array
and installed into the shadow and the CTT in bulk.  The per-extent
loops in ``tests/kernel_oracles.py`` are the specification: the drawn
extents, the epoch streams, the filled shadow pages and the loaded CTT
words must equal theirs exactly, including on the inputs the generator
never produces (unsorted, overlapping, zero-length, cross-page and
2^32-wrapping extents, pre-tainted pages, tag 0).
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.spatial import false_positive_multiplier
from repro.core.latch import LatchConfig, LatchModule
from repro.dift.tags import ShadowMemory
from repro.hlatch.system import HLatchSystem
from repro.dift import tags
from repro.kernels import shadow_domain_ids
from repro.kernels.classify import unique_sorted
from repro.workloads import all_profiles, make_generator
from repro.workloads.trace import PAGE_SIZE, TaintLayout

from tests import kernel_oracles

PROFILES = [profile.name for profile in all_profiles()]
SEEDS = range(5)
TOP = 1 << 32


def _synthesiser(name, seed):
    """The generator that draws a workload's layout (dynamic engines
    share their anchor engine's)."""
    generator = make_generator(name, seed=seed)
    return getattr(generator, "_anchor", generator)


@pytest.mark.parametrize("name", PROFILES)
def test_layout_equals_per_extent_oracle(name):
    for seed in SEEDS:
        generator = _synthesiser(name, seed)
        layout = generator._build_layout()
        oracle = kernel_oracles.build_layout(generator)
        assert layout.extents.dtype == np.int64
        assert layout.extents.shape == oracle.extents.shape
        assert np.array_equal(layout.extents, oracle.extents), (name, seed)
        assert layout.accessed_pages == oracle.accessed_pages


@pytest.mark.parametrize("name", PROFILES)
def test_epoch_streams_equal_oracle(name, monkeypatch):
    scales = (200_000, 5_000_000)
    product = [
        make_generator(name, seed=seed).epoch_stream(scale)
        for seed in SEEDS for scale in scales
    ]
    monkeypatch.setattr(
        "repro.workloads.generator.WorkloadGenerator._clustered_stream",
        kernel_oracles.clustered_stream,
    )
    oracle = [
        make_generator(name, seed=seed).epoch_stream(scale)
        for seed in SEEDS for scale in scales
    ]
    for ours, theirs in zip(product, oracle):
        assert np.array_equal(ours.lengths, theirs.lengths)
        assert np.array_equal(ours.tainted_counts, theirs.tainted_counts)


def test_layout_constructor_accepts_pairs():
    layout = TaintLayout(extents=[(8192, 4), (100, 3), (100, 2)])
    assert layout.extents.tolist() == [[100, 2], [100, 3], [8192, 4]]
    assert layout.tainted_byte_count() == 9
    assert TaintLayout().extents.shape == (0, 2)
    assert layout.bytes_tainted(np.array([99, 100, 102, 103, 8195])).tolist() == [
        False, True, True, False, True,
    ]


# ------------------------------------------------------------ bulk install

#: Starts near the interesting edges: page 0, page boundaries, the top
#: of the 32-bit space (ranges that wrap) and unmasked starts above it.
_ANCHORS = (0, PAGE_SIZE - 3, 3 * PAGE_SIZE, TOP - PAGE_SIZE - 5, TOP - 7, TOP + 40)

starts = st.builds(
    lambda anchor, delta: anchor + delta,
    st.sampled_from(_ANCHORS),
    st.integers(0, 2 * PAGE_SIZE),
)
extent_lists = st.lists(
    st.tuples(starts, st.integers(0, 3 * PAGE_SIZE)), max_size=10
)


def _shadow_state(shadow):
    return (
        {number: bytes(page) for number, page in shadow._pages.items()},
        shadow.tainted_byte_count,
    )


@settings(max_examples=150, deadline=None)
@given(
    extents=extent_lists,
    pretainted=extent_lists,
    pre_tag=st.integers(1, 255),
    tag=st.sampled_from([0, 1, 7, 255, 256 + 3]),
    chunk=st.sampled_from([1, 3, tags._FILL_CHUNK]),
)
def test_fill_extents_equals_set_range_loop(extents, pretainted, pre_tag, tag, chunk):
    bulk, loop = ShadowMemory(), ShadowMemory()
    for shadow in (bulk, loop):
        kernel_oracles.fill_extents(shadow, pretainted, pre_tag)
    # Small chunks make one page collect pieces from several chunks.
    with mock.patch.object(tags, "_FILL_CHUNK", chunk):
        bulk.fill_extents(extents, tag)
    kernel_oracles.fill_extents(loop, extents, tag)
    assert _shadow_state(bulk) == _shadow_state(loop)
    assert bulk.tainted_pages() == loop.tainted_pages()


@settings(max_examples=150, deadline=None)
@given(
    extents=extent_lists,
    domain_size=st.sampled_from([8, 64, 128, 4096]),
)
def test_extent_loaded_ctt_equals_shadow_loaded(extents, domain_size):
    # A CTT word must fit in a page, so the page grows with the domain.
    config = LatchConfig(
        domain_size=domain_size, page_size=max(PAGE_SIZE, 32 * domain_size)
    )
    bulk, scanned = LatchModule(config), LatchModule(config)
    bulk.bulk_load_domains(shadow_domain_ids(extents, domain_size))
    scanned.bulk_load_from_shadow(
        kernel_oracles.to_shadow(TaintLayout(extents=extents))
    )
    assert bulk.ctt._words == scanned.ctt._words
    assert np.array_equal(
        unique_sorted(shadow_domain_ids(extents, domain_size)),
        unique_sorted(kernel_oracles.shadow_domain_ids(extents, domain_size)),
    )


@settings(max_examples=60, deadline=None)
@given(extents=extent_lists)
def test_load_taint_equals_per_extent_install(extents):
    layout = TaintLayout(extents=extents)
    bulk, oracle = HLatchSystem(), HLatchSystem()
    bulk.load_taint(layout)
    kernel_oracles.load_taint(oracle, layout)
    assert _shadow_state(bulk.shadow) == _shadow_state(oracle.shadow)
    assert bulk.latch.ctt._words == oracle.latch.ctt._words
    assert bulk.snapshot().to_dict() == oracle.snapshot().to_dict()


@pytest.mark.parametrize("name", ["gcc", "sphinx", "http-parse"])
def test_to_shadow_equals_oracle_on_generated_layouts(name):
    layout = make_generator(name).layout()
    ours, theirs = layout.to_shadow(), kernel_oracles.to_shadow(layout)
    assert _shadow_state(ours) == _shadow_state(theirs)
    assert ours.tainted_byte_count == layout.tainted_byte_count()


# ----------------------------------------------------------------- dedup


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-(1 << 40), 1 << 40), max_size=50))
def test_unique_sorted_equals_np_unique(values):
    assert np.array_equal(
        unique_sorted(np.array(values, dtype=np.int64)),
        np.unique(np.array(values, dtype=np.int64)),
    )


def test_elements_mode_unchanged_on_generated_trace():
    trace = make_generator("gcc").access_trace(20_000)
    addresses = np.unique(trace.addresses)
    precise = int(trace.layout.bytes_tainted(addresses).sum())
    for domain_size in (4, 64, 4096):
        domains = trace.layout.tainted_domains(domain_size)
        coarse = int(np.isin(addresses // domain_size, domains).sum())
        assert false_positive_multiplier(
            trace, domain_size, mode="elements"
        ) == coarse / precise
