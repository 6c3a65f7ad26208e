"""Differential conformance harness for :mod:`repro.kernels`.

The per-access loops in ``tests/kernel_oracles.py`` are the executable
specification; the batch kernels are required to reproduce their
published counters *byte for byte* — every equivalence assertion here
compares serialised :class:`~repro.obs.StatsSnapshot` JSON (or exact
numpy arrays), never tolerances.  Hypothesis drives adversarial windows at the shapes the
kernels special-case: empty windows, single-access windows, operands
straddling domain/page/line boundaries, and all-tainted / taint-free
taint layouts, across small and paper-scale LATCH geometries.

The suite-level test at the bottom replays the Table 1–4/6/7 runner
suites at tiny scale on the kernels and again with the oracles swapped
in, and asserts identical job snapshots — the acceptance criterion the
CI tier enforces.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.temporal import epoch_duration_profile
from repro.core.latch import LatchConfig
from repro.hlatch.baseline import run_baseline
from repro.hlatch.system import HLatchSystem, run_hlatch
from repro.hlatch.taint_cache import (
    CONVENTIONAL_TAINT_CACHE,
    HLATCH_TAINT_CACHE,
)
from repro.kernels import epoch_stream_from_trace, merge_partials, shard_partial
from repro.runner.specs import suite_jobs
from repro.runner.worker import execute_job
from repro.slatch.simulator import measure_hw_rates
from repro.trace.shard import explicit_plan
from repro.workloads.suites import EXPERIMENT_SUITES
from repro.workloads.trace import AccessTrace, EpochStream, TaintLayout

from tests import kernel_oracles

#: Address space exercised by the strategies: four pages.
SPAN = 4 * 4096

#: Addresses the kernels treat specially — the last/first byte of a
#: domain (8/64/128), a CTT word span (256/2048/4096), and a page.
BOUNDARIES = (
    0, 7, 8, 63, 64, 127, 128, 255, 256, 2047, 2048,
    4095, 4096, 8191, 8192, SPAN - 8,
)

# domain_size 128 is the largest DomainGeometry admits at 4 KiB pages
# (one CTT word then spans exactly one page — the degenerate TLB case).
LATCH_CONFIGS = st.builds(
    LatchConfig,
    domain_size=st.sampled_from([8, 64, 128]),
    ctc_entries=st.sampled_from([1, 2, 16]),
    tlb_entries=st.sampled_from([1, 2, 128]),
    use_tlb_bits=st.booleans(),
)

TCACHE_CONFIGS = st.sampled_from([HLATCH_TAINT_CACHE, CONVENTIONAL_TAINT_CACHE])


def _merge_extents(extents):
    """Canonicalise to the sorted, non-overlapping layout invariant."""
    merged = []
    for start, length in sorted(extents):
        if merged and start <= merged[-1][0] + merged[-1][1]:
            prev_start, prev_length = merged[-1]
            merged[-1] = (
                prev_start, max(prev_length, start + length - prev_start)
            )
        else:
            merged.append((start, length))
    return [extent for extent in merged if extent[1] > 0]


#: Taint layouts including both extremes the issue calls out.
EXTENTS = st.one_of(
    st.just([]),                # taint-free extreme
    st.just([(0, SPAN)]),       # all-tainted extreme
    st.lists(
        st.tuples(st.integers(0, SPAN - 1), st.integers(1, 512)),
        max_size=6,
    ).map(_merge_extents),
)


@st.composite
def windows(draw):
    """An adversarial :class:`AccessTrace` window."""
    n = draw(st.integers(min_value=0, max_value=40))
    address = st.one_of(
        st.sampled_from(BOUNDARIES), st.integers(0, SPAN - 8)
    )
    addresses = np.array(
        draw(st.lists(address, min_size=n, max_size=n)), dtype=np.int64
    )
    layout = TaintLayout(extents=list(draw(EXTENTS)))
    return AccessTrace(
        name="hyp",
        addresses=addresses,
        # size 0 exercises the max(size, 1) floor; 8 straddles domains.
        sizes=np.array(
            draw(st.lists(st.sampled_from([0, 1, 2, 4, 8]),
                          min_size=n, max_size=n)),
            dtype=np.uint8,
        ),
        is_write=np.array(
            draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool
        ),
        tainted=layout.bytes_tainted(addresses),
        gap_before=np.array(
            draw(st.lists(st.integers(0, 5), min_size=n, max_size=n)),
            dtype=np.int64,
        ),
        active_epoch=np.array(
            draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool
        ),
        layout=layout,
    )


def _hlatch_snapshot(trace, latch_config, tcache_config, plan=None):
    """Replay a window through a fresh stack's kernels, shard by shard
    (the whole window as one shard by default); freeze counters."""
    system = HLatchSystem(latch_config, tcache_config)
    system.load_taint(trace.layout)
    if plan is None:
        plan = [(0, trace.access_count)]
    partials = [
        shard_partial(
            trace.addresses[start:stop], trace.sizes[start:stop],
            trace.is_write[start:stop], system.latch, tcache_config,
        )
        for start, stop in plan
    ]
    merge_partials(partials, system)
    return system.snapshot()


def assert_window_equivalent(
    trace,
    latch_config=None,
    tcache_config=HLATCH_TAINT_CACHE,
    cuts=(),
):
    """The core check: oracle and kernel snapshots are byte-identical,
    for the one-shard product and for the shard plan ``cuts`` makes."""
    latch_config = latch_config or LatchConfig()
    oracle = kernel_oracles.hlatch_snapshot(trace, latch_config, tcache_config)
    kernel = _hlatch_snapshot(trace, latch_config, tcache_config)
    assert oracle.to_json() == kernel.to_json()
    plan = explicit_plan(trace.access_count, list(cuts))
    sharded = _hlatch_snapshot(trace, latch_config, tcache_config, plan)
    assert oracle.to_json() == sharded.to_json(), f"plan={plan}"


def _trace(addresses, sizes=None, writes=None, extents=()):
    n = len(addresses)
    layout = TaintLayout(extents=list(extents))
    addresses = np.array(addresses, dtype=np.int64)
    return AccessTrace(
        name="edge",
        addresses=addresses,
        sizes=np.array(
            sizes if sizes is not None else [4] * n, dtype=np.uint8
        ),
        is_write=np.array(
            writes if writes is not None else [False] * n, dtype=bool
        ),
        tainted=layout.bytes_tainted(addresses),
        gap_before=np.zeros(n, dtype=np.int64),
        active_epoch=np.zeros(n, dtype=bool),
        layout=layout,
    )


class TestHLatchEquivalence:
    """Kernel replay of the full H-LATCH stack matches the oracle loop."""

    @settings(max_examples=60, deadline=None)
    @given(trace=windows(), latch_config=LATCH_CONFIGS,
           tcache_config=TCACHE_CONFIGS,
           cuts=st.lists(st.integers(0, 40), max_size=4))
    def test_snapshots_byte_identical(
        self, trace, latch_config, tcache_config, cuts
    ):
        assert_window_equivalent(trace, latch_config, tcache_config, cuts)

    def test_run_hlatch_backend_switch(self):
        """``run_hlatch`` equals the per-access loop that used to sit
        behind the retired backend switch."""
        trace = _trace(
            [0, 64, 4095, 8192, 64, 0], sizes=[4, 8, 4, 1, 2, 0],
            extents=[(32, 64), (4090, 16)],
        )
        assert run_hlatch(trace) == kernel_oracles.run_hlatch(trace)


class TestEdgeWindows:
    """The window shapes the kernels special-case, pinned explicitly."""

    def test_empty_window(self):
        assert_window_equivalent(_trace([], extents=[(0, 128)]))

    def test_single_access(self):
        assert_window_equivalent(_trace([100], sizes=[4], extents=[(96, 8)]))

    def test_single_access_no_taint(self):
        assert_window_equivalent(_trace([100], sizes=[4]))

    def test_domain_straddling_operands(self):
        # Last byte of a domain, a page, and a tcache line; each operand
        # spills into the next structure.
        trace = _trace(
            [63, 4095, 15, 62, 4094], sizes=[2, 4, 2, 8, 8],
            extents=[(64, 1), (4096, 1)],
        )
        assert_window_equivalent(trace)

    def test_all_tainted_layout(self):
        trace = _trace(
            [0, 64, 128, 4096, 8192, 64], extents=[(0, SPAN)],
        )
        assert_window_equivalent(trace)

    def test_taint_free_layout(self):
        trace = _trace([0, 64, 128, 4096, 8192, 64])
        assert_window_equivalent(trace)

    def test_tlb_disabled(self):
        trace = _trace([0, 64, 4095], extents=[(0, 256)])
        assert_window_equivalent(
            trace, LatchConfig(use_tlb_bits=False)
        )

    def test_tiny_structures_evict(self):
        # One-entry CTC and TLB: every structure thrashes.
        trace = _trace(
            [0, 8192, 0, 8192, 4096, 0], extents=[(0, 16), (8192, 16)],
        )
        assert_window_equivalent(
            trace, LatchConfig(ctc_entries=1, tlb_entries=1)
        )


class TestConsumerEquivalence:
    """Every kernel-backed consumer API agrees with its oracle."""

    @settings(max_examples=40, deadline=None)
    @given(trace=windows())
    def test_baseline_reports_equal(self, trace):
        assert run_baseline(trace) == kernel_oracles.run_baseline(trace)

    @settings(max_examples=40, deadline=None)
    @given(trace=windows(), latch_config=LATCH_CONFIGS)
    def test_hw_rates_equal(self, trace, latch_config):
        oracle = kernel_oracles.measure_hw_rates(trace, latch_config)
        assert measure_hw_rates(trace, latch_config) == oracle

    @settings(max_examples=40, deadline=None)
    @given(trace=windows())
    def test_epoch_stream_from_trace_equal(self, trace):
        oracle = kernel_oracles.epoch_stream_from_trace(trace)
        kernel = epoch_stream_from_trace(trace)
        assert np.array_equal(oracle.lengths, kernel.lengths)
        assert np.array_equal(oracle.tainted_counts, kernel.tainted_counts)

    @settings(max_examples=40, deadline=None)
    @given(
        epochs=st.lists(
            st.tuples(st.integers(1, 2_000_000), st.booleans()),
            max_size=30,
        )
    )
    def test_epoch_profile_floats_bit_identical(self, epochs):
        stream = EpochStream(
            name="hyp",
            lengths=np.array([l for l, _ in epochs], dtype=np.int64),
            tainted_counts=np.array(
                [l if t else 0 for l, t in epochs], dtype=np.int64
            ),
        )
        oracle = kernel_oracles.epoch_duration_profile(stream)
        kernel = epoch_duration_profile(stream)
        # json round-trip compares the exact float bit patterns.
        assert json.dumps(oracle) == json.dumps(kernel)

    @settings(max_examples=40, deadline=None)
    @given(
        extents=st.lists(
            # length 0 is legal in a layout and has its own semantics.
            st.tuples(st.integers(0, SPAN - 1), st.integers(0, 512)),
            max_size=8,
        ),
        domain_size=st.sampled_from([8, 64, 256, 4096]),
    )
    def test_layout_domains_and_pages_equal(self, extents, domain_size):
        layout = TaintLayout(extents=extents)
        assert np.array_equal(
            kernel_oracles.domains_from_extents(extents, domain_size),
            layout.tainted_domains(domain_size),
        )
        assert kernel_oracles.tainted_pages(layout) == layout.tainted_pages()


#: Tiny scales keep the whole six-suite sweep in CI-smoke territory.
SUITE_EPOCH_SCALE = 20_000
SUITE_TRACE_WINDOW = 1_500


def _suite_snapshots(suite):
    """Execute a suite's first two workloads in process."""
    names = EXPERIMENT_SUITES[suite][0][1][:2]
    snapshots = {}
    for spec in suite_jobs(
        suite,
        epoch_scale=SUITE_EPOCH_SCALE,
        trace_window=SUITE_TRACE_WINDOW,
        benchmarks=names,
    ):
        result = execute_job({"spec": spec.to_dict()})
        snapshots[spec.job_id] = result["snapshot"]
    return snapshots


@pytest.mark.parametrize(
    "suite", ["table1", "table2", "table3", "table4", "table6", "table7"]
)
def test_table_suite_snapshots_backend_independent(suite, monkeypatch):
    """The acceptance criterion: every table suite's job snapshots are
    identical whether the kernels or the per-access oracles replay."""
    kernel = _suite_snapshots(suite)
    kernel_oracles.install_oracle_kernels(monkeypatch)
    oracle = _suite_snapshots(suite)
    assert oracle.keys() == kernel.keys()
    for job_id in oracle:
        assert json.dumps(oracle[job_id], sort_keys=True) == json.dumps(
            kernel[job_id], sort_keys=True
        ), f"{suite}:{job_id} diverged between kernels and oracles"
