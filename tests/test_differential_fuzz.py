"""Property-based differential fuzzing: random programs, identical taint.

Hypothesis generates random (terminating) programs that read a tainted
file and then mix loads, stores, and ALU operations over the buffer and
a scratch region.  Each program runs under the reference DIFT engine
and under S-LATCH with a random timeout; the final taint state and the
alert streams must be identical, whatever the program does.

This is the strongest form of the paper's accuracy claim: not just on
curated scenarios, but over an open-ended program space.

The whole module carries the ``fuzz`` marker so CI can budget it
separately (``-m "not fuzz"`` skips it; the tier-1 run includes it).
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.latch import LatchConfig, LatchModule
from repro.dift.engine import DIFTEngine
from repro.dift.tags import ShadowMemory
from repro.kernels import merge_latch_partials, shard_partial
from repro.isa.assembler import assemble
from repro.machine.cpu import CPU
from repro.machine.devices import DeviceTable, VirtualFile
from repro.slatch.controller import SLatchSystem
from repro.slatch.costs import SLatchCostModel
from repro.trace.shard import explicit_plan

pytestmark = pytest.mark.fuzz

_SCRATCH_REGISTERS = list(range(4, 12))  # r4..r11; r12 = buffer base
_BUFFER_WINDOW = 96  # program touches buf[0 .. 96+4)


def _operation_strategy():
    reg = st.sampled_from(_SCRATCH_REGISTERS)
    offset = st.integers(min_value=0, max_value=_BUFFER_WINDOW)
    return st.one_of(
        st.tuples(st.just("lw"), reg, offset),
        st.tuples(st.just("lbu"), reg, offset),
        st.tuples(st.just("lb"), reg, offset),
        st.tuples(st.just("sw"), reg, offset),
        st.tuples(st.just("sb"), reg, offset),
        st.tuples(st.just("sh"), reg, offset),
        st.tuples(st.sampled_from(["add", "xor", "and", "or", "sub", "sll"]),
                  reg, reg, reg),
        st.tuples(st.just("addi"), reg, reg,
                  st.integers(min_value=-64, max_value=64)),
        st.tuples(st.just("li"), reg,
                  st.integers(min_value=0, max_value=0xFFFF)),
    )


def _render(operations):
    lines = [
        ".data",
        'path:   .asciiz "fuzz.bin"',
        "buf:    .space 128",
        ".text",
        "_start:",
        "    li   r3, 3",
        "    li   r4, path",
        "    syscall",
        "    mv   r7, r3",
        "    li   r3, 1",
        "    mv   r4, r7",
        "    li   r5, buf",
        "    li   r6, 48",      # taint buf[0..48)
        "    syscall",
        "    li   r12, buf",
    ]
    for op in operations:
        mnemonic = op[0]
        if mnemonic in ("lw", "lbu", "lb"):
            lines.append(f"    {mnemonic} r{op[1]}, {op[2]}(r12)")
        elif mnemonic in ("sw", "sb", "sh"):
            lines.append(f"    {mnemonic} r{op[1]}, {op[2]}(r12)")
        elif mnemonic == "addi":
            lines.append(f"    addi r{op[1]}, r{op[2]}, {op[3]}")
        elif mnemonic == "li":
            lines.append(f"    li r{op[1]}, {op[2]}")
        else:
            lines.append(f"    {mnemonic} r{op[1]}, r{op[2]}, r{op[3]}")
    lines.append("    halt")
    return "\n".join(lines)


def _signature(engine):
    return (
        list(engine.shadow.iter_tainted_bytes()),
        [engine.trf.get(register) for register in range(16)],
        [(alert.kind, alert.pc) for alert in engine.alerts],
    )


def _run_reference(source, payload):
    devices = DeviceTable()
    devices.register_file(VirtualFile("fuzz.bin", payload))
    cpu = CPU(assemble(source), devices=devices)
    engine = DIFTEngine()
    cpu.attach(engine)
    cpu.run(50_000)
    return _signature(engine), cpu.step_count


def _run_gated(source, payload, timeout):
    devices = DeviceTable()
    devices.register_file(VirtualFile("fuzz.bin", payload))
    cpu = CPU(assemble(source), devices=devices)
    costs = dataclasses.replace(
        SLatchCostModel(), timeout_instructions=timeout
    )
    system = SLatchSystem(cpu, costs=costs)
    cpu.run(50_000)
    return _signature(system.engine), system.counters


@settings(max_examples=120, deadline=None)
@given(
    st.lists(_operation_strategy(), min_size=1, max_size=40),
    st.binary(min_size=48, max_size=48),
    st.sampled_from([1, 3, 17, 400]),
)
def test_random_programs_identical_taint(operations, payload, timeout):
    source = _render(operations)
    reference_signature, steps = _run_reference(source, payload)
    gated_signature, counters = _run_gated(source, payload, timeout)
    assert gated_signature == reference_signature
    assert counters.total_instructions == steps


@settings(max_examples=40, deadline=None)
@given(
    st.lists(_operation_strategy(), min_size=5, max_size=40),
    st.sampled_from([1, 9]),
)
def test_random_programs_with_domain_straddling_config(operations, timeout):
    """Tiny 8-byte domains + 1-entry CTC: maximal structural stress."""
    from repro.core.latch import LatchConfig

    source = _render(operations)
    payload = bytes(range(48))
    reference_signature, _ = _run_reference(source, payload)

    devices = DeviceTable()
    devices.register_file(VirtualFile("fuzz.bin", payload))
    cpu = CPU(assemble(source), devices=devices)
    costs = dataclasses.replace(
        SLatchCostModel(), timeout_instructions=timeout
    )
    system = SLatchSystem(
        cpu,
        latch_config=LatchConfig(domain_size=8, ctc_entries=1, tlb_entries=2),
        costs=costs,
    )
    cpu.run(50_000)
    assert _signature(system.engine) == reference_signature


# --------------------------------------------------------------------------
# Vector kernels vs the byte-precise engine.  The coarse check is allowed
# false positives (that is the LATCH trade-off) but never false negatives,
# and its false-positive *set* must be exactly the scalar module's.


@st.composite
def _taint_windows(draw):
    """A taint layout plus an access window over a 4-page span."""
    span = 4 * 4096
    extents = []
    cursor = 0
    for _ in range(draw(st.integers(0, 4))):
        start = cursor + draw(st.integers(0, 1024))
        length = draw(st.integers(1, 256))
        if start + length > span:
            break
        extents.append((start, length))
        cursor = start + length
    n = draw(st.integers(0, 48))
    addresses = draw(st.lists(
        st.one_of(
            st.integers(0, span - 8),
            st.sampled_from([0, 7, 63, 64, 255, 2047, 4095, 4096, 8191]),
        ),
        min_size=n, max_size=n,
    ))
    sizes = draw(st.lists(st.sampled_from([1, 2, 4, 8]),
                          min_size=n, max_size=n))
    return extents, addresses, sizes


def _sharded_coarse_flags(latch, addresses, sizes, plan):
    """Per-access coarse verdicts of the product replay over ``plan``."""
    partials = [
        shard_partial(addresses[start:stop], sizes[start:stop], None, latch)
        for start, stop in plan
    ]
    merge_latch_partials(partials, latch)
    return np.concatenate(
        [partial.coarse for partial in partials] or [np.zeros(0, bool)]
    )


@settings(max_examples=60, deadline=None)
@given(
    window=_taint_windows(),
    config=st.builds(
        LatchConfig,
        domain_size=st.sampled_from([8, 64, 128]),
        ctc_entries=st.sampled_from([1, 16]),
        tlb_entries=st.sampled_from([2, 128]),
        use_tlb_bits=st.booleans(),
    ),
    cuts=st.lists(st.integers(0, 48), max_size=3),
)
def test_vector_coarse_check_against_precise_engine(window, config, cuts):
    extents, address_list, size_list = window
    shadow = ShadowMemory()
    for start, length in extents:
        shadow.set_range(start, length, 1)

    addresses = np.array(address_list, dtype=np.int64)
    sizes = np.array(size_list, dtype=np.int64)
    n = len(addresses)

    vector_latch = LatchModule(config)
    vector_latch.bulk_load_from_shadow(shadow)
    coarse_vector = _sharded_coarse_flags(
        vector_latch, addresses, sizes, [(0, n)]
    )
    sharded_latch = LatchModule(config)
    sharded_latch.bulk_load_from_shadow(shadow)
    coarse_sharded = _sharded_coarse_flags(
        sharded_latch, addresses, sizes, explicit_plan(n, cuts)
    )

    scalar_latch = LatchModule(config)
    scalar_latch.bulk_load_from_shadow(shadow)
    coarse_scalar = np.array(
        [
            scalar_latch.check_memory(int(a), int(s)).coarse_tainted
            for a, s in zip(addresses, sizes)
        ],
        dtype=bool,
    )

    precise = np.array(
        [
            not shadow.region_clean(int(a), max(int(s), 1))
            for a, s in zip(addresses, sizes)
        ],
        dtype=bool,
    )

    # Soundness: the coarse filter never clears a precisely tainted access.
    assert not np.any(precise & ~coarse_vector)
    # Exactness: the vector kernel's false-positive set is the scalar's,
    # whether the window replays as one shard or under any shard plan.
    assert np.array_equal(coarse_vector, coarse_scalar)
    assert np.array_equal(coarse_sharded, coarse_scalar)
    assert sharded_latch.stats == scalar_latch.stats
    assert vector_latch.ctc.stats == scalar_latch.ctc.stats
