"""The differential soundness oracle.

Each program runs once under a byte-precise reference
:class:`repro.dift.DIFTEngine`, then once per LATCH-gated path.  Two
families of properties are asserted:

**No false negatives** (per step, Figure 1): whenever the precise state
says an operand is tainted, the coarse check of the same operand must
have said "possibly tainted".  A single miss breaks DIFT's accuracy, so
every miss is a reportable :class:`SoundnessViolation`, never a tolerable
approximation error.

**Equivalent outcomes** (per run): the gated systems must finish with
the reference's alerts, shadow memory, and taint register file — the
same signature the long-standing differential tests use.

In addition, :meth:`repro.core.latch.LatchModule.check_invariants` runs
after every committed instruction on the core-mirror and H-LATCH paths
(checked mode), so CTT/CTC/TLB incoherence is caught at the step that
introduces it rather than at the end of the run.

The ``stream`` path runs the program through the full
:class:`repro.pipeline.StreamingPipeline`, honouring the
``REPRO_PIPELINE_*`` environment knobs; with sampling inactive it must
reproduce the reference signature, and the coarse-vs-precise invariants
must hold either way.

The ``columnar`` path is the object-vs-columnar differential: the
recorded ``.ltrace`` event container must replay to the reference
signature, and the sharded columnar access replay
(:mod:`repro.trace.replay`) must reproduce the scalar per-access
H-LATCH counters bit for bit under an adversarial shard plan.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, List, Sequence, Tuple

import numpy as np

from repro.check.generator import CheckProgram
from repro.core.latch import CheckLevel, InvariantViolation, LatchModule
from repro.dift.engine import DIFTEngine
from repro.hlatch.machine import HLatchMonitor
from repro.machine.cpu import ExecutionError
from repro.machine.events import InputEvent, Observer, OutputEvent, StepEvent

#: Step budget per run; generated programs are straight-line and short,
#: so this is a crash guard rather than a tuning knob.
MAX_STEPS = 200_000

#: Paths the oracle exercises (``check_program``'s default).
ALL_PATHS = ("core", "slatch", "hlatch", "kernels", "stream", "columnar")


@dataclass(frozen=True)
class SoundnessViolation:
    """One observed violation of the no-false-negatives contract."""

    kind: str        # stable identifier, the shrinker's predicate
    path: str        # which gated path produced it
    detail: str      # human-readable specifics (addresses, steps, ...)
    program: str = ""  # name of the offending program

    def __str__(self) -> str:
        return f"[{self.kind}] {self.path}: {self.detail}"


@dataclass
class OracleReport:
    """Aggregate outcome of checking one or more programs."""

    programs_checked: int = 0
    runs: int = 0
    violations: List[SoundnessViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def merge(self, other: "OracleReport") -> None:
        self.programs_checked += other.programs_checked
        self.runs += other.runs
        self.violations.extend(other.violations)


# ----------------------------------------------------------------- helpers


def state_signature(engine: DIFTEngine):
    """Alerts + tainted bytes + TRF tags — the equivalence fingerprint."""
    return (
        [(alert.kind, alert.pc) for alert in engine.alerts],
        list(engine.shadow.iter_tainted_bytes()),
        [engine.trf.get(register) for register in range(16)],
    )


def _run(cpu) -> None:
    try:
        cpu.run(MAX_STEPS)
    except ExecutionError:
        pass


class _TraceCollector(Observer):
    """Records every committed memory access (for kernel replays)."""

    def __init__(self) -> None:
        self.addresses: List[int] = []
        self.sizes: List[int] = []
        self.writes: List[bool] = []

    def on_step(self, event: StepEvent) -> None:
        for access in event.memory_accesses:
            self.addresses.append(access.address)
            self.sizes.append(access.size)
            self.writes.append(access.is_write)


# --------------------------------------------------------------- reference


def run_reference(cp: CheckProgram) -> Tuple[DIFTEngine, _TraceCollector]:
    """Byte-precise DIFT run; returns the engine and the access trace."""
    cpu = cp.make_cpu()
    trace = _TraceCollector()
    engine = DIFTEngine()
    cpu.attach(trace)
    cpu.attach(engine)
    _run(cpu)
    return engine, trace


# ------------------------------------------------------------- core mirror


class CoreMirror(Observer):
    """Precise DIFT with a passive :class:`LatchModule` shadowing it.

    The mirror drives the core module exactly as an integration would —
    coarse check before propagation, coarse update on every precise tag
    write — but performs no gating, so the engine's outcome is by
    construction the reference outcome.  What it adds is *checking*:
    per-operand no-false-negative asserts and per-step
    ``check_invariants`` in checked mode.
    """

    def __init__(
        self,
        cp: CheckProgram,
        defer_clear: bool,
        latch_cls: Callable[..., LatchModule] = LatchModule,
        reconcile_every: int = 13,
        checked: bool = True,
    ) -> None:
        self.engine = DIFTEngine()
        self.latch = latch_cls(cp.config)
        self.defer_clear = defer_clear
        self.reconcile_every = reconcile_every
        self.checked = checked
        self.violations: List[SoundnessViolation] = []
        self._mode = "deferred" if defer_clear else "immediate"
        self._steps = 0
        self.engine.add_tag_listener(self._on_tag_write)

    # ------------------------------------------------------------ observer

    def on_input(self, event: InputEvent) -> None:
        self.engine.on_input(event)

    def on_output(self, event: OutputEvent) -> None:
        self.engine.on_output(event)

    def on_step(self, event: StepEvent) -> None:
        self._steps += 1
        check = self.latch.check_step(event)
        # Register operands: precise-tainted must imply a TRF positive.
        if event.regs_read and self.engine.trf.any_tainted(event.regs_read):
            if not check.register_tainted:
                self._flag(
                    "core-missed-register",
                    f"step {self._steps} pc={event.pc:#x}: tainted register "
                    f"in {sorted(event.regs_read)} but TRF check was clean",
                )
        # Memory operands, pre-propagation (what commit-time logic sees).
        for access, result in zip(event.memory_accesses, check.memory_results):
            precise = self.engine.shadow.any_tainted(access.address, access.size)
            if precise and not result.coarse_tainted:
                self._flag(
                    "core-missed-memory",
                    f"step {self._steps} pc={event.pc:#x}: access "
                    f"{access.address:#x}+{access.size} precisely tainted "
                    f"but coarse check resolved clean at {result.level.value} "
                    f"({self._mode} clears)",
                )
        self.engine.on_step(event)
        if self.defer_clear and self._steps % self.reconcile_every == 0:
            self.latch.reconcile_clears(self.engine.shadow.region_clean)
        if self.checked:
            self._check_invariants()
        # The TRF mirrors the precise register tags between steps, the
        # way S-LATCH's strf resynchronisation maintains it.
        self.latch.set_trf_mask(self.engine.trf.register_mask())

    # ------------------------------------------------------------- wiring

    def _on_tag_write(self, address: int, tags: bytes) -> None:
        if self.defer_clear:
            self.latch.update_memory_tags(address, tags, defer_clear=True)
        else:
            self.latch.update_memory_tags(
                address,
                tags,
                defer_clear=False,
                clean_oracle=self.engine.shadow.region_clean,
            )

    def _check_invariants(self) -> None:
        try:
            self.latch.check_invariants(self.engine.shadow)
        except InvariantViolation as violation:
            self._flag(
                "invariant",
                f"step {self._steps}: {violation} ({self._mode} clears)",
            )

    def _flag(self, kind: str, detail: str) -> None:
        self.violations.append(
            SoundnessViolation(kind=kind, path=f"core-{self._mode}", detail=detail)
        )


def run_core_mirror(
    cp: CheckProgram,
    defer_clear: bool,
    latch_cls: Callable[..., LatchModule] = LatchModule,
) -> CoreMirror:
    """Run ``cp`` under the core-mirror checker; returns the mirror."""
    cpu = cp.make_cpu()
    mirror = CoreMirror(cp, defer_clear=defer_clear, latch_cls=latch_cls)
    cpu.attach(mirror)
    _run(cpu)
    if defer_clear:
        mirror.latch.reconcile_clears(mirror.engine.shadow.region_clean)
        if mirror.checked:
            mirror._check_invariants()
    return mirror


# ----------------------------------------------------------------- S-LATCH


def run_slatch(cp: CheckProgram, timeout: int):
    """Run ``cp`` under the full S-LATCH mode-switching system."""
    from repro.slatch.controller import SLatchSystem
    from repro.slatch.costs import SLatchCostModel

    cpu = cp.make_cpu()
    costs = dataclasses.replace(SLatchCostModel(), timeout_instructions=timeout)
    system = SLatchSystem(cpu, latch_config=cp.config, costs=costs)
    _run(cpu)
    return system


# ----------------------------------------------------------------- H-LATCH


class CheckedHLatchMonitor(HLatchMonitor):
    """H-LATCH monitor asserting per-access soundness and invariants."""

    def __init__(self, cpu, latch_config) -> None:
        super().__init__(cpu, latch_config=latch_config)
        self.violations: List[SoundnessViolation] = []
        self._steps = 0

    def on_step(self, event: StepEvent) -> None:
        self._steps += 1
        for access in event.memory_accesses:
            precise = self.engine.shadow.any_tainted(access.address, access.size)
            level = self.stack.access(access.address, access.size, access.is_write)
            if precise and level is not CheckLevel.PRECISE:
                self.violations.append(
                    SoundnessViolation(
                        kind="hlatch-missed",
                        path="hlatch",
                        detail=(
                            f"step {self._steps} pc={event.pc:#x}: access "
                            f"{access.address:#x}+{access.size} precisely "
                            f"tainted but resolved at {level.value}"
                        ),
                    )
                )
        self.engine.on_step(event)
        try:
            self.stack.latch.check_invariants(self.stack.shadow)
        except InvariantViolation as violation:
            self.violations.append(
                SoundnessViolation(
                    kind="invariant",
                    path="hlatch",
                    detail=f"step {self._steps}: {violation}",
                )
            )


def run_hlatch(cp: CheckProgram) -> CheckedHLatchMonitor:
    """Run ``cp`` under the checked H-LATCH stack."""
    cpu = cp.make_cpu()
    monitor = CheckedHLatchMonitor(cpu, latch_config=cp.config)
    _run(cpu)
    return monitor


# ---------------------------------------------------------------- streaming


def run_stream(cp: CheckProgram):
    """Run ``cp`` under the streaming pipeline.

    The configuration comes from :meth:`repro.pipeline.PipelineConfig.
    from_env`, so ``REPRO_PIPELINE_*`` knobs (queue shape, sampling)
    apply to oracle runs and corpus replays exactly as they would to a
    production run — a shrunk reproducer stays faithful under either
    execution mode.
    """
    from repro.pipeline import StreamingPipeline
    from repro.pipeline.config import PipelineConfig

    config = PipelineConfig.from_env()
    cpu = cp.make_cpu()
    pipeline = StreamingPipeline(cpu, latch_config=cp.config, config=config)
    _run(cpu)
    pipeline.finish()
    return pipeline


# ------------------------------------------------------------ kernel replay


def check_kernel_replay(
    cp: CheckProgram,
    engine: DIFTEngine,
    trace: _TraceCollector,
    latch_cls: Callable[..., LatchModule] = LatchModule,
) -> List[SoundnessViolation]:
    """Scalar-vs-vector replay of the reference trace, post-run state.

    Bulk-loads the final precise state into fresh modules and replays
    every access through ``check_memory`` (scalar reference semantics)
    and through the product replay — one
    :func:`~repro.kernels.replay.shard_partial` over the whole trace,
    merged by :func:`~repro.kernels.replay.merge_latch_partials`.  The
    per-access coarse flags and every mutated counter must match bit
    for bit, and both must be sound against the final shadow.
    """
    from repro.kernels.replay import merge_latch_partials, shard_partial

    violations: List[SoundnessViolation] = []
    if not trace.addresses:
        return violations

    def fresh():
        latch = latch_cls(cp.config)
        latch.bulk_load_from_shadow(engine.shadow)
        return latch

    scalar = fresh()
    scalar_flags = [
        scalar.check_memory(address, size).coarse_tainted
        for address, size in zip(trace.addresses, trace.sizes)
    ]
    vector = fresh()
    partial = shard_partial(trace.addresses, trace.sizes, None, vector)
    merge_latch_partials([partial], vector)
    vector_flags = partial.coarse

    if scalar_flags != list(vector_flags):
        first = next(
            index
            for index, (a, b) in enumerate(zip(scalar_flags, vector_flags))
            if a != bool(b)
        )
        violations.append(
            SoundnessViolation(
                kind="kernel-mismatch",
                path="kernels",
                detail=(
                    f"scalar/vector flag divergence at access {first} "
                    f"({trace.addresses[first]:#x}+{trace.sizes[first]})"
                ),
            )
        )

    def counters(latch):
        stats = latch.stats
        values = [
            stats.memory_checks, stats.resolved_by_tlb,
            stats.resolved_by_ctc, stats.sent_to_precise,
            latch.last_exception_address,
            latch.ctc.stats.accesses, latch.ctc.stats.hits,
            latch.ctc.stats.misses, latch.ctc.stats.evictions,
        ]
        if latch.tlb_bits is not None:
            values += [
                latch.tlb_bits.checks, latch.tlb_bits.hot_checks,
                latch.tlb_bits.tlb.stats.accesses,
                latch.tlb_bits.tlb.stats.hits,
                latch.tlb_bits.tlb.stats.misses,
                latch.tlb_bits.tlb.stats.evictions,
            ]
        return values

    if counters(scalar) != counters(vector):
        violations.append(
            SoundnessViolation(
                kind="kernel-counter-mismatch",
                path="kernels",
                detail=(
                    f"scalar {counters(scalar)} != vector {counters(vector)}"
                ),
            )
        )

    for index, (address, size) in enumerate(zip(trace.addresses, trace.sizes)):
        if engine.shadow.any_tainted(address, size) and not scalar_flags[index]:
            violations.append(
                SoundnessViolation(
                    kind="kernel-missed",
                    path="kernels",
                    detail=(
                        f"access {index} ({address:#x}+{size}) tainted in the "
                        "final shadow but replayed clean"
                    ),
                )
            )
            break
    return violations


# --------------------------------------------------------- columnar replay


def check_columnar(
    cp: CheckProgram,
    engine: DIFTEngine,
    trace: _TraceCollector,
    latch_cls: Callable[..., LatchModule] = LatchModule,
) -> List[SoundnessViolation]:
    """Object-pipeline vs columnar-sharded replay differential.

    Two halves.  **Events**: the program re-runs with a
    :class:`~repro.trace.record.TraceRecorder` attached, the recorded
    ``.ltrace`` bytes replay into a fresh byte-precise engine, and the
    final signature must match the live reference run — the container
    must be a faithful substitute for the object event stream.
    **Accesses**: the reference access trace replays through the scalar
    per-access H-LATCH stack and through
    :func:`~repro.kernels.replay.shard_partial` /
    :func:`~repro.kernels.replay.merge_partials` under an adversarial
    shard plan (uneven cuts, a single-access shard, and a deliberately
    empty shard); every published counter must agree bit for bit.
    """
    from repro.hlatch.system import HLatchSystem
    from repro.hlatch.taint_cache import HLATCH_TAINT_CACHE
    from repro.trace.record import TraceRecorder, replay_events
    from repro.kernels.replay import merge_partials, shard_partial

    violations: List[SoundnessViolation] = []

    cpu = cp.make_cpu()
    recorder = TraceRecorder(name=cp.name)
    cpu.attach(recorder)
    _run(cpu)
    replayed = DIFTEngine()
    steps = replay_events(recorder.to_bytes(), replayed)
    if state_signature(replayed) != state_signature(engine):
        violations.append(
            SoundnessViolation(
                kind="columnar-event-divergence",
                path="columnar",
                detail=(
                    f"replaying the recorded event trace ({steps} steps) "
                    "diverges from the live reference run"
                ),
            )
        )

    if not trace.addresses:
        return violations

    def fresh_system() -> HLatchSystem:
        system = HLatchSystem(cp.config, HLATCH_TAINT_CACHE)
        system.latch = latch_cls(cp.config)
        system.latch.bulk_load_from_shadow(engine.shadow)
        return system

    scalar = fresh_system()
    for address, size, write in zip(trace.addresses, trace.sizes,
                                    trace.writes):
        scalar.access(address, size, write)

    n = len(trace.addresses)
    addresses = np.asarray(trace.addresses, dtype=np.int64)
    sizes = np.asarray(trace.sizes, dtype=np.int64)
    writes = np.asarray(trace.writes, dtype=bool)
    # Adversarial plan: uneven cuts, a single-access tail shard, and a
    # deliberately empty shard — the merge must be exact for all of them.
    bounds = [0, *sorted({n // 3, (2 * n) // 3, n - 1}), n]
    plan = [(bounds[i], bounds[i + 1]) for i in range(len(bounds) - 1)]
    plan.insert(1, (bounds[1], bounds[1]))
    sharded = fresh_system()
    partials = [
        shard_partial(
            addresses[start:stop], sizes[start:stop], writes[start:stop],
            sharded.latch, sharded.tcache.config,
        )
        for start, stop in plan
    ]
    merge_partials(partials, sharded)

    scalar_metrics = {
        row["name"]: row for row in scalar.snapshot().to_dict()["metrics"]
    }
    sharded_metrics = {
        row["name"]: row for row in sharded.snapshot().to_dict()["metrics"]
    }
    if scalar_metrics != sharded_metrics:
        diverging = sorted(
            name
            for name in set(scalar_metrics) | set(sharded_metrics)
            if scalar_metrics.get(name) != sharded_metrics.get(name)
        )
        violations.append(
            SoundnessViolation(
                kind="columnar-counter-mismatch",
                path="columnar",
                detail=(
                    f"sharded merge over {len(plan)} shards diverges from "
                    f"the scalar stack on {', '.join(diverging)}"
                ),
            )
        )
    if (scalar.latch.last_exception_address
            != sharded.latch.last_exception_address):
        violations.append(
            SoundnessViolation(
                kind="columnar-counter-mismatch",
                path="columnar",
                detail=(
                    "last_exception_address differs: scalar "
                    f"{scalar.latch.last_exception_address!r} vs sharded "
                    f"{sharded.latch.last_exception_address!r}"
                ),
            )
        )
    return violations


# ------------------------------------------------------------ orchestration


def check_program(
    cp: CheckProgram,
    paths: Sequence[str] = ALL_PATHS,
    latch_cls: Callable[..., LatchModule] = LatchModule,
    stream_obs=None,
) -> OracleReport:
    """Run every requested path over ``cp`` and collect violations.

    ``latch_cls`` substitutes the core module on the ``core`` and
    ``kernels`` paths — the mutation self-test injects its known-buggy
    module this way (S-LATCH/H-LATCH, like the streaming pipeline,
    construct their own modules internally and always use the real
    one).  ``stream_obs``, if given, accumulates the streaming runs'
    queue/stall metrics (the ``repro-check --stats-out`` artifact).
    """
    report = OracleReport(programs_checked=1)
    reference, trace = run_reference(cp)
    report.runs += 1
    ref_signature = state_signature(reference)

    def check_signature(engine: DIFTEngine, path: str) -> None:
        if state_signature(engine) != ref_signature:
            report.violations.append(
                SoundnessViolation(
                    kind="final-divergence",
                    path=path,
                    detail="final alerts/shadow/TRF differ from reference",
                    program=cp.name,
                )
            )

    if "core" in paths:
        for defer_clear in (True, False):
            mirror = run_core_mirror(cp, defer_clear, latch_cls=latch_cls)
            report.runs += 1
            report.violations.extend(
                v.__class__(**{**v.__dict__, "program": cp.name})
                for v in mirror.violations
            )
            check_signature(mirror.engine, f"core-{mirror._mode}")

    if "slatch" in paths:
        for timeout in cp.timeouts:
            system = run_slatch(cp, timeout)
            report.runs += 1
            check_signature(system.engine, f"slatch-t{timeout}")
            try:
                system.latch.check_invariants(system.engine.shadow)
            except InvariantViolation as violation:
                report.violations.append(
                    SoundnessViolation(
                        kind="invariant",
                        path=f"slatch-t{timeout}",
                        detail=str(violation),
                        program=cp.name,
                    )
                )

    if "hlatch" in paths:
        monitor = run_hlatch(cp)
        report.runs += 1
        report.violations.extend(
            dataclasses.replace(v, program=cp.name)
            for v in monitor.violations
        )
        check_signature(monitor.engine, "hlatch")

    if "kernels" in paths:
        report.runs += 1
        report.violations.extend(
            dataclasses.replace(v, program=cp.name)
            for v in check_kernel_replay(cp, reference, trace, latch_cls=latch_cls)
        )

    if "columnar" in paths:
        report.runs += 1
        report.violations.extend(
            dataclasses.replace(v, program=cp.name)
            for v in check_columnar(cp, reference, trace, latch_cls=latch_cls)
        )

    if "stream" in paths:
        pipeline = run_stream(cp)
        report.runs += 1
        if not pipeline.sampler.active:
            # Sampling deliberately trades coverage, so the final state
            # may legitimately under-approximate the reference; the
            # invariant check below still applies.
            check_signature(pipeline.engine, "stream")
        try:
            pipeline.latch.check_invariants(pipeline.engine.shadow)
        except InvariantViolation as violation:
            report.violations.append(
                SoundnessViolation(
                    kind="invariant",
                    path="stream",
                    detail=str(violation),
                    program=cp.name,
                )
            )
        if stream_obs is not None:
            pipeline.accumulate_metrics(stream_obs)
    return report
