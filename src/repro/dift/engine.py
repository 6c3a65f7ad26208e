"""The complete software DIFT engine (libdft equivalent).

:class:`DIFTEngine` attaches to a :class:`repro.machine.CPU` as an
observer and performs the four DIFT components of Figure 3 of the paper:

1. **Initialisation** — on syscall input events, bytes from untrusted
   sources are tagged in shadow memory according to the policy.
2. **Storage** — byte-granular :class:`~repro.dift.tags.ShadowMemory`
   and the :class:`~repro.dift.tags.TaintRegisterFile`.
3. **Propagation** — the classical DTA rules of
   :mod:`repro.dift.propagation`, applied at every committed instruction
   through a cached rule per instruction.
4. **Validation** — data-use checks (tainted jump targets, protected
   syscall arguments, output leaks) raising
   :class:`~repro.dift.events.SecurityAlert`.

LATCH integrations subscribe to tag writes through
:meth:`DIFTEngine.add_tag_listener` to keep the coarse taint state (CTT)
synchronised with the precise state, as Sections 5.1.4 and 5.3.1 of the
paper require.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.isa.instructions import Instruction, Opcode
from repro.machine.events import InputEvent, Observer, OutputEvent, StepEvent
from repro.dift.events import AlertKind, SecurityAlert, SecurityException
from repro.dift.policy import TaintPolicy
from repro.dift.propagation import Rule, compile_rule
from repro.dift.tags import ShadowMemory, TaintRegisterFile

#: Signature of a tag-write listener: ``(address, tags)`` after the write.
TagListener = Callable[[int, bytes], None]

#: Syscall argument registers checked by the protected-syscall policy.
_SYSCALL_ARG_REGISTERS = (4, 5, 6)
_RETURN_ADDRESS_REGISTER = 1  # "ra" by convention

#: Compiled rules an engine keeps (bounded like ``decode_word``'s cache).
RULE_CACHE_SIZE = 4096


@dataclass
class DIFTStats:
    """Aggregate statistics of a monitored execution."""

    instructions: int = 0
    tainted_instructions: int = 0
    taint_source_bytes: int = 0
    alert_count: int = 0

    @property
    def tainted_fraction(self) -> float:
        """Fraction of instructions touching tainted data (Table 1/2)."""
        if self.instructions == 0:
            return 0.0
        return self.tainted_instructions / self.instructions


class DIFTEngine(Observer):
    """Byte-precise software taint tracker.

    Args:
        policy: source/sink policy (defaults to the conservative
            classical-DTA policy of the paper's Section 3).
    """

    def __init__(self, policy: Optional[TaintPolicy] = None) -> None:
        from repro.dift.colors import ColorAllocator

        self.policy = policy if policy is not None else TaintPolicy()
        self.shadow = ShadowMemory()
        self.trf = TaintRegisterFile()
        self.stats = DIFTStats()
        self.alerts: List[SecurityAlert] = []
        #: Whether the last :meth:`on_step` touched taint.
        self.last_touched = False
        self.colors = ColorAllocator()
        self._tag_listeners: List[TagListener] = []
        # id(instruction) -> (instruction, rule): holding the instruction
        # keeps its id unique while the entry lives.
        self._rules: Dict[int, Tuple[Instruction, Rule]] = {}

    # ------------------------------------------------------------- metrics

    def publish_metrics(self, registry) -> None:
        """Publish the precise tracker's counters into an obs registry."""
        stats = self.stats
        registry.counter(
            "dift.instructions", unit="instructions",
            description="Instructions propagated by the precise engine",
        ).set(stats.instructions)
        registry.counter(
            "dift.tainted_instructions", unit="instructions",
            description="Instructions touching tainted data (Tables 1/2)",
        ).set(stats.tainted_instructions)
        registry.counter(
            "dift.taint_source_bytes", unit="bytes",
            description="Bytes tainted at input sources",
        ).set(stats.taint_source_bytes)
        registry.counter(
            "dift.alerts", unit="alerts",
            description="Security alerts raised",
        ).set(stats.alert_count)
        registry.gauge(
            "dift.tainted_fraction", unit="fraction",
            description="Tainted-instruction fraction (Tables 1/2)",
            callback=lambda: self.stats.tainted_fraction,
        )
        registry.gauge(
            "dift.tainted_bytes_live", unit="bytes",
            description="Shadow-memory bytes currently tainted",
            callback=lambda: self.shadow.tainted_byte_count,
        )

    # ----------------------------------------------------------- listeners

    def add_tag_listener(self, listener: TagListener) -> None:
        """Subscribe to shadow-memory tag writes (LATCH CTT sync)."""
        self._tag_listeners.append(listener)

    def _notify_tags(self, address: int, tags: bytes) -> None:
        for listener in self._tag_listeners:
            listener(address, tags)

    # ------------------------------------------------------------ observer

    def on_input(self, event: InputEvent) -> None:
        """Taint-initialise bytes delivered by read/recv syscalls."""
        if not self.policy.should_taint(event):
            # Still notify listeners: overwriting previously tainted bytes
            # with clean input must clear their coarse state too.
            if self.shadow.any_tainted(event.address, len(event.data)):
                self.shadow.clear_range(event.address, len(event.data))
                self._notify_tags(event.address, bytes(len(event.data)))
            return
        if self.policy.color_by_source:
            tag = self.colors.tag_for(event.source_name)
        else:
            tag = self.policy.taint_tag
        self.shadow.set_range(event.address, len(event.data), tag)
        self.stats.taint_source_bytes += len(event.data)
        self._notify_tags(event.address, bytes([tag]) * len(event.data))

    def on_step(self, event: StepEvent) -> None:
        """Propagate taint and run validation for one instruction."""
        self.stats.instructions += 1
        entry = self._rules.get(id(event.instruction))
        if entry is None:
            entry = self._compile(event.instruction)
        self.last_touched = entry[1](event)
        if self.last_touched:
            self.stats.tainted_instructions += 1

    def _compile(self, instruction: Instruction) -> Tuple[Instruction, Rule]:
        """Build and cache ``instruction``'s rule, with its data-use check."""
        rule = compile_rule(
            instruction, self.trf, self.shadow, self._notify_tags
        )
        if instruction.opcode in (Opcode.JALR, Opcode.SYSCALL):
            propagate = rule

            def rule(event: StepEvent) -> bool:
                self._validate_before(event)
                return propagate(event)
        if len(self._rules) >= RULE_CACHE_SIZE:
            self._rules.clear()
        entry = self._rules[id(instruction)] = (instruction, rule)
        return entry

    def on_output(self, event: OutputEvent) -> None:
        """Check output sinks for tainted bytes (leak detection)."""
        if not self.policy.check_output_leaks:
            return
        if self.shadow.any_tainted(event.address, event.length):
            self._raise(
                SecurityAlert(
                    kind=AlertKind.TAINTED_OUTPUT,
                    step_index=event.step_index,
                    pc=0,
                    address=event.address,
                    detail=(
                        f"tainted bytes written to {event.sink_kind} "
                        f"{event.sink_name!r}"
                        + self._provenance(
                            self.shadow.get_range(event.address, event.length)
                        )
                    ),
                )
            )

    # ---------------------------------------------------------- validation

    def _validate_before(self, event: StepEvent) -> None:
        instruction = event.instruction
        if (
            instruction.opcode == Opcode.JALR
            and self.policy.check_jump_targets
            and self.trf.is_tainted(instruction.rs1)
        ):
            kind = (
                AlertKind.TAINTED_RETURN
                if instruction.rs1 == _RETURN_ADDRESS_REGISTER
                else AlertKind.TAINTED_JUMP
            )
            self._raise(
                SecurityAlert(
                    kind=kind,
                    step_index=event.index,
                    pc=event.pc,
                    address=event.next_pc,
                    detail=(
                        f"indirect jump through tainted r{instruction.rs1}"
                        + self._provenance(self.trf.get(instruction.rs1))
                    ),
                )
            )
        if (
            instruction.opcode == Opcode.SYSCALL
            and self.policy.check_syscall_args
            and event.syscall_number in self.policy.protected_syscalls
        ):
            for register in _SYSCALL_ARG_REGISTERS:
                if self.trf.is_tainted(register):
                    self._raise(
                        SecurityAlert(
                            kind=AlertKind.TAINTED_SYSCALL_ARG,
                            step_index=event.index,
                            pc=event.pc,
                            detail=(
                                f"tainted r{register} passed to syscall "
                                f"{event.syscall_number}"
                            ),
                        )
                    )
                    break

    def _provenance(self, tags: bytes) -> str:
        """Source attribution suffix for alert details (colour policy)."""
        if not self.policy.color_by_source:
            return ""
        names = self.colors.names_for(tags)
        if not names:
            return ""
        return f" (from: {', '.join(names)})"

    def _raise(self, alert: SecurityAlert) -> None:
        self.alerts.append(alert)
        self.stats.alert_count += 1
        if self.policy.stop_on_alert:
            raise SecurityException(alert)

    # ----------------------------------------------------------- utilities

    def taint_region(self, address: int, length: int, tag: Optional[int] = None) -> None:
        """Manually taint a region (e.g. sensitive data for leak tests)."""
        value = tag if tag is not None else self.policy.taint_tag
        self.shadow.set_range(address, length, value)
        self._notify_tags(address, bytes([value]) * length)

    def clear_region(self, address: int, length: int) -> None:
        """Manually remove taint from a region."""
        self.shadow.clear_range(address, length)
        self._notify_tags(address, bytes(length))
