"""Taint source and sink policies.

The paper's general evaluation uses a conservative policy — taint all
data from network or file sources — plus the nuanced apache-25/50/75
variants where a random subset of accepted connections is trusted (their
data is not tainted).  The trust decision is made per *connection* at the
device layer (see :class:`repro.machine.devices.VirtualSocket.trusted`);
this policy object decides per *input event* using the device's hint and
its own filters, and declares which data-use checks are armed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet

from repro.machine.events import InputEvent


@dataclass
class TaintPolicy:
    """Configuration of taint initialisation and validation.

    Attributes:
        taint_files: taint bytes read from files marked tainted.
        taint_sockets: taint bytes received from untrusted connections.
        source_name_allowlist: if non-empty, only these source names taint.
        check_jump_targets: alert on indirect jumps through tainted data.
        check_syscall_args: alert on tainted syscall arguments (for the
            syscalls in ``protected_syscalls``).
        check_output_leaks: alert when tainted bytes reach an output sink.
        stop_on_alert: raise :class:`SecurityException` instead of only
            recording the alert.
        taint_tag: the tag value written at sources (must be non-zero).
        color_by_source: assign a distinct tag value per source name
            (see :mod:`repro.dift.colors`), so alerts can attribute the
            offending bytes to the input that produced them;
            ``taint_tag`` is then only a fallback.
    """

    taint_files: bool = True
    taint_sockets: bool = True
    source_name_allowlist: FrozenSet[str] = frozenset()
    check_jump_targets: bool = True
    check_syscall_args: bool = False
    protected_syscalls: FrozenSet[int] = frozenset()
    check_output_leaks: bool = False
    stop_on_alert: bool = False
    taint_tag: int = 1
    color_by_source: bool = False

    def __post_init__(self) -> None:
        if self.taint_tag == 0:
            raise ValueError("taint_tag must be non-zero")

    def should_taint(self, event: InputEvent) -> bool:
        """Decide whether the bytes of ``event`` become tainted."""
        if not event.tainted_hint:
            return False
        if event.source_kind == "file" and not self.taint_files:
            return False
        if event.source_kind == "socket" and not self.taint_sockets:
            return False
        if self.source_name_allowlist and (
            event.source_name not in self.source_name_allowlist
        ):
            return False
        return True


#: The conservative default used throughout Section 3 of the paper:
#: every file and socket source is untrusted; jump targets are checked.
CLASSICAL_DTA = TaintPolicy()


def leak_detection_policy() -> TaintPolicy:
    """Policy variant for the data-leakage use case (tainted-output)."""
    return TaintPolicy(check_output_leaks=True)
