"""CPU emulator and OS-surface substrate for the toy ISA.

This package plays the role that a real x86 machine plus Debian played in
the paper's experimental framework: it executes programs, exposes the
dynamic instruction stream to observers (the way Intel Pin exposes it to a
Pintool), and provides the syscall surface — virtual files and sockets —
through which taint enters the system.

Public surface:

* :class:`~repro.machine.cpu.CPU` — fetch/decode/execute machine.
* :class:`~repro.machine.memory.PagedMemory` — demand-paged memory.
* :class:`~repro.machine.devices.VirtualFile` /
  :class:`~repro.machine.devices.VirtualSocket` — taint sources/sinks.
* :class:`~repro.machine.events.StepEvent` /
  :class:`~repro.machine.events.MemoryAccess` /
  :class:`~repro.machine.events.InputEvent` — the observer protocol.
* :mod:`~repro.machine.syscalls` — syscall numbers and semantics.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.machine.memory": ("PAGE_SIZE", "MemoryFault", "PagedMemory"),
    "repro.machine.events": (
        "InputEvent", "MemoryAccess", "OutputEvent", "StepEvent",
    ),
    "repro.machine.devices": ("DeviceTable", "VirtualFile", "VirtualSocket"),
    "repro.machine.syscalls": ("Syscall",),
    "repro.machine.cpu": ("CPU", "ExecutionError"),
    "repro.machine.tracing": ("TraceRecorder",),
})
