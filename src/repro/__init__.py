"""repro — a from-scratch reproduction of *LATCH: A Locality-Aware Taint
CHecker* (Townley et al., MICRO 2019).

The package layers, bottom-up:

* :mod:`repro.isa` / :mod:`repro.machine` — a 32-bit toy RISC ISA and
  CPU emulator with virtual files/sockets (the execution substrate that
  replaces Pin + x86 + Debian in the paper's framework).
* :mod:`repro.mem` — cache and TLB component models.
* :mod:`repro.dift` — byte-precise software DIFT (the libdft
  equivalent): shadow memory, taint register file, classical DTA
  propagation, source/sink policies, security alerts.
* :mod:`repro.core` — **the paper's contribution**: taint domains, the
  Coarse Taint Table, the Coarse Taint Cache with clear bits, TLB taint
  bits, and the assembled :class:`~repro.core.LatchModule`.
* :mod:`repro.slatch` / :mod:`repro.platch` / :mod:`repro.hlatch` — the
  three integrations (Sections 5.1–5.3).
* :mod:`repro.workloads` — calibrated synthetic equivalents of the 20
  SPEC + 7 network workloads, plus real toy-ISA programs and attacks.
* :mod:`repro.analysis` — the Section 3 locality characterisation.
* :mod:`repro.hw` — the Section 6.4 FPGA complexity accounting.

Quickstart::

    from repro import DIFTEngine, assemble, CPU, VirtualFile, DeviceTable

    devices = DeviceTable()
    devices.register_file(VirtualFile("in.txt", b"untrusted"))
    cpu = CPU(assemble(SOURCE), devices=devices)
    engine = DIFTEngine()
    cpu.attach(engine)
    cpu.run()
    print(engine.stats.tainted_fraction, engine.alerts)
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.isa": ("Instruction", "Opcode", "Program", "assemble",
                  "disassemble"),
    "repro.machine": (
        "CPU", "DeviceTable", "InputEvent", "MemoryAccess", "OutputEvent",
        "PagedMemory", "StepEvent", "Syscall", "VirtualFile",
        "VirtualSocket",
    ),
    "repro.dift": (
        "AlertKind", "DIFTEngine", "SecurityAlert", "ShadowMemory",
        "TaintPolicy", "TaintRegisterFile",
    ),
    "repro.core": (
        "CoarseTaintCache", "CoarseTaintTable", "DomainGeometry",
        "LatchConfig", "LatchModule", "TlbTaintBits",
    ),
    "repro.obs": ("MetricsRegistry", "StatsSnapshot", "Tracer"),
    "repro.slatch": ("SLatchCostModel", "SLatchSystem", "simulate_slatch"),
    "repro.platch": ("analytic_platch", "TwoCoreQueueSimulator"),
    "repro.hlatch": ("HLatchSystem", "run_baseline", "run_hlatch"),
    "repro.workloads": (
        "WorkloadGenerator", "WorkloadProfile", "all_profiles",
        "get_profile",
    ),
})
