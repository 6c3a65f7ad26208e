"""Workload suite: calibrated synthetic equivalents of the paper's apps.

The paper evaluates 20 SPEC CPU 2006 benchmarks (file-input taint) and 7
network workloads — curl, wget, mySQL, and the Apache server under four
trust policies (apache, apache-25/50/75).  We cannot ship SPEC or run
Pin, so each benchmark is encoded as a :class:`WorkloadProfile` — its
spatio-temporal taint-locality fingerprint as reported in Tables 1–4 and
Figures 5/6 — from which :mod:`~repro.workloads.generator` synthesises:

* an **epoch stream** at the paper's full 500 M-instruction scale (used
  by the temporal analyses and the S-LATCH/P-LATCH performance models);
* an **access trace** (a scaled window of individually addressed memory
  accesses) used by the spatial analyses and the cache simulations; and
* a **taint layout** (the tainted extents in the address space).

Real toy-ISA *programs* for examples and integration tests live in
:mod:`~repro.workloads.programs` and :mod:`~repro.workloads.attacks`.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.workloads.trace": (
        "AccessTrace", "Epoch", "EpochStream", "TaintLayout",
    ),
    "repro.workloads.profiles": (
        "NETWORK_PROFILES", "SPEC_PROFILES", "WorkloadProfile",
        "all_profiles", "get_profile",
    ),
    "repro.workloads.generator": ("WorkloadGenerator",),
    "repro.workloads.engines": (
        "SERVICE_PROFILES", "SERVICE_SUITE", "DynamicWorkload",
        "ImageLoadWorkload", "KeyValueWorkload", "Phase", "PhaseSchedule",
        "RequestParseWorkload", "ServiceWorkload", "TraceReplayWorkload",
        "bursty_schedule", "characterize", "diurnal_schedule",
        "engine_schedule", "make_generator", "storm_schedule",
    ),
})
