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

from repro.workloads.trace import AccessTrace, Epoch, EpochStream, TaintLayout
from repro.workloads.profiles import (
    NETWORK_PROFILES,
    SPEC_PROFILES,
    WorkloadProfile,
    all_profiles,
    get_profile,
)
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.engines import (
    SERVICE_PROFILES,
    SERVICE_SUITE,
    DynamicWorkload,
    ImageLoadWorkload,
    KeyValueWorkload,
    Phase,
    PhaseSchedule,
    RequestParseWorkload,
    ServiceWorkload,
    TraceReplayWorkload,
    bursty_schedule,
    characterize,
    diurnal_schedule,
    engine_schedule,
    make_generator,
    storm_schedule,
)

__all__ = [
    "AccessTrace",
    "DynamicWorkload",
    "Epoch",
    "EpochStream",
    "ImageLoadWorkload",
    "KeyValueWorkload",
    "NETWORK_PROFILES",
    "Phase",
    "PhaseSchedule",
    "RequestParseWorkload",
    "SERVICE_PROFILES",
    "SERVICE_SUITE",
    "SPEC_PROFILES",
    "ServiceWorkload",
    "TaintLayout",
    "TraceReplayWorkload",
    "WorkloadGenerator",
    "WorkloadProfile",
    "all_profiles",
    "bursty_schedule",
    "characterize",
    "diurnal_schedule",
    "engine_schedule",
    "get_profile",
    "make_generator",
    "storm_schedule",
]
