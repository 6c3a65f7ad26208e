"""Named workload suites and sweep helpers.

Thin conveniences over :mod:`repro.workloads.profiles` used by the
benchmark harness, the ``repro-run`` CLI, and downstream sweeps:

* :data:`SPEC_SUITE` / :data:`NETWORK_SUITE` / :data:`FULL_SUITE` — the
  paper's benchmark groupings, in its column order.
* :data:`POOR_LOCALITY` / :data:`PAGE_ALIGNED` — the subsets the paper
  repeatedly singles out (Sections 3.2–3.3, 6.1, 6.3).
* :data:`EXPERIMENT_SUITES` — the ``repro-run`` job suites, one per
  paper artefact of :mod:`repro.report.artefacts` plus the sweeps.
* :func:`iter_generators` — seeded generators for a suite.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Sequence, Tuple

from repro.report.artefacts import ARTEFACTS
from repro.workloads.engines import SERVICE_SUITE, make_generator
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.profiles import (
    NETWORK_PROFILES,
    SPEC_PROFILES,
    WorkloadProfile,
    get_profile,
)

#: The 20 SPEC CPU 2006 benchmarks, in the paper's column order.
SPEC_SUITE: Tuple[str, ...] = tuple(p.name for p in SPEC_PROFILES)

#: The 7 network applications (apache == apache-0).
NETWORK_SUITE: Tuple[str, ...] = tuple(p.name for p in NETWORK_PROFILES)

#: Everything, SPEC first.
FULL_SUITE: Tuple[str, ...] = SPEC_SUITE + NETWORK_SUITE

#: "The four remaining benchmarks, astar, sphinx, perl and soplex, more
#: closely resemble program B" — the poor-temporal-locality group.
POOR_LOCALITY: Tuple[str, ...] = ("astar", "perlbench", "soplex", "sphinx")

#: "The bzip2, gobmk, and lbm benchmark are notable in that the
#: coarse-grained tainting policies produced few or no false positives."
PAGE_ALIGNED: Tuple[str, ...] = ("bzip2", "gobmk", "lbm")

#: The Apache trust-policy sweep of Section 3.1.
APACHE_SWEEP: Tuple[str, ...] = (
    "apache", "apache-25", "apache-50", "apache-75",
)

#: The workload groups a paper artefact can span: the 20 SPEC benchmarks,
#: the 7 network applications, or every profile (both, then the zoo).
WORKLOAD_GROUPS: Dict[str, Tuple[str, ...]] = {
    "spec": SPEC_SUITE,
    "network": NETWORK_SUITE,
    "all": FULL_SUITE + SERVICE_SUITE,
}

#: Named experiment suites for the :mod:`repro.runner` engine and the
#: ``repro-run`` CLI: suite name → groups of ``(job kind, workloads)``.
#: Kinds are the executors of :mod:`repro.runner.worker`; scales and
#: seeds are supplied at expansion time by
#: :func:`repro.runner.specs.suite_jobs`.
EXPERIMENT_SUITES: Dict[str, Tuple[Tuple[str, Tuple[str, ...]], ...]] = {
    # One suite per paper artefact (Section 6.4 needs no job).
    **{
        artefact.id: (
            ((artefact.kind, WORKLOAD_GROUPS[artefact.group]),)
            if artefact.kind else ()
        )
        for artefact in ARTEFACTS.values()
    },
    # Everything the table benchmarks need, in one sweep.
    "tables": (
        ("taint_fraction", FULL_SUITE),
        ("page_taint", FULL_SUITE),
        ("hlatch", FULL_SUITE),
    ),
    # The Figure 13/14 performance model over the full suite.
    "overhead": (("slatch", FULL_SUITE),),
    # A 6-job end-to-end exercise of every table kind (CI smoke).
    "smoke": (
        ("taint_fraction", ("gcc", "curl")),
        ("page_taint", ("gcc", "curl")),
        ("hlatch", ("gcc", "curl")),
    ),
    # The production workload zoo: service engines and their
    # phase-shifted variants through every table kind.
    "zoo": (
        ("taint_fraction", SERVICE_SUITE),
        ("page_taint", SERVICE_SUITE),
        ("hlatch", SERVICE_SUITE),
    ),
}


def profiles_for(names: Sequence[str]) -> List[WorkloadProfile]:
    """Resolve benchmark names to profiles (KeyError on unknown)."""
    return [get_profile(name) for name in names]


def iter_generators(
    names: Sequence[str] = FULL_SUITE, seed: int = 0
) -> Iterator[Tuple[str, WorkloadGenerator]]:
    """Yield ``(name, generator)`` pairs for a suite.

    Dispatches through :func:`repro.workloads.engines.make_generator`,
    so suite entries may be calibrated profiles, service engines, or
    ``ltrace:`` replay sources.
    """
    for name in names:
        yield name, make_generator(name, seed=seed)
