"""Generated-workload pins (``tests/golden/generated.json``).

``expected.json`` pins replay results of committed fixtures; this file
pins what the generator itself produces.  For every profile at seed 0:
a sha256 of the taint layout, of both epoch streams a job consumes and
of a 5 K-instruction access window.  For the tables+overhead suites at
a small scale: a sha256 over every job key and snapshot, and one over
the bytes of every trace-cache artefact the jobs wrote.  Regenerate
with ``tests/golden/regen.py`` only when the generator's output is
meant to change.
"""

from __future__ import annotations

import json

import pytest

from tests.golden import regen

PINS = json.loads((regen.GOLDEN_DIR / "generated.json").read_text())


def test_pins_cover_every_profile_at_the_regen_scales():
    from repro.workloads import all_profiles

    assert set(PINS["profiles"]) == {p.name for p in all_profiles()}
    assert (PINS["seed"], PINS["window"], PINS["epoch_scale"]) == (
        regen.SEED, regen.PIN_WINDOW, regen.PIN_EPOCH_SCALE,
    )


@pytest.mark.parametrize("name", sorted(PINS["profiles"]))
def test_generated_workload_pinned(name):
    assert regen.profile_pins(name) == PINS["profiles"][name]


def test_suite_snapshots_and_trace_cache_pinned():
    assert regen.suite_pins() == PINS["suites"]
