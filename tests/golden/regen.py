"""Regenerate the golden fixtures in this directory.

Run from the repository root::

    PYTHONPATH=src:. python tests/golden/regen.py

Produces, per pinned workload, two ``.ltrace`` containers:

* ``<name>_w2000_s0.ltrace``  — a 2 000-instruction :class:`AccessTrace`
  window (access-trace kind),
* ``<name>_epochs_s0.ltrace`` — a 100 k-instruction :class:`EpochStream`
  (epoch-stream kind),

plus ``expected.json`` (the replay results the kernels and their
per-access oracles must both reproduce exactly) and
``corrupt_trace.ltrace`` (the gcc window cut off mid-section: a real
on-disk truncation that must raise :class:`StorageFormatError` at open
time).

The gcc window doubles as the v1 layout pin: the conformance suite
asserts that re-encoding it is **byte-identical** to the committed
file, so any change to the binary layout (prologue, alignment, section
order, directory JSON) fails loudly against a file an earlier build
wrote.

The fixtures are committed; regenerate them only when the workload
generator, the snapshot format or the ``.ltrace`` format version
changes *intentionally*, and say so in the commit message — a diff here
means every consumer's numbers moved.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.trace.convert import save_columnar_epochs, save_columnar_trace
from repro.workloads import WorkloadGenerator, get_profile
from tests import kernel_oracles

GOLDEN_DIR = Path(__file__).parent
WORKLOADS = ("gcc", "curl")
TRACE_WINDOW = 2_000
EPOCH_SCALE = 100_000
SEED = 0


def main() -> None:
    expected = {}
    for name in WORKLOADS:
        generator = WorkloadGenerator(get_profile(name), seed=SEED)
        trace = generator.access_trace(TRACE_WINDOW)
        stream = generator.epoch_stream(EPOCH_SCALE)
        save_columnar_trace(
            trace, GOLDEN_DIR / f"{name}_w{TRACE_WINDOW}_s{SEED}.ltrace"
        )
        save_columnar_epochs(
            stream, GOLDEN_DIR / f"{name}_epochs_s{SEED}.ltrace"
        )
        baseline = kernel_oracles.run_baseline(trace)
        expected[name] = {
            "hlatch_snapshot": kernel_oracles.hlatch_snapshot(trace).to_dict(),
            "baseline": {
                "accesses": baseline.accesses,
                "misses": baseline.misses,
            },
            "epoch_profile": {
                str(threshold): value
                for threshold, value in kernel_oracles.epoch_duration_profile(
                    stream
                ).items()
            },
        }

    (GOLDEN_DIR / "expected.json").write_text(
        json.dumps(expected, indent=2, sort_keys=True) + "\n"
    )

    # Cut inside the section payloads, past the prologue: the directory
    # pointer now aims beyond the end of file.
    intact = (GOLDEN_DIR / f"gcc_w{TRACE_WINDOW}_s{SEED}.ltrace").read_bytes()
    (GOLDEN_DIR / "corrupt_trace.ltrace").write_bytes(
        intact[: len(intact) // 3]
    )
    print(f"wrote fixtures for {WORKLOADS} into {GOLDEN_DIR}")


if __name__ == "__main__":
    main()
