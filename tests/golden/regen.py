"""Regenerate the golden fixtures in this directory.

Run from the repository root::

    PYTHONPATH=src:. python tests/golden/regen.py

Produces, per pinned workload:

* ``<name>_w2000_s0.npz``  — a 2 000-access :class:`AccessTrace` window,
* ``<name>_epochs_s0.npz`` — a 100 k-instruction :class:`EpochStream`,

plus ``expected.json`` (the replay results the kernels and their
per-access oracles must both reproduce exactly) and ``corrupt.npz``
(a deliberately truncated archive that must raise
:class:`StorageFormatError`).

The fixtures are committed; regenerate them only when the workload
generator or the snapshot format changes *intentionally*, and say so in
the commit message — a diff here means every consumer's numbers moved.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.workloads import WorkloadGenerator, get_profile
from repro.workloads.storage import save_access_trace, save_epoch_stream
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
        save_access_trace(trace, GOLDEN_DIR / f"{name}_w{TRACE_WINDOW}_s{SEED}.npz")
        save_epoch_stream(stream, GOLDEN_DIR / f"{name}_epochs_s{SEED}.npz")
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

    # A real on-disk corruption: a valid archive cut off mid-stream.
    intact = (GOLDEN_DIR / f"gcc_w{TRACE_WINDOW}_s{SEED}.npz").read_bytes()
    (GOLDEN_DIR / "corrupt.npz").write_bytes(intact[: len(intact) // 3])
    print(f"wrote fixtures for {WORKLOADS} into {GOLDEN_DIR}")


if __name__ == "__main__":
    main()
