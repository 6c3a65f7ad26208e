"""Regenerate the golden fixtures in this directory.

Run from the repository root::

    PYTHONPATH=src:. python tests/golden/regen.py

Produces, per pinned workload, two ``.ltrace`` containers:

* ``<name>_w2000_s0.ltrace``  — a 2 000-instruction :class:`AccessTrace`
  window (access-trace kind),
* ``<name>_epochs_s0.ltrace`` — a 100 k-instruction :class:`EpochStream`
  (epoch-stream kind),

plus ``expected.json`` (the replay results the kernels and their
per-access oracles must both reproduce exactly),
``generated.json`` (sha256 pins of what the workload generator produces
for every profile, and of every tables+overhead job snapshot and trace
cache artefact at a small scale; see :func:`generated_pins`) and
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

import hashlib
import json
import tempfile
from pathlib import Path
from typing import Dict

import numpy as np

from repro.runner import ResultCache, Runner, RunnerConfig, TraceCache, suite_jobs
from repro.trace.convert import save_columnar_epochs, save_columnar_trace
from repro.workloads import (
    WorkloadGenerator,
    all_profiles,
    get_profile,
    make_generator,
)
from tests import kernel_oracles

GOLDEN_DIR = Path(__file__).parent
WORKLOADS = ("gcc", "curl")
TRACE_WINDOW = 2_000
EPOCH_SCALE = 100_000
SEED = 0

#: Scales of the generated-workload pins (``generated.json``).
PIN_WINDOW = 5_000
PIN_EPOCH_SCALE = 200_000
PIN_SUITES = ("tables", "overhead")
_TRACE_COLUMNS = (
    "addresses", "sizes", "is_write", "tainted", "gap_before", "active_epoch",
)


def _sha(*arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def profile_pins(name: str, seed: int = SEED) -> Dict[str, str]:
    """sha256 of one profile's layout, epoch streams and access window.

    The two epoch streams are the ones a job consumes: the epoch-scale
    stream and the window-scale stream the access trace is cut from.
    """
    generator = make_generator(name, seed=seed)
    layout = generator.layout()
    pages = np.array(sorted(layout.accessed_pages), dtype=np.int64)
    extents = np.asarray(layout.extents, dtype=np.int64).reshape(-1, 2)
    pins = {"layout": _sha(extents, pages)}
    for label, scale in (("epochs", PIN_EPOCH_SCALE), ("window_epochs", PIN_WINDOW)):
        stream = generator.epoch_stream(scale)
        pins[label] = _sha(stream.lengths, stream.tainted_counts)
    trace = generator.access_trace(PIN_WINDOW)
    pins["trace"] = _sha(*(getattr(trace, column) for column in _TRACE_COLUMNS))
    return pins


def suite_pins(seed: int = SEED) -> Dict[str, str]:
    """sha256 over every tables+overhead job (key and snapshot) and over
    the bytes of every trace-cache artefact the jobs wrote."""
    specs = [
        spec
        for suite in PIN_SUITES
        for spec in suite_jobs(suite, epoch_scale=PIN_EPOCH_SCALE,
                               trace_window=PIN_WINDOW, seed=seed)
    ]
    with tempfile.TemporaryDirectory() as cache_dir:
        trace_cache = TraceCache(cache_dir)
        runner = Runner(
            cache=ResultCache(cache_dir),
            trace_cache=trace_cache,
            config=RunnerConfig(max_workers=1),
        )
        results = runner.run(specs)
        artefacts = hashlib.sha256()
        for path in sorted(trace_cache.root.iterdir()):
            artefacts.update(path.read_bytes())
    failed = [job for job, result in results.items() if not result.ok]
    if failed:
        raise RuntimeError(f"pinned jobs failed: {failed}")
    payload = {
        job: {"key": result.spec.key(), "snapshot": result.snapshot.to_dict()}
        for job, result in results.items()
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return {
        "jobs": len(payload),
        "snapshots": hashlib.sha256(blob).hexdigest(),
        "trace_cache": artefacts.hexdigest(),
    }


def generated_pins() -> Dict:
    """The full ``generated.json`` payload."""
    return {
        "seed": SEED,
        "window": PIN_WINDOW,
        "epoch_scale": PIN_EPOCH_SCALE,
        "profiles": {
            profile.name: profile_pins(profile.name) for profile in all_profiles()
        },
        "suites": suite_pins(),
    }


def write_generated() -> None:
    (GOLDEN_DIR / "generated.json").write_text(
        json.dumps(generated_pins(), indent=2, sort_keys=True) + "\n"
    )


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
    write_generated()

    # Cut inside the section payloads, past the prologue: the directory
    # pointer now aims beyond the end of file.
    intact = (GOLDEN_DIR / f"gcc_w{TRACE_WINDOW}_s{SEED}.ltrace").read_bytes()
    (GOLDEN_DIR / "corrupt_trace.ltrace").write_bytes(
        intact[: len(intact) // 3]
    )
    print(f"wrote fixtures for {WORKLOADS} into {GOLDEN_DIR}")


if __name__ == "__main__":
    main()
