"""Execution-trace recording: real programs → analysis artefacts.

:class:`TraceRecorder` observes a CPU (alongside a
:class:`repro.dift.DIFTEngine`, which it needs for precise taint
status) and reconstructs the same artefacts the synthetic workload
generator produces:

* an :class:`repro.workloads.trace.AccessTrace` of the run's memory
  accesses, and
* an :class:`repro.workloads.trace.EpochStream` of its taint-free /
  taint-active epochs (an epoch boundary is any transition between
  taint-touching and taint-free instructions).

This closes the loop between the two halves of the reproduction: any
toy-ISA program can be run once and then fed to the Section 3 locality
analyses and the H-LATCH / baseline cache simulations, exactly like the
calibrated synthetic workloads.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.dift.engine import DIFTEngine
from repro.machine.events import Observer, StepEvent
from repro.workloads.trace import AccessTrace, EpochStream, TaintLayout


class TraceRecorder(Observer):
    """Record a real execution as access/epoch traces.

    Attach *after* the DIFT engine so taint propagation for each step
    has already happened when the recorder samples it:

    .. code-block:: python

        engine = DIFTEngine()
        recorder = TraceRecorder(engine, name="file-filter")
        cpu.attach(engine)
        cpu.attach(recorder)
        cpu.run()
        trace = recorder.access_trace()
        stream = recorder.epoch_stream()

    Args:
        engine: the DIFT engine tracking the same CPU.
        name: label for the produced artefacts.
    """

    def __init__(self, engine: DIFTEngine, name: str = "recorded") -> None:
        from repro.dift.tags import ShadowMemory

        self.engine = engine
        self.name = name
        # Bytes that were EVER tainted — Table 3/4's "pages that received
        # tainted data in the course of execution" (final state would
        # miss transient taint).
        self._ever_tainted = ShadowMemory()
        engine.add_tag_listener(self._on_tag_write)
        self._addresses: List[int] = []
        self._sizes: List[int] = []
        self._writes: List[bool] = []
        self._tainted: List[bool] = []
        self._gaps: List[int] = []
        self._active: List[bool] = []
        self._access_epoch_start: List[int] = []
        self._gap_counter = 0
        # Epoch reconstruction.
        self._epoch_lengths: List[int] = []
        self._epoch_marks: List[int] = []
        self._current_length = 0
        self._current_marks = 0
        self._current_tainted: Optional[bool] = None
        self._touched_pages: set = set()

    def _on_tag_write(self, address: int, tags: bytes) -> None:
        for offset, tag in enumerate(tags):
            if tag:
                self._ever_tainted.set(address + offset, tag)

    # ------------------------------------------------------------ observer

    def on_step(self, event: StepEvent) -> None:
        touched = self.engine.last_touched

        # Epoch accounting: a run of taint-touching or taint-free
        # instructions forms one epoch.
        if self._current_tainted is None:
            self._current_tainted = touched
        if touched != self._current_tainted:
            self._flush_epoch()
            self._current_tainted = touched
        self._current_length += 1
        if touched:
            self._current_marks += 1

        # Access accounting.
        accesses = event.memory_accesses
        if not accesses:
            self._gap_counter += 1
            return
        for index, access in enumerate(accesses):
            self._addresses.append(access.address)
            self._sizes.append(access.size)
            self._writes.append(access.is_write)
            self._tainted.append(
                self.engine.shadow.any_tainted(access.address, access.size)
                or touched
            )
            self._gaps.append(self._gap_counter if index == 0 else 0)
            self._active.append(touched)
            self._touched_pages.add(access.address // 4096)
        self._gap_counter = 0

    def _flush_epoch(self) -> None:
        if self._current_length:
            self._epoch_lengths.append(self._current_length)
            self._epoch_marks.append(
                self._current_marks if self._current_tainted else 0
            )
        self._current_length = 0
        self._current_marks = 0

    # ------------------------------------------------------------- output

    @property
    def trailing_gap(self) -> int:
        """Non-memory instructions after the last recorded access.

        ``access_trace().total_instructions + trailing_gap`` equals the
        committed instruction count of the recorded run.
        """
        return self._gap_counter

    def access_trace(self) -> AccessTrace:
        """The recorded run as an access trace (layout from shadow state).

        The taint layout covers every byte that was *ever* tainted
        during the run (the paper's Table 3/4 definition — pages that
        received tainted data in the course of execution) plus every
        page the run touched; per-access ``tainted`` flags were sampled
        live, so transient taint is captured faithfully.  Any non-memory
        instructions after the final access are reported via
        :attr:`trailing_gap` (the trace format anchors gaps to the
        access that follows them).
        """
        extents = _extents_from_shadow(self._ever_tainted)
        layout = TaintLayout(
            extents=extents,
            accessed_pages=set(self._touched_pages),
        )
        return AccessTrace(
            name=self.name,
            addresses=np.array(self._addresses, dtype=np.int64),
            sizes=np.array(self._sizes, dtype=np.uint8),
            is_write=np.array(self._writes, dtype=bool),
            tainted=np.array(self._tainted, dtype=bool),
            gap_before=np.array(self._gaps, dtype=np.int64),
            active_epoch=np.array(self._active, dtype=bool),
            layout=layout,
        )

    def epoch_stream(self) -> EpochStream:
        """The recorded run's alternating epoch structure."""
        lengths = list(self._epoch_lengths)
        marks = list(self._epoch_marks)
        if self._current_length:
            lengths.append(self._current_length)
            marks.append(self._current_marks if self._current_tainted else 0)
        return EpochStream(
            name=self.name,
            lengths=np.array(lengths, dtype=np.int64),
            tainted_counts=np.array(marks, dtype=np.int64),
        )


def _extents_from_shadow(shadow) -> List[tuple]:
    """Coalesce a shadow memory's tainted bytes into (start, length) runs."""
    extents: List[tuple] = []
    run_start: Optional[int] = None
    previous = None
    for address in shadow.iter_tainted_bytes():
        if run_start is None:
            run_start = address
        elif address != previous + 1:
            extents.append((run_start, previous - run_start + 1))
            run_start = address
        previous = address
    if run_start is not None:
        extents.append((run_start, previous - run_start + 1))
    return extents
