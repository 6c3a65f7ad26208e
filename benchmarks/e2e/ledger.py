"""Per-layer cost accounting measured from outside the product.

A :class:`Ledger` wraps public functions of the ``repro`` packages
(``CPU.step``, ``LatchGate.admit``, ``StreamSession.feed`` ...) and, for
each *layer* a wrapped call belongs to, keeps in memory:

* ``calls`` — how many wrapped calls of that layer ran;
* ``self_s`` — their wall time minus the time of wrapped calls nested
  inside them (a parent's self time is its total minus its children).

Request-level boundaries (a drain, an ``events`` frame, a runner job)
are also kept as spans with a name, start, end, parent span and
stream/job key, and written out as JSONL when the benchmark exits.

Nothing here is imported by the product and nothing is installed until
:meth:`Ledger.install` runs, so untraced runs measure unmodified code.

The module also holds the percentile rule the benchmark reports timings
with, and the layer/metric vocabulary shared by every workload.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import statistics
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Every layer the benchmark accounts for, in report order.
LAYERS: Tuple[str, ...] = (
    "machine",
    "pipeline",
    "pipeline.model",
    "sampler",
    "gate",
    "queue",
    "dift",
    "serve.protocol",
    "serve.session",
    "serve.admission",
    "serve.server",
    "serve.client",
    "runner",
    "workloads",
    "analysis",
    "hlatch",
    "slatch",
)

#: Simulated statistics every run reports (zero where a workload does
#: not reach the layer).  They are computed from a fixed slice of work,
#: so they repeat exactly for a seed and a speed-only change must not
#: move them.
COUNT_NAMES: Tuple[str, ...] = (
    "gate.steps",
    "gate.suppressed_frac",
    "gate.register_hits",
    "gate.memory_hits",
    "gate.pending_hits",
    "gate.writeback_hits",
    "pipeline.enqueue_frac",
    "pipeline.stall_cycles",
    "queue.stalls",
    "queue.high_water",
    "serve.retries",
    "serve.frames",
    "serve.wire_bytes",
    "runner.jobs",
)

_PIPELINE = "repro.pipeline.pipeline:StreamingPipeline"

#: ``(layer, owner, attribute, span name)``: the live path, wrapped in
#: the working process of live-* and in the server of served-streams.
LIVE_TARGETS: Tuple[Tuple[str, str, str, Optional[str]], ...] = (
    ("machine", "repro.machine.cpu:CPU", "step", None),
    ("pipeline", _PIPELINE, "on_step", None),
    ("pipeline", _PIPELINE, "on_input", None),
    ("pipeline", _PIPELINE, "on_output", None),
    ("pipeline", _PIPELINE, "drain", "pipeline.drain"),
    ("pipeline.model", "repro.pipeline.model:StallModel", "commit", None),
    ("sampler", "repro.pipeline.sampling:WindowSampler", "admit", None),
    ("gate", "repro.pipeline.gate:LatchGate", "memory_flags", None),
    ("gate", "repro.pipeline.gate:LatchGate", "admit", None),
    ("queue", "repro.pipeline.queue:BoundedEventQueue", "append", None),
    ("queue", "repro.pipeline.queue:BoundedEventQueue", "popleft", None),
    ("dift", "repro.dift.engine:DIFTEngine", "on_step", None),
    ("dift", "repro.dift.engine:DIFTEngine", "on_input", None),
    ("dift", "repro.dift.engine:DIFTEngine", "on_output", None),
)

_SERVER = "repro.serve.server:TaintServer"
_SESSION = "repro.serve.session:StreamSession"
_ADMISSION = "repro.serve.admission:AdmissionController"

#: The server process of served-streams.  Codec functions are patched
#: where the server looks them up; ``serve.server`` is the request
#: handlers' time not covered by the layers they call.
SERVER_TARGETS = LIVE_TARGETS + (
    ("serve.protocol", "repro.serve.protocol", "decode_payload", None),
    ("serve.protocol", "repro.serve.server", "encode_frame", None),
    ("serve.protocol", "repro.serve.session", "decode_batch", None),
    ("serve.session", _SESSION, "feed", None),
    ("serve.session", _SESSION, "result", None),
    ("serve.admission", _ADMISSION, "admit_events", None),
    ("serve.admission", _ADMISSION, "admit_request", None),
    ("serve.server", _SERVER, "_do_hello", None),
    ("serve.server", _SERVER, "_do_stream_open", None),
    ("serve.server", _SERVER, "_do_events", "serve.events"),
    ("serve.server", _SERVER, "_do_stream_close", None),
)

#: The load generator's own codec work (generator headroom only).
CLIENT_TARGETS = (
    ("serve.client", "repro.serve.client", "encode_frame", None),
    ("serve.client", "repro.serve.protocol", "decode_payload", None),
)

_WORKER = "repro.runner.worker"
_GENERATOR = "repro.workloads.generator:WorkloadGenerator"

#: paper-tables: the runner and the experiment kernels its jobs call,
#: patched where ``repro.runner.worker`` looks them up.
TABLE_TARGETS = (
    ("runner", "repro.runner.scheduler:Runner", "run", None),
    ("runner", "repro.runner.scheduler", "execute_job", "runner.job"),
    ("workloads", _GENERATOR, "epoch_stream", None),
    ("workloads", _GENERATOR, "access_trace", None),
    ("workloads", _GENERATOR, "layout", None),
    ("analysis", _WORKER, "tainted_instruction_fraction", None),
    ("analysis", _WORKER, "page_taint_distribution", None),
    ("hlatch", _WORKER, "run_hlatch", None),
    ("hlatch", _WORKER, "run_baseline", None),
    ("slatch", _WORKER, "measure_hw_rates", None),
    ("slatch", _WORKER, "simulate_slatch", None),
)


def _span_key(name: str, args: tuple) -> Optional[str]:
    """Stream/job id of a request-level call, from its arguments."""
    if name == "serve.events" and len(args) > 2 and isinstance(args[2], dict):
        return str(args[2].get("stream"))
    if name == "runner.job" and args and isinstance(args[0], dict):
        spec = args[0].get("spec", {})
        return f"{spec.get('kind')}:{spec.get('workload')}"
    return None


def resolve(owner: str):
    """``"pkg.module:Class"`` → the class; ``"pkg.module"`` → the module."""
    module_name, _, attribute = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, attribute) if attribute else module


_MISSING = object()


class Ledger:
    """In-memory per-layer call counts, self times and spans."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.calls: Dict[str, int] = {}
        self.self_s: Dict[str, float] = {}
        self.spans: List[Dict] = []
        #: One child-time accumulator per open wrapped call.
        self._frames: List[List[float]] = []
        #: Ids of the open spans (innermost last).
        self._open_spans: List[int] = []
        self._span_ids = 0
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------ wrapping

    def wrap(self, layer: str, fn: Callable, span: Optional[str] = None):
        """``fn`` with its calls charged to ``layer``."""
        calls, self_s, frames = self.calls, self.self_s, self._frames
        calls.setdefault(layer, 0)
        self_s.setdefault(layer, 0.0)
        clock = self.clock

        def wrapper(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                frames.pop()
                calls[layer] += 1
                self_s[layer] += elapsed - frame[0]
                if frames:
                    frames[-1][0] += elapsed

        if span is not None:
            timed = wrapper

            def wrapper(*args, **kwargs):
                with self.span(span, _span_key(span, args)):
                    return timed(*args, **kwargs)

        return functools.update_wrapper(wrapper, fn)

    @contextmanager
    def span(self, name: str, key: Optional[str] = None):
        """Record a span around the block (name, start, end, parent, key)."""
        self._span_ids += 1
        span_id = self._span_ids
        parent = self._open_spans[-1] if self._open_spans else None
        self._open_spans.append(span_id)
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            self._open_spans.pop()
            self.spans.append({"id": span_id, "parent": parent, "name": name,
                               "start": start, "end": end, "key": key})

    # ------------------------------------------------------------ patching

    def patch(self, owner, attribute: str, layer: str,
              span: Optional[str] = None) -> None:
        """Replace ``owner.attribute`` by its wrapped form until restore."""
        original = getattr(owner, attribute)
        own = vars(owner).get(attribute, _MISSING)
        setattr(owner, attribute, self.wrap(layer, original, span))
        self._patches.append((owner, attribute, own))

    def install(self, targets: Iterable[Tuple[str, str, str, Optional[str]]]):
        """Patch every ``(layer, owner, attribute, span)`` target."""
        for layer, owner, attribute, span in targets:
            self.patch(resolve(owner), attribute, layer, span)
        return self

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attribute, own = self._patches.pop()
            if own is _MISSING:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, own)

    # ------------------------------------------------------------- exports

    def to_dict(self) -> Dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s)}

    def write_spans(self, path) -> None:
        with open(path, "w") as handle:
            for record in self.spans:
                handle.write(json.dumps(record, sort_keys=True) + "\n")


def layer_metrics(
    aggregates: Sequence[Dict], base_s: float, layers: Sequence[str] = LAYERS,
) -> Dict[str, float]:
    """``<layer>.calls``/``.self_ms``/``.share`` for every layer.

    ``aggregates`` are :meth:`Ledger.to_dict` dicts (possibly from other
    processes); a layer appearing in several is summed.  ``share`` is
    self time over ``base_s``, the traced wall (or CPU) time the layers
    are meant to account for.
    """
    out: Dict[str, float] = {}
    for layer in layers:
        calls = sum(a["calls"].get(layer, 0) for a in aggregates)
        self_s = sum(a["self_s"].get(layer, 0.0) for a in aggregates)
        out[f"{layer}.calls"] = calls
        out[f"{layer}.self_ms"] = self_s * 1000.0
        out[f"{layer}.share"] = self_s / base_s if base_s > 0 else 0.0
    return out


def coverage(metrics: Dict[str, float]) -> float:
    """Share of the base time the layers' self times account for."""
    return sum(value for name, value in metrics.items()
               if name.endswith(".share"))


# ------------------------------------------------------------ percentiles

#: Candidate reporting percentiles in tenths of a percent, highest first
#: (integers, so "ten samples beyond" is decided exactly).
_PERMILLE = (999, 990, 950, 900, 750, 500)


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (``inf`` entries sort last)."""
    if not values:
        return math.nan
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(count: int) -> Optional[float]:
    """Highest percentile with at least ten samples beyond it."""
    for permille in _PERMILLE:
        if count * (1000 - permille) >= 10 * 1000:
            return permille / 10.0
    return None


def median(values: Sequence[float]) -> float:
    """The middle value (mean of the two middle ones for even counts)."""
    return statistics.median(values) if values else math.nan
