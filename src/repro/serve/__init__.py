"""LATCH-as-a-service: the async multi-tenant taint-checking server.

The subsystem turns the in-process streaming pipeline into a network
service (ROADMAP item: *serving*):

* :mod:`repro.serve.protocol` — length-prefixed JSON framing, the
  message vocabulary, event batches in the ``.ltrace`` row layout, and
  the canonical result signature;
* :mod:`repro.serve.ratelimit` / :mod:`repro.serve.admission` —
  token buckets, the bounded in-flight table, and RETRY-never-drop
  verdict logic;
* :mod:`repro.serve.tenant` — per-tenant limits, state, and
  namespaced metrics (``serve.tenant.<name>.*``);
* :mod:`repro.serve.session` — one private detached pipeline per
  admitted stream, idempotent teardown;
* :mod:`repro.serve.server` — the asyncio server, thread runner, and
  :func:`running_server` helper;
* :mod:`repro.serve.client` — blocking + asyncio clients, trace
  recording, and the local bit-identity reference;
* :mod:`repro.serve.loadgen` — thousands of simulated clients with
  bursty/diurnal arrival phases.

See docs/SERVICE.md for the executable walkthrough.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.serve.admission": (
        "AdmissionController", "InFlightTable", "RetryAdvice", "Slot",
    ),
    "repro.serve.client": (
        "AsyncServeClient", "DecorrelatedBackoff", "RetryExhausted",
        "ServeClient", "ServeError", "ServedResult", "fetch_telemetry",
        "local_reference", "record_trace",
    ),
    "repro.serve.protocol": (
        "MAX_FRAME_BYTES", "PROTOCOL_VERSION", "FrameDecoder",
        "ProtocolError", "canonical_json", "canonical_signature",
    ),
    "repro.serve.ratelimit": ("TokenBucket", "backoff_hint_ms"),
    "repro.serve.server": (
        "ServeConfig", "ServerThread", "TaintServer", "running_server",
    ),
    "repro.serve.session": ("JobRunner", "StreamSession"),
    "repro.serve.tenant": (
        "TenantDirectory", "TenantLimits", "TenantNameError",
        "TenantState", "validate_tenant_name",
    ),
})
