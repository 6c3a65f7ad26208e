"""Byte-precise dynamic information flow tracking (DIFT).

This package is the reproduction's equivalent of libdft [Kemerlis et al.,
VEE 2012], the open-source taint tracker the paper uses on top of Intel
Pin: byte-granular shadow memory, a taint register file, the classical
Dynamic Taint Analysis propagation rules, and configurable source/sink
policies with security-exception checking.

Public surface:

* :class:`~repro.dift.tags.ShadowMemory` — byte-granular memory taint.
* :class:`~repro.dift.tags.TaintRegisterFile` — per-register-byte taint.
* :class:`~repro.dift.engine.DIFTEngine` — the complete software tracker,
  attachable to a :class:`repro.machine.CPU` as an observer.
* :class:`~repro.dift.policy.TaintPolicy` — which sources taint, which
  sinks and uses are checked.
* :class:`~repro.dift.events.SecurityAlert` / ``AlertKind`` — violations.
* :mod:`~repro.dift.propagation` — the classical DTA propagation rules,
  compiled into one rule per instruction for the engine.
"""

from repro.dift.tags import ShadowMemory, TaintRegisterFile
from repro.dift.policy import TaintPolicy
from repro.dift.events import AlertKind, SecurityAlert
from repro.dift.engine import DIFTEngine, DIFTStats
from repro.dift.colors import ColorAllocator

__all__ = [
    "AlertKind",
    "ColorAllocator",
    "DIFTEngine",
    "DIFTStats",
    "SecurityAlert",
    "ShadowMemory",
    "TaintPolicy",
    "TaintRegisterFile",
]
