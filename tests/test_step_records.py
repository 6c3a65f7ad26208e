"""A step record is (pc, word, address, next_pc, syscall): both carriers
of the commit stream's rows rebuild the live CPU's ``StepEvent``s
field-exactly.

Registers, access sizes and access directions are derived from the
instruction word on decode (:func:`repro.machine.cpu.step_event`), so
the ``.ltrace`` event trace (:func:`repro.trace.record.iter_events`)
and the wire batches sliced from the same recorder
(:func:`repro.serve.protocol.decode_batch`) must both reproduce every
field of every step the live machine committed, over every program
family the repo runs.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.check.corpus import load_corpus
from repro.check.generator import generate_program
from repro.check.workloads import image_program, kv_program, parse_program
from repro.machine.events import Observer, StepEvent
from repro.serve.protocol import decode_batch
from repro.trace.record import TraceRecorder, iter_events
from repro.workloads import programs

CORPUS = Path(__file__).parent / "corpus"

#: ``name -> make_cpu`` for every program family.
FACTORIES = {
    **{f"corpus:{cp.name}": cp.make_cpu for cp in load_corpus(CORPUS)},
    **{f"family:{build.__name__}": build(0).make_cpu
       for build in (kv_program, parse_program, image_program)},
    **{f"scenario:{build.__name__}": build().make_cpu
       for build in (programs.file_filter, programs.checksum,
                     programs.substitution_cipher, programs.echo_server,
                     programs.phased_compute)},
    **{f"generated:{seed}": generate_program(seed).make_cpu
       for seed in range(100)},
}


class _StepLog(Observer):
    def __init__(self) -> None:
        self.steps = []

    def on_step(self, event) -> None:
        self.steps.append(event)


def test_every_family_is_covered():
    assert sum(name.startswith("corpus:") for name in FACTORIES) >= 7
    assert len(FACTORIES) >= 7 + 3 + 5 + 100


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_both_encodings_rebuild_live_steps(name):
    cpu = FACTORIES[name]()
    live, recorder = _StepLog(), TraceRecorder(name=name)
    for observer in (live, recorder):
        cpu.attach(observer)
    cpu.run(200_000)
    assert cpu.halted and live.steps, name
    columnar = [event for event in iter_events(recorder.to_bytes())
                if isinstance(event, StepEvent)]
    assert columnar == live.steps
    served = [payload for start in range(0, len(recorder), 512)
              for kind, payload in decode_batch(
                  json.loads(json.dumps(recorder[start:start + 512])))
              if kind == "step"]
    assert served == live.steps
