"""Command-line tools.

* ``python -m repro.tools.asm``     — assemble toy-ISA source to machine code.
* ``python -m repro.tools.disasm``  — disassemble machine code.
* ``python -m repro.tools.stats``   — ``repro-stats``: run a toy-ISA
  program (under DIFT, S-LATCH, P-LATCH or no monitoring, with virtual
  files as taint sources) or a workload profile, and report its metrics.
* ``python -m repro.tools.trace``   — per-instruction taint trace of a
  program run.
* ``python -m repro.tools.timeline`` — ``repro-trace``: merge the
  per-process trace shards left by ``repro-run --trace``, validate the
  span tree, print a timing summary and export Chrome trace-event JSON.

Experiment *suites*, the paper's artefacts among them, are run by the
separate ``repro-run`` entry point (:mod:`repro.runner.cli`).
"""
