"""Trace dumper CLI: per-instruction listing with taint annotations.

Usage::

    python -m repro.tools.trace program.s --file in.txt=payload.bin \\
        [--limit 200] [--only-tainted]

Prints one line per committed instruction — address, disassembly,
memory effects — and marks the instructions that touch tainted data
with ``T`` plus the tainted operands, making taint flows visible at a
glance.  The debugging companion to ``repro-stats`` program mode.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.dift.engine import DIFTEngine
from repro.isa.assembler import AssemblyError, assemble
from repro.isa.disassembler import format_instruction
from repro.machine.cpu import CPU, ExecutionError
from repro.machine.devices import DeviceTable
from repro.machine.events import Observer


class _TracePrinter(Observer):
    def __init__(self, engine: DIFTEngine, limit: int, only_tainted: bool,
                 out) -> None:
        self.engine = engine
        self.limit = limit
        self.only_tainted = only_tainted
        self.out = out
        self.printed = 0

    def on_step(self, event) -> None:
        touched = self.engine.last_touched
        if self.only_tainted and not touched:
            return
        if self.printed >= self.limit:
            return
        self.printed += 1
        marker = "T" if touched else " "
        text = format_instruction(event.instruction)
        effects = []
        for access in event.reads:
            tainted = self.engine.shadow.any_tainted(access.address, access.size)
            effects.append(
                f"R[{access.address:#x}]{'*' if tainted else ''}"
            )
        for access in event.writes:
            tainted = self.engine.shadow.any_tainted(access.address, access.size)
            effects.append(
                f"W[{access.address:#x}]{'*' if tainted else ''}"
            )
        tainted_regs = [
            f"r{r}*" for r in event.regs_read if self.engine.trf.is_tainted(r)
        ]
        suffix = " ".join(effects + tainted_regs)
        print(
            f"{event.index:8d} {marker} {event.pc:#010x}  {text:32s} {suffix}",
            file=self.out,
        )

    def on_input(self, event) -> None:
        if self.printed < self.limit:
            print(
                f"{'':8s} + input {len(event.data)} bytes from "
                f"{event.source_kind} {event.source_name!r} at "
                f"{event.address:#x}"
                f"{' (tainted)' if event.tainted_hint else ' (trusted)'}",
                file=self.out,
            )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-trace",
        description="Run a program and print a taint-annotated trace.",
    )
    parser.add_argument("source", type=Path)
    parser.add_argument(
        "--file", action="append", default=[],
        metavar="NAME=PATH[:untainted]",
    )
    parser.add_argument("--limit", type=int, default=200,
                        help="maximum trace lines (default 200)")
    parser.add_argument("--only-tainted", action="store_true",
                        help="print only taint-touching instructions")
    parser.add_argument("--max-steps", type=int, default=1_000_000)
    return parser


def main(argv=None) -> int:
    from repro.tools.stats import _parse_file_spec

    args = build_parser().parse_args(argv)
    try:
        program = assemble(args.source.read_text())
    except (OSError, AssemblyError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    devices = DeviceTable()
    try:
        for spec in args.file:
            devices.register_file(_parse_file_spec(spec))
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    cpu = CPU(program, devices=devices)
    engine = DIFTEngine()
    printer = _TracePrinter(engine, args.limit, args.only_tainted, sys.stdout)
    cpu.attach(engine)
    cpu.attach(printer)
    try:
        cpu.run(args.max_steps)
    except ExecutionError as error:
        print(f"execution fault: {error}")
    print(
        f"-- {cpu.step_count} instructions "
        f"({engine.stats.tainted_instructions} touched taint), "
        f"{printer.printed} lines shown, {len(engine.alerts)} alert(s)"
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
