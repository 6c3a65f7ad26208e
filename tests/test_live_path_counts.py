"""Pinned counts of a live-taint-shaped pipeline run.

An ``echo_server`` over 40 seeded request bodies of 120-240 B, a
quarter of the connections trusted (the paper's apache-25 policy),
monitored by a :class:`StreamingPipeline` with default configuration.
Every simulated count — per-reason gate admissions, the enqueue
fraction, the stall model, the queue high water, the CTC's lookups —
is pinned, so a change to the admitted path that moves any of them
fails here.  The run also takes no quiet-stretch attempt that commits
nothing.
"""

import random

from repro.pipeline import PipelineConfig, StreamingPipeline
from repro.workloads import programs

REQUESTS = 40
TRUSTED_SHARE = 0.25


def echo_cpu(seed=0, requests=REQUESTS):
    """An echo_server CPU over seeded 120-240 B bodies, 25% trusted."""
    rng = random.Random(f"live-taint:{seed}")
    lengths = [120 + (120 * i) // (requests - 1) for i in range(requests)]
    trusted = [i < round(TRUSTED_SHARE * requests) for i in range(requests)]
    rng.shuffle(lengths)
    rng.shuffle(trusted)
    bodies = [bytes(rng.randrange(32, 127) for _ in range(length))
              for length in lengths]
    return programs.echo_server(bodies, trusted).make_cpu()


def test_live_taint_counts_are_pinned():
    cpu = echo_cpu()
    pipeline = StreamingPipeline(cpu, config=PipelineConfig())
    attempts = []
    run_quiet = cpu._run_quiet

    def counting_run_quiet(*args):
        committed = run_quiet(*args)
        attempts.append(committed)
        return committed

    cpu._run_quiet = counting_run_quiet
    assert pipeline.run() == 65894
    assert cpu.halted

    gate = pipeline.gate.stats
    assert (gate.register_hits, gate.memory_hits, gate.pending_hits,
            gate.writeback_hits) == (10970, 5471, 0, 25)
    assert (pipeline.stats.instructions, pipeline.stats.enqueued) == (
        65894, 16466)
    assert pipeline.stats.enqueue_fraction == 16466 / 65894
    assert pipeline.model.stall_cycles == 15581.999999999683
    assert pipeline.queue.high_water == 64
    assert pipeline.stats.queue_full_stalls == 0
    assert pipeline.engine.stats.tainted_instructions == 15930
    ctc = pipeline.latch.ctc.stats
    assert (ctc.accesses, ctc.hits, ctc.misses) == (5703, 5702, 1)

    assert len(attempts) == 5659
    assert min(attempts) > 0
