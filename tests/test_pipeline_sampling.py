"""Selective tracing: the HardTaint-style coverage/overhead dial.

Sampling deliberately trades *coverage* for producer overhead.  The
contract these tests pin down:

* rate == 1.0 is bit-identical to the unsampled pipeline;
* a fixed (rate, window, seed) triple is fully deterministic;
* what sampling drops only ever *shrinks* the tainted set (monitored
  events are still analysed exactly — no spurious taint, no corruption
  of the events that are kept);
* control (INPUT/OUTPUT) events bypass sampling, so sources and sinks
  are never silently lost.
"""

import pytest

from repro.pipeline import SamplingConfig
from repro.workloads import programs

from tests.test_pipeline import (
    attach_pipeline,
    run_pipeline,
    run_reference,
    signature,
)


def run_sampled(build, rate, window=32, seed=0, gate="vector",
                **config_kwargs):
    scenario = build()
    cpu = scenario.make_cpu()
    pipeline = attach_pipeline(
        cpu, gate=gate,
        sampling=SamplingConfig(rate=rate, window=window, seed=seed),
        **config_kwargs,
    )
    cpu.run(300_000)
    pipeline.finish()
    return pipeline


class TestConfigValidation:
    def test_rate_bounds(self):
        with pytest.raises(ValueError):
            SamplingConfig(rate=0.0)
        with pytest.raises(ValueError):
            SamplingConfig(rate=1.5)
        with pytest.raises(ValueError):
            SamplingConfig(window=0)

    def test_active_flag(self):
        assert not SamplingConfig(rate=1.0).active
        assert SamplingConfig(rate=0.5).active


class TestFullRate:
    def test_rate_one_is_bit_identical_to_unsampled(self):
        sampled = run_sampled(lambda: programs.file_filter(), rate=1.0)
        plain = run_pipeline(lambda: programs.file_filter(), None)
        assert sampled.stats.sampled_out == 0
        assert sampled.stats.enqueued == plain.stats.enqueued
        assert signature(sampled.engine) == signature(plain.engine)
        reference = run_reference(lambda: programs.file_filter(), None)
        assert signature(sampled.engine) == signature(reference)


class TestDeterminism:
    @pytest.mark.parametrize("gate", ["scalar", "vector"])
    def test_fixed_seed_replays_identical_coverage(self, gate):
        first = run_sampled(
            lambda: programs.echo_server(), rate=0.3, window=32, seed=9,
            gate=gate,
        )
        second = run_sampled(
            lambda: programs.echo_server(), rate=0.3, window=32, seed=9,
            gate=gate,
        )
        assert first.stats.enqueued == second.stats.enqueued
        assert first.stats.sampled_out == second.stats.sampled_out
        assert first.sampler.windows == second.sampler.windows
        assert first.sampler.windows_skipped == second.sampler.windows_skipped
        assert signature(first.engine) == signature(second.engine)

    def test_different_seeds_usually_differ(self):
        runs = {
            seed: run_sampled(
                lambda: programs.echo_server(), rate=0.5, window=8, seed=seed,
            ).stats.sampled_out
            for seed in (1, 2, 3, 4)
        }
        assert len(set(runs.values())) > 1, (
            f"four seeds produced identical coverage {runs} — the seed "
            "is not reaching the decision stream"
        )


class TestCoverageLoss:
    def test_low_rate_only_shrinks_the_tainted_set(self):
        reference = run_reference(lambda: programs.echo_server(), None)
        sampled = run_sampled(
            lambda: programs.echo_server(), rate=0.2, window=16, seed=3,
        )
        assert sampled.stats.sampled_out > 0
        reference_bytes = set(reference.shadow.iter_tainted_bytes())
        sampled_bytes = set(sampled.engine.shadow.iter_tainted_bytes())
        assert sampled_bytes <= reference_bytes

    def test_sampled_out_counted_and_published(self):
        sampled = run_sampled(
            lambda: programs.echo_server(), rate=0.2, window=16, seed=3,
        )
        snapshot = sampled.snapshot()
        assert snapshot.get("pipeline.events.sampled_out") == (
            sampled.stats.sampled_out
        )
        assert snapshot.get("pipeline.sampling.rate") == pytest.approx(0.2)
        assert snapshot.get("pipeline.sampling.windows_skipped") == (
            sampled.sampler.windows_skipped
        )

    def test_control_events_bypass_sampling(self):
        """Even at the lowest rate, sources and sinks are all delivered."""
        plain = run_pipeline(lambda: programs.echo_server(), None)
        sampled = run_sampled(
            lambda: programs.echo_server(), rate=0.01, window=4, seed=0,
        )
        assert sampled.stats.control_events == plain.stats.control_events
        assert sampled.stats.control_drained == sampled.stats.control_events
