"""Workload-suite convenience tests."""

import pytest

from repro.workloads.suites import (
    APACHE_SWEEP,
    FULL_SUITE,
    NETWORK_SUITE,
    PAGE_ALIGNED,
    POOR_LOCALITY,
    SPEC_SUITE,
    iter_generators,
    profiles_for,
)


class TestSuiteContents:
    def test_sizes(self):
        assert len(SPEC_SUITE) == 20
        assert len(NETWORK_SUITE) == 7
        assert len(FULL_SUITE) == 27

    def test_ordering_spec_first(self):
        assert FULL_SUITE[:20] == SPEC_SUITE
        assert FULL_SUITE[20:] == NETWORK_SUITE

    def test_special_groups_subsets(self):
        assert set(POOR_LOCALITY) <= set(SPEC_SUITE)
        assert set(PAGE_ALIGNED) <= set(SPEC_SUITE)
        assert set(APACHE_SWEEP) <= set(NETWORK_SUITE)

    def test_profiles_for(self):
        profiles = profiles_for(POOR_LOCALITY)
        assert [p.name for p in profiles] == list(POOR_LOCALITY)
        with pytest.raises(KeyError):
            profiles_for(["nope"])


class TestHelpers:
    def test_iter_generators(self):
        pairs = list(iter_generators(PAGE_ALIGNED, seed=4))
        assert [name for name, _ in pairs] == list(PAGE_ALIGNED)
        for name, generator in pairs:
            assert generator.profile.name == name
            assert generator.seed == 4

    def test_suite_summary(self):
        # The per-benchmark suite summary is the zoo characterization.
        from repro.workloads import characterize

        summary = characterize(["gcc", "curl"], epoch_scale=500_000)
        assert set(summary) == {"gcc", "curl"}
        assert summary["gcc"]["taint_percent"] == pytest.approx(0.08, rel=0.5)
        assert summary["curl"]["pages_accessed"] == 600
