"""Shared pytest configuration.

Registers a ``deep`` Hypothesis profile: more examples, derandomized, no
deadline.  Select it with ``--hypothesis-profile=deep`` for a longer,
reproducible property run; the default profile is unchanged.
"""

try:
    from hypothesis import settings
except ImportError:  # a dev extra: only the property tests need it
    settings = None

if settings is not None:
    settings.register_profile(
        "deep", max_examples=2000, derandomize=True, deadline=None
    )
