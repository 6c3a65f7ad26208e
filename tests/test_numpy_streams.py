"""Pin numpy's random streams at the draws the workload generator uses.

Every generated artefact (``tests/golden/generated.json``, the runner's
job snapshots) is a function of ``numpy.random.Generator`` output.  If
a numpy release changes one of those streams, dozens of sha and
snapshot comparisons fail at once with nothing pointing at the cause.
This test fails first, and says which numpy it ran under.

The values were recorded with numpy 2.4.6 on Python 3.11, the only
combination the pins have been checked on.
"""

import numpy as np

EXPECTED = {
    "integers": [850, 636, 511, 269, 307, 40],
    "integers_scalar": 6,
    "lognormal": [
        "0x1.9af2bef43a49dp-1", "0x1.5adf5f00c5db7p+0",
        "0x1.942865ed64ce9p-1", "0x1.0c0ae9bc6429dp-3",
    ],
    "choice": [29, 10, 80, 25, 41],
    "choice_weighted": [3, 5, 13, 8, 3],
}


def _draws():
    return {
        "integers": np.random.default_rng(0).integers(
            0, 1000, size=6
        ).tolist(),
        "integers_scalar": int(np.random.default_rng(4).integers(0, 9)),
        # Layout jitter draws use exactly these parameters.
        "lognormal": [
            float(value).hex()
            for value in np.random.default_rng(1).lognormal(
                mean=-0.6, sigma=1.1, size=4
            )
        ],
        "choice": np.random.default_rng(2).choice(
            100, size=5, replace=False
        ).tolist(),
        "choice_weighted": np.random.default_rng(3).choice(
            [3, 5, 8, 13], size=5, p=[0.1, 0.2, 0.3, 0.4]
        ).tolist(),
    }


def test_numpy_random_streams_are_pinned():
    draws = _draws()
    changed = sorted(
        name for name in EXPECTED if draws[name] != EXPECTED[name]
    )
    assert not changed, (
        f"numpy {np.__version__} draws different random streams for "
        f"{changed} than the numpy 2.4.6 the generated goldens and job "
        "snapshots were recorded with; regenerate them "
        "(tests/golden/regen.py) under this numpy"
    )
