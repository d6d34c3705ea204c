"""The tests' reference stream: numpy's own generator of a named stream.

stream(seed, *path) builds the generator that fedfew.numerics.Streams serves
for (seed, path) from numpy's parts, one SeedSequence and one Philox per
call, so the tests draw their inputs from it and check Streams against it.
"""

import numpy as np


def stream(seed: int, *path: int) -> np.random.Generator:
    """Generator(Philox(SeedSequence(seed, spawn_key=path)))."""
    seq = np.random.SeedSequence(seed, spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(seq))
