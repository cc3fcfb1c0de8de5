"""Counter-keyed random streams.

Every stochastic operation draws from a Philox generator keyed by
``(seed, stage, draw)`` through a ``SeedSequence`` spawn key, which a tag
may extend. Philox is counter-based, so identical keys give identical streams
on any platform and independent keys give statistically independent streams
without coordination between workers.
"""

import numpy as np

# Last tag element of transition-clip noise, whose spawn key
# (frame, 0, clip, video seed, CLIP) is longer than any untagged key
CLIP = 1


def stream(seed: int, stage: int = 0, draw: int = 0, tag: tuple = ()) -> np.random.Generator:
    """Generator for the stream keyed by (seed, stage, draw, *tag)."""
    key = (int(stage), int(draw), *map(int, tag))
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=key)
    return np.random.Generator(np.random.Philox(ss))


def normal(shape, seed: int, stage: int = 0, draw: int = 0, tag: tuple = ()) -> np.ndarray:
    """One unit-normal array from the keyed stream."""
    return stream(seed, stage, draw, tag).standard_normal(shape)
