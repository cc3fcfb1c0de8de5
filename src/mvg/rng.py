"""Counter-keyed random streams, and the one place their keys are laid out.

Every stochastic operation draws from a Philox generator keyed by a seed and
the ``SeedSequence`` spawn key (kind, *index). The kind names what the draw is
for, so two artifacts share a stream only if they are the same kind of draw
at the same index; the index locates the draw within its kind:

    START   ()                              start.seed's noisy start image
    SAMPLE  ()                              toydata.sample, kid_reference included
    EDIT    (stage n)                       a run's edit noise at stage n
    PROBE   ()                              a decay probe's one ε
    CLIP    (clip n, video.seed, frame j)   a transition clip's middle frame j
    EMBED   ()                              a random-projection embedder's matrix

Philox is counter-based, so identical keys give identical streams on any
platform and distinct keys give statistically independent streams without
coordination between workers.
"""

import numpy as np

START, SAMPLE, EDIT, PROBE, CLIP, EMBED = range(6)


def stream(seed: int, kind: int, *index: int) -> np.random.Generator:
    """Generator for the stream keyed by seed and (kind, *index)."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(kind), *map(int, index)))
    return np.random.Generator(np.random.Philox(ss))


def normal(shape, seed: int, kind: int, *index: int) -> np.ndarray:
    """One unit-normal array from the keyed stream."""
    return stream(seed, kind, *index).standard_normal(shape)


def clip_key(clip: int, video_seed: int) -> tuple[int, int, int]:
    """Spawn key of transition clip n's frames, less the frame index j."""
    return (CLIP, int(clip), int(video_seed))
