"""Mask-guided transition clips between consecutive edit states.

A clip skeleton is [x_start, ε, …, ε, x_end]. Each middle frame is denoised
from step k=⌊γT⌋ down to 1 under the condition interpolated by its frame
position, then composited against the endpoint average outside the ROI. The
middle frames that share a condition (all of them when the endpoints do) run
as one (B, *event) batch; each frame's result is the one it gets alone. The
endpoint frames are the skeleton's, unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from .denoiser import blend_conditions
from .errors import InvalidArgument, SeamMismatch, ShapeMismatch
from .pie import composite_roi, stage_step_count, validate_mask
from .scheduler import NoiseSchedule, ddim_chain


@dataclass
class VideoClip:
    """K×(image shape) frame stack, K ≥ 2."""

    frames: np.ndarray

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.float64)
        if self.frames.ndim < 2 or self.frames.shape[0] < 2:
            raise InvalidArgument("a clip needs at least two frames")
        if not np.all(np.isfinite(self.frames)):
            raise InvalidArgument("clip frames must be finite")

    @property
    def K(self) -> int:
        return int(self.frames.shape[0])


def make_clip_skeleton(x_start, x_end, K: int, seed: int, tag: tuple = ()) -> VideoClip:
    """[x_start, noise…, x_end]; middle frame j is unit-normal from stream (seed, j, 0, *tag)."""
    if K < 2:
        raise InvalidArgument(f"K must be >= 2, got {K}")
    x_start = np.asarray(x_start, dtype=np.float64)
    x_end = np.asarray(x_end, dtype=np.float64)
    if x_start.shape != x_end.shape:
        raise ShapeMismatch(f"x_start {x_start.shape} vs x_end {x_end.shape}")
    frames = np.empty((K,) + x_start.shape)
    frames[0] = x_start
    frames[K - 1] = x_end
    for j in range(1, K - 1):
        frames[j] = rng.normal(x_start.shape, seed, stage=j, tag=tag)
    return VideoClip(frames=frames)


def generate_transition(skel: VideoClip, m, d, s: NoiseSchedule, y_start, y_end,
                        gamma: float) -> VideoClip:
    """Denoise the skeleton's middle frames into a coherent transition clip."""
    k = stage_step_count(gamma, s)
    K = skel.K
    x_start, x_end = skel.frames[0], skel.frames[K - 1]
    mask = validate_mask(m, x_start.shape)

    frames = skel.frames.copy()
    avg = 0.5 * (x_start + x_end)
    ys = {j: blend_conditions(y_start, y_end, j / (K - 1)) for j in range(1, K - 1)}
    for y in dict.fromkeys(ys.values()):
        rows = [j for j, y_j in ys.items() if y_j == y]
        gen = ddim_chain(frames[rows], k, d, y, s)
        frames[rows] = composite_roi(gen, np.broadcast_to(avg, gen.shape), mask, 0.0, 1.0)
    return VideoClip(frames=frames)


def concat_clips(clips: list[VideoClip]) -> VideoClip:
    """Concatenate clips, dropping each duplicated seam frame once."""
    if not clips:
        raise InvalidArgument("need at least one clip")
    if len(clips) == 1:
        return clips[0]
    shapes = {c.frames.shape[1:] for c in clips}
    if len(shapes) != 1:
        raise ShapeMismatch(f"clips disagree on frame shape: {sorted(map(str, shapes))}")
    parts = [clips[0].frames]
    for i, (prev, nxt) in enumerate(zip(clips, clips[1:])):
        gap = np.max(np.abs(prev.frames[-1] - nxt.frames[0]))
        if gap > 1e-9:
            raise SeamMismatch(
                f"clip {i} last frame vs clip {i + 1} first frame differ by {gap:.3e}")
        parts.append(nxt.frames[1:])
    return VideoClip(frames=np.concatenate(parts, axis=0))
