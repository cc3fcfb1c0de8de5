"""Mask-guided transition clips between consecutive edit states.

A clip is a (K, *event) frame stack, K ≥ 2. Its skeleton is
[x_start, ε, …, ε, x_end]. Each middle frame is denoised from step k=⌊γT⌋
down to 1 under the condition interpolated by its frame position, then
composited against the endpoint average outside the ROI. One
``generate_transition`` call takes a run's skeletons together and returns its
clips as one (n, K, *event) stack: the middle frames of every clip that share
a condition (all of them when every clip's endpoints do) run as one
(B, *event) batch, and each frame's result is the one it gets alone. The
endpoint frames are the skeleton's, unchanged. ``concat_clips`` joins clips
into one frame stack. Both reject a clip of fewer than two frames or with a
non-finite frame.
"""

from __future__ import annotations

import numpy as np

from . import rng
from .denoiser import blend_conditions
from .errors import InvalidArgument, SeamMismatch, ShapeMismatch
from .pie import composite_roi, stage_step_count, validate_mask
from .scheduler import _check_same_shape, ddim_chain


def _checked_clip(frames) -> np.ndarray:
    """frames as a float64 (K, *event) stack, checked to hold K ≥ 2 finite frames."""
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim < 2 or frames.shape[0] < 2:
        raise InvalidArgument("a clip needs at least two frames")
    if not np.all(np.isfinite(frames)):
        raise InvalidArgument("clip frames must be finite")
    return frames


def make_clip_skeleton(x_start, x_end, K: int, seed: int, clip: int, video_seed: int) -> np.ndarray:
    """The (K, *event) stack [x_start, noise…, x_end]; middle frame j is
    unit-normal from stream (seed, *rng.clip_key(clip, video_seed), j)."""
    if K < 2:
        raise InvalidArgument(f"K must be >= 2, got {K}")
    x_start = np.asarray(x_start, dtype=np.float64)
    x_end = np.asarray(x_end, dtype=np.float64)
    _check_same_shape(x_start, x_end, "x_start vs x_end")
    frames = np.empty((K,) + x_start.shape)
    frames[0] = x_start
    frames[K - 1] = x_end
    for j in range(1, K - 1):
        frames[j] = rng.normal(x_start.shape, seed, *rng.clip_key(clip, video_seed), j)
    return frames


def _per_clip(y, n: int, what: str) -> list:
    """One condition per clip: a single condition serves every clip."""
    ys = list(y) if isinstance(y, (list, tuple)) else [y] * n
    if len(ys) != n:
        raise ShapeMismatch(f"{len(ys)} {what} conditions for {n} clips")
    return ys


def generate_transition(skels, m, d, y_start, y_end, gamma: float) -> np.ndarray:
    """Denoise the middle frames of each skeleton into a coherent transition
    clip and return the clips as one (n, K, *event) stack. skels is a list of
    (K, *event) skeletons or an (n, K, *event) stack, all of one K ≥ 2 and
    frame shape, with finite frames; y_start and y_end are one condition for
    every clip or a list of one per clip. k = ⌊γT⌋ is taken on d.schedule."""
    k = stage_step_count(gamma, d.schedule)
    if len(skels) == 0:
        raise InvalidArgument("need at least one skeleton")
    stack = [_checked_clip(skel) for skel in skels]
    shapes = {f.shape for f in stack}
    if len(shapes) != 1:
        raise ShapeMismatch(f"skeletons disagree on K or frame shape: {sorted(map(str, shapes))}")
    frames = np.stack(stack)  # a copy: the skeletons stay as they were
    n, K = frames.shape[:2]
    mask = validate_mask(m, frames.shape[2:])

    avg = 0.5 * (frames[:, 0] + frames[:, K - 1])
    groups: dict = {}  # condition -> the (clip, frame) pairs denoised under it
    ends = zip(_per_clip(y_start, n, "start"), _per_clip(y_end, n, "end"))
    for c, (a, b) in enumerate(ends):
        for j in range(1, K - 1):
            groups.setdefault(blend_conditions(a, b, j / (K - 1)), []).append((c, j))
    for y, pairs in groups.items():
        cs, js = map(list, zip(*pairs))
        frames[cs, js] = ddim_chain(frames[cs, js], k, d, y)
    # clip by clip, so no (rows, *event) copy of the averages joins the batch
    for clip, clip_avg in zip(frames, avg):
        mid = clip[1:K - 1]
        mid[...] = composite_roi(mid, np.broadcast_to(clip_avg, mid.shape), mask, 0.0, 1.0)
    return frames


def concat_clips(clips) -> np.ndarray:
    """Concatenate (K, *event) clips, each of K ≥ 2 finite frames, into one
    frame stack, dropping each duplicated seam frame once."""
    if len(clips) == 0:
        raise InvalidArgument("need at least one clip")
    clips = [_checked_clip(c) for c in clips]
    if len(clips) == 1:
        return clips[0]
    shapes = {c.shape[1:] for c in clips}
    if len(shapes) != 1:
        raise ShapeMismatch(f"clips disagree on frame shape: {sorted(map(str, shapes))}")
    parts = [clips[0]]
    for i, (prev, nxt) in enumerate(zip(clips, clips[1:])):
        gap = np.max(np.abs(prev[-1] - nxt[0]))
        if gap > 1e-9:
            raise SeamMismatch(
                f"clip {i} last frame vs clip {i + 1} first frame differ by {gap:.3e}")
        parts.append(nxt[1:])
    return np.concatenate(parts, axis=0)
