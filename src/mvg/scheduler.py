"""Noise schedules and the DDPM forward / deterministic DDIM reverse primitives.

Conventions: steps are indexed t ∈ {1..T}; ``alpha_bars[t]`` is the cumulative
product Π_{s≤t}(1−β_s) with ``alpha_bars[0] = 1`` reserved for the clean state.
The reverse update is the σ=0 (deterministic) DDIM rule

    x_{t−1} = √ᾱ_{t−1}·(x_t − √(1−ᾱ_t)·ε̂)/√ᾱ_t + √(1−ᾱ_{t−1})·ε̂

Both updates are elementwise, so ``forward_diffuse``, ``ddim_step`` and
``ddim_chain`` take one image (*event) or a batch (B, *event) alike; row b of
a batch gets exactly the values it would get alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, ShapeMismatch


@dataclass(frozen=True)
class NoiseSchedule:
    """Per-step variance increments and their cumulative products.

    betas has length T; alpha_bars has length T+1 with alpha_bars[0] = 1.
    """

    T: int
    betas: np.ndarray
    alpha_bars: np.ndarray

    def __post_init__(self):
        if self.T < 1:
            raise InvalidArgument(f"T must be >= 1, got {self.T}")
        if len(self.betas) != self.T or len(self.alpha_bars) != self.T + 1:
            raise InvalidArgument("schedule table lengths do not match T")
        if self.alpha_bars[0] != 1.0:
            raise InvalidArgument("alpha_bars[0] must be exactly 1")
        if not np.all(np.diff(self.alpha_bars) < 0):
            raise InvalidArgument("alpha_bars must be strictly decreasing")
        if not (np.all(self.alpha_bars > 0) and np.all(self.alpha_bars <= 1)):
            raise InvalidArgument("alpha_bars must lie in (0, 1]")

    def to_dict(self) -> dict:
        return {
            "T": self.T,
            "beta_start": float(self.betas[0]),
            "beta_end": float(self.betas[-1]),
        }


def build_schedule(T: int, beta_start: float | None = None, beta_end: float | None = None) -> NoiseSchedule:
    """Linear β ramp from beta_start to beta_end over T steps.

    Defaults rescale the common 1000-step convention (1e−4, 0.02) by 1000/T so
    that ᾱ stays near 1 at t=1 regardless of T.
    """
    if int(T) != T or T < 1:
        raise InvalidArgument(f"T must be a positive integer, got {T!r}")
    T = int(T)
    # rescaled 1000-step convention; the cap keeps short schedules valid
    if beta_start is None:
        beta_start = min(1e-4 * (1000 / T), 0.5)
    if beta_end is None:
        beta_end = max(min(0.02 * (1000 / T), 0.999), beta_start)
    if not (0 < beta_start <= beta_end < 1):
        raise InvalidArgument(
            f"need 0 < beta_start <= beta_end < 1, got ({beta_start}, {beta_end})"
        )
    betas = np.linspace(beta_start, beta_end, T, dtype=np.float64)
    # extended-precision running product keeps the small-T bound constants stable
    bars = np.cumprod((1.0 - betas).astype(np.longdouble))
    alpha_bars = np.concatenate([[1.0], bars.astype(np.float64)])
    return NoiseSchedule(T=T, betas=betas, alpha_bars=alpha_bars)


def _check_step(t: int, s: NoiseSchedule) -> int:
    if int(t) != t or not (1 <= t <= s.T):
        raise InvalidArgument(f"step index t={t!r} outside 1..{s.T}")
    return int(t)


def _check_batch(shape: tuple, event_shape: tuple, what: str) -> None:
    """Accept one event of event_shape or a (B, *event_shape) batch of them."""
    shape, event_shape = tuple(shape), tuple(event_shape)
    lead = len(shape) - len(event_shape)
    if lead not in (0, 1) or shape[lead:] != event_shape:
        raise ShapeMismatch(f"{what} {shape} is neither {event_shape} nor a (B, *{event_shape}) batch")


def _check_same_shape(a: np.ndarray, b: np.ndarray, what: str) -> None:
    if np.shape(a) != np.shape(b):
        raise ShapeMismatch(f"{what}: {np.shape(a)} vs {np.shape(b)}")


def forward_diffuse(x0: np.ndarray, t: int, eps: np.ndarray, s: NoiseSchedule) -> np.ndarray:
    """√ᾱ_t·x0 + √(1−ᾱ_t)·eps."""
    t = _check_step(t, s)
    x0 = np.asarray(x0, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    _check_same_shape(x0, eps, "x0 vs eps")
    ab = s.alpha_bars[t]
    return np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * eps


def ddim_step(x_t: np.ndarray, t: int, eps_pred: np.ndarray, s: NoiseSchedule) -> np.ndarray:
    """One deterministic reverse step from level t to level t−1."""
    t = _check_step(t, s)
    x_t = np.asarray(x_t, dtype=np.float64)
    eps_pred = np.asarray(eps_pred, dtype=np.float64)
    _check_same_shape(x_t, eps_pred, "x_t vs eps_pred")
    ab_t = s.alpha_bars[t]
    ab_prev = s.alpha_bars[t - 1]
    # in place, bit-identical to x̂₀ = (x_t − √(1−ᾱ_t)·ε̂)/√ᾱ_t, out = √ᾱ_{t−1}·x̂₀ + …:
    # fewer live temporaries keep a wide batch inside the heap malloc has
    # already grown, where the two-line form had it trimmed and re-faulted every step
    out = x_t - np.sqrt(1.0 - ab_t) * eps_pred
    out /= np.sqrt(ab_t)  # x̂₀
    out *= np.sqrt(ab_prev)
    out += np.sqrt(1.0 - ab_prev) * eps_pred
    if not np.all(np.isfinite(out)):
        raise InvalidArgument("non-finite ddim_step output; check schedule and denoiser")
    return out


def ddim_chain(x_k, k: int, denoiser, y) -> np.ndarray:
    """Apply ddim_step on denoiser.schedule from t=k down to t=1 using
    denoiser.predict(x, t, y); x_k is one image or a (B, *event) batch, one y."""
    s = denoiser.schedule
    k = _check_step(k, s)
    x = np.asarray(x_k, dtype=np.float64)
    for t in range(k, 0, -1):
        eps_pred = denoiser.predict(x, t, y)
        x = ddim_step(x, t, eps_pred, s)
    return x
