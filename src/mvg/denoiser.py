"""Noise-prediction interface and its two closed-form implementations.

For a mixture prior p(x0|y) = Σᵢ wᵢ·N(μᵢ, σᵢ²I), the marginal at diffusion
level ᾱ is Σᵢ wᵢ·N(√ᾱ·μᵢ, (ᾱσᵢ² + 1−ᾱ)I), so the optimal noise prediction

    ε̂(x, t, y) = −√(1−ᾱ_t)·∇ₓ log p_t(x|y)
               = √(1−ᾱ_t)·Σᵢ rᵢ(x)·(x − √ᾱ_t·μᵢ)/Vᵢ,   Vᵢ = ᾱ_t σᵢ² + 1−ᾱ_t

is available exactly, with responsibilities rᵢ computed in log space. Both
denoisers and the density share one component kernel: the Parzen variant *is*
that kernel at zero component variance (σᵢ = 0, so Vᵢ = 1−ᾱ_t), with uniform
weights over a finite dataset as the means.

``gmm_eps``, ``parzen_eps`` and ``Denoiser.predict`` take one image (*event)
or a batch (B, *event), the event shape being the mixture's or the dataset's
item shape. The kernel works on (B, d) rows; one image is the B=1 case, and
each row's result is bit-identical to evaluating that row alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from .errors import DegenerateMixture, InvalidArgument, ShapeMismatch
from .scheduler import NoiseSchedule, _check_batch, _check_step


@dataclass(frozen=True)
class Condition:
    """Toy stand-in for text conditioning: target class plus severity."""

    class_id: int
    severity: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "severity", float(min(1.0, max(0.0, self.severity))))


@dataclass(frozen=True)
class ConditionBlend:
    """Convex blend of two conditions; resolves to a weighted mixture union."""

    a: Condition
    b: Condition
    weight: float  # 0 -> pure a, 1 -> pure b


def blend_conditions(a: Condition, b: Condition, w: float):
    """Interpolate conditions; a condition blended with itself is itself, and
    other same-class blends lerp severity directly."""
    w = float(w)
    if w <= 0.0 or a == b:
        return a
    if w >= 1.0:
        return b
    if a.class_id == b.class_id:
        return Condition(a.class_id, (1 - w) * a.severity + w * b.severity)
    return ConditionBlend(a, b, w)


@dataclass(frozen=True)
class Mixture:
    """Isotropic Gaussian mixture: weights (m,), means (m, *shape), variances (m,)."""

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        mu = np.asarray(self.means, dtype=np.float64)
        v = np.asarray(self.variances, dtype=np.float64)
        if w.ndim != 1 or len(w) != len(mu) or len(w) != len(v):
            raise InvalidArgument("mixture component counts disagree")
        if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-12:
            raise InvalidArgument("weights must be non-negative and sum to 1")
        if np.any(v <= 0):
            raise InvalidArgument("variances must be positive")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", mu)
        object.__setattr__(self, "variances", v)

    @property
    def event_shape(self) -> tuple:
        return self.means.shape[1:]

    @property
    def dim(self) -> int:
        return int(np.prod(self.event_shape))


def _component_logits(offsets, log_w, var) -> np.ndarray:
    """log(wᵢ·N(x; √ᾱ·μᵢ, VᵢI)) from the offsets x − √ᾱ·μᵢ (B, m, d) of rows x
    (B, d) to components μ (m, d), given diffused variances var = V: a (B, m) table."""
    d = offsets.shape[-1]
    with np.errstate(over="ignore"):  # inf distance -> -inf density
        sq = np.sum(offsets ** 2, axis=-1)
    return log_w - 0.5 * d * np.log(2 * np.pi * var) - sq / (2 * var)


def _logsumexp(a) -> np.float64:
    """log Σ exp(a) over a 1-D real array, bit-identical to
    ``scipy.special.logsumexp(a)``: the maxima are split out of the shifted sum
    (log1p(s/count) + log(count) + max), and a non-finite result falls back to
    the direct log Σ exp(a)."""
    a = np.asarray(a, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        top = a.max()
        at_top = a == top
        count = at_top.sum(dtype=np.float64)
        # zero the maxima rather than drop them: numpy's pairwise sum then runs
        # over the same layout as scipy's, which keeps the bits equal
        s = np.where(at_top, 0.0, np.exp(a - top)).sum()
        out = np.log1p(s / count) + np.log(count) + top
        if not np.isfinite(out):
            out = np.log(np.exp(a).sum())
    return out


def _posterior_eps(x_rows, log_w, mu, var, alpha_bar: float) -> np.ndarray:
    """√(1−ᾱ)·Σᵢ rᵢ(x)·(x − √ᾱ·μᵢ)/Vᵢ per row of x_rows (B, d), with log-space
    responsibilities rᵢ; raises DegenerateMixture when every component weight
    of some row underflows. Every reduction runs along one row's own axis, so
    a row's result does not depend on the other rows."""
    offsets = x_rows[:, None, :] - np.sqrt(alpha_bar) * mu
    comp = _component_logits(offsets, log_w, var)
    # One vectorized pass over the (B, m) table: _logsumexp is per row and rounds
    # differently (log1p split), so it would cost a loop and move every ε̂ by ulps.
    top = comp.max(axis=-1, keepdims=True)
    if not np.isfinite(top).all():
        raise DegenerateMixture("all mixture responsibilities underflowed")
    r = np.exp(comp - (top + np.log(np.exp(comp - top).sum(axis=-1, keepdims=True))))
    offsets /= var[:, None]  # now the score terms (x − √ᾱ·μᵢ)/Vᵢ
    return np.sqrt(1.0 - alpha_bar) * np.einsum("bi,bij->bj", r, offsets)


def mixture_logpdf(x: np.ndarray, mix: Mixture, alpha_bar: float = 1.0) -> float:
    """log density of the ᾱ-diffused mixture at x (ᾱ=1 gives the data density)."""
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    mu = mix.means.reshape(len(mix.weights), -1)
    if x.shape[0] != mu.shape[1]:
        raise ShapeMismatch(f"x has dim {x.shape[0]}, mixture has dim {mu.shape[1]}")
    var = alpha_bar * mix.variances + (1.0 - alpha_bar)
    offsets = x[None, None, :] - np.sqrt(alpha_bar) * mu
    return float(_logsumexp(_component_logits(offsets, np.log(mix.weights), var)[0]))


class GmmModel:
    """Conditional Gaussian mixture: one mixture per class, uniform priors.

    The conditional mixture looked up by a Condition is its class's mixture
    (the denoiser is severity-agnostic beyond the lookup; severity shapes the
    component means at construction time). Blended conditions resolve to the
    weighted union of both mixtures.
    """

    def __init__(self, class_mixtures: dict[int, Mixture]):
        if not class_mixtures:
            raise InvalidArgument("need at least one class")
        shapes = {m.event_shape for m in class_mixtures.values()}
        if len(shapes) != 1:
            raise InvalidArgument("all class mixtures must share an event shape")
        self.class_mixtures = dict(class_mixtures)

    @classmethod
    def single_class(cls, mix: Mixture, class_id: int = 0) -> "GmmModel":
        return cls({class_id: mix})

    @property
    def class_ids(self) -> list[int]:
        return sorted(self.class_mixtures)

    @property
    def event_shape(self) -> tuple:
        return next(iter(self.class_mixtures.values())).event_shape

    def mixture(self, y) -> Mixture:
        if isinstance(y, ConditionBlend):
            ma, mb = self.mixture(y.a), self.mixture(y.b)
            w = float(y.weight)
            return Mixture(
                weights=np.concatenate([(1 - w) * ma.weights, w * mb.weights]),
                means=np.concatenate([ma.means, mb.means]),
                variances=np.concatenate([ma.variances, mb.variances]),
            )
        if y.class_id not in self.class_mixtures:
            raise InvalidArgument(f"unknown class_id {y.class_id}")
        return self.class_mixtures[y.class_id]

    def to_dict(self) -> dict:
        return {
            str(c): {
                "weights": m.weights.tolist(),
                "means": m.means.tolist(),
                "variances": m.variances.tolist(),
            }
            for c, m in self.class_mixtures.items()
        }

    @classmethod
    def from_dict(cls, d: dict) -> "GmmModel":
        return cls(
            {
                int(c): Mixture(
                    weights=np.array(m["weights"]),
                    means=np.array(m["means"]),
                    variances=np.array(m["variances"]),
                )
                for c, m in d.items()
            }
        )


def gmm_eps(x: np.ndarray, t: int, y, m: GmmModel, s: NoiseSchedule) -> np.ndarray:
    """Exact posterior-mean noise E[ε | x_t=x, y] for the diffused mixture, for
    one image (*event) or a batch (B, *event) under the one condition y."""
    t = _check_step(t, s)
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise InvalidArgument("x must be finite")
    mix = m.mixture(y)
    _check_batch(x.shape, mix.event_shape, "x")
    ab = s.alpha_bars[t]
    mu = mix.means.reshape(len(mix.weights), -1)
    var = ab * mix.variances + (1.0 - ab)
    eps = _posterior_eps(x.reshape(-1, mu.shape[1]), np.log(mix.weights), mu, var, ab)
    return eps.reshape(x.shape)


def parzen_eps(x: np.ndarray, t: int, dataset, s: NoiseSchedule) -> np.ndarray:
    """Empirical kernel denoiser: the shared kernel with the dataset as equally
    weighted means and zero component variance (the σ→0 mixture limit); x is
    one item-shaped image or a (B, *item) batch."""
    t = _check_step(t, s)
    if len(dataset) == 0:
        raise InvalidArgument("dataset must be non-empty")
    x = np.asarray(x, dtype=np.float64)
    data = np.asarray(dataset, dtype=np.float64)
    _check_batch(x.shape, data.shape[1:], "x")
    ab = s.alpha_bars[t]
    if 1.0 - ab == 0.0:
        raise InvalidArgument("parzen_eps needs alpha_bar_t < 1")
    n = len(data)
    mu = data.reshape(n, -1)
    eps = _posterior_eps(x.reshape(-1, mu.shape[1]), np.full(n, -np.log(n)), mu,
                         np.full(n, 1.0 - ab), ab)
    return eps.reshape(x.shape)


class Denoiser(Protocol):
    """ε̂ for x of shape (*event) or (B, *event), returned in x's shape."""

    def predict(self, x: np.ndarray, t: int, y) -> np.ndarray: ...


@dataclass(frozen=True)
class GmmDenoiser:
    """Denoiser view of a GmmModel bound to a schedule."""

    model: GmmModel
    schedule: NoiseSchedule

    def predict(self, x, t, y):
        return gmm_eps(x, t, y, self.model, self.schedule)


@dataclass(frozen=True)
class ParzenDenoiser:
    """Denoiser view of a dataset; ignores the condition."""

    dataset: np.ndarray
    schedule: NoiseSchedule

    def predict(self, x, t, y=None):
        return parzen_eps(x, t, self.dataset, self.schedule)


@dataclass(frozen=True)
class FixedDenoiser:
    """Constant-output denoiser, used by tests and degenerate baselines."""

    value: np.ndarray = field(default_factory=lambda: np.zeros(()))

    def predict(self, x, t, y=None):
        return np.broadcast_to(self.value, np.shape(x)).astype(np.float64)


def measure_c2(denoiser, probe_set) -> float:
    """Empirical sup of ‖ε̂‖ over (x, t, y) probes, the bound calculators' C₂."""
    if not probe_set:
        raise InvalidArgument("probe_set must be non-empty")
    return max(float(np.linalg.norm(denoiser.predict(x, t, y))) for x, t, y in probe_set)


def default_probe_set(model: GmmModel, s: NoiseSchedule, seed: int = 0, count: int = 1000):
    """Canonical probes: diffused draws from every class at steps across the schedule."""
    from .toydata import sample  # local import; toydata builds on this module

    rng_steps = np.linspace(1, s.T, num=min(s.T, 8), dtype=int)
    classes = model.class_ids
    probes = []
    per = max(1, count // (len(classes) * len(rng_steps)))
    draw = 0
    for c in classes:
        y = Condition(c, 1.0)
        for t in rng_steps:
            x0s = sample(model, y, per, seed=seed * 7919 + draw)
            for i, x0 in enumerate(x0s):
                eps = np.random.Generator(
                    np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(draw, i)))
                ).standard_normal(x0.shape)
                ab = s.alpha_bars[t]
                probes.append((np.sqrt(ab) * x0 + np.sqrt(1 - ab) * eps, int(t), y))
            draw += 1
    return probes[:count]
