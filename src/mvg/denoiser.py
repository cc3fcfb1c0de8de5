"""Exact noise prediction for a conditional Gaussian-mixture prior.

For a mixture prior p(x0|y) = Σᵢ wᵢ·N(μᵢ, σᵢ²I), the marginal at diffusion
level ᾱ is Σᵢ wᵢ·N(√ᾱ·μᵢ, (ᾱσᵢ² + 1−ᾱ)I), so the optimal noise prediction

    ε̂(x, t, y) = −√(1−ᾱ_t)·∇ₓ log p_t(x|y)
               = √(1−ᾱ_t)·Σᵢ rᵢ(x)·(x − √ᾱ_t·μᵢ)/Vᵢ,   Vᵢ = ᾱ_t σᵢ² + 1−ᾱ_t

is available exactly, with responsibilities rᵢ computed in log space. The
denoiser, the density and the class confidence share one component kernel and one
normaliser, the package's only log-sum-exp. The kernel expands the squares,
‖x − √ᾱ·μᵢ‖² = ‖x‖² − 2√ᾱ·x·μᵢ + ᾱ‖μᵢ‖², and ε̂ likewise as √(1−ᾱ)·(x·Σᵢ rᵢ/Vᵢ −
√ᾱ·Σᵢ (rᵢ/Vᵢ)·μᵢ), so a batch costs O(B·(m+d)) memory, never a (B, m, d) table.

``gmm_eps`` and ``GmmDenoiser.predict`` take one image (*event) or a batch
(B, *event), the event shape being the mixture's. The kernel works on (B, d)
rows; one image is the B=1 case, and each row's result is bit-identical to
evaluating that row alone.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _component_logits(x, mu, ab: float, log_w, var) -> np.ndarray:
    """log(wᵢ·N(x; √ᾱ·μᵢ, VᵢI)) of rows x (B, d) for components μ (m, d) at
    level ᾱ = ab, given diffused variances var = V: a (B, m) table. The squared
    distance is expanded, ‖x‖² − 2√ᾱ·x·μᵢ + ᾱ‖μᵢ‖², so no (B, m, d) offsets
    are formed; ``einsum`` (not BLAS, whose kernel depends on B) keeps each
    row's value the one it gets alone. The expansion cancels digits when
    ‖x‖ ≫ ‖x − √ᾱ·μᵢ‖, i.e. for means far from the origin against their spread
    (1e-10 relative in ε̂ at means shifted by 100); the toy images lie near [0, 1]."""
    d = x.shape[-1]
    with np.errstate(over="ignore", invalid="ignore"):  # inf distance -> -inf density
        sq = (np.einsum("bj,bj->b", x, x)[:, None]
              - 2.0 * np.sqrt(ab) * np.einsum("bj,ij->bi", x, mu)
              + ab * np.einsum("ij,ij->i", mu, mu))
    return log_w - 0.5 * d * np.log(2 * np.pi * var) - sq / (2 * var)


def _log_normalize(a):
    """(a − lse, lse) over the last axis of a (B, m) table: lse = top + log Σ exp(a − top)
    (B, 1), top the row's maximum, so a − lse ≤ 0; no finite entry gives a non-finite lse."""
    with np.errstate(invalid="ignore", over="ignore"):  # −inf − −inf: nan, not a warning
        top = a.max(axis=-1, keepdims=True)
        lse = top + np.log(np.exp(a - top).sum(axis=-1, keepdims=True))
        return a - lse, lse


def mixture_logpdf(x: np.ndarray, mix: Mixture) -> float:
    """log density of the (undiffused) mixture at x."""
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    mu = mix.means.reshape(len(mix.weights), -1)
    if x.shape[0] != mu.shape[1]:
        raise ShapeMismatch(f"x has dim {x.shape[0]}, mixture has dim {mu.shape[1]}")
    comp = _component_logits(x[None], mu, 1.0, np.log(mix.weights), mix.variances)
    lse = float(_log_normalize(comp)[1][0, 0])
    # past |x| ~ 1e306 both ‖x‖² and x·μᵢ overflow, inf − inf: a zero density
    return lse if np.isfinite(lse) else -np.inf


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


def gmm_eps(x: np.ndarray, t: int, y, m: GmmModel, s: NoiseSchedule) -> np.ndarray:
    """Exact posterior-mean noise E[ε | x_t=x, y] = √(1−ᾱ)·Σᵢ rᵢ(x)·(x − √ᾱ·μᵢ)/Vᵢ,
    evaluated as √(1−ᾱ)·(x·Σᵢ rᵢ/Vᵢ − √ᾱ·Σᵢ (rᵢ/Vᵢ)·μᵢ), for one image (*event)
    or a batch (B, *event) under the one condition y, with log-space
    responsibilities rᵢ; raises DegenerateMixture when every
    component weight of some row underflows. Every reduction runs along one
    row's own axis, so a row's result does not depend on the other rows."""
    t = _check_step(t, s)
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise InvalidArgument("x must be finite")
    mix = m.mixture(y)
    _check_batch(x.shape, mix.event_shape, "x")
    ab = s.alpha_bars[t]
    mu = mix.means.reshape(len(mix.weights), -1)
    var = ab * mix.variances + (1.0 - ab)
    rows = x.reshape(-1, mu.shape[1])
    log_r, lse = _log_normalize(_component_logits(rows, mu, ab, np.log(mix.weights), var))
    if not np.isfinite(lse).all():
        raise DegenerateMixture("all mixture responsibilities underflowed")
    r = np.exp(log_r) / var  # rᵢ/Vᵢ
    # the scalars go on the (B, m) weights, so only three passes touch (B, d)
    scale = np.sqrt(1.0 - ab)
    eps = rows * (scale * r.sum(axis=-1, keepdims=True))
    eps -= np.einsum("bi,ij->bj", (scale * np.sqrt(ab)) * r, mu)
    return eps.reshape(x.shape)


@dataclass(frozen=True)
class GmmDenoiser:
    """Denoiser view of a GmmModel bound to a schedule: ε̂ for x of shape
    (*event) or (B, *event), returned in x's shape."""

    model: GmmModel
    schedule: NoiseSchedule

    def predict(self, x, t, y):
        return gmm_eps(x, t, y, self.model, self.schedule)
