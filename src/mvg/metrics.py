"""Evaluation metrics: identity preservation (mean cosine to the run origin),
Bayes classifier confidence (the class log densities normalised by the
denoiser's one log-sum-exp), kernel distance between feature sets, and MAE."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import rng
from .denoiser import Condition, GmmModel, _log_normalize, mixture_logpdf
from .errors import DegenerateMixture, InvalidArgument
from .scheduler import _check_same_shape


def _unit(v: np.ndarray) -> np.ndarray:
    """v scaled to unit L2 norm; a zero v has no direction and stays zero, with a warning."""
    n = np.linalg.norm(v)
    if n == 0:
        warnings.warn("zero features have no direction; embedding them as the zero vector")
        return v
    return v / n


class IdentityEmbedder:
    """Flatten and L2-normalize; zero images embed to the zero vector."""

    def __call__(self, x) -> np.ndarray:
        return _unit(np.asarray(x, dtype=np.float64).ravel())


class RandomProjectionEmbedder:
    """Gaussian projection to out_dim features, drawn from stream (seed, EMBED), then L2-normalize."""

    def __init__(self, out_dim: int = 64, seed: int = 0):
        self.out_dim = out_dim
        self.seed = seed
        self._proj: dict[int, np.ndarray] = {}

    def _matrix(self, in_dim: int) -> np.ndarray:
        if in_dim not in self._proj:
            g = rng.stream(self.seed, rng.EMBED)
            self._proj[in_dim] = g.standard_normal((in_dim, self.out_dim)) / np.sqrt(in_dim)
        return self._proj[in_dim]

    def __call__(self, x) -> np.ndarray:
        v = np.asarray(x, dtype=np.float64).ravel()
        return _unit(v @ self._matrix(v.size))


def make_embedder(kind: str = "identity", out_dim: int = 64, seed: int = 0):
    if kind == "identity":
        return IdentityEmbedder()
    if kind == "random_projection":
        return RandomProjectionEmbedder(out_dim=out_dim, seed=seed)
    raise InvalidArgument(f"unknown embedder kind {kind!r}")


def stage_cosines(states, e) -> np.ndarray:
    """cos(e(states[n]), e(states[0])) for n=1..N of states x⁰₀..x⁰_N, a
    sequence of images or an (N+1, *event) array; nan where a state embeds to zero."""
    ref = e(states[0])
    if np.linalg.norm(ref) == 0:
        raise InvalidArgument("origin state embeds to the zero vector")
    out = np.empty(len(states) - 1)
    for n in range(1, len(states)):
        f = e(states[n])
        out[n - 1] = np.nan if np.linalg.norm(f) == 0 else float(f @ ref)
    return out


def clip_i(states, e) -> float:
    """Mean cosine similarity between each later state's embedding and the
    first state's (states as in stage_cosines)."""
    if len(states) < 2:
        raise InvalidArgument("need at least one generated state")
    cos = stage_cosines(states, e)
    valid = ~np.isnan(cos)
    if not valid.any():
        raise InvalidArgument("every state embedded to the zero vector")
    if not valid.all():
        warnings.warn(f"excluded {int((~valid).sum())} zero-embedding state(s)")
    return float(cos[valid].mean())


def confidence(x, y_target: Condition, m: GmmModel) -> float:
    """Bayes posterior p(class = y_target.class_id | x) under uniform class
    priors: exp of the target's normalised log density, so at most 1."""
    if len(m.class_ids) < 2:
        raise InvalidArgument("confidence needs a model with at least two classes")
    m.mixture(y_target)  # raises on an unknown class_id
    log_post, lse = _log_normalize(
        np.array([[mixture_logpdf(x, m.class_mixtures[c]) for c in m.class_ids]]))
    if not np.isfinite(lse).all():
        raise DegenerateMixture("density underflowed for every class")
    return float(np.exp(log_post[0, m.class_ids.index(y_target.class_id)]))


def _poly_kernel(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    f = u.shape[1]
    return (u @ v.T / f + 1.0) ** 3


def _mmd2_unbiased(a: np.ndarray, b: np.ndarray) -> float:
    def within(u):  # the kernel's mean over pairs of distinct items of u
        k = _poly_kernel(u, u)
        return (k.sum() - np.trace(k)) / (len(u) * (len(u) - 1))
    return float(within(a) + within(b) - 2.0 * _poly_kernel(a, b).mean())


def kid(set_a, set_b, e) -> float:
    """Unbiased squared MMD with the degree-3 polynomial kernel between the
    two full sets of embedded features."""
    if len(set_a) < 2 or len(set_b) < 2:
        raise InvalidArgument("kid needs at least two items per set")
    return _mmd2_unbiased(np.stack([e(x) for x in set_a]), np.stack([e(x) for x in set_b]))


def mae(a, b) -> float:
    """Mean absolute error between two same-shape tensors."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    _check_same_shape(a, b, "mae operands")
    return float(np.mean(np.abs(a - b)))
