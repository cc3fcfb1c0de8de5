"""Synthetic "growing blob" image families with analytic mixture models.

Each class renders a disk at its own center whose radius and intensity grow
with severity (radius = base + 3s, intensity = base + 0.6s by default). Edges
are cosine-feathered so severity changes move pixel values continuously. The
domain's mixture model has one isotropic component per (class, grid severity),
uniformly weighted within a class, with per-pixel noise σ.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from .denoiser import Condition, GmmModel, Mixture
from .errors import InvalidArgument


@dataclass(frozen=True)
class ClassSpec:
    class_id: int
    center: tuple[float, float]  # (row, col)
    base_radius: float = 2.0
    base_intensity: float = 0.2

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(self.center))


@dataclass(frozen=True)
class DomainSpec:
    height: int = 16
    width: int = 16
    classes: tuple[ClassSpec, ...] = (
        ClassSpec(0, (5.0, 5.0)),
        ClassSpec(1, (10.0, 10.0)),
    )
    radius_gain: float = 3.0
    intensity_gain: float = 0.6
    noise_sigma: float = 0.05
    severity_grid: tuple[float, ...] = (0.0, 0.25, 0.5, 0.75, 1.0)
    feather: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "classes", tuple(self.classes))
        object.__setattr__(self, "severity_grid", tuple(self.severity_grid))
        if not self.severity_grid:
            raise InvalidArgument("severity_grid needs at least one severity")
        if not all(0 <= s <= 1 for s in self.severity_grid):
            raise InvalidArgument(f"severity_grid {list(self.severity_grid)} leaves [0,1]")
        if self.noise_sigma < 0:
            raise InvalidArgument(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        for c in self.classes:
            r_max = c.base_radius + self.radius_gain
            if r_max > min(self.height, self.width) / 2:
                raise InvalidArgument(f"class {c.class_id}: max radius {r_max} exceeds half-plane")
            i_max = c.base_intensity + self.intensity_gain
            if not (0 <= i_max <= 1):
                raise InvalidArgument(f"class {c.class_id}: max intensity {i_max} outside [0,1]")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.height, self.width)

    def class_spec(self, class_id: int) -> ClassSpec:
        for c in self.classes:
            if c.class_id == class_id:
                return c
        raise InvalidArgument(f"unknown class_id {class_id}")

    @classmethod
    def from_dict(cls, d: dict) -> "DomainSpec":
        """Build from config keys; absent keys keep the dataclass defaults."""
        if "classes" in d:
            d = {**d, "classes": [ClassSpec(**c) for c in d["classes"]]}
        return cls(**d)


def _disk_profile(shape, center, radius, feather):
    """1 inside radius−feather, cosine taper to 0 at radius+feather."""
    yy, xx = np.indices(shape, dtype=np.float64)
    d = np.hypot(yy - center[0], xx - center[1])
    if feather <= 0:
        return (d <= radius).astype(np.float64)
    r_in, r_out = radius - feather, radius + feather
    ramp = np.clip((d - r_in) / (r_out - r_in), 0.0, 1.0)
    return 0.5 * (1.0 + np.cos(np.pi * ramp))


def render_mean(spec: DomainSpec, class_id: int, severity: float) -> np.ndarray:
    """Noise-free image for (class, severity); max pixel = base + gain·severity."""
    severity = float(min(1.0, max(0.0, severity)))
    c = spec.class_spec(class_id)
    radius = c.base_radius + spec.radius_gain * severity
    intensity = c.base_intensity + spec.intensity_gain * severity
    return intensity * _disk_profile(spec.shape, c.center, radius, spec.feather)


def build_domain(spec: DomainSpec) -> GmmModel:
    """One component per (class, grid severity), uniform weights, variance σ²."""
    var = max(spec.noise_sigma**2, 1e-300)
    mixtures = {}
    for c in spec.classes:
        means = np.stack([render_mean(spec, c.class_id, s) for s in spec.severity_grid])
        m = len(spec.severity_grid)
        mixtures[c.class_id] = Mixture(
            weights=np.full(m, 1.0 / m),
            means=means,
            variances=np.full(m, var),
        )
    return GmmModel(mixtures)


def sample(m: GmmModel, y: Condition, n: int, seed: int) -> list[np.ndarray]:
    """n i.i.d. draws from the conditional mixture, from stream (seed, SAMPLE)."""
    if n < 1:
        raise InvalidArgument("n must be >= 1")
    mix = m.mixture(y)
    g = rng.stream(seed, rng.SAMPLE)
    idx = g.choice(len(mix.weights), size=n, p=mix.weights)
    z = g.standard_normal((n,) + mix.event_shape)
    sig = np.sqrt(mix.variances)[idx].reshape((n,) + (1,) * len(mix.event_shape))
    return list(mix.means[idx] + sig * z)


def make_mask(spec: DomainSpec, kind: str, params: dict | None = None) -> np.ndarray:
    """ROI mask in [0,1] over the spec's image plane."""
    params = dict(params or {})
    h, w = spec.shape
    if kind == "full":
        return np.ones((h, w))
    if kind == "empty":
        return np.zeros((h, w))
    if kind == "disk":
        if not {"center", "radius"} <= params.keys():
            raise InvalidArgument(f"disk mask needs center and radius, got {sorted(params)}")
        center = tuple(params["center"])
        if len(center) != 2:
            raise InvalidArgument(f"disk center {list(center)} is not two numbers")
        radius = float(params["radius"])
        feather = float(params.get("feather", 0.0))
        if not (0 <= center[0] < h and 0 <= center[1] < w) or radius < 0:
            raise InvalidArgument(f"disk {center} r={radius} outside the plane")
        if center[0] - radius < -0.5 or center[0] + radius > h - 0.5 or \
           center[1] - radius < -0.5 or center[1] + radius > w - 0.5:
            raise InvalidArgument(f"disk {center} r={radius} leaves the plane")
        return _disk_profile((h, w), center, radius, feather)
    if kind == "rect":
        y0, x0 = int(params.get("y0", 0)), int(params.get("x0", 0))
        y1, x1 = int(params.get("y1", h)), int(params.get("x1", w))
        if not (0 <= y0 < y1 <= h and 0 <= x0 < x1 <= w):
            raise InvalidArgument(f"rect ({y0},{x0})..({y1},{x1}) outside the plane")
        mask = np.zeros((h, w))
        mask[y0:y1, x0:x1] = 1.0
        return mask
    raise InvalidArgument(f"unknown mask kind {kind!r}")
