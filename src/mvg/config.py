"""Run configuration: defaults, load-time checks, and object construction.

Loading checks a config's keys and JSON types against _CONFIG, then builds
every object a command reads, the mask and reference files it names included,
so each range check lives in the constructor or reader that owns it and every
config error surfaces before any output is written.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import io, rng, toydata
from .denoiser import Condition, GmmDenoiser
from .errors import InvalidArgument
from .metrics import make_embedder
from .pie import PieConfig, stage_step_count
from .scheduler import build_schedule
from .toydata import DomainSpec


# JSON types by name. A bool is a Python int but no JSON integer or number,
# and an integral float such as 3.0 is not an integer here.
_TYPES = {"integer": int, "number": (int, float), "number|null": (int, float, type(None)),
          "string": str, "object": dict, "array": list}
_POSITIVE = math.ulp(0.0)  # the least float above 0: a minimum of it excludes 0 only


def _fail(where: list, message: str):
    raise InvalidArgument(f"config invalid at {where}: {message}")


def _finite(value, where: list):
    """Reject NaN and ±Infinity at any depth of value: NaN passes every bound."""
    if isinstance(value, float) and not math.isfinite(value):
        _fail(where, f"{value!r} is not a finite number")
    for key, item in (value.items() if isinstance(value, dict)
                      else enumerate(value) if isinstance(value, list) else ()):
        _finite(item, where + [key])


def _check(value, spec, where: list):
    """Check value against spec: a dict for an object that holds only its keys,
    each value checked against its key's spec; [spec] for an array of such
    items; a set of the strings allowed; a function that checks; or a type name
    of _TYPES, alone or as (name, minimum, maximum) with None for no bound."""
    if isinstance(spec, dict):
        _check(value, "object", where)
        for key, item in value.items():
            if key not in spec:
                _fail(where, f"unknown key {key!r}")
            _check(item, spec[key], where + [key])
    elif isinstance(spec, list):
        _check(value, "array", where)
        for i, item in enumerate(value):
            _check(item, spec[0], where + [i])
    elif isinstance(spec, set):
        if not (isinstance(value, str) and value in spec):
            _fail(where, f"{value!r} is not one of {sorted(spec)}")
    elif callable(spec):
        spec(value, where)
    else:
        name, minimum, maximum = (spec, None, None) if isinstance(spec, str) else spec
        if isinstance(value, bool) or not isinstance(value, _TYPES[name]):
            _fail(where, f"{value!r} is not of type {name!r}")
        _finite(value, where)
        if minimum is not None and value < minimum:
            _fail(where, f"{value!r} is less than the minimum of {minimum}")
        if maximum is not None and value > maximum:
            _fail(where, f"{value!r} is greater than the maximum of {maximum}")


def _kinds(specs: dict, default: str):
    """The check of a section whose kind (default if it names none) picks from specs
    (keys, required): the keys it takes besides kind, {key: spec}, and the one it needs."""
    def check(value, where):
        kind = value.get("kind", default) if isinstance(value, dict) else default
        _check(kind, set(specs), where + ["kind"])
        keys, required = specs[kind]
        _check(value, {"kind": "string", **keys}, where)
        if required and required not in value:
            _fail(where, f"{required!r} is a required property of kind {kind!r}")
    return check


def _condition(value, where):
    _check(value, {"class_id": "integer", "severity": ("number", 0, 1)}, where)
    if "class_id" not in value:  # checked before DEFAULTS can fill it in
        _fail(where, "'class_id' is a required property")


_SEED = ("integer", 0, None)  # rng streams take non-negative entropy only


def _seeds(value, where):
    if isinstance(value, list):
        _check(value, [_SEED], where)
        if not value or len(set(value)) != len(value):
            _fail(where, f"{value!r} is not a non-empty list of distinct seeds")
    else:
        _check(value, {"count": ("integer", 1, None), "start": _SEED}, where)
        if "count" not in value:
            _fail(where, "'count' is a required property")


# Every key a config may hold, at every depth, with the JSON type of its value
# and the bounds and enums that no constructor checks; the constructors
# RunConfig.from_dict calls at load check the rest.
_SCHEDULE = {"T": "integer", "beta_start": "number|null", "beta_end": "number|null"}
_CONFIG = {
    "domain": "object",
    "schedule": _SCHEDULE,
    "pie": {"N": "integer", "gamma": "number", "beta1": "number", "beta2": "number"},
    "mask": _kinds({"disk": ({"params": {"center": ["number"], "radius": "number",
                                          "feather": "number"}}, None),
                    "rect": ({"params": dict.fromkeys(["y0", "x0", "y1", "x1"], "integer")}, None),
                    "full": ({}, None), "empty": ({}, None),
                    "file": ({"path": "string", "sha256": "string"}, "path")}, "disk"),
    "condition": {"source": _condition, "target": _condition},
    "start": _kinds({"mean": ({}, None), "sample": ({"seed": _SEED}, "seed")}, "mean"),
    "embedder": _kinds({"identity": ({}, None), "random_projection": (
        {"out_dim": ("integer", 1, None), "seed": _SEED}, None)}, "identity"),
    "reference_states": ["string"],
    "kid_reference": {"count": ("integer", 2, None), "seed": _SEED},
    "video": {"K": ("integer", 2, None), "gamma": ("number", _POSITIVE, 1), "seed": _SEED},
    "verify": {"stages": ("integer", 15, None), "seeds": ("integer", 1, None),
               "delta": ("number", _POSITIVE, None), "x0_scale": "number",
               "burn_in": ("integer", 0, None), "schedule": _SCHEDULE},
    "out_dir": "string",
    "seeds": _seeds,
}

# merged into every config at every depth; the constructors a section feeds
# hold the rest (DomainSpec, PieConfig, make_embedder, build_schedule, Condition)
DEFAULTS = {
    "domain": {}, "pie": {}, "embedder": {}, "reference_states": [],
    "schedule": {"T": 50},
    "mask": {"kind": "disk", "params": {"center": [10.0, 10.0], "radius": 5.5}},
    "condition": {"source": {"class_id": 0}, "target": {"class_id": 1, "severity": 1.0}},
    "start": {"kind": "mean"},
    "kid_reference": {"count": 100, "seed": 777},
    "video": {"K": 16, "gamma": 0.6, "seed": 0},  # desk-scale configs use K=8
    "verify": {"stages": 100, "seeds": 50, "delta": 0.01, "x0_scale": 10.0, "burn_in": 5,
               "schedule": {"T": 2, "beta_start": 0.1, "beta_end": 0.1}},
    "out_dir": "runs/out",
    "seeds": [0, 1, 2, 3, 4],
}


def _merged(raw: dict, defaults: dict = DEFAULTS) -> dict:
    """raw over defaults, merged at every depth but where raw names another kind."""
    out, raw = json.loads(json.dumps(defaults)), json.loads(json.dumps(raw))
    for key, value in raw.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict) \
                and value.get("kind", out[key].get("kind")) == out[key].get("kind"):
            out[key] = _merged(value, out[key])
        else:
            out[key] = value
    return out


@dataclass
class RunConfig:
    """Validated view over a run-config JSON document."""

    raw: dict
    base_dir: Path

    @classmethod
    def load(cls, path) -> "RunConfig":
        path = Path(path)
        raw = io.read_json(path)
        return cls.from_dict(raw, base_dir=path.parent)

    @classmethod
    def from_dict(cls, raw: dict, base_dir=".") -> "RunConfig":
        """Check raw and build every object a command reads from it, the mask
        and reference files it names included, so that a bad config fails
        here, before any run, and with InvalidArgument."""
        _check(raw, _CONFIG, [])
        cfg = cls(raw=_merged(raw), base_dir=Path(base_dir))
        v = cfg.raw["verify"]
        if v["stages"] - v["burn_in"] < 10:  # the decay-slope fit needs 10 stages
            raise InvalidArgument(f"verify needs stages - burn_in >= 10, got "
                                  f"{v['stages']} - {v['burn_in']}")
        try:
            cfg.seeds(), cfg.embedder(), cfg.verify_schedule()
            for gamma in (cfg.pie_config().gamma, cfg.raw["video"]["gamma"]):  # ⌊γT⌋ >= 1
                stage_step_count(gamma, cfg.schedule())
            model = cfg.model()
            for y in cfg.conditions():
                model.mixture(y)
            cfg.mask(), cfg.reference_states()
        except (TypeError, ValueError, IndexError, OverflowError, OSError) as err:
            # a value a constructor cannot take, or an input file that cannot be read
            raise InvalidArgument(f"config invalid: {err}") from err
        return cfg

    def config_hash(self) -> str:
        return hashlib.sha256(json.dumps(self.raw, sort_keys=True).encode()).hexdigest()[:16]

    # -- constructed objects -------------------------------------------------

    def domain(self) -> DomainSpec:
        return DomainSpec.from_dict(self.raw["domain"])

    def schedule(self):
        return build_schedule(**self.raw["schedule"])

    def verify_schedule(self):
        return build_schedule(**self.raw["verify"]["schedule"])

    def model(self):
        return toydata.build_domain(self.domain())

    def denoiser(self):
        return GmmDenoiser(self.model(), self.schedule())

    def _read_image(self, name: str) -> np.ndarray:
        """The tensor file name, from the config's directory, checked to be a domain image."""
        path, shape = self.base_dir / name, self.domain().shape
        image = io.read_tensor(path)
        if image.shape != shape:
            raise InvalidArgument(f"{path} has shape {image.shape}, not the domain's {shape}")
        return image

    def mask(self) -> np.ndarray:
        """The ROI mask; a file mask must be a domain image with entries in [0,1],
        and the sha256 of its values, recorded at the first read, must not change."""
        mc = self.raw["mask"]
        if mc["kind"] != "file":
            return toydata.make_mask(self.domain(), mc["kind"], mc.get("params"))
        path, mask = self.base_dir / mc["path"], self._read_image(mc["path"])
        if mask.min() < 0 or mask.max() > 1:
            raise InvalidArgument(f"{path}: mask entries must lie in [0,1]")
        digest = hashlib.sha256(mask.tobytes()).hexdigest()
        if mc.setdefault("sha256", digest) != digest:
            raise InvalidArgument(f"{path} holds a mask of sha256 {digest}, not {mc['sha256']}")
        return mask

    def reference_states(self) -> list[np.ndarray]:
        return [self._read_image(p) for p in self.raw["reference_states"]]

    def pie_config(self) -> PieConfig:
        return PieConfig(**self.raw["pie"])

    def conditions(self) -> tuple[Condition, Condition]:
        c = self.raw["condition"]
        return Condition(**c["source"]), Condition(**c["target"])

    def start_image(self) -> np.ndarray:
        """The source condition's mean image, or a noisy draw around it ("sample")."""
        st = self.raw["start"]
        spec = self.domain()
        source = self.conditions()[0]
        mean = toydata.render_mean(spec, source.class_id, source.severity)
        if st["kind"] == "sample":
            noise = rng.normal(mean.shape, st["seed"])
            return mean + spec.noise_sigma * noise
        return mean

    def embedder(self):
        return make_embedder(**self.raw["embedder"])

    def kid_reference(self) -> list[np.ndarray]:
        """The reference set kid compares terminal states with: kid_reference.count
        samples of the target condition, drawn from kid_reference.seed."""
        ref = self.raw["kid_reference"]
        return toydata.sample(self.model(), self.conditions()[1], ref["count"], seed=ref["seed"])

    def seeds(self) -> list[int]:
        spec = self.raw["seeds"]
        if isinstance(spec, dict):
            start = spec.get("start", 0)
            return list(range(start, start + spec["count"]))
        return list(spec)

    def out_dir(self) -> Path:
        # outputs resolve against the working directory; inputs (mask files,
        # reference states) resolve against the config file's directory
        return Path(self.raw["out_dir"])
