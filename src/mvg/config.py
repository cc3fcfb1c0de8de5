"""Run configuration: JSON schema, validation, and object construction."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import jsonschema
import numpy as np

from . import io, rng, toydata
from .denoiser import Condition, GmmDenoiser
from .errors import InvalidArgument
from .metrics import make_embedder
from .pie import PieConfig
from .scheduler import build_schedule
from .toydata import DomainSpec

_CONDITION = {
    "type": "object",
    "properties": {
        "class_id": {"type": "integer"},
        "severity": {"type": "number", "minimum": 0, "maximum": 1},
    },
    "required": ["class_id"],
    "additionalProperties": False,
}

# rng streams take non-negative entropy only; checked at load, before any run
_SEED = {"type": "integer", "minimum": 0}

_SCHEDULE = {
    "type": "object",
    "properties": {
        "T": {"type": "integer", "minimum": 1},
        "beta_start": {"type": ["number", "null"]},
        "beta_end": {"type": ["number", "null"]},
    },
    "additionalProperties": False,
}

# mask.params keys make_mask reads per kind; full, empty and file read none and
# accept either set, so a config can switch its kind and keep its old params.
# A mask without a kind has the default kind, disk, and is checked as one.
_MASK_PARAMS = {"disk": ["center", "radius", "feather"], "rect": ["y0", "x0", "y1", "x1"]}
_DEFAULT_MASK_KIND = "disk"

SCHEMA = {
    "type": "object",
    "properties": {
        "domain": {"type": "object"},
        "schedule": _SCHEDULE,
        "pie": {
            "type": "object",
            "properties": {
                "N": {"type": "integer", "minimum": 0},
                "gamma": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
                "beta1": {"type": "number", "minimum": 0, "maximum": 1},
                "beta2": {"type": "number", "minimum": 0, "maximum": 1},
            },
            "additionalProperties": False,
        },
        "mask": {
            "type": "object",
            "properties": {
                "kind": {"enum": ["disk", "rect", "full", "empty", "file"]},
                "params": {"type": "object",
                           "propertyNames": {"enum": sum(_MASK_PARAMS.values(), [])}},
                "path": {"type": "string"},
            },
            "additionalProperties": False,
            "allOf": [{"if": {"properties": {"kind": {"const": kind}},
                              "required": [] if kind == _DEFAULT_MASK_KIND else ["kind"]},
                       "then": {"properties": {"params": {"propertyNames": {"enum": keys}}}}}
                      for kind, keys in _MASK_PARAMS.items()],
        },
        "condition": {
            "type": "object",
            "properties": {"source": _CONDITION, "target": _CONDITION},
            "additionalProperties": False,
        },
        "start": {
            "type": "object",
            "properties": {
                "kind": {"enum": ["mean", "sample"]},
                "seed": _SEED,
            },
            "additionalProperties": False,
        },
        "embedder": {
            "type": "object",
            "properties": {
                "kind": {"enum": ["identity", "random_projection"]},
                "out_dim": {"type": "integer", "minimum": 1},
                "seed": _SEED,
            },
            "additionalProperties": False,
        },
        "reference_states": {"type": "array", "items": {"type": "string"}},
        "kid_reference": {
            "type": "object",
            "properties": {"count": {"type": "integer", "minimum": 2}, "seed": _SEED},
            "additionalProperties": False,
        },
        "video": {
            "type": "object",
            "properties": {
                "K": {"type": "integer", "minimum": 2},
                "gamma": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
                "seed": _SEED,
            },
            "additionalProperties": False,
        },
        "verify": {
            "type": "object",
            "properties": {
                "stages": {"type": "integer", "minimum": 15},
                "seeds": {"type": "integer", "minimum": 1},
                "delta": {"type": "number", "exclusiveMinimum": 0},
                "x0_scale": {"type": "number"},
                "burn_in": {"type": "integer", "minimum": 0},
                "schedule": _SCHEDULE,
            },
            "additionalProperties": False,
        },
        "out_dir": {"type": "string"},
        "seeds": {
            "oneOf": [
                {"type": "array", "items": _SEED, "minItems": 1, "uniqueItems": True},
                {
                    "type": "object",
                    "properties": {
                        "count": {"type": "integer", "minimum": 1},
                        "start": _SEED,
                    },
                    "required": ["count"],
                    "additionalProperties": False,
                },
            ]
        },
    },
    "additionalProperties": False,
}

# merged into every config at every depth; the constructors a section feeds
# hold the rest (DomainSpec, PieConfig, make_embedder, build_schedule, Condition)
DEFAULTS = {
    "domain": {}, "pie": {}, "embedder": {}, "reference_states": [],
    "schedule": {"T": 50},
    "mask": {"kind": _DEFAULT_MASK_KIND, "params": {"center": [10.0, 10.0], "radius": 5.5}},
    "condition": {"source": {"class_id": 0}, "target": {"class_id": 1, "severity": 1.0}},
    "start": {"kind": "mean", "seed": 1234},
    "kid_reference": {"count": 100, "seed": 777},
    "video": {"K": 16, "gamma": 0.6, "seed": 0},  # desk-scale configs use K=8
    "verify": {"stages": 100, "seeds": 50, "delta": 0.01, "x0_scale": 10.0, "burn_in": 5,
               "schedule": {"T": 2, "beta_start": 0.1, "beta_end": 0.1}},
    "out_dir": "runs/out",
    "seeds": [0, 1, 2, 3, 4],
}

# SCHEMA is constant: the tests check it against the metaschema, not every load
_VALIDATOR = jsonschema.Draft202012Validator(SCHEMA)


def _merged(raw: dict, defaults: dict = DEFAULTS) -> dict:
    """raw over defaults, merging nested objects key by key at every depth."""
    out = json.loads(json.dumps(defaults))
    for key, value in raw.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
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
        err = jsonschema.exceptions.best_match(_VALIDATOR.iter_errors(raw))
        if err is not None:
            raise InvalidArgument(f"config invalid at {list(err.absolute_path)}: {err.message}")
        cfg = cls(raw=_merged(raw), base_dir=Path(base_dir))
        cfg.domain()  # rejects unknown domain and class keys
        v = cfg.raw["verify"]
        if v["stages"] - v["burn_in"] < 10:  # the decay-slope fit needs 10 stages
            raise InvalidArgument(f"verify needs stages - burn_in >= 10, got "
                                  f"{v['stages']} - {v['burn_in']}")
        cfg._check_files()
        return cfg

    def _check_files(self):
        paths = list(self.raw["reference_states"])
        if self.raw["mask"]["kind"] == "file":
            if "path" not in self.raw["mask"]:
                raise InvalidArgument("mask kind 'file' needs a path")
            paths.append(self.raw["mask"]["path"])
        for p in paths:
            if not (self.base_dir / p).exists():
                raise InvalidArgument(f"referenced file does not exist: {p}")

    def config_hash(self) -> str:
        return hashlib.sha256(json.dumps(self.raw, sort_keys=True).encode()).hexdigest()[:16]

    # -- constructed objects -------------------------------------------------

    def domain(self) -> DomainSpec:
        return DomainSpec.from_dict(self.raw["domain"])

    def schedule(self):
        return build_schedule(**self.raw["schedule"])

    def model(self):
        return toydata.build_domain(self.domain())

    def denoiser(self):
        return GmmDenoiser(self.model(), self.schedule())

    def mask(self) -> np.ndarray:
        spec = self.domain()
        mc = self.raw["mask"]
        if mc["kind"] == "file":
            return io.read_tensor(self.base_dir / mc["path"])
        return toydata.make_mask(spec, mc["kind"], mc["params"])

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
