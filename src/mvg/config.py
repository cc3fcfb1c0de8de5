"""Run configuration: defaults, load-time checks, and object construction.

Loading checks a config's keys and JSON types against _CONFIG, then builds
every object a command reads, so each range check lives in the constructor
that owns it and every config error surfaces before any output is written.
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


# mask.params keys make_mask reads per kind; full, empty and file read none and
# accept either set, so a config can switch its kind and keep its old params.
# A mask without a kind has the default kind, disk, and is checked as one.
_MASK_PARAMS = {"disk": ["center", "radius", "feather"], "rect": ["y0", "x0", "y1", "x1"]}
_DEFAULT_MASK_KIND = "disk"


def _mask(value, where):
    _check(value, {"kind": "string", "params": "object", "path": "string"}, where)
    kind = value.get("kind", _DEFAULT_MASK_KIND)
    keys = _MASK_PARAMS.get(kind, sum(_MASK_PARAMS.values(), []))
    for key in value.get("params", {}):
        if key not in keys:
            _fail(where + ["params"], f"unknown key {key!r} for a {kind} mask")


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
    "mask": _mask,
    "condition": {"source": _condition, "target": _condition},
    "start": {"kind": {"mean", "sample"}, "seed": _SEED},
    "embedder": {"kind": "string", "out_dim": ("integer", 1, None), "seed": _SEED},
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
        """Check raw and build every object a command reads from it, so that a
        bad config fails here, before any run, and with InvalidArgument."""
        _check(raw, _CONFIG, [])
        cfg = cls(raw=_merged(raw), base_dir=Path(base_dir))
        v = cfg.raw["verify"]
        if v["stages"] - v["burn_in"] < 10:  # the decay-slope fit needs 10 stages
            raise InvalidArgument(f"verify needs stages - burn_in >= 10, got "
                                  f"{v['stages']} - {v['burn_in']}")
        cfg._check_files()
        try:
            cfg.seeds(), cfg.embedder(), cfg.verify_schedule()
            for gamma in (cfg.pie_config().gamma, cfg.raw["video"]["gamma"]):  # ⌊γT⌋ >= 1
                stage_step_count(gamma, cfg.schedule())
            model = cfg.model()
            for y in cfg.conditions():
                model.mixture(y)
            if cfg.raw["mask"]["kind"] != "file":  # read when a command runs
                cfg.mask()
        except (TypeError, ValueError, IndexError, OverflowError) as err:
            # a value of a type or size that a constructor cannot take
            raise InvalidArgument(f"config invalid: {err}") from err
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

    def verify_schedule(self):
        return build_schedule(**self.raw["verify"]["schedule"])

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
