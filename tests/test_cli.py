import csv
import hashlib
import importlib
import importlib.util
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import mvg
from mvg import cli, io, metrics, rng
from mvg import denoiser as denoiser_mod
from mvg.cli import main
from mvg.config import RunConfig, _merged
from mvg.denoiser import Condition, GmmDenoiser
from mvg.errors import InvalidArgument
from mvg.metrics import make_embedder
from mvg.pie import PieConfig, decay_probe_run, pie_run, prop2_bound, step_decay_fit
from mvg.scheduler import build_schedule
from mvg.toydata import DomainSpec, build_domain, make_mask, render_mean
from mvg.transition import make_clip_skeleton

REPO = Path(__file__).resolve().parent.parent

SMALL_CONFIG = {
    "schedule": {"T": 10},
    "pie": {"N": 3, "gamma": 0.5, "beta1": 0.01, "beta2": 0.75},
    "mask": {"kind": "disk", "params": {"center": [10.0, 10.0], "radius": 5.0}},
    "seeds": [0, 1],
}


def write_config(tmp_path, overrides=None, name="config.json"):
    """SMALL_CONFIG with each override section updating its own, or replacing
    it when it names another kind (a rect mask takes no disk params)."""
    cfg = json.loads(json.dumps(SMALL_CONFIG))
    for key, value in (overrides or {}).items():
        if isinstance(value, dict) and isinstance(cfg.get(key), dict) \
                and value.get("kind", cfg[key].get("kind")) == cfg[key].get("kind"):
            cfg[key].update(value)
        else:
            cfg[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def read_csv(path):
    with open(path) as f:
        rows = list(csv.reader(f))
    return rows[0], rows[1:]


# each writer, given a path and a value that sets what it writes
WRITERS = {
    "tensor": lambda path, v: io.write_tensor(path, np.full((4, 8), v)),
    "pgm": lambda path, v: io.write_pgm(path, np.full((4, 8), v / 4)),
    "csv": lambda path, v: io.write_csv(path, ["v", "n"], [(v, n) for n in range(20)]),
    "json": lambda path, v: io.write_json(path, {"v": v, "n": list(range(20))}),
}


class TestTensorIO:
    @pytest.mark.parametrize("shape", [(4,), (3, 5), (2, 3, 4)])
    def test_roundtrip_exact(self, tmp_path, shape):
        arr = np.random.default_rng(0).standard_normal(shape).astype(np.float32)
        p = tmp_path / "t.mvgt"
        io.write_tensor(p, arr)
        back = io.read_tensor(p)
        assert back.shape == shape
        assert np.array_equal(back.astype(np.float32), arr)

    def test_layout(self, tmp_path):
        p = tmp_path / "t.mvgt"
        io.write_tensor(p, np.array([[1.0, 2.0]], dtype=np.float32))
        raw = p.read_bytes()
        assert raw[:4] == b"MVGT"
        assert int.from_bytes(raw[4:8], "little") == 2          # ndim
        assert int.from_bytes(raw[8:12], "little") == 1         # dim 0
        assert int.from_bytes(raw[12:16], "little") == 2        # dim 1
        assert len(raw) == 16 + 2 * 4

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.mvgt"
        p.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(InvalidArgument):
            io.read_tensor(p)

    def test_trailing_and_truncated_payload_rejected(self, tmp_path):
        p = tmp_path / "t.mvgt"
        io.write_tensor(p, np.arange(4.0))
        whole = p.read_bytes()
        p.write_bytes(whole + b"\x00" * 8)
        with pytest.raises(InvalidArgument, match="trailing"):
            io.read_tensor(p)
        for cut in (whole[:-4], b"MVGT\x02\x00"):
            p.write_bytes(cut)
            with pytest.raises(InvalidArgument, match="truncated"):
                io.read_tensor(p)

    def test_non_finite_rejected(self, tmp_path):
        p = tmp_path / "nan.mvgt"
        io.write_tensor(p, np.array([1.0, np.nan]))
        with pytest.raises(InvalidArgument, match="non-finite"):
            io.read_tensor(p)

    def test_pgm_export(self, tmp_path):
        img = np.array([[0.0, 0.5], [1.0, 2.0]])  # 2.0 clamps to 255
        p = tmp_path / "img.pgm"
        io.write_pgm(p, img)
        raw = p.read_bytes()
        assert raw.startswith(b"P5\n2 2\n255\n")
        assert list(raw[-4:]) == [0, 128, 255, 255]

    @pytest.mark.parametrize("existing", [True, False], ids=["over_old", "new"])
    @pytest.mark.parametrize("writer", WRITERS)
    def test_failed_write_leaves_old_file_or_none(self, tmp_path, monkeypatch, writer, existing):
        """A writer that fails midway leaves the old bytes, or no file, under
        the final name, and no temporary file beside it."""
        path = tmp_path / "out"
        if existing:
            WRITERS[writer](path, 1)
        old = path.read_bytes() if existing else None

        class HalfWrite:  # writes half of its first chunk, then fails as a full disk does
            def __init__(self, f):
                self.f = f

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def write(self, data):
                self.f.write(data[:len(data) // 2])
                raise OSError(28, "No space left on device")

        monkeypatch.setattr(io, "open", lambda *a, **kw: HalfWrite(open(*a, **kw)), raising=False)
        with pytest.raises(OSError, match="No space"):
            WRITERS[writer](path, 2)
        monkeypatch.undo()
        assert [p.name for p in tmp_path.iterdir()] == (["out"] if existing else [])
        if existing:
            assert path.read_bytes() == old


# The JSON Schema that mvg.config checked every config against until its key
# and type table (config._CONFIG) replaced it: the reference the differential
# test TestConfig::test_loader_agrees_with_schema compares with, tightened
# with the loader: mask, start and embedder take only the keys their kind
# reads (_kinds), and a file mask may hold the sha256 that load records.
# verify.stages has no bound of its own: the decay suite's rule on stages
# and burn_in, which no schema can state, is in _constructor_rejects.
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


def _kinds(kinds: dict, default: str) -> dict:
    """The schema of a section whose kind, default when it names none, picks
    the properties it takes besides kind and those it requires: {kind: (properties, required)}."""
    return {
        "type": "object",
        "properties": {"kind": {"enum": list(kinds)}},
        "allOf": [{"if": {"properties": {"kind": {"const": kind}},
                          "required": [] if kind == default else ["kind"]},
                   "then": {"properties": {"kind": {}, **properties}, "required": required,
                            "additionalProperties": False}}
                  for kind, (properties, required) in kinds.items()],
    }


def _params(**properties) -> dict:
    return {"params": {"type": "object", "properties": properties, "additionalProperties": False}}


_NUMBER = {"type": "number"}
_INTEGER = {"type": "integer"}

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
        "mask": _kinds({
            "disk": (_params(center={"type": "array", "items": _NUMBER, "minItems": 2,
                                     "maxItems": 2}, radius=_NUMBER, feather=_NUMBER), []),
            "rect": (_params(y0=_INTEGER, x0=_INTEGER, y1=_INTEGER, x1=_INTEGER), []),
            "full": ({}, []),
            "empty": ({}, []),
            # the SHA-256 of the file's mask, which load records and checks
            "file": ({"path": {"type": "string"}, "sha256": {"type": "string"}}, ["path"]),
        }, "disk"),
        "condition": {
            "type": "object",
            "properties": {"source": _CONDITION, "target": _CONDITION},
            "additionalProperties": False,
        },
        "start": _kinds({"mean": ({}, []), "sample": ({"seed": _SEED}, ["seed"])}, "mean"),
        "embedder": _kinds({
            "identity": ({}, []),
            "random_projection": ({"out_dim": {"type": "integer", "minimum": 1}, "seed": _SEED}, []),
        }, "identity"),
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
                "stages": {"type": "integer"},
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


# config_hash() of each shipped config: the loader must keep what it reads
# from them, and so what every run records
SHIPPED_CONFIG_HASHES = {
    "configs/ablate.json": "c9f61635cd14cf95",
    "configs/simulate.json": "7698eee68c665bfb",
    "configs/verify.json": "e4f007f6651942af",
    "configs/video.json": "66bd3ef10892798f",
    "perfbench/verify.json": "cb2176648b171fab",
}
SCHEMA_VALIDATOR = jsonschema.Draft202012Validator(SCHEMA)
# SCHEMA under a type checker whose integers exclude integral floats such as 3.0
STRICT_INT_VALIDATOR = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    type_checker=jsonschema.Draft202012Validator.TYPE_CHECKER.redefine(
        "integer", lambda _checker, v: isinstance(v, int) and not isinstance(v, bool)),
)(SCHEMA)


def _paths(node, path=()):
    """The path of every value under a JSON node, in objects and lists alike."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield path + (key,), value
        yield from _paths(value, path + (key,))


def _schema_paths(schema, path=()):
    """(path, property schema) of every object property SCHEMA names, those of
    every kind of a kind-bearing section included."""
    for branch in [schema] + [b["then"] for b in schema.get("allOf", [])]:
        for key, sub in branch.get("properties", {}).items():
            yield path + (key,), sub
            yield from _schema_paths(sub, path + (key,))


# per kind-bearing section, a valid set of keys for each kind; mask.mvgt is all ones
ONES_SHA256 = hashlib.sha256(np.ones((16, 16)).tobytes()).hexdigest()
KIND_KEYS = {
    "mask": {"disk": {"params": {"center": [8.0, 8.0], "radius": 3.0, "feather": 1.0}},
             "rect": {"params": {"y0": 2, "x0": 3, "y1": 9, "x1": 12}},
             "full": {}, "empty": {}, "file": {"path": "mask.mvgt", "sha256": ONES_SHA256}},
    "start": {"mean": {}, "sample": {"seed": 5}},
    "embedder": {"identity": {}, "random_projection": {"out_dim": 8, "seed": 3}},
}


def _with(config, path, value):
    """A copy of config holding value at path, making the objects on the way."""
    out = json.loads(json.dumps(config))
    node = out
    for key in path[:-1]:
        node = node.setdefault(key, {}) if isinstance(node, dict) else node[key]
    node[path[-1]] = value
    return out


def _mutations(base):
    """(name, config) of the seeded mutations of one config."""
    paths = dict.fromkeys(p for p, _ in _schema_paths(SCHEMA))
    paths.update(_paths(_merged(base)))
    for path, value in paths.items():  # a wrong type or a non-finite number at every key
        for bad in ("x", True, None, [1], {"a": 1}, float(value) if type(value) is int else 2.0,
                    math.nan, -math.inf):
            yield f"{path}={bad!r}", _with(base, path, bad)
    for path, sub in _schema_paths(SCHEMA):  # just outside every bound
        for bound, step in (("minimum", -1), ("exclusiveMinimum", 0), ("maximum", 0.5)):
            if bound in sub:
                yield f"{path}={sub[bound] + step!r}", _with(base, path, sub[bound] + step)
    for path, value in [((), base), *_paths(base)]:  # one key more or one less, at each depth
        if isinstance(value, dict):
            yield f"{path}+unknown", _with(base, path + ("unknown",), 1)
            for key in value:
                fewer = {k: v for k, v in value.items() if k != key}
                yield f"{path}-{key}", _with(base, path, fewer) if path else fewer
    for section, sub in SCHEMA["properties"].items():
        if sub.get("type") == "object":
            yield f"{section}+unknown", _with(base, (section, "unknown"), 1)
    for section, kinds in KIND_KEYS.items():  # every kind, alone, without kind, and with each key
        for kind, keys in kinds.items():
            yield f"{section} {kind}", _with(base, (section,), {"kind": kind, **keys})
            yield f"{section} without kind, {kind} keys", _with(base, (section,), keys)
            for other in kinds.values():
                for key, value in other.items():
                    yield (f"{section} {kind} with {key}",
                           _with(base, (section,), {"kind": kind, **keys, key: value}))
    yield "mask file, wrong sha256", _with(base, ("mask",), {**KIND_KEYS["mask"]["file"],
                                                            "kind": "file", "sha256": "0" * 64})
    for seeds in ([3, 1, 2], [0], {"count": 3, "start": 5}, {"count": 2},  # both seeds forms
                  [], [1, 1], [2, -1], {"count": 0}, {"start": 1}, {"count": 2, "start": -1},
                  {"count": 2, "step": 1}, {"count": 2.0}, {"count": 10**30}):
        yield f"seeds={seeds!r}", _with(base, ("seeds",), seeds)
    burn_in = _merged(base)["verify"]["burn_in"]  # either side of the decay suite's input rules
    for stages in (burn_in + 9, burn_in + 10):
        yield f"verify.stages={stages}", _with(base, ("verify", "stages"), stages)
    for T in (1, 2):
        yield f"verify.schedule.T={T}", _with(base, ("verify", "schedule", "T"), T)


def _non_finite(raw) -> bool:
    """Whether raw holds NaN or ±Infinity anywhere, which JSON Schema's number
    type and bounds let through."""
    return any(isinstance(v, float) and not math.isfinite(v) for _p, v in _paths(raw))


def _constructor_rejects(raw, base_dir) -> bool:
    """Whether a constructor a command calls raises on the merged config: the
    config would fail when a command builds its objects."""
    c = _merged(raw)
    try:
        RunConfig(raw=c, base_dir=base_dir).seeds()
        spec = DomainSpec.from_dict(c["domain"])
        model = build_domain(spec)
        for side in ("source", "target"):
            model.mixture(Condition(**c["condition"][side]))
        PieConfig(**c["pie"])
        build_schedule(**c["schedule"])
        v = c["verify"]  # the decay suite fits 10 stages past burn_in on a T >= 2 schedule
        if v["stages"] - v["burn_in"] < 10 or build_schedule(**v["schedule"]).T < 2:
            return True
        make_embedder(**c["embedder"])
        if c["mask"]["kind"] == "file":
            mask = io.read_tensor(base_dir / c["mask"]["path"])
            if c["mask"].get("sha256", ONES_SHA256) != hashlib.sha256(mask.tobytes()).hexdigest():
                return True
        else:
            make_mask(spec, c["mask"]["kind"], c["mask"].get("params"))
    except Exception:  # noqa: BLE001 - any failure is a rejection
        return True
    return False


class TestConfig:
    def test_schema_is_valid(self):
        jsonschema.Draft202012Validator.check_schema(SCHEMA)

    def test_loader_agrees_with_schema(self, tmp_path):
        """Over the shipped configs and their seeded mutations: every config
        SCHEMA rejects, the loader rejects with InvalidArgument (any other
        exception fails the test). A config the loader rejects and SCHEMA
        accepts has an integral float at an integer key, holds a non-finite
        number, or holds a value a constructor rejects; a config a constructor
        rejects fails at load.
        The shipped configs load with the raw and config_hash they had."""
        io.write_tensor(tmp_path / "mask.mvgt", np.ones((16, 16)))
        corpus = []
        for name, config_hash in SHIPPED_CONFIG_HASHES.items():
            base = io.read_json(REPO / name)
            cfg = RunConfig.load(REPO / name)
            assert cfg.raw == _merged(base) and cfg.config_hash() == config_hash, name
            corpus += [(name, base)] + [(f"{name}: {m}", c) for m, c in _mutations(base)]
        seen = {"schema rejects": 0, "integral float": 0, "non-finite number": 0,
                "constructor rejects": 0, "loads": 0}
        for name, raw in corpus:
            try:
                RunConfig.from_dict(raw, base_dir=tmp_path)
                loads = True
            except InvalidArgument:
                loads = False
            constructor_rejects = _constructor_rejects(raw, tmp_path)
            if not SCHEMA_VALIDATOR.is_valid(raw):
                assert not loads, name
                seen["schema rejects"] += 1
            elif not STRICT_INT_VALIDATOR.is_valid(raw):
                assert not loads, name
                seen["integral float"] += 1
            elif _non_finite(raw):
                assert not loads, name
                seen["non-finite number"] += 1
            elif constructor_rejects:
                assert not loads, name
                seen["constructor rejects"] += 1
            else:
                assert loads, name
                seen["loads"] += 1
        assert min(seen.values()) >= 10, seen

    def test_schema_violation(self, tmp_path):
        # NaN and Infinity parse as JSON numbers; NaN would pass every bound,
        # and a NaN severity would load as 0.0
        non_finite = r"'\]: (nan|inf) is not a finite number"
        for overrides, match in [({"pie": {"gamma": 2.0}}, "gamma"),
                                 ({"condition": {"target": {"class_id": 1, "severity": math.nan}}},
                                  "severity" + non_finite),
                                 ({"verify": {"x0_scale": math.nan}}, "x0_scale" + non_finite),
                                 ({"verify": {"delta": math.inf}}, "delta" + non_finite),
                                 ({"domain": {"noise_sigma": math.nan}}, "noise_sigma" + non_finite),
                                 ({"video": {"gamma": math.nan}}, "gamma" + non_finite)]:
            with pytest.raises(InvalidArgument, match=match):
                RunConfig.load(write_config(tmp_path, overrides))

    def test_unknown_key_rejected(self, tmp_path):
        misspelt_class = {"class_id": 0, "center": [5.0, 5.0], "radius": 3.0}
        for overrides in ({"strength": 0.5}, {"metrics": ["conf"]},
                          {"domain": {"hieght": 8}}, {"domain": {"classes": [misspelt_class]}},
                          {"mask": {"params": {"center": [10.0, 10.0], "raduis": 2.0}}},
                          {"mask": {"kind": "rect", "params": {"y0": 2, "x0": 2, "y1": 9, "xl": 9}}},
                          {"verify": {"schedule": {"T": 2, "beta_strat": 0.3}}},
                          {"start": {"class_id": 0}}, {"pie": {"composite_origin": False}}):
            path = write_config(tmp_path, overrides)
            with pytest.raises(InvalidArgument):
                RunConfig.load(path)

    def test_nested_defaults_and_source_start(self, tmp_path):
        # a partial nested section keeps the defaults of the keys it leaves out
        path = write_config(tmp_path, {"verify": {"stages": 15, "seeds": 2, "schedule": {"T": 2}}})
        main(["verify-bounds", "--config", str(path), "--out", str(tmp_path / "v")])
        report = io.read_json(tmp_path / "v" / "verify_report.json")
        assert report["schedule"] == {"T": 2, "beta_start": 0.1, "beta_end": 0.1}
        assert report["alpha1"] == pytest.approx(0.81)
        # a mask without a kind has the default kind, disk
        for mask in ({"kind": "disk", "params": {"radius": 3.0}}, {"params": {"radius": 3.0}}):
            cfg = RunConfig.from_dict({"mask": mask})
            assert cfg.raw["mask"] == {"kind": "disk",
                                       "params": {"center": [10.0, 10.0], "radius": 3.0}}
            assert np.array_equal(cfg.mask(), make_mask(cfg.domain(), "disk",
                                                        {"center": (10.0, 10.0), "radius": 3.0}))
        # a condition without a target has the default target
        cfg = RunConfig.from_dict({"condition": {"source": {"class_id": 1}}})
        assert cfg.conditions() == (Condition(1), Condition(1, 1.0))
        # the start image is the source condition's state
        source = {"condition": {"source": {"class_id": 1, "severity": 0.7},
                                "target": {"class_id": 0}}}
        cfg = RunConfig.from_dict(source)
        assert np.array_equal(cfg.start_image(), render_mean(cfg.domain(), 1, 0.7))
        sampled = RunConfig.from_dict({**source, "start": {"kind": "sample", "seed": 5}})
        noise = cfg.domain().noise_sigma * rng.normal((16, 16), 5, rng.START)
        assert np.array_equal(sampled.start_image(), render_mean(cfg.domain(), 1, 0.7) + noise)
        assert not np.array_equal(cfg.start_image(), RunConfig.from_dict({}).start_image())

    def test_missing_reference_rejected(self, tmp_path):
        for overrides in ({"mask": {"kind": "file", "path": "nope.mvgt"}},
                          {"reference_states": ["nope.mvgt"]}):
            path = write_config(tmp_path, overrides)
            with pytest.raises(InvalidArgument, match="config invalid: .*nope.mvgt"):
                RunConfig.load(path)

    def test_mask_from_file(self, tmp_path):
        mask = np.zeros((16, 16))
        mask[2:6, 2:6] = 1.0
        io.write_tensor(tmp_path / "mask.mvgt", mask)
        path = write_config(tmp_path, {"mask": {"kind": "file", "path": "mask.mvgt"}})
        cfg = RunConfig.load(path)
        assert np.array_equal(cfg.mask(), mask)

    @pytest.mark.parametrize("overrides", [
        {"seeds": [0, -1]}, {"seeds": {"count": 2, "start": -1}},
        {"start": {"kind": "sample", "seed": -1}}, {"kid_reference": {"seed": -1}},
        {"video": {"seed": -1}}, {"embedder": {"kind": "random_projection", "seed": -1}},
    ], ids=["seeds_item", "seeds_start", "start", "kid_reference", "video", "embedder"])
    def test_negative_seed_rejected(self, overrides):
        with pytest.raises(InvalidArgument, match="minimum"):
            RunConfig.from_dict(overrides)

    def test_burn_in_leaving_too_few_stages_rejected(self, tmp_path):
        """Load refuses a verify section by the decay suite's own input rules,
        10 fitted stages past burn_in and a probe schedule with T >= 2, and by
        no other bound on stages; a refused config writes nothing."""
        RunConfig.from_dict({"verify": {"stages": 15, "burn_in": 5}})
        RunConfig.from_dict({"verify": {"stages": 12, "burn_in": 0}})
        for bad, match in [({"stages": 15, "burn_in": 10, "seeds": 3}, "burn_in"),
                           ({"stages": 14, "burn_in": 5}, "burn_in"),
                           ({"stages": 20, "burn_in": 11}, "burn_in"),
                           ({"schedule": {"T": 1, "beta_start": 0.1, "beta_end": 0.1}}, "T >= 2")]:
            with pytest.raises(InvalidArgument, match="config invalid: .*" + match):
                RunConfig.from_dict({"verify": bad})
            path = write_config(tmp_path, {"verify": bad})
            assert main(["verify-bounds", "--config", str(path), "--out", str(tmp_path / "v")]) == 1
            assert not (tmp_path / "v").exists()

    @pytest.mark.parametrize("domain, match", [
        ({"severity_grid": [0.0, 0.5, 1.7]}, "leaves"),
        ({"severity_grid": [-0.1, 0.5]}, "leaves"),
        ({"severity_grid": []}, "severity_grid needs at least one severity"),
        ({"noise_sigma": -0.05}, "noise_sigma must be >= 0"),
    ], ids=["grid_above_one", "grid_below_zero", "empty_grid", "negative_sigma"])
    def test_domain_value_out_of_range_rejected(self, tmp_path, domain, match):
        # render_mean would clamp a grid entry, and σ² hides a negative σ
        path = write_config(tmp_path, {"domain": domain})
        with pytest.raises(InvalidArgument, match="config invalid: .*" + match):
            RunConfig.load(path)
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", [4.0, True], ids=["integral_float", "bool"])
    @pytest.mark.parametrize("section, key", [("pie", "N"), ("video", "K"), ("seeds", "count"),
                                              ("verify", "seeds"), ("schedule", "T")],
                             ids=["pie.N", "video.K", "seeds.count", "verify.seeds", "schedule.T"])
    def test_integer_key_takes_int_only(self, section, key, value):
        # 4.0 would fail at run time (N, K, counts) or change config_hash (T)
        with pytest.raises(InvalidArgument, match="integer"):
            RunConfig.from_dict({section: {key: value}})
        RunConfig.from_dict({section: {key: 4}})

    def test_seed_range_form(self, tmp_path):
        path = write_config(tmp_path, {"seeds": {"count": 4, "start": 10}})
        assert RunConfig.load(path).seeds() == [10, 11, 12, 13]

    def test_hash_tracks_content(self, tmp_path):
        a = RunConfig.load(write_config(tmp_path, name="a.json"))
        b = RunConfig.load(write_config(tmp_path, {"pie": {"N": 4}}, name="b.json"))
        assert a.config_hash() != b.config_hash()
        assert a.config_hash() == RunConfig.load(tmp_path / "a.json").config_hash()


# T = 9 leaves ablate's γ = 0.1 sweep cells no step (⌊0.9⌋ = 0), and none of
# the γ that simulate reads
SWEEP_GAMMA_ZERO_STEPS = {"schedule": {"T": 9}}


class TestFlags:
    def test_duplicate_seeds_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out"),
                     "--seeds", "0,0", "--jobs", "2"]) == 1
        assert "duplicate" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        path = write_config(tmp_path, {"seeds": [1, 1]})
        assert main(["ablate", "--config", str(path), "--out", str(tmp_path / "out")]) == 1

    def test_negative_seed_flag_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out"),
                     "--seeds=-3"]) == 1
        assert "negative seed" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_seedless_seeds_flag_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out"),
                     "--seeds", ","]) == 1
        assert "no seed" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_negative_stream_seed_rejected_before_any_run(self, tmp_path):
        # load rejects the seed; a stream would raise only when first drawn,
        # after every run is marked complete
        path = write_config(tmp_path, {"kid_reference": {"seed": -1}})
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "kid")]) == 1
        assert not list(tmp_path.glob("kid/seed_*"))

    @pytest.mark.parametrize("command", ["simulate", "ablate"])
    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_rejected(self, tmp_path, capsys, command, jobs):
        path = write_config(tmp_path)
        assert main([command, "--config", str(path), "--out", str(tmp_path / "out"),
                     f"--jobs={jobs}"]) == 1
        assert "error: --jobs must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["simulate", "ablate"])
    @pytest.mark.parametrize("overrides", [
        {"mask": {"kind": "disk", "params": {"center": [10.0, 10.0], "radius": 20.0}}},
        {"mask": {"kind": "disk", "params": {"center": [10.0, 10.0, 99.0], "radius": 5.0}}},
        {"condition": {"target": {"class_id": 7}}},
        {"schedule": {"T": 10, "beta_start": 0.5, "beta_end": 0.1}},
        {"pie": {"gamma": 0.01}},  # ⌊γT⌋ = 0 at T = 10
        {"video": {"gamma": 0.05}},
        SWEEP_GAMMA_ZERO_STEPS,
    ], ids=["mask_radius", "mask_center_of_three", "target_class", "beta_order", "pie_gamma",
            "video_gamma", "sweep_gamma"])
    def test_constructor_errors_rejected_before_any_output(self, tmp_path, capsys, command,
                                                           overrides):
        path = write_config(tmp_path, overrides)
        argv = [command, "--config", str(path), "--out", str(tmp_path / "out")]
        if overrides is SWEEP_GAMMA_ZERO_STEPS and command == "simulate":
            assert main(argv) == 0  # only ablate runs the sweep's γ
            return
        assert main(argv) == 1
        assert "error: config invalid" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["simulate", "ablate"])
    @pytest.mark.parametrize("content, overrides", [
        (np.ones((8, 8)), {"mask": {"kind": "file", "path": "bad.mvgt"}}),
        (np.ones(16), {"mask": {"kind": "file", "path": "bad.mvgt"}}),  # broadcasts over rows
        (np.full((16, 16), 2.0), {"mask": {"kind": "file", "path": "bad.mvgt"}}),
        (None, {"mask": {"kind": "file"}}),
        (np.ones((8, 8)), {"reference_states": ["bad.mvgt"]}),
        (b"MVGT\x02", {"reference_states": ["bad.mvgt"]}),
    ], ids=["mask_8x8", "mask_row", "mask_above_one", "mask_without_path", "reference_8x8",
            "reference_truncated"])
    def test_bad_input_files_rejected_before_any_output(self, tmp_path, capsys, command,
                                                        content, overrides):
        """A mask or reference file that is not one domain image, a mask file
        with entries outside [0,1] or none named, fails at load, for every command."""
        if isinstance(content, bytes):
            (tmp_path / "bad.mvgt").write_bytes(content)
        elif content is not None:
            io.write_tensor(tmp_path / "bad.mvgt", content)
        path = write_config(tmp_path, overrides)
        assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert "error: config invalid" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_flags_only_where_read(self, tmp_path):
        path = write_config(tmp_path)
        for argv in (["video", "--jobs", "2"], ["verify-bounds", "--seeds", "0"]):
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--config", str(path), "--out", str(tmp_path / "out")])
            assert exc.value.code == 2


class TestSimulate:
    def test_n_zero_single_state_empty_deltas(self, tmp_path):
        path = write_config(tmp_path, {"pie": {"N": 0}, "seeds": [3]})
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        run = tmp_path / "out" / "seed_0003"
        assert (run / "state_000.mvgt").exists()
        assert not (run / "state_001.mvgt").exists()
        header, rows = read_csv(run / "deltas.csv")
        assert header == ["stage", "delta"] and rows == []
        manifest = io.read_json(run / "manifest.json")
        assert manifest["status"] == "complete"

    def test_manifest_records_the_config(self, tmp_path):
        """A run manifest records the resolved config and nothing derivable from it."""
        path = write_config(tmp_path, {"seeds": [0]})
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        manifest = io.read_json(tmp_path / "out" / "seed_0000" / "manifest.json")
        assert manifest["config"] == RunConfig.load(path).raw
        assert sorted(manifest) == ["config", "config_hash", "library_version", "seed",
                                    "states", "status"]

    def test_rerun_byte_identical(self, tmp_path):
        path = write_config(tmp_path)
        for out in ("out1", "out2"):
            assert main(["simulate", "--config", str(path), "--out", str(tmp_path / out)]) == 0
        for seed_dir in sorted((tmp_path / "out1").glob("seed_*")):
            other = tmp_path / "out2" / seed_dir.name
            for f in sorted(seed_dir.glob("*.mvgt")):
                assert f.read_bytes() == (other / f.name).read_bytes(), f.name

    def test_five_seed_summary(self, tmp_path):
        path = write_config(tmp_path, {"seeds": [0, 1, 2, 3, 4]})
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        assert len(list((tmp_path / "out").glob("seed_*"))) == 5
        header, rows = read_csv(tmp_path / "out" / "summary.csv")
        assert header == ["stage", "conf", "clip_i", "kid", "mae"]
        assert len(rows) == SMALL_CONFIG["pie"]["N"] + 1

    def test_metrics_csv_columns(self, tmp_path):
        path = write_config(tmp_path, {"seeds": [0]})
        main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")])
        header, rows = read_csv(tmp_path / "out" / "seed_0000" / "metrics.csv")
        assert header == ["run_id", "stage", "conf", "clip_i", "mae"]
        assert [r[1] for r in rows] == [str(n) for n in range(4)]
        assert rows[0][3] == "1.0"  # origin cosine

    def test_deltas_are_norms_of_pie_run_steps(self, tmp_path):
        """deltas.csv's delta column is, exactly, the repr of ‖x_n − x_{n−1}‖
        over consecutive states of the seed's pie_run, for seeds run in a pool."""
        path = write_config(tmp_path, {"seeds": [0, 1, 2]})  # N = 3
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out), "--jobs", "2"]) == 0
        cfg = RunConfig.load(path)
        for seed in (0, 1, 2):
            (states,) = pie_run(cfg.start_image(), cfg.conditions()[1], cfg.pie_config(),
                                cfg.denoiser(), cfg.mask(), [seed])
            _, rows = read_csv(out / f"seed_{seed:04d}" / "deltas.csv")
            expected = [repr(float(np.linalg.norm(b - a))) for a, b in zip(states, states[1:])]
            assert len(expected) == 3
            assert [r[1] for r in rows] == expected, seed

    def test_jobs_pool_matches_inline(self, tmp_path):
        path = write_config(tmp_path, {"seeds": [0, 1, 2]})
        main(["simulate", "--config", str(path), "--out", str(tmp_path / "inline")])
        main(["simulate", "--config", str(path), "--out", str(tmp_path / "pooled"), "--jobs", "3"])
        for seed_dir in sorted((tmp_path / "inline").glob("seed_*")):
            for f in sorted(seed_dir.glob("*.mvgt")):
                twin = tmp_path / "pooled" / seed_dir.name / f.name
                assert f.read_bytes() == twin.read_bytes()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_seed_blocks_equal_one_seed_runs(self, tmp_path, jobs):
        """3 seeds as one block (--jobs 1) or as blocks of 2 and 1 (--jobs 2)
        write run directories byte-identical (tolerance 0) to 1-seed runs."""
        path = write_config(tmp_path, {"seeds": [0, 1, 2]})
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "blocks"),
                     "--jobs", jobs]) == 0
        for seed in (0, 1, 2):
            alone = tmp_path / f"alone{seed}"
            assert main(["simulate", "--config", str(path), "--out", str(alone),
                         "--seeds", str(seed)]) == 0
            run = alone / f"seed_{seed:04d}"
            files = sorted(p.relative_to(run) for p in run.rglob("*"))
            twin = tmp_path / "blocks" / run.name
            assert files == sorted(p.relative_to(twin) for p in twin.rglob("*"))
            for f in files:
                assert (run / f).read_bytes() == (twin / f).read_bytes(), (seed, f)

    def test_seed_blocks_cover_seeds_in_order(self, monkeypatch):
        monkeypatch.setattr(cli, "BATCH_ROWS", 2)
        seeds = list(range(7))
        for jobs, sizes in ((1, [2, 2, 2, 1]), (2, [2, 2, 2, 1]), (5, [2, 2, 1, 1, 1]),
                            (9, [1] * 7)):
            blocks = cli._seed_blocks(seeds, jobs)
            assert [len(b) for b in blocks] == sizes, jobs
            assert [s for b in blocks for s in b] == seeds

    def test_summary_kid_reads_no_tensor(self, tmp_path, monkeypatch):
        """summary.csv's terminal kid is the kid of the stored terminal states,
        taken from what the blocks return, not read back from the run directories."""
        path = write_config(tmp_path, {"seeds": [0, 1, 2]})
        out = tmp_path / "out"
        read_tensor = io.read_tensor

        def refuse(p):
            raise AssertionError(f"simulate read {p}")

        monkeypatch.setattr(io, "read_tensor", refuse)
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        cfg = RunConfig.load(path)
        terminal = [read_tensor(out / f"seed_{s:04d}" / "state_003.mvgt") for s in (0, 1, 2)]
        _, rows = read_csv(out / "summary.csv")
        assert float(rows[-1][3]) == metrics.kid(terminal, cfg.kid_reference(), cfg.embedder())

    def test_reference_states_fill_mae(self, tmp_path):
        ref_dir = tmp_path / "refs"
        ref_dir.mkdir()
        refs = []
        for n in range(4):
            p = ref_dir / f"ref_{n}.mvgt"
            io.write_tensor(p, np.full((16, 16), 0.1 * n))
            refs.append(str(p.relative_to(tmp_path)))
        path = write_config(tmp_path, {"reference_states": refs, "seeds": [0]})
        main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")])
        _, rows = read_csv(tmp_path / "out" / "seed_0000" / "metrics.csv")
        assert all(r[4] != "nan" for r in rows)

    @pytest.mark.parametrize("count", [3, 5])
    def test_reference_states_past_the_run_rejected(self, tmp_path, capsys, count):
        """A run of N = 2 has 3 states: 3 reference files fill every stage's
        mae, and 5 fail at load, before any output."""
        refs = []
        for n in range(count):
            io.write_tensor(tmp_path / f"ref_{n}.mvgt", np.full((16, 16), 0.1 * n))
            refs.append(f"ref_{n}.mvgt")
        path = write_config(tmp_path, {"reference_states": refs, "pie": {"N": 2}, "seeds": [0]})
        out = tmp_path / "out"
        if count == 5:
            assert main(["simulate", "--config", str(path), "--out", str(out)]) == 1
            assert "error: config invalid: 5 reference_states" in capsys.readouterr().err
            assert not out.exists()
            return
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        _, rows = read_csv(out / "seed_0000" / "metrics.csv")
        assert len(rows) == 3 and all(r[4] != "nan" for r in rows)

    def test_bad_config_exit_code(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"pie": {"gamma": -1}}')
        assert main(["simulate", "--config", str(path)]) == 1
        assert "error:" in capsys.readouterr().err


class TestVideo:
    def test_k2_video_equals_trajectory(self, tmp_path):
        path = write_config(tmp_path, {"seeds": [0], "video": {"K": 2, "gamma": 0.5, "seed": 0}})
        out = tmp_path / "out"
        main(["simulate", "--config", str(path), "--out", str(out)])
        assert main(["video", "--config", str(path), "--out", str(out)]) == 0
        run = out / "seed_0000"
        states = [io.read_tensor(run / f"state_{n:03d}.mvgt") for n in range(4)]
        video = [io.read_tensor(p) for p in sorted((run / "video").glob("frame_*.mvgt"))]
        assert len(video) == len(states)
        for s, f in zip(states, video):
            assert np.array_equal(s, f)

    def test_frame_count_accounting(self, tmp_path):
        K = 4
        path = write_config(tmp_path, {"seeds": [1], "video": {"K": K, "gamma": 0.5, "seed": 2}})
        out = tmp_path / "out"
        main(["simulate", "--config", str(path), "--out", str(out)])
        main(["video", "--config", str(path), "--out", str(out)])
        manifest = io.read_json(out / "seed_0001" / "video" / "manifest.json")
        N = SMALL_CONFIG["pie"]["N"]
        assert manifest["frames"] == K * N - (N - 1)
        assert manifest["frames"] == manifest["expected_frames"]
        assert manifest["config"]["video"]["K"] == K and "per_clip_K" not in manifest

    def test_clip_noise_keyed_by_run_seed(self, tmp_path, monkeypatch):
        skeletons = []

        def spy(x_start, x_end, K, seed, clip, video_seed):
            skel = make_clip_skeleton(x_start, x_end, K, seed, clip, video_seed)
            skeletons.append((seed, skel[1:-1]))
            return skel

        monkeypatch.setattr(cli, "make_clip_skeleton", spy)
        path = write_config(tmp_path, {"seeds": [0, 1], "video": {"K": 4, "gamma": 0.5, "seed": 0}})
        out = tmp_path / "out"
        main(["simulate", "--config", str(path), "--out", str(out)])
        assert main(["video", "--config", str(path), "--out", str(out)]) == 0
        N = SMALL_CONFIG["pie"]["N"]
        assert len(skeletons) == 2 * N
        for seed, middle in skeletons:
            for stage in range(N + 1):
                stage_noise = rng.normal((16, 16), seed, rng.EDIT, stage)
                assert not any(np.array_equal(f, stage_noise) for f in middle)
        for (_, run0), (_, run1) in zip(skeletons[:N], skeletons[N:]):
            assert not np.any(run0 == run1)

    def test_video_frames_written_once(self, tmp_path, monkeypatch):
        """video/ holds the run's concat_clips stack, each frame written once
        as a file of its own; no clip directory is made, and the manifest
        lists every clip's noise key and state pair."""
        K = 4
        path = write_config(tmp_path, {"seeds": [0], "video": {"K": K, "gamma": 0.5, "seed": 3}})
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        concat_clips, stacks = cli.concat_clips, []

        def spy(clips):
            stacks.append(concat_clips(clips))
            return stacks[-1]

        monkeypatch.setattr(cli, "concat_clips", spy)
        assert main(["video", "--config", str(path), "--out", str(out)]) == 0
        run = out / "seed_0000"
        N = SMALL_CONFIG["pie"]["N"]
        (stack,) = stacks
        assert len(stack) == K * N - (N - 1)
        expected = tmp_path / "expected"
        expected.mkdir()
        cli._write_frames(expected, "frame", stack)
        for suffix in ("mvgt", "pgm"):
            frames = sorted((run / "video").glob(f"frame_*.{suffix}"))
            assert [f.name for f in frames] == [f"frame_{n:03d}.{suffix}" for n in range(len(stack))]
            for frame in frames:
                assert frame.stat().st_nlink == 1, frame
                assert frame.read_bytes() == (expected / frame.name).read_bytes(), frame
        assert not list(out.rglob("clip_*"))
        manifest = io.read_json(run / "video" / "manifest.json")
        assert manifest["status"] == "complete"
        assert manifest["per_clip"] == [
            {"seed": 0, "key": [rng.CLIP, n, 3], "start_state": n - 1, "end_state": n}
            for n in range(1, N + 1)]

    def test_zero_stage_run_rejected_before_any_output(self, tmp_path, capsys):
        """A run with one state has no clip: video names its run directory,
        exits 1 and writes nothing."""
        empty = write_config(tmp_path, {"seeds": [1], "video": {"K": 4, "gamma": 0.5, "seed": 0},
                                        "pie": {"N": 0}})
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(empty), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["video", "--config", str(empty), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert str(out / "seed_0001") in err and "at least two" in err, err
        assert not list(out.glob("seed_*/clip_*")) and not list(out.glob("seed_*/video"))

    @pytest.mark.parametrize("case", ["mask", "no_config"])
    def test_run_of_another_config_rejected_before_any_output(self, tmp_path, capsys, case):
        """video takes a run only under a config whose state sections equal the
        run's; with seed 1 simulated under another mask, or written before run
        manifests recorded a config, it names that run, exits 1 and writes no
        video/ for either run."""
        path = write_config(tmp_path, {"video": {"K": 4, "gamma": 0.5, "seed": 0}})
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        if case == "mask":
            rect = write_config(tmp_path, {"seeds": [1], "mask": {"kind": "rect", "params": {
                "y0": 4, "x0": 4, "y1": 12, "x1": 12}}}, "rect.json")
            assert main(["simulate", "--config", str(rect), "--out", str(out)]) == 0
            expected = "was simulated under another mask"
        else:
            manifest = io.read_json(out / "seed_0001" / "manifest.json")
            del manifest["config"]
            io.write_json(out / "seed_0001" / "manifest.json", manifest)
            expected = "records no config; simulate it again"
        capsys.readouterr()
        assert main(["video", "--config", str(path), "--out", str(out), "--seeds", "0,1"]) == 1
        err = capsys.readouterr().err
        assert f"{out / 'seed_0001'} {expected}" in err, err
        assert not list(out.glob("seed_*/video"))

    def test_rewritten_mask_file_rejected_before_any_output(self, tmp_path, capsys):
        """A file mask is pinned by what it holds, not by its path: with the
        mask file rewritten after simulate, video and metrics name the mask,
        exit 1 and write nothing; with the first mask written back, video runs."""
        square = np.zeros((16, 16))
        square[4:12, 4:12] = 1.0
        io.write_tensor(tmp_path / "mask.mvgt", square)
        path = write_config(tmp_path, {"seeds": [0], "video": {"K": 4, "gamma": 0.5, "seed": 0},
                                       "mask": {"kind": "file", "path": "mask.mvgt"}})
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        io.write_tensor(tmp_path / "mask.mvgt", np.roll(square, 2, axis=1))
        before = {p: p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
        capsys.readouterr()
        for command in ("video", "metrics"):
            assert main([command, "--config", str(path), "--out", str(out)]) == 1
            err = capsys.readouterr().err
            assert f"{out / 'seed_0000'} was simulated under another mask" in err, (command, err)
        assert {p: p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()} == before
        io.write_tensor(tmp_path / "mask.mvgt", square)
        assert main(["video", "--config", str(path), "--out", str(out)]) == 0

    def test_rerun_into_same_out(self, tmp_path):
        """video twice into one out directory exits 0 both times and leaves the
        same bytes and no temporary name, also over video/ frames that were
        rewritten under new inodes."""
        path = write_config(tmp_path, {"seeds": [0, 1], "video": {"K": 4, "gamma": 0.5, "seed": 0}})
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0

        def snapshot():
            return {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}

        assert main(["video", "--config", str(path), "--out", str(out)]) == 0
        first = snapshot()
        copied = sorted(out.glob("seed_0001/video/frame_*"))
        for frame in copied:
            data = frame.read_bytes()
            frame.unlink()
            frame.write_bytes(data)
        assert main(["video", "--config", str(path), "--out", str(out)]) == 0
        assert snapshot() == first
        assert not [p for p in out.rglob("*") if p.name.startswith(".") or "tmp" in p.name]

    def test_rerun_replaces_files_as_a_fresh_run_writes_them(self, tmp_path):
        """A video rerun into an existing run directory writes each file anew
        and renames it into place rather than rewriting the old one, which
        another name may link; its video/ frames equal a fresh run's, byte for byte."""
        path = write_config(tmp_path, {"seeds": [0], "video": {"K": 4, "gamma": 0.5, "seed": 0}})
        for out in ("fresh", "rerun"):
            assert main(["simulate", "--config", str(path), "--out", str(tmp_path / out)]) == 0
        assert main(["video", "--config", str(path), "--out", str(tmp_path / "fresh")]) == 0
        assert main(["video", "--config", str(path), "--out", str(tmp_path / "rerun")]) == 0
        run = tmp_path / "rerun" / "seed_0000"
        held = tmp_path / "held.mvgt"  # another name for a video frame
        os.link(run / "video" / "frame_004.mvgt", held)
        before = held.read_bytes()
        assert main(["video", "--config", str(path), "--out", str(tmp_path / "rerun")]) == 0
        assert held.read_bytes() == before
        assert not os.path.samefile(held, run / "video" / "frame_004.mvgt")
        fresh = tmp_path / "fresh" / "seed_0000"
        frames = sorted(p.relative_to(fresh) for p in fresh.glob("*/frame_*"))
        assert len(frames) == 2 * (4 * 3 - 2)
        assert frames == sorted(p.relative_to(run) for p in run.glob("*/frame_*"))
        for f in frames:
            assert (run / f).read_bytes() == (fresh / f).read_bytes(), f

    def test_denoiser_calls_match_closed_form(self, tmp_path, monkeypatch):
        """video batches each run's clips: per seed ⌊γT⌋ gmm_eps calls, each on
        the N·(K−2) middle frames of the run."""
        seeds, T, N, K, gamma = [0, 1, 2], 10, 3, 5, 0.5
        path = write_config(tmp_path, {"seeds": seeds, "video": {"K": K, "gamma": gamma, "seed": 0}})
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        rows = []
        gmm_eps = denoiser_mod.gmm_eps

        def counted(x, t, y, m, s):
            rows.append(len(x))
            return gmm_eps(x, t, y, m, s)

        monkeypatch.setattr(denoiser_mod, "gmm_eps", counted)
        assert main(["video", "--config", str(path), "--out", str(out)]) == 0
        k = math.floor(gamma * T)
        assert len(rows) == len(seeds) * k
        assert sum(rows) == len(seeds) * N * (K - 2) * k

    def test_manifest_incomplete_until_frames_written(self, tmp_path, monkeypatch, capsys):
        """A video run cut short while writing its frames, fresh or over a
        finished one, leaves no video/manifest.json that reads complete."""
        path = write_config(tmp_path, {"seeds": [0], "video": {"K": 4, "gamma": 0.5, "seed": 0}})
        fresh, rerun = tmp_path / "fresh", tmp_path / "rerun"
        for out in (fresh, rerun):
            assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        assert main(["video", "--config", str(path), "--out", str(rerun)]) == 0
        write_frames = cli._write_frames

        def cut_short(out_dir, prefix, frames, first=0):
            write_frames(out_dir, prefix, frames[:3], first)
            raise OSError("cut short")

        monkeypatch.setattr(cli, "_write_frames", cut_short)
        for out in (fresh, rerun):
            assert main(["video", "--config", str(path), "--out", str(out)]) == 1
            assert "cut short" in capsys.readouterr().err
            manifest = io.read_json(out / "seed_0000" / "video" / "manifest.json")
            assert manifest.get("status", "complete") != "complete", out

    def test_rerun_cut_short_leaves_nothing_reading_complete(self, tmp_path, monkeypatch, capsys):
        """A rerun under another video.seed that fails partway through its PGM
        writes leaves video/manifest.json not reading complete, and no clip
        directory whose manifest still describes the previous run."""
        path = write_config(tmp_path, {"seeds": [0], "video": {"K": 4, "gamma": 0.5, "seed": 0}})
        other = write_config(tmp_path, {"seeds": [0], "video": {"K": 4, "gamma": 0.5, "seed": 1}},
                             "other.json")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        assert main(["video", "--config", str(path), "--out", str(out)]) == 0
        write_pgm, calls = io.write_pgm, []

        def fails_on_fifth(p, arr):
            calls.append(p)
            if len(calls) == 5:
                raise OSError("disk full")
            write_pgm(p, arr)

        monkeypatch.setattr(io, "write_pgm", fails_on_fifth)
        assert main(["video", "--config", str(other), "--out", str(out)]) == 1
        assert "disk full" in capsys.readouterr().err
        manifest = io.read_json(out / "seed_0000" / "video" / "manifest.json")
        assert manifest.get("status", "complete") != "complete"
        assert not list(out.rglob("clip_*"))

    def test_rerun_replaces_the_output_directory(self, tmp_path):
        """simulate and video each empty the directory they write, so a rerun
        into an existing out leaves what a fresh run leaves and nothing more:
        a simulate rerun at a smaller pie.N drops the longer run's states and
        its video/, and a video rerun at a smaller K drops the surplus frames."""
        video = {"K": 5, "gamma": 0.5, "seed": 0}
        long = write_config(tmp_path, {"seeds": [0], "video": video})  # pie.N 3
        short = write_config(tmp_path, {"seeds": [0], "pie": {"N": 2}, "video": {**video, "K": 4}},
                             "short.json")
        short_k5 = write_config(tmp_path, {"seeds": [0], "pie": {"N": 2}, "video": video},
                                "short_k5.json")
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        for command in ("simulate", "video"):
            assert main([command, "--config", str(long), "--out", str(out)]) == 0
        assert main(["simulate", "--config", str(short), "--out", str(out)]) == 0
        run = out / "seed_0000"
        assert not (run / "state_003.mvgt").exists() and not (run / "video").exists()
        assert main(["video", "--config", str(short_k5), "--out", str(out)]) == 0  # K 5: 9 frames
        assert main(["video", "--config", str(short), "--out", str(out)]) == 0  # K 4: 7 frames
        for command in ("simulate", "video"):
            assert main([command, "--config", str(short), "--out", str(fresh)]) == 0
        files = sorted(p.relative_to(fresh) for p in fresh.rglob("*") if p.is_file())
        assert files == sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file())
        for f in files:
            assert (out / f).read_bytes() == (fresh / f).read_bytes(), f
        assert io.read_json(run / "video" / "manifest.json")["frames"] == 7

    def test_missing_trajectory_fails(self, tmp_path):
        path = write_config(tmp_path, {"seeds": [0]})
        assert main(["video", "--config", str(path), "--out", str(tmp_path / "nowhere")]) == 1

    def test_incomplete_run_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path, {"seeds": [0]})
        out = tmp_path / "out"
        main(["simulate", "--config", str(path), "--out", str(out)])
        manifest = io.read_json(out / "seed_0000" / "manifest.json")
        manifest["status"] = "incomplete"
        io.write_json(out / "seed_0000" / "manifest.json", manifest)
        assert main(["video", "--config", str(path), "--out", str(out)]) == 1
        assert "incomplete" in capsys.readouterr().err


class TestAblate:
    def test_tables_shapes_and_columns(self, tmp_path):
        path = write_config(tmp_path, {"seeds": [0, 1], "pie": {"N": 2}})
        out = tmp_path / "ablate"
        assert main(["ablate", "--config", str(path), "--out", str(out)]) == 0
        header, rows = read_csv(out / "ablate_gamma.csv")
        assert header == ["gamma", "conf", "clip_i", "kid"] and len(rows) == 5
        assert [r[0] for r in rows] == ["0.1", "0.2", "0.4", "0.6", "0.8"]
        header, rows = read_csv(out / "ablate_steps.csv")
        assert header == ["steps", "conf", "clip_i", "kid"] and len(rows) == 5
        assert [r[0] for r in rows] == ["1", "5", "10", "50", "100"]
        header, rows = read_csv(out / "ablate_beta.csv")
        assert header == ["beta1", "beta2", "conf", "clip_i", "kid"] and len(rows) == 9

    def test_jobs_pool_matches_inline(self, tmp_path):
        path = write_config(tmp_path, {"seeds": [0, 1], "pie": {"N": 2}})
        for out, jobs in (("inline", "1"), ("pooled", "2")):
            assert main(["ablate", "--config", str(path), "--out", str(tmp_path / out),
                         "--jobs", jobs]) == 0
        for name in ("ablate_gamma.csv", "ablate_steps.csv", "ablate_beta.csv"):
            inline = (tmp_path / "inline" / name).read_bytes()
            assert inline == (tmp_path / "pooled" / name).read_bytes(), name

    def test_row_batches_match_one_batch(self, tmp_path, monkeypatch):
        """Batches of 2 rows (mixing cells, N and β within one γ) give the
        tables of the default batching byte for byte."""
        path = write_config(tmp_path, {"seeds": [0, 1, 2, 3, 4]})
        assert main(["ablate", "--config", str(path), "--out", str(tmp_path / "whole")]) == 0
        monkeypatch.setattr(cli, "BATCH_ROWS", 2)
        assert main(["ablate", "--config", str(path), "--out", str(tmp_path / "pairs")]) == 0
        for name in ("ablate_gamma.csv", "ablate_steps.csv", "ablate_beta.csv"):
            whole = (tmp_path / "whole" / name).read_bytes()
            assert whole == (tmp_path / "pairs" / name).read_bytes(), name

    def test_terminal_states_own_their_data(self, tmp_path):
        """_ablate_batch returns each row's terminal state as a copy that shares
        no memory with another row's, so the batch's state table is freed on
        return; the copies equal pie_run's terminal states."""
        cfg = RunConfig.load(write_config(tmp_path))
        base = cfg.pie_config()
        rows = [(PieConfig(N=n, gamma=base.gamma), seed) for n in (3, 1) for seed in (0, 1)]
        out = cli._ablate_batch(cfg, rows)
        terminal = [t for t, _conf, _clip_i in out]
        for i, t in enumerate(terminal):
            assert t.base is None, i
            assert not any(np.shares_memory(t, u) for u in terminal[i + 1:]), i
        pcs, seeds = zip(*rows)
        runs = pie_run(cfg.start_image(), cfg.conditions()[1], list(pcs), cfg.denoiser(),
                       cfg.mask(), list(seeds))
        for t, states in zip(terminal, runs):
            assert np.array_equal(t, states[-1])

    def test_denoiser_rows_match_closed_form(self, tmp_path, monkeypatch):
        """ablate evaluates each (cell, seed) row's stages in full: the denoiser
        sees seeds x Σ over cells of N·⌊γT⌋ rows, no cell or prefix shared."""
        path = write_config(tmp_path, {"seeds": [0, 1, 2]})  # T=10, N=3, gamma 0.5
        rows = []
        gmm_eps = denoiser_mod.gmm_eps

        def counted(x, t, y, m, s):
            rows.append(len(x))
            return gmm_eps(x, t, y, m, s)

        monkeypatch.setattr(denoiser_mod, "gmm_eps", counted)
        assert main(["ablate", "--config", str(path), "--out", str(tmp_path / "a")]) == 0
        T, N, gamma = 10, 3, 0.5
        cells = ([(N, g) for g in (0.1, 0.2, 0.4, 0.6, 0.8)]
                 + [(n, 0.5) for n in (1, 5, 10, 50, 100)]
                 + [(N, gamma)] * 9)
        assert sum(rows) == 3 * sum(n * math.floor(g * T) for n, g in cells)


class TestVerifyBounds:
    def test_default_style_suite_passes(self, tmp_path, capsys):
        path = write_config(tmp_path, {
            "verify": {"stages": 40, "seeds": 6, "delta": 0.01, "x0_scale": 10.0},
        })
        assert main(["verify-bounds", "--config", str(path), "--out", str(tmp_path / "v")]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert sum(1 for l in lines if l.startswith("[PASS]")) == 4
        report = io.read_json(tmp_path / "v" / "verify_report.json")
        assert report["alpha0"] == pytest.approx(0.9)
        assert all(c["passed"] for c in report["checks"])

    def test_report_matches_its_recomputation(self, tmp_path, capsys):
        """Every figure in verify_report.json equals the one recomputed from
        decay_probe_run, prop2_bound and step_decay_fit, and the printed lines
        are the report's checks in order."""
        v = {"stages": 30, "seeds": 4, "delta": 0.05, "x0_scale": 3.0, "burn_in": 4}
        path = write_config(tmp_path, {"verify": v})
        rc = main(["verify-bounds", "--config", str(path), "--out", str(tmp_path / "v")])
        report = io.read_json(tmp_path / "v" / "verify_report.json")
        sched = RunConfig.load(path).verify_schedule()
        x0 = v["x0_scale"] * np.ones(DomainSpec().shape)
        probes = decay_probe_run(x0, GmmDenoiser(cli.verify_model(x0.shape), sched),
                                 Condition(0, 0.0), v["stages"], range(v["seeds"]))
        bounds = [prop2_bound(sched, probes.c1, float(c2), v["delta"]) for c2 in probes.c2_observed]
        assert report["n_min"] == [b.n_min for b in bounds]
        assert report["kappa"] == [b.kappa for b in bounds]
        assert report["mean_slope"] == step_decay_fit(probes.step_deltas.mean(axis=0), v["burn_in"])
        assert report["target_slope"] == 0.5 * math.log(sched.alpha_bars[2])
        assert report["delta"] == v["delta"]
        checks = report["checks"]
        assert [c["name"] for c in checks] == ["decay_slope", "step_envelope",
                                               "n_min_upper_bound", "drift_kappa"]
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == [f"[{'PASS' if c['passed'] else 'FAIL'}] {c['name']}: {c['detail']}"
                         for c in checks]
        assert rc == (0 if all(c["passed"] for c in checks) else 1)

    def test_zero_noise_trivial_pass(self, tmp_path, capsys):
        path = write_config(tmp_path, {
            "verify": {"stages": 30, "seeds": 3,
                       "schedule": {"T": 2, "beta_start": 1e-12, "beta_end": 1e-12}},
        })
        assert main(["verify-bounds", "--config", str(path), "--out", str(tmp_path / "v")]) == 0
        assert "trivially" in capsys.readouterr().out


class TestMetricsCommand:
    def test_recompute_matches_simulate(self, tmp_path):
        path = write_config(tmp_path, {"seeds": [0]})
        out = tmp_path / "out"
        main(["simulate", "--config", str(path), "--out", str(out)])
        before = (out / "seed_0000" / "metrics.csv").read_bytes()
        assert main(["metrics", "--config", str(path), "--out", str(out)]) == 0
        assert (out / "seed_0000" / "metrics.csv").read_bytes() == before

    def test_missing_run_rejected_before_any_write(self, tmp_path, capsys):
        """metrics reads every requested run first: with seed_0001/ missing it
        exits 1 and leaves seed_0000/metrics.csv as it was, though a changed
        embedder would change its bytes. The embedder is a section metrics may
        change: with seed 0 alone it rewrites metrics.csv and records its own
        config in the run manifest, which still reads complete."""
        path = write_config(tmp_path, {"seeds": [0]})
        other = write_config(tmp_path, {"embedder": {"kind": "random_projection"}}, "other.json")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        csv_path = out / "seed_0000" / "metrics.csv"
        before, stat = csv_path.read_bytes(), csv_path.stat()
        assert main(["metrics", "--config", str(other), "--out", str(out), "--seeds", "0,1"]) == 1
        assert "missing trajectory" in capsys.readouterr().err
        assert csv_path.read_bytes() == before
        assert csv_path.stat().st_mtime_ns == stat.st_mtime_ns
        assert main(["metrics", "--config", str(other), "--out", str(out), "--seeds", "0"]) == 0
        assert csv_path.read_bytes() != before
        manifest, cfg = io.read_json(out / "seed_0000" / "manifest.json"), RunConfig.load(other)
        assert manifest["config"] == cfg.raw and manifest["config_hash"] == cfg.config_hash()
        assert manifest["status"] == "complete"

    def test_other_state_sections_rejected_before_any_write(self, tmp_path, capsys):
        """metrics under another schedule exits 1 and leaves metrics.csv as it was."""
        path = write_config(tmp_path, {"seeds": [0]})
        other = write_config(tmp_path, {"seeds": [0], "schedule": {"T": 20}}, "other.json")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        csv_path = out / "seed_0000" / "metrics.csv"
        before, stat = csv_path.read_bytes(), csv_path.stat()
        capsys.readouterr()
        assert main(["metrics", "--config", str(other), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"{out / 'seed_0000'} was simulated under another schedule" in err, err
        assert csv_path.read_bytes() == before
        assert csv_path.stat().st_mtime_ns == stat.st_mtime_ns

    def test_summary_follows_the_runs_metrics_read(self, tmp_path):
        """metrics rewrites summary.csv over the runs it read: under the runs'
        own config byte for byte, under another embedder with clip_i the seed
        mean of the rewritten metrics.csv files and kid that embedder's kid of
        the stored terminal states."""
        path = write_config(tmp_path)  # seeds 0 and 1, N = 3
        other = write_config(tmp_path, {"embedder": {"kind": "random_projection"}}, "other.json")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        before = (out / "summary.csv").read_bytes()
        assert main(["metrics", "--config", str(path), "--out", str(out)]) == 0
        assert (out / "summary.csv").read_bytes() == before
        assert main(["metrics", "--config", str(other), "--out", str(out)]) == 0
        _, summary = read_csv(out / "summary.csv")
        runs = [read_csv(out / f"seed_{s:04d}" / "metrics.csv")[1] for s in (0, 1)]
        assert [float(row[2]) for row in summary] == [
            np.mean([float(rows[n][3]) for rows in runs]) for n in range(4)]
        cfg = RunConfig.load(other)
        terminal = [io.read_tensor(out / f"seed_{s:04d}" / "state_003.mvgt") for s in (0, 1)]
        assert float(summary[-1][3]) == metrics.kid(terminal, cfg.kid_reference(), cfg.embedder())

    def test_seeds_flag_overrides(self, tmp_path):
        path = write_config(tmp_path, {"seeds": [0, 1]})
        out = tmp_path / "out"
        main(["simulate", "--config", str(path), "--out", str(out)])
        assert main(["metrics", "--config", str(path), "--out", str(out), "--seeds", "1"]) == 0


# What every command pays before its first denoiser call: import the CLI, load
# the shipped configs, build schedule, model and denoiser, score one image.
STARTUP_SCRIPT = """
import sys
import mvg.cli
from mvg.config import RunConfig
from mvg.denoiser import GmmDenoiser
from mvg.metrics import confidence
from mvg.scheduler import build_schedule

cfg = RunConfig.load("configs/ablate.json")
sched, model = cfg.schedule(), cfg.model()
GmmDenoiser(model, sched)
confidence(cfg.start_image(), cfg.conditions()[1], model)
cfg = RunConfig.load("configs/verify.json")
v = cfg.raw["verify"]
GmmDenoiser(mvg.cli.verify_model(cfg.domain().shape), build_schedule(**v["schedule"]))
print(sorted(m for m in sys.modules
             if m == "scipy" or m.startswith("scipy.") or m.startswith("jsonschema")))
"""


def test_startup_loads_no_scipy():
    """scipy (~0.3 s) and jsonschema (~0.08 s) are start-up every process
    would pay; the runtime path must load neither."""
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    out = subprocess.run([sys.executable, "-c", STARTUP_SCRIPT], cwd=REPO, env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.strip() == "[]", out.stdout


def test_import_loads_no_process_pool():
    """Only --jobs > 1 runs a worker pool, so importing mvg.cli loads neither
    concurrent.futures.process nor multiprocessing."""
    script = ("import sys, mvg.cli; print(sorted(m for m in sys.modules if m == "
              "'concurrent.futures.process' or m.split('.')[0] == 'multiprocessing'))")
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    out = subprocess.run([sys.executable, "-c", script], cwd=REPO, env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.strip() == "[]", out.stdout


def test_exports_resolve():
    assert len(set(mvg.__all__)) == len(mvg.__all__)
    assert [name for name in mvg.__all__ if not hasattr(mvg, name)] == []


def _perfbench_module(name: str):
    """perfbench/NAME.py loaded from its file; the benchmark is not a package."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", REPO / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_perfbench_trace_targets_resolve():
    """Every function the benchmark's tracer wraps still exists in mvg."""
    missing = []
    for module, qualname in _perfbench_module("trace_cmd").TARGETS:
        obj = importlib.import_module(f"mvg.{module}")
        for attr in qualname.split("."):
            obj = getattr(obj, attr, None)
        if not callable(obj):
            missing.append(f"{module}.{qualname}")
    assert missing == []


@pytest.mark.parametrize("config, kind", [("configs/video.json", "run"),
                                          ("perfbench/verify.json", "verify")])
def test_perfbench_setup_probe_runs(config, kind):
    """The benchmark's set-up probe builds what its workloads build from the
    names it imports (cli.verify_model, blend_conditions, RunConfig's accessors)."""
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    out = subprocess.run([sys.executable, "perfbench/probe.py", "setup", config, kind], cwd=REPO,
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr


@pytest.mark.parametrize("workload", ["edit_sweep", "clip_render", "bound_check"])
def test_perfbench_traced_run_is_correct(tmp_path, workload):
    """The benchmark's own output checks, traced gmm_eps images closed form
    included, pass on a tiny traced run of each workload from a copy of the tree."""
    for d in ("src", "configs", "perfbench"):
        shutil.copytree(REPO / d, tmp_path / d, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
                          "--size", "tiny", "--trace", "1", "--seconds", "1"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, out.stdout
