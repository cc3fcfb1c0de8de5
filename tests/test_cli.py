import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import mvg
from mvg import cli, io, rng
from mvg import denoiser as denoiser_mod
from mvg.cli import main
from mvg.config import RunConfig, _merged
from mvg.denoiser import Condition
from mvg.errors import InvalidArgument
from mvg.metrics import make_embedder
from mvg.pie import PieConfig
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
    cfg = json.loads(json.dumps(SMALL_CONFIG))
    for key, value in (overrides or {}).items():
        if isinstance(value, dict) and isinstance(cfg.get(key), dict):
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
# and type table (config._CONFIG) replaced it, kept verbatim: the reference the
# differential test TestConfig::test_loader_agrees_with_schema compares with.
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


# config_hash() of each shipped config when SCHEMA still checked them: the
# loader must keep what it reads from them, and so what every run records
SHIPPED_CONFIG_HASHES = {
    "configs/ablate.json": "057d597dee0d0761",
    "configs/simulate.json": "7698eee68c665bfb",
    "configs/verify.json": "d543f82339d98cce",
    "configs/video.json": "66bd3ef10892798f",
    "perfbench/verify.json": "6dd9ca6097e9bc7b",
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
    """(path, property schema) of every object property SCHEMA names."""
    for key, sub in schema.get("properties", {}).items():
        yield path + (key,), sub
        yield from _schema_paths(sub, path + (key,))


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
    params = {"disk": {"center": [8.0, 8.0], "radius": 3.0, "feather": 1.0},
              "rect": {"y0": 2, "x0": 3, "y1": 9, "x1": 12}}
    for kind in ("disk", "rect", "full", "empty", "file"):  # every mask kind, either params
        for given, p in params.items():
            mask = {"kind": kind, "params": p, **({"path": "mask.mvgt"} if kind == "file" else {})}
            yield f"mask {kind} with {given} params", _with(base, ("mask",), mask)
            yield f"mask without kind with {given} params", _with(base, ("mask",), {"params": p})
    for seeds in ([3, 1, 2], [0], {"count": 3, "start": 5}, {"count": 2},  # both seeds forms
                  [], [1, 1], [2, -1], {"count": 0}, {"start": 1}, {"count": 2, "start": -1},
                  {"count": 2, "step": 1}, {"count": 2.0}, {"count": 10**30}):
        yield f"seeds={seeds!r}", _with(base, ("seeds",), seeds)


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
        build_schedule(**c["verify"]["schedule"])
        make_embedder(**c["embedder"])
        if c["mask"]["kind"] == "file":
            io.read_tensor(base_dir / c["mask"]["path"])
        else:
            make_mask(spec, c["mask"]["kind"], c["mask"]["params"])
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
        noise = cfg.domain().noise_sigma * rng.normal((16, 16), 5)
        assert np.array_equal(sampled.start_image(), render_mean(cfg.domain(), 1, 0.7) + noise)
        assert not np.array_equal(cfg.start_image(), RunConfig.from_dict({}).start_image())

    def test_missing_reference_rejected(self, tmp_path):
        path = write_config(tmp_path, {"mask": {"kind": "file", "path": "nope.mvgt"}})
        with pytest.raises(InvalidArgument, match="nope.mvgt"):
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
        # the decay-slope fit needs 10 stages after burn-in; rejected before any run
        with pytest.raises(InvalidArgument, match="burn_in"):
            RunConfig.from_dict({"verify": {"stages": 15, "burn_in": 10, "seeds": 3}})
        RunConfig.from_dict({"verify": {"stages": 15, "burn_in": 5}})
        path = write_config(tmp_path, {"verify": {"stages": 20, "burn_in": 11}})
        assert main(["verify-bounds", "--config", str(path), "--out", str(tmp_path / "v")]) == 1
        assert not (tmp_path / "v").exists()

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
        # the stream raises only when first drawn, after every run is marked complete
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
        {"condition": {"target": {"class_id": 7}}},
        {"schedule": {"T": 10, "beta_start": 0.5, "beta_end": 0.1}},
        {"pie": {"gamma": 0.01}},  # ⌊γT⌋ = 0 at T = 10
        {"video": {"gamma": 0.05}},
        SWEEP_GAMMA_ZERO_STEPS,
    ], ids=["mask_radius", "target_class", "beta_order", "pie_gamma", "video_gamma",
            "sweep_gamma"])
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
        assert header == ["run_id", "stage", "conf", "clip_i", "kid", "mae"]
        assert [r[1] for r in rows] == [str(n) for n in range(4)]
        assert rows[0][3] == "1.0"  # origin cosine

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
        assert all(r[5] != "nan" for r in rows)

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

    def test_clip_noise_keyed_by_run_seed(self, tmp_path, monkeypatch):
        skeletons = []

        def spy(x_start, x_end, K, seed, tag=()):
            skel = make_clip_skeleton(x_start, x_end, K, seed, tag=tag)
            skeletons.append((seed, skel.frames[1:-1]))
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
                stage_noise = rng.normal((16, 16), seed, stage=stage)
                assert not any(np.array_equal(f, stage_noise) for f in middle)
        for (_, run0), (_, run1) in zip(skeletons[:N], skeletons[N:]):
            assert not np.any(run0 == run1)

    def test_video_frames_link_clip_frames(self, tmp_path):
        """Each video/ frame file is the clip frame file it repeats: the first
        clip's frames, then each later clip's past its seam frame."""
        K = 4
        path = write_config(tmp_path, {"seeds": [0], "video": {"K": K, "gamma": 0.5, "seed": 0}})
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        assert main(["video", "--config", str(path), "--out", str(out)]) == 0
        run = out / "seed_0000"
        N = SMALL_CONFIG["pie"]["N"]
        sources = [(1, 0)] + [(c, j) for c in range(1, N + 1) for j in range(1, K)]
        for suffix in ("mvgt", "pgm"):
            frames = sorted((run / "video").glob(f"frame_*.{suffix}"))
            assert len(frames) == len(sources)
            for frame, (c, j) in zip(frames, sources):
                assert os.path.samefile(frame, run / f"clip_{c:03d}" / f"frame_{j:03d}.{suffix}")

    def test_rerun_into_same_out(self, tmp_path):
        """video twice into one out directory exits 0 both times and leaves the
        same bytes and no temporary name, also over video/ frames that are
        copies rather than links."""
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
        for frame in copied:
            assert frame.stat().st_nlink == 2

    def test_rerun_replaces_files_as_a_fresh_run_writes_them(self, tmp_path):
        """A video rerun into an existing run directory writes each file anew
        and renames it into place rather than rewriting the old one, which
        video/ links; its clip and video/ frames equal a fresh run's, byte for byte."""
        path = write_config(tmp_path, {"seeds": [0], "video": {"K": 4, "gamma": 0.5, "seed": 0}})
        for out in ("fresh", "rerun"):
            assert main(["simulate", "--config", str(path), "--out", str(tmp_path / out)]) == 0
        assert main(["video", "--config", str(path), "--out", str(tmp_path / "fresh")]) == 0
        assert main(["video", "--config", str(path), "--out", str(tmp_path / "rerun")]) == 0
        run = tmp_path / "rerun" / "seed_0000"
        held = tmp_path / "held.mvgt"  # another name for a clip frame, as video/ has
        os.link(run / "clip_002" / "frame_001.mvgt", held)
        before = held.read_bytes()
        assert main(["video", "--config", str(path), "--out", str(tmp_path / "rerun")]) == 0
        assert held.read_bytes() == before
        assert not os.path.samefile(held, run / "clip_002" / "frame_001.mvgt")
        fresh = tmp_path / "fresh" / "seed_0000"
        frames = sorted(p.relative_to(fresh) for p in fresh.glob("*/frame_*"))
        assert len(frames) == 2 * (3 * 4 + (4 * 3 - 2))
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


def test_exports_resolve():
    assert len(set(mvg.__all__)) == len(mvg.__all__)
    assert [name for name in mvg.__all__ if not hasattr(mvg, name)] == []
