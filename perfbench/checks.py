"""Output checks for the benchmark workloads.

Each check reads what the `mvg` CLI wrote and returns a list of failure
messages (empty when the outputs are correct). The checks use only numpy and
the file formats documented in the README, never the `mvg` package, and each
holds for any correct program, so a change that alters the numbers on purpose
does not have to edit them.
"""

from __future__ import annotations

import csv
import json
import math
import struct
from pathlib import Path

import numpy as np

MAGIC = b"MVGT"
VERIFY_CHECKS = ("decay_slope", "step_envelope", "n_min_upper_bound", "drift_kappa")


class CheckFailed(Exception):
    pass


def read_mvgt(path) -> np.ndarray:
    """Parse the tensor container; reject bad magic, wrong size and non-finite data."""
    data = Path(path).read_bytes()
    if data[:4] != MAGIC:
        raise CheckFailed(f"{path}: bad magic")
    (ndim,) = struct.unpack_from("<I", data, 4)
    dims = struct.unpack_from(f"<{ndim}I", data, 8)
    offset = 8 + 4 * ndim
    count = math.prod(dims)
    if len(data) != offset + 4 * count:
        raise CheckFailed(f"{path}: {len(data)} bytes, expected {offset + 4 * count}")
    arr = np.frombuffer(data, dtype="<f4", count=count, offset=offset).reshape(dims)
    if not np.all(np.isfinite(arr)):
        raise CheckFailed(f"{path}: non-finite values")
    return arr.astype(np.float64)


def _rows(path) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def _check_metric_rows(path, rows, expected, need_kid) -> list[str]:
    errs = []
    if len(rows) != expected:
        errs.append(f"{path.name}: {len(rows)} rows, expected {expected}")
    for i, r in enumerate(rows):
        conf, clip_i = float(r["conf"]), float(r["clip_i"])
        if not 0.0 <= conf <= 1.0:
            errs.append(f"{path.name} row {i}: conf {conf} outside [0,1]")
        if not -1.0 <= clip_i <= 1.0:
            errs.append(f"{path.name} row {i}: clip_i {clip_i} outside [-1,1]")
        if need_kid and not math.isfinite(float(r["kid"])):
            errs.append(f"{path.name} row {i}: kid {r['kid']} not finite")
    return errs


# -- edit_sweep ---------------------------------------------------------------

ABLATE_TABLES = {"ablate_gamma.csv": 5, "ablate_steps.csv": 5, "ablate_beta.csv": 9}
STEPS_SWEEP_GAMMA = 0.5  # the stage-count sweep runs at a fixed strength


def check_edit_sweep(out_dir: Path, cfg: dict, seeds: list[int]) -> list[str]:
    errs = []
    for name, expected in ABLATE_TABLES.items():
        path = out_dir / name
        if not path.exists():
            errs.append(f"missing {name}")
            continue
        errs += _check_metric_rows(path, _rows(path), expected, need_kid=True)
    return errs


def edit_sweep_images(out_dir: Path, cfg: dict, seeds: list[int]) -> int:
    """Denoiser rows an ablate run evaluates: seeds x sum over cells of N*floor(gamma*T)."""
    T, N, gamma = cfg["schedule"]["T"], cfg["pie"]["N"], cfg["pie"]["gamma"]

    def k(g):
        return min(math.floor(g * T), T)

    per_seed = sum(N * k(float(r["gamma"])) for r in _rows(out_dir / "ablate_gamma.csv"))
    per_seed += sum(int(r["steps"]) * k(STEPS_SWEEP_GAMMA)
                    for r in _rows(out_dir / "ablate_steps.csv"))
    per_seed += len(_rows(out_dir / "ablate_beta.csv")) * N * k(gamma)
    return len(seeds) * per_seed


# -- clip_render --------------------------------------------------------------

def roi_mask(cfg: dict) -> np.ndarray:
    """The config's hard-edged disk ROI (1 inside, 0 outside)."""
    mask, domain = cfg["mask"], cfg.get("domain", {})
    if mask["kind"] != "disk" or mask["params"].get("feather", 0.0) != 0.0:
        raise CheckFailed("clip_render checks expect a hard-edged disk mask")
    (cy, cx), r = mask["params"]["center"], mask["params"]["radius"]
    yy, xx = np.indices((domain.get("height", 16), domain.get("width", 16)), dtype=np.float64)
    return (np.hypot(yy - cy, xx - cx) <= r).astype(np.float64)


def video_frames(cfg: dict) -> int:
    """Frames of one run's video: N clips of K frames, each seam frame kept once."""
    K, N = cfg["video"]["K"], cfg["pie"]["N"]
    return K * N - (N - 1)


def check_clip_render(out_dir: Path, cfg: dict, seeds: list[int]) -> list[str]:
    errs = []
    K, N = cfg["video"]["K"], cfg["pie"]["N"]
    outside = roi_mask(cfg) == 0.0
    try:
        summary = _rows(out_dir / "summary.csv")
        if len(summary) != N + 1:
            errs.append(f"summary.csv: {len(summary)} rows, expected {N + 1}")
    except FileNotFoundError:
        errs.append("missing summary.csv")
    for seed in seeds:
        run_dir = out_dir / f"seed_{seed:04d}"
        try:
            errs += _check_run_dir(run_dir, K, N, video_frames(cfg), outside)
        except (CheckFailed, OSError, KeyError, ValueError) as err:
            errs.append(f"{run_dir.name}: {err}")
    return errs


def _check_run_dir(run_dir: Path, K: int, N: int, n_frames: int,
                   outside: np.ndarray) -> list[str]:
    errs = []
    for path in sorted(run_dir.rglob("manifest.json")):
        status = json.loads(path.read_text()).get("status", "complete")
        if status != "complete":
            errs.append(f"{path.relative_to(run_dir)} is {status!r}")
    manifest = json.loads((run_dir / "manifest.json").read_text())
    if manifest.get("status") != "complete":
        errs.append("run manifest not marked complete")
    tensors = {p.relative_to(run_dir).as_posix(): read_mvgt(p)
               for p in sorted(run_dir.rglob("*.mvgt"))}  # every tensor parses and is finite
    states = [tensors[name] for name in manifest["states"]]
    if len(states) != N + 1:
        errs.append(f"{len(states)} states, expected {N + 1}")
    errs += _check_metric_rows(run_dir / "metrics.csv", _rows(run_dir / "metrics.csv"),
                               len(states), need_kid=False)
    frames = [tensors[k] for k in sorted(k for k in tensors if k.startswith("video/frame_"))]
    if len(frames) != n_frames:
        errs.append(f"video has {len(frames)} frames, expected {n_frames}")
        return errs
    for c in range(len(states) - 1):
        start, end = states[c], states[c + 1]
        avg = 0.5 * (start + end)
        if not (np.array_equal(frames[c * (K - 1)], start)
                and np.array_equal(frames[(c + 1) * (K - 1)], end)):
            errs.append(f"clip {c + 1}: end frames differ from the stored states")
        for j in range(1, K - 1):
            got = frames[c * (K - 1) + j][outside]
            if not np.allclose(got, avg[outside], rtol=1e-6, atol=1e-6):
                errs.append(f"clip {c + 1} frame {j}: pixels outside the ROI differ "
                            f"from the endpoint average by {np.abs(got - avg[outside]).max():.3e}")
    return errs


def clip_render_images(out_dir: Path, cfg: dict, seeds: list[int]) -> int:
    """Denoiser rows the video command evaluates: (K-2)*floor(gamma*T) per clip."""
    T, K, gamma = cfg["schedule"]["T"], cfg["video"]["K"], cfg["video"]["gamma"]
    return len(seeds) * cfg["pie"]["N"] * (K - 2) * math.floor(gamma * T)


# -- bound_check --------------------------------------------------------------

def check_bound_check(out_dir: Path, cfg: dict, seeds: list[int]) -> list[str]:
    try:
        report = json.loads((out_dir / "verify_report.json").read_text())
    except FileNotFoundError:
        return ["missing verify_report.json"]
    checks = {c["name"]: c for c in report.get("checks", [])}
    errs = [f"check {name} missing" for name in VERIFY_CHECKS if name not in checks]
    errs += [f"check {c['name']} failed: {c.get('detail')}" for c in checks.values()
             if c.get("passed") is not True]
    return errs


def bound_check_images(out_dir: Path, cfg: dict, seeds: list[int]) -> int:
    """One denoiser row per seed and stage; verify-bounds runs seeds 0..S-1 of its config."""
    return cfg["verify"]["seeds"] * cfg["verify"]["stages"]
