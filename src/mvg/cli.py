"""Command-line surface: simulate | video | ablate | verify-bounds | metrics.

Every command takes --config PATH (JSON and the files it names, checked in
full when loaded), reads all its inputs before its first write, and is
deterministic given the config plus seeds. MVG_LOG={error,info,debug} controls
log verbosity. simulate's and ablate's pie_run batches run in a worker pool
under --jobs N (N >= 1). simulate cuts its seeds into contiguous blocks, at
least N of them and none over BATCH_ROWS seeds, and runs each block as one
pie_run; each seed's run directory is written from its (N + 1, *event) states.
ablate makes every (sweep cell, seed) a row and runs the rows of one γ
together, across cells, in pie_run batches of BATCH_ROWS. video denoises all
clips of a run in one generate_transition call and writes the concatenated
frames once, into video/. A run directory and its video/ are written anew
(_fresh_dir): a rerun leaves no file of an earlier one, and simulate's removes
the old video/. Each manifest records the config it was written under, and
video and metrics take a run only under a config that agrees with it on
STATE_SECTIONS (_read_states). verify-bounds writes check_bound_suite's report
as verify_report.json and prints one line per check.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import math
import os
import shutil
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import __version__, io, metrics as metrics_mod, rng
from .config import RunConfig
from .denoiser import Condition, GmmDenoiser, GmmModel, Mixture
from .errors import InvalidArgument
from .pie import (_row_norms, check_bound_suite, decay_probe_run, diff_heatmap, pie_run,
                  stage_step_count)
from .transition import concat_clips, generate_transition, make_clip_skeleton

log = logging.getLogger("mvg")

GAMMA_SWEEP = (0.1, 0.2, 0.4, 0.6, 0.8)
STEPS_SWEEP = (1, 5, 10, 50, 100)
BETA1_SWEEP = (0.01, 0.1, 0.2)
BETA2_SWEEP = (1.0, 0.75, 0.5)
# rows per pie_run batch, a row being a seed of a simulate block or one
# (sweep cell, seed) of an ablate batch's γ: bounds a worker's state table at
# BATCH_ROWS x (max N + 1) images however many seeds the config asks for
BATCH_ROWS = 64
# the config sections that made a run's states; video and metrics take a run
# only under a config that agrees with the run's on every one of them
STATE_SECTIONS = ("domain", "schedule", "pie", "mask", "condition", "start")


def _setup_logging():
    level = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    logging.basicConfig(
        level=level.get(os.environ.get("MVG_LOG", "error"), logging.ERROR),
        format="%(levelname)s %(name)s: %(message)s",
    )


def _metric_inputs(cfg: RunConfig) -> tuple:
    """metrics.csv's model, target, embedder and reference states, built once, not per run."""
    return cfg.model(), cfg.conditions()[1], cfg.embedder(), cfg.reference_states()


def _write_metrics(run_dir: Path, seed: int, states, inputs: tuple):
    """Write and return metrics.csv's per-stage rows (run_id, stage, conf,
    clip_i, mae) for the states as stored; mae needs reference states."""
    model, y_target, embedder, reference = inputs
    cos = metrics_mod.stage_cosines(states, embedder) if len(states) >= 2 else np.array([])
    rows = []
    for n, state in enumerate(states):
        conf = metrics_mod.confidence(state, y_target, model)
        ci = 1.0 if n == 0 else float(cos[n - 1])
        ref_err = metrics_mod.mae(state, reference[n]) if n < len(reference) else math.nan
        rows.append((f"seed{seed}", n, conf, ci, ref_err))
    io.write_csv(run_dir / "metrics.csv", ["run_id", "stage", "conf", "clip_i", "mae"], rows)
    return rows


def _write_summary(out_dir: Path, all_rows, terminal, cfg: RunConfig):
    """summary.csv: per stage the means over runs (of one N) of their rows, and the terminal kid."""
    conf, ci, ref_err = np.array([[row[2:] for row in rows] for rows in all_rows]).T
    kid = (metrics_mod.kid(list(terminal), cfg.kid_reference(), cfg.embedder())
           if len(terminal) >= 2 else math.nan)
    summary = [(n, conf[n].mean(), ci[n].mean(), kid if n == len(conf) - 1 else math.nan,
                np.nanmean(ref_err[n]) if np.any(~np.isnan(ref_err[n])) else math.nan)
               for n in range(len(conf))]
    io.write_csv(out_dir / "summary.csv", ["stage", "conf", "clip_i", "kid", "mae"], summary)


def _map(fn, args: list[tuple], jobs: int) -> list:
    """fn over argument tuples, in order; in a worker pool when jobs > 1."""
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(fn, *zip(*args)))
    return [fn(*a) for a in args]


def _write_frames(out_dir: Path, prefix: str, frames, first: int = 0):
    """Write frames as prefix_NNN.mvgt and prefix_NNN.pgm, numbered from first."""
    for n, frame in enumerate(frames, start=first):
        io.write_tensor(out_dir / f"{prefix}_{n:03d}.mvgt", frame)
        io.write_pgm(out_dir / f"{prefix}_{n:03d}.pgm", frame)


@contextmanager
def _fresh_dir(out_dir: Path, manifest: dict):
    """out_dir emptied or made; its manifest.json reads "complete" once the block returns."""
    if out_dir.exists():
        shutil.rmtree(out_dir)
    out_dir.mkdir(parents=True)
    io.write_json(out_dir / "manifest.json", {**manifest, "status": "incomplete"})
    yield
    io.write_json(out_dir / "manifest.json", {**manifest, "status": "complete"})


def _write_run_dir(run_dir: Path, states: np.ndarray, cfg: RunConfig, seed: int, inputs: tuple):
    """One run directory from the run's (N + 1, *event) states, deltas.csv's
    step deltas computed here; returns its metrics rows and stored terminal state."""
    manifest = {
        "seed": seed,
        "config": cfg.raw,
        "config_hash": cfg.config_hash(),
        "library_version": __version__,
        "states": [f"state_{n:03d}.mvgt" for n in range(len(states))],
    }
    with _fresh_dir(run_dir, manifest):
        _write_frames(run_dir, "state", states)
        _write_frames(run_dir, "heatmap",
                      [diff_heatmap(b, a) for a, b in zip(states, states[1:])], first=1)
        deltas = _row_norms(states[1:] - states[:-1])
        io.write_csv(run_dir / "deltas.csv", ["stage", "delta"],
                     [(n + 1, repr(float(d))) for n, d in enumerate(deltas)])
        stored = [io.stored(state) for state in states]
        rows = _write_metrics(run_dir, seed, stored, inputs)
    return rows, stored[-1]


def _seed_blocks(seeds: list[int], jobs: int) -> list[list[int]]:
    """seeds (or ablate's rows) cut into contiguous blocks of near-equal size:
    at least jobs blocks (fewer only when there are fewer seeds), none over BATCH_ROWS."""
    n = min(len(seeds), max(jobs, math.ceil(len(seeds) / BATCH_ROWS)))
    q, r = divmod(len(seeds), n)
    ends = [b * q + min(b, r) for b in range(n + 1)]
    return [seeds[a:z] for a, z in zip(ends, ends[1:])]


def _simulate_block(cfg: RunConfig, seeds: list[int], out_dir: str):
    """One pie_run over a block of seeds, then each seed's run directory; a
    row's results do not depend on its batch-mates."""
    runs = pie_run(cfg.start_image(), cfg.conditions()[1], cfg.pie_config(),
                   cfg.denoiser(), cfg.mask(), seeds)
    results, inputs = [], _metric_inputs(cfg)
    for seed, states in zip(seeds, runs):
        results.append(_write_run_dir(Path(out_dir, f"seed_{seed:04d}"), states, cfg, seed, inputs))
        log.info("simulate seed=%d done (%d stages)", seed, len(states) - 1)
    return results


def cmd_simulate(cfg: RunConfig, out_dir: Path, seeds: list[int], jobs: int = 1) -> int:
    blocks = _seed_blocks(seeds, jobs)
    results = _map(_simulate_block, [(cfg, block, str(out_dir)) for block in blocks], jobs)
    all_rows, terminal = zip(*(run for block_runs in results for run in block_runs))
    _write_summary(out_dir, all_rows, terminal, cfg)
    print(f"simulate: {len(seeds)} run(s) -> {out_dir}")
    return 0


def _read_states(run_dir: Path, cfg: RunConfig) -> tuple[dict, list[np.ndarray]]:
    """The manifest and states of a run directory whose manifest reads
    complete and records a config that agrees with cfg on STATE_SECTIONS."""
    if not (run_dir / "manifest.json").exists():
        raise FileNotFoundError(f"missing trajectory: {run_dir}")
    manifest = io.read_json(run_dir / "manifest.json")
    if manifest.get("status") != "complete":
        raise InvalidArgument(f"{run_dir} is marked {manifest.get('status')!r}")
    if "config" not in manifest:
        raise InvalidArgument(f"{run_dir} records no config; simulate it again")
    differ = [s for s in STATE_SECTIONS if manifest["config"].get(s) != cfg.raw[s]]
    if differ:
        raise InvalidArgument(f"{run_dir} was simulated under another {', '.join(differ)}")
    return manifest, [io.read_tensor(run_dir / f) for f in manifest["states"]]


def cmd_video(cfg: RunConfig, out_dir: Path, seeds: list[int]) -> int:
    video = cfg.raw["video"]
    K, gamma, vseed = video["K"], video["gamma"], video["seed"]
    den, mask = cfg.denoiser(), cfg.mask()
    _, y_target = cfg.conditions()
    runs = []  # every requested run is read and checked before anything is written
    for seed in seeds:
        run_dir = out_dir / f"seed_{seed:04d}"
        _, states = _read_states(run_dir, cfg)
        if len(states) < 2:
            raise InvalidArgument(f"{run_dir} holds {len(states)} state(s); a video needs at least two")
        runs.append((seed, run_dir, states))
    for seed, run_dir, states in runs:
        skels = [make_clip_skeleton(states[n - 1], states[n], K, seed, n, vseed)
                 for n in range(1, len(states))]
        clips = generate_transition(skels, mask, den, y_target, y_target, gamma)
        # clip n is frames (n-1)(K-1) .. n(K-1): concat_clips drops each later
        # clip's seam frame, which it has checked equals the one before it
        frames = concat_clips(clips)
        video_dir = run_dir / "video"
        manifest = {
            "frames": len(frames),
            "clips": len(clips),
            "config": cfg.raw,
            "expected_frames": K * len(clips) - (len(clips) - 1),
            "per_clip": [{"seed": seed, "key": list(rng.clip_key(n, vseed)), "start_state": n - 1,
                          "end_state": n} for n in range(1, len(states))],
        }
        with _fresh_dir(video_dir, manifest):
            _write_frames(video_dir, "frame", frames)
        print(f"video: seed {seed}: {len(frames)} frames -> {video_dir}")
    return 0


def _ablate_batch(cfg: RunConfig, rows: list[tuple]):
    """One pie_run over rows [(PieConfig, seed)] that share γ: per row its
    terminal state, the terminal confidence and the trajectory's clip_i."""
    d = cfg.denoiser()
    _, y_target = cfg.conditions()
    emb = cfg.embedder()
    pcs, seeds = zip(*rows)
    runs = pie_run(cfg.start_image(), y_target, pcs, d, cfg.mask(), seeds)
    # copy the terminal state so the batch's state table is freed on return
    return [(states[-1].copy(), metrics_mod.confidence(states[-1], y_target, d.model),
             metrics_mod.clip_i(states, emb)) for states in runs]


def cmd_ablate(cfg: RunConfig, out_dir: Path, seeds: list[int], jobs: int = 1) -> int:
    base = cfg.pie_config()
    # (table, key columns, PieConfig) per sweep cell
    cells = (
        [("gamma", (g,), dataclasses.replace(base, gamma=g)) for g in GAMMA_SWEEP]
        + [("steps", (n,), dataclasses.replace(base, N=n, gamma=0.5)) for n in STEPS_SWEEP]
        + [("beta", (b1, b2), dataclasses.replace(base, beta1=b1, beta2=b2))
           for b1 in BETA1_SWEEP for b2 in BETA2_SWEEP]
    )
    pcs = [pc for _t, _k, pc in cells]
    # every (cell, seed index) is a row; the rows of one γ fill batches, longest N first
    batches = []
    for gamma in dict.fromkeys(pc.gamma for pc in pcs):
        try:  # a sweep γ may give ⌊γT⌋ = 0: fail before any output
            stage_step_count(gamma, cfg.schedule())
        except InvalidArgument as err:
            raise InvalidArgument(f"config invalid for the ablate sweep: {err}") from err
        group = sorted(((c, i) for c, pc in enumerate(pcs) if pc.gamma == gamma
                        for i in range(len(seeds))), key=lambda row: -pcs[row[0]].N)
        batches += _seed_blocks(group, 1)
    out_dir.mkdir(parents=True, exist_ok=True)
    results = _map(_ablate_batch, [(cfg, [(pcs[c], seeds[i]) for c, i in batch])
                                   for batch in batches], jobs)
    by_row = {row: out for batch, outs in zip(batches, results) for row, out in zip(batch, outs)}

    # per cell, in seed order: mean terminal confidence, mean clip_i, and the
    # terminal set's kid against one reference sample of the target condition
    emb = cfg.embedder()
    reference = cfg.kid_reference()
    tables = {"gamma": [], "steps": [], "beta": []}
    for c, (table, keys, _pc) in enumerate(cells):
        terminal, confs, clip_is = zip(*(by_row[c, i] for i in range(len(seeds))))
        cell_kid = metrics_mod.kid(list(terminal), reference, emb) if len(seeds) >= 2 else math.nan
        tables[table].append(keys + (float(np.mean(confs)), float(np.mean(clip_is)), cell_kid))
    io.write_csv(out_dir / "ablate_gamma.csv", ["gamma", "conf", "clip_i", "kid"], tables["gamma"])
    io.write_csv(out_dir / "ablate_steps.csv", ["steps", "conf", "clip_i", "kid"], tables["steps"])
    io.write_csv(out_dir / "ablate_beta.csv", ["beta1", "beta2", "conf", "clip_i", "kid"], tables["beta"])
    print(f"ablate: wrote 3 tables -> {out_dir}")
    return 0


def verify_model(shape) -> GmmModel:
    """Unit-variance, zero-mean single-Gaussian prior used by the decay suite."""
    return GmmModel({0: Mixture(
        weights=np.array([1.0]),
        means=np.zeros((1,) + tuple(shape)),
        variances=np.array([1.0]),
    )})


def cmd_verify_bounds(cfg: RunConfig, out_dir: Path) -> int:
    """Run the decay probes, write check_bound_suite's report as
    verify_report.json, print one line per check; exit 0 only if all pass."""
    v = cfg.raw["verify"]
    shape = cfg.domain().shape
    x0 = float(v["x0_scale"]) * np.ones(shape)
    den = GmmDenoiser(verify_model(shape), cfg.verify_schedule())
    probes = decay_probe_run(x0, den, Condition(0, 0.0), v["stages"], range(v["seeds"]))
    report = check_bound_suite(probes, v["delta"], v["burn_in"])
    out_dir.mkdir(parents=True, exist_ok=True)
    io.write_json(out_dir / "verify_report.json", report)
    for c in report["checks"]:
        print(f"[{'PASS' if c['passed'] else 'FAIL'}] {c['name']}: {c['detail']}")
    return 0 if all(c["passed"] for c in report["checks"]) else 1


def cmd_metrics(cfg: RunConfig, out_dir: Path, seeds: list[int]) -> int:
    run_dirs = [out_dir / f"seed_{seed:04d}" for seed in seeds]
    runs = [_read_states(run_dir, cfg) for run_dir in run_dirs]  # every run, before any write
    inputs, all_rows = _metric_inputs(cfg), []
    for seed, run_dir, (manifest, states) in zip(seeds, run_dirs, runs):
        all_rows.append(_write_metrics(run_dir, seed, states, inputs))
        # cfg may differ from the run's config outside STATE_SECTIONS: record it
        io.write_json(run_dir / "manifest.json",
                      {**manifest, "config": cfg.raw, "config_hash": cfg.config_hash()})
        print(f"metrics: recomputed {run_dir / 'metrics.csv'}")
    _write_summary(out_dir, all_rows, [states[-1] for _, states in runs], cfg)
    return 0


def _parse_seeds(text: str | None, cfg: RunConfig) -> list[int]:
    if not text:
        return cfg.seeds()
    seeds = [int(s) for s in text.split(",") if s.strip()]
    if not seeds:
        raise InvalidArgument(f"no seed in --seeds {text!r}")
    if any(s < 0 for s in seeds):
        raise InvalidArgument(f"negative seed in --seeds {text}")
    if len(set(seeds)) != len(seeds):
        raise InvalidArgument(f"duplicate seeds in --seeds {text}")
    return seeds


def main(argv=None) -> int:
    _setup_logging()
    parser = argparse.ArgumentParser(prog="mvg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("simulate", "video", "ablate", "verify-bounds", "metrics"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="run config JSON")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        if name != "verify-bounds":  # the decay suite takes its seed count from verify.seeds
            p.add_argument("--seeds", default=None, help="comma-separated seed list")
        if name in ("simulate", "ablate"):
            p.add_argument("--jobs", type=int, default=1, help="worker pool size")
    args = parser.parse_args(argv)

    try:
        if getattr(args, "jobs", 1) < 1:
            raise InvalidArgument(f"--jobs must be >= 1, got {args.jobs}")
        cfg = RunConfig.load(args.config)
        out_dir = Path(args.out) if args.out else cfg.out_dir()
        if args.command == "verify-bounds":
            return cmd_verify_bounds(cfg, out_dir)
        seeds = _parse_seeds(args.seeds, cfg)
        if args.command == "simulate":
            return cmd_simulate(cfg, out_dir, seeds, jobs=args.jobs)
        if args.command == "video":
            return cmd_video(cfg, out_dir, seeds)
        if args.command == "ablate":
            return cmd_ablate(cfg, out_dir, seeds, jobs=args.jobs)
        if args.command == "metrics":
            return cmd_metrics(cfg, out_dir, seeds)
        raise AssertionError(args.command)
    except Exception as err:  # noqa: BLE001 - CLI boundary
        print(f"error: {err}", file=sys.stderr)
        if os.environ.get("MVG_LOG") == "debug":
            raise
        return 1


if __name__ == "__main__":
    sys.exit(main())
