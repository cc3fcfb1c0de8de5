"""Command-line surface: simulate | video | ablate | verify-bounds | metrics.

Every command takes --config PATH (JSON, checked in full when loaded) and is
deterministic given the config plus seeds. MVG_LOG={error,info,debug} controls
log verbosity. simulate's and ablate's pie_run batches run in a worker pool
under --jobs N (N >= 1). simulate cuts its seeds into contiguous blocks, at
least N of them and none over BATCH_ROWS seeds, and runs each block as one
pie_run. ablate makes every (sweep cell, seed) a row and runs the rows of one
γ together, across cells, in pie_run batches of BATCH_ROWS. video denoises
all clips of a run in one generate_transition call, and its video/ frames are
hard links to the clip frames they repeat.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__, io, metrics as metrics_mod, rng, toydata
from .config import RunConfig
from .denoiser import Condition, GmmDenoiser, GmmModel, Mixture
from .errors import InvalidArgument
from .pie import Trajectory, check_bound_suite, diff_heatmap, pie_run, run_bound_suite, stage_step_count
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


def _setup_logging():
    level = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    logging.basicConfig(
        level=level.get(os.environ.get("MVG_LOG", "error"), logging.ERROR),
        format="%(levelname)s %(name)s: %(message)s",
    )


def _load_reference_states(cfg: RunConfig):
    return [io.read_tensor(cfg.base_dir / p) for p in cfg.raw["reference_states"]]


def _write_metrics(run_dir: Path, seed: int, states, model, y_target, embedder, reference):
    """Write and return metrics.csv's per-stage rows (run_id, stage, conf,
    clip_i, kid, mae) for the states as stored; kid is a set metric and stays
    nan at stage level, mae needs reference states."""
    cos = metrics_mod.stage_cosines(states, embedder) if len(states) >= 2 else np.array([])
    rows = []
    for n, state in enumerate(states):
        conf = metrics_mod.confidence(state, y_target, model)
        ci = 1.0 if n == 0 else float(cos[n - 1])
        ref_err = math.nan
        if n < len(reference):
            ref_err = metrics_mod.mae(state, reference[n])
        rows.append((f"seed{seed}", n, conf, ci, math.nan, ref_err))
    io.write_csv(run_dir / "metrics.csv", ["run_id", "stage", "conf", "clip_i", "kid", "mae"], rows)
    return rows


def _map(fn, args: list[tuple], jobs: int) -> list:
    """fn over argument tuples, in order; in a worker pool when jobs > 1."""
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(fn, *zip(*args)))
    return [fn(*a) for a in args]


def _write_frames(out_dir: Path, prefix: str, frames, first: int = 0):
    """Write frames as prefix_NNN.mvgt and prefix_NNN.pgm, numbered from first."""
    for n, frame in enumerate(frames, start=first):
        io.write_tensor(out_dir / f"{prefix}_{n:03d}.mvgt", frame)
        io.write_pgm(out_dir / f"{prefix}_{n:03d}.pgm", frame)


def _link_frames(out_dir: Path, prefix: str, sources: list[Path]):
    """Make out_dir/prefix_NNN.mvgt and .pgm hard links to the frame files
    sources[NNN] + .mvgt and .pgm. Each link is made under a temporary name and
    renamed onto its final one, so a rerun replaces what is there and a crash
    leaves no partial file under a final name."""
    for n, src in enumerate(sources):
        for suffix in (".mvgt", ".pgm"):
            with io.replacing(out_dir / f"{prefix}_{n:03d}{suffix}") as tmp:
                os.link(src.with_name(src.name + suffix), tmp)


def _write_run_dir(run_dir: Path, traj: Trajectory, cfg: RunConfig, seed: int):
    run_dir.mkdir(parents=True, exist_ok=True)
    model = cfg.model()
    manifest = {
        "status": "incomplete",
        "seed": seed,
        "config_hash": cfg.config_hash(),
        "library_version": __version__,
        "schedule": cfg.schedule().to_dict(),
        "pie": {**cfg.pie_config().to_dict(), "seed": seed},
        "domain": cfg.domain().to_dict(),
        "model": model.to_dict(),
        "n_states": traj.N + 1,
        "states": [f"state_{n:03d}.mvgt" for n in range(traj.N + 1)],
    }
    io.write_json(run_dir / "manifest.json", manifest)

    _write_frames(run_dir, "state", traj.states)
    _write_frames(run_dir, "heatmap",
                  [diff_heatmap(b, a) for a, b in zip(traj.states, traj.states[1:])], first=1)
    io.write_csv(run_dir / "deltas.csv", ["stage", "delta"],
                 [(n + 1, repr(float(d))) for n, d in enumerate(traj.step_deltas)])

    stored = [io.stored(state) for state in traj.states]
    rows = _write_metrics(run_dir, seed, stored, model, cfg.conditions()[1], cfg.embedder(),
                          _load_reference_states(cfg))

    manifest["status"] = "complete"
    io.write_json(run_dir / "manifest.json", manifest)
    return rows


def _seed_blocks(seeds: list[int], jobs: int) -> list[list[int]]:
    """seeds cut into contiguous blocks of near-equal size: at least jobs
    blocks (fewer only when there are fewer seeds), none over BATCH_ROWS."""
    n = min(len(seeds), max(jobs, math.ceil(len(seeds) / BATCH_ROWS)))
    q, r = divmod(len(seeds), n)
    ends = [b * q + min(b, r) for b in range(n + 1)]
    return [seeds[a:z] for a, z in zip(ends, ends[1:])]


def _simulate_block(cfg: RunConfig, seeds: list[int], out_dir: str):
    """One pie_run over a block of seeds, then each seed's run directory; a
    row's results do not depend on its batch-mates."""
    trajs = pie_run(cfg.start_image(), cfg.conditions()[1], cfg.pie_config(),
                    cfg.denoiser(), cfg.mask(), cfg.schedule(), seeds)
    all_rows = []
    for seed, traj in zip(seeds, trajs):
        all_rows.append(_write_run_dir(Path(out_dir) / f"seed_{seed:04d}", traj, cfg, seed))
        log.info("simulate seed=%d done (%d stages)", seed, traj.N)
    return all_rows


def cmd_simulate(cfg: RunConfig, out_dir: Path, seeds: list[int], jobs: int = 1) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    blocks = _seed_blocks(seeds, jobs)
    results = _map(_simulate_block, [(cfg, block, str(out_dir)) for block in blocks], jobs)
    all_rows = [rows for block_rows in results for rows in block_rows]

    # seed-averaged per-stage summary plus a terminal-state set distance
    by_stage: dict[int, list] = {}
    for rows in all_rows:
        for (_rid, n, conf, ci, _kid, ref_err) in rows:
            by_stage.setdefault(n, []).append((conf, ci, ref_err))
    terminal_kid = math.nan
    if len(seeds) >= 2:
        terminal = [io.read_tensor(out_dir / f"seed_{s:04d}" / f"state_{max(by_stage):03d}.mvgt")
                    for s in seeds]
        ref_cfg = cfg.raw["kid_reference"]
        reference = toydata.sample(cfg.model(), cfg.conditions()[1],
                                   ref_cfg["count"], seed=ref_cfg["seed"])
        terminal_kid = metrics_mod.kid(terminal, reference, cfg.embedder())
    summary = []
    for n in sorted(by_stage):
        vals = np.array(by_stage[n], dtype=np.float64)
        summary.append((n, vals[:, 0].mean(), vals[:, 1].mean(),
                        terminal_kid if n == max(by_stage) else math.nan,
                        np.nanmean(vals[:, 2]) if np.any(~np.isnan(vals[:, 2])) else math.nan))
    io.write_csv(out_dir / "summary.csv", ["stage", "conf", "clip_i", "kid", "mae"], summary)
    print(f"simulate: {len(seeds)} run(s) -> {out_dir}")
    return 0


def _read_states(run_dir: Path) -> list[np.ndarray]:
    manifest = io.read_json(run_dir / "manifest.json")
    if manifest.get("status") != "complete":
        raise InvalidStateDir(f"{run_dir} is marked {manifest.get('status')!r}")
    return [io.read_tensor(run_dir / f) for f in manifest["states"]]


class InvalidStateDir(RuntimeError):
    pass


def cmd_video(cfg: RunConfig, out_dir: Path, seeds: list[int]) -> int:
    video = cfg.raw["video"]
    K, gamma, vseed = video["K"], video["gamma"], video["seed"]
    sched, den, mask = cfg.schedule(), cfg.denoiser(), cfg.mask()
    _, y_target = cfg.conditions()
    for seed in seeds:
        run_dir = out_dir / f"seed_{seed:04d}"
        if not (run_dir / "manifest.json").exists():
            raise FileNotFoundError(f"missing trajectory: {run_dir}")
        states = _read_states(run_dir)
        tags = [(n, vseed, rng.CLIP) for n in range(1, len(states))]
        skels = [make_clip_skeleton(states[n - 1], states[n], K, seed, tag=tag)
                 for n, tag in enumerate(tags, start=1)]
        clips = generate_transition(skels, mask, den, sched, y_target, y_target, gamma)
        clip_dirs = []
        for n, (clip, tag) in enumerate(zip(clips, tags), start=1):
            clip_dir = run_dir / f"clip_{n:03d}"
            clip_dir.mkdir(exist_ok=True)
            _write_frames(clip_dir, "frame", clip.frames)
            io.write_json(clip_dir / "manifest.json",
                          {"K": clip.K, "seed": seed, "tag": list(tag),
                           "start_state": n - 1, "end_state": n})
            clip_dirs.append(clip_dir)
        video_clip = concat_clips(clips)
        # the video is the first clip's frames, then each later clip's past its
        # seam frame, which concat_clips has checked equals the one before it
        sources = [clip_dir / f"frame_{j:03d}" for c, clip_dir in enumerate(clip_dirs)
                   for j in range(0 if c == 0 else 1, K)]
        if len(sources) != video_clip.K:
            raise AssertionError(f"{len(sources)} frame files for {video_clip.K} video frames")
        video_dir = run_dir / "video"
        video_dir.mkdir(exist_ok=True)
        _link_frames(video_dir, "frame", sources)
        io.write_json(video_dir / "manifest.json", {
            "frames": video_clip.K,
            "clips": len(clips),
            "per_clip_K": K,
            "expected_frames": K * len(clips) - (len(clips) - 1),
        })
        print(f"video: seed {seed}: {video_clip.K} frames -> {video_dir}")
    return 0


def _ablate_batch(cfg: RunConfig, rows: list[tuple]):
    """One pie_run over rows [(PieConfig, seed)] that share γ: per row its
    terminal state, the terminal confidence and the trajectory's clip_i."""
    model, sched = cfg.model(), cfg.schedule()
    _, y_target = cfg.conditions()
    emb = cfg.embedder()
    pcs, seeds = zip(*rows)
    trajs = pie_run(cfg.start_image(), y_target, pcs, GmmDenoiser(model, sched), cfg.mask(),
                    sched, seeds)
    # copy the terminal state so the batch's state table is freed on return
    return [(traj.states[-1].copy(), metrics_mod.confidence(traj.states[-1], y_target, model),
             metrics_mod.clip_i(traj.states, emb)) for traj in trajs]


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
        batches += [group[j:j + BATCH_ROWS] for j in range(0, len(group), BATCH_ROWS)]
    out_dir.mkdir(parents=True, exist_ok=True)
    results = _map(_ablate_batch, [(cfg, [(pcs[c], seeds[i]) for c, i in batch])
                                   for batch in batches], jobs)
    by_row = {row: out for batch, outs in zip(batches, results) for row, out in zip(batch, outs)}

    # per cell, in seed order: mean terminal confidence, mean clip_i, and the
    # terminal set's kid against one reference sample of the target condition
    _, y_target = cfg.conditions()
    emb = cfg.embedder()
    ref_cfg = cfg.raw["kid_reference"]
    reference = toydata.sample(cfg.model(), y_target, ref_cfg["count"], seed=ref_cfg["seed"])
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
    return GmmModel.single_class(Mixture(
        weights=np.array([1.0]),
        means=np.zeros((1,) + tuple(shape)),
        variances=np.array([1.0]),
    ))


def cmd_verify_bounds(cfg: RunConfig, out_dir: Path) -> int:
    v = cfg.raw["verify"]
    sched = cfg.verify_schedule()
    shape = cfg.domain().shape
    model = verify_model(shape)
    den = GmmDenoiser(model, sched)
    x0 = float(v["x0_scale"]) * np.ones(shape)
    suite = run_bound_suite(x0, den, Condition(0, 0.0), sched,
                            n_stages=v["stages"], seeds=range(v["seeds"]),
                            delta=v["delta"], burn_in=v["burn_in"])
    outcomes = check_bound_suite(suite)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = {
        "schedule": sched.to_dict(),
        "alpha0": float(sched.alpha_bars[1]),
        "alpha1": float(sched.alpha_bars[2]),
        "target_slope": suite.target_slope,
        "mean_slope": suite.mean_slope(),
        "delta": suite.delta,
        "n_min": [b.n_min for b in suite.bounds],
        "kappa": [b.kappa for b in suite.bounds],
        "checks": [{"name": o.name, "passed": o.passed, "detail": o.detail} for o in outcomes],
    }
    io.write_json(out_dir / "verify_report.json", report)
    ok = True
    for o in outcomes:
        print(f"[{'PASS' if o.passed else 'FAIL'}] {o.name}: {o.detail}")
        ok &= o.passed
    return 0 if ok else 1


def cmd_metrics(cfg: RunConfig, out_dir: Path, seeds: list[int]) -> int:
    model = cfg.model()
    _, y_target = cfg.conditions()
    emb = cfg.embedder()
    reference = _load_reference_states(cfg)
    for seed in seeds:
        run_dir = out_dir / f"seed_{seed:04d}"
        _write_metrics(run_dir, seed, _read_states(run_dir), model, y_target, emb, reference)
        print(f"metrics: recomputed {run_dir / 'metrics.csv'}")
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
