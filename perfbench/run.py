"""The mvg benchmark: closed-loop CLI workloads, output checks, and a traced pass.

Run from the repository root:

    python3 perfbench/run.py --workload edit_sweep --seed 1 --seconds 40 --trace 0

One client runs one `mvg` command at a time (a closed loop) in a fresh
interpreter, with BLAS/OpenMP pinned to one thread per process. A pass is one
full run of the workload's commands on the seed list built from --seed,
preceded by SETUP_PROBES set-up probes; passes repeat until --seconds is used
up, every pass's outputs are checked, and timings are reported as medians over
passes.
With --trace 1 the run alternates untraced passes with passes whose commands
run under perfbench/trace_cmd.py, and reports the per-layer counters and the
tracing overhead instead of the end-to-end metrics.

The last line of stdout is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
`attempted` counts commands, output checks, set-up probes and the denoiser
oracle; `failed` counts those that failed (the benchmark's failed_ops). The
lines before it give the environment record, one line per pass, and the
per-layer table. Workloads, metrics and the layer predictions are described
in perfbench/README.md.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:  # before numpy loads BLAS
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from typing import Callable  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
from trace_cmd import TARGETS  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
COMMAND_TIMEOUT_S = 120
SETUP_PROBES = 2  # per pass; setup_s is the median over all probes of the run

# Run seeds per pass; bound_check's size is the verify config's seed count
# (200 in perfbench/verify.json), which the tiny size lowers.
SIZES = {
    "full": {"edit_sweep": 4, "clip_render": 4},
    "tiny": {"edit_sweep": 2, "clip_render": 2, "bound_check": 20},
}


def _ablate(config, out, seeds):
    return [["ablate", "--config", config, "--out", out, "--seeds", seeds, "--jobs", "1"]]


def _clips(config, out, seeds):
    common = ["--config", config, "--out", out, "--seeds", seeds]
    return [["simulate", *common, "--jobs", "2"], ["video", *common], ["metrics", *common]]


def _verify(config, out, seeds):
    return [["verify-bounds", "--config", config, "--out", out]]


@dataclass(frozen=True)
class Workload:
    config: str         # relative to the repository root
    probe_kind: str     # how probe.py builds the denoiser: "run" or "verify"
    commands: Callable  # (config, out_dir, seed_list) -> list of mvg argv
    work: Callable      # (cfg, seeds) -> (units of work per pass, command that does them)
    check: Callable     # checks.check_*(out_dir, cfg, seeds) -> list of failures
    images: Callable    # checks.*_images(out_dir, cfg, seeds) -> closed-form gmm_eps rows


WORKLOADS = {
    # PIE trajectories: 19 sweep cells x seeds, all in one ablate process
    "edit_sweep": Workload("configs/ablate.json", "run", _ablate,
                           lambda cfg, seeds: (19 * len(seeds), "ablate"),
                           checks.check_edit_sweep, checks.edit_sweep_images),
    # frames the video command renders
    "clip_render": Workload("configs/video.json", "run", _clips,
                            lambda cfg, seeds: (len(seeds) * checks.video_frames(cfg), "video"),
                            checks.check_clip_render, checks.clip_render_images),
    # seeds x stages of the decay suite
    "bound_check": Workload("perfbench/verify.json", "verify", _verify,
                            lambda cfg, seeds: (cfg["verify"]["seeds"] * cfg["verify"]["stages"],
                                                "verify-bounds"),
                            checks.check_bound_check, checks.bound_check_images),
}


@dataclass
class Tally:
    """Operations attempted and failed, with a reason for each failure."""

    attempted: int = 0
    failures: list = field(default_factory=list)

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"FAILED: {what}", flush=True)
        return ok


@dataclass
class CmdResult:
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    exit: int


def run_process(argv: list[str], env: dict, log_path: Path) -> CmdResult:
    """Run argv to completion in its own process group; rusage includes its reaped children."""
    with open(log_path, "ab") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT,
                                start_new_session=True)
        timer = threading.Timer(COMMAND_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return CmdResult(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                     proc.returncode)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("MVG_LOG", None)
    return env


def seed_list(name: str, seed: int, size: str) -> list[int]:
    """Distinct run seeds derived from the workload seed (bound_check: none reach verify)."""
    if name == "bound_check":
        return []
    return sorted(random.Random(seed).sample(range(100_000), SIZES[size][name]))


def workload_config(name: str, size: str, work: Path) -> Path:
    """The config the commands read; bound_check's tiny size writes a smaller copy."""
    path = ROOT / WORKLOADS[name].config
    if name == "bound_check" and name in SIZES[size]:
        raw = json.loads(path.read_text())
        raw["verify"]["seeds"] = SIZES[size][name]
        path = work / "verify.json"
        path.write_text(json.dumps(raw, indent=2))
    return path


# -- environment record ---------------------------------------------------------

def calibration_s() -> float:
    """Fixed pure-numpy work on 256-element arrays (the workload's array size), median of 5."""
    a = np.linspace(0.0, 1.0, 256)
    b = np.linspace(1.0, 2.0, 256).reshape(16, 16)
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(4000):
            c = np.exp(-a) * 0.5 + a
            c.reshape(16, 16) @ b
            float(np.sum(c * c))
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():  # git would look in the parent directories
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def environment(work: Path, seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        openblas = "unknown"
    try:
        fs = subprocess.run(["stat", "-f", "-c", "%T", str(work)], capture_output=True,
                            text=True).stdout.strip()
    except OSError:
        fs = ""
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "openblas": openblas,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "workload_seed": seed,
        "output_fs": fs or "unknown",
        "calibration_s": calibration_s(),
    }


# -- passes -----------------------------------------------------------------------

def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "n": len(values)}


def run_pass(wl, cfg, seeds, cfg_path, env, work, tally, index, traced):
    out = work / f"pass_{index:03d}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    seed_arg = ",".join(map(str, seeds))
    results, traces = [], []
    for argv in wl.commands(str(cfg_path), str(out), seed_arg):
        if traced:
            trace_path = out / f"trace_{argv[0]}.json"
            full = [sys.executable, str(BENCH / "trace_cmd.py"), str(trace_path), "--", *argv]
        else:
            full = [sys.executable, "-m", "mvg.cli", *argv]
        res = run_process(full, env, work / "commands.log")
        tally.record(res.exit == 0, f"pass {index}: mvg {argv[0]} exited {res.exit}")
        results.append((argv[0], res))
        if traced and res.exit == 0:
            traces.append(json.loads(trace_path.read_text()))
    try:
        errs = wl.check(out, cfg, seeds)
    except Exception as err:  # noqa: BLE001 - any crash of a check is a failed check
        errs = [f"check raised {type(err).__name__}: {err}"]
    tally.record(not errs, f"pass {index}: output check: {'; '.join(errs[:5])}")
    expected = None
    if traced and len(traces) == len(results):
        got = sum(t["layers"]["denoiser.gmm_eps"]["images"] for t in traces)
        try:
            expected = wl.images(out, cfg, seeds)
        except (OSError, KeyError, ValueError) as err:
            expected = f"unknown ({err})"
        tally.record(got == expected,
                     f"pass {index}: traced gmm_eps images {got} != closed form {expected}")
    shutil.rmtree(out, ignore_errors=True)
    return results, traces, expected


def layer_table(traces: list[dict]) -> dict:
    """One traced pass's per-layer metrics, summed over its commands."""
    table = {}
    for mod, qual in TARGETS:
        key = f"{mod}.{qual}"
        for t in traces:
            for k, v in t["layers"][key].items():
                if k in ("calls", "self_s", "bytes", "images"):
                    table[f"{key}.{k}"] = table.get(f"{key}.{k}", 0) + v
    images = table["denoiser.gmm_eps.images"]
    table["denoiser.gmm_eps.us_per_image"] = (
        1e6 * table["denoiser.gmm_eps.self_s"] / images if images else 0.0)
    given = sum(t["layers"]["metrics.kid"]["items_given"] for t in traces)
    used = sum(t["layers"]["metrics.kid"]["items_used"] for t in traces)
    table["metrics.kid.items_used_ratio"] = used / given if given else 1.0
    table["cli.self_s"] = sum(t["cli_self_s"] for t in traces)
    table["trace.pool_tasks_uncollected"] = sum(t["pool_tasks"] for t in traces)
    return table


def per_command_notes(traces: list[dict]) -> list[dict]:
    notes = []
    for t in traces:
        row = {"command": t["command"], "wall_s": t["wall_s"], "cli_self_s": t["cli_self_s"],
               "gmm_eps_calls": t["layers"]["denoiser.gmm_eps"]["calls"]}
        if t["pool_tasks"]:
            row["not_collected"] = (f"spans of {t['pool_tasks']} tasks run in --jobs pool workers "
                                    "(pie_run and everything under it)")
        notes.append(row)
    return notes


PER_LAYER_UNITS = {"calls": "count", "images": "count", "bytes": "B", "self_s": "s",
                   "us_per_image": "us", "items_used_ratio": "ratio", "overhead_ratio": "ratio",
                   "pool_tasks_uncollected": "count"}


def per_layer_metrics(passes, traced_passes) -> dict:
    """Median over traced passes of each layer metric, plus the tracing overhead."""
    tables = [t for _, t in traced_passes if t is not None]
    metrics = {k: statistics.median(t[k] for t in tables) for k in tables[0]} if tables else {}
    metrics["trace.overhead_ratio"] = (statistics.median(w for w, _ in traced_passes)
                                       / statistics.median(w for w, _ in passes) - 1)
    print("per_layer " + json.dumps(metrics), flush=True)
    return {k: {"value": v, "unit": PER_LAYER_UNITS[k.rsplit(".", 1)[1]]}
            for k, v in sorted(metrics.items())}


def end_to_end_metrics(name, wl, cfg, seeds, setup, passes) -> dict:
    """Median over passes of each end-to-end metric; quartiles go on the summary line."""
    units, command = wl.work(cfg, seeds)
    samples = {
        "setup_s": (setup, "s"),
        "wall_s": ([w for w, _ in passes], "s"),
        "cpu_s": ([sum(r.cpu_s for _, r in res) for _, res in passes], "s"),
        "work_per_s": ([units / dict(res)[command].wall_s for _, res in passes], "1/s"),
        "peak_rss_mb": ([max(r.maxrss_mb for _, r in res) for _, res in passes], "MB"),
    }
    if name == "clip_render":
        sims = [len(seeds) / dict(res)["simulate"].wall_s for _, res in passes]
        print("simulate_runs_per_s " + json.dumps(quartiles(sims)), flush=True)
    samples = {k: v for k, v in samples.items() if v[0]}
    print("summary " + json.dumps({k: quartiles(v) for k, (v, _) in samples.items()}), flush=True)
    return {k: {"value": statistics.median(v), "unit": u} for k, (v, u) in samples.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="tiny: smallest inputs, for the self-test")
    args = parser.parse_args(argv)

    name, wl = args.workload, WORKLOADS[args.workload]
    if not (SRC / "mvg" / "cli.py").is_file() or not (ROOT / wl.config).is_file():
        print(f"error: need the mvg sources under {SRC} and {ROOT / wl.config}", file=sys.stderr)
        return 2
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = child_env()
    seeds = seed_list(name, args.seed, args.size)
    cfg_path = workload_config(name, args.size, work)
    cfg = json.loads(cfg_path.read_text())
    log = work / "commands.log"

    env_record = environment(work, args.seed)
    env_record.update(seeds=seeds, size=args.size, workload_seed_reaches_program=bool(seeds))
    print("environment " + json.dumps(env_record), flush=True)
    tally = Tally()
    probe = [sys.executable, str(BENCH / "probe.py")]
    # the oracle runs first, untimed: its import compiles the bytecode, as an installed
    # package would have it, so no timed process pays for that
    res = run_process([*probe, "oracle", str(cfg_path), wl.probe_kind, str(args.seed)], env, log)
    tally.record(res.exit == 0, f"denoiser oracle exited {res.exit} (see {log})")
    # Set-up probes are interleaved with the passes so both sample the same stretch of host time.
    setup, passes, traced_passes = [], [], []  # traced: (wall_s, layer table or None)
    start, iterations = time.perf_counter(), []
    while True:
        t0 = time.perf_counter()
        index = len(passes) + len(traced_passes)
        traced = bool(args.trace) and len(traced_passes) < len(passes)
        for _ in range(0 if args.trace else SETUP_PROBES):
            res = run_process([*probe, "setup", str(cfg_path), wl.probe_kind], env, log)
            if tally.record(res.exit == 0, f"set-up probe exited {res.exit}"):
                setup.append(res.wall_s)
        results, traces, expected = run_pass(wl, cfg, seeds, cfg_path, env, work, tally,
                                             index, traced)
        wall = sum(r.wall_s for _, r in results)
        row = {"pass": index, "traced": traced, "wall_s": wall,
               "commands": {c: r.wall_s for c, r in results}}
        if traced:
            complete = len(traces) == len(results)
            traced_passes.append((wall, layer_table(traces) if complete else None))
            row.update(gmm_eps_images_expected=expected, per_command=per_command_notes(traces))
        else:
            passes.append((wall, results))
        print("pass " + json.dumps(row), flush=True)
        iterations.append(time.perf_counter() - t0)
        enough = traced_passes or not args.trace  # a traced run needs one pass of each kind
        if enough and time.perf_counter() - start + statistics.median(iterations) > args.seconds:
            break

    if args.trace:
        metrics = per_layer_metrics(passes, traced_passes)
    else:
        metrics = end_to_end_metrics(name, wl, cfg, seeds, setup, passes)
    failed = len(tally.failures)
    print(json.dumps({"correct": failed == 0, "attempted": tally.attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
