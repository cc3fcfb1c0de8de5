"""Run one `mvg` CLI command in-process with per-layer tracing, then dump the counters.

    python3 perfbench/trace_cmd.py OUT.json -- simulate --config ... --jobs 2

Every import site of each traced function is rebound to a wrapper: the module
that defines it, every `from`-import of it in another `mvg` module, and the
module global that `GmmDenoiser.predict` calls. A wrapper counts calls and
accumulates self time (its span minus the spans of traced calls nested in
it). Counters stay in memory and are written once, when the command returns.
Work done in `--jobs` pool workers is not collected: the workers inherit the
wrappers but cannot report back, so the submitted task count is recorded to
mark what is missing.
"""

from __future__ import annotations

import concurrent.futures
import functools
import importlib
import json
import math
import os
import sys
import time

# (module, qualified name) of every traced public function.
TARGETS = (
    ("denoiser", "gmm_eps"),
    ("scheduler", "ddim_step"),
    ("scheduler", "forward_diffuse"),
    ("scheduler", "ddim_chain"),
    ("pie", "pie_run"),
    ("pie", "composite_roi"),
    ("pie", "decay_probe_run"),
    ("pie", "check_bound_suite"),
    ("transition", "generate_transition"),
    ("transition", "make_clip_skeleton"),
    ("transition", "concat_clips"),
    ("io", "write_tensor"),
    ("io", "write_pgm"),
    ("io", "write_json"),
    ("io", "write_csv"),
    ("io", "read_tensor"),
    ("config", "RunConfig.from_dict"),
    ("toydata", "build_domain"),
    ("toydata", "sample"),
    ("rng", "normal"),
    ("metrics", "confidence"),
    ("metrics", "kid"),
    ("metrics", "clip_i"),
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _gmm_images(stat, args, kwargs):
    # rows evaluated: equals calls for single images, B for a (B, *event) batch
    x, model = _arg(args, kwargs, 0, "x"), _arg(args, kwargs, 3, "m")
    stat["images"] += math.prod(getattr(x, "shape", ())) // math.prod(model.event_shape)


def _file_bytes(stat, args, kwargs):
    stat["bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _kid_items(stat, args, kwargs):
    stat["items_given"] += len(_arg(args, kwargs, 0, "set_a")) + len(_arg(args, kwargs, 1, "set_b"))


EXTRAS = {
    "denoiser.gmm_eps": ("images", _gmm_images),
    "io.write_tensor": ("bytes", _file_bytes),
    "io.write_pgm": ("bytes", _file_bytes),
    "io.write_json": ("bytes", _file_bytes),
    "io.write_csv": ("bytes", _file_bytes),
    "io.read_tensor": ("bytes", _file_bytes),
    "metrics.kid": ("items_given", _kid_items),
}


class Tracer:
    """Per-function call counts and self times, computed from span nesting."""

    def __init__(self):
        self.stats: dict[str, dict] = {}
        self.stack = [0.0]  # child time covered inside each open span; [0] is the command
        self.pool_tasks = 0
        self.kid_items_used = 0

    def wrap(self, name, fn):
        stat = self.stats.setdefault(name, {"calls": 0, "self_s": 0.0})
        key, extra = EXTRAS.get(name, (None, None))
        if key:
            stat[key] = 0
        stack, clock = self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = clock()
            stack.append(0.0)
            try:
                out = fn(*args, **kwargs)
                if extra:
                    extra(stat, args, kwargs)
                return out
            finally:
                span = clock() - t0
                child = stack.pop()
                stack[-1] += span
                stat["calls"] += 1
                stat["self_s"] += span - child

        return traced

    def install(self):
        """Rebind every import site of each target inside the loaded mvg modules."""
        mods = [m for n, m in sys.modules.items() if n == "mvg" or n.startswith("mvg.")]
        for mod_name, qual in TARGETS:
            mod = importlib.import_module(f"mvg.{mod_name}")
            name = f"{mod_name}.{qual}"
            if "." in qual:  # a classmethod
                cls_name, meth = qual.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth].__func__
                setattr(cls, meth, classmethod(self.wrap(name, orig)))
                continue
            orig = getattr(mod, qual)
            wrapped = self.wrap(name, orig)
            for m in mods:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, attr, wrapped)
        # items KID actually compares, to set against the items it was given
        metrics = importlib.import_module("mvg.metrics")
        mmd = metrics._mmd2_unbiased

        def counted_mmd(a, b):
            self.kid_items_used += len(a) + len(b)
            return mmd(a, b)

        metrics._mmd2_unbiased = counted_mmd
        submit = concurrent.futures.ProcessPoolExecutor.submit

        def counted_submit(pool, *args, **kwargs):
            self.pool_tasks += 1
            return submit(pool, *args, **kwargs)

        concurrent.futures.ProcessPoolExecutor.submit = counted_submit


def main(argv) -> int:
    out_path, sep, cli_args = argv[0], argv[1], argv[2:]
    if sep != "--":
        raise SystemExit("usage: trace_cmd.py OUT.json -- COMMAND [ARGS...]")
    import mvg.cli

    tracer = Tracer()
    tracer.install()
    t0 = time.perf_counter()
    rc = mvg.cli.main(cli_args)
    wall = time.perf_counter() - t0
    tracer.stats["metrics.kid"]["items_used"] = tracer.kid_items_used
    with open(out_path, "w") as f:
        json.dump({
            "command": cli_args[0],
            "exit": rc,
            "wall_s": wall,
            "cli_self_s": wall - tracer.stack[0],
            "pool_tasks": tracer.pool_tasks,
            "layers": tracer.stats,
        }, f, indent=1)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
