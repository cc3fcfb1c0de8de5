"""Random-stream keys: rng alone lays them out, and no two kinds of draw share one."""

import json
import re
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np

import mvg
from mvg import rng
from mvg.cli import STEPS_SWEEP, main
from mvg.config import RunConfig

SRC = Path(mvg.__file__).resolve().parent


def test_only_rng_builds_generators():
    """Every stream is keyed in rng.py: no other module builds a generator."""
    banned = re.compile(r"SeedSequence|Philox|default_rng|np\.random\.Generator")
    offenders = [f"{path.name}:{n}" for path in sorted(SRC.glob("*.py")) if path.name != "rng.py"
                 for n, line in enumerate(path.read_text().splitlines(), start=1)
                 if banned.search(line)]
    assert offenders == []


def _record_streams(monkeypatch) -> list:
    """Record (seed, spawn key, consumer) for every SeedSequence made: the
    consumer is the innermost function outside rng.py, pie._noise and
    comprehensions, so the pie recursions are told apart."""
    records, seed_sequence = [], np.random.SeedSequence

    def recorded(entropy=None, *, spawn_key=(), **kwargs):
        frame = sys._getframe(1)
        while (frame.f_code.co_filename == rng.__file__
               or frame.f_code.co_name == "_noise" or frame.f_code.co_name.startswith("<")):
            frame = frame.f_back
        consumer = f"{Path(frame.f_code.co_filename).stem}.{frame.f_code.co_name}"
        records.append(((entropy, tuple(spawn_key)), consumer))
        return seed_sequence(entropy, spawn_key=spawn_key, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", recorded)
    return records


def test_every_stream_key_has_one_consumer(tmp_path, monkeypatch):
    """simulate + video, ablate, verify-bounds, kid_reference and a random
    projection draw exactly the (seed, spawn key) pairs the rng layout names,
    and no key is drawn by two consumers. start.seed, the reference seed and
    the embedder seed equal run and probe seeds, so only the kinds keep the
    streams apart."""
    config = {
        "schedule": {"T": 10},
        "pie": {"N": 2, "gamma": 0.5},
        "start": {"kind": "sample", "seed": 7},
        "kid_reference": {"count": 4, "seed": 3},
        "embedder": {"kind": "random_projection", "out_dim": 8, "seed": 1},
        "video": {"K": 4, "gamma": 0.5, "seed": 1},
        "verify": {"stages": 15, "seeds": 8},
        "seeds": [0, 1],
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    records = _record_streams(monkeypatch)
    drawn = {}
    for command in ("simulate", "video", "ablate", "verify-bounds"):
        start = len(records)
        assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        drawn[command] = {key for key, _ in records[start:]}
    cfg = RunConfig.load(path)
    start = len(records)
    cfg.kid_reference()
    drawn["kid_reference"] = {key for key, _ in records[start:]}
    start = len(records)
    cfg.embedder()(np.ones(cfg.domain().shape))
    drawn["embedder"] = {key for key, _ in records[start:]}

    consumers = defaultdict(set)
    for key, consumer in records:
        consumers[key].add(consumer)
    shared = {key: sorted(c) for key, c in consumers.items() if len(c) > 1}
    assert shared == {}

    seeds, N = config["seeds"], config["pie"]["N"]
    given = {(7, (rng.START,)), (3, (rng.SAMPLE,)), (1, (rng.EMBED,))}
    n_max = max(STEPS_SWEEP)  # the stage count of ablate's longest run
    assert drawn == {
        "simulate": given | {(s, (rng.EDIT, n)) for s in seeds for n in range(1, N + 1)},
        "video": {(s, (rng.CLIP, n, 1, j)) for s in seeds for n in range(1, N + 1)
                  for j in range(1, 3)},
        "ablate": given | {(s, (rng.EDIT, n)) for s in seeds for n in range(1, n_max + 1)},
        "verify-bounds": {(p, (rng.PROBE,)) for p in range(8)},
        "kid_reference": {(3, (rng.SAMPLE,))},
        "embedder": {(1, (rng.EMBED,))},
    }
