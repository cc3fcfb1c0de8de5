"""Set-up probe and denoiser oracle for one workload config.

    python3 perfbench/probe.py setup  CONFIG {run|verify}
    python3 perfbench/probe.py oracle CONFIG {run|verify} SEED

`setup` is what every command pays before its first denoiser call: import
the package, load and validate the config, build the schedule, the model and
the denoiser. The benchmark times the whole process.

`oracle` evaluates `GmmDenoiser.predict` at fixed probes and compares it with
the posterior-mean form of the exact noise prediction, written out here in log
space over `model.mixture(y)`:

    E[x0 | x] = sum_i r_i(x) * (mu_i + (abar*s_i^2 / V_i) * (x/sqrt(abar) - mu_i)),
    eps(x)    = (x - sqrt(abar) * E[x0 | x]) / sqrt(1 - abar),   V_i = abar*s_i^2 + 1 - abar.

It prints the largest absolute difference and exits 1 when it exceeds 1e-9.
"""

from __future__ import annotations

import sys

import numpy as np

TOLERANCE = 1e-9


def build(config_path: str, kind: str):
    """Schedule, model, denoiser and probe conditions as the workload's command builds them."""
    import mvg.cli
    from mvg.config import RunConfig
    from mvg.denoiser import Condition, GmmDenoiser, blend_conditions
    from mvg.scheduler import build_schedule

    cfg = RunConfig.load(config_path)
    if kind == "verify":
        sc = cfg.raw["verify"]["schedule"]
        sched = build_schedule(sc.get("T", 2), sc.get("beta_start"), sc.get("beta_end"))
        model = mvg.cli.verify_model(cfg.domain().shape)
        conditions = [Condition(0, 0.0)]
    else:
        sched, model = cfg.schedule(), cfg.model()
        src, tgt = cfg.conditions()
        conditions = [src, tgt, blend_conditions(src, tgt, 0.3)]
    return sched, model, GmmDenoiser(model, sched), conditions


def oracle_eps(x, mix, abar: float) -> np.ndarray:
    flat = x.reshape(-1)
    mu = mix.means.reshape(len(mix.weights), -1)
    var = abar * mix.variances + (1.0 - abar)
    resid = flat - np.sqrt(abar) * mu
    logits = (np.log(mix.weights) - 0.5 * flat.size * np.log(2 * np.pi * var)
              - np.einsum("ij,ij->i", resid, resid) / (2 * var))
    r = np.exp(logits - np.logaddexp.reduce(logits))
    shrink = (abar * mix.variances / var)[:, None]
    x0_post = r @ (mu + shrink * (flat / np.sqrt(abar) - mu))
    return ((flat - np.sqrt(abar) * x0_post) / np.sqrt(1.0 - abar)).reshape(x.shape)


def oracle(config_path: str, kind: str, seed: int) -> float:
    sched, model, den, conditions = build(config_path, kind)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for y in conditions:
        mix = model.mixture(y)
        for t in sorted({1, max(1, sched.T // 2), sched.T}):
            abar = sched.alpha_bars[t]
            for _ in range(4):
                x0 = mix.means[rng.integers(len(mix.weights))]
                x = np.sqrt(abar) * x0 + np.sqrt(1.0 - abar) * rng.standard_normal(x0.shape)
                got = den.predict(x, t, y)
                worst = max(worst, float(np.max(np.abs(got - oracle_eps(x, mix, abar)))))
    return worst


def main(argv) -> int:
    mode, config_path, kind = argv[:3]
    if mode == "setup":
        build(config_path, kind)
        return 0
    worst = oracle(config_path, kind, int(argv[3]))
    print(f"oracle: max |eps - eps_oracle| = {worst:.3e} (tolerance {TOLERANCE:g})")
    return 0 if worst <= TOLERANCE else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
