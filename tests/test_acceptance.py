"""Acceptance suite: every criterion runs at its stated tolerance and prints
one pass/fail line (visible under pytest -s)."""

import time
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import spearmanr

from mvg import (Condition, GmmDenoiser, build_schedule,
                 ddim_step, forward_diffuse, gmm_eps, pie_run)
from mvg.cli import main, verify_model
from mvg.config import RunConfig
from mvg.metrics import IdentityEmbedder, RandomProjectionEmbedder, clip_i, confidence, kid
from mvg.pie import PieConfig, check_bound_suite, decay_probe_run, prop2_bound
from mvg.toydata import DomainSpec, make_mask, sample
from mvg.transition import generate_transition, make_clip_skeleton
from tests.conftest import SOFT_DOMAIN, SOFT_MASK
from tests.test_denoiser import finite_difference_eps
from tests.test_transition import SIGMA_GEN_L2

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def report(cid: str, passed: bool, detail: str):
    print(f"[{'PASS' if passed else 'FAIL'}] {cid}: {detail}")
    assert passed, f"{cid}: {detail}"


@pytest.fixture(scope="module")
def decay_suite():
    """The probes, check_bound_suite's report, each probe's Prop. 2 bound,
    and the seconds the suite took."""
    start = time.perf_counter()
    sched = build_schedule(2, 0.1, 0.1)
    den = GmmDenoiser(verify_model((16, 16)), sched)
    x0 = 10.0 * np.ones((16, 16))
    probes = decay_probe_run(x0, den, Condition(0), n_stages=100, seeds=range(50))
    suite_report = check_bound_suite(probes, delta=0.01, burn_in=5)
    bounds = [prop2_bound(sched, C1=probes.c1, C2=float(c2), delta=0.01)
              for c2 in probes.c2_observed]
    return probes, suite_report, bounds, time.perf_counter() - start


def test_c01_ddim_consistency_law():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    schedules = [build_schedule(T, bs, be) for T, bs, be in
                 ((50, 1e-4, 0.02), (10, 0.01, 0.2), (100, 1e-3, 0.05), (2, 0.1, 0.3))]
    for i in range(1000):
        s = schedules[i % len(schedules)]
        t = int(rng.integers(2, s.T + 1))
        shape = [(3,), (4, 4), (2, 3, 2)][i % 3]
        x0 = rng.standard_normal(shape)
        eps = rng.standard_normal(shape)
        lhs = ddim_step(forward_diffuse(x0, t, eps, s), t, eps, s)
        rhs = forward_diffuse(x0, t - 1, eps, s)
        worst = max(worst, np.linalg.norm(lhs - rhs) / max(np.linalg.norm(rhs), 1e-300))
    elapsed = time.perf_counter() - start
    report("C1 ddim-consistency",
           worst <= 1e-10 and elapsed < 5.0,
           f"worst rel err {worst:.2e} over 1000 cases in {elapsed:.2f}s")


def test_c02_analytic_denoiser_correctness(default_model, sched50):
    start = time.perf_counter()
    rng = np.random.default_rng(77)
    worst = 0.0
    for i in range(200):
        t = int(rng.integers(3, 51))
        y = Condition(int(rng.integers(0, 2)), float(rng.uniform()))
        x0 = sample(default_model, y, 1, seed=3000 + i)[0]
        ab = sched50.alpha_bars[t]
        x = np.sqrt(ab) * x0 + np.sqrt(1 - ab) * rng.standard_normal(x0.shape)
        ana = gmm_eps(x, t, y, default_model, sched50)
        fd = finite_difference_eps(x, t, default_model.mixture(y), sched50)
        worst = max(worst, np.linalg.norm(fd - ana) / np.linalg.norm(ana))

    # Monte-Carlo posterior mean, single standard-normal prior, 1e6 samples
    from tests.conftest import std_normal_denoiser
    t, x_star = 10, 0.7
    ab = sched50.alpha_bars[t]
    g = np.random.default_rng(123)
    x0s = g.standard_normal(1_000_000)
    logw = -((x_star - np.sqrt(ab) * x0s) ** 2) / (2 * (1 - ab))
    w = np.exp(logw - logw.max())
    w /= w.sum()
    post = float(w @ x0s)
    se = np.sqrt(ab / (1 - ab)) * float(np.sqrt(w**2 @ (x0s - post) ** 2))
    mc = (x_star - np.sqrt(ab) * post) / np.sqrt(1 - ab)
    ana1 = std_normal_denoiser((1,), sched50).predict(np.array([x_star]), t, Condition(0))[0]
    mc_dev = abs(mc - ana1) / se
    elapsed = time.perf_counter() - start
    report("C2 analytic-denoiser",
           worst <= 1e-5 and mc_dev <= 3.0 and elapsed < 60.0,
           f"FD worst rel {worst:.2e} (200 probes), MC dev {mc_dev:.2f} SE, {elapsed:.1f}s")


def test_c03_geometric_decay_slope(decay_suite):
    _, suite_report, _, elapsed = decay_suite
    slope = suite_report["mean_slope"]
    target = 0.5 * np.log(0.81)
    rel = abs(slope - target) / abs(target)
    report("C3 decay-slope",
           rel <= 0.2 and elapsed < 120.0,
           f"slope {slope:.5f} vs 0.5*log(0.81)={target:.5f} (dev {rel:.1%}), suite in {elapsed:.1f}s")


def test_c04_drift_bound(decay_suite):
    probes, _, bounds, _ = decay_suite
    ok = 0
    for drift, b in zip(probes.drift, bounds):
        ok += drift <= b.kappa
    report("C4 drift-bound", ok == 50, f"drift within kappa for {ok}/50 seeds")


def test_c05_stage_bound(decay_suite):
    probes, _, bounds, _ = decay_suite
    env_ok, nmin_ok = 0, 0
    for deltas, b in zip(probes.step_deltas, bounds):
        stages = np.arange(1, len(deltas) + 1)
        sel = stages >= 5
        env_ok += bool(np.all(deltas[sel] <= b.envelope(stages[sel])))
        below = np.nonzero(deltas < 0.01)[0]
        first = int(below[0]) + 1 if below.size else None
        nmin_ok += (first is not None and first <= b.n_min) or \
                   (first is None and b.n_min >= len(deltas))
    report("C5 stage-bound",
           env_ok == 50 and nmin_ok >= 45,
           f"envelope (n>=5) {env_ok}/50 seeds, n_min upper bound {nmin_ok}/50 (need >=45)")


def test_c06_mask_identity(default_model, sched50):
    den = GmmDenoiser(default_model, sched50)
    spec = DomainSpec()
    mask = make_mask(spec, "disk", {"center": (10.0, 10.0), "radius": 4.5})
    outside = mask == 0.0
    x0 = sample(default_model, Condition(0, 0.0), 1, seed=55)[0]
    bad = 0
    cfg = PieConfig(N=10, gamma=0.6, beta1=0.0, beta2=0.75)
    for states in pie_run(x0, Condition(1, 1.0), cfg, den, mask, range(10)):
        for state in states:
            bad += not np.array_equal(state[outside], x0[outside])
    report("C6 mask-identity", bad == 0,
           f"outside-ROI pixels bit-identical across 10-stage runs, 10 seeds ({bad} violations)")


def test_c07_ablation_trends(tmp_path):
    start = time.perf_counter()
    out = tmp_path / "ablate"
    rc = main(["ablate", "--config", str(CONFIG_DIR / "ablate.json"),
               "--out", str(out), "--jobs", "4"])
    assert rc == 0
    gamma_rows = np.genfromtxt(out / "ablate_gamma.csv", delimiter=",", names=True)
    steps_rows = np.genfromtxt(out / "ablate_steps.csv", delimiter=",", names=True)
    rho_conf = spearmanr(gamma_rows["gamma"], gamma_rows["conf"]).statistic
    rho_clip = spearmanr(gamma_rows["gamma"], gamma_rows["clip_i"]).statistic
    conf_by_n = dict(zip(steps_rows["steps"].astype(int), steps_rows["conf"]))
    rises = conf_by_n[10] > conf_by_n[1]
    plateau_dev = abs(conf_by_n[100] - conf_by_n[50]) / conf_by_n[50]
    elapsed = time.perf_counter() - start
    report("C7 ablation-trends",
           rho_conf >= 0.9 and rho_clip <= -0.9 and rises and plateau_dev < 0.05
           and elapsed < 600.0,
           f"spearman conf {rho_conf:.3f} / clip {rho_clip:.3f}, "
           f"conf N1->N10 {conf_by_n[1]:.3f}->{conf_by_n[10]:.3f}, "
           f"plateau dev {plateau_dev:.3%}, {elapsed:.0f}s")


def test_c08_transition_contracts():
    cfg = RunConfig.from_dict({"domain": SOFT_DOMAIN, "mask": SOFT_MASK})
    model, sched, mask = cfg.model(), cfg.schedule(), cfg.mask()
    den = GmmDenoiser(model, sched)
    outside = mask == 0.0
    rng = np.random.default_rng(8)
    endpoint_bad = roi_bad = smooth_bad = 0
    for case in range(20):
        ya = Condition(int(rng.integers(0, 2)), float(rng.uniform()))
        yb = Condition(int(rng.integers(0, 2)), float(rng.uniform()))
        x_start = sample(model, ya, 1, seed=400 + case)[0]
        x_end = sample(model, yb, 1, seed=500 + case)[0]
        skel = make_clip_skeleton(x_start, x_end, 8, seed=case)
        (clip,) = generate_transition([skel], mask, den, ya, yb, 0.6)
        endpoint_bad += not (np.array_equal(clip[0], x_start)
                             and np.array_equal(clip[-1], x_end))
        avg = 0.5 * (x_start + x_end)
        for j in range(1, len(clip) - 1):
            roi_bad += not np.array_equal(clip[j][outside], avg[outside])
        span = np.linalg.norm(x_end - x_start)
        for j in range(1, len(clip) - 2):
            step = np.linalg.norm(clip[j + 1] - clip[j])
            smooth_bad += step > span + 3 * SIGMA_GEN_L2
    report("C8 transition-contracts",
           endpoint_bad == 0 and roi_bad == 0 and smooth_bad == 0,
           f"20 cases: endpoint viol {endpoint_bad}, outside-ROI viol {roi_bad}, "
           f"smoothness viol {smooth_bad}")


def test_c09_metric_oracles(default_model):
    import mpmath as mp
    mp.mp.dps = 50
    rng = np.random.default_rng(17)
    worst = 0.0
    for i in range(20):
        y = Condition(int(rng.integers(0, 2)), 1.0)
        x = sample(default_model, y, 1, seed=700 + i)[0] + 0.05 * rng.standard_normal((16, 16))
        xf = x.ravel()
        per_class = {}
        for c, mix in default_model.class_mixtures.items():
            total = mp.mpf(0)
            for w, mean, var in zip(mix.weights, mix.means, mix.variances):
                sq = float(((xf - mean.ravel()) ** 2).sum())
                total += mp.mpf(w) * mp.e ** (
                    -mp.mpf(sq) / (2 * mp.mpf(var))
                    - mp.mpf(xf.size) / 2 * mp.log(2 * mp.pi * mp.mpf(var)))
            per_class[c] = total
        want = float(per_class[1] / (per_class[0] + per_class[1]))
        worst = max(worst, abs(confidence(x, Condition(1), default_model) - want))

    draws = sample(default_model, Condition(1, 0.5), 1000, seed=3)
    kid_null = abs(kid(draws[:500], draws[500:], RandomProjectionEmbedder(seed=0)))

    x = np.array([1.0, 0.0])
    const = clip_i([x, x], IdentityEmbedder())
    orth = clip_i([x, np.array([0.0, 1.0])], IdentityEmbedder())
    hand = clip_i([x, np.array([np.sqrt(0.5), np.sqrt(0.5)])], IdentityEmbedder())
    clip_exact = const == 1.0 and abs(orth) < 1e-15 and abs(hand - np.sqrt(0.5)) < 1e-15
    report("C9 metric-oracles",
           worst <= 1e-10 and kid_null <= 0.01 and clip_exact,
           f"conf vs brute force worst {worst:.1e}, |kid null| {kid_null:.4f}, "
           f"clip_i boundary cases exact: {clip_exact}")


def test_c10_simulate_determinism(tmp_path):
    cfg_path = CONFIG_DIR / "simulate.json"
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
    files_a = sorted(outs[0].rglob("*.mvgt"))
    identical = all(
        f.read_bytes() == (outs[1] / f.relative_to(outs[0])).read_bytes() for f in files_a)
    report("C10 determinism", identical and len(files_a) > 0,
           f"{len(files_a)} tensor files byte-identical across reruns")
