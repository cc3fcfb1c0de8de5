"""Progressive editing: the edit recursion with ROI compositing, the
geometric-decay bound calculators, and the decay verification suite.

Each recursion is one function. A ``pie_run`` stage noises the previous
state to step k = ⌊γT⌋, runs the deterministic reverse chain under the target
condition, then blends the result against the run-origin image inside/outside
the ROI mask:

    out = (β₁·(x'−x₀) + x₀)·(1−M) + (β₂·(x'−x₀) + x₀)·M

The recursions (``pie_run``, ``decay_probe_run``) run a list of seeds as one
(B, *event) batch under the schedule the denoiser holds; row b's noise comes
from its own stream of seed seeds[b], so a seed's results do not depend on
its batch-mates. ``pie_run``'s rows may carry their own N, β₁ and β₂ (one γ
per batch); it keeps every state in one (B, max N + 1, *event) table and
returns row b as its (N_b + 1, *event) view.
``decay_probe_run`` keeps only what the decay checks read: per probe the step
deltas, the observed C₂ and the drift ‖x_N − x₀‖, O(B) images at any stage.
``check_bound_suite`` turns those probes into the verify_report.json dict,
bounds and checks alike, under the schedule the probes record they ran under.
``check_fit_stages`` and ``check_probe_schedule`` state the suite's input rules.
``composite_roi`` blends one image or a (B, *plane) batch against one mask,
with β₁, β₂ shared or one per row.
Every L2 norm of an image (a run's or a probe's step deltas, C₁, the observed
C₂, the drift) goes through ``_row_norms``, which takes a batch of rows and
equals a per-row ``np.linalg.norm`` bit for bit, so batching moves no output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import InvalidArgument, ShapeMismatch
from .scheduler import (NoiseSchedule, _check_batch, _check_same_shape, ddim_chain, ddim_step,
                        forward_diffuse)


@dataclass(frozen=True)
class PieConfig:
    """Stage count, per-stage noise strength, and ROI blend coefficients."""

    N: int = 10
    gamma: float = 0.6
    beta1: float = 0.01
    beta2: float = 0.75

    def __post_init__(self):
        if self.N < 0:
            raise InvalidArgument(f"N must be >= 0, got {self.N}")
        if not (0 < self.gamma <= 1):
            raise InvalidArgument(f"gamma must be in (0,1], got {self.gamma}")
        for name in ("beta1", "beta2"):
            v = getattr(self, name)
            if not (0 <= v <= 1):
                raise InvalidArgument(f"{name} must be in [0,1], got {v}")


@dataclass(frozen=True)
class ConvergenceBound:
    """Closed-form decay constants: contraction λ, log-constant C, n_min(δ), κ."""

    lam: float
    log_constant: float
    n_min: int
    kappa: float
    alpha0: float  # cumulative level where a stage's single reverse step lands

    def envelope(self, n) -> np.ndarray:
        """(√ᾱ₀)ⁿ·exp(C): the bound on the stage-n step delta."""
        return np.sqrt(self.alpha0) ** np.asarray(n) * math.exp(self.log_constant)


def _row_norms(a) -> np.ndarray:
    """L2 norm of each (*event) row of an (R, *event) array, equal bit for bit
    to np.linalg.norm(row.ravel()): on unit-stride rows a vector·vector matmul
    runs the same BLAS dot product per row. (einsum and (x*x).sum differ in
    the last bits, and so does a dot over strided rows, hence the copy.)"""
    a = np.ascontiguousarray(a)
    flat = a.reshape(a.shape[0], math.prod(a.shape[1:]))  # not (R, -1): R may be 0
    return np.sqrt(np.matmul(flat[:, None, :], flat[:, :, None])[:, 0, 0])


def validate_mask(mask: np.ndarray, image_shape: tuple) -> np.ndarray:
    """The mask as float64, checked to be the plane of image_shape (one image
    or a (B, *plane) batch) with entries in [0,1]."""
    mask = np.asarray(mask, dtype=np.float64)
    _check_batch(image_shape, mask.shape, "image shape")
    if mask.size and (mask.min() < 0 or mask.max() > 1):
        raise InvalidArgument("mask entries must lie in [0,1]")
    return mask


def _lerp(base, target, w) -> np.ndarray:
    # where-selects keep β∈{0,1} pixels exact copies of base / target
    return np.where(w == 0.0, base, np.where(w == 1.0, target, (1.0 - w) * base + w * target))


def _per_row(beta, x: np.ndarray, plane_ndim: int) -> np.ndarray:
    """A blend coefficient as a scalar, or one per row of the batch x shaped
    to broadcast against it."""
    beta = np.asarray(beta, dtype=np.float64)
    if beta.ndim == 0:
        return beta
    if x.ndim != plane_ndim + 1 or beta.shape != x.shape[:1]:
        raise ShapeMismatch(f"blend coefficients {beta.shape} for images {x.shape}")
    return beta.reshape(beta.shape + (1,) * plane_ndim)


def composite_roi(x_gen, x_base, mask, beta1, beta2) -> np.ndarray:
    """ROI blend of generated result against a base image (see module formula);
    both are one image or the same (B, *plane) batch, the mask one plane, and
    β₁, β₂ scalars or, for a batch, one value per row."""
    x_gen = np.asarray(x_gen, dtype=np.float64)
    x_base = np.asarray(x_base, dtype=np.float64)
    _check_same_shape(x_gen, x_base, "generated vs base")
    m = validate_mask(mask, x_gen.shape)
    outside = _lerp(x_base, x_gen, _per_row(beta1, x_gen, m.ndim))
    inside = _lerp(x_base, x_gen, _per_row(beta2, x_gen, m.ndim))
    blended = (1.0 - m) * outside + m * inside
    # where-selects keep binary-mask pixels bit-identical to their source
    return np.where(m == 0.0, outside, np.where(m == 1.0, inside, blended))


def stage_step_count(gamma: float, s: NoiseSchedule) -> int:
    """k = ⌊γT⌋, the step an edit stage or a clip frame is noised to; 1 ≤ k ≤ T."""
    k = math.floor(gamma * s.T)
    if not (1 <= k <= s.T):
        raise InvalidArgument(f"gamma={gamma} gives k={k} outside 1..{s.T}; change gamma or T")
    return k


def _check_seeds(seeds) -> None:
    if len(seeds) == 0:
        raise InvalidArgument("need at least one seed")


def _row_configs(cfg, n_rows: int) -> list[PieConfig]:
    """One PieConfig per row: a single PieConfig serves every row. The rows of
    a batch share γ, hence the step k their reverse chain starts from."""
    cfgs = [cfg] * n_rows if isinstance(cfg, PieConfig) else list(cfg)
    if len(cfgs) != n_rows:
        raise ShapeMismatch(f"{len(cfgs)} configs for {n_rows} seeds")
    gammas = sorted({c.gamma for c in cfgs})
    if len(gammas) > 1:
        raise InvalidArgument(f"rows of one batch must share gamma, got {gammas}")
    return cfgs


def _noise(shape, seeds, kind: int, *index: int) -> np.ndarray:
    """(B, *shape) unit normals; row b is stream (seeds[b], kind, *index), drawn
    once per distinct seed (an ablate batch repeats each seed once per cell)."""
    draws = {seed: rng.normal(shape, seed, kind, *index) for seed in dict.fromkeys(seeds)}
    return np.stack([draws[seed] for seed in seeds])


def pie_run(x0, y_target, cfg, d, m, seeds) -> list[np.ndarray]:
    """Run the edit recursion from x0 once per seed, all seeds as one batch,
    conditioning every stage on y_target. cfg is one PieConfig for every row,
    or one per row: rows then carry their own N, β₁ and β₂ but share γ, and
    row b retires after its N_b stages. Returns per seed its states x⁰₀..x⁰_N_b
    as an (N_b + 1, *event) array, a view of the batch's one state table.

    Stage n takes the live rows, noises row b to k = ⌊γT⌋ of d.schedule from
    stream (seeds[b], EDIT, n), runs the reverse chain under y_target and
    ROI-composites with row b's β₁, β₂."""
    _check_seeds(seeds)
    cfgs = _row_configs(cfg, len(seeds))
    s = d.schedule
    k = stage_step_count(cfgs[0].gamma, s)
    x0 = np.asarray(x0, dtype=np.float64)
    n_stages = np.array([c.N for c in cfgs])
    beta1, beta2 = np.array([c.beta1 for c in cfgs]), np.array([c.beta2 for c in cfgs])
    # row b's states fill only its first N_b + 1 slots; from 4 MiB numpy asks
    # for huge pages, so a touched slot maps a whole 2 MiB page and untouched
    # slots are not free (12.6 MiB table, 1.4 MiB touched: +10.4 MiB RSS)
    states = np.empty((len(seeds), n_stages.max() + 1) + x0.shape)
    states[:, 0] = x0
    for n in range(1, states.shape[1]):
        live = np.flatnonzero(n_stages >= n)
        x_k = forward_diffuse(states[live, n - 1], k,
                              _noise(x0.shape, [seeds[b] for b in live], rng.EDIT, n), s)
        x_gen = ddim_chain(x_k, k, d, y_target)
        states[live, n] = composite_roi(x_gen, np.broadcast_to(x0, x_gen.shape), m,
                                        beta1[live], beta2[live])
        del x_k, x_gen  # no stage's temporaries outlive it
    return [row[:N + 1] for row, N in zip(states, n_stages)]


def check_fit_stages(stages: int, burn_in: int) -> None:
    """The decay suite's first input rule: the slope fit takes 10 stages past burn_in."""
    if stages - burn_in < 10:
        raise InvalidArgument("the decay-slope fit needs stages - burn_in >= 10, "
                              f"got {stages} - {burn_in}")


def check_probe_schedule(s: NoiseSchedule) -> None:
    """The decay suite's second input rule: a probe rolls to level 2, so T >= 2."""
    if s.T < 2:
        raise InvalidArgument(f"the decay suite needs a schedule with T >= 2, got T = {s.T}")


def step_decay_fit(deltas, burn_in: int) -> float:
    """Least-squares slope of log step deltas vs. stage index after burn_in,
    given the N deltas of stages 1..N.

    For single-reverse-step stages the state contracts by ≈√ᾱ₁ per stage
    (ᾱ₁ = the rolled-to cumulative level), so the expected slope is ½·log ᾱ₁.
    """
    deltas = np.asarray(deltas, dtype=np.float64)
    N = len(deltas)
    check_fit_stages(N, burn_in)
    stages = np.arange(1, N + 1)
    keep = (stages > burn_in) & (deltas > 0)
    if keep.sum() < 2:
        raise InvalidArgument("fewer than two positive deltas after burn-in")
    return float(np.polyfit(stages[keep], np.log(deltas[keep]), 1)[0])


def prop2_bound(s: NoiseSchedule, C1: float, C2: float, delta: float) -> ConvergenceBound:
    """Decay constants from the schedule's stage pair (landing, rolled) levels.

    The stage's single reverse step lands at cumulative ᾱ₀ := alpha_bars[1]
    after rolling to ᾱ₁ := alpha_bars[2]; a valid schedule has ᾱ₀ < 1. n_min is
    the first stage whose envelope (√ᾱ₀)ⁿ·e^C falls to delta, 0 when C is not finite.
    """
    if C1 < 0 or C2 < 0 or delta <= 0:
        raise InvalidArgument("need C1, C2 >= 0 and delta > 0")
    check_probe_schedule(s)
    a0, a1 = float(s.alpha_bars[1]), float(s.alpha_bars[2])
    lam = abs(math.sqrt(a0 - a0 * a1) - math.sqrt(a1 - a0 * a1)) / math.sqrt(a1)
    arg = (1.0 / math.sqrt(a0) - 1.0) * C1 + lam * C2
    log_c = math.log(arg) if arg > 0 else -math.inf
    n_min = (max(0, math.ceil(2.0 / math.log(a0) * (math.log(delta) - log_c)))
             if math.isfinite(log_c) else 0)
    return ConvergenceBound(lam=lam, log_constant=log_c, n_min=n_min,
                            kappa=arg / (1.0 - math.sqrt(a0)), alpha0=a0)


def diff_heatmap(a, b) -> np.ndarray:
    """|a−b| normalized by its maximum; all zeros when a == b."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    _check_same_shape(a, b, "heatmap operands")
    d = np.abs(a - b)
    m = d.max() if d.size else 0.0
    return d / m if m > 0 else np.zeros_like(d)


# ---------------------------------------------------------------------------
# Decay verification suite
# ---------------------------------------------------------------------------

@dataclass
class DecayProbes:
    """A batch of decay-probe runs; row b of each array belongs to seeds[b]."""

    schedule: NoiseSchedule  # the denoiser.schedule decay_probe_run ran them under
    seeds: list[int]
    c1: float                # ‖x0‖, the same for every probe
    c2_observed: np.ndarray  # (B,) max ‖ε̂‖ seen during each run
    step_deltas: np.ndarray  # (B, N) ‖x_n − x_{n−1}‖ for stages n = 1..N
    drift: np.ndarray        # (B,) ‖x_N − x_0‖


def decay_probe_run(x0, denoiser, y, n_stages: int, seeds) -> DecayProbes:
    """Pure-edit recursion under denoiser.schedule, once per seed as one batch.

    Each stage rolls the state to the t=2 level with a single per-run noise
    draw, stream (seed, PROBE), and takes one reverse step, landing at the t=1
    level (cumulative ᾱ₀ = alpha_bars[1] < 1). With a full mask and unit
    blends the ROI composite is the identity, so it is omitted. Reusing one ε
    per run is what makes the per-stage map affine, hence exactly geometric
    deltas; fresh noise every stage leaves a delta floor that masks the decay.
    Only the current states are held, not the trajectories.
    """
    s = denoiser.schedule
    check_probe_schedule(s)
    _check_seeds(seeds)
    x0 = np.asarray(x0, dtype=np.float64)
    eps = _noise(x0.shape, seeds, rng.PROBE)
    c2 = np.zeros(len(seeds))
    # C order: mean(axis=0) adds the probes' rows in seed order, which fixes mean_slope's last bits
    deltas = np.empty((len(seeds), n_stages))
    x = np.broadcast_to(x0, eps.shape)
    for n in range(n_stages):
        v = forward_diffuse(x, 2, eps, s)
        e_hat = denoiser.predict(v, 2, y)
        c2 = np.maximum(c2, _row_norms(e_hat))
        x_new = ddim_step(v, 2, e_hat, s)
        deltas[:, n] = _row_norms(x_new - x)
        x = x_new
    return DecayProbes(schedule=s, seeds=list(seeds), c1=float(_row_norms(x0[None])[0]),
                       c2_observed=c2, step_deltas=deltas, drift=_row_norms(x - x0))


SLOPE_RTOL = 0.2       # allowed relative deviation of the fitted decay slope
ENVELOPE_FROM = 5      # first stage whose delta the envelope must dominate
NMIN_QUORUM = 0.9      # share of seeds whose first sub-delta stage n_min must bound


def check_bound_suite(probes: DecayProbes, delta: float, burn_in: int) -> dict:
    """The decay-suite assertions on a batch of probes, as the verify_report.json
    dict: the stage pair of probes.schedule, the fitted and target slopes, each
    probe's n_min and κ from prop2_bound, and one {name, passed, detail} per check."""
    s = probes.schedule
    bounds = [prop2_bound(s, C1=probes.c1, C2=float(c2), delta=delta) for c2 in probes.c2_observed]
    # a schedule that injected no noise to speak of: every step delta is at
    # float-residue scale relative to the start image, so there is nothing to fit
    negligible = probes.step_deltas.max(initial=0.0) <= 1e-6 * (1.0 + probes.c1)
    target = 0.5 * math.log(s.alpha_bars[2])
    slope = None if negligible else step_decay_fit(probes.step_deltas.mean(axis=0), burn_in)
    checks = []
    report = {
        "schedule": s.to_dict(),
        "alpha0": float(s.alpha_bars[1]),
        "alpha1": float(s.alpha_bars[2]),
        "target_slope": target,
        "mean_slope": slope,
        "delta": delta,
        "n_min": [b.n_min for b in bounds],
        "kappa": [b.kappa for b in bounds],
        "checks": checks,
    }

    def check(name: str, passed, detail: str):
        checks.append({"name": name, "passed": passed, "detail": detail})

    if negligible:
        # zero-noise schedule: the decay statements hold vacuously and the
        # envelope constants are meaningless
        for name in ("decay_slope", "step_envelope", "n_min_upper_bound", "drift_kappa"):
            check(name, True, "all deltas at float-residue scale; trivially satisfied")
        return report

    rel = abs(slope - target) / abs(target)
    check("decay_slope", rel <= SLOPE_RTOL,
          f"slope {slope:.5f} vs target {target:.5f} (rel. dev. {rel:.1%})")
    n_seeds = len(probes.seeds)
    late = np.arange(ENVELOPE_FROM, probes.step_deltas.shape[1] + 1)  # stages the envelope bounds
    env_ok = drift_ok = nmin_ok = 0
    for deltas, drift, b in zip(probes.step_deltas, probes.drift, bounds):
        env_ok += not np.any(deltas[late - 1] > b.envelope(late))
        drift_ok += not drift > b.kappa
        below = np.flatnonzero(deltas < delta)
        # with no sub-delta stage, n_min is not contradicted within the horizon
        nmin_ok += bool(below[0] + 1 <= b.n_min if below.size else b.n_min >= len(deltas))
    check("step_envelope", env_ok == n_seeds,
          f"envelope dominates deltas for n >= {ENVELOPE_FROM} in {env_ok}/{n_seeds} seeds")
    check("n_min_upper_bound", nmin_ok >= math.ceil(NMIN_QUORUM * n_seeds),
          f"n_min(delta={delta}) upper-bounds the first sub-delta stage in {nmin_ok}/{n_seeds} seeds")
    check("drift_kappa", drift_ok == n_seeds,
          f"total drift within kappa in {drift_ok}/{n_seeds} seeds")
    return report
