import dataclasses
import inspect
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvg import (Condition, GmmDenoiser, GmmModel, Mixture, PieConfig,
                 build_schedule, composite_roi, diff_heatmap,
                 forward_diffuse, ddim_chain, pie_run, prop2_bound,
                 step_decay_fit)
from mvg import rng as mvg_rng
from mvg.denoiser import mixture_logpdf
from mvg.errors import DegenerateSchedule, InvalidArgument, ShapeMismatch
from mvg.pie import _noise, _row_norms, check_bound_suite, decay_probe_run, stage_step_count
from mvg.scheduler import ddim_step
from mvg.transition import generate_transition
from mvg.config import RunConfig
from tests.conftest import SOFT_DOMAIN, std_normal_denoiser

# frozen from a 40-digit evaluation of the closed formulas at
# (abar0=0.9, abar1=0.8, C1=C2=1, delta=0.01)
BOUND_LAMBDA = 0.15811388300841897
BOUND_C = -1.5501957215097609
BOUND_N_MIN = 58
BOUND_KAPPA = 4.1352313834736494


def verify_schedule():
    return build_schedule(2, 0.1, 0.1)  # alpha_bars [1, 0.9, 0.81]


class TestCompositeRoi:
    def test_mask_zero_beta1_zero_is_base_bitwise(self):
        rng = np.random.default_rng(0)
        base = rng.standard_normal((8, 8))
        gen = rng.standard_normal((8, 8))
        out = composite_roi(gen, base, np.zeros((8, 8)), beta1=0.0, beta2=0.7)
        assert np.array_equal(out, base)

    def test_mask_one_beta2_one_is_generated_bitwise(self):
        rng = np.random.default_rng(1)
        base = rng.standard_normal((8, 8))
        gen = rng.standard_normal((8, 8))
        out = composite_roi(gen, base, np.ones((8, 8)), beta1=0.0, beta2=1.0)
        assert np.array_equal(out, gen)

    def test_midpoint_scalar(self):
        out = composite_roi(np.array([[2.0]]), np.array([[0.0]]), np.ones((1, 1)), 0.0, 0.5)
        assert out[0, 0] == 1.0

    def test_mixed_mask_blend(self):
        base = np.zeros((1, 2))
        gen = np.ones((1, 2))
        mask = np.array([[0.5, 1.0]])
        out = composite_roi(gen, base, mask, beta1=0.2, beta2=0.8)
        # outside weight 0.2, inside 0.8, pixel blends by mask value
        assert out[0, 0] == pytest.approx(0.5 * 0.2 + 0.5 * 0.8)
        assert out[0, 1] == pytest.approx(0.8)

    def test_mask_validation(self):
        with pytest.raises(InvalidArgument):
            composite_roi(np.ones((2, 2)), np.ones((2, 2)), 2 * np.ones((2, 2)), 0, 1)
        with pytest.raises(ShapeMismatch):
            composite_roi(np.ones((2, 2)), np.ones((2, 2)), np.ones((3, 3)), 0, 1)
        with pytest.raises(ShapeMismatch):  # a batch of 2x2 images against a 3x3 mask
            composite_roi(np.ones((5, 2, 2)), np.ones((5, 2, 2)), np.ones((3, 3)), 0, 1)

    @given(beta1=st.floats(0, 1), beta2=st.floats(0, 1), seed=st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_binary_mask_selects_exact_blends(self, beta1, beta2, seed):
        rng = np.random.default_rng(seed)
        base, gen = rng.standard_normal((4, 4)), rng.standard_normal((4, 4))
        mask = (rng.uniform(size=(4, 4)) > 0.5).astype(float)
        out = composite_roi(gen, base, mask, beta1, beta2)
        expect_in = (1 - beta2) * base + beta2 * gen
        expect_out = (1 - beta1) * base + beta1 * gen
        np.testing.assert_allclose(out[mask == 1], expect_in[mask == 1], rtol=1e-12)
        np.testing.assert_allclose(out[mask == 0], expect_out[mask == 0], rtol=1e-12)


    def test_per_row_betas_equal_rows_alone(self):
        """One β₁, β₂ per row of a batch: each row equals the row blended alone
        with scalars, bit for bit, and β∈{0,1} rows are exact copies."""
        g = np.random.default_rng(3)
        base, gen = g.standard_normal((4, 5, 5)), g.standard_normal((4, 5, 5))
        mask = g.uniform(size=(5, 5))
        mask[:2] = 0.0
        mask[-1] = 1.0
        beta1, beta2 = [0.0, 0.3, 1.0, 0.01], [1.0, 0.75, 0.0, 0.5]
        out = composite_roi(gen, base, mask, beta1, beta2)
        for b in range(4):
            assert np.array_equal(out[b], composite_roi(gen[b], base[b], mask, beta1[b], beta2[b]))
        assert np.array_equal(out[0][mask == 0], base[0][mask == 0])
        assert np.array_equal(out[0][mask == 1], gen[0][mask == 1])
        assert np.array_equal(out[2][mask == 0], gen[2][mask == 0])
        with pytest.raises(ShapeMismatch):  # one β per row needs a batch of that many rows
            composite_roi(gen[0], base[0], mask, beta1[:1], 0.5)
        with pytest.raises(ShapeMismatch):
            composite_roi(gen, base, mask, beta1[:3], 0.5)


class TestPieStage:
    def test_full_mask_unit_blend_equals_raw_chain(self, sched50):
        den = std_normal_denoiser((6, 6), sched50)
        cfg = PieConfig(N=1, gamma=0.4, beta1=0.0, beta2=1.0)
        x_prev = np.random.default_rng(2).standard_normal((6, 6))
        (states,) = pie_run(x_prev, Condition(0), cfg, den, np.ones((6, 6)), [7])
        out = states[1]
        k = stage_step_count(cfg.gamma, sched50)
        eps = mvg_rng.normal((6, 6), 7, stage=1)
        manual = ddim_chain(forward_diffuse(x_prev, k, eps, sched50), k, den, Condition(0))
        assert np.array_equal(out, manual)

    def test_k_zero_rejected(self):
        s = build_schedule(2, 0.1, 0.1)
        cfg = PieConfig(N=1, gamma=0.3)  # floor(0.3*2) = 0
        with pytest.raises(InvalidArgument):
            pie_run(np.zeros((2, 2)), Condition(0), cfg, std_normal_denoiser((2, 2), s),
                    np.ones((2, 2)), [0])


class TestPieRun:
    @pytest.mark.parametrize("N", [0, 3])
    def test_empty_seed_list_rejected(self, N, sched50):
        den = std_normal_denoiser((4, 4), sched50)
        with pytest.raises(InvalidArgument, match="seed"):
            pie_run(np.ones((4, 4)), Condition(0), PieConfig(N=N), den, np.ones((4, 4)), seeds=[])

    def test_noise_draws_each_seed_once(self, monkeypatch):
        """Row b of a stage's noise is stream (seeds[b], stage); a seed that
        repeats across rows, as in an ablate batch, is drawn once."""
        normal, drawn = mvg_rng.normal, []

        def counted(shape, seed, stage=0):
            drawn.append(seed)
            return normal(shape, seed, stage=stage)

        monkeypatch.setattr(mvg_rng, "normal", counted)
        rows = _noise((4, 4), [3, 5, 3], 7)
        assert sorted(drawn) == [3, 5]
        for row, seed in zip(rows, [3, 5, 3]):
            assert np.array_equal(row, normal((4, 4), seed, stage=7))

    def test_n_zero_single_state(self, sched50):
        den = std_normal_denoiser((3, 3), sched50)
        x0 = np.ones((3, 3))
        (states,) = pie_run(x0, Condition(0), PieConfig(N=0), den, np.ones((3, 3)), [0])
        assert states.shape == (1, 3, 3)
        assert np.array_equal(states[0], x0)

    def test_zero_noise_schedule_constant_trajectory(self):
        s = build_schedule(5, 1e-12, 1e-12)
        den = std_normal_denoiser((4, 4), s)
        x0 = np.random.default_rng(3).standard_normal((4, 4))
        cfg = PieConfig(N=10, gamma=1.0, beta1=0.0, beta2=1.0)
        (states,) = pie_run(x0, Condition(0), cfg, den, np.ones((4, 4)), [1])
        for state in states:
            np.testing.assert_allclose(state, x0, atol=1e-4)

    def test_scalar_affine_recursion_monte_carlo(self):
        """Single-Gaussian prior, k=1, full mask, unit inside-blend: each stage
        is x <- (1-c)x + c*mu + q*eps with c=(1-a)/(a*s2+1-a), so the mean state
        follows the closed-form recursion; check over 200 seeds at 3 SE."""
        a = 0.81
        mu, s2 = 0.5, 1.0
        s = build_schedule(1, 1 - a, 1 - a)
        model = GmmModel.single_class(
            Mixture(np.array([1.0]), np.array([[mu]]), np.array([s2])))
        den = GmmDenoiser(model, s)
        x0, N, n_seeds = 2.0, 15, 200
        V = a * s2 + (1 - a)
        c = (1 - a) / V
        q = s2 * np.sqrt(a * (1 - a)) / V

        cfg = PieConfig(N=N, gamma=1.0, beta1=0.0, beta2=1.0)
        states = np.array(pie_run(np.array([x0]), Condition(0), cfg, den, np.ones(1),
                                  range(n_seeds)))[..., 0]

        m = x0
        for n in range(1, N + 1):
            m = (1 - c) * m + c * mu
            var_n = q**2 * (1 - (1 - c) ** (2 * n)) / (1 - (1 - c) ** 2)
            se = np.sqrt(var_n / n_seeds)
            assert abs(states[:, n].mean() - m) <= 3 * se, f"stage {n}"

    def test_mask_identity_law_bitwise(self, default_model, sched50):
        from mvg.toydata import DomainSpec, make_mask
        spec = DomainSpec()
        mask = make_mask(spec, "disk", {"center": (10.0, 10.0), "radius": 4.0})
        den = GmmDenoiser(default_model, sched50)
        x0 = np.random.default_rng(9).uniform(0, 1, spec.shape)
        cfg = PieConfig(N=10, gamma=0.6, beta1=0.0, beta2=0.75)
        for states in pie_run(x0, Condition(1, 1.0), cfg, den, mask, range(5)):
            outside = mask == 0.0
            for state in states:
                assert np.array_equal(state[outside], x0[outside])

    def test_deterministic_bitwise(self, default_model, sched50):
        den = GmmDenoiser(default_model, sched50)
        x0 = np.random.default_rng(4).uniform(0, 1, (16, 16))
        cfg = PieConfig(N=3, gamma=0.5)
        (t1,) = pie_run(x0, Condition(1, 1.0), cfg, den, np.ones((16, 16)), [42])
        (t2,) = pie_run(x0, Condition(1, 1.0), cfg, den, np.ones((16, 16)), [42])
        for a, b in zip(t1, t2):
            assert np.array_equal(a, b)

    def test_seed_alone_equals_seed_in_batch(self, default_model, sched50):
        """A seed's states are bit-identical run alone and inside a batch of 300
        (soft mask, so the composite blends, and rows far from every mean)."""
        from mvg.toydata import DomainSpec, make_mask
        mask = make_mask(DomainSpec(), "disk", {"center": (10.0, 10.0), "radius": 4.0,
                                                "feather": 1.5})
        den = GmmDenoiser(default_model, sched50)
        x0 = np.random.default_rng(6).uniform(0, 1, (16, 16))
        x0[:2] = 40.0
        cfg = PieConfig(N=10, gamma=0.6, beta1=0.1, beta2=0.75)
        batch = pie_run(x0, Condition(1, 1.0), cfg, den, mask, range(300))
        for seed in (0, 1, 137, 299):
            (alone,) = pie_run(x0, Condition(1, 1.0), cfg, den, mask, [seed])
            for a, b in zip(alone, batch[seed]):
                assert np.array_equal(a, b), seed

    def test_rows_carry_their_own_config(self, default_model, sched50):
        """Rows with mixed N, β₁ and β₂ (one γ) each equal the row run alone with
        its own PieConfig, bit for bit; a row retires after its N stages, so the
        denoiser sees Σ_b N_b·⌊γT⌋ rows."""
        from mvg.toydata import DomainSpec, make_mask
        mask = make_mask(DomainSpec(), "disk", {"center": (10.0, 10.0), "radius": 4.0,
                                                "feather": 1.5})
        x0 = np.random.default_rng(8).uniform(0, 1, (16, 16))
        y = Condition(1, 1.0)
        cfgs = [PieConfig(N=3, gamma=0.4, beta1=0.0, beta2=0.75),
                PieConfig(N=6, gamma=0.4, beta1=0.2, beta2=1.0),
                PieConfig(N=0, gamma=0.4),
                PieConfig(N=1, gamma=0.4, beta1=0.01, beta2=0.5),
                PieConfig(N=6, gamma=0.4, beta1=0.0, beta2=1.0)]
        seeds = [5, 2, 9, 5, 11]

        class Counting:
            rows = 0
            schedule = sched50

            def predict(self, x, t, y):
                Counting.rows += len(x)
                return GmmDenoiser(default_model, sched50).predict(x, t, y)

        batch = pie_run(x0, y, cfgs, Counting(), mask, seeds)
        assert Counting.rows == sum(c.N for c in cfgs) * math.floor(0.4 * sched50.T)
        den = GmmDenoiser(default_model, sched50)
        for cfg, seed, states in zip(cfgs, seeds, batch):
            (alone,) = pie_run(x0, y, cfg, den, mask, [seed])
            assert len(states) == cfg.N + 1 == len(alone)
            for a, b in zip(alone, states):
                assert np.array_equal(a, b), (cfg, seed)

    def test_rows_with_differing_gamma_rejected(self, sched50):
        den = std_normal_denoiser((4, 4), sched50)
        cfgs = [PieConfig(N=2, gamma=0.4), PieConfig(N=2, gamma=0.5)]
        with pytest.raises(InvalidArgument, match="gamma"):
            pie_run(np.ones((4, 4)), Condition(0), cfgs, den, np.ones((4, 4)), [0, 1])
        with pytest.raises(ShapeMismatch):  # one config per row
            pie_run(np.ones((4, 4)), Condition(0), cfgs[:1], den, np.ones((4, 4)), [0, 1])

    def test_config_validation(self):
        with pytest.raises(InvalidArgument):
            PieConfig(N=-1)
        with pytest.raises(InvalidArgument):
            PieConfig(gamma=0.0)
        with pytest.raises(InvalidArgument):
            PieConfig(beta2=1.5)


class TestStepDecayFit:
    def test_constant_deltas_slope_zero(self):
        assert step_decay_fit(np.full(20, 0.5), burn_in=2) == pytest.approx(0.0, abs=1e-12)

    def test_geometric_deltas_exact(self):
        r = 0.9
        deltas = r ** np.arange(1, 21)
        assert step_decay_fit(deltas, burn_in=3) == pytest.approx(np.log(r), rel=1e-10)

    def test_zero_deltas_excluded(self):
        deltas = 0.8 ** np.arange(1, 21)
        deltas[5] = 0.0
        assert step_decay_fit(deltas, burn_in=0) == pytest.approx(np.log(0.8), rel=1e-10)

    def test_too_few_stages_rejected(self):
        with pytest.raises(InvalidArgument):
            step_decay_fit(np.ones(5), burn_in=0)

    def test_engine_slope_matches_half_log_alpha1(self):
        s = verify_schedule()
        den = std_normal_denoiser((16, 16), s)
        x0 = 10.0 * np.ones((16, 16))
        probes = decay_probe_run(x0, den, Condition(0), n_stages=60, seeds=range(10))
        slopes = [step_decay_fit(deltas, burn_in=5) for deltas in probes.step_deltas]
        target = 0.5 * np.log(0.81)
        assert abs(np.mean(slopes) - target) / abs(target) <= 0.2


class TestProp2Bound:
    def test_frozen_example_values(self):
        s = build_schedule(2, 0.1, 1 - 0.8 / 0.9)  # alpha_bars [1, 0.9, 0.8]
        b = prop2_bound(s, C1=1.0, C2=1.0, delta=0.01)
        assert b.lam == pytest.approx(BOUND_LAMBDA, rel=1e-12)
        assert b.log_constant == pytest.approx(BOUND_C, rel=1e-12)
        assert b.n_min == BOUND_N_MIN
        assert b.kappa == pytest.approx(BOUND_KAPPA, rel=1e-12)

    def test_vanishing_constants_limit(self):
        s = verify_schedule()
        b = prop2_bound(s, C1=0.0, C2=0.0, delta=0.01)
        assert b.log_constant == -math.inf
        assert b.n_min == 0 and b.kappa == 0.0
        tiny = prop2_bound(s, C1=1e-300, C2=1e-300, delta=0.01)
        assert tiny.n_min < BOUND_N_MIN and tiny.kappa < 1e-290

    def test_kappa_geometric_sum_identity(self):
        s = verify_schedule()
        b = prop2_bound(s, C1=2.0, C2=3.0, delta=0.05)
        assert b.kappa == pytest.approx(
            math.exp(b.log_constant) / (1 - math.sqrt(b.alpha0)), rel=1e-12)

    def test_n_min_monotone_in_delta(self):
        s = verify_schedule()
        b = prop2_bound(s, 1.0, 1.0, 0.5)
        n_mins = [b.n_min_for(d) for d in (0.5, 0.1, 0.01, 0.001)]
        assert n_mins == sorted(n_mins)

    def test_degenerate_alpha0_signaled(self):
        # valid schedules cannot reach alpha_bars[1] == 1 (strict decrease),
        # so exercise the guard on a hand-built table
        from mvg.scheduler import NoiseSchedule
        s = object.__new__(NoiseSchedule)
        for name, val in (("T", 2), ("betas", np.array([0.0, 0.1])),
                          ("alphas", np.array([1.0, 0.9])),
                          ("alpha_bars", np.array([1.0, 1.0, 0.9]))):
            object.__setattr__(s, name, val)
        with pytest.raises(DegenerateSchedule):
            prop2_bound(s, 1.0, 1.0, 0.01)

    def test_needs_two_steps(self):
        with pytest.raises(InvalidArgument):
            prop2_bound(build_schedule(1, 0.19, 0.19), 1.0, 1.0, 0.01)


class TestDiffHeatmap:
    def test_equal_inputs_all_zero(self):
        x = np.random.default_rng(0).standard_normal((3, 3))
        assert np.array_equal(diff_heatmap(x, x), np.zeros((3, 3)))

    def test_single_pixel(self):
        a = np.zeros((2, 2))
        b = np.zeros((2, 2))
        b[1, 0] = 0.3
        hm = diff_heatmap(a, b)
        assert hm[1, 0] == 1.0 and hm.sum() == 1.0

    def test_normalization(self):
        hm = diff_heatmap(np.array([3.0, 2.0]), np.array([1.0, 1.0]))
        np.testing.assert_allclose(hm, [1.0, 0.5])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            diff_heatmap(np.zeros(2), np.zeros(3))


def per_row_norms(rows):
    return np.array([np.linalg.norm(row.ravel()) for row in rows])


class TestRowNorms:
    """_row_norms equals a per-row np.linalg.norm bit for bit (einsum and
    (x*x).sum do not), so batching the norms moves no output."""

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("B", [1, 4, 50, 300])
    def test_equals_per_row_linalg_norm(self, B, scale):
        a = np.random.default_rng(B).standard_normal((B, 16, 16)) * scale
        assert np.array_equal(_row_norms(a), per_row_norms(a))

    def test_views_zero_rows_and_empty(self):
        table = np.random.default_rng(7).standard_normal((5, 11, 16, 16))
        for n in range(11):  # rows of states[:, n] sit 11 images apart
            assert np.array_equal(_row_norms(table[:, n]), per_row_norms(table[:, n]))
        strided = table[:, 0, :, ::2]  # unit-stride dots differ from strided ones
        assert np.array_equal(_row_norms(strided), per_row_norms(strided))
        a = table[:, 0].copy()
        a[2] = 0.0
        assert _row_norms(a)[2] == 0.0
        assert np.array_equal(_row_norms(a), per_row_norms(a))
        assert _row_norms(np.zeros((0, 16, 16))).shape == (0,)

    def test_decay_probe_norms_match_per_row_reference(self):
        """Verify schedule, B=50: c1, the observed C2, the step deltas and the
        drift equal per-row np.linalg.norm over states of the same recursion
        that this loop collects itself."""
        s = verify_schedule()
        den = std_normal_denoiser((16, 16), s)
        x0 = 10.0 * np.ones((16, 16))
        seeds = range(50)
        probes = decay_probe_run(x0, den, Condition(0), n_stages=100, seeds=seeds)
        eps = np.stack([mvg_rng.normal(x0.shape, seed, stage=0) for seed in seeds])
        states = [np.broadcast_to(x0, eps.shape)]
        c2 = np.zeros(len(seeds))
        for _ in range(100):
            v = forward_diffuse(states[-1], 2, eps, s)
            e_hat = den.predict(v, 2, Condition(0))
            c2 = np.maximum(c2, per_row_norms(e_hat))
            states.append(ddim_step(v, 2, e_hat, s))
        assert probes.seeds == list(seeds)
        assert probes.c1 == np.linalg.norm(x0.ravel())
        assert probes.step_deltas.shape == (50, 100)
        assert np.array_equal(probes.c2_observed, c2)
        for b in range(len(seeds)):
            deltas = [np.linalg.norm((y[b] - w[b]).ravel()) for w, y in zip(states, states[1:])]
            assert np.array_equal(probes.step_deltas[b], deltas)
            assert probes.drift[b] == np.linalg.norm((states[-1][b] - x0).ravel())

@pytest.fixture(scope="module")
def small_suite():
    s = verify_schedule()
    den = std_normal_denoiser((16, 16), s)
    x0 = 10.0 * np.ones((16, 16))
    return decay_probe_run(x0, den, Condition(0), n_stages=80, seeds=range(10))


def suite_checks(probes) -> dict:
    """check_bound_suite's checks on the verify schedule, by name."""
    report = check_bound_suite(probes, delta=0.01, burn_in=5)
    return {c["name"]: c for c in report["checks"]}


class TestDecaySuite:
    def test_all_checks_pass(self, small_suite):
        assert all(c["passed"] for c in suite_checks(small_suite).values())

    def test_deltas_exactly_geometric(self, small_suite):
        # one fixed eps per run makes the stage map affine
        d = small_suite.step_deltas[0]
        ratios = d[1:] / d[:-1]
        np.testing.assert_allclose(ratios, ratios[0], rtol=1e-9)

    def test_injected_delta_above_envelope_fails(self, small_suite):
        bad_deltas = small_suite.step_deltas.copy()
        bad_deltas[0, 40] *= 1e6
        tampered = dataclasses.replace(small_suite, step_deltas=bad_deltas)
        assert not suite_checks(tampered)["step_envelope"]["passed"]

    def test_injected_drift_above_kappa_fails(self, small_suite):
        bad_drift = small_suite.drift.copy()
        bad_drift[0] += 1e4
        tampered = dataclasses.replace(small_suite, drift=bad_drift)
        assert not suite_checks(tampered)["drift_kappa"]["passed"]

    def test_seed_alone_equals_seed_in_batch(self):
        """Verify schedule (T=2): a seed's step deltas, drift and observed C2
        are bit-identical run alone and inside a batch of 50."""
        s = verify_schedule()
        den = std_normal_denoiser((16, 16), s)
        x0 = 10.0 * np.ones((16, 16))
        batch = decay_probe_run(x0, den, Condition(0), n_stages=40, seeds=range(50))
        for seed in (0, 17, 49):
            alone = decay_probe_run(x0, den, Condition(0), n_stages=40, seeds=[seed])
            assert batch.seeds[seed] == seed and alone.seeds == [seed]
            assert alone.c2_observed[0] == batch.c2_observed[seed]
            assert np.array_equal(alone.step_deltas[0], batch.step_deltas[seed]), seed
            assert alone.drift[0] == batch.drift[seed]

    def test_empty_seed_list_rejected(self):
        s = verify_schedule()
        den = std_normal_denoiser((4, 4), s)
        with pytest.raises(InvalidArgument, match="seed"):
            decay_probe_run(np.ones((4, 4)), den, Condition(0), n_stages=20, seeds=[])

    def test_decay_probe_holds_no_state_table(self):
        """B=200, N=100 on 16x16: the (B, N+1, *event) state table alone would
        be 41 MB; the probes keep O(B) images, so the peak stays below 8 MB."""
        s = verify_schedule()
        den = std_normal_denoiser((16, 16), s)
        x0 = 10.0 * np.ones((16, 16))
        tracemalloc.start()
        try:
            decay_probe_run(x0, den, Condition(0), n_stages=100, seeds=range(200))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8e6, f"peak {peak / 1e6:.1f} MB"

    def test_report_reads_the_probes_schedule(self):
        """Probes run under β = 0.2 give a report of that schedule: its table,
        its stage pair, and the slope target and κ that follow from them."""
        s = build_schedule(2, 0.2, 0.2)
        den = std_normal_denoiser((16, 16), s)
        probes = decay_probe_run(10.0 * np.ones((16, 16)), den, Condition(0),
                                 n_stages=40, seeds=range(5))
        assert probes.schedule is s
        report = check_bound_suite(probes, delta=0.01, burn_in=5)
        assert report["schedule"] == s.to_dict() == {"T": 2, "beta_start": 0.2, "beta_end": 0.2}
        assert report["alpha0"] == s.alpha_bars[1] == pytest.approx(0.8)
        assert report["target_slope"] == 0.5 * math.log(s.alpha_bars[2])
        assert report["kappa"] == [prop2_bound(s, probes.c1, float(c2), 0.01).kappa
                                   for c2 in probes.c2_observed]
        assert {c["name"]: c["passed"] for c in report["checks"]}["decay_slope"]

    def test_zero_noise_schedule_trivially_passes(self):
        s = build_schedule(2, 1e-12, 1e-12)
        den = std_normal_denoiser((16, 16), s)
        probes = decay_probe_run(10.0 * np.ones((16, 16)), den, Condition(0),
                                 n_stages=30, seeds=range(3))
        report = check_bound_suite(probes, delta=0.01, burn_in=5)
        assert report["mean_slope"] is None
        assert len(report["checks"]) == 4
        for c in report["checks"]:
            assert c["passed"] and "trivially" in c["detail"]


def test_directionality_rises_to_plateau():
    """Mean log-density under the target condition is non-decreasing up to the
    plateau stage (first stage reaching the final mean level), 50 seeds."""
    cfg = RunConfig.from_dict({
        "domain": SOFT_DOMAIN,
        "mask": {"kind": "full"},
        "start": {"kind": "sample", "seed": 9},
    })
    model, sched, mask = cfg.model(), cfg.schedule(), cfg.mask()
    den = GmmDenoiser(model, sched)
    _, y = cfg.conditions()
    x0 = cfg.start_image()
    mix = model.mixture(y)
    curves = [[mixture_logpdf(s_, mix) for s_ in states]
              for states in pie_run(x0, y, PieConfig(N=10, gamma=0.6), den, mask, range(50))]
    m = np.mean(curves, axis=0)
    # plateau stage: first stage inside the stationary band (final level minus
    # twice the stationary wiggle); the curve must rise monotonically to it
    wiggle = np.std(m[len(m) // 2:])
    plateau = int(np.argmax(m >= m[-1] - 2 * wiggle))
    assert plateau >= 1
    assert all(m[i + 1] >= m[i] for i in range(plateau)), m


@pytest.mark.parametrize("fn", [ddim_chain, pie_run, generate_transition, decay_probe_run,
                                check_bound_suite])
def test_no_schedule_beside_the_denoiser(fn):
    """The engine reads a run's schedule from its denoiser, and the decay
    report from its probes: no entry point takes a NoiseSchedule of its own."""
    params = inspect.signature(fn).parameters.values()
    assert not [p.name for p in params
                if "NoiseSchedule" in str(p.annotation) or p.name in ("s", "schedule")]
