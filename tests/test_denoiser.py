import numpy as np
import pytest
from scipy.special import logsumexp

from mvg import (Condition, ConditionBlend, GmmDenoiser, GmmModel, Mixture,
                 ParzenDenoiser, blend_conditions, build_schedule, gmm_eps,
                 measure_c2, parzen_eps)
from mvg.denoiser import FixedDenoiser, _logsumexp, default_probe_set
from mvg.errors import DegenerateMixture, InvalidArgument, ShapeMismatch
from mvg.toydata import sample

# max ||eps_hat|| over the canonical 1000-probe set on the default blob
# domain with the T=50 ramp; regression constant from a direct max
DEFAULT_PROBE_C2 = 18.199851139104958


def direct_diffused_logpdf(x_flat, mix, ab):
    """Independent density oracle: plain logsumexp over diffused components."""
    mu = mix.means.reshape(len(mix.weights), -1)
    var = ab * mix.variances + (1 - ab)
    d = x_flat.shape[-1]
    sq = ((x_flat[..., None, :] - np.sqrt(ab) * mu) ** 2).sum(-1)
    comp = np.log(mix.weights) - 0.5 * d * np.log(2 * np.pi * var) - sq / (2 * var)
    m = comp.max(-1, keepdims=True)
    return (m + np.log(np.exp(comp - m).sum(-1, keepdims=True)))[..., 0]


def finite_difference_eps(x, t, mix, s, h_scale=1e-4):
    """-sqrt(1-a)*grad log p_t by central differences on the direct density."""
    ab = s.alpha_bars[t]
    xf = x.ravel()
    h = h_scale * max(1.0, np.abs(xf).max())
    d = xf.size
    pts = np.repeat(xf[None], 2 * d, axis=0)
    idx = np.arange(d)
    pts[2 * idx, idx] += h
    pts[2 * idx + 1, idx] -= h
    lp = direct_diffused_logpdf(pts, mix, ab)
    grad = (lp[0::2] - lp[1::2]) / (2 * h)
    return (-np.sqrt(1 - ab) * grad).reshape(x.shape)


class TestGmmEps:
    def test_standard_normal_identity(self, std_normal_model, sched50):
        for t in (1, 10, 50):
            ab = sched50.alpha_bars[t]
            for xv in (-1.3, 0.0, 2.4):
                out = gmm_eps(np.array([xv]), t, Condition(0), std_normal_model, sched50)
                assert out[0] == pytest.approx(np.sqrt(1 - ab) * xv, rel=1e-12, abs=1e-14)

    def test_monte_carlo_posterior_mean(self, std_normal_model, sched50):
        """Self-normalized importance-sampling estimate of E[eps | x_t]."""
        t, x_star = 10, 0.7
        ab = sched50.alpha_bars[t]
        g = np.random.default_rng(123)
        x0s = g.standard_normal(1_000_000)
        logw = -((x_star - np.sqrt(ab) * x0s) ** 2) / (2 * (1 - ab))
        w = np.exp(logw - logw.max())
        w /= w.sum()
        post_x0 = float(w @ x0s)
        se_x0 = float(np.sqrt(w**2 @ (x0s - post_x0) ** 2))
        mc = (x_star - np.sqrt(ab) * post_x0) / np.sqrt(1 - ab)
        se = np.sqrt(ab / (1 - ab)) * se_x0
        ana = gmm_eps(np.array([x_star]), t, Condition(0), std_normal_model, sched50)[0]
        assert abs(mc - ana) <= 3 * se

    def test_zero_noise_limit(self, std_normal_model):
        s = build_schedule(1, 1e-12, 1e-12)
        out = gmm_eps(np.array([0.4]), 1, Condition(0), std_normal_model, s)
        assert abs(out[0]) < 1e-5

    def test_symmetric_components_cancel(self, sched50):
        mu = np.array([[1.0, -2.0], [-1.0, 2.0]])
        model = GmmModel.single_class(Mixture(np.array([0.5, 0.5]), mu, np.array([1.0, 1.0])))
        out = gmm_eps(np.zeros(2), 7, Condition(0), model, sched50)
        np.testing.assert_allclose(out, 0.0, atol=1e-14)

    def test_matches_finite_difference_score(self, default_model, sched50):
        rng = np.random.default_rng(11)
        for i in range(20):
            t = int(rng.integers(3, 51))
            y = Condition(int(rng.integers(0, 2)), float(rng.uniform()))
            x0 = sample(default_model, y, 1, seed=500 + i)[0]
            x = np.sqrt(sched50.alpha_bars[t]) * x0 + \
                np.sqrt(1 - sched50.alpha_bars[t]) * rng.standard_normal(x0.shape)
            ana = gmm_eps(x, t, y, default_model, sched50)
            fd = finite_difference_eps(x, t, default_model.mixture(y), sched50)
            rel = np.linalg.norm(fd - ana) / np.linalg.norm(ana)
            assert rel < 1e-5

    def test_shape_preserved_and_deterministic(self, default_model, sched50):
        x = np.random.default_rng(0).standard_normal((16, 16))
        a = gmm_eps(x, 5, Condition(1, 0.5), default_model, sched50)
        b = gmm_eps(x, 5, Condition(1, 0.5), default_model, sched50)
        assert a.shape == x.shape and np.array_equal(a, b)
        batch = np.stack([x, 2 * x, x])
        assert gmm_eps(batch, 5, Condition(1, 0.5), default_model, sched50).shape == batch.shape
        # a wrong event shape, and more than one leading axis, are rejected
        for bad in (np.zeros((3, 15, 16)), np.zeros((3, 2, 16, 16))):
            with pytest.raises(ShapeMismatch):
                gmm_eps(bad, 5, Condition(1, 0.5), default_model, sched50)

    def test_batch_rows_equal_single_calls(self, default_model, sched50):
        """B=300, some rows far from every mean: every row of a batched call is
        bit-identical to the call on that row alone, for both denoisers."""
        g = np.random.default_rng(21)
        x = 0.5 * g.standard_normal((300, 16, 16))
        x[::7] *= 60.0
        x[3] += 1e3
        data = sample(default_model, Condition(0, 0.5), 40, seed=2)
        for t in (1, 12, 50):
            for y in (Condition(0), Condition(1, 0.5), ConditionBlend(Condition(0), Condition(1), 0.3)):
                rows = np.stack([gmm_eps(row, t, y, default_model, sched50) for row in x])
                assert np.array_equal(gmm_eps(x, t, y, default_model, sched50), rows), (t, y)
            rows = np.stack([parzen_eps(row, t, data, sched50) for row in x])
            assert np.array_equal(parzen_eps(x, t, data, sched50), rows), t

    def test_non_finite_input_rejected(self, std_normal_model, sched50):
        with pytest.raises(InvalidArgument):
            gmm_eps(np.array([np.nan]), 1, Condition(0), std_normal_model, sched50)

    def test_degenerate_mixture_signaled(self, sched50):
        model = GmmModel.single_class(
            Mixture(np.array([1.0]), np.array([[0.0]]), np.array([1e-300])))
        with pytest.raises(DegenerateMixture):
            gmm_eps(np.array([1e160]), 50, Condition(0), model, sched50)
        with pytest.raises(DegenerateMixture):  # Parzen shares the kernel
            parzen_eps(np.array([1e160]), 50, [[0.0]], sched50)


class TestParzenEps:
    def test_singleton_dataset_forced(self, sched50):
        x0 = np.array([0.7, -0.1])
        x = np.array([1.0, 0.5])
        t = 9
        ab = sched50.alpha_bars[t]
        out = parzen_eps(x, t, [x0], sched50)
        np.testing.assert_allclose(out, (x - np.sqrt(ab) * x0) / np.sqrt(1 - ab), rtol=1e-12)

    def test_equidistant_pair_averages(self, sched50):
        a, b = np.array([1.0, 0.0]), np.array([-1.0, 0.0])
        x = np.array([0.0, 0.3])  # equidistant from sqrt(ab)*a and sqrt(ab)*b
        t = 12
        ab = sched50.alpha_bars[t]
        out = parzen_eps(x, t, [a, b], sched50)
        expected = (x - np.sqrt(ab) * (a + b) / 2) / np.sqrt(1 - ab)
        np.testing.assert_allclose(out, expected, rtol=1e-12)

    def test_converges_to_gmm_eps(self, std_normal_model, sched50):
        mu, sig = 0.4, 0.7
        model = GmmModel.single_class(
            Mixture(np.array([1.0]), np.array([[mu]]), np.array([sig**2])))
        data = mu + sig * np.random.default_rng(0).standard_normal((10_000, 1))
        t = 20
        errs = [
            parzen_eps(np.array([xp]), t, data, sched50)[0]
            - gmm_eps(np.array([xp]), t, Condition(0), model, sched50)[0]
            for xp in np.linspace(-1.5, 2.5, 21)
        ]
        assert np.sqrt(np.mean(np.square(errs))) <= 0.05

    def test_alpha_bar_one_unreachable(self):
        # beta small enough to round alpha_bar_1 to 1.0 violates the schedule
        # invariant at construction, so parzen_eps never sees that level
        with pytest.raises(InvalidArgument):
            build_schedule(1, 1e-18, 1e-18)

    def test_empty_dataset_rejected(self, sched50):
        with pytest.raises(InvalidArgument):
            parzen_eps(np.zeros(2), 1, [], sched50)


class TestMeasureC2:
    def test_zero_denoiser(self, sched50):
        probes = [(np.ones(3), 1, Condition(0))] * 5
        assert measure_c2(FixedDenoiser(np.zeros(3)), probes) == 0.0

    def test_single_gaussian_formula_bound(self, std_normal_model, sched50):
        den = GmmDenoiser(std_normal_model, sched50)
        rng = np.random.default_rng(5)
        R = 3.0
        probes = []
        for _ in range(100):
            v = rng.standard_normal(1)
            probes.append((R * v / max(np.linalg.norm(v), 1.0), int(rng.integers(1, 51)), Condition(0)))
        ab_min = sched50.alpha_bars[50]
        assert measure_c2(den, probes) <= np.sqrt(1 - ab_min) * R + 1e-12

    def test_default_probe_constant(self, default_model, sched50):
        den = GmmDenoiser(default_model, sched50)
        probes = default_probe_set(default_model, sched50, seed=0, count=1000)
        assert measure_c2(den, probes) == pytest.approx(DEFAULT_PROBE_C2, rel=1e-9)

    def test_empty_probes_rejected(self):
        with pytest.raises(InvalidArgument):
            measure_c2(FixedDenoiser(), [])


class TestLogsumexp:
    """The package's own logsumexp equals scipy's bit for bit on real 1-D input,
    so dropping scipy from the runtime path changes no output."""

    @staticmethod
    def assert_bits_equal(a):
        a = np.asarray(a, dtype=np.float64)
        want, got = logsumexp(a), _logsumexp(a)
        assert type(got) is type(want)
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), (a, got, want)

    def test_random_inputs(self):
        g = np.random.default_rng(20)
        for _ in range(3000):
            scale = 10.0 ** g.uniform(-3, 3)
            self.assert_bits_equal(scale * g.standard_normal(g.integers(1, 11)))

    @pytest.mark.parametrize("a", [
        [-np.inf, 0.3, -1.2],
        [-np.inf, -np.inf, -np.inf],
        [2.0, 2.0, 1.0],
        [0.5, -3.0, 0.5, 0.5, -1.0, 0.2, 0.5, -7.0, 0.5],
        [1e308, 1e308],
        [-800.0, -801.0],
        [4.0],
    ], ids=["neg_inf_entry", "all_neg_inf", "tied_max", "tied_max_len9",
            "huge_1e308", "low_-800", "single"])
    def test_edge_inputs(self, a):
        self.assert_bits_equal(a)


class TestModel:
    def test_mixture_validation(self):
        with pytest.raises(InvalidArgument):
            Mixture(np.array([0.5, 0.4]), np.zeros((2, 3)), np.array([1.0, 1.0]))
        with pytest.raises(InvalidArgument):
            Mixture(np.array([1.0]), np.zeros((1, 3)), np.array([0.0]))

    def test_unknown_class_rejected(self, default_model):
        with pytest.raises(InvalidArgument):
            default_model.mixture(Condition(99))

    def test_severity_clamped(self):
        assert Condition(0, 1.7).severity == 1.0
        assert Condition(0, -0.3).severity == 0.0

    def test_blend_conditions(self):
        a, b = Condition(0, 0.0), Condition(1, 1.0)
        assert blend_conditions(a, b, 0.0) is a
        assert blend_conditions(a, b, 1.0) is b
        mid = blend_conditions(a, b, 0.4)
        assert isinstance(mid, ConditionBlend) and mid.weight == 0.4
        same = blend_conditions(Condition(1, 0.0), Condition(1, 1.0), 0.25)
        assert same == Condition(1, 0.25)

    def test_blended_mixture_weights(self, default_model):
        mix = default_model.mixture(ConditionBlend(Condition(0), Condition(1), 0.3))
        assert mix.weights.sum() == pytest.approx(1.0)
        assert len(mix.weights) == 10  # both severity grids

    def test_serialization_roundtrip(self, default_model):
        again = GmmModel.from_dict(default_model.to_dict())
        for c in default_model.class_ids:
            np.testing.assert_array_equal(
                again.class_mixtures[c].means, default_model.class_mixtures[c].means)


def test_parzen_denoiser_ignores_condition(sched50):
    data = np.random.default_rng(1).standard_normal((50, 4))
    den = ParzenDenoiser(data, sched50)
    x = np.zeros(4)
    np.testing.assert_array_equal(den.predict(x, 5, None), den.predict(x, 5, Condition(3)))
