import mpmath as mp
import numpy as np
import pytest
from scipy.special import logsumexp

from mvg import (Condition, ConditionBlend, GmmDenoiser, GmmModel, Mixture,
                 blend_conditions, build_schedule, gmm_eps)
from mvg.config import RunConfig
from mvg.denoiser import _logsumexp, mixture_logpdf
from mvg.errors import DegenerateMixture, InvalidArgument, ShapeMismatch
from mvg.toydata import sample
from tests.conftest import SOFT_DOMAIN


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
        bit-identical to the call on that row alone."""
        g = np.random.default_rng(21)
        x = 0.5 * g.standard_normal((300, 16, 16))
        x[::7] *= 60.0
        x[3] += 1e3
        for t in (1, 12, 50):
            for y in (Condition(0), Condition(1, 0.5), ConditionBlend(Condition(0), Condition(1), 0.3)):
                rows = np.stack([gmm_eps(row, t, y, default_model, sched50) for row in x])
                assert np.array_equal(gmm_eps(x, t, y, default_model, sched50), rows), (t, y)

    def test_single_gaussian_formula_bound(self, std_normal_model, sched50):
        den = GmmDenoiser(std_normal_model, sched50)
        rng = np.random.default_rng(5)
        R = 3.0
        norms = []
        for _ in range(100):
            v = rng.standard_normal(1)
            x, t = R * v / max(np.linalg.norm(v), 1.0), int(rng.integers(1, 51))
            norms.append(float(np.linalg.norm(den.predict(x, t, Condition(0)))))
        ab_min = sched50.alpha_bars[50]
        assert max(norms) <= np.sqrt(1 - ab_min) * R + 1e-12

    def test_non_finite_input_rejected(self, std_normal_model, sched50):
        with pytest.raises(InvalidArgument):
            gmm_eps(np.array([np.nan]), 1, Condition(0), std_normal_model, sched50)

    def test_degenerate_mixture_signaled(self, sched50):
        model = GmmModel.single_class(
            Mixture(np.array([1.0]), np.array([[0.0]]), np.array([1e-300])))
        with pytest.raises(DegenerateMixture):
            gmm_eps(np.array([1e160]), 50, Condition(0), model, sched50)


ORACLE_DIGITS = 50
# Relative error bounds, by a row's per-pixel distance from a component mean, of
# the float64 kernel against a 50-digit evaluation of the direct form on the
# rows of TestKernelOracle. The expanded-square kernel and the direct
# (x − √ᾱ·μᵢ) offsets form measured alike: ε̂ at most 1.3e-14 at 0.3, 3.4e-12
# at 10 (logits of order 1e5 meet mixed responsibilities), 1.7e-16 at 1e3 (one
# component takes all); the log density at most 4.3e-16.
EPS_RTOL = {0.3: 1e-13, 10.0: 3e-11, 1e3: 1e-15}
LOGPDF_RTOL = 2e-15


def mp_direct(x, mix, ab):
    """ε̂ and log Σᵢ wᵢ·N(x; √ᾱ·μᵢ, VᵢI) of one flat row x at level ab, from the
    direct formulas at ORACLE_DIGITS digits; every float input is taken as exact."""
    with mp.workdps(ORACLE_DIGITS):
        ab = mp.mpf(float(ab))
        root = mp.sqrt(ab)
        xs = [mp.mpf(float(v)) for v in x]
        logits, scores = [], []
        for w, mean, var in zip(mix.weights, mix.means.reshape(len(mix.weights), -1), mix.variances):
            V = ab * mp.mpf(float(var)) + 1 - ab
            offsets = [xj - root * mp.mpf(float(mj)) for xj, mj in zip(xs, mean)]
            logits.append(mp.log(mp.mpf(float(w))) - len(xs) * mp.log(2 * mp.pi * V) / 2
                          - mp.fsum(o * o for o in offsets) / (2 * V))
            scores.append([o / V for o in offsets])
        lse = mp.log(mp.fsum(mp.exp(l) for l in logits))
        r = [mp.exp(l - lse) for l in logits]
        eps = [mp.sqrt(1 - ab) * mp.fsum(ri * sc[j] for ri, sc in zip(r, scores))
               for j in range(len(xs))]
        return np.array([float(e) for e in eps]), float(lse)


@pytest.fixture(scope="module", params=["default", "soft"])
def oracle_model(request, default_model):
    if request.param == "default":
        return default_model  # sharp components, sigma 0.05
    return RunConfig.from_dict({"domain": SOFT_DOMAIN}).model()  # the ablate config's, sigma 0.35


class TestKernelOracle:
    """The one component kernel, through gmm_eps and mixture_logpdf, against
    mp_direct on rows 0.3, 10 and 1e3 per pixel from a component mean."""

    @staticmethod
    def row(mix, ab, dist):
        u = np.random.default_rng(17).standard_normal(mix.dim)
        return np.sqrt(ab) * mix.means[2].ravel() + dist * u

    @pytest.mark.parametrize("dist", [0.3, 10.0, 1e3])
    @pytest.mark.parametrize("t", [1, 25, 50])
    def test_gmm_eps(self, oracle_model, sched50, dist, t):
        y = Condition(1, 1.0)
        mix = oracle_model.mixture(y)
        ab = sched50.alpha_bars[t]
        x = self.row(mix, ab, dist)
        got = gmm_eps(x.reshape(mix.event_shape), t, y, oracle_model, sched50).ravel()
        want, _ = mp_direct(x, mix, ab)
        assert np.linalg.norm(got - want) <= EPS_RTOL[dist] * np.linalg.norm(want)

    @pytest.mark.parametrize("dist", [0.3, 10.0, 1e3])
    def test_mixture_logpdf(self, oracle_model, dist):
        mix = oracle_model.mixture(Condition(1, 1.0))
        x = self.row(mix, 1.0, dist)
        _, want = mp_direct(x, mix, 1.0)
        assert abs(mixture_logpdf(x, mix) - want) <= LOGPDF_RTOL * abs(want)


def test_mixture_logpdf_of_overflowing_row_is_minus_inf(default_model):
    """Rows whose squared norm and mean products both overflow have zero density."""
    mix = default_model.mixture(Condition(1))
    for v in (1e160, 1e307):
        assert mixture_logpdf(np.full(mix.event_shape, v), mix) == -np.inf


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

