import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvg import Condition, build_schedule, ddim_chain, ddim_step, forward_diffuse
from mvg.errors import InvalidArgument, ShapeMismatch
from tests.conftest import std_normal_denoiser

# direct running product over the same beta ramp, frozen from a 40-digit
# mpmath evaluation (regression constant for the T=50 default-style ramp)
ALPHA_BAR_50 = 0.6029515973297149


class TestBuildSchedule:
    def test_zero_noise_limit(self):
        s = build_schedule(1, 1e-12, 1e-12)
        assert abs(s.alpha_bars[1] - 1.0) < 1e-11

    def test_alpha_bar_one_unreachable(self):
        # beta small enough to round alpha_bar_1 to 1.0 violates the schedule
        # invariant at construction, so no step has a zero noise level 1 - alpha_bar
        with pytest.raises(InvalidArgument):
            build_schedule(1, 1e-18, 1e-18)

    def test_hand_product(self):
        s = build_schedule(2, 0.1, 0.1)
        np.testing.assert_allclose(s.alpha_bars, [1.0, 0.9, 0.81], rtol=1e-15)

    def test_t50_running_product_regression(self):
        s = build_schedule(50, 1e-4, 0.02)
        assert s.alpha_bars[50] == pytest.approx(ALPHA_BAR_50, rel=1e-14)

    def test_default_betas_rescale_with_t(self):
        s = build_schedule(100)
        assert s.betas[0] == pytest.approx(1e-4 * 10)
        assert s.betas[-1] == pytest.approx(0.02 * 10)

    @pytest.mark.parametrize("bad", [dict(T=0), dict(T=10, beta_start=0.0),
                                     dict(T=10, beta_start=0.5, beta_end=0.2),
                                     dict(T=10, beta_start=0.1, beta_end=1.0)])
    def test_invalid_arguments(self, bad):
        with pytest.raises(InvalidArgument):
            build_schedule(**bad)

    @given(T=st.integers(1, 200),
           beta_start=st.floats(1e-6, 0.05),
           ratio=st.floats(1.0, 20.0))
    @settings(max_examples=60, deadline=None)
    def test_invariants(self, T, beta_start, ratio):
        s = build_schedule(T, beta_start, min(beta_start * ratio, 0.999))
        assert s.alpha_bars[0] == 1.0
        assert np.all(np.diff(s.alpha_bars) < 0)
        assert np.all((s.alpha_bars > 0) & (s.alpha_bars <= 1))
        # recurrence within ulp-scale tolerance
        np.testing.assert_allclose(
            s.alpha_bars[1:], s.alpha_bars[:-1] * (1 - s.betas), rtol=1e-13)


class TestForwardDiffuse:
    def test_near_zero_noise_returns_x0(self):
        s = build_schedule(1, 1e-12, 1e-12)
        x0 = np.array([1.0, -2.0, 3.0])
        out = forward_diffuse(x0, 1, np.ones(3), s)
        np.testing.assert_allclose(out, x0, atol=1e-5)

    def test_pure_noise_limit(self):
        s = build_schedule(200, 0.05, 0.999)  # alpha_bar_T ~ 0
        eps = np.array([0.3, -1.2])
        out = forward_diffuse(np.array([5.0, 5.0]), 200, eps, s)
        np.testing.assert_allclose(out, eps, atol=1e-6)

    def test_scalar_substitution(self):
        s = build_schedule(1, 0.36, 0.36)  # alpha_bar_1 = 0.64
        out = forward_diffuse(np.array([1.0]), 1, np.array([0.5]), s)
        assert out[0] == pytest.approx(0.8 * 1.0 + 0.6 * 0.5, rel=1e-15)

    def test_errors(self, sched50):
        with pytest.raises(ShapeMismatch):
            forward_diffuse(np.zeros(3), 1, np.zeros(4), sched50)
        with pytest.raises(InvalidArgument):
            forward_diffuse(np.zeros(3), 0, np.zeros(3), sched50)
        with pytest.raises(InvalidArgument):
            forward_diffuse(np.zeros(3), 51, np.zeros(3), sched50)


class TestDdimStep:
    def test_scalar_substitution(self):
        # alpha_bars [1, 0.81, 0.64]: step at t=2 with x_t=1.1, eps=0.5
        s = build_schedule(2, 0.19, 1 - 0.64 / 0.81)
        out = ddim_step(np.array([1.1]), 2, np.array([0.5]), s)
        assert out[0] == pytest.approx(0.9 * 1.0 + np.sqrt(0.19) * 0.5, rel=1e-12)

    def test_inverts_forward_with_known_eps(self, sched50):
        rng = np.random.default_rng(3)
        x0 = rng.standard_normal((4, 4))
        eps = rng.standard_normal((4, 4))
        for t in (2, 17, 50):
            x_t = forward_diffuse(x0, t, eps, sched50)
            np.testing.assert_allclose(
                ddim_step(x_t, t, eps, sched50),
                forward_diffuse(x0, t - 1, eps, sched50), rtol=1e-10)

    def test_near_identity_when_levels_close(self):
        # strictly-decreasing schedules cannot have equal levels; take the limit
        s = build_schedule(2, 1e-12, 2e-12)
        x_t = np.array([0.7, -0.4])
        out = ddim_step(x_t, 2, np.array([2.0, 2.0]), s)
        np.testing.assert_allclose(out, x_t, atol=1e-5)

    def test_out_of_range(self, sched50):
        with pytest.raises(InvalidArgument):
            ddim_step(np.zeros(2), 0, np.zeros(2), sched50)


@given(t=st.integers(2, 50), seed=st.integers(0, 2**31))
@settings(max_examples=80, deadline=None)
def test_consistency_law(sched50, t, seed):
    rng = np.random.default_rng(seed)
    x0 = rng.standard_normal(6)
    eps = rng.standard_normal(6)
    lhs = ddim_step(forward_diffuse(x0, t, eps, sched50), t, eps, sched50)
    rhs = forward_diffuse(x0, t - 1, eps, sched50)
    assert np.linalg.norm(lhs - rhs) <= 1e-10 * max(np.linalg.norm(rhs), 1e-12)


class TestDdimChain:
    def test_zero_noise_schedule_is_identity(self):
        s = build_schedule(5, 1e-12, 1e-12)
        den = std_normal_denoiser((3,), s)
        x = np.array([0.5, -1.0, 2.0])
        np.testing.assert_allclose(ddim_chain(x, 5, den, Condition(0)), x, atol=1e-5)

    def test_scalar_product_recursion(self, sched50):
        """Standard-normal prior: each reverse step multiplies the state by
        sqrt(a'a) + sqrt((1-a')(1-a)), so the chain is a closed-form product."""
        den = std_normal_denoiser((1,), sched50)
        for k in (1, 7, 30):
            factor = 1.0
            ab = sched50.alpha_bars
            for t in range(k, 0, -1):
                factor *= np.sqrt(ab[t - 1] * ab[t]) + np.sqrt((1 - ab[t - 1]) * (1 - ab[t]))
            out = ddim_chain(np.array([1.7]), k, den, Condition(0))
            assert out[0] == pytest.approx(1.7 * factor, rel=1e-12)

    def test_k1_matches_single_step(self, sched50):
        den = std_normal_denoiser((2,), sched50)
        x = np.array([0.3, -0.8])
        eps_pred = den.predict(x, 1, Condition(0))
        chain = ddim_chain(x, 1, den, Condition(0))
        step = ddim_step(x, 1, eps_pred, sched50)
        assert np.array_equal(chain, step)

    def test_deterministic(self, sched50):
        den = std_normal_denoiser((4,), sched50)
        x = np.linspace(-1, 1, 4)
        a = ddim_chain(x, 20, den, Condition(0))
        b = ddim_chain(x, 20, den, Condition(0))
        assert np.array_equal(a, b)
