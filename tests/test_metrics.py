import numpy as np
import pytest

from mvg import (Condition, GmmModel, IdentityEmbedder, Mixture,
                 RandomProjectionEmbedder, clip_i, confidence,
                 kid, mae)
from mvg.errors import InvalidArgument, ShapeMismatch
from mvg.metrics import make_embedder
from mvg.toydata import DomainSpec, sample


class TestClipI:
    def test_constant_trajectory_is_one(self):
        x = np.array([1.0, 2.0, 3.0])
        assert clip_i([x, x, x], IdentityEmbedder()) == pytest.approx(1.0)

    def test_orthogonal_state_is_zero(self):
        a = np.array([1.0, 0.0])
        b = np.array([0.0, 1.0])
        assert clip_i([a, b], IdentityEmbedder()) == pytest.approx(0.0, abs=1e-15)

    def test_hand_cosine(self):
        a = np.array([1.0, 0.0])
        b = np.array([np.sqrt(0.5), np.sqrt(0.5)])
        assert clip_i([a, b], IdentityEmbedder()) == pytest.approx(np.sqrt(0.5))

    def test_zero_embedding_excluded_with_warning(self):
        a = np.array([1.0, 0.0])
        with pytest.warns(UserWarning):
            value = clip_i([a, np.zeros(2), a], IdentityEmbedder())
        assert value == pytest.approx(1.0)

    def test_range(self):
        rng = np.random.default_rng(0)
        states = [rng.standard_normal(5) for _ in range(6)]
        v = clip_i(states, IdentityEmbedder())
        assert -1.0 <= v <= 1.0

    def test_empty_trajectory_rejected(self):
        with pytest.raises(InvalidArgument):
            clip_i([np.ones(2)], IdentityEmbedder())


@pytest.fixture(scope="module")
def two_class():
    return GmmModel({
        0: Mixture(np.array([1.0]), np.array([[-1.0, 0.0]]), np.array([0.5])),
        1: Mixture(np.array([1.0]), np.array([[1.0, 0.0]]), np.array([0.5])),
    })


class TestConfidence:
    def test_equidistant_point_is_half(self, two_class):
        assert confidence(np.zeros(2), Condition(1), two_class) == pytest.approx(0.5)

    def test_dominance_near_target_mean(self):
        model = GmmModel({
            0: Mixture(np.array([1.0]), np.array([[0.0]]), np.array([1.0])),
            1: Mixture(np.array([1.0]), np.array([[12.0]]), np.array([1.0])),
        })
        assert confidence(np.array([12.0]), Condition(1), model) >= 0.999

    def test_matches_high_precision_brute_force(self, default_model):
        """Oracle: posterior from mpmath densities evaluated at 50 digits."""
        import mpmath as mp
        mp.mp.dps = 50
        rng = np.random.default_rng(4)
        spec = DomainSpec()
        for i in range(10):
            y = Condition(int(rng.integers(0, 2)), 1.0)
            x = sample(default_model, y, 1, seed=i)[0] + 0.05 * rng.standard_normal(spec.shape)
            xf = x.ravel()
            per_class = {}
            for c, mix in default_model.class_mixtures.items():
                total = mp.mpf(0)
                for w, mean, var in zip(mix.weights, mix.means, mix.variances):
                    sq = float(((xf - mean.ravel()) ** 2).sum())
                    d = xf.size
                    total += mp.mpf(w) * mp.e ** (
                        -mp.mpf(sq) / (2 * mp.mpf(var))
                        - mp.mpf(d) / 2 * mp.log(2 * mp.pi * mp.mpf(var)))
                per_class[c] = total
            want = float(per_class[1] / (per_class[0] + per_class[1]))
            got = confidence(x, Condition(1), default_model)
            assert got == pytest.approx(want, abs=1e-10)

    def test_sums_to_one(self, two_class):
        x = np.array([0.3, -0.7])
        total = sum(confidence(x, Condition(c), two_class) for c in (0, 1))
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_needs_two_classes(self, std_normal_model):
        with pytest.raises(InvalidArgument):
            confidence(np.zeros(1), Condition(0), std_normal_model)


class TestKid:
    def test_self_distance_near_zero(self, default_model):
        draws = sample(default_model, Condition(1, 0.5), 1000, seed=0)
        e = RandomProjectionEmbedder(out_dim=64, seed=0)
        assert abs(kid(draws[:500], draws[500:], e)) <= 0.01
        # permutation draws of the same null stay inside the band
        rng = np.random.default_rng(1)
        for _ in range(3):
            perm = rng.permutation(1000)
            a = [draws[i] for i in perm[:500]]
            b = [draws[i] for i in perm[500:]]
            assert abs(kid(a, b, e)) <= 0.01

    def test_two_point_hand_value(self):
        """Unbiased estimator on A=B={u,v}: kid = k(u,v) - (k(u,u)+k(v,v))/2,
        evaluated from the explicit 2x2 kernel matrix."""
        u = np.array([1.0, 0.0])
        v = np.array([0.6, 0.8])
        e = IdentityEmbedder()
        f = 2
        k_uv = (u @ v / f + 1) ** 3
        k_uu = (u @ u / f + 1) ** 3
        k_vv = (v @ v / f + 1) ** 3
        want = k_uv - (k_uu + k_vv) / 2
        assert kid([u, v], [u, v], e) == pytest.approx(want, rel=1e-12)

    def test_identical_features_zero(self):
        u = np.array([0.3, 0.4])
        assert kid([u] * 5, [u] * 5, IdentityEmbedder()) == pytest.approx(0.0, abs=1e-12)

    def test_symmetry(self, default_model):
        a = sample(default_model, Condition(0, 0.2), 40, seed=5)
        b = sample(default_model, Condition(1, 0.9), 40, seed=6)
        e = RandomProjectionEmbedder(seed=0)
        assert kid(a, b, e) == pytest.approx(kid(b, a, e), rel=1e-12)

    def test_too_small_sets_rejected(self):
        with pytest.raises(InvalidArgument):
            kid([np.ones(2)], [np.ones(2), np.zeros(2)], IdentityEmbedder())


class TestMae:
    def test_equal_inputs(self):
        x = np.random.default_rng(0).standard_normal((4, 4))
        assert mae(x, x) == 0.0

    def test_scalars(self):
        assert mae(np.array([1.0]), np.array([0.0])) == 1.0

    def test_hand_value(self):
        assert mae(np.array([0.0, 1.0]), np.array([1.0, 1.0])) == 0.5

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            mae(np.zeros(2), np.zeros(3))


class TestEmbedders:
    def test_identity_unit_norm(self):
        f = IdentityEmbedder()(np.array([[3.0, 4.0]]))
        assert np.linalg.norm(f) == pytest.approx(1.0)

    def test_random_projection_shape_and_determinism(self):
        e1 = RandomProjectionEmbedder(out_dim=64, seed=3)
        e2 = RandomProjectionEmbedder(out_dim=64, seed=3)
        x = np.random.default_rng(0).standard_normal((16, 16))
        f1, f2 = e1(x), e2(x)
        assert f1.shape == (64,)
        assert np.linalg.norm(f1) == pytest.approx(1.0)
        assert np.array_equal(f1, f2)

    def test_zero_input_flagged(self):
        with pytest.warns(UserWarning):
            f = IdentityEmbedder()(np.zeros(4))
        assert np.array_equal(f, np.zeros(4))

    def test_factory(self):
        assert isinstance(make_embedder("identity"), IdentityEmbedder)
        assert isinstance(make_embedder("random_projection"), RandomProjectionEmbedder)
        with pytest.raises(InvalidArgument):
            make_embedder("clip")
