from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from mvg import (Condition, GmmModel, IdentityEmbedder, Mixture,
                 RandomProjectionEmbedder, clip_i, confidence,
                 kid, mae)
from mvg import io
from mvg.cli import main
from mvg.config import RunConfig
from mvg.errors import InvalidArgument, ShapeMismatch
from mvg.metrics import make_embedder
from mvg.toydata import DomainSpec, render_mean, sample
from tests.conftest import SOFT_DOMAIN

REPO = Path(__file__).resolve().parent.parent
# Set before the first run: confidence against mp_confidence, relative to the
# exact value, over simulate's stored states, whose confidences run from ~1e-75
# at stage 0 up to ~1, below the 1e-10 absolute tolerance of the older oracles.
CONF_RTOL = 1e-12


def mp_confidence(x, y_target, m: GmmModel, digits: int = 40) -> float:
    """p(class = y_target.class_id | x) under uniform class priors, every
    squared distance summed in mpmath from the exact float inputs."""
    with mp.workdps(digits):
        xs = [mp.mpf(float(v)) for v in np.ravel(x)]
        density = {}
        for c in m.class_ids:
            mix = m.class_mixtures[c]
            terms = []
            for w, mean, var in zip(mix.weights, mix.means.reshape(len(mix.weights), -1),
                                    mix.variances):
                V = mp.mpf(float(var))
                sq = mp.fsum((xj - mp.mpf(float(mj))) ** 2 for xj, mj in zip(xs, mean))
                terms.append(mp.log(mp.mpf(float(w))) - len(xs) * mp.log(2 * mp.pi * V) / 2
                             - sq / (2 * V))
            density[c] = mp.fsum(mp.exp(t) for t in terms)
        return float(density[y_target.class_id] / mp.fsum(density.values()))


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
        """Oracle: posterior from mpmath densities (mp_confidence)."""
        rng = np.random.default_rng(4)
        spec = DomainSpec()
        for i in range(10):
            y = Condition(int(rng.integers(0, 2)), 1.0)
            x = sample(default_model, y, 1, seed=i)[0] + 0.05 * rng.standard_normal(spec.shape)
            want = mp_confidence(x, Condition(1), default_model)
            got = confidence(x, Condition(1), default_model)
            assert got == pytest.approx(want, abs=1e-10)

    def test_matches_mpmath_on_stored_simulate_states(self, tmp_path):
        """Every state simulate stores on configs/video.json (seeds 0-3), to a
        relative tolerance, so the tiny stage-0 values are checked too."""
        config = REPO / "configs" / "video.json"
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path),
                     "--seeds", "0,1,2,3"]) == 0
        cfg = RunConfig.load(config)
        model, y_target = cfg.model(), cfg.conditions()[1]
        states = sorted(tmp_path.glob("seed_*/state_*.mvgt"))
        assert len(states) == 4 * (cfg.pie_config().N + 1)
        worst = 0.0
        for path in states:
            x = io.read_tensor(path)
            want = mp_confidence(x, y_target, model)
            got = confidence(x, y_target, model)
            worst = max(worst, abs(got - want) / want)
        assert worst <= CONF_RTOL, worst

    @pytest.mark.parametrize("domain", ["default", "soft"])
    def test_at_most_one_at_every_class_mean(self, domain):
        """At each component mean and each grid severity's rendered mean, every
        class's confidence stays in [0, 1]."""
        cfg = RunConfig.from_dict({"domain": SOFT_DOMAIN} if domain == "soft" else {})
        spec, model = cfg.domain(), cfg.model()
        means = [mean for c in model.class_ids for mean in model.class_mixtures[c].means]
        means += [render_mean(spec, c, s) for c in model.class_ids for s in spec.severity_grid]
        for x in means:
            for c in model.class_ids:
                assert 0.0 <= confidence(x, Condition(c), model) <= 1.0

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

    def test_every_item_counts(self, default_model):
        """300 states against 100 references: changing state 250 moves the
        kid, and so does changing it on the reference side."""
        a = sample(default_model, Condition(0, 0.2), 300, seed=5)
        b = sample(default_model, Condition(1, 0.9), 100, seed=6)
        changed = a[:250] + [b[0]] + a[251:]
        e = RandomProjectionEmbedder(seed=0)
        assert kid(a, b, e) != kid(changed, b, e)
        assert kid(b, a, e) != kid(b, changed, e)

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
