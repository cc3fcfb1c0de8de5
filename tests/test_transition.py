import numpy as np
import pytest

from mvg import (Condition, GmmDenoiser, GmmModel, Mixture, concat_clips,
                 generate_transition, make_clip_skeleton)
from mvg.config import RunConfig
from mvg.denoiser import blend_conditions
from mvg.errors import InvalidArgument, SeamMismatch, ShapeMismatch
from mvg.pie import composite_roi
from mvg.scheduler import ddim_chain
from mvg.toydata import DomainSpec, render_mean, sample
from tests.conftest import SOFT_DOMAIN, SOFT_MASK

# per-frame generation noise on the fixed-point case (x_start == x_end, unit
# single-Gaussian denoiser centered there, T=50 ramp, gamma=0.6, K=8, 50
# seeds): per-pixel RMS and L2-norm scales, measured once and frozen
SIGMA_GEN_RMS = 1.01
SIGMA_GEN_L2 = 16.15


def fixed_point_setup(sched):
    spec = DomainSpec()
    u = render_mean(spec, 1, 0.5)
    den = GmmDenoiser(GmmModel.single_class(Mixture(
        np.array([1.0]), u[None], np.array([1.0]))), sched)
    return u, den


class TestSkeleton:
    def test_k2_no_noise_frames(self):
        a, b = np.zeros((3, 3)), np.ones((3, 3))
        clip = make_clip_skeleton(a, b, 2, seed=0)
        assert len(clip) == 2
        assert np.array_equal(clip[0], a) and np.array_equal(clip[1], b)

    def test_k4_structure(self):
        a, b = np.zeros((3, 3)), np.ones((3, 3))
        clip = make_clip_skeleton(a, b, 4, seed=5)
        assert np.array_equal(clip[0], a) and np.array_equal(clip[3], b)
        for j in (1, 2):  # unit-normal middles, not the endpoints
            assert 0.1 < clip[j].std() < 3.0

    def test_same_seed_bit_identical(self):
        a, b = np.zeros((4, 4)), np.ones((4, 4))
        c1 = make_clip_skeleton(a, b, 6, seed=9)
        c2 = make_clip_skeleton(a, b, 6, seed=9)
        assert np.array_equal(c1, c2)
        c3 = make_clip_skeleton(a, b, 6, seed=10)
        assert not np.array_equal(c1, c3)

    def test_k_below_two_rejected(self):
        with pytest.raises(InvalidArgument):
            make_clip_skeleton(np.zeros(2), np.zeros(2), 1, seed=0)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            make_clip_skeleton(np.zeros((2, 2)), np.zeros((3, 3)), 4, seed=0)


class TestGenerateTransition:
    def test_endpoints_exact_and_outside_roi_average(self, sched50):
        u, den = fixed_point_setup(sched50)
        rng = np.random.default_rng(0)
        x_start = u
        x_end = u + 0.3 * rng.uniform(size=u.shape)
        mask = np.zeros(u.shape)
        mask[4:12, 4:12] = 1.0
        skel = make_clip_skeleton(x_start, x_end, 6, seed=3)
        (clip,) = generate_transition([skel], mask, den, Condition(0), Condition(0), 0.6)
        assert np.array_equal(clip[0], x_start)
        assert np.array_equal(clip[-1], x_end)
        avg = 0.5 * (x_start + x_end)
        outside = mask == 0.0
        for j in range(1, len(clip) - 1):
            assert np.array_equal(clip[j][outside], avg[outside])

    def test_fixed_point_deviation_within_two_sigma(self, sched50):
        u, den = fixed_point_setup(sched50)
        mask = np.ones(u.shape)
        devs = []
        for seed in range(50):
            skel = make_clip_skeleton(u, u, 8, seed=seed)
            (clip,) = generate_transition([skel], mask, den, Condition(0), Condition(0), 0.6)
            for j in range(1, 7):
                devs.append(np.sqrt(np.mean((clip[j] - u) ** 2)))
        assert np.mean(devs) <= 2 * SIGMA_GEN_RMS

    def test_deterministic_under_seed(self, sched50):
        u, den = fixed_point_setup(sched50)
        skel = make_clip_skeleton(u, u + 0.1, 5, seed=21)
        (c1,) = generate_transition([skel], np.ones(u.shape), den, Condition(0), Condition(0), 0.5)
        (c2,) = generate_transition([skel], np.ones(u.shape), den, Condition(0), Condition(0), 0.5)
        assert np.array_equal(c1, c2)

    def test_invalid_gamma(self, sched50):
        u, den = fixed_point_setup(sched50)
        skel = make_clip_skeleton(u, u, 4, seed=0)
        with pytest.raises(InvalidArgument):
            generate_transition([skel], np.ones(u.shape), den,
                                Condition(0), Condition(0), gamma=0.001)

    def test_middle_frames_are_independent_chains(self):
        """Each middle frame is its own DDIM chain from the skeleton noise under
        the blended condition, composited against the endpoint average."""
        cfg = RunConfig.from_dict({"domain": SOFT_DOMAIN, "mask": SOFT_MASK})
        model, sched, mask = cfg.model(), cfg.schedule(), cfg.mask()
        assert np.any(mask == 0.0) and np.any(mask == 1.0)
        den = GmmDenoiser(model, sched)
        K, gamma = 6, 0.6
        k = int(gamma * sched.T)
        # classes 0 -> 1 give one condition per frame; equal endpoints give one
        # condition, so all middle frames run as one batch
        for y_start, y_end in ((Condition(0, 0.2), Condition(1, 0.9)),
                               (Condition(1, 0.9), Condition(1, 0.9))):
            x_start = sample(model, y_start, 1, seed=31)[0]
            x_end = sample(model, y_end, 1, seed=32)[0]
            skel = make_clip_skeleton(x_start, x_end, K, seed=4)
            (clip,) = generate_transition([skel], mask, den, y_start, y_end, gamma)
            avg = 0.5 * (x_start + x_end)
            assert np.array_equal(clip[0], x_start)
            assert np.array_equal(clip[-1], x_end)
            for j in range(1, K - 1):
                y_j = blend_conditions(y_start, y_end, j / (K - 1))
                expected = composite_roi(ddim_chain(skel[j], k, den, y_j),
                                         avg, mask, 0.0, 1.0)
                assert np.array_equal(clip[j], expected), (y_start, y_end, j)

    def test_smoothness_bound_on_domain_clips(self):
        """Adjacent middle frames stay within the endpoint distance plus the
        frozen 3x generation-noise slack, across random state pairs."""
        cfg = RunConfig.from_dict({"domain": SOFT_DOMAIN, "mask": SOFT_MASK})
        model, sched = cfg.model(), cfg.schedule()
        den = GmmDenoiser(model, sched)
        mask = cfg.mask()
        rng = np.random.default_rng(1)
        from mvg.toydata import sample
        for case in range(10):
            ya = Condition(int(rng.integers(0, 2)), float(rng.uniform()))
            yb = Condition(int(rng.integers(0, 2)), float(rng.uniform()))
            x_start = sample(model, ya, 1, seed=100 + case)[0]
            x_end = sample(model, yb, 1, seed=200 + case)[0]
            skel = make_clip_skeleton(x_start, x_end, 8, seed=case)
            (clip,) = generate_transition([skel], mask, den, ya, yb, 0.6)
            span = np.linalg.norm(x_end - x_start)
            for j in range(1, len(clip) - 2):
                step = np.linalg.norm(clip[j + 1] - clip[j])
                assert step <= span + 3 * SIGMA_GEN_L2


    @pytest.mark.parametrize("K", [2, 4, 8])
    @pytest.mark.parametrize("distinct_ends", [False, True])
    def test_run_of_skeletons_equals_each_alone(self, K, distinct_ends):
        """One call over a run's N skeletons gives each clip exactly (tolerance
        0) the frames that skeleton gets alone, and runs every middle frame of
        one condition in one chain. With distinct_ends, clips 0 and 2 share
        their blends and the others differ, so batches mix clips of a shared
        condition and split off the rest. At K=2 no denoiser is called."""
        cfg = RunConfig.from_dict({"domain": SOFT_DOMAIN, "mask": SOFT_MASK})
        model, sched, mask = cfg.model(), cfg.schedule(), cfg.mask()
        gamma, N = 0.6, 4
        k = int(gamma * sched.T)

        class Counting:
            calls = rows = 0
            schedule = sched

            def predict(self, x, t, y):
                Counting.calls += 1
                Counting.rows += len(x)
                return GmmDenoiser(model, sched).predict(x, t, y)

        states = sample(model, Condition(1, 0.9), N + 1, seed=41)
        skels = [make_clip_skeleton(states[n - 1], states[n], K, seed=7, tag=(n,))
                 for n in range(1, N + 1)]
        if distinct_ends:
            y_start = [Condition(0, 0.2), Condition(1, 0.9), Condition(0, 0.2), Condition(0, 0.5)]
            y_end = [Condition(1, 0.9), Condition(1, 0.9), Condition(1, 0.9), Condition(1, 0.1)]
            # clips 0 and 2 share K-2 blends, clip 1 has one condition, clip 3 K-2 blends
            chains = 2 * (K - 2) + (K > 2)
        else:
            y_start = y_end = Condition(1, 0.9)
            chains = 1 if K > 2 else 0
        clips = generate_transition(skels, mask, Counting(), y_start, y_end, gamma)
        assert Counting.calls == chains * k
        assert Counting.rows == N * (K - 2) * k
        ys = list(zip(y_start, y_end)) if distinct_ends else [(y_start, y_end)] * N
        den = GmmDenoiser(model, sched)
        for skel, (a, b), clip in zip(skels, ys, clips):
            (alone,) = generate_transition([skel], mask, den, a, b, gamma)
            assert np.array_equal(clip, alone)
        stack = np.stack(skels)
        from_stack = generate_transition(stack, mask, den, y_start, y_end, gamma)
        for clip, twin in zip(clips, from_stack):
            assert np.array_equal(clip, twin)

    def test_skeletons_must_agree(self, sched50):
        u, den = fixed_point_setup(sched50)
        mask = np.ones(u.shape)
        y = Condition(0)
        with pytest.raises(InvalidArgument):
            generate_transition([], mask, den, y, y, 0.6)
        with pytest.raises(ShapeMismatch):
            generate_transition([make_clip_skeleton(u, u, 4, seed=0),
                                 make_clip_skeleton(u, u, 5, seed=0)], mask, den, y, y, 0.6)
        with pytest.raises(ShapeMismatch):  # one condition per clip
            generate_transition([make_clip_skeleton(u, u, 4, seed=0)] * 2, mask, den,
                                [y], y, 0.6)


class TestConcat:
    def test_single_clip_unchanged(self):
        clip = np.zeros((3, 2, 2))
        assert concat_clips([clip]) is clip

    def test_two_clips_drop_seam(self):
        a, b, c = np.zeros((2, 2)), np.ones((2, 2)), 2 * np.ones((2, 2))
        out = concat_clips([np.stack([a, b]), np.stack([b, c])])
        assert len(out) == 3
        np.testing.assert_array_equal(out, np.stack([a, b, c]))

    def test_seam_mismatch_names_pair(self):
        a, b, c = np.zeros((2, 2)), np.ones((2, 2)), 2 * np.ones((2, 2))
        with pytest.raises(SeamMismatch, match="clip 0 .* clip 1"):
            concat_clips([np.stack([a, b]), np.stack([b + 1e-3, c])])

    def test_frame_count_accounting(self):
        clips = []
        prev = np.zeros((2, 2))
        for i in range(4):
            nxt = np.full((2, 2), float(i + 1))
            clips.append(np.stack([prev, 0.5 * (prev + nxt), nxt]))
            prev = nxt
        out = concat_clips(clips)
        assert len(out) == 3 * 4 - 3

    def test_heterogeneous_shapes_rejected(self):
        with pytest.raises(ShapeMismatch):
            concat_clips([np.zeros((2, 2, 2)), np.zeros((2, 3, 3))])


def test_videoclip_validation(sched50):
    """A clip of one frame, or with a non-finite frame, is rejected where it
    enters: as a generate_transition skeleton (listed or stacked) and as a
    concat_clips clip. Two all-NaN clips would pass the seam test alone, as
    their gap is NaN."""
    _, den = fixed_point_setup(sched50)
    y = Condition(0)
    for bad, why in ((np.zeros((1, 4, 4)), "two frames"), (np.full((3, 2, 2), np.nan), "finite")):
        mask = np.ones(bad.shape[1:])
        for skels in ([bad], bad[None]):
            with pytest.raises(InvalidArgument, match=why):
                generate_transition(skels, mask, den, y, y, 0.6)
        for clips in ([bad], [bad, bad]):
            with pytest.raises(InvalidArgument, match=why):
                concat_clips(clips)
