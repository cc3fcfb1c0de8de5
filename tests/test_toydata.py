import dataclasses

import numpy as np
import pytest
from scipy.stats import chi2, norm

from mvg import Condition
from mvg.errors import InvalidArgument
from mvg.toydata import ClassSpec, DomainSpec, build_domain, make_mask, render_mean, sample


class TestRender:
    def test_max_pixel_follows_severity_map(self, default_domain):
        for s in (0.0, 0.25, 0.5, 1.0):
            img = render_mean(default_domain, 1, s)
            assert img.max() == pytest.approx(0.2 + 0.6 * s, rel=1e-12)

    def test_severity_difference_confined_to_blob_support(self, default_domain):
        lo = render_mean(default_domain, 1, 0.0)
        hi = render_mean(default_domain, 1, 1.0)
        support = (lo > 0) | (hi > 0)
        assert np.array_equal((lo != hi), (lo != hi) & support)
        # far corner stays empty
        assert lo[0, 0] == 0.0 and hi[0, 0] == 0.0

    def test_monotone_in_severity_inside_blob(self, default_domain):
        imgs = [render_mean(default_domain, 0, s) for s in (0.0, 0.3, 0.6, 1.0)]
        for a, b in zip(imgs, imgs[1:]):
            assert np.all(b >= a - 1e-12)

    def test_deterministic(self, default_domain):
        assert np.array_equal(render_mean(default_domain, 0, 0.4),
                              render_mean(default_domain, 0, 0.4))

    def test_geometry_validation(self):
        with pytest.raises(InvalidArgument):
            DomainSpec(classes=(ClassSpec(0, (8.0, 8.0), base_radius=7.0),))
        with pytest.raises(InvalidArgument):
            DomainSpec(classes=(ClassSpec(0, (8.0, 8.0), base_intensity=0.5),))


class TestBuildDomain:
    def test_one_component_per_grid_point(self, default_domain, default_model):
        for c in default_model.class_ids:
            mix = default_model.class_mixtures[c]
            assert len(mix.weights) == len(default_domain.severity_grid)
            np.testing.assert_allclose(mix.weights, 1 / len(mix.weights))
            np.testing.assert_allclose(mix.variances, default_domain.noise_sigma**2)

    def test_means_are_rendered_blobs(self, default_domain, default_model):
        mix = default_model.class_mixtures[1]
        for mean, s in zip(mix.means, default_domain.severity_grid):
            np.testing.assert_array_equal(mean, render_mean(default_domain, 1, s))


class TestSample:
    def test_sigma_to_zero_returns_means(self):
        spec = DomainSpec(noise_sigma=0.0)
        model = build_domain(spec)
        draws = sample(model, Condition(1, 1.0), 8, seed=0)
        mix = model.class_mixtures[1]
        for d in draws:
            dists = [np.abs(d - m).max() for m in mix.means]
            assert min(dists) <= 1e-100

    def test_same_seed_identical_batch(self, default_model):
        a = sample(default_model, Condition(0, 0.5), 5, seed=11)
        b = sample(default_model, Condition(0, 0.5), 5, seed=11)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_clt_sample_mean(self, default_domain, default_model):
        """The mean of n draws is within the CLT's reach of the mixture mean.
        Two checks, each failing a correct sampler at most 0.27% of the time,
        as one pixel's 3-sigma band does. Every pixel lies within
        z sigma/sqrt(n), z Bonferroni's over the 256 pixels (a 3-sigma band on
        every pixel fails about a third of seeds). For an error spread thinly
        over many pixels, n e' S^-1 e lies below the chi2(256) quantile, S one
        draw's covariance: every pixel of a draw shares its component, so the
        plain sum of squared pixel z's is no chi2(256) sum."""
        n = 10_000
        draws = np.stack(sample(default_model, Condition(1), n, seed=21)).reshape(n, -1)
        mix = default_model.class_mixtures[1]
        w, means = mix.weights, mix.means.reshape(len(mix.weights), -1)
        mean = w @ means
        cov = (np.diag(np.full(mean.size, w @ mix.variances)) + (means.T * w) @ means
               - np.outer(mean, mean))
        err = draws.mean(axis=0) - mean
        z = norm.isf(norm.sf(3) / mean.size)
        assert np.all(np.abs(err) <= z * np.sqrt(np.diag(cov) / n))
        assert n * err @ np.linalg.solve(cov, err) <= chi2.isf(2 * norm.sf(3), mean.size)

    def test_n_below_one_rejected(self, default_model):
        with pytest.raises(InvalidArgument):
            sample(default_model, Condition(0), 0, seed=0)


class TestMakeMask:
    def test_full_and_empty(self, default_domain):
        assert np.array_equal(make_mask(default_domain, "full"), np.ones((16, 16)))
        assert np.array_equal(make_mask(default_domain, "empty"), np.zeros((16, 16)))

    def test_disk_radius_zero_single_pixel(self, default_domain):
        m = make_mask(default_domain, "disk", {"center": (7, 7), "radius": 0.0})
        assert m[7, 7] == 1.0 and m.sum() == 1.0

    def test_disk_feathered_in_unit_interval(self, default_domain):
        m = make_mask(default_domain, "disk", {"center": (8, 8), "radius": 4, "feather": 2})
        assert m.min() >= 0 and m.max() <= 1
        assert np.any((m > 0) & (m < 1))

    def test_rect(self, default_domain):
        m = make_mask(default_domain, "rect", {"y0": 2, "x0": 3, "y1": 5, "x1": 7})
        assert m.sum() == 3 * 4 and m[2, 3] == 1.0 and m[5, 7] == 0.0

    @pytest.mark.parametrize("kind,params", [
        ("disk", {"center": (8, 8), "radius": 9}),
        ("disk", {"center": (20, 8), "radius": 1}),
        ("rect", {"y0": -1, "x0": 0, "y1": 4, "x1": 4}),
        ("rect", {"y0": 0, "x0": 0, "y1": 20, "x1": 4}),
        ("blob", {}),
        ("disk", {}),
        ("disk", {"radius": 2.0}),
    ])
    def test_out_of_plane_rejected(self, default_domain, kind, params):
        with pytest.raises(InvalidArgument):
            make_mask(default_domain, kind, params)


def test_domain_spec_roundtrip(default_domain):
    again = DomainSpec.from_dict(dataclasses.asdict(default_domain))
    assert again == default_domain
