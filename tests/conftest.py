import numpy as np
import pytest

from mvg import GmmDenoiser, GmmModel, Mixture, build_schedule
from mvg.toydata import DomainSpec, build_domain


@pytest.fixture(scope="session")
def sched50():
    return build_schedule(50, 1e-4, 0.02)


@pytest.fixture(scope="session")
def default_domain():
    return DomainSpec()


@pytest.fixture(scope="session")
def default_model(default_domain):
    return build_domain(default_domain)


@pytest.fixture(scope="session")
def std_normal_model():
    """Single standard-normal prior over a scalar event."""
    return GmmModel({0:
        Mixture(np.array([1.0]), np.array([[0.0]]), np.array([1.0]))})


def std_normal_denoiser(shape, schedule):
    model = GmmModel({0:
        Mixture(np.array([1.0]), np.zeros((1,) + tuple(shape)), np.array([1.0]))})
    return GmmDenoiser(model, schedule)


# softened blob domain used by the trend/transition suites: continuous Bayes
# confidences and fast commitment mixing (see ablation config)
SOFT_DOMAIN = {
    "classes": [
        {"class_id": 0, "center": [4.0, 4.0], "base_radius": 1.0, "base_intensity": 0.2},
        {"class_id": 1, "center": [11.0, 11.0], "base_radius": 1.0, "base_intensity": 0.2},
    ],
    "radius_gain": 1.5,
    "noise_sigma": 0.35,
}
SOFT_MASK = {"kind": "disk", "params": {"center": [11.0, 11.0], "radius": 3.5}}
