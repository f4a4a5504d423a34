import pytest

from adradar.scene import Scenario, build_scene
from adradar.sequences import build_preamble, correlation_segment


@pytest.fixture(scope="session")
def preamble():
    return build_preamble()


@pytest.fixture(scope="session")
def s_c(preamble):
    return correlation_segment(preamble)


@pytest.fixture(scope="session")
def default_scene():
    return build_scene(Scenario())


@pytest.fixture(scope="session")
def true_velocities(default_scene):
    return default_scene.velocities
