import pytest

from travmap import pipeline, scenesim

pytest_plugins = ["pytester"]


@pytest.fixture(scope="session")
def i_result():
    """One full pipeline pass over the builtin I scene, shared across tests."""
    return pipeline.run_pipeline(scenesim.builtin_config("I"))
