import pytest

from travmap import pipeline, scenesim
from travmap.posegraph import Pose2

pytest_plugins = ["pytester"]


@pytest.fixture(scope="session")
def simulated():
    """``scenesim.simulate_sequence``, run once per distinct scene in the session.

    A scene is keyed by its ``repr``, which names every setting: the layout,
    seed, fps and any override.  Callers share the frames and the truth it
    returns, so they must not change them.
    """
    cache = {}

    def simulate(scene):
        key = repr(scene)
        if key not in cache:
            cache[key] = scenesim.simulate_sequence(scene)
        return cache[key]

    return simulate


@pytest.fixture(scope="session")
def run_shared(simulated):
    """``pipeline.run_pipeline`` on the session's shared simulation of its scene."""

    def run(scene, params=None):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(pipeline, "simulate_sequence", simulated)
            return pipeline.run_pipeline(scene, params)

    return run


@pytest.fixture(scope="session")
def ingest_shared(simulated):
    """``pipeline.ingest`` on the shared simulation of a scene, given the truth oracles' outputs as ``run_pipeline`` gives them.

    Returns the ``Ingest`` and the simulation's ground truth.
    """

    def run(scene, params):
        frames, truth = simulated(scene)
        closures = pipeline.truth_closures(truth, params) if params.enable_closures else []
        calibration = pipeline.truth_calibration(frames, truth, scene.intrinsics)
        origin = Pose2(*truth.camera_poses[0])
        return pipeline.ingest(frames, scene.intrinsics, params, origin, calibration, closures), truth

    return run


@pytest.fixture(scope="session")
def i_result(run_shared):
    """One full pipeline pass over the builtin I scene, shared across tests."""
    return run_shared(scenesim.builtin_config("I"))
