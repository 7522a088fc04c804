import pytest

from travmap.scenario import EXAMPLE_SCENARIO, ScenarioError, load_scenario, parse_scenario

MINIMAL = """\
[bounds]
x_min = 0
y_min = 0
x_max = 3
y_max = 6

[robot]
waypoints = 0, 0.25, 0.5, 0; 10, 0.25, 5.5, 0
"""


def test_parse_minimal():
    cfg = parse_scenario(MINIMAL)
    assert cfg.bounds == (0.0, 0.0, 3.0, 6.0)
    assert cfg.obstacles == [] and cfg.humans == []
    assert cfg.fps == 30.0
    assert cfg.robot.waypoints[0][1] == (0.25, 0.5, 0.0)


def test_parse_example_scenario():
    cfg = parse_scenario(EXAMPLE_SCENARIO)
    assert cfg.name == "example"
    assert len(cfg.obstacles) == 1
    assert cfg.obstacles[0].half_extents == (0.3, 1.25)
    assert len(cfg.humans) == 1
    assert cfg.camera_yaw_offset == 0.0


def test_parse_bad_number_names_line():
    text = MINIMAL + "\n[scene]\nfps = abc\n"
    lineno = text.splitlines().index("fps = abc") + 1
    with pytest.raises(ScenarioError) as err:
        parse_scenario(text)
    assert f"line {lineno}" in str(err.value)


def test_parse_unknown_key_names_line():
    text = MINIMAL.replace("[robot]", "[robot]\nspeed = 3")
    with pytest.raises(ScenarioError) as err:
        parse_scenario(text)
    assert "speed" in str(err.value) and "line" in str(err.value)


def test_parse_unknown_section_rejected():
    with pytest.raises(ScenarioError) as err:
        parse_scenario(MINIMAL + "\n[rocket]\nthrust = 9000\n")
    assert "rocket" in str(err.value)


def test_parse_duplicate_key_rejected():
    with pytest.raises(ScenarioError):
        parse_scenario(MINIMAL + "\n[scene]\nfps = 30\nfps = 60\n")


def test_parse_missing_required_section():
    with pytest.raises(ScenarioError) as err:
        parse_scenario("[bounds]\nx_min=0\ny_min=0\nx_max=3\ny_max=6\n")
    assert "robot" in str(err.value)


def test_parse_bad_waypoint_shape():
    bad = MINIMAL.replace("0, 0.25, 0.5, 0;", "0, 0.25, 0.5;")
    with pytest.raises(ScenarioError) as err:
        parse_scenario(bad)
    assert "waypoint" in str(err.value)


def test_parse_invalid_geometry_reported():
    text = MINIMAL + "\n[obstacle.1]\ncenter = 1, 1\nhalf_extents = 0, 0.5\ntop_height = 0.7\n"
    with pytest.raises(ScenarioError):
        parse_scenario(text)


def test_parse_human_height_range_enforced():
    text = MINIMAL + "\n[human.1]\nbody_height = 2.4\nwaypoints = 0, 1, 1, 0; 5, 1, 2, 0\n"
    with pytest.raises(ScenarioError):
        parse_scenario(text)


def test_load_scenario_builtin_and_file(tmp_path):
    assert load_scenario("i").name == "I"
    assert load_scenario("T").name == "T"
    path = tmp_path / "scene.ini"
    path.write_text(EXAMPLE_SCENARIO)
    assert load_scenario(str(path)).name == "example"


def test_keys_outside_section_rejected():
    with pytest.raises(ScenarioError) as err:
        parse_scenario("x_min = 0\n")
    assert "line 1" in str(err.value)


@pytest.mark.parametrize(
    "key, value",
    [
        ("x_max", "-3"),
        ("x_max", "nan"),
        ("x_max", "inf"),
        ("fps", "-30"),
        ("fps", "0"),
        ("feature_spacing", "0"),
        ("robot_radius", "-1"),
        ("odom_sigma_trans", "-1"),
    ],
)
def test_unsimulatable_values_rejected_at_parse(key, value):
    if key == "x_max":
        text = EXAMPLE_SCENARIO.replace("x_max = 3\n", f"x_max = {value}\n")
    else:
        text = EXAMPLE_SCENARIO.replace("[scene]\n", f"[scene]\n{key} = {value}\n")
    assert text != EXAMPLE_SCENARIO
    with pytest.raises(ScenarioError) as err:
        parse_scenario(text)
    assert key in str(err.value)


def test_builtin_scenes_pass_the_scene_checks():
    for kind in ("I", "L", "T"):
        assert load_scenario(kind).name == kind


def test_robot_outside_bounds_rejected(tmp_path):
    path = tmp_path / "robot_outside.ini"
    path.write_text(MINIMAL.replace("waypoints = 0, 0.25, 0.5, 0; 10, 0.25, 5.5, 0", "waypoints = 0, 10, 0.5, 0; 10, 10, 5.5, 0"))
    with pytest.raises(ScenarioError) as err:
        load_scenario(str(path))
    assert "robot" in str(err.value)


@pytest.mark.parametrize("name", ["", ".", "..", "../escaped", "runs/I", "a\\b", "a\0b"])
def test_names_that_leave_the_output_directory_rejected(name):
    text = EXAMPLE_SCENARIO.replace("name = example", f"name = {name}")
    assert text != EXAMPLE_SCENARIO
    with pytest.raises(ScenarioError, match="name must be a plain file-name part"):
        parse_scenario(text)


def test_plain_names_with_dots_and_spaces_accepted():
    for name in ("example.v2", "..hidden", "two words"):
        assert parse_scenario(EXAMPLE_SCENARIO.replace("name = example", f"name = {name}")).name == name
