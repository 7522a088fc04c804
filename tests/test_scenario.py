import pytest

from travmap.scenario import EXAMPLE_SCENARIO, ScenarioError, load_scenario, parse_scenario
from travmap.scenesim import builtin_config

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


def test_camera_defaults_are_the_builtin_frame():
    assert parse_scenario(MINIMAL).intrinsics == builtin_config("I").intrinsics


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


@pytest.mark.parametrize(
    "old, new, key",
    [
        pytest.param("center = 0.8, 3.0", "center = nan, 3.0", "center", id="center-nan"),
        pytest.param("top_height = 0.7", "top_height = nan", "top_height", id="top_height-nan"),
        pytest.param("[obstacle.1]\n", "[camera]\ncam_height = nan\n[obstacle.1]\n", "cam_height", id="cam_height-nan"),
        pytest.param("[obstacle.1]\n", "[camera]\nf = nan\n[obstacle.1]\n", "f", id="f-nan"),
        pytest.param("waypoints = 0, 1.7, 0.5,", "waypoints = 0, 1.7, nan,", "waypoints", id="human-waypoint-nan"),
        pytest.param("half_extents = 0.3, 1.25", "half_extents = 0.3, inf", "half_extents", id="half_extents-inf"),
    ],
)
def test_non_finite_numbers_rejected_with_their_line(old, new, key):
    text = EXAMPLE_SCENARIO.replace(old, new)
    assert text != EXAMPLE_SCENARIO
    lineno = next(n for n, line in enumerate(text.splitlines(), start=1) if line.startswith(f"{key} = "))
    with pytest.raises(ScenarioError, match=f"line {lineno}: {key} must be finite"):
        parse_scenario(text)


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


@pytest.mark.parametrize("name", ["a,b", 'a"b'])
def test_names_that_split_a_report_row_rejected(name):
    text = EXAMPLE_SCENARIO.replace("name = example", f"name = {name}")
    with pytest.raises(ScenarioError, match="name must not hold ',', '\"', CR or LF"):
        parse_scenario(text)


def test_plain_names_with_dots_and_spaces_accepted():
    for name in ("example.v2", "..hidden", "two words"):
        assert parse_scenario(EXAMPLE_SCENARIO.replace("name = example", f"name = {name}")).name == name


@pytest.mark.parametrize(
    "old, new, message",
    [
        pytest.param("y_max = 6\n", "", "section [bounds] is missing key 'y_max'", id="bounds"),
        pytest.param("waypoints = 0, 0.25,", "# waypoints = 0, 0.25,", "section [robot] is missing key 'waypoints'", id="robot"),
        pytest.param("top_height = 0.7\n", "", "section [obstacle.1] is missing key 'top_height'", id="obstacle"),
        pytest.param("body_height = 1.7\n", "", "section [human.1] is missing key 'body_height'", id="human"),
    ],
)
def test_missing_required_key_message(old, new, message):
    text = EXAMPLE_SCENARIO.replace(old, new)
    assert text != EXAMPLE_SCENARIO
    with pytest.raises(ScenarioError) as err:
        parse_scenario(text)
    assert str(err.value) == message


def test_camera_checked_before_obstacles():
    # Two faults: the camera's is reported, as the checks run section kind by section kind.
    text = EXAMPLE_SCENARIO.replace("[obstacle.1]\n", "[camera]\nf = -1\n[obstacle.1]\n").replace("center = 0.8, 3.0\n", "")
    with pytest.raises(ScenarioError) as err:
        parse_scenario(text)
    assert str(err.value) == "bad camera parameters: f must be finite and > 0.0, got -1.0"


def _obstacle(n, x):
    return f"\n[obstacle.{n}]\ncenter = {x}, 3.0\nhalf_extents = 0.1, 0.1\ntop_height = 0.7\n"


def test_numbered_sections_taken_in_number_order():
    text = MINIMAL + _obstacle(10, 2.5) + _obstacle(2, 1.5) + _obstacle(1, 0.5)
    assert [o.center[0] for o in parse_scenario(text).obstacles] == [0.5, 1.5, 2.5]


def test_numbered_section_written_twice_rejected():
    text = MINIMAL + _obstacle(1, 0.5) + _obstacle("01", 1.5)
    lineno = text.splitlines().index("[obstacle.01]") + 1
    with pytest.raises(ScenarioError, match=rf"line {lineno}: duplicate section \[obstacle.1\]"):
        parse_scenario(text)


@pytest.mark.parametrize("header", ["[obstacle.]", "[obstacle.x]", "[obstacle.-1]", "[human. 2]", "[human.\N{SUPERSCRIPT TWO}]"])
def test_section_numbers_must_be_ascii_digits(header):
    text = MINIMAL + f"\n{header}\nbody_height = 1.7\n"
    lineno = text.splitlines().index(header) + 1
    with pytest.raises(ScenarioError, match=rf"line {lineno}: section .* must be numbered"):
        parse_scenario(text)
