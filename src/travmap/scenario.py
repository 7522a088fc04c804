"""INI-style scenario files and the builtin-or-file loader.

Sections: ``[bounds]`` (required), ``[robot]`` (required), ``[camera]``,
``[scene]``, ``[obstacle.N]`` and ``[human.N]``.  Keys mirror the scene
config fields; unknown sections or keys are rejected with their line number,
as are unparsable or non-finite values.  Waypoint lists are semicolon-separated
``t, x, y, yaw`` quadruples.
"""

from __future__ import annotations

import math
from typing import Optional

from .scenesim import (
    AgentTrajectory,
    CameraIntrinsics,
    ObstacleBox,
    SceneConfig,
    builtin_config,
)

__all__ = ["ScenarioError", "parse_scenario", "load_scenario", "EXAMPLE_SCENARIO"]


class ScenarioError(ValueError):
    """Scenario text did not parse; the message carries a line number."""


_SCENE_KEYS = {
    "fps": float,
    "feature_spacing": float,
    "robot_radius": float,
    "odom_sigma_trans": float,
    "odom_sigma_rot": float,
    "camera_yaw_offset": float,
    "name": str,
}
_BOUNDS_KEYS = {"x_min": float, "y_min": float, "x_max": float, "y_max": float}
_CAMERA_KEYS = {
    "f": float,
    "cx": float,
    "cy": float,
    "image_width": int,
    "image_height": int,
    "cam_height": float,
}
_OBSTACLE_KEYS = {"center": "point", "half_extents": "point", "top_height": float, "yaw": float}
_HUMAN_KEYS = {"body_height": float, "waypoints": "waypoints"}
_ROBOT_KEYS = {"waypoints": "waypoints"}


def _parse_point(raw: str, lineno: int) -> tuple[float, float]:
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) != 2:
        raise ScenarioError(f"line {lineno}: expected 'x, y', got {raw!r}")
    try:
        return (float(parts[0]), float(parts[1]))
    except ValueError:
        raise ScenarioError(f"line {lineno}: bad number in {raw!r}") from None


def _parse_waypoints(raw: str, lineno: int) -> tuple[tuple[float, tuple[float, float, float]], ...]:
    wps = []
    for chunk in raw.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = [p.strip() for p in chunk.split(",")]
        if len(parts) != 4:
            raise ScenarioError(f"line {lineno}: waypoint needs 't, x, y, yaw', got {chunk!r}")
        try:
            t, x, y, yaw = (float(p) for p in parts)
        except ValueError:
            raise ScenarioError(f"line {lineno}: bad number in waypoint {chunk!r}") from None
        wps.append((t, (x, y, yaw)))
    if not wps:
        raise ScenarioError(f"line {lineno}: empty waypoint list")
    return tuple(wps)


def _convert(key: str, value: str, kind, lineno: int):
    if kind is str:
        return value
    if kind == "point":
        parsed = numbers = _parse_point(value, lineno)
    elif kind == "waypoints":
        parsed = _parse_waypoints(value, lineno)
        numbers = [v for t, pose in parsed for v in (t, *pose)]
    else:
        try:
            parsed = kind(value)
        except ValueError:
            raise ScenarioError(f"line {lineno}: expected {kind.__name__}, got {value!r}") from None
        numbers = (parsed,)
    if not all(math.isfinite(v) for v in numbers):
        raise ScenarioError(f"line {lineno}: {key} must be finite, got {value!r}")
    return parsed


def _section_schema(section: str) -> Optional[dict]:
    if section == "scene":
        return _SCENE_KEYS
    if section == "bounds":
        return _BOUNDS_KEYS
    if section == "camera":
        return _CAMERA_KEYS
    if section == "robot":
        return _ROBOT_KEYS
    head = section.split(".", 1)[0]
    if head == "obstacle" and "." in section:
        return _OBSTACLE_KEYS
    if head == "human" and "." in section:
        return _HUMAN_KEYS
    return None


def parse_scenario(text: str) -> SceneConfig:
    """Parse scenario text into a scene config, diagnosing errors by line."""
    sections: dict[str, dict[str, object]] = {}
    lines_of: dict[str, dict[str, int]] = {}
    current: Optional[str] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            if _section_schema(current) is None:
                raise ScenarioError(f"line {lineno}: unknown section [{current}]")
            if current in sections:
                raise ScenarioError(f"line {lineno}: duplicate section [{current}]")
            sections[current] = {}
            lines_of[current] = {}
            continue
        if "=" not in line:
            raise ScenarioError(f"line {lineno}: expected 'key = value', got {line!r}")
        if current is None:
            raise ScenarioError(f"line {lineno}: key outside any section")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        schema = _section_schema(current)
        if key not in schema:
            raise ScenarioError(f"line {lineno}: unknown key {key!r} in section [{current}]")
        if key in sections[current]:
            raise ScenarioError(f"line {lineno}: duplicate key {key!r} in section [{current}]")
        sections[current][key] = _convert(key, value, schema[key], lineno)
        lines_of[current][key] = lineno

    for required in ("bounds", "robot"):
        if required not in sections:
            raise ScenarioError(f"missing required section [{required}]")
    for key in _BOUNDS_KEYS:
        if key not in sections["bounds"]:
            raise ScenarioError(f"section [bounds] is missing key {key!r}")
    if "waypoints" not in sections["robot"]:
        raise ScenarioError("section [robot] is missing key 'waypoints'")

    b = sections["bounds"]
    bounds = (b["x_min"], b["y_min"], b["x_max"], b["y_max"])

    try:
        # [camera] keys are CameraIntrinsics' field names; the dataclass supplies the defaults.
        intrinsics = CameraIntrinsics(**sections.get("camera", {}))
    except ValueError as exc:
        raise ScenarioError(f"bad camera parameters: {exc}") from None

    obstacles = []
    for section in sorted(s for s in sections if s.startswith("obstacle.")):
        vals = sections[section]
        for key in ("center", "half_extents", "top_height"):
            if key not in vals:
                raise ScenarioError(f"section [{section}] is missing key {key!r}")
        try:
            obstacles.append(
                ObstacleBox(vals["center"], vals["half_extents"], vals["top_height"], vals.get("yaw", 0.0))
            )
        except ValueError as exc:
            raise ScenarioError(f"bad obstacle in [{section}]: {exc}") from None

    humans = []
    for section in sorted(s for s in sections if s.startswith("human.")):
        vals = sections[section]
        for key in ("body_height", "waypoints"):
            if key not in vals:
                raise ScenarioError(f"section [{section}] is missing key {key!r}")
        try:
            humans.append(AgentTrajectory("human", vals["waypoints"], body_height=vals["body_height"]))
        except ValueError as exc:
            raise ScenarioError(f"bad trajectory in [{section}]: {exc}") from None

    try:
        robot = AgentTrajectory("robot", sections["robot"]["waypoints"])
    except ValueError as exc:
        raise ScenarioError(f"bad trajectory in [robot]: {exc}") from None

    try:
        # [scene] keys are SceneConfig's field names; the dataclass supplies the defaults.
        return SceneConfig(
            bounds=bounds,
            obstacles=obstacles,
            humans=humans,
            robot=robot,
            intrinsics=intrinsics,
            **sections.get("scene", {}),
        )
    except ValueError as exc:
        raise ScenarioError(f"invalid scene: {exc}") from None


def load_scenario(source: str) -> SceneConfig:
    """Builtin kind ('I', 'L', 'T') or a path to a scenario file."""
    if source.upper() in ("I", "L", "T"):
        return builtin_config(source)
    with open(source, "r", encoding="utf-8") as fh:
        return parse_scenario(fh.read())


EXAMPLE_SCENARIO = """\
# Minimal scene: one table, one walker, a short straight robot pass.
# camera_yaw_offset 0 makes the waypoint yaw the camera direction itself,
# so the camera looks east (+x) while the robot slides north.
[bounds]
x_min = 0
y_min = 0
x_max = 3
y_max = 6

[scene]
name = example
camera_yaw_offset = 0

# The tall frame of the builtin scenes: with the default 640x480 frame
# (f 500, cy 240) the walker's head, about 1.45 m away, is above the image
# top in every frame, so it is never detected.
[camera]
f = 400
cy = 360
image_height = 720

[obstacle.1]
center = 0.8, 3.0
half_extents = 0.3, 1.25
top_height = 0.7

[human.1]
body_height = 1.7
waypoints = 0, 1.7, 0.5, 1.5707963267948966; 10, 1.7, 5.5, 1.5707963267948966

[robot]
waypoints = 0, 0.25, 0.5, 0; 12, 0.25, 5.5, 0
"""
