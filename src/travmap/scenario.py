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


#: Each section's keys and their kinds, by ``_kind``: ``obstacle.`` covers every ``[obstacle.N]``.
_SCHEMAS = {
    "scene": {
        "fps": float,
        "feature_spacing": float,
        "robot_radius": float,
        "odom_sigma_trans": float,
        "odom_sigma_rot": float,
        "camera_yaw_offset": float,
        "name": str,
    },
    "bounds": {"x_min": float, "y_min": float, "x_max": float, "y_max": float},
    "camera": {
        "f": float,
        "cx": float,
        "cy": float,
        "image_width": int,
        "image_height": int,
        "cam_height": float,
    },
    "robot": {"waypoints": "waypoints"},
    "obstacle.": {"center": "point", "half_extents": "point", "top_height": float, "yaw": float},
    "human.": {"body_height": float, "waypoints": "waypoints"},
}
#: The keys a section must set, by ``_kind``, checked in this order.
_REQUIRED_KEYS = {
    "bounds": ("x_min", "y_min", "x_max", "y_max"),
    "robot": ("waypoints",),
    "obstacle.": ("center", "half_extents", "top_height"),
    "human.": ("body_height", "waypoints"),
}


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


def _kind(section: str) -> str:
    """The section's key in ``_SCHEMAS``: its name, or ``obstacle.`` / ``human.`` for a numbered one."""
    head, dot, _ = section.partition(".")
    return head + dot


def _required(section: str, values: dict) -> dict:
    """``values``, once they hold every key ``_REQUIRED_KEYS`` names for the section."""
    for key in _REQUIRED_KEYS.get(_kind(section), ()):
        if key not in values:
            raise ScenarioError(f"section [{section}] is missing key {key!r}")
    return values


def _build(what: str, make, /, **fields):
    """``make(**fields)``, its ValueError raised again as a ScenarioError that starts with ``what``."""
    try:
        return make(**fields)
    except ValueError as exc:
        raise ScenarioError(f"{what}: {exc}") from None


def parse_scenario(text: str) -> SceneConfig:
    """Parse scenario text into a scene config, diagnosing errors by line."""
    sections: dict[str, dict[str, object]] = {}
    current: Optional[str] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            if _kind(current) not in _SCHEMAS:
                raise ScenarioError(f"line {lineno}: unknown section [{current}]")
            if current in sections:
                raise ScenarioError(f"line {lineno}: duplicate section [{current}]")
            sections[current] = {}
            continue
        if "=" not in line:
            raise ScenarioError(f"line {lineno}: expected 'key = value', got {line!r}")
        if current is None:
            raise ScenarioError(f"line {lineno}: key outside any section")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        schema = _SCHEMAS[_kind(current)]
        if key not in schema:
            raise ScenarioError(f"line {lineno}: unknown key {key!r} in section [{current}]")
        if key in sections[current]:
            raise ScenarioError(f"line {lineno}: duplicate key {key!r} in section [{current}]")
        sections[current][key] = _convert(key, value, schema[key], lineno)

    for required in ("bounds", "robot"):
        if required not in sections:
            raise ScenarioError(f"missing required section [{required}]")
    b = _required("bounds", sections["bounds"])
    _required("robot", sections["robot"])

    # Past [bounds], a section's keys are its dataclass's field names; the dataclass supplies the defaults.
    intrinsics = _build("bad camera parameters", CameraIntrinsics, **sections.get("camera", {}))
    obstacles = [
        _build(f"bad obstacle in [{s}]", ObstacleBox, **_required(s, sections[s]))
        for s in sorted(sections) if s.startswith("obstacle.")
    ]
    humans = [
        _build(f"bad trajectory in [{s}]", AgentTrajectory, role="human", **_required(s, sections[s]))
        for s in sorted(sections) if s.startswith("human.")
    ]
    robot = _build("bad trajectory in [robot]", AgentTrajectory, role="robot", **sections["robot"])
    return _build(
        "invalid scene",
        SceneConfig,
        bounds=(b["x_min"], b["y_min"], b["x_max"], b["y_max"]),
        obstacles=obstacles,
        humans=humans,
        robot=robot,
        intrinsics=intrinsics,
        **sections.get("scene", {}),
    )


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
