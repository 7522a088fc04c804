"""Multi-human tracking over simulated detections.

Gated greedy nearest-neighbor association on bounding-box centers, unique
track ids that are never reused, a tentative/confirmed/dead lifecycle, and
the turning-frame filter that keeps fast camera rotations out of the
evidence stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Sequence

from .scenesim import FrameObservation

__all__ = [
    "TrackState",
    "TrackPoint",
    "HumanTrack",
    "step",
    "prune",
    "filter_turning_frames",
]

CONFIRM_HITS = 3
DEFAULT_GATE_PX = 80.0
DEFAULT_MAX_MISSED = 15  # 0.5 s at 30 fps
DEFAULT_OMEGA_MAX = 0.3  # rad/s


class TrackState(Enum):
    TENTATIVE = "tentative"
    CONFIRMED = "confirmed"
    DEAD = "dead"


@dataclass(frozen=True)
class TrackPoint:
    """One detection in one frame: box plus optional range and floor position estimates."""

    frame_index: int
    bbox: tuple[float, float, float, float]  # x_min, x_max, y_min, y_max
    depth: Optional[float] = None
    world: Optional[tuple[float, float]] = None


@dataclass
class HumanTrack:
    track_id: int
    history: list[TrackPoint] = field(default_factory=list)
    missed_count: int = 0
    state: TrackState = TrackState.TENTATIVE
    consecutive_hits: int = 0

    @property
    def last(self) -> TrackPoint:
        return self.history[-1]

    def matched_at(self, frame_index: int) -> bool:
        return bool(self.history) and self.history[-1].frame_index == frame_index


def _center(bbox: tuple[float, float, float, float]) -> tuple[float, float]:
    return (0.5 * (bbox[0] + bbox[1]), 0.5 * (bbox[2] + bbox[3]))


def _center_distance(a: tuple[float, float], b: tuple[float, float]) -> float:
    return ((a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2) ** 0.5


def step(
    tracks: list[HumanTrack], points: Sequence[TrackPoint], gate: float = DEFAULT_GATE_PX
) -> list[tuple[int, HumanTrack]]:
    """One association round over one frame's ``points``; mutates ``tracks`` in place.

    Greedy nearest-neighbor on bbox centers, closest pair first, pairs beyond
    ``gate`` pixels left unmatched.  Each matched point is appended to its
    track's history as is; unmatched points spawn tentative tracks with fresh
    ids (max existing + 1); dead tracks are never rematched.  Returns the
    ``(index in points, track)`` pairs it matched, in ``tracks`` order; a
    spawned track is not one of them.
    """
    if not gate > 0:  # NaN fails too
        raise ValueError("gate must be positive")
    alive = [t for t in tracks if t.state is not TrackState.DEAD]
    pairs = []
    for t_idx, track in enumerate(alive):
        predicted = _center(track.last.bbox)
        for d_idx, point in enumerate(points):
            dist = _center_distance(predicted, _center(point.bbox))
            if dist <= gate:
                pairs.append((dist, track.track_id, d_idx, t_idx))
    pairs.sort()
    match: dict[int, int] = {}  # alive track -> its point
    used_dets: set[int] = set()
    for dist, _tid, d_idx, t_idx in pairs:
        if t_idx in match or d_idx in used_dets:
            continue
        match[t_idx] = d_idx
        used_dets.add(d_idx)
        track = alive[t_idx]
        track.history.append(points[d_idx])
        track.missed_count = 0
        track.consecutive_hits += 1
        if track.state is TrackState.TENTATIVE and track.consecutive_hits >= CONFIRM_HITS:
            track.state = TrackState.CONFIRMED
    matched = []
    for t_idx, track in enumerate(alive):
        if t_idx in match:
            matched.append((match[t_idx], track))
        else:
            track.missed_count += 1
            track.consecutive_hits = 0
    next_id = max((t.track_id for t in tracks), default=-1) + 1
    for d_idx, point in enumerate(points):
        if d_idx in used_dets:
            continue
        track = HumanTrack(next_id, [point], 0, TrackState.TENTATIVE, 1)
        next_id += 1
        tracks.append(track)
    return matched


def prune(tracks: list[HumanTrack], max_missed: int = DEFAULT_MAX_MISSED) -> list[HumanTrack]:
    """Kill tracks missed for more than ``max_missed`` frames; dead tracks stay listed."""
    if not max_missed >= 1:  # NaN fails too
        raise ValueError("max_missed must be >= 1")
    for track in tracks:
        if track.state is not TrackState.DEAD and track.missed_count > max_missed:
            track.state = TrackState.DEAD
    return tracks


def filter_turning_frames(frames: Sequence[FrameObservation], omega_max: float = DEFAULT_OMEGA_MAX) -> list[bool]:
    """Mask of frames steady enough for evidence (|angular speed| <= omega_max)."""
    if not omega_max > 0:
        raise ValueError("omega_max must be positive")
    return [abs(f.angular_speed) <= omega_max for f in frames]
