"""The pinhole camera model and per-frame trajectories realized from a camera spec.

:class:`PinholeCamera` is the one camera model of the package:
:meth:`~PinholeCamera.to_camera` is the one world-to-camera mapping,
:func:`to_pixels` the one pixel mapping, and :func:`trajectory_to_json` /
:func:`trajectory_from_json` the one camera serializer.

Conventions:

* world up is +z; the object pivot is wherever the caller says it is
  (usually the origin),
* camera space is x-right, y-down, z-forward; ``rotation`` maps world
  coordinates into camera coordinates (p_cam = R @ (p_world - position)),
* the focal length in pixels is ``focal_mm * height / sensor_height_mm``
  (the sensor height spans the image height); the principal point is the
  image center, so a camera-space point lands at
  ``(width/2 + f * x/z, height/2 + f * y/z)``, the dehomogenized
  ``K @ [R | -R @ position]``; pixel (i, j) covers [i, i+1) x [j, j+1),
* a point with depth z <= 0 is at or behind the camera plane and has no
  image,
* rotational sweep angles are the total degrees over the clip; positive
  Tilt raises the view toward world up, positive Pan turns it left,
  positive Spin orbits counterclockwise seen from above,
* translational sweeps (Truck, Dolly, Pedestal) are centered on the
  configured initial position, i.e. the camera moves from -value/2 to
  +value/2 along the movement axis.  Centering makes trajectories exactly
  time-reversal symmetric: reversing the frames of a sweep equals
  generating the same spec with the movement value negated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import jsondoc
from .scene_config import (
    AnimationKind,
    FocusPosition,
    FocusType,
    MovementType,
    ObjectAnimation,
    SceneConfig,
)

__all__ = [
    "CameraTrajectory",
    "ConfigConflictError",
    "DegenerateLookAtError",
    "PinholeCamera",
    "WORLD_UP",
    "focal_from_coverage",
    "generate_trajectory",
    "look_at",
    "object_center_at",
    "rotation_about_axis",
    "to_pixels",
    "trajectory_from_json",
    "trajectory_to_json",
]

WORLD_UP = np.array([0.0, 0.0, 1.0])

# Upper/Lower focus targets sit this fraction of the bounding radius above
# or below the object center.
_FOCUS_OFFSET_FACTOR = 0.75

DEFAULT_SENSOR_HEIGHT_MM = 24.0

_ORTHO_TOL = 1e-9


class DegenerateLookAtError(ValueError):
    """View direction parallel to the up vector: no unique camera roll."""


class ConfigConflictError(ValueError):
    """Camera settings that contradict each other (e.g. Pan with Follow focus)."""


def to_pixels(cam, focal_px: float, width: int, height: int):
    """Pixel coordinates ``(u, v)`` of camera-space points ``cam`` (..., 3)."""
    x, y, z = cam[..., 0], cam[..., 1], cam[..., 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        return width / 2.0 + focal_px * x / z, height / 2.0 + focal_px * y / z


@dataclass(frozen=True)
class PinholeCamera:
    """One camera pose: world position, world-to-camera rotation, focal length."""

    position: np.ndarray
    rotation: np.ndarray
    focal_mm: float
    sensor_height_mm: float = DEFAULT_SENSOR_HEIGHT_MM

    def __post_init__(self):
        pos = np.asarray(self.position, dtype=float).reshape(3).copy()
        rot = np.asarray(self.rotation, dtype=float).reshape(3, 3).copy()
        err = np.abs(rot.T @ rot - np.eye(3)).max()
        if err > _ORTHO_TOL:
            raise ValueError(f"rotation is not orthonormal (max deviation {err:g})")
        if np.linalg.det(rot) < 0.0:
            raise ValueError("rotation must be proper (det = +1)")
        if not (self.focal_mm > 0.0):
            raise ValueError("focal_mm must be positive")
        if not (self.sensor_height_mm > 0.0):
            raise ValueError("sensor_height_mm must be positive")
        pos.flags.writeable = False
        rot.flags.writeable = False
        object.__setattr__(self, "position", pos)
        object.__setattr__(self, "rotation", rot)

    def focal_px(self, height: int) -> float:
        """Focal length in pixels for an image ``height`` pixels tall."""
        return self.focal_mm * height / self.sensor_height_mm

    def to_camera(self, points) -> np.ndarray:
        """World points (N, 3) in camera space: ``R @ (p - position)`` per point."""
        return (np.asarray(points, dtype=float).reshape(-1, 3) - self.position) @ self.rotation.T

    def project(self, points, width: int, height: int):
        """Project world points into a ``width`` x ``height`` image.

        Returns ``(xy (N, 2), depth (N,), behind (N,) bool)``.  Points at or
        behind the camera plane are flagged and get NaN coordinates.
        """
        cam_space = self.to_camera(points)
        depth = cam_space[:, 2]
        behind = depth <= 0.0
        xy = np.stack(to_pixels(cam_space, self.focal_px(height), width, height), axis=1)
        xy[behind] = np.nan
        return xy, depth, behind

    def projection_matrix(self, width: int, height: int) -> np.ndarray:
        """The 3x4 matrix ``K @ [R | -R @ position]`` of :meth:`project`."""
        focal_px = self.focal_px(height)
        k = np.array([
            [focal_px, 0.0, width / 2.0],
            [0.0, focal_px, height / 2.0],
            [0.0, 0.0, 1.0],
        ])
        rt = np.concatenate([self.rotation, -(self.rotation @ self.position)[:, None]],
                            axis=1)
        return k @ rt

    @property
    def right(self) -> np.ndarray:
        return self.rotation[0]

    @property
    def up(self) -> np.ndarray:
        return -self.rotation[1]

    @property
    def forward(self) -> np.ndarray:
        return self.rotation[2]


@dataclass(frozen=True)
class CameraTrajectory:
    frames: tuple[PinholeCamera, ...]
    focus_history: np.ndarray  # (n_frames, 3) per-frame focus target

    def __post_init__(self):
        hist = np.asarray(self.focus_history, dtype=float).reshape(len(self.frames), 3).copy()
        hist.flags.writeable = False
        object.__setattr__(self, "focus_history", hist)

    def __len__(self):
        return len(self.frames)


def look_at(position, target, up=WORLD_UP) -> np.ndarray:
    """World-to-camera rotation with the forward axis aimed at ``target``.

    Rows of the result are the camera's right, down, and forward axes in
    world coordinates; the matrix is orthonormal with determinant +1.
    Raises :class:`DegenerateLookAtError` when the view direction is
    parallel to ``up`` (camera roll would be arbitrary).
    """
    position = np.asarray(position, dtype=float)
    target = np.asarray(target, dtype=float)
    up = np.asarray(up, dtype=float)

    offset = target - position
    dist = np.linalg.norm(offset)
    if dist == 0.0:
        raise ValueError("camera position and look-at target coincide")
    forward = offset / dist

    right = _cross(forward, up)
    norm = np.linalg.norm(right)
    if norm < 1e-12:
        raise DegenerateLookAtError(
            "view direction is parallel to the up vector; camera roll is undefined")
    right = right / norm
    down = _cross(forward, right)

    return np.stack([right, down, forward])


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.cross`` of two 3-vectors, with the same products and differences in
    the same order (so the same bits), without its call overhead."""
    (ax, ay, az), (bx, by, bz) = a.tolist(), b.tolist()
    return np.array([ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx])


def focal_from_coverage(bounding_radius: float, distance: float, coverage: float,
                        sensor_height_mm: float = DEFAULT_SENSOR_HEIGHT_MM) -> float:
    """Focal length (mm) so the object spans ``coverage`` of the frame height.

    Small-angle pinhole model: the object's projected diameter on the sensor
    is ``focal * 2r / d``, and coverage is that diameter over the sensor
    height, giving ``focal = coverage * (sensor/2) * d / r``.  Monotone
    increasing in both coverage and distance.
    """
    if not (0.0 < coverage <= 1.0):
        raise ValueError("coverage must lie in (0, 1]")
    if not (bounding_radius > 0.0):
        raise ValueError("bounding_radius must be positive")
    if not (distance > bounding_radius):
        raise ValueError("camera distance must exceed the bounding radius")
    return coverage * (sensor_height_mm / 2.0) * distance / bounding_radius


def rotation_about_axis(axis: np.ndarray, angle_rad: float) -> np.ndarray:
    """Rodrigues rotation matrix about a unit axis (right-hand rule)."""
    x, y, z = axis
    c, s = math.cos(angle_rad), math.sin(angle_rad)
    k = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    return np.eye(3) + s * k + (1.0 - c) * (k @ k)


def object_center_at(animation: ObjectAnimation, center: np.ndarray,
                     t_seconds: float) -> np.ndarray:
    """Object center after ``t_seconds`` of the configured animation."""
    center = np.asarray(center, dtype=float)
    if animation.kind is AnimationKind.TRANSLATE:
        return center + np.asarray(animation.velocity, dtype=float) * t_seconds
    return center  # spin rotates in place; none is static


def _focus_point(center: np.ndarray, radius: float, focus_position: FocusPosition) -> np.ndarray:
    offset = {
        FocusPosition.UPPER: _FOCUS_OFFSET_FACTOR * radius,
        FocusPosition.CENTER: 0.0,
        FocusPosition.LOWER: -_FOCUS_OFFSET_FACTOR * radius,
    }[focus_position]
    return center + offset * WORLD_UP


def generate_trajectory(cfg: SceneConfig, object_center, object_radius: float) -> CameraTrajectory:
    """Realize ``cfg.camera`` as ``cfg.n_frames`` pinhole poses.

    Movement laws (value = total sweep, uniform speed):

    * Truck / Dolly / Pedestal: straight-line translation along the frame-0
      right / forward / world-up axis, centered on the initial position.
    * Tilt / Pan: pure rotation of the view direction about the frame-0
      right / up axis; requires Fixed focus.
    * Spin: orbit about the vertical axis through the focus target at
      constant radius (angles reduced modulo 360 degrees, so a full turn
      closes exactly).
    * Following: translation preserving the frame-0 offset from the
      (possibly animated) object center.
    * Zoom: static pose with the focal length interpolated linearly by
      ``movement_value`` millimetres.

    Follow focus re-aims at the per-frame focus target; Fixed focus aims at
    the frame-0 target.
    """
    if cfg.n_frames < 2:
        raise ValueError("n_frames must be >= 2")
    if not (object_radius > 0.0):
        raise ValueError("object_radius must be positive")

    cam = cfg.camera
    n = cfg.n_frames
    center0 = np.asarray(object_center, dtype=float)

    def center_at(k: int) -> np.ndarray:
        return object_center_at(cfg.object_animation, center0, k / cfg.fps)

    target0 = _focus_point(center0, object_radius, cam.focus_position)

    def target_at(k: int) -> np.ndarray:
        if cam.focus_type is FocusType.FOLLOW:
            return _focus_point(center_at(k), object_radius, cam.focus_position)
        return target0

    p0 = np.asarray(cam.initial_position, dtype=float)
    distance = float(np.linalg.norm(p0 - target0))
    if not (distance > object_radius):
        raise ConfigConflictError(
            f"camera.initial_position {tuple(cam.initial_position)} lies {distance:g} from "
            f"the focus target, within the object's bounding radius {object_radius:g}")
    base_rot = look_at(p0, target0)
    base_focal = focal_from_coverage(object_radius, distance, cam.coverage)

    move = cam.movement_type
    value = cam.movement_value

    if move in (MovementType.TILT, MovementType.PAN) and cam.focus_type is FocusType.FOLLOW:
        raise ConfigConflictError(
            f"{move.value} with Follow focus: re-aiming at the focus target "
            "would cancel the rotation; use Fixed focus")

    fractions = [k / (n - 1) for k in range(n)]
    positions: list[np.ndarray] = []
    rotations: list[np.ndarray] = []
    focals: list[float] = [base_focal] * n
    targets: list[np.ndarray] = [target_at(k) for k in range(n)]

    if move in (MovementType.TRUCK, MovementType.DOLLY, MovementType.PEDESTAL):
        axis = {
            MovementType.TRUCK: base_rot[0],
            MovementType.DOLLY: base_rot[2],
            MovementType.PEDESTAL: WORLD_UP,
        }[move]
        for k, s in enumerate(fractions):
            pos = p0 + (s - 0.5) * value * axis
            positions.append(pos)
            rotations.append(look_at(pos, targets[k]))

    elif move in (MovementType.TILT, MovementType.PAN):
        axis = base_rot[0] if move is MovementType.TILT else -base_rot[1]
        for s in fractions:
            theta = math.radians(s * value)
            positions.append(p0)
            # Rows of the rotation are world-frame basis vectors; rotating
            # them about `axis` by theta is base_rot @ R(axis, theta)^T.
            rotations.append(base_rot @ rotation_about_axis(axis, theta).T)

    elif move is MovementType.SPIN:
        offset0 = p0 - target_at(0)
        for k, s in enumerate(fractions):
            theta = math.radians(math.fmod(s * value, 360.0))
            pos = targets[k] + rotation_about_axis(WORLD_UP, theta) @ offset0
            positions.append(pos)
            rotations.append(look_at(pos, targets[k]))

    elif move is MovementType.FOLLOWING:
        offset0 = p0 - center_at(0)
        for k in range(n):
            pos = center_at(k) + offset0
            positions.append(pos)
            rotations.append(look_at(pos, targets[k]))

    elif move is MovementType.ZOOM:
        for k, s in enumerate(fractions):
            positions.append(p0)
            rotations.append(look_at(p0, targets[k]))
            focals[k] = base_focal + s * value

    else:  # pragma: no cover - enum is exhaustive
        raise ValueError(f"unhandled movement type {move!r}")

    frames = tuple(
        PinholeCamera(position=positions[k], rotation=rotations[k], focal_mm=focals[k])
        for k in range(n)
    )
    return CameraTrajectory(frames=frames, focus_history=np.stack(targets))


# ---------------------------------------------------------------------------
# camera JSON


def trajectory_to_json(traj: CameraTrajectory) -> dict:
    """The ``cameras`` and ``focus_history`` records of a trajectory."""
    return {
        "cameras": [
            {
                "rotation": c.rotation.ravel().tolist(),  # row-major
                "position": c.position.tolist(),
                "focal_mm": c.focal_mm,
                "sensor_height_mm": c.sensor_height_mm,
            }
            for c in traj.frames
        ],
        "focus_history": traj.focus_history.tolist(),
    }


def trajectory_from_json(doc: dict, source: str) -> CameraTrajectory:
    """Inverse of :func:`trajectory_to_json`; other keys of ``doc`` are ignored.

    A missing, mistyped or invalid field raises
    :class:`~synthvid.jsondoc.FormatError` naming ``source`` and the field path;
    with several faults, the first in document order.  Keys and numbers are
    checked record by record, and each array field of all the records at once.
    """
    root = jsondoc.Field(doc, source)
    records = root["cameras"].elements()
    # Faults are (record, stage, error), and the least is reported.  A
    # record's stages are the order of its checks: keys 0, position 1,
    # rotation 2, focal_mm 3, sensor_height_mm 4; PinholeCamera checks the
    # values last, as the records before the first fault are built.
    focals, sensors, faults = [], [], []
    for i, rec in enumerate(records):
        stage = 0
        try:
            rec.object(("rotation", "position", "focal_mm", "sensor_height_mm"))
            stage = 3
            focals.append(rec["focal_mm"].number())
            stage = 4
            sensors.append(rec["sensor_height_mm"].number())
        except jsondoc.FormatError as exc:
            faults.append((i, stage, exc))
            break
    read = records[:faults[0][0] + (faults[0][1] > 0)] if faults else records
    arrays = []
    for stage, (key, size) in enumerate((("position", 3), ("rotation", 9)), 1):
        arr, count, error = jsondoc._leading_arrays(read, key, (size,))
        arrays.append(arr.reshape(-1, size))
        if error is not None:
            faults.append((count, stage, error))
    end, _, error = min(faults, key=lambda fault: fault[:2], default=(len(records), 0, None))
    frames = tuple(rec.make(PinholeCamera, position=position, rotation=rotation.reshape(3, 3),
                            focal_mm=focal, sensor_height_mm=sensor)
                   for rec, position, rotation, focal, sensor
                   in zip(records[:end], *arrays, focals, sensors))
    if error is not None:
        raise error
    history = root["focus_history"].array((len(frames), 3))
    return CameraTrajectory(frames=frames, focus_history=history)
