"""Typed scene parameters for the procedural video pipeline.

A :class:`SceneConfig` bundles everything needed to realize one clip: the
object and its animation, the camera setup, the lights, the environment,
and the render settings.  Configs are immutable, compare field-for-field,
and serialize to a strict JSON dialect (``"schema": 1``, unknown keys
rejected); a malformed document raises
:class:`~synthvid.jsondoc.FormatError` naming the file and field.
:func:`validate_config` reports every violated invariant instead of
raising, so callers can surface all problems at once.

Conventions baked into the pipeline:

* world up is +z,
* the object pivot sits at the world origin (so a camera placed at the
  origin is degenerate),
* color components live in [0, 1].
"""

from __future__ import annotations

import enum
import math
from dataclasses import asdict, dataclass

from . import jsondoc

__all__ = [
    "AnimationKind",
    "CameraSpec",
    "EngineTarget",
    "EnvSpec",
    "FocusPosition",
    "FocusType",
    "Light",
    "LightingSpec",
    "MovementType",
    "ObjectAnimation",
    "RenderQuality",
    "RenderSpec",
    "SceneConfig",
    "SceneType",
    "ValidationReport",
    "Violation",
    "decode_config",
    "encode_config",
    "kelvin_to_rgb",
    "validate_config",
]

Vec3 = tuple[float, float, float]
Vec4 = tuple[float, float, float, float]


class FocusType(str, enum.Enum):
    FOLLOW = "Follow"
    FIXED = "Fixed"


class FocusPosition(str, enum.Enum):
    UPPER = "Upper"
    CENTER = "Center"
    LOWER = "Lower"


class MovementType(str, enum.Enum):
    TRUCK = "Truck"
    DOLLY = "Dolly"
    PEDESTAL = "Pedestal"
    TILT = "Tilt"
    PAN = "Pan"
    SPIN = "Spin"
    FOLLOWING = "Following"
    ZOOM = "Zoom"


class SceneType(str, enum.Enum):
    BASIC = "Basic"
    EMPTY = "Empty"


class RenderQuality(str, enum.Enum):
    HIGH = "High"
    LOW = "Low"


class EngineTarget(str, enum.Enum):
    INTERNAL = "Internal"
    BLENDER_SCRIPT = "BlenderScript"


class AnimationKind(str, enum.Enum):
    NONE = "none"
    SPIN = "spin"
    TRANSLATE = "translate"


@dataclass(frozen=True)
class ObjectAnimation:
    """Object motion over the clip.

    ``rate_deg_per_s`` only applies to ``spin`` (rotation about the vertical
    axis through the object center); ``velocity`` (world units per second)
    only applies to ``translate``.  Unused payload is canonicalized to zero
    so equality and serialization stay unambiguous.
    """

    kind: AnimationKind
    rate_deg_per_s: float = 0.0
    velocity: Vec3 = (0.0, 0.0, 0.0)

    def __post_init__(self):
        if self.kind is not AnimationKind.SPIN:
            object.__setattr__(self, "rate_deg_per_s", 0.0)
        if self.kind is not AnimationKind.TRANSLATE:
            object.__setattr__(self, "velocity", (0.0, 0.0, 0.0))

    @classmethod
    def none(cls) -> "ObjectAnimation":
        return cls(AnimationKind.NONE)

    @classmethod
    def spin(cls, rate_deg_per_s: float) -> "ObjectAnimation":
        return cls(AnimationKind.SPIN, rate_deg_per_s=rate_deg_per_s)

    @classmethod
    def translate(cls, velocity: Vec3) -> "ObjectAnimation":
        return cls(AnimationKind.TRANSLATE, velocity=tuple(velocity))


@dataclass(frozen=True)
class CameraSpec:
    """Camera setup for one clip.

    ``movement_value`` units depend on ``movement_type``: degrees for the
    rotational types (Tilt, Pan, Spin), world units for the translational
    types (Truck, Dolly, Pedestal, Following), and focal-length millimetres
    for Zoom.  The value is the total sweep over the clip.  ``coverage`` is
    the fraction of the frame height the object should span at the initial
    pose.
    """

    focus_type: FocusType
    focus_position: FocusPosition
    movement_type: MovementType
    movement_value: float
    initial_position: Vec3
    coverage: float


@dataclass(frozen=True)
class Light:
    position: Vec3
    color_temp: float  # Kelvin, [1000, 12000]
    intensity: float


@dataclass(frozen=True)
class LightingSpec:
    lights: tuple[Light, ...] = ()
    ambient_intensity: float = 0.0


@dataclass(frozen=True)
class EnvSpec:
    """Environment variant.

    ``Basic`` is an enclosing solid-color room (``scene_color`` required);
    ``Empty`` is a bare backdrop (``background_color`` RGBA required).  The
    alpha channel is recorded for downstream compositing but this pipeline
    renders over an opaque background.
    """

    scene_type: SceneType
    scene_color: Vec3 | None = None
    background_color: Vec4 | None = None


@dataclass(frozen=True)
class RenderSpec:
    width: int
    height: int
    quality: RenderQuality = RenderQuality.HIGH
    engine_target: EngineTarget = EngineTarget.INTERNAL


MAX_PIXELS = 4_000_000  # width * height guard for desk-scale rendering


@dataclass(frozen=True)
class SceneConfig:
    object_ref: str
    object_animation: ObjectAnimation
    camera: CameraSpec
    lighting: LightingSpec
    environment: EnvSpec
    render: RenderSpec
    seed: int
    n_frames: int
    fps: int


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class Violation:
    path: str
    message: str

    def __str__(self):
        return f"{self.path}: {self.message}"


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def paths(self) -> tuple[str, ...]:
        return tuple(v.path for v in self.violations)

    def __str__(self):
        if self.ok:
            return "ok"
        return "\n".join(str(v) for v in self.violations)


def _is_real(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _is_vec(x, n: int) -> bool:
    return (
        isinstance(x, tuple)
        and len(x) == n
        and all(_is_real(c) for c in x)
    )


def _color_ok(x, n: int) -> bool:
    return _is_vec(x, n) and all(0.0 <= c <= 1.0 for c in x)


def validate_config(cfg: SceneConfig) -> ValidationReport:
    """Check every invariant of ``cfg`` and report all violations.

    Validation is total: it never raises, even for configs holding values of
    the wrong type (each check degrades to a type violation instead).
    """
    out: list[Violation] = []

    def bad(path, message):
        out.append(Violation(path, message))

    def check(path, fn, message):
        try:
            ok = fn()
        except Exception:
            ok = False
        if not ok:
            bad(path, message)

    check("object_ref", lambda: isinstance(cfg.object_ref, str) and cfg.object_ref != "",
          "must be a nonempty mesh identifier")

    anim = cfg.object_animation
    check("object_animation.kind", lambda: isinstance(anim.kind, AnimationKind),
          "must be one of " + ", ".join(k.value for k in AnimationKind))
    check("object_animation.rate_deg_per_s", lambda: _is_real(anim.rate_deg_per_s),
          "must be a finite number")
    check("object_animation.velocity", lambda: _is_vec(anim.velocity, 3),
          "must be a finite 3-vector")

    cam = cfg.camera
    check("camera.focus_type", lambda: isinstance(cam.focus_type, FocusType),
          "must be Follow or Fixed")
    check("camera.focus_position", lambda: isinstance(cam.focus_position, FocusPosition),
          "must be Upper, Center or Lower")
    check("camera.movement_type", lambda: isinstance(cam.movement_type, MovementType),
          "must be one of " + ", ".join(m.value for m in MovementType))
    check("camera.movement_value", lambda: _is_real(cam.movement_value),
          "must be a finite number")
    check("camera.initial_position", lambda: _is_vec(cam.initial_position, 3),
          "must be a finite 3-vector")
    # The object pivot sits at the origin by pipeline convention, so a camera
    # there has no view direction.
    check("camera.initial_position",
          lambda: math.hypot(*cam.initial_position) > 0.0,
          "must not coincide with the object position (world origin)")
    check("camera.coverage", lambda: _is_real(cam.coverage) and 0.0 < cam.coverage <= 1.0,
          "must lie in (0, 1]")

    lit = cfg.lighting
    check("lighting.lights", lambda: isinstance(lit.lights, tuple) and len(lit.lights) <= 2,
          "at most two lights are supported")
    try:
        lights = tuple(lit.lights)
    except Exception:
        lights = ()
    for i, light in enumerate(lights):
        check(f"lighting.lights[{i}].position", lambda l=light: _is_vec(l.position, 3),
              "must be a finite 3-vector")
        check(f"lighting.lights[{i}].color_temp",
              lambda l=light: _is_real(l.color_temp) and 1000.0 <= l.color_temp <= 12000.0,
              "must lie in [1000, 12000] Kelvin")
        check(f"lighting.lights[{i}].intensity",
              lambda l=light: _is_real(l.intensity) and l.intensity >= 0.0,
              "must be a nonnegative number")
    check("lighting.ambient_intensity",
          lambda: _is_real(lit.ambient_intensity) and lit.ambient_intensity >= 0.0,
          "must be a nonnegative number")
    check("lighting", lambda: len(lit.lights) > 0 or lit.ambient_intensity > 0.0,
          "scene needs at least one light or a positive ambient intensity")

    env = cfg.environment
    check("environment.scene_type", lambda: isinstance(env.scene_type, SceneType),
          "must be Basic or Empty")
    if isinstance(env.scene_type, SceneType):
        if env.scene_type is SceneType.BASIC:
            check("environment.scene_color", lambda: _color_ok(env.scene_color, 3),
                  "Basic scenes require an RGB scene_color in [0, 1]")
            check("environment.background_color", lambda: env.background_color is None,
                  "background_color is only valid for Empty scenes")
        else:
            check("environment.background_color", lambda: _color_ok(env.background_color, 4),
                  "Empty scenes require an RGBA background_color in [0, 1]")
            check("environment.scene_color", lambda: env.scene_color is None,
                  "scene_color is only valid for Basic scenes")

    ren = cfg.render
    check("render.width", lambda: isinstance(ren.width, int) and not isinstance(ren.width, bool)
          and ren.width >= 1, "must be a positive integer")
    check("render.height", lambda: isinstance(ren.height, int) and not isinstance(ren.height, bool)
          and ren.height >= 1, "must be a positive integer")
    check("render", lambda: ren.width * ren.height <= MAX_PIXELS,
          f"width*height must not exceed {MAX_PIXELS}")
    check("render.quality", lambda: isinstance(ren.quality, RenderQuality),
          "must be High or Low")
    check("render.engine_target", lambda: isinstance(ren.engine_target, EngineTarget),
          "must be Internal or BlenderScript")

    check("seed", lambda: isinstance(cfg.seed, int) and not isinstance(cfg.seed, bool)
          and 0 <= cfg.seed < 2 ** 64, "must be a 64-bit unsigned integer")
    check("n_frames", lambda: isinstance(cfg.n_frames, int) and not isinstance(cfg.n_frames, bool)
          and cfg.n_frames >= 2, "must be an integer >= 2")
    check("fps", lambda: isinstance(cfg.fps, int) and not isinstance(cfg.fps, bool)
          and 1 <= cfg.fps <= 120, "must be an integer in [1, 120]")

    return ValidationReport(tuple(out))


# ---------------------------------------------------------------------------
# color temperature

# Piecewise Kelvin -> RGB approximation (Tanner Helland's fit to black-body
# radiator data).  Input clamped to [1000, 40000] K; constants below are the
# published fit coefficients over temperature/100.
_KELVIN_RED_A = 329.698727446
_KELVIN_RED_P = -0.1332047592
_KELVIN_GREEN_LOG_A = 99.4708025861
_KELVIN_GREEN_LOG_B = -161.1195681661
_KELVIN_GREEN_A = 288.1221695283
_KELVIN_GREEN_P = -0.0755148492
_KELVIN_BLUE_LOG_A = 138.5177312231
_KELVIN_BLUE_LOG_B = -305.0447927307


def kelvin_to_rgb(kelvin: float) -> Vec3:
    """Approximate the RGB tint of a black-body light source, in [0, 1]^3."""
    t = min(max(kelvin, 1000.0), 40000.0) / 100.0

    if t <= 66.0:
        red = 255.0
    else:
        red = _KELVIN_RED_A * (t - 60.0) ** _KELVIN_RED_P

    if t <= 66.0:
        green = _KELVIN_GREEN_LOG_A * math.log(t) + _KELVIN_GREEN_LOG_B
    else:
        green = _KELVIN_GREEN_A * (t - 60.0) ** _KELVIN_GREEN_P

    if t >= 66.0:
        blue = 255.0
    elif t <= 19.0:
        blue = 0.0
    else:
        blue = _KELVIN_BLUE_LOG_A * math.log(t - 10.0) + _KELVIN_BLUE_LOG_B

    clamp = lambda x: min(max(x / 255.0, 0.0), 1.0)
    return (clamp(red), clamp(green), clamp(blue))


# ---------------------------------------------------------------------------
# strict JSON encode/decode


def encode_config(cfg: SceneConfig) -> str:
    """Serialize ``cfg`` as schema-1 JSON text.

    The document holds the dataclass fields in declaration order, leaving
    out the environment color that is ``None``.
    ``decode_config(encode_config(cfg)) == cfg`` holds field-for-field for
    any config built from finite floats (JSON float formatting round-trips
    exactly).
    """
    doc = {"schema": jsondoc.SCHEMA_VERSION, **asdict(cfg)}
    doc["environment"] = {k: v for k, v in doc["environment"].items() if v is not None}
    return jsondoc.dumps(doc)


def decode_config(text: str | bytes, source: str = "config") -> SceneConfig:
    """Parse schema-1 config JSON read from ``source``.

    Malformed JSON and structurally invalid documents raise
    :class:`~synthvid.jsondoc.FormatError` naming ``source`` and the
    offending field (or, for a syntax error, its line and column).  Decoding
    is intentionally independent of :func:`validate_config`: a decodable
    config may still fail validation.
    """
    doc = jsondoc.loads(text, source).object((
        "schema", "object_ref", "object_animation", "camera", "lighting",
        "environment", "render", "seed", "n_frames", "fps",
    )).schema()

    anim = doc["object_animation"].object(("kind",), ("rate_deg_per_s", "velocity"))
    animation = ObjectAnimation(
        kind=anim["kind"].enum(AnimationKind),
        rate_deg_per_s=anim.get("rate_deg_per_s", 0.0).number(),
        velocity=anim.get("velocity", [0.0, 0.0, 0.0]).vector(3),
    )

    cam = doc["camera"].object((
        "focus_type", "focus_position", "movement_type", "movement_value",
        "initial_position", "coverage",
    ))
    camera = CameraSpec(
        focus_type=cam["focus_type"].enum(FocusType),
        focus_position=cam["focus_position"].enum(FocusPosition),
        movement_type=cam["movement_type"].enum(MovementType),
        movement_value=cam["movement_value"].number(),
        initial_position=cam["initial_position"].vector(3),
        coverage=cam["coverage"].number(),
    )

    lit = doc["lighting"].object(("lights", "ambient_intensity"))
    lights = []
    for entry in lit["lights"].elements():
        entry.object(("position", "color_temp", "intensity"))
        lights.append(Light(
            position=entry["position"].vector(3),
            color_temp=entry["color_temp"].number(),
            intensity=entry["intensity"].number(),
        ))
    lighting = LightingSpec(lights=tuple(lights),
                            ambient_intensity=lit["ambient_intensity"].number())

    env = doc["environment"].object(("scene_type",), ("scene_color", "background_color"))
    environment = EnvSpec(
        scene_type=env["scene_type"].enum(SceneType),
        scene_color=env["scene_color"].vector(3) if "scene_color" in env else None,
        background_color=(env["background_color"].vector(4) if "background_color" in env
                          else None),
    )

    ren = doc["render"].object(("width", "height", "quality", "engine_target"))
    render = RenderSpec(
        width=ren["width"].integer(),
        height=ren["height"].integer(),
        quality=ren["quality"].enum(RenderQuality),
        engine_target=ren["engine_target"].enum(EngineTarget),
    )

    return SceneConfig(
        object_ref=doc["object_ref"].string(),
        object_animation=animation,
        camera=camera,
        lighting=lighting,
        environment=environment,
        render=render,
        seed=doc["seed"].integer(),
        n_frames=doc["n_frames"].integer(),
        fps=doc["fps"].integer(),
    )
