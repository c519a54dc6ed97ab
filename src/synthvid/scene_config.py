"""Typed scene parameters for the procedural video pipeline.

A :class:`SceneConfig` bundles everything needed to realize one clip: the
object and its animation, the camera setup, the lights, the environment,
and the render settings.  Configs are immutable, compare field-for-field,
and serialize to a strict JSON dialect (``"schema": 1``, unknown keys
rejected); a malformed document raises
:class:`~synthvid.jsondoc.FormatError` naming the file and field.
:func:`validate_config` reports every violated invariant instead of
raising, so callers can surface all problems at once.

:data:`FIELDS` is the one field table: for each field a preset draws, it
gives the value type, the legal-value test and the message a violation
reports; a vector has one entry per axis (:func:`vector_axes`).  With the
config dataclasses, whose fields are each record's members, it is the only
description of a config's leaves: :func:`decode_config` reads each field
through :func:`read_field`, :func:`validate_config` tests each against its
rule, and :mod:`~synthvid.param_sampler` draws each and checks every preset
value through the same two.

Conventions baked into the pipeline:

* world up is +z,
* the object pivot sits at the world origin (so a camera placed at the
  origin is degenerate),
* color components live in [0, 1].
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import asdict, dataclass, fields
from typing import Callable, NamedTuple

from . import jsondoc

__all__ = [
    "AnimationKind",
    "CameraSpec",
    "EngineTarget",
    "EnvSpec",
    "FIELDS",
    "FieldRule",
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
    "read_field",
    "validate_config",
    "vector_axes",
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

    def __str__(self):
        if self.ok:
            return "ok"
        return "\n".join(str(v) for v in self.violations)


class FieldRule(NamedTuple):
    """What one preset field may hold: a value of ``kind`` that passes ``legal``.

    ``kind`` is ``float`` (any finite number), ``int``, ``str`` or an enum;
    ``legal`` is ``None`` when every value of ``kind`` is legal.  ``message``
    is what :func:`validate_config` reports when a value fails.
    """

    kind: type
    legal: Callable[[object], bool] | None
    message: str

    def holds(self, value) -> bool:
        kind, legal, _ = self
        if kind is float:
            typed = (isinstance(value, (int, float)) and not isinstance(value, bool)
                     and math.isfinite(value))
        elif kind is int:
            typed = isinstance(value, int) and not isinstance(value, bool)
        else:
            typed = isinstance(value, kind)
        return typed and (legal is None or legal(value))


_FINITE = FieldRule(float, None, "must be a finite number")
_INTENSITY = FieldRule(float, lambda x: x >= 0.0, "must be a nonnegative number")
_COLOR = FieldRule(float, lambda x: 0.0 <= x <= 1.0, "must lie in [0, 1]")
_SIZE = FieldRule(int, lambda n: n >= 1, "must be a positive integer")

# The field table: preset field name -> the values the field may hold.  A
# vector has one entry per axis; the lighting.position.*, color_temp and
# intensity entries hold for every light, and lighting.n_lights for their count.
FIELDS: dict[str, FieldRule] = {
    "object_ref": FieldRule(str, lambda s: s != "", "must be a nonempty mesh identifier"),
    "object_animation.kind": FieldRule(
        AnimationKind, None, "must be one of " + ", ".join(k.value for k in AnimationKind)),
    "object_animation.rate_deg_per_s": _FINITE,
    **{f"object_animation.velocity.{axis}": _FINITE for axis in "xyz"},
    "camera.focus_type": FieldRule(FocusType, None, "must be Follow or Fixed"),
    "camera.focus_position": FieldRule(FocusPosition, None, "must be Upper, Center or Lower"),
    "camera.movement_type": FieldRule(
        MovementType, None, "must be one of " + ", ".join(m.value for m in MovementType)),
    "camera.movement_value": _FINITE,
    **{f"camera.initial_position.{axis}": _FINITE for axis in "xyz"},
    "camera.coverage": FieldRule(float, lambda c: 0.0 < c <= 1.0, "must lie in (0, 1]"),
    "lighting.n_lights": FieldRule(int, lambda n: 0 <= n <= 2, "must be between 0 and 2 lights"),
    **{f"lighting.position.{axis}": _FINITE for axis in "xyz"},
    "lighting.color_temp": FieldRule(float, lambda t: 1000.0 <= t <= 12000.0,
                                     "must lie in [1000, 12000] Kelvin"),
    "lighting.intensity": _INTENSITY,
    "lighting.ambient_intensity": _INTENSITY,
    "environment.scene_type": FieldRule(SceneType, None, "must be Basic or Empty"),
    **{f"environment.scene_color.{c}": _COLOR for c in "rgb"},
    **{f"environment.background_color.{c}": _COLOR for c in "rgba"},
    "render.width": _SIZE,
    "render.height": _SIZE,
    "render.quality": FieldRule(RenderQuality, None, "must be High or Low"),
    "render.engine_target": FieldRule(EngineTarget, None, "must be Internal or BlenderScript"),
    "n_frames": FieldRule(int, lambda n: n >= 2, "must be an integer >= 2"),
    "fps": FieldRule(int, lambda n: 1 <= n <= 120, "must be an integer in [1, 120]"),
}


@functools.cache
def vector_axes(name: str) -> str:
    """The axes :data:`FIELDS` lists under ``name``, in order (``"xyz"``,
    ``"rgb"`` or ``"rgba"``), or ``""`` when ``name`` is a scalar field."""
    return "".join(f.rpartition(".")[2] for f in FIELDS if f.startswith(name + "."))


def read_field(value: jsondoc.Field, name: str):
    """``value`` read as the type :data:`FIELDS` gives field ``name``: a tuple
    of floats for a vector, else a float, int, str or enum member."""
    axes = vector_axes(name)
    if axes:
        return value.vector(len(axes))
    kind = FIELDS[name].kind
    if kind is float:
        return value.number()
    if kind is int:
        return value.integer()
    if kind is str:
        return value.string()
    return value.enum(kind)


def validate_config(cfg: SceneConfig) -> ValidationReport:
    """Check every invariant of ``cfg`` and report all violations.

    Each field is tested against its rule in :data:`FIELDS`; what is written
    out below are the rules across fields and ``seed``, which no preset
    draws.  Validation is total: it never raises, even for configs holding
    values of the wrong type (each check degrades to a violation instead).
    """
    out: list[Violation] = []

    # ``owner``'s attribute named by the last part of ``path``, tested against
    # the rule of ``name`` (``path`` itself by default)
    def field(path, owner, name=None):
        rule = FIELDS[name or path]
        if not rule.holds(getattr(owner, path.rpartition(".")[2], None)):
            out.append(Violation(path, rule.message))

    def vector(path, owner, message, name=None):
        value, name = getattr(owner, path.rpartition(".")[2], None), name or path
        axes = vector_axes(name)
        if isinstance(value, tuple) and len(value) == len(axes):
            for a, c in zip(axes, value):
                if not FIELDS[f"{name}.{a}"].holds(c):
                    break
            else:
                return
        out.append(Violation(path, message))

    def check(path, fn, message):
        try:
            ok = fn()
        except Exception:
            ok = False
        if not ok:
            out.append(Violation(path, message))

    field("object_ref", cfg)

    anim = cfg.object_animation
    field("object_animation.kind", anim)
    field("object_animation.rate_deg_per_s", anim)
    vector("object_animation.velocity", anim, "must be a finite 3-vector")

    cam = cfg.camera
    field("camera.focus_type", cam)
    field("camera.focus_position", cam)
    field("camera.movement_type", cam)
    field("camera.movement_value", cam)
    vector("camera.initial_position", cam, "must be a finite 3-vector")
    # The object pivot sits at the origin by pipeline convention, so a camera
    # there has no view direction.
    check("camera.initial_position",
          lambda: math.hypot(*cam.initial_position) > 0.0,
          "must not coincide with the object position (world origin)")
    field("camera.coverage", cam)

    lit = cfg.lighting
    lights = getattr(lit, "lights", None)
    if not isinstance(lights, tuple):
        out.append(Violation("lighting.lights", "must be a tuple of lights"))
        lights = ()
    elif not FIELDS["lighting.n_lights"].legal(len(lights)):
        out.append(Violation("lighting.lights", FIELDS["lighting.n_lights"].message))
    for i, light in enumerate(lights):
        path = f"lighting.lights[{i}]"
        vector(f"{path}.position", light, "must be a finite 3-vector", "lighting.position")
        field(f"{path}.color_temp", light, "lighting.color_temp")
        field(f"{path}.intensity", light, "lighting.intensity")
    field("lighting.ambient_intensity", lit)
    check("lighting", lambda: len(lights) > 0 or lit.ambient_intensity > 0.0,
          "scene needs at least one light or a positive ambient intensity")

    env = cfg.environment
    field("environment.scene_type", env)
    scene_type = getattr(env, "scene_type", None)
    if scene_type is SceneType.BASIC:
        vector("environment.scene_color", env, "Basic scenes require an RGB scene_color in [0, 1]")
        check("environment.background_color", lambda: env.background_color is None,
              "background_color is only valid for Empty scenes")
    elif scene_type is SceneType.EMPTY:
        vector("environment.background_color", env,
               "Empty scenes require an RGBA background_color in [0, 1]")
        check("environment.scene_color", lambda: env.scene_color is None,
              "scene_color is only valid for Basic scenes")

    ren = cfg.render
    field("render.width", ren)
    field("render.height", ren)
    check("render", lambda: ren.width * ren.height <= MAX_PIXELS,
          f"width*height must not exceed {MAX_PIXELS}")
    field("render.quality", ren)
    field("render.engine_target", ren)

    check("seed", lambda: isinstance(cfg.seed, int) and not isinstance(cfg.seed, bool)
          and 0 <= cfg.seed < 2 ** 64, "must be a 64-bit unsigned integer")
    field("n_frames", cfg)
    field("fps", cfg)

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


@functools.cache
def _members(cls, prefix: str = "", optional=()):
    """The members of the dataclass ``cls`` that are not ``optional``, and
    each member paired with its field name, ``prefix`` + member."""
    names = [f.name for f in fields(cls)]
    return (tuple(m for m in names if m not in optional),
            tuple((m, prefix + m) for m in names))


def _record(cls, doc: jsondoc.Field, prefix: str, optional=(), **read):
    """The dataclass ``cls`` read from the object ``doc``: member ``m`` is read
    by ``read[m]`` when given, else as field ``prefix + m`` of :data:`FIELDS`;
    an ``optional`` member that is absent takes its default."""
    required, members = _members(cls, prefix, optional)
    present = doc.object(required, optional).value
    return cls(**{m: read[m](doc[m]) if m in read else read_field(doc[m], name)
                  for m, name in members if m in present})


def decode_config(text: str | bytes, source: str = "config") -> SceneConfig:
    """Parse schema-1 config JSON read from ``source``.

    Malformed JSON and structurally invalid documents raise
    :class:`~synthvid.jsondoc.FormatError` naming ``source`` and the
    offending field (or, for a syntax error, its line and column).  Every
    field is read as the type :data:`FIELDS` gives it.  Decoding is
    intentionally independent of :func:`validate_config`: a decodable config
    may still fail validation.
    """
    doc = jsondoc.loads(text, source).object(("schema",) + _members(SceneConfig)[0]).schema()
    # keywords in document order, so the first of several faults is reported
    return SceneConfig(
        object_animation=_record(ObjectAnimation, doc["object_animation"], "object_animation.",
                                 optional=("rate_deg_per_s", "velocity")),
        camera=_record(CameraSpec, doc["camera"], "camera."),
        lighting=_record(LightingSpec, doc["lighting"], "lighting.", lights=lambda lights: tuple(
            _record(Light, entry, "lighting.") for entry in lights.elements())),
        environment=_record(EnvSpec, doc["environment"], "environment.",
                            optional=("scene_color", "background_color")),
        render=_record(RenderSpec, doc["render"], "render."),
        object_ref=read_field(doc["object_ref"], "object_ref"),
        seed=doc["seed"].integer(),
        n_frames=read_field(doc["n_frames"], "n_frames"),
        fps=read_field(doc["fps"], "fps"),
    )
