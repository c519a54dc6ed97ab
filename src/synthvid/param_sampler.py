"""Seeded sampling of scene configs from named distribution presets.

Every scene parameter is drawn from its own preset-declared distribution
(uniform range, weighted categorical, or constant).  Each parameter owns an
independent RNG stream seeded from ``(sample seed, field name)``, so the
draw for one field never depends on which other fields were drawn, in what
order, or whether a field was added later.  Sampling is therefore a pure
function of ``(preset, seed)``.

The fields a preset draws, their types and their legal values are the
field table, :data:`~synthvid.scene_config.FIELDS`; every draw returns its
field's type, a vector is drawn axis by axis as the table lists its axes,
and a record draws its dataclass's members.  For an integer field
``uniform(low, high)`` is the inclusive integer range.

Every preset is checked when it is built, whether decoded from JSON or
written in code: each bound, category and constant must be a legal value
of its field, or a :class:`~synthvid.jsondoc.FormatError` names the preset
(or the file) and the field.  So every value a preset draws passes
:func:`~synthvid.scene_config.validate_config`'s check of its field.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import jsondoc
from .scene_config import (
    FIELDS,
    AnimationKind,
    CameraSpec,
    EnvSpec,
    FocusType,
    Light,
    LightingSpec,
    MovementType,
    ObjectAnimation,
    RenderSpec,
    SceneConfig,
    SceneType,
    read_field,
    validate_config,
    vector_axes,
)
from .seeding import derive_seed, stream_seed

__all__ = [
    "Categorical",
    "Constant",
    "DistributionPreset",
    "PresetLibrary",
    "Uniform",
    "decode_preset",
    "encode_preset",
    "sample_batch",
    "sample_config",
]


# ---------------------------------------------------------------------------
# distributions


@dataclass(frozen=True)
class Uniform:
    low: float
    high: float

    def __post_init__(self):
        if not (self.low <= self.high):
            raise ValueError(f"empty uniform range [{self.low}, {self.high}]")

    def draw(self, rng: np.random.Generator):
        return float(rng.uniform(self.low, self.high))


@dataclass(frozen=True)
class Categorical:
    """Weighted choice; categories keep their declared order."""

    weights: tuple[tuple[object, float], ...]

    def __post_init__(self):
        if not self.weights:
            raise ValueError("categorical needs at least one category")
        total = 0.0
        for choice, w in self.weights:
            if w < 0.0:
                raise ValueError(f"negative weight for {choice!r}")
            total += w
        if total <= 0.0:
            raise ValueError("categorical weights must sum to a positive value")

    def probabilities(self) -> tuple[tuple[object, float], ...]:
        total = sum(w for _, w in self.weights)
        return tuple((c, w / total) for c, w in self.weights)

    def draw(self, rng: np.random.Generator):
        u = float(rng.random())
        acc = 0.0
        for choice, p in self.probabilities():
            acc += p
            if u < acc:
                return choice
        return self.weights[-1][0]


@dataclass(frozen=True)
class Constant:
    value: object


Distribution = Uniform | Categorical | Constant


@dataclass(frozen=True)
class DistributionPreset:
    """A distribution for every field of the field table, checked when built."""

    name: str
    params: dict  # field name -> Distribution

    def __post_init__(self):
        source = f"preset {self.name!r}"
        jsondoc.Field(self.params, source, "params").object(tuple(FIELDS))
        for name, spec in jsondoc.Field(_params_doc(self.params), source, "params").members():
            _distribution(spec, name.value)


# ---------------------------------------------------------------------------
# sampling


class _Draws:
    """The draws of one ``(preset, seed)`` sample.

    Each value has the type the field table gives its field.  A field's
    stream is built on its first draw, so a field that is never drawn costs
    nothing.
    """

    def __init__(self, preset: DistributionPreset, seed: int):
        self.params, self.seed, self.streams = preset.params, seed, {}

    def value(self, name: str):
        """Field ``name``'s next value; a vector is drawn axis by axis, as a tuple."""
        axes = vector_axes(name)
        if axes:
            return tuple(self.value(f"{name}.{axis}") for axis in axes)
        dist, kind = self.params[name], FIELDS[name].kind
        if isinstance(dist, Constant):
            return kind(dist.value)
        rng = self.streams.get(name)
        if rng is None:
            rng = self.streams[name] = np.random.Generator(
                np.random.PCG64(stream_seed(self.seed, name)))
        if kind is int and isinstance(dist, Uniform):
            return int(rng.integers(int(dist.low), int(dist.high) + 1))
        return kind(dist.draw(rng))

    def record(self, cls, prefix: str, **given):
        """The dataclass ``cls``, each member ``m`` not ``given`` drawn as field ``prefix + m``."""
        return cls(**{f.name: given[f.name] if f.name in given else self.value(prefix + f.name)
                      for f in fields(cls)})


def sample_config(preset: DistributionPreset, seed: int) -> SceneConfig:
    """Draw one valid :class:`SceneConfig` from ``preset``.

    Identical ``(preset, seed)`` pairs yield bit-identical configs.  One
    documented consistency override replaces a draw: Tilt and Pan movements
    take ``focus_type = Fixed``, because re-aiming at a focus target would
    cancel the rotation those movements describe.
    """
    draw = _Draws(preset, seed)

    kind = draw.value("object_animation.kind")
    if kind is AnimationKind.SPIN:
        animation = ObjectAnimation.spin(draw.value("object_animation.rate_deg_per_s"))
    elif kind is AnimationKind.TRANSLATE:
        animation = ObjectAnimation.translate(draw.value("object_animation.velocity"))
    else:
        animation = ObjectAnimation.none()

    movement_type = draw.value("camera.movement_type")
    given = {"movement_type": movement_type}
    if movement_type in (MovementType.TILT, MovementType.PAN):
        given["focus_type"] = FocusType.FIXED
    camera = draw.record(CameraSpec, "camera.", **given)

    # the per-light fields draw once per light from one stream, light 0 first
    lights = tuple(draw.record(Light, "lighting.")
                   for _ in range(draw.value("lighting.n_lights")))
    lighting = draw.record(LightingSpec, "lighting.", lights=lights)

    scene_type = draw.value("environment.scene_type")
    if scene_type is SceneType.BASIC:
        environment = EnvSpec(scene_type, scene_color=draw.value("environment.scene_color"))
    else:
        environment = EnvSpec(scene_type,
                              background_color=draw.value("environment.background_color"))

    cfg = draw.record(SceneConfig, "", object_animation=animation, camera=camera,
                      lighting=lighting, environment=environment,
                      render=draw.record(RenderSpec, "render."), seed=seed)

    report = validate_config(cfg)
    if not report.ok:
        # Every drawn value passed its field's rule when the preset was built,
        # so only a rule across fields can fail here: a camera at the origin,
        # no light and no ambient, or width*height over the pixel budget.
        raise ValueError(f"preset {preset.name!r} produced an invalid config:\n{report}")
    return cfg


def sample_batch(preset: DistributionPreset, base_seed: int, count: int) -> list[SceneConfig]:
    """Sample ``count`` configs; element i uses ``derive_seed(base_seed, i)``."""
    if count < 1:
        raise ValueError("count must be >= 1")
    return [sample_config(preset, derive_seed(base_seed, i)) for i in range(count)]


# ---------------------------------------------------------------------------
# built-in presets

# Shared numeric ranges for the built-in presets.  Widths are kept small so
# large sampled batches stay cheap to render.
_COMMON = {
    "object_ref": Categorical((("cube", 1.0), ("sphere", 1.0), ("torus", 1.0), ("cylinder", 1.0))),
    "object_animation.rate_deg_per_s": Uniform(20.0, 120.0),
    "object_animation.velocity.x": Uniform(-0.4, 0.4),
    "object_animation.velocity.y": Uniform(-0.4, 0.4),
    "object_animation.velocity.z": Uniform(-0.1, 0.1),
    "camera.focus_position": Categorical((("Upper", 0.25), ("Center", 0.5), ("Lower", 0.25))),
    "camera.coverage": Uniform(0.25, 0.65),
    "lighting.n_lights": Categorical(((1, 0.5), (2, 0.5))),
    "lighting.position.x": Uniform(-6.0, 6.0),
    "lighting.position.y": Uniform(-6.0, 6.0),
    "lighting.position.z": Uniform(2.0, 7.0),
    "lighting.color_temp": Uniform(2500.0, 9500.0),
    "lighting.intensity": Uniform(0.4, 1.1),
    "lighting.ambient_intensity": Uniform(0.1, 0.35),
    "environment.scene_type": Categorical((("Basic", 0.5), ("Empty", 0.5))),
    "environment.scene_color.r": Uniform(0.2, 0.9),
    "environment.scene_color.g": Uniform(0.2, 0.9),
    "environment.scene_color.b": Uniform(0.2, 0.9),
    "environment.background_color.r": Uniform(0.0, 1.0),
    "environment.background_color.g": Uniform(0.0, 1.0),
    "environment.background_color.b": Uniform(0.0, 1.0),
    "environment.background_color.a": Uniform(0.0, 1.0),
    "render.width": Constant(160),
    "render.height": Constant(120),
    "render.quality": Categorical((("High", 0.5), ("Low", 0.5))),
    "render.engine_target": Categorical((("Internal", 0.75), ("BlenderScript", 0.25))),
    "n_frames": Uniform(24, 48),
    "fps": Categorical(((12, 0.25), (24, 0.75))),
}


def _random_preset() -> DistributionPreset:
    """Everything wide open: all eight movements, equal weight."""
    params = dict(_COMMON)
    params.update({
        "object_animation.kind": Categorical((("none", 0.5), ("spin", 0.3), ("translate", 0.2))),
        "camera.focus_type": Categorical((("Follow", 0.5), ("Fixed", 0.5))),
        "camera.movement_type": Categorical(tuple((m.value, 1.0) for m in MovementType)),
        "camera.movement_value": Uniform(10.0, 60.0),
        "camera.initial_position.x": Uniform(-9.0, 9.0),
        "camera.initial_position.y": Uniform(-9.0, 9.0),
        "camera.initial_position.z": Uniform(0.5, 6.0),
    })
    return DistributionPreset("random", params)


def _forward_only_preset() -> DistributionPreset:
    """Frontal dolly-in shots, the way a videographer films a subject."""
    params = dict(_COMMON)
    params.update({
        "object_animation.kind": Categorical((("none", 0.4), ("spin", 0.3), ("translate", 0.3))),
        "camera.focus_type": Constant("Follow"),
        "camera.movement_type": Constant("Dolly"),
        "camera.movement_value": Uniform(2.0, 5.0),
        "camera.initial_position.x": Uniform(-2.0, 2.0),
        "camera.initial_position.y": Uniform(-12.0, -7.0),
        "camera.initial_position.z": Uniform(1.0, 3.0),
        "camera.focus_position": Categorical((("Upper", 0.5), ("Center", 0.5))),
    })
    return DistributionPreset("forward_only", params)


# Mix between forward (Dolly) and following shots; the split is a repository
# constant exposed here rather than hard-coded downstream.
FORWARD_FOLLOWING_WEIGHTS = (("Dolly", 0.5), ("Following", 0.5))


def _forward_following_preset() -> DistributionPreset:
    params = dict(_forward_only_preset().params)
    params.update({
        "camera.movement_type": Categorical(FORWARD_FOLLOWING_WEIGHTS),
        "object_animation.kind": Categorical((("none", 0.2), ("spin", 0.2), ("translate", 0.6))),
    })
    return DistributionPreset("forward_following", params)


_BUILTIN_PRESETS = {"random": _random_preset, "forward_only": _forward_only_preset,
                    "forward_following": _forward_following_preset}


@dataclass
class PresetLibrary:
    """Named presets; always contains the three built-ins."""

    presets: dict

    def __post_init__(self):
        for name, factory in _BUILTIN_PRESETS.items():
            if name not in self.presets:
                self.presets[name] = factory()

    @classmethod
    def default(cls) -> "PresetLibrary":
        return cls({})

    def get(self, name: str) -> DistributionPreset:
        if name not in self.presets:
            known = ", ".join(sorted(self.presets))
            raise KeyError(f"unknown preset {name!r} (known: {known})")
        return self.presets[name]

    def add(self, preset: DistributionPreset) -> None:
        if preset.name in _BUILTIN_PRESETS:
            raise ValueError(f"cannot replace built-in preset {preset.name!r}")
        self.presets[preset.name] = preset


# ---------------------------------------------------------------------------
# preset JSON (same strict dialect as configs)


def _params_doc(params: dict) -> dict:
    """The JSON form of a preset's ``params`` in catalogue order; a value that
    is not a distribution stays as it is, for the check to reject."""
    def dist_doc(dist):
        if isinstance(dist, Uniform):
            return {"kind": "uniform", "low": dist.low, "high": dist.high}
        if isinstance(dist, Categorical):
            return {"kind": "categorical", "weights": [[c, w] for c, w in dist.weights]}
        if isinstance(dist, Constant):
            return {"kind": "constant", "value": dist.value}
        return dist

    return {f: dist_doc(params[f]) for f in FIELDS}


def encode_preset(preset: DistributionPreset) -> str:
    return jsondoc.dumps({"schema": jsondoc.SCHEMA_VERSION, "name": preset.name,
                          "params": _params_doc(preset.params)})


# JSON members of each distribution kind besides ``kind``
_DISTRIBUTION_KEYS = {"uniform": ("low", "high"), "categorical": ("weights",),
                      "constant": ("value",)}

# A uniform bound past 2**53 names no single integer, and the width of a
# wider range overflows the draw.
_MAX_BOUND = 2.0 ** 53


def _checked(value: jsondoc.Field, field: str) -> jsondoc.Field:
    """``value`` (a bound, a category or a constant), once checked against
    ``field``'s rule in the field table."""
    rule = FIELDS[field]
    if rule.kind is int:
        # a decoded uniform bound is a float, so 24.0 is an integer here
        if type(value.value) not in (int, float) or not value.number().is_integer():
            raise value.error(f"expected an integer, got {value.value!r}")
        typed = int(value.value)
    else:
        typed = read_field(value, field)
    if not rule.holds(typed):
        raise value.error(f"{rule.message}, got {value.value!r}")
    return value


def _bound(value: jsondoc.Field, field: str) -> float:
    bound = _checked(value, field).number()
    if abs(bound) > _MAX_BOUND:
        raise value.error(f"a uniform bound must lie in [-2**53, 2**53], got {bound!r}")
    return bound


def _distribution(spec: jsondoc.Field, field: str) -> Distribution:
    """The distribution ``spec`` describes, each of its values checked by :func:`_checked`."""
    kind = spec["kind"].string()
    if kind not in _DISTRIBUTION_KEYS:
        raise spec["kind"].error(f"{kind!r} is not a legal value "
                                 f"(expected one of: {', '.join(_DISTRIBUTION_KEYS)})")
    spec.object(("kind",) + _DISTRIBUTION_KEYS[kind])
    if kind == "uniform":
        low, high = (_bound(spec[key], field) for key in ("low", "high"))
        return spec.make(Uniform, low, high)
    if kind == "categorical":
        pairs = [pair.elements(2) for pair in spec["weights"].elements()]
        return spec.make(Categorical, tuple((_checked(c, field).scalar(), w.number())
                                            for c, w in pairs))
    return Constant(_checked(spec["value"], field).scalar())


def decode_preset(text: str | bytes, source: str = "preset") -> DistributionPreset:
    """Parse a schema-1 preset read from ``source``.

    Every field of the field table needs one distribution, and each
    distribution gets its keys and value types checked, and its values checked
    against the field's rule; a malformed document raises
    :class:`~synthvid.jsondoc.FormatError` naming ``source`` and the field.
    """
    doc = jsondoc.loads(text, source).object(("schema", "name", "params")).schema()
    params = doc["params"].object(tuple(FIELDS))
    return DistributionPreset(doc["name"].string(), {
        name.value: _distribution(spec, name.value) for name, spec in params.members()})
