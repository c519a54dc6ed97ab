"""Seeded sampling of scene configs from named distribution presets.

Every scene parameter is drawn from its own preset-declared distribution
(uniform range, weighted categorical, or constant).  Each parameter owns an
independent RNG stream seeded from ``(sample seed, field name)``, so the
draw for one field never depends on which other fields were drawn, in what
order, or whether a field was added later.  Sampling is therefore a pure
function of ``(preset, seed)``.

The draw catalogue (field names and what each one feeds) is
:data:`FIELD_KINDS`.  Integer-valued fields interpret ``uniform(low, high)``
as the inclusive integer range.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import jsondoc
from .scene_config import (
    AnimationKind,
    CameraSpec,
    EngineTarget,
    EnvSpec,
    FocusPosition,
    FocusType,
    Light,
    LightingSpec,
    MovementType,
    ObjectAnimation,
    RenderQuality,
    RenderSpec,
    SceneConfig,
    SceneType,
    validate_config,
)
from .seeding import derive_seed, stream_seed

__all__ = [
    "Categorical",
    "Constant",
    "DistributionPreset",
    "FIELD_KINDS",
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

    def draw_int(self, rng: np.random.Generator) -> int:
        return int(rng.integers(int(self.low), int(self.high) + 1))


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

    def draw(self, rng: np.random.Generator):
        return self.value

    def draw_int(self, rng: np.random.Generator) -> int:
        return int(self.value)


Distribution = Uniform | Categorical | Constant


# Draw catalogue: field name -> value kind.  "float"/"int" draw one value,
# "choice" draws from a categorical/constant, "per-light" fields draw one
# value per light from the same stream (light 0 first).
FIELD_KINDS: dict[str, str] = {
    "object_ref": "choice",
    "object_animation.kind": "choice",
    "object_animation.rate_deg_per_s": "float",
    "object_animation.velocity.x": "float",
    "object_animation.velocity.y": "float",
    "object_animation.velocity.z": "float",
    "camera.focus_type": "choice",
    "camera.focus_position": "choice",
    "camera.movement_type": "choice",
    "camera.movement_value": "float",
    "camera.initial_position.x": "float",
    "camera.initial_position.y": "float",
    "camera.initial_position.z": "float",
    "camera.coverage": "float",
    "lighting.n_lights": "choice",
    "lighting.position.x": "float (per-light)",
    "lighting.position.y": "float (per-light)",
    "lighting.position.z": "float (per-light)",
    "lighting.color_temp": "float (per-light)",
    "lighting.intensity": "float (per-light)",
    "lighting.ambient_intensity": "float",
    "environment.scene_type": "choice",
    "environment.scene_color.r": "float",
    "environment.scene_color.g": "float",
    "environment.scene_color.b": "float",
    "environment.background_color.r": "float",
    "environment.background_color.g": "float",
    "environment.background_color.b": "float",
    "environment.background_color.a": "float",
    "render.width": "int",
    "render.height": "int",
    "render.quality": "choice",
    "render.engine_target": "choice",
    "n_frames": "int",
    "fps": "int",
}


@dataclass(frozen=True)
class DistributionPreset:
    name: str
    params: dict  # field name -> Distribution

    def __post_init__(self):
        missing = [f for f in FIELD_KINDS if f not in self.params]
        if missing:
            raise ValueError(f"preset {self.name!r} missing distributions for: {missing}")
        unknown = [f for f in self.params if f not in FIELD_KINDS]
        if unknown:
            raise ValueError(f"preset {self.name!r} has unknown fields: {unknown}")


# ---------------------------------------------------------------------------
# sampling


class _FieldStreams:
    """Lazy per-field RNG streams for one (preset, seed) sample."""

    def __init__(self, seed: int):
        self.seed = seed
        self._streams: dict[str, np.random.Generator] = {}

    def get(self, name: str) -> np.random.Generator:
        if name not in self._streams:
            self._streams[name] = np.random.Generator(
                np.random.PCG64(stream_seed(self.seed, name))
            )
        return self._streams[name]


def _draw_float(preset, streams, name) -> float:
    dist = preset.params[name]
    if isinstance(dist, Categorical):
        return float(dist.draw(streams.get(name)))
    return float(dist.draw(streams.get(name)))


def _draw_int(preset, streams, name) -> int:
    dist = preset.params[name]
    rng = streams.get(name)
    if isinstance(dist, Uniform):
        return dist.draw_int(rng)
    if isinstance(dist, Constant):
        return int(dist.value)
    return int(dist.draw(rng))


def _draw_choice(preset, streams, name):
    return preset.params[name].draw(streams.get(name))


def sample_config(preset: DistributionPreset, seed: int) -> SceneConfig:
    """Draw one valid :class:`SceneConfig` from ``preset``.

    Identical ``(preset, seed)`` pairs yield bit-identical configs.  One
    documented consistency override is applied after the raw draws: Tilt and
    Pan movements force ``focus_type = Fixed``, because re-aiming at a focus
    target would cancel the rotation those movements describe.
    """
    streams = _FieldStreams(seed)

    object_ref = str(_draw_choice(preset, streams, "object_ref"))

    kind = AnimationKind(str(_draw_choice(preset, streams, "object_animation.kind")))
    if kind is AnimationKind.SPIN:
        animation = ObjectAnimation.spin(
            _draw_float(preset, streams, "object_animation.rate_deg_per_s"))
    elif kind is AnimationKind.TRANSLATE:
        animation = ObjectAnimation.translate((
            _draw_float(preset, streams, "object_animation.velocity.x"),
            _draw_float(preset, streams, "object_animation.velocity.y"),
            _draw_float(preset, streams, "object_animation.velocity.z"),
        ))
    else:
        animation = ObjectAnimation.none()

    movement_type = MovementType(str(_draw_choice(preset, streams, "camera.movement_type")))
    focus_type = FocusType(str(_draw_choice(preset, streams, "camera.focus_type")))
    if movement_type in (MovementType.TILT, MovementType.PAN):
        focus_type = FocusType.FIXED
    camera = CameraSpec(
        focus_type=focus_type,
        focus_position=FocusPosition(str(_draw_choice(preset, streams, "camera.focus_position"))),
        movement_type=movement_type,
        movement_value=_draw_float(preset, streams, "camera.movement_value"),
        initial_position=(
            _draw_float(preset, streams, "camera.initial_position.x"),
            _draw_float(preset, streams, "camera.initial_position.y"),
            _draw_float(preset, streams, "camera.initial_position.z"),
        ),
        coverage=_draw_float(preset, streams, "camera.coverage"),
    )

    n_lights = _draw_int(preset, streams, "lighting.n_lights")
    lights = tuple(
        Light(
            position=(
                _draw_float(preset, streams, "lighting.position.x"),
                _draw_float(preset, streams, "lighting.position.y"),
                _draw_float(preset, streams, "lighting.position.z"),
            ),
            color_temp=_draw_float(preset, streams, "lighting.color_temp"),
            intensity=_draw_float(preset, streams, "lighting.intensity"),
        )
        for _ in range(n_lights)
    )
    lighting = LightingSpec(
        lights=lights,
        ambient_intensity=_draw_float(preset, streams, "lighting.ambient_intensity"),
    )

    scene_type = SceneType(str(_draw_choice(preset, streams, "environment.scene_type")))
    if scene_type is SceneType.BASIC:
        environment = EnvSpec(scene_type, scene_color=(
            _draw_float(preset, streams, "environment.scene_color.r"),
            _draw_float(preset, streams, "environment.scene_color.g"),
            _draw_float(preset, streams, "environment.scene_color.b"),
        ))
    else:
        environment = EnvSpec(scene_type, background_color=(
            _draw_float(preset, streams, "environment.background_color.r"),
            _draw_float(preset, streams, "environment.background_color.g"),
            _draw_float(preset, streams, "environment.background_color.b"),
            _draw_float(preset, streams, "environment.background_color.a"),
        ))

    render = RenderSpec(
        width=_draw_int(preset, streams, "render.width"),
        height=_draw_int(preset, streams, "render.height"),
        quality=RenderQuality(str(_draw_choice(preset, streams, "render.quality"))),
        engine_target=EngineTarget(str(_draw_choice(preset, streams, "render.engine_target"))),
    )

    cfg = SceneConfig(
        object_ref=object_ref,
        object_animation=animation,
        camera=camera,
        lighting=lighting,
        environment=environment,
        render=render,
        seed=seed,
        n_frames=_draw_int(preset, streams, "n_frames"),
        fps=_draw_int(preset, streams, "fps"),
    )

    report = validate_config(cfg)
    if not report.ok:
        # Presets are validated at construction, so this indicates a preset
        # whose ranges escape the config invariants.
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


@dataclass
class PresetLibrary:
    """Named presets; always contains the three built-ins."""

    presets: dict

    def __post_init__(self):
        for factory in (_random_preset, _forward_only_preset, _forward_following_preset):
            built = factory()
            self.presets.setdefault(built.name, built)

    @classmethod
    def default(cls) -> "PresetLibrary":
        return cls({})

    def get(self, name: str) -> DistributionPreset:
        if name not in self.presets:
            known = ", ".join(sorted(self.presets))
            raise KeyError(f"unknown preset {name!r} (known: {known})")
        return self.presets[name]

    def add(self, preset: DistributionPreset) -> None:
        for required in ("random", "forward_only", "forward_following"):
            if preset.name == required:
                raise ValueError(f"cannot replace built-in preset {required!r}")
        self.presets[preset.name] = preset


# ---------------------------------------------------------------------------
# preset JSON (same strict dialect as configs)


def encode_preset(preset: DistributionPreset) -> str:
    def dist_doc(dist):
        if isinstance(dist, Uniform):
            return {"kind": "uniform", "low": dist.low, "high": dist.high}
        if isinstance(dist, Categorical):
            return {"kind": "categorical",
                    "weights": [[c, w] for c, w in dist.weights]}
        return {"kind": "constant", "value": dist.value}

    doc = {
        "schema": 1,
        "name": preset.name,
        "params": {f: dist_doc(preset.params[f]) for f in FIELD_KINDS},
    }
    return jsondoc.dumps(doc)


# JSON members of each distribution kind besides ``kind``
_DISTRIBUTION_KEYS = {"uniform": ("low", "high"), "categorical": ("weights",),
                      "constant": ("value",)}


def _decode_distribution(spec: jsondoc.Field) -> Distribution:
    kind = spec["kind"].string()
    if kind not in _DISTRIBUTION_KEYS:
        raise spec["kind"].error(f"{kind!r} is not a legal value "
                                 f"(expected one of: {', '.join(_DISTRIBUTION_KEYS)})")
    spec.object(("kind",) + _DISTRIBUTION_KEYS[kind])
    if kind == "uniform":
        return spec.make(Uniform, spec["low"].number(), spec["high"].number())
    if kind == "categorical":
        pairs = [pair.elements(2) for pair in spec["weights"].elements()]
        return spec.make(Categorical, tuple((c.scalar(), w.number()) for c, w in pairs))
    return Constant(spec["value"].scalar())


def decode_preset(text: str | bytes, source: str = "preset") -> DistributionPreset:
    """Parse a schema-1 preset read from ``source``.

    Every field of :data:`FIELD_KINDS` needs one distribution, and each
    distribution gets its keys and value types checked; a malformed document
    raises :class:`~synthvid.jsondoc.FormatError` naming ``source`` and the field.
    """
    doc = jsondoc.loads(text, source).object(("schema", "name", "params")).schema()
    params = doc["params"].object(tuple(FIELD_KINDS))
    return DistributionPreset(doc["name"].string(), {
        name.value: _decode_distribution(spec) for name, spec in params.members()})
