import copy
import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from synthvid.jsondoc import FormatError
from synthvid.param_sampler import PresetLibrary, sample_config
from synthvid.scene_config import (
    EnvSpec,
    FocusType,
    Light,
    MovementType,
    ObjectAnimation,
    RenderSpec,
    SceneConfig,
    SceneType,
    FIELDS,
    decode_config,
    encode_config,
    kelvin_to_rgb,
    validate_config,
    vector_axes,
)

from conftest import make_config, mutate_members


def test_well_formed_spin_config_validates():
    assert validate_config(make_config()).ok


def test_single_frame_clip_is_reported():
    report = validate_config(make_config(n_frames=1))
    assert not report.ok
    assert "n_frames" in report.paths()


def test_basic_scene_without_color_is_reported():
    cfg = make_config(environment=EnvSpec(SceneType.BASIC, scene_color=None))
    report = validate_config(cfg)
    assert "environment.scene_color" in report.paths()


def test_basic_scene_with_background_color_is_reported():
    cfg = make_config(environment=EnvSpec(SceneType.BASIC, scene_color=(0.5, 0.5, 0.5),
                                          background_color=(0.0, 0.0, 0.0, 1.0)))
    assert "environment.background_color" in validate_config(cfg).paths()


def test_fps_bounds():
    assert "fps" in validate_config(make_config(fps=0)).paths()
    assert "fps" in validate_config(make_config(fps=121)).paths()
    assert validate_config(make_config(fps=120)).ok


def test_camera_at_origin_is_reported():
    report = validate_config(make_config(initial_position=(0.0, 0.0, 0.0)))
    assert "camera.initial_position" in report.paths()


def test_non_finite_movement_value_is_reported():
    report = validate_config(make_config(movement_value=float("nan")))
    assert "camera.movement_value" in report.paths()


def test_pixel_budget_guard():
    cfg = make_config(render=RenderSpec(width=2001, height=2000))
    assert "render" in validate_config(cfg).paths()


def test_lighting_requires_some_source():
    cfg = make_config()
    dark = make_config(lighting=type(cfg.lighting)(lights=(), ambient_intensity=0.0))
    assert "lighting" in validate_config(dark).paths()


@pytest.mark.parametrize("lights, message", [
    ("junk", "must be a tuple of lights"),
    ([make_config().lighting.lights[0]], "must be a tuple of lights"),
    (make_config().lighting.lights * 3, "must be between 0 and 2 lights"),
    (None, "must be a tuple of lights"),
])
def test_bad_lights_are_one_violation(lights, message):
    report = validate_config(_mutated(make_config(), "lighting.lights", lights))
    assert [(v.path, v.message) for v in report.violations] == [("lighting.lights", message)]


def test_validation_is_total_on_garbage_fields():
    # wrong types everywhere; validation must report, never raise
    cfg = make_config()
    broken = type(cfg)(
        object_ref=None,
        object_animation="not-an-animation",
        camera="not-a-camera",
        lighting=cfg.lighting,
        environment=cfg.environment,
        render=cfg.render,
        seed="zero",
        n_frames=2.5,
        fps=None,
    )
    report = validate_config(broken)
    assert not report.ok


def test_validation_total_over_sampled_then_mutated_configs(rng):
    preset = PresetLibrary.default().get("random")
    poison = [None, float("nan"), float("inf"), "junk", -1, (), (1.0,), True]
    fields = [f.name for f in dataclasses.fields(SceneConfig)]
    for i in range(200):
        cfg = sample_config(preset, int(rng.integers(2 ** 63)))
        field = fields[i % len(fields)]
        cfg = dataclasses.replace(cfg, **{field: poison[int(rng.integers(len(poison)))]})
        validate_config(cfg)  # must not raise


def _mutated(obj, path, value):
    """``obj`` with the field at dotted ``path`` set to ``value``, without running
    ``__post_init__``; a numeric part of the path indexes a tuple."""
    head, _, rest = path.partition(".")
    if isinstance(obj, tuple):
        i = int(head)
        return obj[:i] + (_mutated(obj[i], rest, value) if rest else value,) + obj[i + 1:]
    new = copy.copy(obj)
    object.__setattr__(new, head, _mutated(getattr(obj, head), rest, value) if rest else value)
    return new


# every field validate_config reads, nested ones included; an EnvSpec-valued
# environment is kept, since the totality test covers replacing it
MUTATION_TARGETS = (
    "object_ref", "object_animation", "object_animation.kind",
    "object_animation.rate_deg_per_s", "object_animation.velocity", "camera",
    "camera.focus_type", "camera.focus_position", "camera.movement_type",
    "camera.movement_value", "camera.initial_position", "camera.coverage", "lighting",
    "lighting.lights", "lighting.lights.0.position", "lighting.lights.0.color_temp",
    "lighting.lights.0.intensity", "lighting.ambient_intensity", "environment.scene_type",
    "environment.scene_color", "environment.background_color", "render", "render.width",
    "render.height", "render.quality", "render.engine_target", "seed", "n_frames", "fps",
)
MUTATION_VALUES = (
    None, math.nan, math.inf, "junk", "", -1, 0, 1, 2.5, 121, 999.0, 1e4, 10 ** 5, 2 ** 64,
    True, (), (1.0,), (0.0, 0.0, 0.0), (2.0, 0.5, 0.5), (1.0, math.nan, 0.0),
    (0.5, 0.5, 0.5, 1.0), (Light((1.0, 1.0, 4.0), 5000.0, 1.0),) * 3,
    MovementType.PAN, FocusType.FIXED, SceneType.BASIC, SceneType.EMPTY,
)


def test_validation_reports_are_pinned():
    # SHA-256 over the violation paths and messages of sampled configs with one
    # to four fields replaced; any change to what validate_config reports, or
    # to its order, changes the digest
    rng = np.random.default_rng(11)
    library = PresetLibrary.default()
    h = hashlib.sha256()
    for name in ("random", "forward_only", "forward_following"):
        for seed in range(150):
            cfg = sample_config(library.get(name), seed)
            for _ in range(int(rng.integers(1, 5))):
                path = MUTATION_TARGETS[int(rng.integers(len(MUTATION_TARGETS)))]
                value = MUTATION_VALUES[int(rng.integers(len(MUTATION_VALUES)))]
                try:
                    cfg = _mutated(cfg, path, value)
                except (AttributeError, TypeError, ValueError, IndexError):
                    pass  # an earlier replacement removed the field
            report = validate_config(cfg)
            h.update(repr([(v.path, v.message) for v in report.violations]).encode())
    assert h.hexdigest() == "927ca610caa435ded04c749dab87a9f5979741d1f92fc2a127abca786ef91c17"


# -- the field table --


def test_field_table_covers_every_config_leaf():
    # every leaf but seed names a field, or a vector whose axes match its
    # length; lighting.lights is a tuple of Light records, read under
    # "lighting." like the lighting spec itself
    cfg = make_config(object_animation=ObjectAnimation.translate((0.1, 0.2, 0.3)),
                      environment=EnvSpec(SceneType.BASIC, (0.5, 0.5, 0.5), (0.0, 0.0, 0.0, 1.0)))
    named = set()

    def walk(record, prefix):
        for f in dataclasses.fields(record):
            value, name = getattr(record, f.name), prefix + f.name
            if dataclasses.is_dataclass(value):
                walk(value, name + ".")
            elif name == "lighting.lights":
                walk(value[0], "lighting.")
            elif isinstance(value, tuple):
                assert len(vector_axes(name)) == len(value), name
                named.update(f"{name}.{axis}" for axis in vector_axes(name))
            elif name != "seed":
                assert name in FIELDS and vector_axes(name) == "", name
                named.add(name)

    walk(cfg, "")
    assert set(FIELDS) - named == {"lighting.n_lights"}


# -- serialization --


def test_round_trip_identity_simple():
    cfg = make_config()
    assert decode_config(encode_config(cfg)) == cfg


def test_round_trip_identity_sampled_configs(rng):
    preset = PresetLibrary.default().get("random")
    for _ in range(100):
        cfg = sample_config(preset, int(rng.integers(2 ** 63)))
        assert decode_config(encode_config(cfg)) == cfg


def test_round_trip_animation_variants():
    for animation in (ObjectAnimation.none(), ObjectAnimation.spin(33.5),
                      ObjectAnimation.translate((0.1, -0.2, 0.05))):
        cfg = make_config(object_animation=animation)
        assert decode_config(encode_config(cfg)) == cfg


def test_unknown_field_is_rejected_by_name():
    doc = json.loads(encode_config(make_config()))
    doc["shutter_speed"] = 1.0
    with pytest.raises(FormatError, match=r"^config: shutter_speed: unknown field$"):
        decode_config(json.dumps(doc))


def test_unknown_nested_field_is_rejected():
    doc = json.loads(encode_config(make_config()))
    doc["camera"]["zoom_factor"] = 2.0
    with pytest.raises(FormatError, match=r"^config: camera\.zoom_factor: unknown field$"):
        decode_config(json.dumps(doc))


def test_illegal_movement_type_lists_the_legal_values():
    doc = json.loads(encode_config(make_config()))
    doc["camera"]["movement_type"] = "Orbit"
    with pytest.raises(FormatError) as err:
        decode_config(json.dumps(doc))
    message = str(err.value)
    assert message.startswith("config: camera.movement_type: 'Orbit' is not a legal value")
    for legal in MovementType:
        assert legal.value in message


def test_malformed_json_error_carries_position():
    with pytest.raises(FormatError) as err:
        decode_config('{"schema": 1,\n "object_ref": }', source="bad.json")
    assert str(err.value) == "bad.json: Expecting value: line 2 column 16 (char 29)"


def test_schema_field_is_required():
    doc = json.loads(encode_config(make_config()))
    del doc["schema"]
    with pytest.raises(FormatError, match=r"^config: schema: missing$"):
        decode_config(json.dumps(doc))


def test_missing_field_is_rejected_by_name():
    doc = json.loads(encode_config(make_config()))
    del doc["camera"]["coverage"]
    with pytest.raises(FormatError, match=r"^config: camera\.coverage: missing$"):
        decode_config(json.dumps(doc))


# JSON values a mutation puts in a config document: every JSON type, edge
# numbers, legal words of other fields, and lists of every vector length
DECODE_VALUES = (
    None, True, 0, -1, 2.5, 1e308, 10 ** 400, math.inf, "junk", "", "Pan", "Basic", "Low",
    [], [1.0], [0.5, 0.5, 0.5], [0.5, 0.5, 0.5, 1.0], [0.5, "x", 0.5], {}, {"x": 1},
)


def test_decode_outcomes_are_pinned():
    # SHA-256 over the outcome of decoding sampled config documents with one to
    # three members replaced, deleted or added: the re-encoded config, or the
    # error text.  Any change to what decode_config accepts, to the type it
    # reads a field as, or to which of several faults it reports first changes
    # the digest.
    rng = np.random.default_rng(13)
    library = PresetLibrary.default()
    h = hashlib.sha256()
    for name in ("random", "forward_only", "forward_following"):
        for seed in range(300):
            text = encode_config(sample_config(library.get(name), seed))
            for _ in range(4):
                doc = json.loads(text)
                mutate_members(doc, rng, DECODE_VALUES)
                try:
                    outcome = encode_config(decode_config(json.dumps(doc), "mutant.json"))
                except FormatError as exc:
                    outcome = str(exc)
                h.update(outcome.encode())
    assert h.hexdigest() == "7e1ab127fbad49b312722546b08b26dada3ee0a1642346c0a6b2f5beb1f217b2"


# -- color temperature --


def test_kelvin_to_rgb_anchors():
    # warm sources are red-heavy, cool sources blue-heavy, mid is near white
    warm = kelvin_to_rgb(2000.0)
    assert warm[0] > warm[2]
    cool = kelvin_to_rgb(10000.0)
    assert cool[2] > cool[0]
    mid = kelvin_to_rgb(6600.0)
    assert all(c > 0.9 for c in mid)


def test_kelvin_to_rgb_in_unit_range():
    for kelvin in range(1000, 12001, 250):
        rgb = kelvin_to_rgb(float(kelvin))
        assert all(0.0 <= c <= 1.0 for c in rgb)
        assert all(math.isfinite(c) for c in rgb)
