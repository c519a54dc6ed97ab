import json
import math

import pytest

from synthvid.jsondoc import FormatError
from synthvid.param_sampler import PresetLibrary, sample_config
from synthvid.scene_config import (
    EnvSpec,
    MovementType,
    ObjectAnimation,
    RenderSpec,
    SceneType,
    decode_config,
    encode_config,
    kelvin_to_rgb,
    validate_config,
)

from conftest import make_config


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
    import dataclasses
    preset = PresetLibrary.default().get("random")
    poison = [None, float("nan"), float("inf"), "junk", -1, (), (1.0,), True]
    for i in range(200):
        cfg = sample_config(preset, int(rng.integers(2 ** 63)))
        field = rng.choice(["object_ref", "seed", "n_frames", "fps", "camera", "lighting"])
        cfg = dataclasses.replace(cfg, **{field: poison[int(rng.integers(len(poison)))]})
        validate_config(cfg)  # must not raise


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
