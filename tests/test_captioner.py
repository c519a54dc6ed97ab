import itertools

import pytest

from synthvid.captioner import (
    CaptionDomain,
    CaptionRegistry,
    ElementCaption,
    ElementKind,
    Granularity,
    KindMismatchError,
    MissingEntryError,
    SPECIAL_TAGS,
    TagMode,
    caption_count,
    caption_for_config,
    compose_caption,
    default_registry,
    real_caption,
)
from synthvid.scene_config import EnvSpec, MovementType, SceneType

from conftest import make_config


def elements(motion=False):
    obj = ElementCaption(ElementKind.OBJECT, "sphere", "a sphere")
    scene = ElementCaption(ElementKind.SCENE, "Empty", "on a plain background")
    cam = ElementCaption(ElementKind.CAMERA, "Spin", "spin shot.")
    mot = ElementCaption(ElementKind.MOTION, "spin", "spinning slowly") if motion else None
    return obj, scene, cam, mot


def test_untagged_composition():
    obj, scene, cam, _ = elements()
    caption = compose_caption(obj, scene, cam, tag_mode=TagMode.NONE)
    assert caption.text == "a sphere on a plain background spin shot."
    assert caption.tags == ()
    assert caption.negative_text == ""
    assert caption.domain is CaptionDomain.SYNTHETIC


def test_tags_are_prepended():
    obj, scene, cam, _ = elements()
    caption = compose_caption(obj, scene, cam, tag_mode=TagMode.TAGS)
    assert caption.text.startswith("animated rendered ")
    assert caption.tags == SPECIAL_TAGS
    assert caption.negative_text == ""


def test_tags_plus_negative_prompt():
    obj, scene, cam, _ = elements()
    caption = compose_caption(obj, scene, cam, tag_mode=TagMode.TAGS_PLUS_NEGATIVE)
    assert caption.negative_text == "animated rendered"


def test_motion_slot_between_object_and_scene():
    obj, scene, cam, mot = elements(motion=True)
    caption = compose_caption(obj, scene, cam, mot)
    assert caption.text == "a sphere spinning slowly on a plain background spin shot."


def test_kind_mismatch_is_rejected():
    obj, scene, cam, _ = elements()
    with pytest.raises(KindMismatchError):
        compose_caption(scene, obj, cam)


def test_caption_count_formula():
    assert caption_count(3, 2, 4) == (9, 24)
    assert caption_count(1, 1, 1) == (3, 1)
    assert caption_count(10, 10, 10) == (30, 1000)


def test_caption_count_rejects_zero():
    with pytest.raises(ValueError):
        caption_count(0, 1, 1)


# -- registry --


def test_caption_for_config_deterministic():
    registry = default_registry()
    cfg = make_config()
    a = caption_for_config(cfg, registry, tag_mode=TagMode.TAGS)
    b = caption_for_config(cfg, registry, tag_mode=TagMode.TAGS)
    assert a == b


def test_caption_uses_movement_keyed_camera_text():
    registry = default_registry()
    cfg = make_config(movement_type=MovementType.SPIN)
    caption = caption_for_config(cfg, registry)
    spin_text = registry.get(ElementKind.CAMERA, "Spin", Granularity.GENERIC).text
    assert spin_text in caption.text


def test_granularities_select_different_texts():
    registry = default_registry()
    cfg = make_config()
    generic = caption_for_config(cfg, registry, granularity=Granularity.GENERIC)
    fine = caption_for_config(cfg, registry, granularity=Granularity.FINE_GRAINED)
    assert generic.text != fine.text


def test_missing_entry_error_names_the_key():
    registry = default_registry()
    cfg = make_config(object_ref="teapot")
    with pytest.raises(MissingEntryError) as err:
        caption_for_config(cfg, registry)
    assert err.value.key == (ElementKind.OBJECT, "teapot", Granularity.GENERIC)


def test_registry_json_round_trip():
    registry = default_registry()
    loaded = CaptionRegistry.from_json(registry.to_json())
    assert loaded.entries == registry.entries


def test_registry_rejects_duplicates():
    registry = CaptionRegistry()
    registry.add(ElementCaption(ElementKind.OBJECT, "x", "an x"))
    with pytest.raises(ValueError):
        registry.add(ElementCaption(ElementKind.OBJECT, "x", "another x"))


# -- counting and hygiene invariants --


def test_grid_touches_exactly_n_plus_m_plus_c_entries():
    registry = default_registry()
    registry.accessed.clear()
    objects = ("cube", "sphere", "torus")
    scenes = (SceneType.BASIC, SceneType.EMPTY)
    cameras = (MovementType.SPIN, MovementType.DOLLY, MovementType.PAN, MovementType.ZOOM)
    captions = set()
    for obj, scene, movement in itertools.product(objects, scenes, cameras):
        env = EnvSpec(scene, scene_color=(0.5, 0.5, 0.5)) if scene is SceneType.BASIC \
            else EnvSpec(scene, background_color=(0.0, 0.0, 0.0, 1.0))
        cfg = make_config(object_ref=obj, environment=env, movement_type=movement)
        captions.add(caption_for_config(cfg, registry).text)
    assert len(registry.accessed) == len(objects) + len(scenes) + len(cameras)
    assert len(captions) == len(objects) * len(scenes) * len(cameras)


def test_element_text_identical_across_compositions():
    registry = default_registry()
    sphere_text = registry.get(ElementKind.OBJECT, "sphere", Granularity.GENERIC).text
    for movement in (MovementType.SPIN, MovementType.DOLLY, MovementType.ZOOM):
        caption = caption_for_config(make_config(movement_type=movement), registry)
        assert sphere_text in caption.text


def test_tag_hygiene():
    assert real_caption("a real clip").tags == ()
    obj, scene, cam, _ = elements()
    for mode in (TagMode.TAGS, TagMode.TAGS_PLUS_NEGATIVE):
        caption = compose_caption(obj, scene, cam, tag_mode=mode)
        for tag in SPECIAL_TAGS:
            assert tag in caption.tags
            assert tag in caption.text
