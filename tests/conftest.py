import copy

import numpy as np
import pytest

from synthvid.scene_config import (
    CameraSpec,
    EnvSpec,
    FocusPosition,
    FocusType,
    Light,
    LightingSpec,
    MovementType,
    ObjectAnimation,
    RenderSpec,
    SceneConfig,
    SceneType,
)


def make_config(**overrides) -> SceneConfig:
    """A small, valid baseline config; keyword overrides patch any field."""
    camera = overrides.pop("camera", None) or CameraSpec(
        focus_type=overrides.pop("focus_type", FocusType.FOLLOW),
        focus_position=overrides.pop("focus_position", FocusPosition.CENTER),
        movement_type=overrides.pop("movement_type", MovementType.SPIN),
        movement_value=overrides.pop("movement_value", 360.0),
        initial_position=overrides.pop("initial_position", (0.0, -6.0, 1.5)),
        coverage=overrides.pop("coverage", 0.5),
    )
    fields = dict(
        object_ref="sphere",
        object_animation=ObjectAnimation.none(),
        camera=camera,
        lighting=LightingSpec(
            lights=(Light(position=(3.0, -3.0, 5.0), color_temp=6500.0, intensity=1.0),),
            ambient_intensity=0.2,
        ),
        environment=EnvSpec(SceneType.EMPTY, background_color=(0.05, 0.05, 0.08, 1.0)),
        render=RenderSpec(width=160, height=120),
        seed=1,
        n_frames=48,
        fps=24,
    )
    fields.update(overrides)
    return SceneConfig(**fields)


def _member_paths(value, prefix=()):
    """The path of every member and list item under ``value``, parents first."""
    items = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _member_paths(child, prefix + (key,))


def mutate_members(doc, rng, values) -> None:
    """Replace, delete or add (beside it, or before it in a list) one to three
    members or list items of the JSON document ``doc``, in place, with
    copies of ``values`` drawn by ``rng``."""
    for _ in range(int(rng.integers(1, 4))):
        paths = list(_member_paths(doc))
        *head, key = paths[int(rng.integers(len(paths)))]
        parent = doc
        for step in head:
            parent = parent[step]
        value = copy.deepcopy(values[int(rng.integers(len(values)))])
        action = int(rng.integers(3))
        if action == 0:
            parent[key] = value
        elif action == 1:
            del parent[key]
        elif isinstance(parent, dict):
            parent[f"extra_{key}"] = value
        else:
            parent.insert(key, value)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
