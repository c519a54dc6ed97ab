"""Compositional captions for synthetic clips.

Scenes are assembled from reusable elements (object, scene, camera move,
optional object motion), so captions are too: each element gets captioned
once, and clip captions are deterministic merges of the element texts.
Captioning N objects x M scenes x C camera moves therefore costs N + M + C
element captions instead of N * M * C clip captions.

Synthetic captions can carry special tags that mark the rendered domain;
real-footage captions never do.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import NamedTuple

from . import jsondoc
from .scene_config import AnimationKind, SceneConfig

__all__ = [
    "CaptionCounts",
    "CaptionDomain",
    "CaptionRegistry",
    "ComposedCaption",
    "ElementCaption",
    "ElementKind",
    "Granularity",
    "KindMismatchError",
    "MissingEntryError",
    "SPECIAL_TAGS",
    "TagMode",
    "caption_count",
    "caption_for_config",
    "compose_caption",
    "default_registry",
    "real_caption",
]

# The only domain markers this pipeline embeds in synthetic captions.
SPECIAL_TAGS = ("animated", "rendered")


class ElementKind(str, enum.Enum):
    OBJECT = "Object"
    SCENE = "Scene"
    CAMERA = "Camera"
    MOTION = "Motion"


class Granularity(str, enum.Enum):
    GENERIC = "Generic"
    FINE_GRAINED = "FineGrained"


class TagMode(str, enum.Enum):
    NONE = "none"
    TAGS = "tags"
    TAGS_PLUS_NEGATIVE = "tags+np"


class CaptionDomain(str, enum.Enum):
    SYNTHETIC = "Synthetic"
    REAL = "Real"


class KindMismatchError(ValueError):
    pass


class MissingEntryError(KeyError):
    def __init__(self, kind: ElementKind, element_id: str, granularity: Granularity):
        self.key = (kind, element_id, granularity)
        super().__init__(f"no registry entry for ({kind.value}, {element_id!r}, "
                         f"{granularity.value})")


@dataclass(frozen=True)
class ElementCaption:
    kind: ElementKind
    id: str
    text: str
    granularity: Granularity = Granularity.GENERIC

    def __post_init__(self):
        if not self.text:
            raise ValueError("element caption text must be nonempty")


@dataclass(frozen=True)
class ComposedCaption:
    text: str
    tags: tuple[str, ...] = ()
    negative_text: str = ""
    domain: CaptionDomain = CaptionDomain.SYNTHETIC

    def to_json_dict(self) -> dict:
        return {
            "text": self.text,
            "tags": list(self.tags),
            "negative_text": self.negative_text,
            "domain": self.domain.value,
        }

    @classmethod
    def from_json_dict(cls, doc: jsondoc.Field) -> "ComposedCaption":
        """Inverse of :meth:`to_json_dict`; only ``text`` is required."""
        doc.object(("text",), ("tags", "negative_text", "domain"))
        return cls(
            text=doc["text"].string(),
            tags=tuple(tag.string() for tag in doc.get("tags", []).elements()),
            negative_text=doc.get("negative_text", "").string(),
            domain=doc.get("domain", CaptionDomain.SYNTHETIC.value).enum(CaptionDomain),
        )


def real_caption(text: str) -> ComposedCaption:
    """Caption for real footage: plain text, never tagged."""
    return ComposedCaption(text=text, tags=(), negative_text="",
                           domain=CaptionDomain.REAL)


def _expect_kind(element: ElementCaption, kind: ElementKind, slot: str):
    if element.kind is not kind:
        raise KindMismatchError(
            f"{slot} slot needs a {kind.value} element, got {element.kind.value}")


def compose_caption(object_element: ElementCaption, scene_element: ElementCaption,
                    camera_element: ElementCaption,
                    motion_element: ElementCaption | None = None,
                    tag_mode: TagMode = TagMode.NONE) -> ComposedCaption:
    """Merge element captions into one synthetic clip caption.

    The merge template is fixed: ``<tags> <object> <motion> <scene> <camera>``
    joined by single spaces (tags first, so the domain markers lead the
    caption).  ``tags+np`` additionally repeats the tag string as the
    negative prompt.
    """
    _expect_kind(object_element, ElementKind.OBJECT, "object")
    _expect_kind(scene_element, ElementKind.SCENE, "scene")
    _expect_kind(camera_element, ElementKind.CAMERA, "camera")
    if motion_element is not None:
        _expect_kind(motion_element, ElementKind.MOTION, "motion")

    tags = SPECIAL_TAGS if tag_mode in (TagMode.TAGS, TagMode.TAGS_PLUS_NEGATIVE) else ()
    parts = list(tags) + [object_element.text]
    if motion_element is not None:
        parts.append(motion_element.text)
    parts += [scene_element.text, camera_element.text]

    negative = " ".join(SPECIAL_TAGS) if tag_mode is TagMode.TAGS_PLUS_NEGATIVE else ""
    return ComposedCaption(
        text=" ".join(parts),
        tags=tuple(tags),
        negative_text=negative,
        domain=CaptionDomain.SYNTHETIC,
    )


class CaptionCounts(NamedTuple):
    compositional: int  # element captions to write: N + M + C
    per_video: int      # clip captions a flat pipeline would need: N * M * C


def caption_count(n_objects: int, m_scenes: int, c_cameras: int) -> CaptionCounts:
    if min(n_objects, m_scenes, c_cameras) < 1:
        raise ValueError("element counts must be >= 1")
    return CaptionCounts(
        compositional=n_objects + m_scenes + c_cameras,
        per_video=n_objects * m_scenes * c_cameras,
    )


# ---------------------------------------------------------------------------
# registry


@dataclass
class CaptionRegistry:
    """Element texts keyed by (kind, id, granularity), with an access log.

    The access log records which entries were actually read, which lets
    tests assert the N + M + C counting property directly.
    """

    entries: dict = field(default_factory=dict)
    accessed: set = field(default_factory=set)

    def add(self, element: ElementCaption) -> None:
        key = (element.kind, element.id, element.granularity)
        if key in self.entries:
            raise ValueError(f"duplicate registry entry {key}")
        self.entries[key] = element.text

    def get(self, kind: ElementKind, element_id: str,
            granularity: Granularity) -> ElementCaption:
        key = (kind, element_id, granularity)
        if key not in self.entries:
            raise MissingEntryError(kind, element_id, granularity)
        self.accessed.add(key)
        return ElementCaption(kind=kind, id=element_id, text=self.entries[key],
                              granularity=granularity)

    def reset_access_log(self) -> None:
        self.accessed.clear()

    # -- strict JSON (nested maps: kind -> id -> granularity -> text) --

    def to_json(self) -> str:
        doc: dict = {"schema": 1, "entries": {}}
        for (kind, element_id, gran), text in sorted(
                self.entries.items(), key=lambda kv: (kv[0][0].value, kv[0][1], kv[0][2].value)):
            doc["entries"].setdefault(kind.value, {}).setdefault(element_id, {})[gran.value] = text
        return jsondoc.dumps(doc)

    @classmethod
    def from_json(cls, text: str | bytes, source: str = "registry") -> "CaptionRegistry":
        """Parse a schema-1 registry read from ``source``; a malformed document
        raises :class:`~synthvid.jsondoc.FormatError` naming ``source`` and the field."""
        doc = jsondoc.loads(text, source).object(("schema",), ("entries",)).schema()
        registry = cls()
        for kind, by_id in doc.get("entries", {}).members():
            for element_id, by_gran in by_id.members():
                for gran, entry in by_gran.members():
                    registry.add(entry.make(
                        ElementCaption, kind=kind.enum(ElementKind), id=element_id.value,
                        text=entry.string(), granularity=gran.enum(Granularity)))
        return registry


def caption_for_config(cfg: SceneConfig, registry: CaptionRegistry,
                       granularity: Granularity = Granularity.GENERIC,
                       tag_mode: TagMode = TagMode.NONE) -> ComposedCaption:
    """Caption one scene config from registry elements.

    Elements are keyed by the config itself: object by ``object_ref``, scene
    by the environment type, camera by the movement type, and motion by the
    animation kind (omitted for static objects).
    """
    obj = registry.get(ElementKind.OBJECT, cfg.object_ref, granularity)
    scene = registry.get(ElementKind.SCENE, cfg.environment.scene_type.value, granularity)
    camera = registry.get(ElementKind.CAMERA, cfg.camera.movement_type.value, granularity)
    motion = None
    if cfg.object_animation.kind is not AnimationKind.NONE:
        motion = registry.get(ElementKind.MOTION, cfg.object_animation.kind.value, granularity)
    return compose_caption(obj, scene, camera, motion, tag_mode=tag_mode)


# ---------------------------------------------------------------------------
# built-in registry for the demo pipeline

_DEFAULT_ENTRIES = {
    (ElementKind.OBJECT, "cube", Granularity.GENERIC): "a cube",
    (ElementKind.OBJECT, "cube", Granularity.FINE_GRAINED):
        "a rigid six-sided cube with crisp edges and matte faces",
    (ElementKind.OBJECT, "sphere", Granularity.GENERIC): "a sphere",
    (ElementKind.OBJECT, "sphere", Granularity.FINE_GRAINED):
        "a smooth gray sphere with even shading",
    (ElementKind.OBJECT, "torus", Granularity.GENERIC): "a torus",
    (ElementKind.OBJECT, "torus", Granularity.FINE_GRAINED):
        "a donut-shaped torus resting flat, its hole clearly visible",
    (ElementKind.OBJECT, "cylinder", Granularity.GENERIC): "a cylinder",
    (ElementKind.OBJECT, "cylinder", Granularity.FINE_GRAINED):
        "an upright cylinder with flat circular caps",
    (ElementKind.SCENE, "Basic", Granularity.GENERIC): "in a plain room",
    (ElementKind.SCENE, "Basic", Granularity.FINE_GRAINED):
        "inside a bare single-color room lit by small lamps",
    (ElementKind.SCENE, "Empty", Granularity.GENERIC): "on a solid color background",
    (ElementKind.SCENE, "Empty", Granularity.FINE_GRAINED):
        "floating over a seamless solid-color backdrop with nothing else in frame",
    (ElementKind.CAMERA, "Truck", Granularity.GENERIC): "camera trucks sideways.",
    (ElementKind.CAMERA, "Truck", Granularity.FINE_GRAINED):
        "the camera slides sideways at constant speed while holding its aim.",
    (ElementKind.CAMERA, "Dolly", Granularity.GENERIC): "camera dollies forward.",
    (ElementKind.CAMERA, "Dolly", Granularity.FINE_GRAINED):
        "the camera pushes straight toward the subject in one smooth dolly move.",
    (ElementKind.CAMERA, "Pedestal", Granularity.GENERIC): "camera rises vertically.",
    (ElementKind.CAMERA, "Pedestal", Granularity.FINE_GRAINED):
        "the camera climbs straight up on a pedestal move, keeping the subject framed.",
    (ElementKind.CAMERA, "Tilt", Granularity.GENERIC): "camera tilts.",
    (ElementKind.CAMERA, "Tilt", Granularity.FINE_GRAINED):
        "the camera tilts its view up from a fixed position.",
    (ElementKind.CAMERA, "Pan", Granularity.GENERIC): "camera pans.",
    (ElementKind.CAMERA, "Pan", Granularity.FINE_GRAINED):
        "the camera pans across the scene from a fixed position.",
    (ElementKind.CAMERA, "Spin", Granularity.GENERIC): "spin shot.",
    (ElementKind.CAMERA, "Spin", Granularity.FINE_GRAINED):
        "the camera orbits all the way around the subject at constant distance.",
    (ElementKind.CAMERA, "Following", Granularity.GENERIC): "following shot.",
    (ElementKind.CAMERA, "Following", Granularity.FINE_GRAINED):
        "the camera tracks alongside the subject, holding a constant offset.",
    (ElementKind.CAMERA, "Zoom", Granularity.GENERIC): "camera zooms in.",
    (ElementKind.CAMERA, "Zoom", Granularity.FINE_GRAINED):
        "the lens zooms smoothly, narrowing the field of view onto the subject.",
    (ElementKind.MOTION, "spin", Granularity.GENERIC): "spinning in place",
    (ElementKind.MOTION, "spin", Granularity.FINE_GRAINED):
        "rotating steadily about its own vertical axis",
    (ElementKind.MOTION, "translate", Granularity.GENERIC): "drifting through the scene",
    (ElementKind.MOTION, "translate", Granularity.FINE_GRAINED):
        "gliding along a straight line at constant velocity",
}


def default_registry() -> CaptionRegistry:
    registry = CaptionRegistry()
    for (kind, element_id, gran), text in _DEFAULT_ENTRIES.items():
        registry.add(ElementCaption(kind=kind, id=element_id, text=text, granularity=gran))
    return registry
