"""The one JSON codec: its guard, its getters, and a fuzz of every decoder.

The fuzz starts from a valid document per decoder, written by its own
writer (the row form for track sets), and draws one mutation:
truncated text, a value replaced by any JSON value (NaN and huge integers
included), a field retyped, a member deleted or an unknown member added.
Each case must either decode, and then its encoding must decode back
equal, or raise ``FormatError``; any other exception fails the test.  A
preset built in code must pass the same check as its decoded text, and a
preset that passes draws only values its fields' rules accept.
"""

import functools
import json
import math
import tempfile
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, configuration, given, settings
from hypothesis import strategies as st

from synthvid import jsondoc
from synthvid.camera_rig import generate_trajectory
from synthvid.captioner import (
    CaptionDomain,
    CaptionRegistry,
    ComposedCaption,
    ElementCaption,
    ElementKind,
    Granularity,
    real_caption,
)
from synthvid.dataset_mixer import (
    ManifestEntry,
    Source,
    entry_to_json,
    load_pool_dir,
    read_manifest,
    write_manifest,
)
from synthvid.fidelity_metrics import generate_tracks, tracks_from_json, tracks_to_json
from synthvid.flowlab import VelocityModel, load_checkpoint, save_checkpoint
from synthvid.jsondoc import FormatError
from synthvid.meshes import bounding_sphere, cube
from synthvid.param_sampler import (
    Categorical,
    Constant,
    DistributionPreset,
    PresetLibrary,
    Uniform,
    decode_preset,
    encode_preset,
    sample_config,
)
from synthvid.scene_config import (
    FIELDS,
    AnimationKind,
    EngineTarget,
    FocusPosition,
    FocusType,
    MovementType,
    ObjectAnimation,
    RenderQuality,
    SceneType,
    decode_config,
    encode_config,
)

from conftest import make_config

# Hypothesis caches the literals of the modules under test in its home
# directory, which is .hypothesis/ in the working directory unless set here
configuration.set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "synthvid-hypothesis")


# -- getters --


def test_error_message_names_source_and_field_path():
    doc = jsondoc.loads('{"a": {"b": [1, {"c": "x"}]}}', "f.json")
    with pytest.raises(FormatError, match=r"^f\.json: a\.b\[1\]\.c: expected a number$"):
        doc["a"]["b"].elements()[1]["c"].number()
    with pytest.raises(FormatError, match=r"^f\.json: a\.z: missing$"):
        doc["a"]["z"]
    with pytest.raises(FormatError, match=r"^f\.json: a: unknown field$"):
        doc.object(("b",))
    with pytest.raises(FormatError, match=r"^f\.json: document: expected a list$"):
        doc.elements()


@pytest.mark.parametrize("text, problem", [
    ("[1, 2", "Expecting ',' delimiter: line 1 column 6"),
    ("{\n  \"a\": tru\n}", "Expecting value: line 2 column 8"),
    ("[" * 100_000, "arrays or objects nest too deeply"),
    ("1" * 5000, "Exceeds the limit (4300 digits)"),
    (b"\xff{}", "'utf-8' codec can't decode byte 0xff"),
])
def test_unreadable_text_is_a_format_error(text, problem):
    with pytest.raises(FormatError) as err:
        jsondoc.loads(text, "f.json")
    assert str(err.value).startswith(f"f.json: {problem}")


@pytest.mark.parametrize("value, ok", [
    (1, True), (-2.5, True), (10 ** 300, True), (True, False), ("1", False), (None, False),
    (math.nan, False), (math.inf, False), (10 ** 400, False),
])
def test_number_must_be_finite(value, ok):
    field = jsondoc.Field(value, "f.json", "x")
    if ok:
        assert field.number() == float(value)
    else:
        with pytest.raises(FormatError, match=r"^f\.json: x: expected a (finite )?number$"):
            field.number()


def test_array_converts_a_good_array():
    arr = jsondoc.Field([[1, 2, 3], [4.5, 5, 6]], "f.json", "obs").array((-1, 3))
    assert arr.dtype == np.float64 and arr.tolist() == [[1, 2, 3], [4.5, 5, 6]]
    assert jsondoc.Field([], "f.json", "obs").array((-1, 3)).shape == (0, 3)


@pytest.mark.parametrize("value", [
    [[1, 2, 3], [4, 5]], [[1, 2, 3, 4]], [1, 2, 3], [["1", 2, 3]], [[1, None, 3]],
    [[1, math.nan, 3]], [[1, math.inf, 3]], [[1, 2 ** 70, 3]], [[True, False, True]],
    {"a": 1}, "123",
])
def test_array_rejects_bad_shape_dtype_or_values(value):
    with pytest.raises(FormatError, match=r"^f\.json: obs: expected a n x 3 array of numbers$"):
        jsondoc.Field(value, "f.json", "obs").array((-1, 3))


def test_writers_keep_their_two_forms():
    doc = {"schema": 1, "x": [1.5, None], "s": "é"}
    assert jsondoc.dumps(doc) == json.dumps(doc, indent=2) + "\n"
    assert jsondoc.dumps_line(doc) == json.dumps(doc)


def test_row_form_puts_each_member_and_list_item_on_a_line():
    doc = {"schema": 1, "x": [1.5, None], "s": "é", "e": [], "o": {"a": [1, 2]}}
    assert jsondoc.dumps_rows(doc) == (
        '{\n  "schema": 1,\n  "x": [\n    1.5,\n    null\n  ],\n  "s": "\\u00e9",\n'
        '  "e": [],\n  "o": {"a": [1, 2]}\n}\n')


# JSON objects as json.loads returns them: no NaN, which equals nothing
JSON_OBJECTS = st.dictionaries(st.text(max_size=4), st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=8), max_size=4)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(JSON_OBJECTS)
def test_row_form_reads_back_equal_and_re_encodes_identically(doc):
    text = jsondoc.dumps_rows(doc)
    assert json.loads(text) == doc
    assert jsondoc.dumps_rows(json.loads(text)) == text
    assert text.endswith("}\n") and text.count("\n") == 2 + len(doc) + sum(
        len(v) + 1 for v in doc.values() if type(v) is list and v)


# -- fuzz --

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=80)

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=5)

# legal words of every enum-like field, so a mutation can swap one legal value for another
WORDS = sorted({m.value for cls in (CaptionDomain, ElementKind, Granularity, Source,
                                    AnimationKind, FocusType, FocusPosition, MovementType,
                                    SceneType, RenderQuality, EngineTarget) for m in cls}
               | {"uniform", "categorical", "constant"})


def _values_like(value):
    """Values of the same JSON type as ``value``, with the edge cases drawn often."""
    if type(value) in (int, float):
        return st.integers() | st.floats() | st.sampled_from(
            [0, -1, 0.5, -0.5, 1e308, 10 ** 400, math.nan, math.inf, -math.inf])
    if type(value) is str:
        return st.text(max_size=6) | st.sampled_from(WORDS + [""])
    return JSON_VALUES


def _retypes(value):
    candidates = [None, True, 0, 0.5, "x", str(value), [value], {"value": value}]
    return [c for c in candidates if type(c) is not type(value)]


def _paths(value, prefix=()):
    yield prefix
    items = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from _paths(child, prefix + (key,))


@st.composite
def mutated(draw, text):
    """``text`` truncated, or its JSON with one value changed, retyped, deleted or added."""
    kind = draw(st.sampled_from(["truncate", "value", "retype", "delete", "add"]))
    if kind == "truncate":
        return text[:draw(st.integers(0, len(text) - 1))]
    doc = json.loads(text)
    path = draw(st.sampled_from(list(_paths(doc))))
    parent, key, target = None, None, doc
    for step in path:
        parent, key, target = target, step, target[step]
    if kind == "add":
        if not isinstance(target, dict):
            return text
        target[draw(st.text(min_size=1, max_size=4))] = draw(JSON_VALUES)
        return json.dumps(doc)
    if kind == "delete":
        if parent is None:
            return ""
        del parent[key]
        return json.dumps(doc)
    value = draw(_values_like(target) if kind == "value" else st.sampled_from(_retypes(target)))
    if parent is None:
        return json.dumps(value)
    parent[key] = value
    return json.dumps(doc)


def _holds_round_trip(decode, encode, text, same):
    try:
        decoded = decode(text)
    except FormatError:
        return
    again = decode(encode(decoded))
    assert same(again, decoded)
    assert encode(again) == encode(decoded)


@FUZZ
@given(st.data())
def test_fuzz_decode_config(data):
    text = encode_config(make_config(object_animation=ObjectAnimation.spin(30.0)))
    _holds_round_trip(decode_config, encode_config, data.draw(mutated(text)),
                      lambda a, b: a == b)


@FUZZ
@given(st.data())
def test_fuzz_decode_preset(data):
    text = encode_preset(PresetLibrary.default().get("forward_following"))
    _holds_round_trip(decode_preset, encode_preset, data.draw(mutated(text)),
                      lambda a, b: a == b)


# preset values: every JSON scalar, the legal words, and the edge cases of each field type
PRESET_VALUES = (st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
                 | st.sampled_from(WORDS + [0, -1, -2, 0.5, 24.5, 1e308, 10 ** 400, math.nan]))


@st.composite
def distributions(draw):
    kind = draw(st.sampled_from(["uniform", "categorical", "constant"]))
    if kind == "constant":
        return Constant(draw(PRESET_VALUES))
    try:
        if kind == "uniform":
            return Uniform(draw(PRESET_VALUES), draw(PRESET_VALUES))
        weights = st.floats(0.0, 4.0) | st.sampled_from([1, True, math.inf, math.nan])
        return Categorical(tuple(draw(st.lists(st.tuples(PRESET_VALUES, weights),
                                               min_size=1, max_size=3))))
    except (TypeError, ValueError):  # bounds that do not compare, or weights summing to 0
        assume(False)


@functools.lru_cache(maxsize=1)
def _random_params():
    return PresetLibrary.default().get("random").params


# the rules across fields, which a preset's field table check cannot see
CROSS_FIELD = ("camera.initial_position: must not coincide", "lighting: ", "render: ")


@FUZZ
@given(st.sampled_from(list(FIELDS)), distributions())
def test_fuzz_preset_built_in_code_passes_the_decoder_check(field, dist):
    params = {**_random_params(), field: dist}
    text = encode_preset(types.SimpleNamespace(name="fuzz", params=params))
    try:
        decode_preset(text)
        decodes = True
    except FormatError:
        decodes = False
    try:
        preset = DistributionPreset("fuzz", params)
        builds = True
    except FormatError:
        builds = False
    assert builds == decodes
    if not builds:
        return
    for seed in range(3):  # a preset that builds draws only values its fields' rules accept
        try:
            sample_config(preset, seed)
        except ValueError as exc:
            assert all(line.startswith(CROSS_FIELD) for line in str(exc).splitlines()[1:]), exc


@FUZZ
@given(st.data())
def test_fuzz_caption_registry(data):
    registry = CaptionRegistry()
    registry.add(ElementCaption(ElementKind.OBJECT, "cube", "a cube"))
    registry.add(ElementCaption(ElementKind.CAMERA, "Spin", "spin shot.",
                                Granularity.FINE_GRAINED))
    _holds_round_trip(CaptionRegistry.from_json, CaptionRegistry.to_json,
                      data.draw(mutated(registry.to_json())),
                      lambda a, b: a.entries == b.entries)


@functools.lru_cache(maxsize=1)
def _small_track_set():
    mesh = cube()
    traj = generate_trajectory(make_config(n_frames=4), *bounding_sphere(mesh))
    return tracks_to_json(generate_tracks(mesh, traj, 40, 30, 0.5, seed=1))


# a rotation near the float limit overflows in the orthonormality check, which rejects it
@pytest.mark.filterwarnings("ignore:overflow encountered in matmul:RuntimeWarning")
@FUZZ
@given(st.data())
def test_fuzz_tracks_from_json(data):
    _holds_round_trip(tracks_from_json, tracks_to_json, data.draw(mutated(_small_track_set())),
                      lambda a, b: tracks_to_json(a) == tracks_to_json(b))


@FUZZ
@given(st.data())
def test_fuzz_checkpoint_header(tmp_path_factory, data):
    work = tmp_path_factory.mktemp("ckpt")
    save_checkpoint(VelocityModel(data_dim=2, cond_dim=1, hidden=3, seed=5), work / "a.ckpt",
                    seed=5, train_steps=7)
    head, payload = (work / "a.ckpt").read_bytes().split(b"\n", 1)

    def decode(text):
        (work / "b.ckpt").write_bytes(text.encode("ascii") + b"\n" + payload)
        return load_checkpoint(work / "b.ckpt")

    def encode(decoded):
        model, header = decoded
        save_checkpoint(model, work / "c.ckpt", seed=header["seed"],
                        train_steps=header["train_steps"])
        return (work / "c.ckpt").read_bytes().split(b"\n", 1)[0].decode("ascii")

    _holds_round_trip(decode, encode, data.draw(mutated(head.decode("ascii"))),
                      lambda a, b: a[1] == b[1] and np.array_equal(a[0].flat, b[0].flat))


@FUZZ
@given(st.data())
def test_fuzz_manifest_line(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("manifest") / "m.ndjson"
    entry = ManifestEntry(uri="videos/clip_000", source=Source.SYNTHETIC, caption=ComposedCaption(
        "a cube spin shot.", ("animated", "rendered"), "animated rendered"))

    def decode(text):
        path.write_text(text + "\n")
        return read_manifest(path)

    def encode(entries):
        write_manifest(entries, path)
        return path.read_text()

    _holds_round_trip(decode, encode, data.draw(mutated(entry_to_json(entry))),
                      lambda a, b: a == b)


@FUZZ
@given(st.data())
def test_fuzz_pool_entry(tmp_path_factory, data):
    pool = tmp_path_factory.mktemp("pool")

    def decode(text):
        (pool / "clip.caption.json").write_text(text)
        return load_pool_dir(pool)

    def encode(entries):
        (uri, caption), = entries
        return jsondoc.dumps({"uri": uri, "caption": caption.to_json_dict()})

    entry = {"uri": "real/clip_000", "caption": real_caption("a dog").to_json_dict()}
    _holds_round_trip(decode, encode, data.draw(mutated(jsondoc.dumps(entry))),
                      lambda a, b: a == b)
