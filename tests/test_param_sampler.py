import collections
import hashlib
import json
import re
import types

import pytest

from synthvid.jsondoc import FormatError
from synthvid.param_sampler import (
    Categorical,
    Constant,
    DistributionPreset,
    PresetLibrary,
    Uniform,
    decode_preset,
    encode_preset,
    sample_batch,
    sample_config,
)
from synthvid.scene_config import FocusType, MovementType, encode_config, validate_config
from synthvid.seeding import derive_seed


@pytest.fixture(scope="module")
def library():
    return PresetLibrary.default()


def test_builtin_presets_present(library):
    for name in ("random", "forward_only", "forward_following"):
        library.get(name)


def test_sampling_is_deterministic(library):
    preset = library.get("random")
    assert sample_config(preset, 42) == sample_config(preset, 42)


def test_different_seeds_differ(library):
    preset = library.get("random")
    assert sample_config(preset, 1) != sample_config(preset, 2)


def test_sampled_configs_validate(library):
    preset = library.get("random")
    for seed in range(300):
        assert validate_config(sample_config(preset, seed)).ok


def test_constant_movement_type_pins_every_sample(library):
    params = dict(library.get("random").params)
    params["camera.movement_type"] = Constant("Spin")
    preset = DistributionPreset("spin_only", params)
    for seed in range(50):
        assert sample_config(preset, seed).camera.movement_type is MovementType.SPIN


def test_forward_following_movements(library):
    preset = library.get("forward_following")
    seen = collections.Counter()
    for seed in range(400):
        cfg = sample_config(preset, seed)
        assert cfg.camera.movement_type in (MovementType.DOLLY, MovementType.FOLLOWING)
        seen[cfg.camera.movement_type] += 1
    # both halves of the declared 50/50 split actually occur
    assert seen[MovementType.DOLLY] > 100
    assert seen[MovementType.FOLLOWING] > 100


def test_forward_only_is_all_dolly(library):
    preset = library.get("forward_only")
    for seed in range(50):
        assert sample_config(preset, seed).camera.movement_type is MovementType.DOLLY


def test_tilt_pan_forced_to_fixed_focus(library):
    preset = library.get("random")
    for seed in range(2000):
        cfg = sample_config(preset, seed)
        if cfg.camera.movement_type in (MovementType.TILT, MovementType.PAN):
            assert cfg.camera.focus_type is FocusType.FIXED


def test_field_streams_are_independent_of_other_fields(library):
    # pinning one field must not perturb any other field's draw for a seed
    base = library.get("random")
    pinned = dict(base.params)
    pinned["render.quality"] = Constant("High")
    preset = DistributionPreset("pinned", pinned)
    for seed in (3, 99, 12345):
        a, b = sample_config(base, seed), sample_config(preset, seed)
        assert a.camera == b.camera
        assert a.lighting == b.lighting
        assert a.n_frames == b.n_frames


# SHA-256 over encode_config(sample_config(preset, seed)) for seeds 0-199.  Any
# change to a field's stream label or draws changes these digests; such a
# change needs an explicit stream-version bump, not a new digest.
@pytest.mark.parametrize("name, digest", [
    ("random", "fa5795b354c7c25ba1511783ce78cbb7135ce2a9a1372f67081534f04bd26cea"),
    ("forward_only", "5d735301e778f7d6cfb5bcc0594573e58016076e250a0bd0da9fe183c61860f0"),
    ("forward_following", "df92cecb91ac1a37ea49c558322c6c175a776e9f15dd85d7017b55267046f8de"),
])
def test_sampled_configs_are_pinned(library, name, digest):
    h = hashlib.sha256()
    for seed in range(200):
        h.update(encode_config(sample_config(library.get(name), seed)).encode())
    assert h.hexdigest() == digest


def test_batch_element_matches_derived_seed(library):
    preset = library.get("random")
    batch = sample_batch(preset, base_seed=7, count=5)
    assert len(batch) == 5
    for i, cfg in enumerate(batch):
        assert cfg == sample_config(preset, derive_seed(7, i))


def test_batches_are_reproducible(library):
    preset = library.get("random")
    assert sample_batch(preset, 11, 20) == sample_batch(preset, 11, 20)


def test_count_must_be_positive(library):
    with pytest.raises(ValueError):
        sample_batch(library.get("random"), 0, 0)


def test_movement_type_frequencies_within_3_sigma(library):
    # DERIVED oracle: multinomial expectation for 8 equally weighted choices
    preset = library.get("random")
    n = 10_000
    counts = collections.Counter(
        sample_config(preset, derive_seed(99, i)).camera.movement_type for i in range(n)
    )
    p = 1.0 / len(MovementType)
    expected = n * p
    sigma = (n * p * (1 - p)) ** 0.5
    for movement in MovementType:
        assert abs(counts[movement] - expected) <= 3 * sigma, (movement, counts[movement])

    # chi-square goodness of fit; 24.322 is the 0.999 quantile at 7 dof,
    # so p > 0.001 means the statistic stays below it
    chi2 = sum((counts[m] - expected) ** 2 / expected for m in MovementType)
    assert chi2 < 24.322


def test_animation_kind_frequencies_within_3_sigma(library):
    preset = library.get("random")
    n = 10_000
    kinds = collections.Counter(
        sample_config(preset, derive_seed(123, i)).object_animation.kind.value
        for i in range(n)
    )
    for kind, p in (("none", 0.5), ("spin", 0.3), ("translate", 0.2)):
        sigma = (n * p * (1 - p)) ** 0.5
        assert abs(kinds[kind] - n * p) <= 3 * sigma, (kind, kinds[kind])


# -- preset validation and serialization --


def test_preset_requires_all_fields():
    with pytest.raises(ValueError, match="missing"):
        DistributionPreset("partial", {"n_frames": Uniform(2, 10)})


def test_categorical_rejects_bad_weights():
    with pytest.raises(ValueError):
        Categorical((("a", -1.0),))
    with pytest.raises(ValueError):
        Categorical((("a", 0.0), ("b", 0.0)))


def test_uniform_rejects_empty_range():
    with pytest.raises(ValueError):
        Uniform(2.0, 1.0)


def test_preset_json_round_trip(library):
    preset = library.get("forward_following")
    decoded = decode_preset(encode_preset(preset))
    assert decoded.name == preset.name
    for seed in (5, 77):
        assert sample_config(decoded, seed) == sample_config(preset, seed)


@pytest.mark.parametrize("field, spec, problem", [
    ("fps", {"kind": "constant", "value": "fast"}, "fps.value: expected an integer, got 'fast'"),
    ("n_frames", {"kind": "uniform", "low": 24.5, "high": 48},
     "n_frames.low: expected an integer, got 24.5"),
    ("camera.movement_type", {"kind": "constant", "value": 3},
     "camera.movement_type.value: 3 is not a legal value (expected one of: "
     + ", ".join(m.value for m in MovementType) + ")"),
    ("camera.movement_type",
     {"kind": "categorical", "weights": [["Dolly", 1.0], ["Sideways", 1.0]]},
     "camera.movement_type.weights[1][0]: 'Sideways' is not a legal value"),
    ("object_ref", {"kind": "uniform", "low": 0, "high": 1}, "object_ref.low: expected a string"),
    ("camera.coverage", {"kind": "categorical", "weights": [["wide", 1.0]]},
     "camera.coverage.weights[0][0]: expected a number"),
])
def test_preset_value_outside_its_field_kind_names_file_and_field(library, field, spec, problem):
    doc = json.loads(encode_preset(library.get("random")))
    doc["params"][field] = spec
    with pytest.raises(FormatError, match="^" + re.escape(f"custom.json: params.{problem}")):
        decode_preset(json.dumps(doc), "custom.json")


@pytest.mark.parametrize("field, dist, problem", [
    ("fps", Constant("fast"), "fps.value: expected an integer, got 'fast'"),
    ("camera.movement_type", Constant(3), "camera.movement_type.value: 3 is not a legal value"),
    ("lighting.n_lights", Constant(-2),
     "lighting.n_lights.value: must be between 0 and 2 lights, got -2"),
    ("lighting.n_lights", Categorical(((1, 0.5), (-1, 0.5))),
     "lighting.n_lights.weights[1][0]: must be between 0 and 2 lights, got -1"),
    ("render.width", Uniform(-4, 160), "render.width.low: must be a positive integer, got -4"),
    ("camera.coverage", 0.5, "camera.coverage: expected a JSON object"),
])
def test_preset_built_in_code_is_checked_like_a_decoded_one(library, field, dist, problem):
    params = {**library.get("random").params, field: dist}
    with pytest.raises(FormatError, match="^" + re.escape(f"preset 'py': params.{problem}")):
        library.add(DistributionPreset("py", params))
    assert "py" not in library.presets


def test_decoded_negative_light_count_names_file_and_field(library):
    doc = json.loads(encode_preset(library.get("random")))
    doc["params"]["lighting.n_lights"] = {"kind": "constant", "value": -2}
    with pytest.raises(FormatError, match="^" + re.escape(
            "custom.json: params.lighting.n_lights.value: "
            "must be between 0 and 2 lights, got -2")):
        decode_preset(json.dumps(doc), "custom.json")


@pytest.mark.parametrize("field, dist, problem", [
    ("fps", Constant(0), "fps.value: must be an integer in [1, 120], got 0"),
    ("fps", Constant(121), "fps.value: must be an integer in [1, 120], got 121"),
    ("render.width", Uniform(0, 160), "render.width.low: must be a positive integer, got 0"),
    ("camera.coverage", Uniform(0.5, 1.5), "camera.coverage.high: must lie in (0, 1], got 1.5"),
    ("camera.coverage", Uniform(0, 0.5), "camera.coverage.low: must lie in (0, 1], got 0"),
    ("lighting.n_lights", Categorical(((1, 0.5), (3, 0.5))),
     "lighting.n_lights.weights[1][0]: must be between 0 and 2 lights, got 3"),
    ("lighting.color_temp", Uniform(500.0, 2000.0),
     "lighting.color_temp.low: must lie in [1000, 12000] Kelvin, got 500.0"),
    ("environment.scene_color.g", Uniform(0.5, 1.25),
     "environment.scene_color.g.high: must lie in [0, 1], got 1.25"),
    ("n_frames", Uniform(2, 1e308),
     "n_frames.high: a uniform bound must lie in [-2**53, 2**53], got 1e+308"),
])
def test_out_of_range_preset_names_preset_or_file_and_field(library, field, dist, problem):
    params = {**library.get("random").params, field: dist}
    with pytest.raises(FormatError, match="^" + re.escape(f"preset 'z': params.{problem}") + "$"):
        DistributionPreset("z", params)
    text = encode_preset(types.SimpleNamespace(name="z", params=params))
    with pytest.raises(FormatError, match="^" + re.escape(f"custom.json: params.{problem}") + "$"):
        decode_preset(text, "custom.json")


def test_preset_with_an_unknown_field_names_it(library):
    params = {**library.get("random").params, "camera.roll": Constant(0.0)}
    with pytest.raises(FormatError, match=r"^preset 'py': params\.camera\.roll: unknown field$"):
        DistributionPreset("py", params)


def test_library_protects_builtins(library):
    with pytest.raises(ValueError):
        library.add(DistributionPreset("random", dict(library.get("random").params)))


def test_unknown_preset_error_names_known(library):
    with pytest.raises(KeyError, match="forward_only"):
        library.get("nope")


def test_builtin_presets_build_and_decode(library):
    for name in ("random", "forward_only", "forward_following"):
        preset = library.get(name)
        assert DistributionPreset(name, dict(preset.params)).params == preset.params
        assert decode_preset(encode_preset(preset)).params == preset.params


_NO_LIGHT = Categorical(((0, 0.5), (1, 0.5)))


@pytest.mark.parametrize("changes, problem", [
    ({"render.width": Constant(100000)},
     "render.width: width*height can reach 100000*120 = 12000000, over the limit of 4000000"),
    ({"render.width": Uniform(100, 4000), "render.height": Categorical(((120, 0.5), (1200, 0.5)))},
     "render.width: width*height can reach 4000*1200 = 4800000, over the limit of 4000000"),
    ({"lighting.n_lights": _NO_LIGHT, "lighting.ambient_intensity": Uniform(0.0, 0.3)},
     "lighting.n_lights: can draw 0 lights while lighting.ambient_intensity can draw 0; "
     "a scene needs at least one light or a positive ambient intensity"),
    ({"lighting.n_lights": Uniform(0, 2), "lighting.ambient_intensity": Constant(0.0)},
     "lighting.n_lights: can draw 0 lights while lighting.ambient_intensity can draw 0; "
     "a scene needs at least one light or a positive ambient intensity"),
    # the thresholds sum to 1 - 2**-53, so a draw past them takes the last category
    ({"lighting.n_lights": Categorical(((1, 0.1), (2, 0.1), (1, 0.6), (0, 0.0))),
      "lighting.ambient_intensity": Constant(0.0)},
     "lighting.n_lights: can draw 0 lights while lighting.ambient_intensity can draw 0; "
     "a scene needs at least one light or a positive ambient intensity"),
])
def test_preset_breaking_a_rule_across_fields_names_preset_or_file_and_field(
        library, changes, problem):
    params = {**library.get("random").params, **changes}
    with pytest.raises(FormatError, match="^" + re.escape(f"preset 'z': params.{problem}") + "$"):
        DistributionPreset("z", params)
    text = encode_preset(types.SimpleNamespace(name="z", params=params))
    with pytest.raises(FormatError, match="^" + re.escape(f"custom.json: params.{problem}") + "$"):
        decode_preset(text, "custom.json")


@pytest.mark.parametrize("changes", [
    # the largest frame exactly at the budget
    {"render.width": Uniform(100, 2000), "render.height": Constant(2000)},
    # no light, but always some ambient light
    {"lighting.n_lights": _NO_LIGHT},
    # no ambient light, but a light always: a zero-weight category is never drawn
    {"lighting.n_lights": Categorical(((0, 0.0), (1, 1.0))),
     "lighting.ambient_intensity": Constant(0.0)},
])
def test_preset_keeping_the_rules_across_fields_builds(library, changes):
    DistributionPreset("z", {**library.get("random").params, **changes})
