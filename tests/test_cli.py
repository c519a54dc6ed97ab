import json

import numpy as np
import pytest

from synthvid.camera_rig import generate_trajectory, trajectory_from_json
from synthvid.cli import main
from synthvid.flowlab import TOY_COND_DIM, VelocityModel, save_checkpoint
from synthvid.meshes import bounding_sphere, builtin_mesh
from synthvid.micro_renderer import read_ppm
from synthvid.scene_config import decode_config


def run(*argv):
    return main(list(argv))


def test_no_arguments_prints_usage_and_exits_2(capsys):
    assert run() == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_subcommand_exits_2(capsys):
    assert run("frobnicate") == 2


def test_unknown_flag_exits_2(capsys):
    assert run("sample-configs", "--bogus", "1") == 2


def test_sample_configs_writes_valid_files(tmp_path, capsys):
    out = tmp_path / "configs"
    assert run("sample-configs", "--preset", "random", "--count", "3",
               "--seed", "5", "--out", str(out)) == 0
    files = sorted(out.glob("config_*.json"))
    assert len(files) == 3
    for path in files:
        decode_config(path.read_text())


def test_sample_configs_is_reproducible(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run("sample-configs", "--count", "2", "--seed", "9", "--out", str(a))
    run("sample-configs", "--count", "2", "--seed", "9", "--out", str(b))
    for fa, fb in zip(sorted(a.iterdir()), sorted(b.iterdir())):
        assert fa.read_bytes() == fb.read_bytes()


@pytest.fixture
def config_file(tmp_path):
    out = tmp_path / "cfg"
    run("sample-configs", "--preset", "forward_only", "--count", "1",
        "--seed", "3", "--out", str(out))
    return out / "config_000.json"


def test_trajectory_subcommand(tmp_path, config_file, capsys):
    out = tmp_path / "poses.json"
    assert run("trajectory", "--config", str(config_file), "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    cfg = decode_config(config_file.read_text())
    assert doc["n_frames"] == cfg.n_frames
    assert len(doc["cameras"]) == cfg.n_frames
    assert len(doc["cameras"][0]["rotation"]) == 9
    # the file holds the same camera records as a track file, bit for bit
    expected = generate_trajectory(cfg, *bounding_sphere(builtin_mesh(cfg.object_ref)))
    loaded = trajectory_from_json(doc, str(out))
    assert len(loaded) == len(expected)
    for a, b in zip(loaded.frames, expected.frames):
        assert np.array_equal(a.position, b.position)
        assert np.array_equal(a.rotation, b.rotation)
        assert a.focal_mm == b.focal_mm
        assert a.sensor_height_mm == b.sensor_height_mm
    assert np.array_equal(loaded.focus_history, expected.focus_history)


def test_render_subcommand(tmp_path, config_file):
    out = tmp_path / "frames"
    assert run("render", "--config", str(config_file), "--out", str(out)) == 0
    cfg = decode_config(config_file.read_text())
    frames = sorted(out.glob("frame_*.ppm"))
    assert len(frames) == cfg.n_frames
    frame = read_ppm(frames[0])
    assert (frame.width, frame.height) == (cfg.render.width, cfg.render.height)


def test_caption_subcommand(config_file, capsys):
    assert run("caption", "--config", str(config_file), "--tags", "tags+np") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["tags"] == ["animated", "rendered"]
    assert doc["negative_text"] == "animated rendered"
    assert doc["domain"] == "Synthetic"


def test_missing_config_file_exits_1(tmp_path, capsys):
    assert run("caption", "--config", str(tmp_path / "nope.json")) == 1
    assert "error" in capsys.readouterr().err.lower()


def test_build_manifest_subcommand(tmp_path, capsys):
    syn, real = tmp_path / "syn", tmp_path / "real"
    syn.mkdir()
    real.mkdir()
    syn_caption = {"text": "a cube", "tags": ["animated", "rendered"],
                   "negative_text": "", "domain": "Synthetic"}
    real_caption = {"text": "a dog", "tags": [], "negative_text": "", "domain": "Real"}
    (syn / "a.caption.json").write_text(json.dumps({"uri": "s/a", "caption": syn_caption}))
    (real / "b.caption.json").write_text(json.dumps({"uri": "r/b", "caption": real_caption}))
    out = tmp_path / "manifest.ndjson"
    assert run("build-manifest", "--syn", str(syn), "--real", str(real),
               "--ratio", "0.5", "--steps", "40", "--seed", "2", "--out", str(out)) == 0
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    assert len(lines) == 40
    assert {l["source"] for l in lines} == {"Synthetic", "Real"}


def test_train_toy_and_sample_simdrop(tmp_path, capsys):
    gen_ckpt = tmp_path / "gen.ckpt"
    ref_ckpt = tmp_path / "ref.ckpt"
    assert run("train-toy", "--dataset", "mixed", "--steps", "150", "--seed", "1",
               "--n-points", "400", "--out", str(gen_ckpt)) == 0
    assert run("train-toy", "--dataset", "synthetic", "--label", "2", "--dropout", "0.0",
               "--steps", "100", "--seed", "2", "--init", str(gen_ckpt),
               "--n-points", "400", "--out", str(ref_ckpt)) == 0
    report = tmp_path / "report.json"
    assert run("sample-simdrop", "--gen", str(gen_ckpt), "--ref", str(ref_ckpt),
               "--alpha", "0.1", "0.2", "--beta", "0.3", "--n", "50",
               "--steps", "20", "--seed", "3", "--report", str(report)) == 0
    doc = json.loads(report.read_text())
    assert [r["alpha"] for r in doc["runs"]] == [0.1, 0.2]
    assert all(r["n_samples"] == 50 for r in doc["runs"])


def test_sample_simdrop_zero_steps_exits_1(tmp_path, capsys):
    for name in ("gen", "ref"):
        save_checkpoint(VelocityModel(data_dim=3, cond_dim=TOY_COND_DIM, seed=1),
                        tmp_path / f"{name}.ckpt")
    report = tmp_path / "report.json"
    assert run("sample-simdrop", "--gen", str(tmp_path / "gen.ckpt"),
               "--ref", str(tmp_path / "ref.ckpt"), "--n", "10", "--steps", "0",
               "--report", str(report)) == 1
    assert "n_steps must be an integer >= 1, got 0" in capsys.readouterr().err
    assert not report.exists()


@pytest.mark.parametrize("lr", ["nan", "inf"])
def test_train_toy_rejects_a_non_finite_learning_rate(tmp_path, capsys, lr):
    out = tmp_path / "m.ckpt"
    assert run("train-toy", "--dataset", "real", "--steps", "2", "--lr", lr,
               "--out", str(out)) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: learning_rate: expected a finite number > 0, got {float(lr)}\n"
    assert not out.exists()


@pytest.mark.parametrize("dataset", ["real", "synthetic", "mixed"])
def test_train_toy_rejects_a_negative_point_count(tmp_path, capsys, dataset):
    out = tmp_path / "m.ckpt"
    assert run("train-toy", "--dataset", dataset, "--steps", "2", "--n-points", "-1",
               "--out", str(out)) == 1
    assert capsys.readouterr().err == "error: n: expected a count >= 0, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--dataset", "real", "--label", "5"], "--label: expected a label in [0, 3), got 5"),
    (["--dataset", "mixed", "--ratio", "1.5"], "--ratio: expected a number in [0, 1], got 1.5"),
    (["--dataset", "real", "--n-points", "0"], "--n-points: expected a count >= 1, got 0"),
    (["--dataset", "real", "--dropout", "1.0"],
     "--dropout: expected a number in [0, 1), got 1.0"),
    (["--dataset", "real", "--batch", "0"], "--batch: expected a count >= 1, got 0"),
    (["--dataset", "real", "--steps", "-1"], "--steps: expected a count >= 0, got -1"),
])
def test_train_toy_flag_faults_name_the_flag_and_value(tmp_path, capsys, flags, message):
    out = tmp_path / "m.ckpt"
    assert run("train-toy", "--steps", "2", *flags, "--out", str(out)) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_sample_simdrop_rejects_a_negative_sample_count(tmp_path, capsys):
    for name in ("gen", "ref"):
        save_checkpoint(VelocityModel(data_dim=3, cond_dim=TOY_COND_DIM, seed=1),
                        tmp_path / f"{name}.ckpt")
    report = tmp_path / "report.json"
    assert run("sample-simdrop", "--gen", str(tmp_path / "gen.ckpt"),
               "--ref", str(tmp_path / "ref.ckpt"), "--n", "-1", "--steps", "5",
               "--report", str(report)) == 1
    assert capsys.readouterr().err == "error: n_samples: expected a count >= 0, got -1\n"
    assert not report.exists()



@pytest.mark.parametrize("dims, bad, field, got", [
    ({"gen": (2, TOY_COND_DIM), "ref": (2, TOY_COND_DIM)}, "gen", "data_dim", 2),
    ({"gen": (3, TOY_COND_DIM), "ref": (3, 1)}, "ref", "cond_dim", 1),
])
def test_sample_simdrop_rejects_a_checkpoint_off_the_toy_shape(tmp_path, capsys, dims, bad,
                                                               field, got):
    for name, (data_dim, cond_dim) in dims.items():
        save_checkpoint(VelocityModel(data_dim=data_dim, cond_dim=cond_dim, seed=1),
                        tmp_path / f"{name}.ckpt")
    report = tmp_path / "report.json"
    assert run("sample-simdrop", "--gen", str(tmp_path / "gen.ckpt"),
               "--ref", str(tmp_path / "ref.ckpt"), "--n", "10", "--steps", "5",
               "--report", str(report)) == 1
    assert capsys.readouterr().err == (
        f"error: {tmp_path / bad}.ckpt: header: {field}: the toy models need 3, got {got}\n")
    assert not report.exists()


def test_train_toy_rejects_a_2d_init_checkpoint(tmp_path, capsys):
    init = tmp_path / "init.ckpt"
    save_checkpoint(VelocityModel(data_dim=2, cond_dim=TOY_COND_DIM, seed=1), init)
    out = tmp_path / "m.ckpt"
    assert run("train-toy", "--dataset", "real", "--steps", "2", "--init", str(init),
               "--out", str(out)) == 1
    assert capsys.readouterr().err == (
        f"error: {init}: header: data_dim: the toy models need 3, got 2\n")
    assert not out.exists()

def test_train_toy_checkpoints_reproducible(tmp_path):
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    for path in (a, b):
        run("train-toy", "--dataset", "real", "--steps", "80", "--seed", "4",
            "--n-points", "300", "--out", str(path))
    assert a.read_bytes() == b.read_bytes()


def test_evaluate_end_to_end(tmp_path, capsys):
    cfg_dir = tmp_path / "cfg"
    run("sample-configs", "--preset", "random", "--count", "1", "--seed", "21",
        "--out", str(cfg_dir))
    # force a spin config for guaranteed baseline
    doc = json.loads((cfg_dir / "config_000.json").read_text())
    doc["camera"]["movement_type"] = "Spin"
    doc["camera"]["movement_value"] = 360.0
    cfg_path = tmp_path / "spin.json"
    cfg_path.write_text(json.dumps(doc))
    capsys.readouterr()  # drop the sample-configs status line
    assert run("evaluate", "--config", str(cfg_path), "--noise", "0.0") == 0
    report = json.loads(capsys.readouterr().out)
    assert report["n_points"] > 0
    assert report["reproj_error_px"] < 1e-6


@pytest.mark.parametrize("noise", ["nan", "inf"])
def test_evaluate_rejects_a_non_finite_noise(tmp_path, capsys, noise):
    from conftest import make_config
    from synthvid.scene_config import encode_config

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(encode_config(make_config(n_frames=8)))
    assert run("evaluate", "--config", str(cfg_path), "--noise", noise) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: pixel_noise_sigma: expected a finite number >= 0, "
                            f"got {float(noise)}\n")


def test_evaluate_tracks_file(tmp_path, capsys):
    from synthvid.camera_rig import generate_trajectory
    from synthvid.fidelity_metrics import generate_tracks, write_tracks
    from synthvid.meshes import bounding_sphere, uv_sphere
    from conftest import make_config

    mesh = uv_sphere()
    center, radius = bounding_sphere(mesh)
    cfg = make_config()
    traj = generate_trajectory(cfg, center, radius)
    tracks = generate_tracks(mesh, traj, 160, 120, 0.0, seed=1)
    path = tmp_path / "tracks.json"
    write_tracks(tracks, path)
    assert run("evaluate", "--tracks", str(path)) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["n_points"] == len(tracks)


def test_evaluate_bad_tracks_file_names_file_and_field(tmp_path, capsys):
    from synthvid.fidelity_metrics import generate_tracks, tracks_to_json
    from synthvid.meshes import uv_sphere
    from conftest import make_config

    mesh = uv_sphere()
    traj = generate_trajectory(make_config(n_frames=8), *bounding_sphere(mesh))
    doc = json.loads(tracks_to_json(generate_tracks(mesh, traj, 160, 120, 0.0, seed=1)))
    del doc["cameras"][2]["focal_mm"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert run("evaluate", "--tracks", str(path)) == 1
    assert capsys.readouterr().err == f"error: {path}: cameras[2].focal_mm: missing\n"



def test_evaluate_empty_tracks_file_names_file(tmp_path, capsys):
    from synthvid.fidelity_metrics import generate_tracks, tracks_to_json
    from synthvid.meshes import uv_sphere
    from conftest import make_config

    mesh = uv_sphere()
    traj = generate_trajectory(make_config(n_frames=8), *bounding_sphere(mesh))
    doc = json.loads(tracks_to_json(generate_tracks(mesh, traj, 160, 120, 0.0, seed=1)))
    doc["tracks"] = []
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(doc))
    assert run("evaluate", "--tracks", str(path)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: track set is empty\n"


def test_evaluate_config_whose_object_is_never_seen_names_file(tmp_path, capsys):
    from conftest import make_config
    from synthvid.scene_config import MovementType, encode_config

    # one triangle whose front faces away from the camera in every frame
    mesh_path = tmp_path / "away.obj"
    mesh_path.write_text("v -1 0 0\nv 1 0 0\nv 0 0 1\nf 1 3 2\n")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(encode_config(make_config(
        n_frames=8, movement_type=MovementType.DOLLY, movement_value=1.0)))
    assert run("evaluate", "--config", str(cfg_path), "--mesh", str(mesh_path)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {cfg_path}: track set is empty\n"

def test_build_manifest_missing_pool_directory_exits_1(tmp_path, capsys):
    real = tmp_path / "real"
    real.mkdir()
    missing = tmp_path / "no-such-pool"
    assert run("build-manifest", "--syn", str(missing), "--real", str(real),
               "--ratio", "0.5", "--steps", "10") == 1
    assert f"error: pool directory not found: {missing}" in capsys.readouterr().err


def test_verbose_prints_the_traceback(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert run("caption", "--config", missing) == 1
    quiet = capsys.readouterr().err
    assert quiet.startswith("error: ") and "Traceback" not in quiet
    assert run("--verbose", "caption", "--config", missing) == 1
    verbose = capsys.readouterr().err
    assert verbose.startswith("Traceback (most recent call last):")
    assert "FileNotFoundError" in verbose
    assert verbose.endswith(quiet)


def _pool_dirs(tmp_path, syn_text):
    syn, real = tmp_path / "syn", tmp_path / "real"
    syn.mkdir()
    real.mkdir()
    (syn / "a.caption.json").write_text(syn_text)
    (real / "b.caption.json").write_text(json.dumps(
        {"uri": "r/b", "caption": {"text": "a dog", "domain": "Real"}}))
    return ["--syn", str(syn), "--real", str(real), "--ratio", "0.5", "--steps", "10"]


def _caption_args(tmp_path, config_file, registry_doc):
    registry = tmp_path / "registry.json"
    registry.write_text(json.dumps(registry_doc))
    return registry, ["caption", "--config", str(config_file), "--registry", str(registry)]


def test_pool_entry_without_caption_names_file_and_field(tmp_path, capsys):
    args = _pool_dirs(tmp_path, json.dumps({"uri": "s/a"}))
    assert run("build-manifest", *args) == 1
    path = tmp_path / "syn" / "a.caption.json"
    assert capsys.readouterr().err == f"error: {path}: caption: missing\n"


def test_non_json_pool_entry_names_file_and_position(tmp_path, capsys):
    args = _pool_dirs(tmp_path, "{\n  oops\n}")
    assert run("build-manifest", *args) == 1
    path = tmp_path / "syn" / "a.caption.json"
    assert capsys.readouterr().err.startswith(
        f"error: {path}: Expecting property name enclosed in double quotes: line 2 column 3")


def test_preset_uniform_without_low_names_file_and_field(tmp_path, capsys):
    from synthvid.param_sampler import PresetLibrary, encode_preset

    doc = json.loads(encode_preset(PresetLibrary.default().get("random")))
    doc["name"] = "custom"
    del doc["params"]["camera.coverage"]["low"]
    path = tmp_path / "preset.json"
    path.write_text(json.dumps(doc))
    assert run("sample-configs", "--preset", "custom", "--preset-file", str(path),
               "--out", str(tmp_path / "out")) == 1
    assert capsys.readouterr().err == f"error: {path}: params.camera.coverage.low: missing\n"


def test_out_of_range_preset_names_file_and_field(tmp_path, capsys):
    from synthvid.param_sampler import PresetLibrary, encode_preset

    doc = json.loads(encode_preset(PresetLibrary.default().get("random")))
    doc["name"] = "z"
    doc["params"]["fps"] = {"kind": "constant", "value": 0}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert run("sample-configs", "--preset", "z", "--preset-file", str(path),
               "--out", str(out)) == 1
    assert capsys.readouterr().err == (
        f"error: {path}: params.fps.value: must be an integer in [1, 120], got 0\n")
    assert not out.exists()


def test_preset_breaking_a_rule_across_fields_names_file(tmp_path, capsys):
    from synthvid.param_sampler import PresetLibrary, encode_preset

    doc = json.loads(encode_preset(PresetLibrary.default().get("random")))
    doc["name"] = "z"
    doc["params"]["render.width"] = {"kind": "constant", "value": 100000}
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert run("sample-configs", "--preset", "z", "--preset-file", str(path),
               "--out", str(out)) == 1
    assert capsys.readouterr().err == (
        f"error: {path}: preset 'z' produced an invalid config:\n"
        "render: width*height must not exceed 4000000\n")
    assert not out.exists()



def test_preset_file_naming_a_built_in_names_file_and_field(tmp_path, capsys):
    from synthvid.param_sampler import PresetLibrary, encode_preset

    path = tmp_path / "p.json"
    path.write_text(encode_preset(PresetLibrary.default().get("random")))
    out = tmp_path / "out"
    assert run("sample-configs", "--preset-file", str(path), "--out", str(out)) == 1
    assert capsys.readouterr().err == (
        f"error: {path}: name: cannot replace built-in preset 'random'\n")
    assert not out.exists()

def test_registry_with_unknown_kind_names_file_and_field(tmp_path, config_file, capsys):
    path, args = _caption_args(tmp_path, config_file,
                               {"schema": 1, "entries": {"Bogus": {"x": {"Generic": "an x"}}}})
    capsys.readouterr()
    assert run(*args) == 1
    assert capsys.readouterr().err == (
        f"error: {path}: entries.Bogus: 'Bogus' is not a legal value "
        "(expected one of: Object, Scene, Camera, Motion)\n")


def test_registry_with_entries_list_names_file_and_field(tmp_path, config_file, capsys):
    path, args = _caption_args(tmp_path, config_file, {"schema": 1, "entries": []})
    capsys.readouterr()
    assert run(*args) == 1
    assert capsys.readouterr().err == f"error: {path}: entries: expected a JSON object\n"


def test_render_bad_config_names_file_and_field(tmp_path, config_file, capsys):
    doc = json.loads(config_file.read_text())
    del doc["object_ref"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run("render", "--config", str(path), "--out", str(tmp_path / "frames")) == 1
    assert capsys.readouterr().err == f"error: {path}: object_ref: missing\n"


@pytest.mark.parametrize("key, value, problem", [
    ("fps", 0, "fps: must be an integer in [1, 120]"),
    ("render", {"width": 0, "height": 120, "quality": "Low", "engine_target": "Internal"},
     "render.width: must be a positive integer"),
])
def test_render_invalid_config_names_file_and_field(tmp_path, config_file, key, value, problem,
                                                     capsys):
    doc = json.loads(config_file.read_text())
    doc[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    out = tmp_path / "frames"
    assert run("render", "--config", str(path), "--out", str(out)) == 1
    assert capsys.readouterr().err == f"error: {path}: {problem}\n"
    assert not out.exists()


@pytest.mark.parametrize("text, problem", [
    ("f 1 2 9", "line 4: face index 9 names no vertex (indices run from 1 to 3, or back from -1)"),
    ("f 0 1 2", "line 4: face index 0 names no vertex (indices run from 1 to 3, or back from -1)"),
    ("f -4 -2 -1", "line 4: face index -4 names no vertex"),
    ("f 1 2 x", "line 4: face index 'x' is not an integer"),
    ("v 0 0 zz", "line 4: vertex coordinates must be numbers, got '0 0 zz'"),
    ("v nan 0 0", "line 4: vertex coordinates must be finite, got 'nan 0 0'"),
    ("v 0 -inf 0", "line 4: vertex coordinates must be finite, got '0 -inf 0'"),
])
def test_bad_obj_names_file_and_line(tmp_path, config_file, text, problem, capsys):
    path = tmp_path / "bad.obj"
    path.write_text(f"v 0 0 0\nv 1 0 0\nv 0 1 0\n{text}\n")
    capsys.readouterr()
    assert run("trajectory", "--config", str(config_file), "--mesh", str(path),
               "--out", str(tmp_path / "traj.json")) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: {problem}")


def test_config_that_is_not_utf8_names_the_file(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"object_ref": "caf\xe9"}'.encode("latin-1"))
    assert run("render", "--config", str(path), "--out", str(tmp_path / "frames")) == 1
    assert capsys.readouterr().err.startswith(
        f"error: {path}: 'utf-8' codec can't decode byte 0xe9 in position 19")


def test_key_errors_print_without_repr_quotes(tmp_path, config_file, capsys):
    assert run("sample-configs", "--preset", "nope", "--out", str(tmp_path / "out")) == 1
    assert capsys.readouterr().err == (
        "error: unknown preset 'nope' (known: forward_following, forward_only, random)\n")
    doc = json.loads(config_file.read_text())
    doc["object_ref"] = "teapot"
    path = tmp_path / "teapot.json"
    path.write_text(json.dumps(doc))
    assert run("render", "--config", str(path), "--out", str(tmp_path / "frames")) == 1
    assert capsys.readouterr().err.startswith("error: unknown object_ref 'teapot' (builtins: ")
    assert run("caption", "--config", str(path)) == 1
    assert capsys.readouterr().err == (
        "error: no registry entry for (Object, 'teapot', Generic)\n")
