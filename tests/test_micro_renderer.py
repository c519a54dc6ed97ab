import hashlib

import numpy as np
import pytest

from synthvid.camera_rig import PinholeCamera, focal_from_coverage, look_at
from synthvid.meshes import (
    Mesh,
    builtin_mesh,
    cube,
    cylinder,
    load_obj,
    room_box,
    torus,
    uv_sphere,
)
from synthvid.micro_renderer import (
    ROOM_HALF_EXTENT,
    Frame,
    emit_engine_script,
    read_ppm,
    render_frame,
    render_video,
    shaded_triangle_colors,
    write_ppm,
)
from synthvid.scene_config import (
    EngineTarget,
    EnvSpec,
    Light,
    LightingSpec,
    MovementType,
    RenderQuality,
    RenderSpec,
    SceneType,
)

from conftest import frame_sha256, make_config

W, H = 64, 48

LIGHTING = LightingSpec(lights=(Light(position=(2.0, -4.0, 6.0), color_temp=6500.0,
                                      intensity=0.9),), ambient_intensity=0.25)
EMPTY = EnvSpec(SceneType.EMPTY, background_color=(0.2, 0.1, 0.3, 1.0))


def camera_at(position, target=(0.0, 0.0, 0.0), focal=40.0):
    return PinholeCamera(position=np.asarray(position, dtype=float),
                         rotation=look_at(position, target), focal_mm=focal)


# -- projection --


def test_on_axis_point_projects_to_center():
    cam = camera_at((0.0, -5.0, 0.0))
    xy, depth, behind = cam.project((0.0, 0.0, 0.0), W, H)
    assert not behind[0]
    assert xy[0, 0] == pytest.approx(W / 2.0, abs=1e-9)
    assert xy[0, 1] == pytest.approx(H / 2.0, abs=1e-9)
    assert depth[0] == pytest.approx(5.0, abs=1e-12)


def test_point_behind_camera_is_flagged():
    cam = camera_at((0.0, -5.0, 0.0))
    xy, _, behind = cam.project((0.0, -10.0, 0.0), W, H)
    assert behind[0]
    assert np.isnan(xy[0]).all()


def test_coverage_formula_matches_projection():
    # DERIVED from the coverage relation: a point one bounding-radius to the
    # camera's right, at the focus distance, lands coverage * height/2 pixels
    # from the image center.
    r, d, c = 1.3, 7.0, 0.6
    cam = PinholeCamera(position=np.array([0.0, -d, 0.0]),
                        rotation=look_at((0.0, -d, 0.0), (0.0, 0.0, 0.0)),
                        focal_mm=focal_from_coverage(r, d, c))
    xy, _, _ = cam.project(np.array([r, 0.0, 0.0]), W, H)
    assert xy[0, 0] - W / 2.0 == pytest.approx(c * H / 2.0, abs=1e-6)


# -- rasterization --


def test_empty_mesh_renders_background():
    mesh = Mesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=int), np.zeros((0, 3)))
    frame = render_frame(mesh, camera_at((0.0, -5.0, 0.0)), LIGHTING, EMPTY, W, H)
    expected = np.rint(np.array([0.2, 0.1, 0.3]) * 255).astype(np.uint8)
    assert (frame.pixels == expected).all()


def test_backfacing_triangle_is_culled():
    verts = np.array([[-1.0, 0.0, -1.0], [1.0, 0.0, -1.0], [0.0, 0.0, 1.0]])
    background = np.rint(np.array([0.2, 0.1, 0.3]) * 255).astype(np.uint8)
    # winding (0, 2, 1) has its normal on +y, away from a camera on -y
    away = Mesh(verts, np.array([[0, 2, 1]]), np.array([[1.0, 0.0, 0.0]]))
    frame = render_frame(away, camera_at((0.0, -5.0, 0.0)), LIGHTING, EMPTY, W, H)
    assert (frame.pixels == background).all()
    assert not away.facing(np.array([0.0, -5.0, 0.0]))[0]
    # flipped winding faces the camera and is visible
    toward = Mesh(verts, np.array([[0, 1, 2]]), np.array([[1.0, 0.0, 0.0]]))
    frame2 = render_frame(toward, camera_at((0.0, -5.0, 0.0)), LIGHTING, EMPTY, W, H)
    assert (frame2.pixels != background).any()
    assert toward.facing(np.array([0.0, -5.0, 0.0]))[0]


def _ray_cast_reference(cam_tris, colors, width, height, focal_px, background):
    """Per-pixel nearest-triangle oracle via ray casting in camera space."""
    img = np.empty((height, width, 3))
    img[:] = background
    for iy in range(height):
        for ix in range(width):
            ray = np.array([(ix + 0.5 - width / 2.0) / focal_px,
                            (iy + 0.5 - height / 2.0) / focal_px, 1.0])
            best_t, best_color = np.inf, None
            for tri, color in zip(cam_tris, colors):
                a, b, c = tri
                m = np.stack([b - a, c - a, -ray], axis=1)
                if abs(np.linalg.det(m)) < 1e-12:
                    continue
                u, v, t = np.linalg.solve(m, -a)
                if u >= 0 and v >= 0 and u + v <= 1 and t > 0:
                    if t < best_t:
                        best_t, best_color = t, color
            if best_color is not None:
                img[iy, ix] = best_color
    return img


def test_zbuffer_matches_ray_cast_oracle(rng):
    # two overlapping triangles, several random layouts, tiny frame
    width, height, focal_px = 24, 18, 20.0
    for _ in range(5):
        tris, colors = [], []
        for color in ([1.0, 0.0, 0.0], [0.0, 1.0, 0.0]):
            base = rng.uniform([-1.0, -1.0, 2.0], [1.0, 1.0, 6.0])
            tri = base + rng.uniform(-1.2, 1.2, (3, 3)) * np.array([1.0, 1.0, 0.3])
            tri[:, 2] = np.maximum(tri[:, 2], 1.0)
            tris.append(tri)
            colors.append(np.array(color))
        from synthvid.micro_renderer import _rasterize
        palette = np.concatenate([colors, [np.zeros(3)]])
        got = palette[_rasterize(tris, width, height, focal_px)]
        want = _ray_cast_reference(tris, colors, width, height, focal_px, np.zeros(3))
        # sub-pixel edge ownership can differ at triangle borders; interiors must match
        mismatch = (np.abs(got - want).max(axis=2) > 1e-9).mean()
        assert mismatch < 0.03, f"{mismatch:.3%} of pixels disagree with the oracle"


def test_projected_vertex_lies_in_rasterized_footprint():
    # each visible vertex's pixel sits in the mesh footprint, allowing one
    # pixel of slack because coverage is sampled at pixel centers
    mesh = cube()
    cam = camera_at((3.0, -4.0, 2.5), focal=28.0)
    width, height = 128, 96
    frame = render_frame(mesh, cam, LIGHTING, EMPTY, width, height)
    background = np.rint(np.array([0.2, 0.1, 0.3]) * 255).astype(np.uint8)
    covered = (frame.pixels != background).any(axis=2)

    facing = shaded_triangle_colors(mesh, cam.position, LIGHTING)[1]
    front_vertices = sorted(set(mesh.triangles[facing].ravel().tolist()))
    xy, _, behind = cam.project(mesh.vertices[front_vertices], width, height)
    assert not behind.any()
    for vid, (x, y) in zip(front_vertices, xy):
        ix, iy = int(x), int(y)
        neighborhood = covered[max(iy - 1, 0):iy + 2, max(ix - 1, 0):ix + 2]
        assert neighborhood.any(), f"vertex {vid} at ({x:.1f}, {y:.1f}) not covered"


def test_lighting_linearity_preclamp():
    mesh = uv_sphere()
    dim = LightingSpec(lights=(Light((2.0, -4.0, 6.0), 6500.0, 0.2),
                               Light((-3.0, 1.0, 4.0), 3500.0, 0.1)),
                       ambient_intensity=0.05)
    double = LightingSpec(lights=tuple(
        Light(l.position, l.color_temp, 2.0 * l.intensity) for l in dim.lights),
        ambient_intensity=0.1)
    c1, f1 = shaded_triangle_colors(mesh, np.array([0.0, -5.0, 0.0]), dim)
    c2, f2 = shaded_triangle_colors(mesh, np.array([0.0, -5.0, 0.0]), double)
    assert (f1 == f2).all()
    assert np.abs(c2 - 2.0 * c1).max() < 1e-12


def test_low_quality_differs_and_upscales():
    cfg_hi = make_config(render=RenderSpec(W, H, RenderQuality.HIGH))
    cfg_lo = make_config(render=RenderSpec(W, H, RenderQuality.LOW))
    mesh = uv_sphere()
    hi = render_video(cfg_hi, mesh)[0]
    lo = render_video(cfg_lo, mesh)[0]
    assert hi.width == lo.width and hi.height == lo.height
    assert frame_sha256(hi) != frame_sha256(lo)
    # nearest-neighbor upscale duplicates 2x2 blocks
    px = lo.pixels
    assert (px[0::2][: px.shape[0] // 2] == px[1::2][: px.shape[0] // 2]).all()


def test_static_scene_renders_bit_identical_frames():
    cfg = make_config(movement_type=MovementType.TRUCK, movement_value=0.0,
                      focus_type=make_config().camera.focus_type, n_frames=4)
    frames = render_video(cfg, cube())
    hashes = {frame_sha256(f) for f in frames}
    assert len(hashes) == 1


def test_closed_orbit_first_last_frames_identical():
    cfg = make_config(movement_type=MovementType.SPIN, movement_value=360.0, n_frames=25)
    frames = render_video(cfg, uv_sphere())
    assert frame_sha256(frames[0]) == frame_sha256(frames[-1])


def test_render_is_deterministic():
    cfg = make_config(n_frames=3)
    a = render_video(cfg, uv_sphere())
    b = render_video(cfg, uv_sphere())
    for fa, fb in zip(a, b):
        assert frame_sha256(fa) == frame_sha256(fb)


def test_static_basic_clip_builds_no_mesh_per_frame(monkeypatch):
    # once the room is cached, a clip whose object does not move draws the
    # object and the room as they are: no frame builds a scene mesh
    cfg = make_config(environment=EnvSpec(SceneType.BASIC, scene_color=(0.3, 0.6, 0.4)),
                      n_frames=6)
    mesh = uv_sphere()
    render_video(cfg, mesh)
    built = []
    post_init = Mesh.__post_init__

    def counting(self):
        built.append(len(self.triangles))
        post_init(self)

    monkeypatch.setattr(Mesh, "__post_init__", counting)
    assert len(render_video(cfg, mesh)) == 6
    assert built == []


def test_room_frames_do_not_depend_on_render_order():
    # two lightings that differ only in a light position given as a list,
    # which cannot be hashed, and two scene colours
    def lighting(x):
        return LightingSpec(lights=(Light(position=[x, -4.0, 6.0], color_temp=4500.0,
                                          intensity=0.9),), ambient_intensity=0.25)

    renders = [((0.3, 0.6, 0.4), lighting(2.0)), ((0.3, 0.6, 0.4), lighting(-3.0)),
               ((0.7, 0.2, 0.5), lighting(-3.0))]

    def frame(scene_color, spec):
        env = EnvSpec(SceneType.BASIC, scene_color=scene_color)
        return frame_sha256(render_frame(cube(), camera_at((1.0, -6.0, 1.5)), spec, env, W, H))

    first = [frame(scene_color, spec) for scene_color, spec in renders]
    assert len(set(first)) == len(renders)
    for order in (renders, renders[::-1]):
        got = [frame(scene_color, spec) for scene_color, spec in order]
        assert got == (first if order is renders else first[::-1])


def test_mesh_face_geometry_is_read_only_and_unit():
    mesh = uv_sphere()
    assert np.allclose(np.linalg.norm(mesh.normals, axis=1), 1.0, rtol=0.0, atol=1e-15)
    v = mesh.vertices[mesh.triangles]
    assert np.array_equal(mesh.centroids, (v[:, 0] + v[:, 1] + v[:, 2]) / 3.0)
    # outward winding: every normal points away from the sphere's center
    assert (np.einsum("ij,ij->i", mesh.normals, mesh.centroids) > 0.0).all()
    for arr in (mesh.normals, mesh.centroids):
        with pytest.raises(ValueError):
            arr[0, 0] = 1.0


def test_basic_room_encloses_scene():
    env = EnvSpec(SceneType.BASIC, scene_color=(0.4, 0.5, 0.6))
    frame = render_frame(uv_sphere(), camera_at((0.0, -6.0, 1.0)), LIGHTING, env, W, H)
    # no pixel left at the black fallback fill: the room covers everything
    assert (frame.pixels.sum(axis=2) > 0).all()


# -- frame / PPM --


def test_frame_shape_guard():
    with pytest.raises(ValueError):
        Frame(width=4, height=4, pixels=np.zeros((4, 3, 3), dtype=np.uint8))


def test_ppm_round_trip(tmp_path):
    cfg = make_config(n_frames=2)
    frame = render_video(cfg, cube())[0]
    path = tmp_path / "frame.ppm"
    write_ppm(frame, path)
    loaded = read_ppm(path)
    assert loaded.width == frame.width and loaded.height == frame.height
    assert (loaded.pixels == frame.pixels).all()


@pytest.mark.parametrize("extra, message", [
    (b"\x00\x07", "pixel data too long: a 4x3 frame has 36 bytes, the file has 38"),
    (-2, "truncated pixel data: a 4x3 frame has 36 bytes, the file has 34"),
], ids=["too-long", "truncated"])
def test_ppm_payload_of_the_wrong_length_is_rejected(tmp_path, extra, message):
    path = tmp_path / "frame.ppm"
    write_ppm(Frame(4, 3, np.arange(36, dtype=np.uint8).reshape(3, 4, 3)), path)
    data = path.read_bytes()
    path.write_bytes(data + extra if isinstance(extra, bytes) else data[:extra])
    with pytest.raises(ValueError) as err:
        read_ppm(path)
    assert str(err.value) == f"{path}: {message}"


@pytest.mark.parametrize("size", [b"0 0", b"4 0", b"0 3"])
def test_ppm_of_an_empty_frame_is_rejected(tmp_path, size):
    path = tmp_path / "frame.ppm"
    path.write_bytes(b"P6\n" + size + b"\n255\n")
    with pytest.raises(ValueError, match="width and height must be >= 1") as err:
        read_ppm(path)
    assert str(path) in str(err.value)


# -- meshes --

@pytest.mark.parametrize("build, digest", [
    pytest.param(cube, "c35863220bb28e8a2a1cf26ccf0ca0aca1e09fff004ee1afabeeab56acf61df0",
                 id="cube"),
    pytest.param(uv_sphere, "37e432755075f9e7b908b8bd5004efe9b0d532b4727d1db973bf3c51ea6b6b96",
                 id="sphere"),
    pytest.param(torus, "ee64ce368173fc1d23160c3bb32687341c39cd389d45d870d0b70df4bada08d7",
                 id="torus"),
    pytest.param(cylinder, "5acce1f96b7eafddbb349365299561c63ddfe2ca534ac8cd347d9f0edefc4d6e",
                 id="cylinder"),
    pytest.param(lambda: uv_sphere(n_lat=26, n_lon=52),
                 "fc9756a11a4feb949d81b1f96b0008bdbec5ef29d3eb814d9c3b16ee379eae3c",
                 id="sphere_26x52"),
    pytest.param(lambda: room_box((0.25, 0.5, 0.75), ROOM_HALF_EXTENT),
                 "c50fde55bafc24aea9606e9c0bf378af31af21e473563186c4e786441c11825b",
                 id="room"),
])
def test_mesh_arrays_are_pinned(build, digest):
    """SHA-256 of each array's dtype, shape and bytes: vertices, triangles, colors."""
    mesh = build()
    h = hashlib.sha256()
    for arr in (mesh.vertices, mesh.triangles, mesh.colors):
        h.update(f"{arr.dtype.str}{arr.shape}".encode("ascii"))
        h.update(arr.tobytes())
    assert h.hexdigest() == digest


# -- OBJ loader --


def test_obj_loader_quads_and_slashes(tmp_path):
    text = """
# comment
v 0 0 0
v 1 0 0
v 1 1 0
v 0 1 0
vn 0 0 1
f 1/1/1 2/2/1 3/3/1 4/4/1
"""
    path = tmp_path / "quad.obj"
    path.write_text(text)
    mesh = load_obj(path)
    assert len(mesh.vertices) == 4
    assert len(mesh.triangles) == 2  # fan-triangulated quad


def test_obj_loader_negative_indices(tmp_path):
    path = tmp_path / "tri.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf -3 -2 -1\n")
    mesh = load_obj(path)
    assert len(mesh.triangles) == 1
    assert (mesh.triangles[0] == [0, 1, 2]).all()


def test_builtin_primitives_are_built_once_and_obj_files_read_each_time(tmp_path):
    for name, factory in (("cube", cube), ("sphere", uv_sphere), ("torus", torus),
                          ("cylinder", cylinder)):
        mesh = builtin_mesh(name)
        assert builtin_mesh(name) is mesh
        fresh = factory()
        for key in ("vertices", "triangles", "colors", "normals", "centroids"):
            assert np.array_equal(getattr(mesh, key), getattr(fresh, key))
            assert not getattr(mesh, key).flags.writeable   # so sharing is safe
    path = tmp_path / "tri.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
    first = builtin_mesh(str(path))
    path.write_text("v 0 0 0\nv 2 0 0\nv 0 2 0\nf 1 2 3\n")
    assert builtin_mesh(str(path)).vertices[1, 0] == 2.0 != first.vertices[1, 0]


def test_obj_loader_drops_degenerate_faces(tmp_path):
    path = tmp_path / "line.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 2 0 0\nf 1 2 3\n")
    mesh = load_obj(path)
    assert len(mesh.triangles) == 0


# -- engine script --


def test_engine_script_deterministic_and_substituted():
    cfg = make_config(movement_type=MovementType.SPIN, movement_value=180.0,
                      render=RenderSpec(W, H, engine_target=EngineTarget.BLENDER_SCRIPT),
                      n_frames=37)
    a = emit_engine_script(cfg)
    b = emit_engine_script(cfg)
    assert a == b
    assert "37" in a
    assert "Spin" in a


def test_engine_script_contains_scene_color():
    cfg = make_config(environment=EnvSpec(SceneType.BASIC, scene_color=(0.25, 0.5, 0.75)),
                      render=RenderSpec(W, H, engine_target=EngineTarget.BLENDER_SCRIPT))
    script = emit_engine_script(cfg)
    assert "0.25" in script and "0.5" in script and "0.75" in script


def test_engine_script_requires_blender_target():
    with pytest.raises(ValueError):
        emit_engine_script(make_config())
