"""The per-triangle loop renderer, kept as the reference oracle.

``micro_renderer`` clips and rasterizes a whole draw list at once; these
functions clip one triangle at a time and rasterize with a ``meshgrid``
tile per triangle and a strict ``<`` depth test, the renderer's original
design.  Every frame of the span rasterizer must equal theirs bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from synthvid.meshes import Mesh, room_box
from synthvid.micro_renderer import (
    NEAR_PLANE,
    ROOM_HALF_EXTENT,
    _background_color,
    shaded_triangle_colors,
)
from synthvid.scene_config import SceneType


def clip_near_loop(tri_cam: np.ndarray) -> list[np.ndarray]:
    """Clip one camera-space triangle against z >= NEAR_PLANE.

    Returns 0, 1 or 2 triangles (Sutherland-Hodgman then a fan).
    """
    inside = tri_cam[:, 2] >= NEAR_PLANE
    if inside.all():
        return [tri_cam]
    if not inside.any():
        return []
    poly = []
    for i in range(3):
        cur, nxt = tri_cam[i], tri_cam[(i + 1) % 3]
        if inside[i]:
            poly.append(cur)
        if inside[i] != inside[(i + 1) % 3]:
            s = (NEAR_PLANE - cur[2]) / (nxt[2] - cur[2])
            poly.append(cur + s * (nxt - cur))
    return [np.stack([poly[0], poly[k], poly[k + 1]]) for k in range(1, len(poly) - 1)]


def rasterize_loop(cam_tris, colors, width: int, height: int, focal_px: float,
                   background: np.ndarray) -> np.ndarray:
    img = np.empty((height, width, 3), dtype=float)
    img[:] = background
    zbuf = np.full((height, width), np.inf)

    cx, cy = width / 2.0, height / 2.0
    for tri, color in zip(cam_tris, colors):
        z = tri[:, 2]
        px = cx + focal_px * tri[:, 0] / z
        py = cy + focal_px * tri[:, 1] / z

        x_lo = max(int(math.floor(px.min() - 0.5)), 0)
        x_hi = min(int(math.ceil(px.max() + 0.5)), width - 1)
        y_lo = max(int(math.floor(py.min() - 0.5)), 0)
        y_hi = min(int(math.ceil(py.max() + 0.5)), height - 1)
        if x_lo > x_hi or y_lo > y_hi:
            continue

        xs = np.arange(x_lo, x_hi + 1) + 0.5
        ys = np.arange(y_lo, y_hi + 1) + 0.5
        gx, gy = np.meshgrid(xs, ys)

        def edge(ax, ay, bx, by):
            return (bx - ax) * (gy - ay) - (by - ay) * (gx - ax)

        w0 = edge(px[1], py[1], px[2], py[2])
        w1 = edge(px[2], py[2], px[0], py[0])
        w2 = edge(px[0], py[0], px[1], py[1])
        area = (px[1] - px[0]) * (py[2] - py[0]) - (py[1] - py[0]) * (px[2] - px[0])
        if abs(area) < 1e-12:
            continue
        if area < 0.0:
            w0, w1, w2, area = -w0, -w1, -w2, -area

        mask = (w0 >= 0.0) & (w1 >= 0.0) & (w2 >= 0.0)
        if not mask.any():
            continue

        # perspective-correct depth: interpolate 1/z with screen barycentrics
        inv_z = (w0 / z[0] + w1 / z[1] + w2 / z[2]) / area
        depth = 1.0 / inv_z

        tile_z = zbuf[y_lo:y_hi + 1, x_lo:x_hi + 1]
        update = mask & (depth < tile_z)
        tile_z[update] = depth[update]
        tile_img = img[y_lo:y_hi + 1, x_lo:x_hi + 1]
        tile_img[update] = color

    return img


def render_float_loop(mesh: Mesh, camera, lighting, env, width: int,
                      height: int) -> np.ndarray:
    """Float image of one frame: the draw list built triangle by triangle."""
    scene = mesh
    if env.scene_type is SceneType.BASIC:
        room = room_box(env.scene_color, ROOM_HALF_EXTENT)
        scene = Mesh(
            np.concatenate([mesh.vertices, room.vertices]),
            np.concatenate([mesh.triangles, room.triangles + len(mesh.vertices)]),
            np.concatenate([mesh.colors, room.colors]),
        )

    shaded, facing = shaded_triangle_colors(scene, camera.position, lighting)
    shaded = np.clip(shaded, 0.0, 1.0)

    cam_space = (scene.vertices - camera.position) @ camera.rotation.T
    cam_tris, colors = [], []
    for ti in np.nonzero(facing)[0]:
        tri = cam_space[scene.triangles[ti]]
        for clipped in clip_near_loop(tri):
            cam_tris.append(clipped)
            colors.append(shaded[ti])

    focal_px = camera.focal_mm * height / camera.sensor_height_mm
    return rasterize_loop(cam_tris, colors, width, height, focal_px,
                          _background_color(env))
