"""Independent computations the benchmark checks synthvid's outputs against.

Nothing here calls the code under test for the quantity it checks: frames
are checked with a ray caster and a flat shader written from the renderer's
documented model (pinhole camera, back-face culling, near plane at
z = 0.05, Lambertian point lights with Kelvin tints), track visibility with
a segment-occlusion ray cast, and guided sampling with a classifier-free
guidance sampler built from ``velocity`` calls.
"""

from __future__ import annotations

import math
import re

import numpy as np

NEAR_PLANE = 0.05            # the renderer's documented near plane
ROOM_INSIDE_MARGIN = 0.5     # camera this far inside every wall sees no gap
EDGE_OFFSET_PX = 0.35        # neighbour rays that must hit the same surface
BACKGROUND_FILL = (0, 0, 0)  # what a Basic (room) frame shows where nothing is drawn
RAY_BATCH = 32               # rays cast together in the occlusion check

_PPM_HEADER = re.compile(rb"P6\n(\d+) (\d+)\n255\n")


class CheckFailure(AssertionError):
    """An output disagrees with its independent computation."""


def require(condition, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


# ---------------------------------------------------------------------------
# frames


def parse_p6(data: bytes, width: int, height: int) -> np.ndarray:
    """Pixels of a binary PPM that must be exactly ``width`` x ``height``."""
    m = _PPM_HEADER.match(data)
    require(m is not None, "frame is not a binary P6 PPM with maxval 255")
    require((int(m.group(1)), int(m.group(2))) == (width, height),
            f"frame is {m.group(1).decode()}x{m.group(2).decode()}, "
            f"configured {width}x{height}")
    payload = data[m.end():]
    require(len(payload) == width * height * 3,
            f"frame payload has {len(payload)} bytes, expected {width * height * 3}")
    return np.frombuffer(payload, dtype=np.uint8).reshape(height, width, 3)


def kelvin_tint(kelvin: float) -> np.ndarray:
    """Tanner Helland's published black-body fit, channels scaled to [0, 1]."""
    t = min(max(kelvin, 1000.0), 40000.0) / 100.0
    red = 255.0 if t <= 66.0 else 329.698727446 * (t - 60.0) ** -0.1332047592
    if t <= 66.0:
        green = 99.4708025861 * math.log(t) - 161.1195681661
    else:
        green = 288.1221695283 * (t - 60.0) ** -0.0755148492
    if t >= 66.0:
        blue = 255.0
    elif t <= 19.0:
        blue = 0.0
    else:
        blue = 138.5177312231 * math.log(t - 10.0) - 305.0447927307
    return np.clip(np.array([red, green, blue]) / 255.0, 0.0, 1.0)


def flat_shade(verts, tris, base_colors, lighting) -> np.ndarray:
    """uint8 flat-shaded colour of every triangle, lit at its centroid."""
    a, b, c = verts[tris[:, 0]], verts[tris[:, 1]], verts[tris[:, 2]]
    n = np.cross(b - a, c - a)
    n = n / np.linalg.norm(n, axis=1)[:, None]
    centroid = (a + b + c) / 3.0
    light = np.full((len(tris), 3), float(lighting.ambient_intensity))
    for lamp in lighting.lights:
        to_lamp = np.asarray(lamp.position, dtype=float) - centroid
        to_lamp = to_lamp / np.linalg.norm(to_lamp, axis=1)[:, None]
        cos = np.clip((n * to_lamp).sum(axis=1), 0.0, None)
        light = light + lamp.intensity * cos[:, None] * kelvin_tint(lamp.color_temp)[None, :]
    return np.rint(np.clip(base_colors * light, 0.0, 1.0) * 255.0).astype(np.int64)


def pose_vertices(verts, animation, center, t_seconds: float) -> np.ndarray:
    """Object vertices after ``t_seconds`` of spin about world z or translation."""
    kind = animation.kind.value
    if kind == "spin":
        ang = math.radians(animation.rate_deg_per_s * t_seconds)
        c, s = math.cos(ang), math.sin(ang)
        rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        return (verts - center) @ rot.T + center
    if kind == "translate":
        return verts + np.asarray(animation.velocity, dtype=float) * t_seconds
    return verts


def ray_triangle_t(origin, dirs, a, b, c) -> np.ndarray:
    """Ray parameter of every (ray, triangle) hit, ``inf`` where it misses.

    Moller-Trumbore; rays are ``origin + t * dirs[r]``.
    """
    e1, e2 = b - a, c - a
    p = np.cross(dirs[:, None, :], e2[None, :, :])
    det = np.einsum("rtk,tk->rt", p, e1)
    ok = np.abs(det) > 1e-14
    inv = np.where(ok, 1.0 / np.where(ok, det, 1.0), 0.0)
    s = origin[None, :] - a
    u = np.einsum("rtk,tk->rt", p, s) * inv
    q = np.cross(s, e1)
    v = np.einsum("rk,tk->rt", dirs, q) * inv
    t = np.einsum("tk,tk->t", e2, q)[None, :] * inv
    hit = ok & (u >= 0.0) & (v >= 0.0) & (u + v <= 1.0)
    return np.where(hit, t, np.inf)


class FrameOracle:
    """What one camera sees of one posed scene, for checking a rendered frame."""

    def __init__(self, verts, tris, base_colors, camera, lighting, background,
                 width: int, height: int):
        self.camera = camera
        self.width, self.height = width, height
        self.background = np.asarray(background, dtype=np.int64)
        a, b, c = verts[tris[:, 0]], verts[tris[:, 1]], verts[tris[:, 2]]
        facing = (np.cross(b - a, c - a) * (camera.position - a)).sum(axis=1) > 0.0
        self.a, self.b, self.c = a[facing], b[facing], c[facing]
        self.colors = flat_shade(verts, tris, base_colors, lighting)[facing]
        self.focal_px = camera.focal_mm * height / camera.sensor_height_mm

    def _nearest(self, x, y) -> np.ndarray:
        d_cam = np.stack([(x - self.width / 2.0) / self.focal_px,
                          (y - self.height / 2.0) / self.focal_px,
                          np.ones_like(x)], axis=1)
        if not len(self.a):
            return np.full(len(x), -1)
        dirs = d_cam @ self.camera.rotation   # camera-space z of the hit equals t
        t = ray_triangle_t(self.camera.position, dirs, self.a, self.b, self.c)
        t[t < NEAR_PLANE] = np.inf
        idx = np.argmin(t, axis=1)
        return np.where(np.isfinite(t[np.arange(len(x)), idx]), idx, -1)

    def expected(self, x, y):
        """(colours (n, 3), unambiguous (n,)) at pixel-centre coordinates.

        A sample is unambiguous when four neighbour rays, offset diagonally
        by ``EDGE_OFFSET_PX``, hit the same surface as the centre ray, so no
        triangle edge runs through it.
        """
        hit = self._nearest(x, y)
        same = np.ones(len(x), dtype=bool)
        for dx, dy in ((-1, -1), (-1, 1), (1, -1), (1, 1)):
            same &= self._nearest(x + dx * EDGE_OFFSET_PX, y + dy * EDGE_OFFSET_PX) == hit
        colors = np.tile(self.background, (len(x), 1))
        colors[hit >= 0] = self.colors[hit[hit >= 0]]
        return colors, same

    def palette_codes(self) -> np.ndarray:
        """24-bit codes of every colour a pixel may hold, each channel +-1."""
        pal = np.concatenate([self.colors, self.background[None, :]])
        jitter = np.array([(i, j, k) for i in (-1, 0, 1) for j in (-1, 0, 1)
                           for k in (-1, 0, 1)])
        pal = np.clip(pal[:, None, :] + jitter[None, :, :], 0, 255).reshape(-1, 3)
        return np.unique((pal[:, 0] << 16) | (pal[:, 1] << 8) | pal[:, 2])


def check_frame(pixels: np.ndarray, oracle: FrameOracle, low_quality: bool,
                rng: np.random.Generator, n_samples: int, no_fill: bool) -> None:
    """Check one frame's pixels against the scene ``oracle`` sees.

    Every pixel must hold a flat-shaded colour of a front-facing triangle
    (or the background); at ``n_samples`` random pixel centres away from
    triangle edges the colour must be that of the surface the ray cast
    hits; with ``no_fill`` no pixel may be left at the background fill.
    ``Low`` frames are rendered at half size and upscaled, so they are
    sampled on the half-size grid.
    """
    px = pixels.astype(np.int64)
    codes = (px[..., 0] << 16) | (px[..., 1] << 8) | px[..., 2]
    palette = oracle.palette_codes()
    bad = palette[np.minimum(np.searchsorted(palette, codes), len(palette) - 1)] != codes
    if bad.any():
        row, col = np.argwhere(bad)[0]
        raise CheckFailure(f"{int(bad.sum())} pixels hold no flat-shaded colour of the "
                           f"scene, first at (row {row}, col {col})")
    if no_fill:
        fill = (pixels == np.asarray(BACKGROUND_FILL, dtype=np.uint8)).all(axis=2)
        require(not fill.any(), f"{int(fill.sum())} pixels left at the background "
                                f"fill with the camera inside the room")
    scale = 2 if low_quality else 1
    cols = rng.integers(0, oracle.width, n_samples)
    rows = rng.integers(0, oracle.height, n_samples)
    want, clear = oracle.expected(cols + 0.5, rows + 0.5)
    got = pixels[np.minimum(rows * scale, pixels.shape[0] - 1),
                 np.minimum(cols * scale, pixels.shape[1] - 1)].astype(np.int64)
    off = clear & (np.abs(got - want).max(axis=1) > 1)
    if off.any():
        i = int(np.nonzero(off)[0][0])
        raise CheckFailure(f"pixel (row {rows[i] * scale}, col {cols[i] * scale}) is "
                           f"{tuple(int(v) for v in got[i])}, the ray cast hits a surface "
                           f"shaded {tuple(int(v) for v in want[i])}")


def camera_inside_room(position, half_extent: float) -> bool:
    return bool((np.abs(position) < half_extent - ROOM_INSIDE_MARGIN).all())


# ---------------------------------------------------------------------------
# feature tracks


def occluded_observations(verts, tris, frames_obs, cameras) -> int:
    """How many (vertex, frame) observations a segment ray cast finds hidden.

    ``frames_obs`` maps frame index -> observed vertex ids.  The segment from
    the camera centre to the vertex may touch no triangle except those the
    vertex belongs to.
    """
    a, b, c = verts[tris[:, 0]], verts[tris[:, 1]], verts[tris[:, 2]]
    hidden = 0
    for k, vids in frames_obs.items():
        origin = cameras[k].position
        # fixed-size batches keep the check's memory small and seed-independent
        for start in range(0, len(vids), RAY_BATCH):
            batch = np.asarray(vids[start:start + RAY_BATCH])
            t = ray_triangle_t(origin, verts[batch] - origin, a, b, c)
            incident = (tris[None, :, :] == batch[:, None, None]).any(axis=2)
            blocked = (t > 1e-9) & (t < 1.0 - 1e-9) & ~incident
            hidden += int(blocked.any(axis=1).sum())
    return hidden


def project(camera, points, width: int, height: int) -> np.ndarray:
    """Pinhole projection to pixel coordinates (principal point at the centre)."""
    cam = (np.asarray(points, dtype=float) - camera.position) @ camera.rotation.T
    f = camera.focal_mm * height / camera.sensor_height_mm
    return np.stack([width / 2.0 + f * cam[:, 0] / cam[:, 2],
                     height / 2.0 + f * cam[:, 1] / cam[:, 2]], axis=1)


def noise_band(sigma: float, track_lengths) -> tuple[float, float]:
    """Band for the mean reprojection error under N(0, sigma^2) pixel noise.

    A residual of an L-view track keeps 2L - 3 of its 2L noise degrees of
    freedom, and a 2D Gaussian residual has mean norm sigma * sqrt(pi / 2);
    the band is 0.75x to 1.25x of that expectation.
    """
    lengths = np.asarray(track_lengths, dtype=float)
    keep = np.sqrt((2.0 * lengths - 3.0) / (2.0 * lengths))
    expected = sigma * math.sqrt(math.pi / 2.0) * float((keep * lengths).sum() / lengths.sum())
    return 0.75 * expected, 1.25 * expected


# ---------------------------------------------------------------------------
# guided sampling


def cfg_report(gen, positive, negative, beta: float, n_samples: int, seed: int,
               n_steps: int, angle_bins: int) -> dict:
    """Classifier-free guidance sampling from ``velocity`` calls alone.

    Same seeded noise and Euler steps as the guided sampler; returns the
    report fields SimDrop must reproduce bit for bit at alpha = 0.
    """
    x = np.random.Generator(np.random.PCG64(seed)).standard_normal((n_samples, gen.data_dim))
    dt = 1.0 / n_steps
    for k in range(n_steps):
        t = 1.0 - k * dt
        v_pos = gen.velocity(x, t, positive)
        x = x - dt * (v_pos + beta * (v_pos - gen.velocity(x, t, negative)))
    angles = np.mod(np.arctan2(x[:, 1], x[:, 0]), 2.0 * np.pi)
    bins = np.minimum(np.floor(angles / (2.0 * np.pi / angle_bins)).astype(int),
                      angle_bins - 1)
    return {"covered_bins": int(len(np.unique(bins))),
            "artifact_mean": float(x[:, 2].mean()),
            "artifact_abs_mean": float(np.abs(x[:, 2]).mean())}
