"""synthvid: procedural synthetic-video data pipeline at desk scale.

Stages: typed scene configs and seeded preset sampling, per-frame camera
trajectories, a small z-buffered rasterizer, compositional captioning,
deterministic dataset mixing, a toy conditional flow-matching lab with
guided (SimDrop) sampling, and reconstruction-based fidelity metrics.
"""

from . import (
    camera_rig,
    captioner,
    dataset_mixer,
    fidelity_metrics,
    flowlab,
    guidance,
    jsondoc,
    meshes,
    micro_renderer,
    param_sampler,
    scene_config,
    seeding,
)

__version__ = "0.1.0"
