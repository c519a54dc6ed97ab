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
from .camera_rig import (
    CameraTrajectory,
    PinholeCamera,
    focal_from_coverage,
    generate_trajectory,
    look_at,
)
from .captioner import ComposedCaption, ElementCaption, caption_for_config, compose_caption
from .dataset_mixer import ManifestEntry, MixSchedule, build_manifest, schedule_grid
from .fidelity_metrics import (
    FeatureTrackSet,
    ReconMetrics,
    generate_tracks,
    pose_confidence,
    recon_metrics,
    triangulate,
)
from .flowlab import ToyDataset, TrainConfig, VelocityModel, flow_match_loss, integrate, train
from .guidance import GuidanceParams, run_simdrop_experiment
from .meshes import Mesh, builtin_mesh, load_obj
from .micro_renderer import Frame, render_frame, render_video
from .param_sampler import DistributionPreset, PresetLibrary, sample_batch, sample_config
from .scene_config import SceneConfig, decode_config, encode_config, validate_config

__version__ = "0.1.0"
