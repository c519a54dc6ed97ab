"""Guided sampling: classifier-free guidance and the SimDrop rule.

SimDrop combines two models at inference time.  The generation model
(trained on the synthetic/real mix) supplies the base velocity and a
standard classifier-free guidance delta; a reference model (fine-tuned on
synthetic data only, under a content-agnostic caption) supplies a second
delta that isolates the synthetic-specific direction, which is subtracted:

    v* = gen(l, t) - alpha * (ref(l, t_hat) - ref(l, n_hat))
                   + beta  * (gen(l, t) - gen(l, n))

With alpha = 0 this reduces bit-for-bit to plain CFG with weight beta, and
with alpha = beta = 0 to the unguided sampler: at alpha = 0 the reference
model is not evaluated at all, so each step costs two forward passes
instead of four.  ``gen(l, t)`` is evaluated
once and shared between the base term and the CFG delta (the two
appearances in the formula are the same forward pass algebraically).

The canonical toy experiment trains a base model on real data, continues
it on the mixed set (the generation model), and continues it on
synthetic-only data under the reference label with condition dropout
disabled (the reference model).  Starting both from the real-data base is
what gives the reference delta its meaning: the reference model's null
token keeps pointing roughly at the real distribution while its trained
label points at the synthetic one, so their difference tracks the
synthetic artifact direction.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import jsondoc
from .flowlab import (
    REFERENCE_LABEL,
    TAGGED_SYNTHETIC_LABEL,
    TOY_COND_DIM,
    SettingError,
    TrainConfig,
    VelocityModel,
    integrate,
    toy_mixed_dataset,
    toy_real_dataset,
    toy_synthetic_dataset,
    train,
)
from .seeding import stream_seed

__all__ = [
    "ANGLE_BINS",
    "GuidanceParams",
    "SimDropReport",
    "default_guidance_params",
    "guidance_delta",
    "run_simdrop_experiment",
    "simdrop_velocity",
    "train_transfer_models",
    "write_report",
]

ANGLE_BINS = 36  # equal bins over [0, 360) used for the coverage statistic

DEFAULT_BETA = 0.3
DEFAULT_ALPHAS = (0.1, 0.2)


@dataclass(frozen=True)
class GuidanceParams:
    """Weights and prompt conditions for one guided run.

    ``t``/``n`` are the positive/negative conditions fed to the generation
    model, ``t_hat``/``n_hat`` the ones fed to the reference model.  ``None``
    is the null (unconditional) token.
    """

    alpha: float = 0.0
    beta: float = 0.0
    t: int | None = None
    n: int | None = None
    t_hat: int | None = None
    n_hat: int | None = None

    def __post_init__(self):
        for name, weight in (("alpha", self.alpha), ("beta", self.beta)):
            if not 0.0 <= weight < np.inf:   # false for NaN
                raise ValueError(f"{name}: expected a finite guidance weight >= 0, got {weight}")


def default_guidance_params(alpha: float, beta: float = DEFAULT_BETA) -> GuidanceParams:
    """Canonical toy-transfer conditions.

    The positive prompt is the null token (a content request without domain
    markers), the negative prompt is the tagged synthetic caption, and the
    reference model is prompted with its own training caption against its
    null token.
    """
    return GuidanceParams(alpha=alpha, beta=beta,
                          t=None, n=TAGGED_SYNTHETIC_LABEL,
                          t_hat=REFERENCE_LABEL, n_hat=None)


def guidance_delta(model, x, time: float, positive, negative) -> np.ndarray:
    """Classifier-free guidance direction: v(x, t | positive) - v(x, t | negative)."""
    return model.velocity(x, time, positive) - model.velocity(x, time, negative)


def simdrop_velocity(gen, ref, x, time: float, params: GuidanceParams) -> np.ndarray:
    base = gen.velocity(x, time, params.t)
    v = base
    if params.alpha:  # at alpha = 0 the reference delta would be multiplied by zero
        v = base - params.alpha * guidance_delta(ref, x, time, params.t_hat, params.n_hat)
    # base is reused for the CFG delta; algebraically identical to a second
    # gen(l, t) evaluation in the combination rule
    return v + params.beta * (base - gen.velocity(x, time, params.n))


# ---------------------------------------------------------------------------
# the transfer experiment


@dataclass(frozen=True)
class SimDropReport:
    """Population statistics of one guided sampling run.

    ``angular_coverage`` is the fraction of the 36 equal angle bins over
    [0, 360) that contain at least one sample after projecting to the (x, y)
    circle.  The artifact statistics summarize the z coordinate; they are
    None (flagged undefined) when no samples were drawn.
    """

    n_samples: int
    angular_coverage: float
    covered_bins: int
    artifact_mean: float | None
    artifact_abs_mean: float | None
    alpha: float
    beta: float


def run_simdrop_experiment(gen: VelocityModel, ref: VelocityModel,
                           params: GuidanceParams, n_samples: int, seed: int,
                           n_steps: int = 100) -> SimDropReport:
    """Draw guided samples and summarize capability vs artifact.

    Assumes the 3D toy layout (circle in x/y, artifact axis z).  All samples
    integrate in one vectorized batch; the initial noise comes from the
    seeded stream, so reports are deterministic given (models, params,
    n_samples, seed).
    """
    if gen.data_dim != ref.data_dim:
        raise ValueError("generation and reference models must share data_dim")
    if n_samples < 0:
        raise SettingError("n_samples", "a count >= 0", n_samples)
    # integrate before the empty-run return, so a bad n_steps is rejected either way
    rng = np.random.Generator(np.random.PCG64(seed))
    x = integrate(lambda x, t: simdrop_velocity(gen, ref, x, t, params),
                  rng.standard_normal((n_samples, gen.data_dim)), n_steps)
    if n_samples == 0:
        return SimDropReport(n_samples=0, angular_coverage=0.0, covered_bins=0,
                             artifact_mean=None, artifact_abs_mean=None,
                             alpha=params.alpha, beta=params.beta)

    angles = np.mod(np.arctan2(x[:, 1], x[:, 0]), 2.0 * np.pi)
    bins = np.floor(angles / (2.0 * np.pi / ANGLE_BINS)).astype(int)
    bins = np.minimum(bins, ANGLE_BINS - 1)
    covered = int(len(np.unique(bins)))

    z = x[:, 2]
    return SimDropReport(
        n_samples=n_samples,
        angular_coverage=covered / ANGLE_BINS,
        covered_bins=covered,
        artifact_mean=float(z.mean()),
        artifact_abs_mean=float(np.abs(z).mean()),
        alpha=params.alpha,
        beta=params.beta,
    )


def train_transfer_models(seed: int, n_points: int = 4000,
                          base_steps: int = 3000, gen_steps: int = 4000,
                          ref_steps: int = 1500, batch_size: int = 64):
    """Train the (base, generation, reference) model triple for the toy task.

    * base: fresh model on real data only (condition dropout on, so the null
      token learns the real distribution),
    * generation: base continued on the 50/50 mixed set,
    * reference: base continued on synthetic-only data under the reference
      label with condition dropout off, leaving the null token anchored at
      the real-data behavior it inherited.
    """
    learning_rate = 2e-3
    base_model = VelocityModel(data_dim=3, cond_dim=TOY_COND_DIM, seed=stream_seed(seed, "init"))

    real = toy_real_dataset(n_points, stream_seed(seed, "real-data"))
    mixed = toy_mixed_dataset(n_points, stream_seed(seed, "mixed-data"))
    synthetic = toy_synthetic_dataset(n_points, stream_seed(seed, "synthetic-data"),
                                      label=REFERENCE_LABEL)

    base, _ = train(base_model, real, TrainConfig(
        learning_rate=learning_rate, steps=base_steps, batch_size=batch_size,
        cond_dropout=0.1, seed=stream_seed(seed, "train-base")))
    gen, _ = train(base, mixed, TrainConfig(
        learning_rate=learning_rate, steps=gen_steps, batch_size=batch_size,
        cond_dropout=0.1, seed=stream_seed(seed, "train-gen")))
    ref, _ = train(base, synthetic, TrainConfig(
        learning_rate=learning_rate, steps=ref_steps, batch_size=batch_size,
        cond_dropout=0.0, seed=stream_seed(seed, "train-ref")))
    return base, gen, ref


def write_report(reports, path) -> None:
    """Write one or more experiment reports side by side as JSON."""
    doc = {"schema": jsondoc.SCHEMA_VERSION, "runs": [asdict(r) for r in reports]}
    Path(path).write_text(jsondoc.dumps(doc))
