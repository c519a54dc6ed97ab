"""The in-place flow lab against the allocating reference, bit for bit."""

import numpy as np
import pytest

from synthvid.flowlab import (
    TOY_COND_DIM,
    TrainConfig,
    VelocityModel,
    toy_mixed_dataset,
    train,
)
from synthvid.guidance import ANGLE_BINS, default_guidance_params, run_simdrop_experiment

import reference_flowlab as ref
from flow_helpers import flow_match_loss


def toy_model(seed, hidden=16):
    return VelocityModel(data_dim=3, cond_dim=TOY_COND_DIM, hidden=hidden, seed=seed)


@pytest.mark.parametrize("hidden", [16, 64])
@pytest.mark.parametrize("cond_dropout", [0.0, 0.2])
@pytest.mark.parametrize("batch", [1, 16, 64, 512, 2000])
def test_train_matches_reference(batch, cond_dropout, hidden):
    dataset = toy_mixed_dataset(3000, seed=batch)
    model = toy_model(seed=batch + hidden, hidden=hidden)
    cfg = TrainConfig(learning_rate=2e-3, steps=12, batch_size=batch,
                      cond_dropout=cond_dropout, seed=7)
    got, got_trace = train(model, dataset, cfg)
    want, want_trace = ref.train(model, dataset, cfg)
    assert got_trace.tobytes() == want_trace.tobytes()
    assert got.flat.tobytes() == want.flat.tobytes()


@pytest.mark.parametrize("cond", [None, 0, 2, -1, np.array([0, 1, 2, -1, 2, -1, 0, 1])])
def test_flow_match_loss_matches_reference(cond):
    model = toy_model(seed=3, hidden=32)
    rng = np.random.default_rng(11)
    for batch_shape in ((8, 3),) if np.ndim(cond) else ((3,), (8, 3)):
        x0, x1 = rng.standard_normal(batch_shape), rng.standard_normal(batch_shape)
        t = float(rng.uniform())
        loss, grads = flow_match_loss(model, x0, x1, t, cond)
        want_loss, want_grads = ref.batch_loss_and_grads(model, x0, x1, t, cond)
        assert loss == want_loss
        assert len(grads) == len(want_grads)
        for got, want in zip(grads, want_grads):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("cond", [None, 1, np.array([0, 1, 2, -1, 2])])
def test_velocity_matches_reference(cond):
    model = toy_model(seed=5, hidden=64)
    x = np.random.default_rng(2).standard_normal((5, 3))
    t = np.linspace(0.0, 1.0, 5)
    assert model.velocity(x, t, cond).tobytes() == ref.velocity(model, x, t, cond).tobytes()
    assert model.velocity(x[0], 0.3, 1).tobytes() == ref.velocity(model, x[0], 0.3, 1).tobytes()


def reference_simdrop(gen, ref_model, params, n_samples, seed, n_steps):
    """SimDrop sampling through the reference forward, evaluating both models at every step."""
    x = np.random.Generator(np.random.PCG64(seed)).standard_normal((n_samples, gen.data_dim))
    dt = 1.0 / n_steps
    for k in range(n_steps):
        t = 1.0 - k * dt
        base = ref.velocity(gen, x, t, params.t)
        delta = ref.velocity(ref_model, x, t, params.t_hat) \
            - ref.velocity(ref_model, x, t, params.n_hat)
        v = base - params.alpha * delta
        x = x - dt * (v + params.beta * (base - ref.velocity(gen, x, t, params.n)))
    return x


@pytest.mark.parametrize("alpha", [0.0, 0.1, 0.2])
def test_simdrop_experiment_matches_reference_sampler(alpha):
    dataset = toy_mixed_dataset(500, seed=1)
    cfg = TrainConfig(learning_rate=2e-3, steps=40, batch_size=32, cond_dropout=0.1, seed=2)
    gen, _ = train(toy_model(seed=3, hidden=32), dataset, cfg)
    ref_model, _ = train(toy_model(seed=4, hidden=32), dataset, cfg)
    params = default_guidance_params(alpha=alpha)
    report = run_simdrop_experiment(gen, ref_model, params, n_samples=64, seed=5, n_steps=20)

    x = reference_simdrop(gen, ref_model, params, 64, 5, 20)
    angles = np.mod(np.arctan2(x[:, 1], x[:, 0]), 2.0 * np.pi)
    bins = np.minimum(np.floor(angles / (2.0 * np.pi / ANGLE_BINS)).astype(int), ANGLE_BINS - 1)
    assert report.covered_bins == len(np.unique(bins))
    assert report.artifact_mean == float(x[:, 2].mean())
    assert report.artifact_abs_mean == float(np.abs(x[:, 2]).mean())
