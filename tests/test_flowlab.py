import json
import re

import numpy as np
import pytest

from synthvid import flowlab
from synthvid.flowlab import (
    EMA_DECAY,
    MOMENTUM,
    DivergenceError,
    NonFiniteStateError,
    ToyDataset,
    TrainConfig,
    VelocityModel,
    flow_match_loss,
    integrate,
    load_checkpoint,
    save_checkpoint,
    toy_mixed_dataset,
    toy_real_dataset,
    toy_synthetic_dataset,
    train,
)
from synthvid.jsondoc import FormatError

from flow_helpers import energy_distance, gaussian_mixture_dataset


def tiny_model(seed=0, data_dim=2, cond_dim=2, hidden=8):
    return VelocityModel(data_dim=data_dim, cond_dim=cond_dim, hidden=hidden, seed=seed)


def noise(seed, shape=2):
    return np.random.Generator(np.random.PCG64(seed)).standard_normal(shape)


# -- weights --


def test_params_are_views_into_one_flat_vector():
    model = tiny_model()
    assert model.flat.dtype == np.float64 and model.flat.flags.c_contiguous
    assert model.n_params() == model.flat.size
    assert (np.concatenate([p.ravel() for p in model.params()]) == model.flat).all()
    for p in model.params():
        assert np.shares_memory(p, model.flat)
    model.w2.ravel()[3] = 7.5
    assert 7.5 in model.flat


def test_init_draws_weights_from_one_stream():
    model = VelocityModel(data_dim=2, cond_dim=2, hidden=8, seed=4)
    rng = np.random.Generator(np.random.PCG64(4))
    w1 = rng.standard_normal((6, 8)) / np.sqrt(6)
    w2 = rng.standard_normal((8, 8)) / np.sqrt(8)
    w3 = rng.standard_normal((8, 2)) / np.sqrt(8)
    for got, want in zip(model.params(), (w1, np.zeros(8), w2, np.zeros(8), w3, np.zeros(2))):
        assert got.shape == want.shape and (got == want).all()


def test_copy_and_set_params_own_their_weights():
    model = tiny_model(seed=3)
    clone = model.copy()
    clone.w1[0, 0] += 1.0
    assert clone.w1[0, 0] != model.w1[0, 0]
    replacement = np.arange(model.n_params(), dtype=float)
    model.set_params(replacement)
    replacement[0] = -1.0
    assert model.flat[0] == 0.0 and model.b3[-1] == model.n_params() - 1
    with pytest.raises(ValueError):
        model.set_params(np.zeros(model.n_params() + 1))


# -- loss --


def test_perfect_prediction_has_zero_loss():
    model = tiny_model()
    x0 = np.array([0.3, -0.7])
    x1 = np.array([1.1, 0.4])
    # force the network output to the exact target via the last layer
    model.w3[:] = 0.0
    model.b3[:] = x1 - x0
    loss, _ = flow_match_loss(model, x0, x1, t=0.42, cond=0)
    assert loss == pytest.approx(0.0, abs=1e-24)


def test_interpolation_endpoints():
    # the loss must evaluate the model exactly at x0 when t=0 and x1 when t=1
    model = tiny_model()
    rng = np.random.default_rng(5)
    x0, x1 = rng.standard_normal(2), rng.standard_normal(2)
    for t, point in ((0.0, x0), (1.0, x1)):
        loss_t, _ = flow_match_loss(model, x0, x1, t=t, cond=None)
        prediction = model.velocity(point, t, None)
        expected = float(((prediction - (x1 - x0)) ** 2).sum())
        assert loss_t == pytest.approx(expected, rel=1e-12)


def test_t_out_of_range_rejected():
    model = tiny_model()
    with pytest.raises(ValueError):
        flow_match_loss(model, np.zeros(2), np.zeros(2), t=1.5, cond=0)


def test_dimension_mismatch_rejected():
    model = tiny_model()
    with pytest.raises(ValueError):
        flow_match_loss(model, np.zeros(3), np.zeros(3), t=0.5, cond=0)


def _finite_difference_check(model, x0, x1, t, cond, h=1e-4, tol=1e-4):
    _, grads = flow_match_loss(model, x0, x1, t, cond)
    worst = 0.0
    for p_idx, p in enumerate(model.params()):
        flat = p.ravel()
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            loss_plus, _ = flow_match_loss(model, x0, x1, t, cond)
            flat[j] = orig - h
            loss_minus, _ = flow_match_loss(model, x0, x1, t, cond)
            flat[j] = orig
            fd = (loss_plus - loss_minus) / (2.0 * h)
            g = grads[p_idx].ravel()[j]
            worst = max(worst, abs(g - fd) / max(abs(g), abs(fd), 1e-8))
    assert worst <= tol, f"worst relative gradient error {worst:.2e}"


def test_gradients_match_finite_differences(rng):
    for seed in (0, 1):
        model = tiny_model(seed=seed)
        x0, x1 = rng.standard_normal(2), rng.standard_normal(2)
        cond = [0, 1, None][seed % 3]
        _finite_difference_check(model, x0, x1, float(rng.uniform(0.05, 0.95)), cond)


def test_null_and_labels_use_distinct_slots():
    model = tiny_model()
    x = np.array([0.5, -0.5])
    outs = [model.velocity(x, 0.5, c) for c in (0, 1, None)]
    assert not np.allclose(outs[0], outs[1])
    assert not np.allclose(outs[0], outs[2])


def test_label_out_of_range_rejected():
    model = tiny_model(cond_dim=2)
    with pytest.raises(ValueError):
        model.velocity(np.zeros(2), 0.5, 2)


def test_label_below_null_token_rejected():
    model = tiny_model(cond_dim=2)
    x = np.array([0.5, -0.5])
    assert (model.velocity(x, 0.5, -1) == model.velocity(x, 0.5, None)).all()
    with pytest.raises(ValueError, match="label -5"):
        model.velocity(x, 0.5, -5)
    with pytest.raises(ValueError, match="label -2"):
        model.velocity(np.zeros((3, 2)), 0.5, [0, -2, -1])


@pytest.mark.parametrize("cond", [0.7, -0.9, True, [0, 1.5]])
def test_non_integer_label_rejected(cond):
    with pytest.raises(ValueError, match="must be integers"):
        tiny_model().velocity(np.zeros((2, 2)), 0.5, cond)


# -- training --


def test_zero_steps_leaves_model_unchanged():
    model = tiny_model()
    dataset = gaussian_mixture_dataset(100, seed=1)
    cfg = TrainConfig(learning_rate=1e-3, steps=0, batch_size=8, cond_dropout=0.1, seed=2)
    trained, trace = train(model, dataset, cfg)
    assert len(trace) == 0
    for p_new, p_old in zip(trained.params(), model.params()):
        assert (p_new == p_old).all()


def test_training_is_deterministic():
    dataset = gaussian_mixture_dataset(500, seed=3)
    cfg = TrainConfig(learning_rate=2e-3, steps=200, batch_size=32, cond_dropout=0.1, seed=4)
    a, trace_a = train(tiny_model(seed=9), dataset, cfg)
    b, trace_b = train(tiny_model(seed=9), dataset, cfg)
    assert (trace_a == trace_b).all()
    for pa, pb in zip(a.params(), b.params()):
        assert (pa == pb).all()


def test_training_does_not_mutate_input_model():
    model = tiny_model()
    before = [p.copy() for p in model.params()]
    dataset = gaussian_mixture_dataset(200, seed=3)
    train(model, dataset, TrainConfig(2e-3, 50, 16, 0.1, seed=5))
    for p, p0 in zip(model.params(), before):
        assert (p == p0).all()


def test_training_reduces_loss():
    dataset = gaussian_mixture_dataset(4000, seed=6)
    cfg = TrainConfig(learning_rate=2e-3, steps=2000, batch_size=128, cond_dropout=0.1, seed=7)
    _, trace = train(VelocityModel(2, 1, seed=8), dataset, cfg)
    assert trace[-100:].mean() < trace[:100].mean()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergent_learning_rate_raises():
    dataset = gaussian_mixture_dataset(500, seed=3)
    cfg = TrainConfig(learning_rate=1e6, steps=500, batch_size=32, cond_dropout=0.0, seed=4)
    with pytest.raises(DivergenceError):
        train(tiny_model(), dataset, cfg)


def test_labels_must_fit_cond_dim():
    bad = ToyDataset(np.zeros((4, 2)), np.array([0, 1, 2, 5]))
    with pytest.raises(ValueError):
        train(tiny_model(cond_dim=2), bad, TrainConfig(1e-3, 10, 4, 0.0, seed=0))


def _per_array_train(model, dataset, cfg):
    """The momentum/EMA update written per weight array, as a reference for train."""
    model = model.copy()
    params = model.params()
    buffers = [np.zeros_like(p) for p in params]
    averaged = [p.copy() for p in params]
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    for _ in range(cfg.steps):
        idx = rng.integers(0, len(dataset), size=cfg.batch_size)
        conds = dataset.labels[idx].copy()
        conds[rng.random(cfg.batch_size) < cfg.cond_dropout] = -1
        x1 = rng.standard_normal((cfg.batch_size, model.data_dim))
        t = rng.random(cfg.batch_size)
        _, grads = flowlab._batch_loss_and_grads(model, dataset.points[idx], x1, t, conds)
        for buf, p, g in zip(buffers, params, grads):
            buf *= MOMENTUM
            buf -= cfg.learning_rate * g
            p += buf
        for avg, p in zip(averaged, params):
            avg *= EMA_DECAY
            avg += (1.0 - EMA_DECAY) * p
    return averaged


def test_flat_update_matches_per_array_reference():
    dataset = gaussian_mixture_dataset(300, seed=14)
    cfg = TrainConfig(learning_rate=5e-3, steps=50, batch_size=16, cond_dropout=0.2, seed=15)
    model = tiny_model(seed=16, cond_dim=1)
    trained, _ = train(model, dataset, cfg)
    for got, want in zip(trained.params(), _per_array_train(model, dataset, cfg)):
        assert got.tobytes() == want.tobytes()


def test_null_condition_reachable_after_dropout_training():
    dataset = gaussian_mixture_dataset(1000, seed=10)
    model, _ = train(VelocityModel(2, 1, seed=11), dataset,
                     TrainConfig(2e-3, 500, 64, 0.2, seed=12))
    out = integrate(lambda x, t: model.velocity(x, t, None), noise(13), 50)
    assert np.isfinite(out).all()


# -- sampling --


def test_zero_field_returns_initial_noise():
    out = integrate(lambda x, t: np.zeros_like(x), noise(21), 25)
    assert (out == noise(21)).all()


def test_sampling_is_deterministic():
    model = tiny_model()
    field = lambda x, t: model.velocity(x, t, 0)  # noqa: E731
    assert (integrate(field, noise(3), 50) == integrate(field, noise(3), 50)).all()


def test_integrate_handles_a_batch_like_single_points():
    model = tiny_model()
    field = lambda x, t: model.velocity(x, t, 1)  # noqa: E731
    batch = noise(5, (4, 2))
    together = integrate(field, batch, 20)
    assert together.shape == (4, 2)
    for row, point in zip(together, batch):
        assert np.allclose(row, integrate(field, point, 20), atol=1e-12)


def test_linear_field_matches_closed_form_oracle():
    # dx/dt = a x integrated from t=1 down to 0:
    #   exact solution x(0) = x(1) exp(-a)
    #   Euler with n steps x(0) = x(1) (1 - a/n)^n
    a = 0.5
    x1 = noise(31)
    exact = x1 * np.exp(-a)
    errors = {}
    for n_steps in (1, 100):
        out = integrate(lambda x, t: a * x, x1, n_steps)
        closed_euler = x1 * (1.0 - a / n_steps) ** n_steps
        assert np.abs(out - closed_euler).max() < 1e-12
        bound = np.abs(closed_euler - exact).max() + 1e-12
        errors[n_steps] = np.abs(out - exact).max()
        assert errors[n_steps] <= bound
    assert errors[100] < errors[1]


def test_constant_field_is_exact_for_any_step_count():
    c = np.array([0.7, -0.2])
    x1 = noise(41)
    for n_steps in (1, 7, 100):
        out = integrate(lambda x, t: np.broadcast_to(c, x.shape), x1, n_steps)
        assert np.allclose(out, x1 - c, atol=1e-12)


@pytest.mark.parametrize("n_steps", [0, -3, 2.5, True, "10"])
def test_integrate_rejects_bad_step_counts(n_steps):
    with pytest.raises(ValueError, match="n_steps"):
        integrate(lambda x, t: x, noise(1), n_steps)


def test_integrate_names_the_non_finite_step():
    # four steps visit t = 1, 0.75, 0.5, 0.25; the field is infinite only at the last
    def field(x, t):
        return np.full_like(x, np.inf) if t < 0.3 else np.zeros_like(x)

    with pytest.raises(NonFiniteStateError, match="step 3"):
        integrate(field, noise(2), 4)


# -- toy data --


def test_toy_distribution_geometry():
    real = toy_real_dataset(4000, seed=50)
    syn = toy_synthetic_dataset(4000, seed=51)
    assert (real.points[:, 1] >= -1e-9).all()          # upper half circle
    assert abs(float(real.points[:, 2].mean())) < 0.02  # artifact axis near 0
    assert abs(float(syn.points[:, 2].mean()) - 2.0) < 0.02
    assert (syn.points[:, 1] < 0).any()                 # full circle
    radii = np.linalg.norm(syn.points[:, :2], axis=1)
    assert np.abs(radii - 1.0).max() < 1e-9


def test_mixed_dataset_labels():
    mixed = toy_mixed_dataset(1000, seed=52)
    assert set(np.unique(mixed.labels)) == {0, 1}
    assert abs((mixed.labels == 1).mean() - 0.5) < 1e-9


# -- energy distance --


def test_energy_distance_identity_and_separation(rng):
    x = rng.standard_normal((500, 2))
    assert energy_distance(x, x) == pytest.approx(0.0, abs=1e-7)
    shifted = x + np.array([3.0, 0.0])
    same = energy_distance(x, rng.standard_normal((500, 2)))
    assert energy_distance(x, shifted) > 10 * same


def test_energy_distance_symmetry(rng):
    x = rng.standard_normal((200, 2))
    y = rng.standard_normal((200, 2)) + 0.3
    assert energy_distance(x, y) == pytest.approx(energy_distance(y, x), rel=1e-12)


# -- checkpoints --


def test_checkpoint_round_trip(tmp_path):
    model, _ = train(tiny_model(seed=61), gaussian_mixture_dataset(200, seed=62),
                     TrainConfig(1e-3, 100, 16, 0.1, seed=63))
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path, seed=61, train_steps=100)
    loaded, header = load_checkpoint(path)
    assert header["train_steps"] == 100
    for pa, pb in zip(model.params(), loaded.params()):
        assert (pa == pb).all()
    x = np.array([0.1, 0.2])
    assert (model.velocity(x, 0.5, 0) == loaded.velocity(x, 0.5, 0)).all()


def test_checkpoint_bytes_deterministic(tmp_path):
    model = tiny_model(seed=71)
    save_checkpoint(model, tmp_path / "a.ckpt", seed=1, train_steps=0)
    save_checkpoint(model, tmp_path / "b.ckpt", seed=1, train_steps=0)
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


def test_checkpoint_resave_is_byte_identical(tmp_path):
    model, _ = train(tiny_model(seed=64), gaussian_mixture_dataset(200, seed=65),
                     TrainConfig(1e-3, 30, 16, 0.1, seed=66))
    save_checkpoint(model, tmp_path / "a.ckpt", seed=64, train_steps=30)
    loaded, header = load_checkpoint(tmp_path / "a.ckpt")
    save_checkpoint(loaded, tmp_path / "b.ckpt", seed=header["seed"],
                    train_steps=header["train_steps"])
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


def _checkpoint_parts(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(tiny_model(seed=81), path, seed=81, train_steps=0)
    head, payload = path.read_bytes().split(b"\n", 1)
    return path, json.loads(head), payload


def _write(path, header, payload):
    path.write_bytes(json.dumps(header).encode("ascii") + b"\n" + payload)


def test_checkpoint_without_header_newline_rejected(tmp_path):
    path = tmp_path / "garbage.ckpt"
    path.write_bytes(bytes(range(1, 10)) + b"\xff\x00garbage")
    with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: header: no newline"):
        load_checkpoint(path)


@pytest.mark.parametrize("field", ["param_count", "hidden", "train_steps"])
def test_checkpoint_header_missing_field_rejected(tmp_path, field):
    path, header, payload = _checkpoint_parts(tmp_path)
    del header[field]
    _write(path, header, payload)
    with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: header: {field}: missing$"):
        load_checkpoint(path)


def test_checkpoint_wrong_payload_size_rejected(tmp_path):
    path, header, payload = _checkpoint_parts(tmp_path)
    for bad in (payload[:-8], payload + b"\0" * 8, payload[:-3]):
        _write(path, header, bad)
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: payload .* 'param_count'"):
            load_checkpoint(path)
    _write(path, dict(header, param_count=header["param_count"] - 1), payload[:-8])
    with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: header: param_count: "
                                          f"{header['param_count'] - 1} does not match"):
        load_checkpoint(path)


@pytest.mark.parametrize("value", [-1, 8.0, None])
def test_checkpoint_bad_dimension_rejected(tmp_path, value):
    path, header, payload = _checkpoint_parts(tmp_path)
    _write(path, dict(header, hidden=value), payload)
    with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: header: hidden: "
                                          "expected an integer"):
        load_checkpoint(path)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_checkpoint_non_finite_weights_rejected(tmp_path, value):
    path, header, payload = _checkpoint_parts(tmp_path)
    weights = np.frombuffer(payload, dtype="<f8").copy()
    weights[5] = value
    _write(path, header, weights.tobytes())
    with pytest.raises(FormatError,
                       match=f"^{re.escape(str(path))}: payload has non-finite weights"):
        load_checkpoint(path)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0, steps=1, batch_size=1, cond_dropout=0.0, seed=0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=1e-3, steps=1, batch_size=1, cond_dropout=1.0, seed=0)
