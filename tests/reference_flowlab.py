"""The allocating flow-lab forward, backward and training loop, kept as the reference oracle.

``flowlab`` computes each layer in place in its matmul result, writes
gradients into views of one flat vector and reuses its buffers across a
``train`` call.  These functions build every intermediate as a fresh array,
the lab's original design: a one-hot input block from ``broadcast_to`` and
``concatenate``, ``tanh(x @ w + b)`` per layer, one array per gradient and a
momentum step over their concatenation.  ``train``, the loss and gradients
of ``flowlab._loss_and_grads`` (through ``flow_helpers.flow_match_loss``) and
guided sampling must equal theirs bit for bit.
"""

from __future__ import annotations

import numpy as np

from synthvid.flowlab import EMA_DECAY, MOMENTUM, DivergenceError, VelocityModel


def encode(model: VelocityModel, x, t, cond) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    batch = x.shape[0]
    t_col = np.broadcast_to(np.asarray(t, dtype=float), (batch,)).reshape(batch, 1)
    onehot = np.zeros((batch, model.cond_dim + 1))
    if cond is None:
        labels = np.full(batch, -1, dtype=int)
    else:
        arr = np.asarray(cond)
        labels = np.full(batch, int(arr), dtype=int) if arr.ndim == 0 else arr.astype(int)
    slots = np.where(labels < 0, model.cond_dim, labels)
    onehot[np.arange(batch), slots] = 1.0
    return np.concatenate([x, t_col, onehot], axis=1)


def forward(model: VelocityModel, inputs: np.ndarray):
    h1 = np.tanh(inputs @ model.w1 + model.b1)
    h2 = np.tanh(h1 @ model.w2 + model.b2)
    out = h2 @ model.w3 + model.b3
    return out, (inputs, h1, h2)


def backward(model: VelocityModel, cache, d_out: np.ndarray) -> list[np.ndarray]:
    inputs, h1, h2 = cache
    d_w3 = h2.T @ d_out
    d_b3 = d_out.sum(axis=0)
    d_h2 = d_out @ model.w3.T
    d_z2 = d_h2 * (1.0 - h2 ** 2)
    d_w2 = h1.T @ d_z2
    d_b2 = d_z2.sum(axis=0)
    d_h1 = d_z2 @ model.w2.T
    d_z1 = d_h1 * (1.0 - h1 ** 2)
    d_w1 = inputs.T @ d_z1
    d_b1 = d_z1.sum(axis=0)
    return [d_w1, d_b1, d_w2, d_b2, d_w3, d_b3]


def velocity(model: VelocityModel, x, t, cond) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    out, _ = forward(model, encode(model, x[None, :] if single else x, t, cond))
    return out[0] if single else out


def batch_loss_and_grads(model: VelocityModel, x0, x1, t, cond):
    """Mean flow-matching loss over a batch plus one gradient array per parameter."""
    x0 = np.atleast_2d(np.asarray(x0, dtype=float))
    x1 = np.atleast_2d(np.asarray(x1, dtype=float))
    batch = x0.shape[0]
    t_arr = np.broadcast_to(np.asarray(t, dtype=float), (batch,))

    x_t = (1.0 - t_arr)[:, None] * x0 + t_arr[:, None] * x1
    target = x1 - x0

    out, cache = forward(model, encode(model, x_t, t_arr, cond))
    residual = out - target
    loss = float((residual ** 2).sum() / batch)
    grads = backward(model, cache, 2.0 * residual / batch)
    return loss, grads


def train(model: VelocityModel, dataset, cfg):
    """Momentum SGD with an EMA of the iterates; returns ``(new model, loss trace)``."""
    model = model.copy()
    velocity_buffer = np.zeros_like(model.flat)
    averaged = model.flat.copy()
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    n = len(dataset)
    trace = np.empty(cfg.steps)

    for step in range(cfg.steps):
        idx = rng.integers(0, n, size=cfg.batch_size)
        x0 = dataset.points[idx]
        conds = dataset.labels[idx].copy()
        dropped = rng.random(cfg.batch_size) < cfg.cond_dropout
        conds[dropped] = -1  # null token
        x1 = rng.standard_normal((cfg.batch_size, model.data_dim))
        t = rng.random(cfg.batch_size)

        loss, grads = batch_loss_and_grads(model, x0, x1, t, conds)
        if not np.isfinite(loss):
            raise DivergenceError(f"loss became non-finite at step {step}")
        trace[step] = loss

        velocity_buffer *= MOMENTUM
        velocity_buffer -= cfg.learning_rate * np.concatenate([g.ravel() for g in grads])
        model.flat += velocity_buffer
        averaged *= EMA_DECAY
        averaged += (1.0 - EMA_DECAY) * model.flat

    model.set_params(averaged)
    return model, trace
