"""Toy-flow helpers that only the tests use: the loss and gradients of one
draw, a Gaussian-mixture dataset and the energy distance between two samples."""

import numpy as np

from synthvid.flowlab import ToyDataset, VelocityModel, _loss_and_grads


def flow_match_loss(model: VelocityModel, x0, x1, t: float, cond):
    """Squared flow-matching loss for a single (x0, x1, t, cond) draw.

    Returns ``(loss, grads)`` where grads align with ``model.params()`` and
    come from the package's own backward pass, ``flowlab._loss_and_grads``,
    the one ``train`` steps with.
    """
    if not (0.0 <= t <= 1.0):
        raise ValueError("t must lie in [0, 1]")
    x0 = np.atleast_2d(np.asarray(x0, dtype=float))
    x1 = np.atleast_2d(np.asarray(x1, dtype=float))
    if x0.shape != x1.shape or x0.shape[1] != model.data_dim:
        raise ValueError("x0/x1 shape mismatch with model data_dim")
    batch = len(x0)
    grads = model._views(np.empty_like(model.flat))
    loss = _loss_and_grads(model, x0, x1, np.full(batch, float(t)), model._labels(cond, batch),
                           np.empty((batch, model.w1.shape[0])), grads)
    return loss, grads


def gaussian_mixture_dataset(n: int, seed: int,
                             centers=((-1.5, 0.0), (1.5, 0.0)),
                             sigma: float = 0.3, label: int = 0) -> ToyDataset:
    rng = np.random.Generator(np.random.PCG64(seed))
    centers = np.asarray(centers, dtype=float)
    which = rng.integers(len(centers), size=n)
    points = centers[which] + sigma * rng.standard_normal((n, centers.shape[1]))
    return ToyDataset(points, np.full(n, label))


def energy_distance(x: np.ndarray, y: np.ndarray) -> float:
    """Energy distance between two samples.

    Computed as sqrt(max(0, 2 E||x - y|| - E||x - x'|| - E||y - y'||)) with
    plain all-pairs means (V-statistic, diagonal included), so same-sample
    baselines stay strictly positive at finite n.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))

    def mean_pairwise(a, b):
        sq = (a ** 2).sum(1)[:, None] + (b ** 2).sum(1)[None, :] - 2.0 * (a @ b.T)
        return float(np.sqrt(np.maximum(sq, 0.0)).mean())

    stat = 2.0 * mean_pairwise(x, y) - mean_pairwise(x, x) - mean_pairwise(y, y)
    return float(np.sqrt(max(stat, 0.0)))
