"""Toy-flow evaluation helpers that only the tests use: a Gaussian-mixture
dataset and the energy distance between two samples."""

import numpy as np

from synthvid.flowlab import ToyDataset


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
