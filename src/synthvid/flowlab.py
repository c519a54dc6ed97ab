"""Toy conditional flow-matching lab.

A small dense network learns a velocity field over low-dimensional points:
with x0 a data point, x1 a noise point, and x_t = (1 - t) x0 + t x1, the
network is regressed onto the straight-path target u = x1 - x0.  Sampling
integrates the learned field backward from t = 1 to t = 0 with Euler steps
of velocity -v(x, t, cond).

Everything is explicit numpy: the forward pass, the backward pass, and
momentum SGD, so gradients can be checked against finite differences and
runs are bit-reproducible from their seeds.

A layer allocates nothing beyond its matmul result: the bias add, the tanh
and the tanh derivative run in place, and the backward pass writes each
gradient into a view of one vector laid out like ``VelocityModel.flat``.
Each ``train`` call allocates that gradient vector and the (batch, in_dim)
input block once and reuses them for every step; the momentum and EMA
updates run on the same vector.  Condition labels are checked where they
enter: ``velocity`` checks its own, and ``train`` checks the dataset's
labels once, so the per-step input builder does not.

The 3D "transfer" construction used by the guidance experiments: real data
lives on the upper half of the unit circle with a small-noise z near 0;
synthetic data covers the full circle but sits at z near 2.  Angular
coverage is the capability a model can learn only from synthetic data; the
z offset is the rendering artifact nobody wants to keep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import jsondoc

__all__ = [
    "DivergenceError",
    "NonFiniteStateError",
    "EMA_DECAY",
    "MOMENTUM",
    "REAL_LABEL",
    "TAGGED_SYNTHETIC_LABEL",
    "REFERENCE_LABEL",
    "SettingError",
    "TOY_COND_DIM",
    "ToyDataset",
    "TrainConfig",
    "VelocityModel",
    "integrate",
    "load_checkpoint",
    "save_checkpoint",
    "toy_mixed_dataset",
    "toy_real_dataset",
    "toy_synthetic_dataset",
    "train",
]

MOMENTUM = 0.9  # classical momentum coefficient for all training runs

# Trained models are the exponential moving average of the SGD iterates.
# Without it the returned weights inherit the jitter of whatever the last
# few minibatches happened to be, which visibly distorts sampled
# distributions (mode balance in particular).
EMA_DECAY = 0.999

# Toy condition vocabulary: real-footage caption, tagged synthetic caption,
# and the content-agnostic caption used to train reference models.
REAL_LABEL = 0
TAGGED_SYNTHETIC_LABEL = 1
REFERENCE_LABEL = 2
TOY_COND_DIM = 3

_SYNTHETIC_Z_MEAN = 2.0
_Z_SIGMA = 0.1


class DivergenceError(RuntimeError):
    """Training loss became non-finite."""


class NonFiniteStateError(RuntimeError):
    """Sampler state became non-finite."""


class SettingError(ValueError):
    """A setting outside its legal range: ``<setting>: expected <expected>, got <value>``.

    The three parts are kept as attributes, so a caller that set the value
    under another name (a command-line flag) can report the fault by that name.
    """

    def __init__(self, setting: str, expected: str, value):
        super().__init__(f"{setting}: expected {expected}, got {value}")
        self.setting, self.expected, self.value = setting, expected, value


def _weight_shapes(data_dim: int, cond_dim: int, hidden: int) -> list[tuple[int, ...]]:
    """Shapes of w1, b1, w2, b2, w3, b3; the input is data + time + cond_dim + null."""
    in_dim = data_dim + 1 + cond_dim + 1
    return [(in_dim, hidden), (hidden,), (hidden, hidden), (hidden,),
            (hidden, data_dim), (data_dim,)]


class VelocityModel:
    """Dense velocity network: data + time + one-hot condition in, velocity out.

    Two tanh hidden layers.  The condition block has ``cond_dim`` label slots
    plus a trailing null slot (classifier-free style unconditional token);
    ``cond=None`` or ``-1`` selects the null slot.

    All weights live in one contiguous float64 vector ``flat``; ``w1, b1, w2,
    b2, w3, b3`` are reshaped views into it, in that (checkpoint) order.
    """

    def __init__(self, data_dim: int, cond_dim: int, hidden: int = 64, seed: int = 0):
        self.data_dim = int(data_dim)
        self.cond_dim = int(cond_dim)
        self.hidden = int(hidden)
        in_dim = self.data_dim + 1 + self.cond_dim + 1

        rng = np.random.Generator(np.random.PCG64(seed))
        w1 = rng.standard_normal((in_dim, hidden)) / np.sqrt(in_dim)
        w2 = rng.standard_normal((hidden, hidden)) / np.sqrt(hidden)
        w3 = rng.standard_normal((hidden, self.data_dim)) / np.sqrt(hidden)
        self.set_params(np.concatenate([w1.ravel(), np.zeros(hidden), w2.ravel(),
                                        np.zeros(hidden), w3.ravel(), np.zeros(self.data_dim)]))

    # -- parameters --

    def params(self) -> list[np.ndarray]:
        return [self.w1, self.b1, self.w2, self.b2, self.w3, self.b3]

    def _views(self, flat: np.ndarray) -> list[np.ndarray]:
        """``flat`` cut into views shaped like ``w1, b1, w2, b2, w3, b3``."""
        shapes = _weight_shapes(self.data_dim, self.cond_dim, self.hidden)
        ends = np.cumsum([math.prod(shape) for shape in shapes])
        if flat.shape != (ends[-1],):
            raise ValueError(f"expected {ends[-1]} weights, got shape {flat.shape}")
        return [part.reshape(shape) for part, shape in zip(np.split(flat, ends[:-1]), shapes)]

    def set_params(self, flat) -> None:
        """Copy one vector in ``flat`` order into the model and bind the named views."""
        flat = np.array(flat, dtype=float)
        self.w1, self.b1, self.w2, self.b2, self.w3, self.b3 = self._views(flat)
        self.flat = flat

    def copy(self) -> "VelocityModel":
        clone = VelocityModel.__new__(VelocityModel)
        clone.data_dim, clone.cond_dim, clone.hidden = self.data_dim, self.cond_dim, self.hidden
        clone.set_params(self.flat)
        return clone

    def n_params(self) -> int:
        return self.flat.size

    # -- forward / backward --

    def _labels(self, cond, batch: int) -> np.ndarray:
        """One checked label per row: -1 (the null token) or 0..cond_dim-1."""
        if cond is None:
            return np.full(batch, -1, dtype=int)
        arr = np.asarray(cond)
        if arr.dtype.kind not in "iu":
            raise ValueError(f"condition labels must be integers or None, got {cond!r}")
        if arr.ndim and arr.shape != (batch,):
            raise ValueError(f"expected one condition label per row ({batch}), "
                             f"got shape {arr.shape}")
        labels = np.full(batch, int(arr), dtype=int) if arr.ndim == 0 else arr.astype(int)
        bad = labels[(labels < -1) | (labels >= self.cond_dim)]
        if bad.size:
            raise ValueError(f"condition label {bad[0]} out of range: expected -1 (null) "
                             f"or 0..{self.cond_dim - 1}")
        return labels

    def _encode(self, inputs: np.ndarray, t, labels: np.ndarray) -> np.ndarray:
        """Complete the network input in place and return it.

        The first ``data_dim`` columns of ``inputs`` already hold the points;
        this writes the time column and the one-hot condition block.
        ``labels`` must come from :meth:`_labels` or another checked source.
        """
        batch, d = len(inputs), self.data_dim
        inputs[:, d] = t
        onehot = inputs[:, d + 1:]
        onehot.fill(0.0)
        onehot[np.arange(batch), np.where(labels < 0, self.cond_dim, labels)] = 1.0
        return inputs

    def _forward(self, inputs: np.ndarray):
        """Output and the activations :meth:`_backward` needs; each layer is
        computed in place in its own matmul result."""
        h1 = inputs @ self.w1
        h1 += self.b1
        np.tanh(h1, out=h1)
        h2 = h1 @ self.w2
        h2 += self.b2
        np.tanh(h2, out=h2)
        out = h2 @ self.w3
        out += self.b3
        return out, (inputs, h1, h2)

    def _backward(self, cache, d_out: np.ndarray, grads: list[np.ndarray]) -> None:
        """Backpropagate ``d_out`` into ``grads``, views shaped like :meth:`params`.

        The hidden activations in ``cache`` are overwritten.
        """
        inputs, h1, h2 = cache
        d_w1, d_b1, d_w2, d_b2, d_w3, d_b3 = grads
        np.matmul(h2.T, d_out, out=d_w3)
        np.sum(d_out, axis=0, out=d_b3)
        d_z2 = _through_tanh(d_out @ self.w3.T, h2)
        np.matmul(h1.T, d_z2, out=d_w2)
        np.sum(d_z2, axis=0, out=d_b2)
        d_z1 = _through_tanh(d_z2 @ self.w2.T, h1)
        np.matmul(inputs.T, d_z1, out=d_w1)
        np.sum(d_z1, axis=0, out=d_b1)

    def velocity(self, x, t, cond) -> np.ndarray:
        """Velocity prediction; accepts a single point (d,) or a batch (B, d)."""
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        if single:
            x = x[None, :]
        if x.shape[1] != self.data_dim:
            raise ValueError(f"expected data dimension {self.data_dim}, got {x.shape[1]}")
        inputs = np.empty((len(x), self.w1.shape[0]))
        inputs[:, :self.data_dim] = x
        out, _ = self._forward(self._encode(inputs, t, self._labels(cond, len(x))))
        return out[0] if single else out


def _through_tanh(d_h: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Gradient at the pre-activation of ``h = tanh(z)``: ``d_h * (1 - h**2)``.

    Built in ``d_h``, which is returned; ``h`` is overwritten.
    """
    np.square(h, out=h)
    np.subtract(1.0, h, out=h)
    d_h *= h
    return d_h


def _loss_and_grads(model: VelocityModel, x0, x1, t, labels, inputs, grads) -> float:
    """Mean flow-matching loss over a batch; the parameter gradients go into ``grads``.

    ``x0``, ``x1`` are (B, d) and ``t`` is (B,); ``labels`` must be checked
    already.  ``inputs`` is a (B, in_dim) buffer and ``grads`` are views shaped
    like ``model.params()``; both are overwritten.
    """
    batch = len(x0)
    x_t = inputs[:, :model.data_dim]
    np.multiply((1.0 - t)[:, None], x0, out=x_t)
    x_t += t[:, None] * x1

    residual, cache = model._forward(model._encode(inputs, t, labels))
    residual -= x1 - x0
    loss = float((residual ** 2).sum() / batch)
    residual *= 2.0
    residual /= batch
    model._backward(cache, residual, grads)
    return loss


# ---------------------------------------------------------------------------
# datasets


@dataclass(frozen=True)
class ToyDataset:
    points: np.ndarray  # (N, d)
    labels: np.ndarray  # (N,) condition indices

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        labels = np.asarray(self.labels, dtype=int)
        if pts.ndim != 2 or len(pts) != len(labels):
            raise ValueError("points must be (N, d) with one label per point")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "labels", labels)

    def __len__(self):
        return len(self.points)


def _circle_points(n, rng, angle_high, z_mean):
    theta = rng.uniform(0.0, angle_high, n)
    z = rng.normal(z_mean, _Z_SIGMA, n)
    return np.stack([np.cos(theta), np.sin(theta), z], axis=1)


def _stream(n: int, seed: int) -> np.random.Generator:
    """The seeded stream of a toy dataset of ``n`` points; rejects ``n < 0``."""
    if n < 0:
        raise SettingError("n", "a count >= 0", n)
    return np.random.Generator(np.random.PCG64(seed))


def toy_real_dataset(n: int, seed: int) -> ToyDataset:
    """Half circle (angles 0..180 degrees), artifact coordinate z ~ N(0, 0.1^2)."""
    return ToyDataset(_circle_points(n, _stream(n, seed), np.pi, 0.0), np.full(n, REAL_LABEL))


def toy_synthetic_dataset(n: int, seed: int,
                          label: int = TAGGED_SYNTHETIC_LABEL) -> ToyDataset:
    """Full circle, artifact coordinate z ~ N(2, 0.1^2)."""
    return ToyDataset(_circle_points(n, _stream(n, seed), 2.0 * np.pi, _SYNTHETIC_Z_MEAN),
                      np.full(n, label))


def toy_mixed_dataset(n: int, seed: int, synthetic_share: float = 0.5) -> ToyDataset:
    """Real points (label 0) blended with tagged synthetic points (label 1)."""
    if not (0.0 <= synthetic_share <= 1.0):
        raise SettingError("synthetic_share", "a number in [0, 1]", synthetic_share)
    rng = _stream(n, seed)
    n_syn = int(round(synthetic_share * n))
    real = _circle_points(n - n_syn, rng, np.pi, 0.0)
    syn = _circle_points(n_syn, rng, 2.0 * np.pi, _SYNTHETIC_Z_MEAN)
    points = np.concatenate([real, syn])
    labels = np.concatenate([np.full(n - n_syn, REAL_LABEL),
                             np.full(n_syn, TAGGED_SYNTHETIC_LABEL)])
    order = rng.permutation(n)
    return ToyDataset(points[order], labels[order])


# ---------------------------------------------------------------------------
# training


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float
    steps: int
    batch_size: int
    cond_dropout: float
    seed: int

    def __post_init__(self):
        if not 0.0 < self.learning_rate < np.inf:   # false for NaN
            raise SettingError("learning_rate", "a finite number > 0", self.learning_rate)
        if self.steps < 0:
            raise SettingError("steps", "a count >= 0", self.steps)
        if self.batch_size < 1:
            raise SettingError("batch_size", "a count >= 1", self.batch_size)
        if not (0.0 <= self.cond_dropout < 1.0):
            raise SettingError("cond_dropout", "a number in [0, 1)", self.cond_dropout)


def train(model: VelocityModel, dataset: ToyDataset, cfg: TrainConfig):
    """Momentum-SGD flow-matching training; returns ``(new model, loss trace)``.

    With probability ``cond_dropout`` a batch item's condition is replaced by
    the null token, which is what later enables classifier-free guidance.
    The returned weights are the EMA of the iterates (see ``EMA_DECAY``).
    The input model is left untouched.  Deterministic given ``cfg.seed``.
    """
    if len(dataset) == 0:
        raise SettingError("dataset size", "a count >= 1", 0)
    outside = (dataset.labels < 0) | (dataset.labels >= model.cond_dim)
    if outside.any():
        raise SettingError("labels", f"a label in [0, {model.cond_dim})",
                           int(dataset.labels[outside][0]))
    if dataset.points.shape[1] != model.data_dim:
        raise ValueError(f"dataset points have dimension {dataset.points.shape[1]}, "
                         f"expected the model's {model.data_dim}")

    model = model.copy()
    velocity_buffer = np.zeros_like(model.flat)
    averaged = model.flat.copy()
    grad = np.empty_like(model.flat)
    grads = model._views(grad)
    inputs = np.empty((cfg.batch_size, model.w1.shape[0]))
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    n = len(dataset)
    trace = np.empty(cfg.steps)

    for step in range(cfg.steps):
        idx = rng.integers(0, n, size=cfg.batch_size)
        x0 = np.take(dataset.points, idx, axis=0)
        conds = np.take(dataset.labels, idx)
        dropped = rng.random(cfg.batch_size) < cfg.cond_dropout
        conds[dropped] = -1  # null token
        x1 = rng.standard_normal((cfg.batch_size, model.data_dim))
        t = rng.random(cfg.batch_size)

        loss = _loss_and_grads(model, x0, x1, t, conds, inputs, grads)
        if not np.isfinite(loss):
            raise DivergenceError(f"loss became non-finite at step {step}")
        trace[step] = loss

        velocity_buffer *= MOMENTUM
        grad *= cfg.learning_rate
        velocity_buffer -= grad
        model.flat += velocity_buffer
        averaged *= EMA_DECAY
        averaged += np.multiply(1.0 - EMA_DECAY, model.flat, out=grad)  # grad is spent

    model.set_params(averaged)
    return model, trace


# ---------------------------------------------------------------------------
# sampling


def integrate(velocity_fn, x, n_steps: int) -> np.ndarray:
    """Euler-integrate a flow backward from t = 1 (noise) to t = 0 (data).

    Step k evaluates ``v = velocity_fn(x, t)`` at ``t = 1 - k * dt`` with
    ``dt = 1 / n_steps`` and moves ``x <- x - dt * v``.  ``x`` may be one point
    or a batch; ``velocity_fn`` sees it as given.
    """
    if isinstance(n_steps, bool) or not isinstance(n_steps, (int, np.integer)) or n_steps < 1:
        raise ValueError(f"n_steps must be an integer >= 1, got {n_steps!r}")
    x = np.asarray(x, dtype=float)
    dt = 1.0 / n_steps
    for k in range(n_steps):
        x = x - dt * velocity_fn(x, 1.0 - k * dt)
        if not np.isfinite(x).all():
            raise NonFiniteStateError(f"sampler state became non-finite at step {k}")
    return x


# ---------------------------------------------------------------------------
# checkpoints: one JSON header line, then raw float64 parameters


_HEADER_FIELDS = ("schema", "data_dim", "cond_dim", "hidden", "param_count", "seed",
                  "train_steps")


def save_checkpoint(model: VelocityModel, path, seed: int | None = None,
                    train_steps: int | None = None) -> None:
    header = {
        "schema": jsondoc.SCHEMA_VERSION,
        "data_dim": model.data_dim,
        "cond_dim": model.cond_dim,
        "hidden": model.hidden,
        "param_count": model.n_params(),
        "seed": seed,
        "train_steps": train_steps,
    }
    head = jsondoc.dumps_line(header).encode("ascii")
    Path(path).write_bytes(head + b"\n" + model.flat.astype("<f8").tobytes())


def load_checkpoint(path):
    """Returns ``(model, header_dict)``.

    A malformed file raises :class:`~synthvid.jsondoc.FormatError` naming
    ``path`` and the header field or the payload.
    """
    data = Path(path).read_bytes()
    head, newline, payload = data.partition(b"\n")
    if not newline:
        raise jsondoc.FormatError(f"{path}: header: no newline ends a JSON header line")
    header = jsondoc.loads(head, f"{path}: header").object(_HEADER_FIELDS).schema()
    dims = []
    for field in ("data_dim", "cond_dim", "hidden"):
        dims.append(header[field].integer())
        if dims[-1] < 0:
            raise header[field].error(f"expected an integer >= 0, got {dims[-1]}")
    for field in ("seed", "train_steps"):
        if header[field].value is not None:
            header[field].integer()
    n_weights = sum(math.prod(shape) for shape in _weight_shapes(*dims))
    param_count = header["param_count"].integer()
    if param_count != n_weights:
        raise header["param_count"].error(
            f"{param_count} does not match the {n_weights} weights its dimensions imply")
    if len(payload) != 8 * param_count:
        raise jsondoc.FormatError(f"{path}: payload holds {len(payload)} bytes but header field "
                                  f"'param_count' = {param_count} needs {8 * param_count}")
    flat = np.frombuffer(payload, dtype="<f8")
    if not np.isfinite(flat).all():
        raise jsondoc.FormatError(f"{path}: payload has non-finite weights")

    model = VelocityModel(*dims, seed=0)
    model.set_params(flat)
    return model, header.value
