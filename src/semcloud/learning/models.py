"""The three regression methods that back the adaptive rule functions.

All three predict a single nonnegative scalar from a small numeric feature
vector and are deterministic given (data, hyper-parameters, seed).

Polynomial regression expands each feature into its powers [x, x^2, ..., x^m]
with one shared intercept, so a model of degree m over f features carries
m*f + 1 weights.  The multilayer perceptron applies the rectifier on hidden
and output layers and trains with seeded mini-batch gradient descent on
squared error.  KNN predicts the inverse-distance weighted mean of the k
nearest stored targets and returns an exact stored target at zero distance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, Divergence, EmptyModel, LearningError


def _as_matrix(X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if X.ndim != 2:
        raise DimensionMismatch(f"expected a samples x features matrix, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise LearningError("non-finite feature values")
    return X


def _as_vector(y, rows: int) -> np.ndarray:
    y = np.asarray(y, dtype=float).ravel()
    if y.shape[0] != rows:
        raise DimensionMismatch(f"{rows} samples but {y.shape[0]} targets")
    if not np.all(np.isfinite(y)):
        raise LearningError("non-finite target values")
    return y


@dataclass(frozen=True)
class Standardizer:
    mean: np.ndarray
    scale: np.ndarray

    @classmethod
    def fit(cls, X: np.ndarray) -> "Standardizer":
        mean = X.mean(axis=0)
        scale = X.std(axis=0)
        scale = np.where(scale > 0, scale, 1.0)
        return cls(mean=mean, scale=scale)

    def apply(self, X: np.ndarray) -> np.ndarray:
        return (X - self.mean) / self.scale


def _row_dot(A: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Products of ``A`` and ``w`` summed along the last axis.

    Each row is summed the same way however many rows share the call, so a
    prediction does not depend on its batch.  A matrix product does not give
    that: BLAS rounds one row (gemv) differently from many (gemm).
    """
    return (A * w).sum(axis=-1)


# ---------------------------------------------------------------------------
# polynomial regression
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PolyRModel:
    degree: int
    weights: np.ndarray  # length degree * n_features + 1, intercept first
    n_features: int
    feature_scale: np.ndarray  # per-feature max-abs guard, applied before expansion
    cross_terms: bool = False
    rank_deficient: bool = False

    @property
    def n_weights(self) -> int:
        return self.weights.shape[0]


def _poly_design(X: np.ndarray, degree: int, scale: np.ndarray,
                 cross_terms: bool) -> np.ndarray:
    Xs = X / scale
    columns = [np.ones(X.shape[0])]
    for j in range(X.shape[1]):
        for p in range(1, degree + 1):
            columns.append(Xs[:, j] ** p)
    if cross_terms:
        for j in range(X.shape[1]):
            for k in range(j + 1, X.shape[1]):
                columns.append(Xs[:, j] * Xs[:, k])
    return np.column_stack(columns)


def fit_polyr(X, y, degree: int, cross_terms: bool = False) -> PolyRModel:
    """Least squares on the per-feature power expansion.

    Solved with a QR/SVD factorization (numpy lstsq); a rank-deficient design
    falls back to the minimum-norm solution and the model is flagged.
    """
    if degree < 1:
        raise LearningError(f"degree must be >= 1, got {degree}")
    X = _as_matrix(X)
    y = _as_vector(y, X.shape[0])
    scale = np.max(np.abs(X), axis=0)
    scale = np.where(scale > 0, scale, 1.0)
    design = _poly_design(X, degree, scale, cross_terms)
    weights, _residual, rank, _sv = np.linalg.lstsq(design, y, rcond=None)
    return PolyRModel(
        degree=degree,
        weights=weights,
        n_features=X.shape[1],
        feature_scale=scale,
        cross_terms=cross_terms,
        rank_deficient=rank < design.shape[1],
    )


def predict_polyr(model: PolyRModel, X) -> np.ndarray:
    X = _as_matrix(X)
    if X.shape[1] != model.n_features:
        raise DimensionMismatch(
            f"model expects {model.n_features} features, got {X.shape[1]}"
        )
    design = _poly_design(X, model.degree, model.feature_scale, model.cross_terms)
    return _row_dot(design, model.weights)


# ---------------------------------------------------------------------------
# multilayer perceptron
# ---------------------------------------------------------------------------


@dataclass
class TrainConfig:
    epochs: int = 400
    step_size: float = 0.01
    batch_size: int = 32
    seed: int = 0


@dataclass
class MLPModel:
    weights: list  # W[l] of shape (n_out, n_in)
    biases: list  # b[l] of shape (n_out,)
    standardizer: Standardizer
    target_scale: float
    loss_history: list = field(default_factory=list)

    @property
    def n_features(self) -> int:
        return self.weights[0].shape[1]

    @property
    def layer_widths(self) -> list:
        return [w.shape[0] for w in self.weights]

    @property
    def n_parameters(self) -> int:
        return sum(w.size for w in self.weights) + sum(b.size for b in self.biases)


def _init_layers(widths, rng):
    weights, biases = [], []
    for n_in, n_out in zip(widths[:-1], widths[1:]):
        weights.append(rng.normal(0.0, np.sqrt(2.0 / n_in), size=(n_out, n_in)))
        biases.append(np.full(n_out, 0.1))
    return weights, biases


def _forward(weights, biases, X):
    """Returns (prediction, activations); rectifier on every layer."""
    activations = [X.T]  # columns are samples
    h = X.T
    for W, b in zip(weights, biases):
        h = np.maximum(0.0, W @ h + b[:, None])
        activations.append(h)
    return h[0], activations


def mlp_loss_and_gradients(weights, biases, X, y):
    """Mean squared error and its analytic gradients w.r.t. every parameter."""
    pred, acts = _forward(weights, biases, X)
    n = X.shape[0]
    err = pred - y
    loss = float(np.mean(err**2))
    grad_w = [None] * len(weights)
    grad_b = [None] * len(biases)
    delta = (2.0 / n) * err[None, :]  # gradient w.r.t. output activation
    for l in range(len(weights) - 1, -1, -1):
        pre_mask = (acts[l + 1] > 0).astype(float)  # ReLU derivative
        delta = delta * pre_mask
        grad_w[l] = delta @ acts[l].T
        grad_b[l] = delta.sum(axis=1)
        if l > 0:
            delta = weights[l].T @ delta
    return loss, grad_w, grad_b


def fit_mlp(X, y, hidden_widths, config: TrainConfig | None = None) -> MLPModel:
    """Seeded mini-batch gradient descent; loss per epoch is recorded."""
    if not hidden_widths:
        raise LearningError("hidden_widths must be nonempty")
    config = config or TrainConfig()
    X = _as_matrix(X)
    y = _as_vector(y, X.shape[0])

    standardizer = Standardizer.fit(X)
    Xs = standardizer.apply(X)
    target_scale = float(np.std(y)) or 1.0
    ys = y / target_scale

    rng = np.random.default_rng(config.seed)
    widths = [X.shape[1], *hidden_widths, 1]
    weights, biases = _init_layers(widths, rng)

    history = []
    n = X.shape[0]
    batch = max(1, min(config.batch_size, n))
    for _epoch in range(config.epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch):
            idx = order[start:start + batch]
            _, gw, gb = mlp_loss_and_gradients(weights, biases, Xs[idx], ys[idx])
            for l in range(len(weights)):
                weights[l] -= config.step_size * gw[l]
                biases[l] -= config.step_size * gb[l]
        loss, _, _ = mlp_loss_and_gradients(weights, biases, Xs, ys)
        if not np.isfinite(loss):
            raise Divergence(f"loss became non-finite at epoch {_epoch}")
        history.append(loss)

    return MLPModel(
        weights=weights,
        biases=biases,
        standardizer=standardizer,
        target_scale=target_scale,
        loss_history=history,
    )


def predict_mlp(model: MLPModel, X) -> np.ndarray:
    X = _as_matrix(X)
    if X.shape[1] != model.n_features:
        raise DimensionMismatch(
            f"model expects {model.n_features} features, got {X.shape[1]}"
        )
    # _forward's matrix products would round one row differently from many
    h = np.ascontiguousarray(model.standardizer.apply(X))
    for W, b in zip(model.weights, model.biases):
        h = np.maximum(0.0, _row_dot(h[:, None, :], W) + b)
    return h[:, 0] * model.target_scale


# ---------------------------------------------------------------------------
# k nearest neighbours
# ---------------------------------------------------------------------------


@dataclass
class KNNModel:
    k: int
    samples: np.ndarray  # standardized
    targets: np.ndarray
    standardizer: Standardizer

    @property
    def n_features(self) -> int:
        return self.samples.shape[1]


def fit_knn(X, y, k: int) -> KNNModel:
    X = _as_matrix(X)
    y = _as_vector(y, X.shape[0])
    if X.shape[0] == 0:
        raise EmptyModel("no training samples")
    if not 1 <= k <= X.shape[0]:
        raise LearningError(f"k={k} outside [1, {X.shape[0]}]")
    standardizer = Standardizer.fit(X)
    return KNNModel(k=k, samples=standardizer.apply(X), targets=y, standardizer=standardizer)


# Rows scored per broadcast block in predict_knn: the block's
# (rows, samples, features) difference array holds about this many floats
# (512 KB).  Larger blocks were no faster and raise peak memory.
_KNN_BLOCK_ELEMENTS = 1 << 16


def _nearest(dist: np.ndarray, k: int):
    """Per row, the first k indices of a stable argsort of ``dist``, and
    their distances.

    A partition finds each row's k-th smallest distance; the samples up to
    it are the k nearest (of those tied with it, the lowest-indexed), and
    one stable argsort puts them in (distance, index) order.
    """
    rows = np.arange(dist.shape[0])[:, None]
    if k < dist.shape[1]:
        kth = np.partition(dist, k - 1, axis=1)[:, k - 1:k]
        take = dist <= kth
        if np.count_nonzero(take) > k * dist.shape[0]:  # ties at the k-th distance
            below = dist < kth
            tied = dist == kth
            room = k - below.sum(axis=1, keepdims=True)
            take = below | (tied & (np.cumsum(tied, axis=1) <= room))
        index = np.nonzero(take)[1].reshape(-1, k)
    else:
        index = np.broadcast_to(np.arange(k), dist.shape)
    nearest = index[rows, np.argsort(dist[rows, index], axis=1, kind="stable")]
    return nearest, dist[rows, nearest]


def predict_knn(model: KNNModel, X) -> np.ndarray:
    X = _as_matrix(X)
    if X.shape[1] != model.n_features:
        raise DimensionMismatch(
            f"model expects {model.n_features} features, got {X.shape[1]}"
        )
    Xs = model.standardizer.apply(X)
    out = np.empty(Xs.shape[0])
    rows = max(1, _KNN_BLOCK_ELEMENTS // model.samples.size)
    for start in range(0, Xs.shape[0], rows):
        block = Xs[start:start + rows]
        dist = np.sqrt(np.sum((model.samples[None, :, :] - block[:, None, :]) ** 2, axis=2))
        nearest, d = _nearest(dist, model.k)
        targets = model.targets[nearest]
        exact = d[:, 0] == 0.0  # exact stored point: its target, no weighting
        w = 1.0 / np.where(exact[:, None], 1.0, d)
        weighted = np.sum(w * targets, axis=1) / np.sum(w, axis=1)
        out[start:start + rows] = np.where(exact, targets[:, 0], weighted)
    return out
