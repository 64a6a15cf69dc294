"""The three regression methods that back the adaptive rule functions.

All three predict a single scalar from a small numeric feature vector and
are deterministic given (data, hyper-parameters).  The MLP's prediction is
nonnegative, and KNN's is when its stored targets are; polynomial regression
is not bounded below and can extrapolate below zero.

Polynomial regression expands each feature into its powers [x, x^2, ..., x^m]
with one shared intercept, so a model of degree m over f features carries
m*f + 1 weights.  The multilayer perceptron applies the rectifier on hidden
and output layers and trains with seeded mini-batch gradient descent on
squared error.  KNN predicts the inverse-distance weighted mean of the k
nearest stored targets and returns an exact stored target at zero distance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, Divergence, EmptyModel, LearningError


def _as_matrix(X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if X.ndim != 2:
        raise DimensionMismatch(f"expected a samples x features matrix, got shape {X.shape}")
    if not np.isfinite(X).all():
        raise LearningError("non-finite feature values")
    return X


def _model_rows(model, X) -> np.ndarray:
    """``X`` as a matrix of ``model``'s feature count."""
    X = _as_matrix(X)
    if X.shape[1] != model.n_features:
        raise DimensionMismatch(f"model expects {model.n_features} features, got {X.shape[1]}")
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
    feature_scale: np.ndarray  # per-feature max-abs guard, applied before expansion
    rank_deficient: bool = False

    @property
    def n_features(self) -> int:
        return self.feature_scale.shape[0]

    @property
    def size(self) -> int:
        """What the grid search's tie-break minimises."""
        return self.degree


def _poly_design(X: np.ndarray, degree: int, scale: np.ndarray) -> np.ndarray:
    """The intercept, then each feature's powers 1..degree: column
    ``p + j * degree`` holds ``Xs[:, j] ** p``, with ``Xs = X / scale``.

    Powers 1 and 2 are exact operations (a copy, and numpy's square, one
    correctly rounded product), so they fill every feature's column at once
    with the same bits.  Higher powers go through pow and are taken one
    column at a time, so none depends on how numpy loops over a matrix.
    """
    Xs = X / scale
    design = np.empty((X.shape[0], X.shape[1] * degree + 1))
    design[:, 0] = 1.0
    design[:, 1::degree] = Xs
    if degree > 1:
        np.square(Xs, out=design[:, 2::degree])
    for j in range(X.shape[1]):
        for p in range(3, degree + 1):
            design[:, p + j * degree] = Xs[:, j] ** p
    return design


def fit_polyr(X, y, degree: int) -> PolyRModel:
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
    design = _poly_design(X, degree, scale)
    weights, _residual, rank, _sv = np.linalg.lstsq(design, y, rcond=None)
    return PolyRModel(
        degree=degree,
        weights=weights,
        feature_scale=scale,
        rank_deficient=rank < design.shape[1],
    )


def predict_polyr(model: PolyRModel, X) -> np.ndarray:
    X = _model_rows(model, X)
    design = _poly_design(X, model.degree, model.feature_scale)
    return _row_dot(design, model.weights)


# ---------------------------------------------------------------------------
# multilayer perceptron
# ---------------------------------------------------------------------------


# fit_mlp's mini-batch size and the seed of its initial weights and shuffles
_BATCH_SIZE = 32
_INIT_SEED = 0


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
    def size(self) -> int:
        """What the grid search's tie-break minimises: the parameter count."""
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


def fit_mlp(X, y, hidden_widths, epochs: int = 300, step_size: float = 0.01) -> MLPModel:
    """Seeded mini-batch gradient descent; loss per epoch is recorded."""
    if not hidden_widths:
        raise LearningError("hidden_widths must be nonempty")
    X = _as_matrix(X)
    y = _as_vector(y, X.shape[0])

    standardizer = Standardizer.fit(X)
    Xs = standardizer.apply(X)
    target_scale = float(np.std(y)) or 1.0
    ys = y / target_scale

    rng = np.random.default_rng(_INIT_SEED)
    widths = [X.shape[1], *hidden_widths, 1]
    weights, biases = _init_layers(widths, rng)

    history = []
    n = X.shape[0]
    batch = max(1, min(_BATCH_SIZE, n))
    for _epoch in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch):
            idx = order[start:start + batch]
            _, gw, gb = mlp_loss_and_gradients(weights, biases, Xs[idx], ys[idx])
            for l in range(len(weights)):
                weights[l] -= step_size * gw[l]
                biases[l] -= step_size * gb[l]
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
    X = _model_rows(model, X)
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

    @property
    def size(self) -> int:
        """What the grid search's tie-break minimises."""
        return self.k

    @cached_property
    def columns(self) -> np.ndarray:
        """The samples transposed, one contiguous row per feature; copied on
        the first prediction and kept with the model."""
        return np.ascontiguousarray(self.samples.T)


def fit_knn(X, y, k: int) -> KNNModel:
    X = _as_matrix(X)
    y = _as_vector(y, X.shape[0])
    if X.shape[0] == 0:
        raise EmptyModel("no training samples")
    if not 1 <= k <= X.shape[0]:
        raise LearningError(f"k={k} outside [1, {X.shape[0]}]")
    standardizer = Standardizer.fit(X)
    return KNNModel(k=k, samples=standardizer.apply(X), targets=y, standardizer=standardizer)


# Distances scored per block in predict_knn: a block's (rows, candidate
# samples) distance matrix holds at most this many floats (128 KB), unless
# one row alone has more candidates.  A call whose rows x samples fit is one
# block of every sample, with no bound to compute.  The sum over features
# keeps one more matrix that size per term in flight (eight lanes from 8
# features on), and the call keeps one per-sample vector per fixed feature;
# the model keeps its samples transposed, copied once.  A 241-row,
# 562-sample slicing-grid call, four of its six features fixed, peaked at
# 300 KB (570 KB when every block scored all samples); the 300 grid calls
# of a seed-101 fleet batch peaked at 460 KB in the median, 620 KB at most.
_KNN_BLOCK_ELEMENTS = 1 << 14


def _ordered_sum(term, start, stop):
    """``term(start) + ... + term(stop - 1)``, added in the order np.sum adds
    a contiguous axis of ``stop - start`` values, so the totals are the same
    bit for bit.

    numpy sums such an axis pairwise: one term after another below 8 terms;
    from 8 to 128 in eight interleaved lanes, combined as
    ((l0+l1)+(l2+l3))+((l4+l5)+(l6+l7)), then the remainder one by one;
    above 128 as two halves split at a multiple of 8.  Each ``term(j)`` must
    return a fresh array, because the sum accumulates into it.  A term may
    be a vector that stands for every row of the matrix terms: it is added
    into the matrix side, in place, which gives the same bits because IEEE
    addition commutes.  The total is a vector only if every term is one.
    """
    n = stop - start
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _ordered_sum(term, start, start + half) + _ordered_sum(term, start + half, stop)
    if n < 8:
        total, rest = term(start), start + 1
    else:
        lanes = [term(start + j) for j in range(8)]
        rest = stop - n % 8
        for base in range(start + 8, rest, 8):
            for j in range(8):
                t = term(base + j)
                if t.ndim > lanes[j].ndim:
                    lanes[j], t = t, lanes[j]
                lanes[j] += t
        l0, l1, l2, l3, l4, l5, l6, l7 = lanes
        total = ((l0 + l1) + (l2 + l3)) + ((l4 + l5) + (l6 + l7))
    for j in range(rest, stop):
        t = term(j)
        if t.ndim > total.ndim:
            total, t = t, total
        total += t
    return total


def _nearest(dist: np.ndarray, k: int):
    """Per row, the k nearest indices in (distance, index) order, and their
    distances; overwrites ``dist``.

    Each of k passes takes every row's smallest remaining distance, at its
    lowest index, and masks it with inf: on finite distances that is a
    stable argsort's first k, at O(k * samples) per row.  Once a row's
    remaining distances are all inf a pass may take an index again, which
    predict_knn weighs 1/inf = 0, as it would a new one.
    """
    rows = np.arange(dist.shape[0])
    nearest = np.empty((dist.shape[0], k), dtype=np.intp)
    d = np.empty((dist.shape[0], k))
    for j in range(k):
        nearest[:, j] = pick = dist.argmin(axis=1)
        d[:, j] = dist[rows, pick]
        dist[rows, pick] = np.inf
    return nearest, d


def _distances(columns, block, fixed):
    """Distances from each row of ``block`` to each sample column, bit for
    bit the per-row algorithm's sqrt of np.sum over the feature axis.

    ``fixed`` maps a feature to the per-sample vector of squared
    differences that every row shares.  A vector comes back when every
    feature is in ``fixed``; ``block`` is then not read.
    """
    def squared(j):
        if j in fixed:
            return fixed[j].copy()
        d = columns[j] - block[:, j:j + 1]
        d *= d
        return d

    dist = _ordered_sum(squared, 0, columns.shape[0])
    return np.sqrt(dist, out=dist)


def _knn_blocks(k, columns, Xs, fixed):
    """Consecutive row blocks of a predict_knn call: (start, stop, kept),
    where ``kept`` is None or the sample indices, ascending, that can hold
    one of a block row's k nearest.

    With some features but not all fixed, a sample's distance from the
    fixed features alone (the varying terms set to zero) is a lower bound
    on its distance from every row: each term is >= 0 and rounding to
    nearest is monotone.  The k samples of smallest bound give each row a
    reach, its largest distance to them, which is at least its k-th
    nearest distance.  A sample whose bound exceeds a block's largest
    reach is farther from every block row than that row's k-th nearest,
    so dropping it changes no pick, tie-breaks included.  Blocks are
    sized so that rows * kept stays within _KNN_BLOCK_ELEMENTS, or are
    one row.  A call whose rows * samples already fit is one block of
    every sample: the bound could not make it fewer blocks.  ``columns``
    is the model's cached transpose, one contiguous row per feature.
    """
    n = columns.shape[1]
    if not fixed or len(fixed) == columns.shape[0] or Xs.shape[0] * n <= _KNN_BLOCK_ELEMENTS:
        rows = max(1, _KNN_BLOCK_ELEMENTS // n)
        for start in range(0, Xs.shape[0], rows):
            yield start, start + rows, None
        return
    zero = np.zeros(n)
    bound = _distances(columns, None, {j: fixed.get(j, zero) for j in range(columns.shape[0])})
    order = np.argsort(bound, kind="stable")
    ranked = bound[order]
    seed = order[:k]
    seed_fixed = {j: v[seed] for j, v in fixed.items()}
    # the reaches are found a window of rows at a time, rows * k within budget
    window = max(1, _KNN_BLOCK_ELEMENTS // k)
    for base in range(0, Xs.shape[0], window):
        reach = _distances(columns[:, seed], Xs[base:base + window], seed_fixed).max(axis=1)
        # samples each row alone would keep; a NaN reach sorts last
        counts = np.searchsorted(ranked, reach, side="right")
        start = 0
        while start < reach.shape[0]:
            size = np.maximum.accumulate(counts[start:]) * np.arange(1, reach.shape[0] - start + 1)
            stop = start + max(1, int(np.count_nonzero(size <= _KNN_BLOCK_ELEMENTS)))
            # not (bound > reach): a NaN bound or reach keeps the sample
            kept = np.flatnonzero(~(bound > reach[start:stop].max()))
            yield base + start, base + stop, None if kept.shape[0] == n else kept
            start = stop


def predict_knn(model: KNNModel, X) -> np.ndarray:
    X = _model_rows(model, X)
    Xs = model.standardizer.apply(X)
    columns = model.columns
    # A feature equal in every row of a many-row call adds one per-sample
    # vector of squared differences, computed once per call.
    fixed = {}
    if Xs.shape[0] > 1:
        for j in (Xs == Xs[0]).all(axis=0).nonzero()[0].tolist():
            fixed[j] = d = columns[j] - Xs[0, j]
            d *= d
    out = np.empty(Xs.shape[0])
    for start, stop, kept in _knn_blocks(model.k, columns, Xs, fixed):
        block = Xs[start:stop]
        if kept is None:
            dist = _distances(columns, block, fixed)
        else:  # elementwise operations give the same bits on a column subset
            dist = _distances(columns[:, kept], block, {j: v[kept] for j, v in fixed.items()})
        if dist.ndim == 1:  # every feature fixed; _nearest overwrites dist
            dist = np.broadcast_to(dist, (block.shape[0], dist.shape[0])).copy()
        nearest, d = _nearest(dist, model.k)
        if kept is not None:
            nearest = kept[nearest]
        targets = model.targets[nearest]
        exact = d[:, 0] == 0.0  # exact stored point: its target, no weighting
        w = 1.0 / np.where(exact[:, None], 1.0, d)
        weighted = (w * targets).sum(axis=1) / w.sum(axis=1)
        out[start:stop] = np.where(exact, targets[:, 0], weighted)
    return out
