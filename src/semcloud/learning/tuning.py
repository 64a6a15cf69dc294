"""Hyper-parameter grid search and minimal-training-data sweeps.

All splits are seeded uniform shuffles with an 80/20 train/test ratio.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import LearningError
from .metrics import nmae
from .models import (
    KNNModel,
    MLPModel,
    PolyRModel,
    fit_knn,
    fit_mlp,
    fit_polyr,
    predict_knn,
    predict_mlp,
    predict_polyr,
)

TRAIN_FRACTION = 0.8


@dataclass
class FitReport:
    method: str
    hyperparameters: dict
    nmae: float
    learning_time_ms: float = 0.0
    inference_time_ms: float = 0.0


def train_test_split(X, y, seed: int):
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n = X.shape[0]
    order = np.random.default_rng(seed).permutation(n)
    cut = max(1, min(n - 1, int(round(n * TRAIN_FRACTION))))
    tr, te = order[:cut], order[cut:]
    return X[tr], y[tr], X[te], y[te]


_FIT = {"polyr": fit_polyr, "mlp": fit_mlp, "knn": fit_knn}
_PREDICT = {PolyRModel: predict_polyr, MLPModel: predict_mlp, KNNModel: predict_knn}


def fit_method(method: str, X, y, params: dict):
    """The ``method`` model fitted with the hyper-parameters ``params``."""
    try:
        fit = _FIT[method]
    except KeyError:
        raise LearningError(f"unknown method {method!r}") from None
    return fit(X, y, **params)


def predict_method(model, X) -> np.ndarray:
    try:
        predict = _PREDICT[type(model)]
    except KeyError:
        raise LearningError(f"unknown model type {type(model).__name__}") from None
    return predict(model, X)


def grid_search(method: str, grid, data, split_seed: int = 0):
    """Pick the hyper-parameters minimising held-out nmae.

    ``grid`` is a sequence of parameter dicts; ties break toward the smaller
    model (lower degree / fewer parameters / smaller k), and a ``k`` above
    the training row count is skipped.  Returns (best_params, best_model,
    FitReport).
    """
    grid = list(grid)
    if not grid:
        raise LearningError("empty hyper-parameter grid")
    X, y = data
    X_tr, y_tr, X_te, y_te = train_test_split(X, y, split_seed)
    # a knn grid point needs k training rows; a split too small for some of
    # them is searched over the rest
    fitting = [params for params in grid if params.get("k", 0) <= len(y_tr)]
    if not fitting:
        raise LearningError(f"no {method} grid point fits {len(y_tr)} training rows "
                            f"(of {len(y)}): {grid}")

    best = None
    for params in fitting:
        t0 = time.perf_counter()
        model = fit_method(method, X_tr, y_tr, params)
        learn_ms = (time.perf_counter() - t0) * 1e3
        t0 = time.perf_counter()
        pred = predict_method(model, X_te)
        infer_ms = (time.perf_counter() - t0) * 1e3 / max(len(y_te), 1)
        score = nmae(pred, y_te)
        key = (score, model.size)
        if best is None or key < best[0]:
            best = (key, params, model, learn_ms, infer_ms)

    key, params, model, learn_ms, infer_ms = best
    report = FitReport(
        method=method,
        hyperparameters=dict(params),
        nmae=key[0],
        learning_time_ms=learn_ms,
        inference_time_ms=infer_ms,
    )
    return params, model, report


def min_train_fraction_sweep(method: str, params: dict, data, target_nmae: float,
                             fractions, seeds=(0, 1, 2, 3, 4)):
    """Held-out nmae as a function of the training-data fraction.

    Each fraction is averaged over the seeded resamples.  Returns
    (curve, min_fraction) where curve is a list of (fraction, mean_nmae) and
    min_fraction is the smallest fraction reaching the target (None if the
    target is never reached).
    """
    fractions = sorted(fractions)
    if not fractions or not all(0 < f <= 1 for f in fractions):
        raise LearningError("fractions must lie in (0, 1]")
    X, y = data
    curve = []
    for fraction in fractions:
        scores = []
        for seed in seeds:
            X_tr, y_tr, X_te, y_te = train_test_split(X, y, seed)
            taken = max(2, int(round(fraction * len(y_tr))))
            keep = np.random.default_rng(seed + 7919).permutation(len(y_tr))[:taken]
            try:
                model = fit_method(method, X_tr[keep], y_tr[keep], params)
                scores.append(nmae(predict_method(model, X_te), y_te))
            except LearningError:
                scores.append(float("inf"))
        curve.append((fraction, float(np.mean(scores))))
    min_fraction = next((f for f, score in curve if score <= target_nmae), None)
    return curve, min_fraction
