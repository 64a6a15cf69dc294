"""Binding fitted models to the rule externals, plus the model file format.

Each estimation external has a fixed call signature; a model is accepted only
if its feature count matches.  The training frame for every external is
extracted from pilot statistics here, so learning and rule evaluation agree
on feature order.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import LearningError, SignatureMismatch
from .models import (
    KNNModel,
    MLPModel,
    PolyRModel,
    Standardizer,
)
from .tuning import predict_method

MODEL_FORMAT = "semcloud-model/1"

# Estimation targets learned from single-node pilot rows.  Each entry maps an
# external to (feature columns, target column); "i" is the slice index input,
# replicated over range(1..R) at frame-building time.
ESTIMATION_TARGETS = {
    "func_ms": (("no_records", "volume"), "slice_memory"),
    "func_mp": (("no_records", "volume", "slice_memory", "i"), "prepare_memory"),
    "func_ssl": (("no_records", "volume"), "slice_storage"),
    "func_spr": (("no_records", "volume", "slice_storage", "i"), "prepare_storage"),
    "func_sst": (("no_records", "volume", "slice_storage", "prepare_storage"), "store_storage"),
}

# Configuration targets learned from varied-(nc, ns) pilot rows.
CONFIGURATION_TARGETS = {
    "func_ss": (("no_records", "volume", "chunk_size", "slice_size"), "slice_memory"),
    "func_pn": (("no_records", "volume", "chunk_size", "slice_size"), "prepare_memory"),
}

# The total-time model behind the slicing optimum search.
TIME_FEATURES = ("volume", "no_records", "chunk_size", "slice_size",
                 "slice_time", "prepare_time")
TIME_TARGET = "total_time"


def training_frame(records, external: str):
    """(X, y) arrays for one external, drawn from the matching run kind."""
    from ..datalog.corpus import RANGE_SIZE

    if external in ESTIMATION_TARGETS:
        features, target = ESTIMATION_TARGETS[external]
        rows = [r for r in records if r.kind == "estimation"]
    elif external in CONFIGURATION_TARGETS:
        features, target = CONFIGURATION_TARGETS[external]
        rows = [r for r in records if r.kind == "configuration"]
    else:
        raise LearningError(f"no training frame defined for @{external}")
    if not rows:
        raise LearningError(f"no {external} training rows in the pilot statistics")

    X, y = [], []
    for r in rows:
        if "i" in features:
            for i in range(1, RANGE_SIZE + 1):
                X.append([getattr(r, f) if f != "i" else float(i) for f in features])
                y.append(getattr(r, target))
        else:
            X.append([getattr(r, f) for f in features])
            y.append(getattr(r, target))
    return np.asarray(X, dtype=float), np.asarray(y, dtype=float)


def time_model_frame(records):
    rows = [r for r in records if r.kind == "configuration"]
    if not rows:
        raise LearningError("no configuration-kind rows for the time model")
    X = np.asarray([[getattr(r, f) for f in TIME_FEATURES] for r in rows], dtype=float)
    y = np.asarray([getattr(r, TIME_TARGET) for r in rows], dtype=float)
    return X, y


def register_externals(models: dict, registry: ExternalRegistry | None = None) -> ExternalRegistry:
    """Wrap fitted models as pure functions and register them by name.

    ``models`` maps external names (without '@') to fitted models.  Raises
    SignatureMismatch when a model's feature count differs from the call
    signature's arity.
    """
    from ..datalog.corpus import ALL_EXTERNALS
    from ..datalog.engine import ExternalRegistry

    arities = dict(ALL_EXTERNALS)
    registry = registry or ExternalRegistry()
    for name, model in models.items():
        if name not in arities:
            raise SignatureMismatch(f"@{name} is not a known external")
        arity = arities[name]
        n_features = getattr(model, "n_features", None)
        if n_features != arity:
            raise SignatureMismatch(
                f"@{name} takes {arity} arguments but the model has {n_features} features"
            )

        def call(*args, _model=model, _name=name, _arity=arity):
            if len(args) != _arity:
                raise SignatureMismatch(f"@{_name} called with {len(args)} arguments")
            return float(predict_method(_model, np.asarray([args], dtype=float))[0])

        registry.register(name, call, arity)
    return registry


# ---------------------------------------------------------------------------
# model files
# ---------------------------------------------------------------------------


def model_to_dict(model) -> dict:
    if isinstance(model, PolyRModel):
        return {
            "format": MODEL_FORMAT,
            "method": "polyr",
            "hyperparameters": {"degree": model.degree, "cross_terms": model.cross_terms},
            "payload": {
                "weights": model.weights.tolist(),
                "n_features": model.n_features,
                "feature_scale": model.feature_scale.tolist(),
                "rank_deficient": bool(model.rank_deficient),
            },
        }
    if isinstance(model, MLPModel):
        return {
            "format": MODEL_FORMAT,
            "method": "mlp",
            "hyperparameters": {"hidden_widths": model.layer_widths[:-1]},
            "payload": {
                "weights": [w.tolist() for w in model.weights],
                "biases": [b.tolist() for b in model.biases],
                "mean": model.standardizer.mean.tolist(),
                "scale": model.standardizer.scale.tolist(),
                "target_scale": model.target_scale,
            },
        }
    if isinstance(model, KNNModel):
        return {
            "format": MODEL_FORMAT,
            "method": "knn",
            "hyperparameters": {"k": model.k},
            "payload": {
                "samples": model.samples.tolist(),
                "targets": model.targets.tolist(),
                "mean": model.standardizer.mean.tolist(),
                "scale": model.standardizer.scale.tolist(),
            },
        }
    raise LearningError(f"cannot serialize {type(model).__name__}")


def _whole(value, name, low, high=None):
    """``value`` if it is an int in ``[low, high]`` (no upper bound when None)."""
    if (isinstance(value, bool) or not isinstance(value, int) or value < low
            or (high is not None and value > high)):
        raise LearningError(f"model {name} must be an integer in [{low}, "
                            f"{'inf' if high is None else high}], got {value!r}")
    return value


def _finite_array(value, name, shape, positive=False):
    """``value`` as a finite float array of ``shape``; a None length is any
    length from 1 up.  With ``positive`` every entry must be above zero."""
    try:
        array = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        array = None
    if (array is None or array.ndim != len(shape)
            or any(have != want if want is not None else have < 1
                   for have, want in zip(array.shape, shape))
            or not np.all(np.isfinite(array)) or (positive and np.any(array <= 0.0))):
        expected = ", ".join("n" if want is None else str(want) for want in shape)
        raise LearningError(f"model {name} must be a finite{' positive' if positive else ''} "
                            f"array of shape ({expected}), got {value!r:.80}")
    return array


def _standardizer(payload, n_features):
    return Standardizer(mean=_finite_array(payload["mean"], "mean", (n_features,)),
                        scale=_finite_array(payload["scale"], "scale", (n_features,),
                                            positive=True))


def model_from_dict(data: dict):
    """The model ``data`` describes.  LearningError when a value is malformed
    or the shapes disagree, so a bad model file fails where it is loaded."""
    if data.get("format") != MODEL_FORMAT:
        raise LearningError(f"unsupported model format {data.get('format')!r}")
    method = data["method"]
    hyper = data["hyperparameters"]
    payload = data["payload"]
    if method == "polyr":
        degree = _whole(hyper["degree"], "degree", 1)
        n_features = _whole(payload["n_features"], "n_features", 1)
        cross_terms = bool(hyper.get("cross_terms", False))
        n_weights = degree * n_features + 1
        if cross_terms:
            n_weights += n_features * (n_features - 1) // 2
        return PolyRModel(
            degree=degree,
            weights=_finite_array(payload["weights"], "weights", (n_weights,)),
            n_features=n_features,
            feature_scale=_finite_array(payload["feature_scale"], "feature_scale",
                                        (n_features,), positive=True),
            cross_terms=cross_terms,
            rank_deficient=bool(payload.get("rank_deficient", False)),
        )
    if method == "mlp":
        weights, n_in = [], None
        for layer, w in enumerate(payload["weights"]):
            weights.append(_finite_array(w, f"weights[{layer}]", (None, n_in)))
            n_in = weights[-1].shape[0]
        if n_in != 1:
            raise LearningError("model weights must chain down to one output")
        if len(payload["biases"]) != len(weights):
            raise LearningError(f"model has {len(weights)} weight layers "
                                f"but {len(payload['biases'])} biases")
        return MLPModel(
            weights=weights,
            biases=[_finite_array(b, f"biases[{layer}]", (w.shape[0],))
                    for layer, (b, w) in enumerate(zip(payload["biases"], weights))],
            standardizer=_standardizer(payload, weights[0].shape[1]),
            target_scale=float(_finite_array(payload["target_scale"], "target_scale", ())),
        )
    if method == "knn":
        samples = _finite_array(payload["samples"], "samples", (None, None))
        return KNNModel(
            k=_whole(hyper["k"], "k", 1, samples.shape[0]),
            samples=samples,
            targets=_finite_array(payload["targets"], "targets", (samples.shape[0],)),
            standardizer=_standardizer(payload, samples.shape[1]),
        )
    raise LearningError(f"unknown method {method!r}")


def save_model(model, path) -> None:
    with open(path, "w") as fh:
        json.dump(model_to_dict(model), fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_model(path):
    """The model saved at ``path``; LearningError if unreadable or malformed."""
    try:
        with open(path) as fh:
            return model_from_dict(json.load(fh))
    except (OSError, KeyError, TypeError, ValueError, LearningError) as exc:
        raise LearningError(f"cannot load model file {path}: {type(exc).__name__}: {exc}") from None
