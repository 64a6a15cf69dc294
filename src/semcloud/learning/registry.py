"""Binding fitted models to the rule externals, plus the model file format.

Each learned external's call signature is the feature columns of its target
table entry; a model is accepted only if its feature count matches.  The
training frame for every external is extracted from pilot statistics here,
so learning and rule evaluation agree on feature order.
"""

from __future__ import annotations

import json

import numpy as np

from ..datalog.errors import SignatureMismatch
from .errors import LearningError
from .models import (
    KNNModel,
    MLPModel,
    PolyRModel,
    Standardizer,
)
from .tuning import predict_method

MODEL_FORMAT = "semcloud-model/1"

# Estimation targets learned from single-node pilot rows; they depend only on
# data size.  Each entry maps an external to (feature columns, target column):
# the feature columns are its call arguments, in order, so their count is its
# arity.  "i" is the slice index input, replicated over range(1..R) at
# frame-building time.
ESTIMATION_TARGETS = {
    # (n, v) -> slice memory, MB
    "func_ms": (("no_records", "volume"), "slice_memory"),
    # (n, v, ms, i) -> prepare memory at slice index i, MB
    "func_mp": (("no_records", "volume", "slice_memory", "i"), "prepare_memory"),
    # (n, v) -> slice storage, MB
    "func_ssl": (("no_records", "volume"), "slice_storage"),
    # (n, v, ssl, i) -> prepare storage at slice index i, MB
    "func_spr": (("no_records", "volume", "slice_storage", "i"), "prepare_storage"),
    # (n, v, ssl, spr) -> store storage, MB
    "func_sst": (("no_records", "volume", "slice_storage", "prepare_storage"), "store_storage"),
}

# Configuration targets learned from varied-(nc, ns) pilot rows; they also see
# the chosen chunk and slice sizes.
CONFIGURATION_TARGETS = {
    # (n, v, nc, ns) -> slice memory under the configuration, MB
    "func_ss": (("no_records", "volume", "chunk_size", "slice_size"), "slice_memory"),
    # (n, v, nc, ns) -> prepare memory under the configuration, MB
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


def register_externals(models: dict) -> ExternalRegistry:
    """A new ExternalRegistry holding each fitted model as a pure row function:
    one predict_method call scores every argument row of an engine call.

    ``models`` maps external names (without '@') to fitted models.  Raises
    SignatureMismatch when a name is not in ESTIMATION_TARGETS or
    CONFIGURATION_TARGETS, or a model's feature count differs from the
    number of feature columns its entry lists (the external's arity).
    """
    from ..datalog.engine import ExternalRegistry

    targets = {**ESTIMATION_TARGETS, **CONFIGURATION_TARGETS}
    registry = ExternalRegistry()
    for name, model in models.items():
        if name not in targets:
            raise SignatureMismatch(f"@{name} is not a learned external")
        arity = len(targets[name][0])
        n_features = getattr(model, "n_features", None)
        if n_features != arity:
            raise SignatureMismatch(
                f"@{name} takes {arity} arguments but the model has {n_features} features"
            )

        def call(rows, _model=model):
            return predict_method(_model, np.asarray(rows, dtype=float)).tolist()

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
            "hyperparameters": {"degree": model.degree},
            "payload": {
                "weights": model.weights.tolist(),
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
    except (TypeError, ValueError, OverflowError):  # an int past float range overflows
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
    if not isinstance(data, dict):
        raise LearningError(f"model must be a mapping, got {type(data).__name__}")
    if data.get("format") != MODEL_FORMAT:
        raise LearningError(f"unsupported model format {data.get('format')!r}")
    method = data["method"]
    hyper = data["hyperparameters"]
    payload = data["payload"]
    if method == "polyr":
        degree = _whole(hyper["degree"], "degree", 1)
        feature_scale = _finite_array(payload["feature_scale"], "feature_scale", (None,),
                                      positive=True)
        return PolyRModel(
            degree=degree,
            weights=_finite_array(payload["weights"], "weights",
                                  (degree * feature_scale.shape[0] + 1,)),
            feature_scale=feature_scale,
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
    """Write ``model`` to ``path``.  LearningError, before the file is
    opened, when ``load_model`` would refuse what it would read back."""
    data = model_to_dict(model)
    try:
        model_from_dict(data)
    except LearningError as exc:
        raise LearningError(f"cannot save model file {path}: {exc}") from None
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_model(text, source):
    """The model that the model file text ``text`` holds; LearningError,
    naming the file ``source``, if it is malformed."""
    try:
        return model_from_dict(json.loads(text))
    # the JSON scanner recurses once per nesting level
    except (KeyError, TypeError, ValueError, RecursionError, LearningError) as exc:
        raise LearningError(f"cannot load model file {source}: {type(exc).__name__}: {exc}") from None
