"""Binding fitted models to the rule externals, plus the model file format.

Each estimation external has a fixed call signature; a model is accepted only
if its feature count matches.  The training frame for every external is
extracted from pilot statistics here, so learning and rule evaluation agree
on feature order.
"""

from __future__ import annotations

import json

import numpy as np

from ..datalog.corpus import ALL_EXTERNALS, RANGE_SIZE
from ..datalog.engine import ExternalRegistry
from .errors import LearningError, SignatureMismatch
from .models import (
    KNNModel,
    MLPModel,
    PolyRModel,
    Standardizer,
)
from .tuning import predict_method

EXTERNAL_ARITY = dict(ALL_EXTERNALS)

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


def training_frame(records, external: str, range_size: int = RANGE_SIZE):
    """(X, y) arrays for one external, drawn from the matching run kind."""
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
            for i in range(1, range_size + 1):
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
    registry = registry or ExternalRegistry()
    for name, model in models.items():
        if name not in EXTERNAL_ARITY:
            raise SignatureMismatch(f"@{name} is not a known external")
        arity = EXTERNAL_ARITY[name]
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


def model_from_dict(data: dict):
    if data.get("format") != MODEL_FORMAT:
        raise LearningError(f"unsupported model format {data.get('format')!r}")
    method = data["method"]
    payload = data["payload"]
    if method == "polyr":
        return PolyRModel(
            degree=int(data["hyperparameters"]["degree"]),
            weights=np.asarray(payload["weights"]),
            n_features=int(payload["n_features"]),
            feature_scale=np.asarray(payload["feature_scale"]),
            cross_terms=bool(data["hyperparameters"].get("cross_terms", False)),
            rank_deficient=bool(payload.get("rank_deficient", False)),
        )
    if method == "mlp":
        return MLPModel(
            weights=[np.asarray(w) for w in payload["weights"]],
            biases=[np.asarray(b) for b in payload["biases"]],
            standardizer=Standardizer(
                mean=np.asarray(payload["mean"]), scale=np.asarray(payload["scale"])
            ),
            target_scale=float(payload["target_scale"]),
        )
    if method == "knn":
        return KNNModel(
            k=int(data["hyperparameters"]["k"]),
            samples=np.asarray(payload["samples"]),
            targets=np.asarray(payload["targets"]),
            standardizer=Standardizer(
                mean=np.asarray(payload["mean"]), scale=np.asarray(payload["scale"])
            ),
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
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise LearningError(f"cannot load model file {path}: {type(exc).__name__}: {exc}") from None
