"""High-level fitting: one model per rule external plus the time model."""

from __future__ import annotations

from ..pilots import DEFAULT_GRIDS
from .errors import LearningError
from .registry import (
    CONFIGURATION_TARGETS,
    ESTIMATION_TARGETS,
    time_model_frame,
    training_frame,
)
from .tuning import grid_search

EXTERNAL_TARGETS = tuple(ESTIMATION_TARGETS) + tuple(CONFIGURATION_TARGETS)

# The project settings that set how many pilot runs of each kind there are.
_RUN_SETTINGS = {
    "estimation": "pilot.estimation_seeds, pilot.durations and pilot.record_bytes",
    "configuration": "pilot.configuration_seeds and search.*",
}


def learn_externals(records, methods):
    """Fit every rule external with the best of ``methods``; returns
    ({name: model}, {name: FitReport})."""
    if not methods:
        raise LearningError("no learning methods given")
    models, reports = {}, {}
    for external in EXTERNAL_TARGETS:
        data = training_frame(records, external)
        if len(data[1]) < 2:
            kind = "estimation" if external in ESTIMATION_TARGETS else "configuration"
            raise LearningError(
                f"@{external} has {len(data[1])} training row from the {kind} pilot runs, "
                f"and a fit needs 2 to hold one out; {_RUN_SETTINGS[kind]} set those runs")
        for method in methods:
            _, model, report = grid_search(method, DEFAULT_GRIDS[method], data)
            if external not in reports or report.nmae < reports[external].nmae:
                models[external], reports[external] = model, report
    return models, reports


def learn_time_model(records, method):
    """Fit total_time over TIME_FEATURES from configuration-kind rows."""
    data = time_model_frame(records)
    if len(data[1]) < 4:
        raise LearningError(
            f"the time model has {len(data[1])} training rows from the configuration pilot "
            f"runs, and needs 4; {_RUN_SETTINGS['configuration']} set those runs")
    _, model, report = grid_search(method, DEFAULT_GRIDS[method], data)
    return model, report


__all__ = [
    "DEFAULT_GRIDS",
    "EXTERNAL_TARGETS",
    "learn_externals",
    "learn_time_model",
]
