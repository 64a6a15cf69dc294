"""Shared fixtures: one noisy pilot dataset and one set of learned models.

Collecting pilot statistics and fitting the externals dominates the suite's
runtime, so both are session scoped and shared by the learning, loop and
acceptance tests.
"""

from __future__ import annotations

import pytest

from semcloud.config import ProjectConfig, derive_seed
from semcloud.learning import learn_externals, learn_time_model
from semcloud.sim import collect_pilot_stats


@pytest.fixture(scope="session")
def project_config():
    return ProjectConfig()


@pytest.fixture(scope="session")
def pilot_records(project_config):
    """Noisy estimation + configuration pilot rows for the desk workload."""
    runs = project_config.pilot_runs()
    est, err1 = collect_pilot_stats(None, runs.cluster, runs.cost, runs.estimation_workloads,
                                    [None], runs.estimation_seeds)
    conf, err2 = collect_pilot_stats(None, runs.cluster, runs.cost, [runs.target],
                                     runs.grid, runs.configuration_seeds)
    assert not err1 and not err2
    return est + conf


@pytest.fixture(scope="session")
def learned(pilot_records, project_config):
    """(models, reports, time_model, time_report) fitted on pilot_records."""
    plan = project_config.learn_plan()
    seed = derive_seed(project_config.seed, "learn")
    models, reports = learn_externals(
        pilot_records, methods=tuple(plan["methods"]), split_seed=seed)
    time_model, time_report = learn_time_model(
        pilot_records, method=plan["time_method"], split_seed=seed)
    return models, reports, time_model, time_report
