"""Configuring pipelines: the table-backed slicing search and fleet EDBs."""

import numpy as np
import pytest

from semcloud.configure import (
    ConfigureError,
    build_registry,
    configure_pipeline,
    mean_estimation_pilot,
    slicing_objective,
)
from semcloud.datalog import FactSet, evaluate, query
from semcloud.datalog.corpus import configuration_program
from semcloud.kg import frequent_pipeline, to_facts
from semcloud.learning import TIME_FEATURES, fit_method, predict_method, time_model_frame
from semcloud.optimizer import SearchSpace, optimize_slicing, sweet_spot_curve
from semcloud.sim import MB

TIME_MODEL_PARAMS = {
    "polyr": {"degree": 3},
    "mlp": {"hidden_widths": (10, 9), "epochs": 40},
    "knn": {"k": 3},
}


def per_point_objective(time_model, n, v, ts, tp):
    """The slicing objective scored one candidate per predict call."""

    def objective(nc, ns):
        features = {"volume": v, "no_records": n, "chunk_size": nc,
                    "slice_size": ns, "slice_time": ts, "prepare_time": tp}
        X = np.array([[features[f] for f in TIME_FEATURES]], dtype=float)
        return float(predict_method(time_model, X)[0])

    return objective


@pytest.fixture(scope="module", params=sorted(TIME_MODEL_PARAMS))
def time_model(request, pilot_records):
    X, y = time_model_frame(pilot_records)
    return request.param, fit_method(request.param, X, y, TIME_MODEL_PARAMS[request.param])


@pytest.mark.parametrize("n", [517, 1032, 4000])
def test_table_objective_matches_per_point_search(time_model, pilot_records, n):
    _, model = time_model
    pilot = mean_estimation_pilot(pilot_records)
    args = (float(n), n * 1250 / MB, pilot.slice_time, pilot.prepare_time)
    space = SearchSpace(n=n)
    table = slicing_objective(model, *args, space)
    single = per_point_objective(model, *args)
    best, expected = optimize_slicing(table, space), optimize_slicing(single, space)
    assert (best.nc, best.ns, best.evaluated) == (expected.nc, expected.ns, expected.evaluated)
    values = [table(nc, ns) for nc, ns in space.candidates()]
    singles = [single(nc, ns) for nc, ns in space.candidates()]
    assert best.value == expected.value
    assert values == singles
    assert sweet_spot_curve(table, space) == sweet_spot_curve(single, space)


def test_table_objective_rejects_points_outside_the_space(learned):
    _, _, time_model, _ = learned
    space = SearchSpace(n=100)
    objective = slicing_objective(time_model, 100.0, 0.1, 1.0, 1.0, space)
    with pytest.raises(ConfigureError):
        objective(101, 1)


def test_fleet_edb_configures_each_pipeline_as_alone(learned, pilot_records, project_config):
    """N pipelines in one EDB get the configured_resource each gets alone."""
    cfg = project_config
    models, _, time_model, _ = learned
    pilot = mean_estimation_pilot(pilot_records)
    cloud = cfg.cloud_attributes()
    sizes = (120, 517, 900, 1032, 1500, 2600, 4000, 7000)
    graphs = [
        frequent_pipeline(
            "f%02d" % i, no_records=float(n), volume_mb=n * 1250 / MB,
            chunk_size=pilot.no_records, slice_size=pilot.no_records,
            slice_time=pilot.slice_time, prepare_time=pilot.prepare_time,
            memory_reservation=pilot.prepare_memory, storage_mode="fast")
        for i, n in enumerate(sizes)
    ]
    edb = FactSet()
    for graph in graphs:
        for pred, args in to_facts(graph, cloud=cloud, pilot=pilot):
            edb.add(pred, args)
    idb = evaluate(configuration_program(), edb,
                   build_registry(models, time_model, cfg.search_space))
    together = {}
    for pipeline, *values in query(idb, "configured_resource", 6):
        together.setdefault(pipeline, []).append(tuple(values))
    # both sides of the memory guard: some pipelines are sliced, some not
    assert {together["f%02d" % i][0][1] < n for i, n in enumerate(sizes)} == {True, False}
    for graph in graphs:
        config, _, _ = configure_pipeline(
            graph, cloud, build_registry(models, time_model, cfg.search_space), pilot)
        alone = (config.chunk_size, config.slice_size, config.storage,
                 config.slice_memory_reservation, config.prepare_memory_reservation)
        assert together[graph.id] == [alone], graph.id
