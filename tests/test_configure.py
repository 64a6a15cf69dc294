"""Configuring pipelines: the table-backed slicing search and fleet EDBs."""

import hashlib
import json

import numpy as np
import pytest

import semcloud.configure as configure
import semcloud.learning.registry as registry
from semcloud.configure import (
    ConfigureError,
    build_registry,
    configure_pipeline,
    mean_estimation_pilot,
    slicing_objective,
)
from semcloud.datalog import FactSet, evaluate, query
from semcloud.datalog.corpus import configuration_program
from semcloud.kg import frequent_pipeline, parse_pipeline, serialize_pipeline, to_facts
from semcloud.learning import (
    TIME_FEATURES,
    KNNModel,
    fit_method,
    learn_externals,
    predict_method,
    time_model_frame,
)
from semcloud.optimizer import EmptySpace, SearchSpace, optimize_slicing, sweet_spot_curve
from semcloud.sim import MB

from oracle import per_row_knn

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
    assert sweet_spot_curve(table, space, best.nc) == sweet_spot_curve(single, space, best.nc)


def test_table_objective_rejects_points_outside_the_space(learned):
    _, _, time_model, _ = learned
    space = SearchSpace(n=100)
    objective = slicing_objective(time_model, 100.0, 0.1, 1.0, 1.0, space)
    with pytest.raises(ConfigureError):
        objective(101, 1)


FLEET_SIZES = (120, 517, 900, 1032, 1500, 2600, 4000, 7000)


def fleet_edb(pilot, cloud):
    """Frequent pipelines of FLEET_SIZES records in one EDB; (graphs, edb)."""
    graphs = [
        frequent_pipeline(
            "f%02d" % i, no_records=float(n), volume_mb=n * 1250 / MB,
            chunk_size=pilot.no_records, slice_size=pilot.no_records,
            slice_time=pilot.slice_time, prepare_time=pilot.prepare_time,
            memory_reservation=pilot.prepare_memory, storage_mode="fast")
        for i, n in enumerate(FLEET_SIZES)
    ]
    edb = FactSet()
    for graph in graphs:
        for pred, args in to_facts(graph, cloud=cloud, pilot=pilot):
            edb.add(pred, args)
    return graphs, edb


# sha256 of repr() of the FLEET_SIZES EDB's configured_resource rows, with
# knn models behind every external and the learned knn time model, taken
# before the engine compiled its rules into join plans and before the
# slicing search ran flat.  A later change to the engine or the search that
# moves one bit of one row fails here.  No model here is a least-squares
# fit, whose last bits may depend on the LAPACK build.
FLEET_ROWS_SHA256 = "5ef1451442b7e397c0955c97af04d1cd7785cdcc226bf04e1049e0029ea16b67"


def test_fleet_rows_keep_their_bits(learned, pilot_records, project_config):
    cfg = project_config
    _, _, time_model, _ = learned
    assert isinstance(time_model, KNNModel)
    models, _ = learn_externals(pilot_records, ("knn",))
    _, edb = fleet_edb(mean_estimation_pilot(pilot_records), cfg.cloud_attributes())
    idb = evaluate(configuration_program(), edb,
                   build_registry(models, time_model, cfg.search_space))
    rows = query(idb, "configured_resource", 6)
    assert len(rows) == len(FLEET_SIZES)
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == FLEET_ROWS_SHA256


def test_fleet_edb_configures_each_pipeline_as_alone(learned, pilot_records, project_config):
    """N pipelines in one EDB get the configured_resource each gets alone."""
    cfg = project_config
    models, _, time_model, _ = learned
    pilot = mean_estimation_pilot(pilot_records)
    cloud = cfg.cloud_attributes()
    graphs, edb = fleet_edb(pilot, cloud)
    idb = evaluate(configuration_program(), edb,
                   build_registry(models, time_model, cfg.search_space))
    together = {}
    for pipeline, *values in query(idb, "configured_resource", 6):
        together.setdefault(pipeline, []).append(tuple(values))
    # both sides of the memory guard: some pipelines are sliced, some not
    assert {together["f%02d" % i][0][1] < n for i, n in enumerate(FLEET_SIZES)} == {True, False}
    for graph in graphs:
        config, _, _ = configure_pipeline(
            graph, cloud, build_registry(models, time_model, cfg.search_space), pilot)
        alone = (config.chunk_size, config.slice_size, config.storage,
                 config.slice_memory_reservation, config.prepare_memory_reservation)
        assert together[graph.id] == [alone], graph.id


def test_error_names_what_kept_the_pipeline_unconfigured(learned, pilot_records, project_config):
    cfg = project_config
    models, _, time_model, _ = learned
    pilot = mean_estimation_pilot(pilot_records)
    cloud = cfg.cloud_attributes()
    externals = build_registry(models, time_model, cfg.search_space)

    def pipeline(n):
        return frequent_pipeline(
            "p", no_records=n, volume_mb=1.0, chunk_size=pilot.no_records,
            slice_size=pilot.no_records, slice_time=pilot.slice_time,
            prepare_time=pilot.prepare_time, memory_reservation=pilot.prepare_memory,
            storage_mode="fast")

    # the models overflow: the engine drops an instance, and the error names it
    diagnostics = []
    with pytest.raises(ConfigureError, match="dropped an instance of") as error:
        configure_pipeline(pipeline(1e300), cloud, externals, pilot, diagnostics=diagnostics)
    assert diagnostics and diagnostics[0].reason in str(error.value)
    # no task-chain field: no rule fires and nothing is dropped
    tree = json.loads(serialize_pipeline(pipeline(1032.0)))
    [sliced] = [task for task in tree["tasks"] if "hasChunkSize" in task]
    del sliced["hasChunkSize"]
    with pytest.raises(ConfigureError, match="missing pre-configuration fields"):
        configure_pipeline(parse_pipeline(json.dumps(tree)), cloud, externals, pilot)


def test_fleet_edb_configures_as_with_per_row_knn(learned, pilot_records, project_config,
                                                   monkeypatch):
    """The rule path gives the same configured_resource rows when every KNN
    prediction, the slicing grids' included, is made one row at a time."""
    cfg = project_config
    models, _, time_model, _ = learned
    assert isinstance(time_model, KNNModel)
    pilot = mean_estimation_pilot(pilot_records)
    _, edb = fleet_edb(pilot, cfg.cloud_attributes())

    def configured():
        idb = evaluate(configuration_program(), edb,
                       build_registry(models, time_model, cfg.search_space))
        return [repr(row) for row in query(idb, "configured_resource", 6)]

    blocked = configured()
    reference_rows = []

    def reference(model, X):
        if isinstance(model, KNNModel):
            reference_rows.append(len(X))
            return per_row_knn(model, X)
        return predict_method(model, X)

    monkeypatch.setattr(configure, "predict_method", reference)
    monkeypatch.setattr(registry, "predict_method", reference)
    assert configured() == blocked
    assert len(blocked) == len(FLEET_SIZES) and max(reference_rows) > 1


@pytest.mark.parametrize("methods", [None, ("knn",)], ids=["learned", "knn"])
def test_fleet_edb_derives_the_same_facts_with_row_by_row_externals(
        learned, pilot_records, project_config, monkeypatch, methods):
    """Scoring every argument row of an engine call in one predict_method
    call derives the same facts, bit for bit, as one call per row."""
    cfg = project_config
    models, _, time_model, _ = learned
    if methods is not None:
        models, _ = learn_externals(pilot_records, methods)
    _, edb = fleet_edb(mean_estimation_pilot(pilot_records), cfg.cloud_attributes())

    def derived(externals):
        idb = evaluate(configuration_program(), edb, externals)
        return [(predicate, repr(args)) for predicate, args in idb]

    batch_rows = []

    def recording(model, X):
        batch_rows.append(len(X))
        return predict_method(model, X)

    monkeypatch.setattr(registry, "predict_method", recording)
    batched = derived(build_registry(models, time_model, cfg.search_space))
    # the reference calls this module's predict_method, which is not recorded
    row_by_row = build_registry(models, time_model, cfg.search_space)
    arity = {**registry.ESTIMATION_TARGETS, **registry.CONFIGURATION_TARGETS}
    for name, model in models.items():
        row_by_row.register(
            name, lambda rows, model=model: [
                predict_method(model, np.asarray([row], dtype=float))[0] for row in rows],
            len(arity[name][0]))
    assert derived(row_by_row) == batched
    assert max(batch_rows) == 10  # the #avg comprehensions over range(1..10)


def test_empty_space_is_still_empty_through_the_table(time_model):
    _, model = time_model
    space = SearchSpace(n=0)
    assert not list(space.candidates())
    with pytest.raises(EmptySpace):
        optimize_slicing(slicing_objective(model, 0.0, 0.0, 1.0, 1.0, space), space)
