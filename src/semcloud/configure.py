"""Wire fitted models into the rule corpus and configure a pipeline.

The estimation and configuration models become the @func_* externals;
the total-time model drives the slicing search behind @func_fs_1/2 and
@func_cs_1/2.  Evaluation of the rule corpus over a pipeline's facts
then yields one configured_resource tuple, which is applied back onto
the graph.
"""

import functools
import itertools

import numpy as np

from .datalog import evaluate, query
from .datalog.corpus import configuration_program
from .errors import ConfigureError
from .kg import ResourceConfiguration, apply_configuration, to_facts
from .learning import TIME_FEATURES, predict_method, register_externals
from .optimizer import optimize_slicing


def slicing_objective(time_model, n, v, ts, tp, space):
    """objective(nc, ns) -> predicted total time for the fixed workload.

    One predict_method call scores every candidate of ``space``; the
    objective answers the searches' scalar calls from that table.
    """
    grid = space.candidates()
    pairs = np.fromiter(itertools.chain.from_iterable(grid), dtype=float, count=2 * len(grid))
    columns = {"volume": v, "no_records": n, "chunk_size": pairs[0::2],
               "slice_size": pairs[1::2], "slice_time": ts, "prepare_time": tp}
    X = np.empty((len(grid), len(TIME_FEATURES)))
    for j, feature in enumerate(TIME_FEATURES):
        X[:, j] = columns[feature]
    table = dict(zip(grid, predict_method(time_model, X).tolist()))

    def objective(nc, ns):
        try:
            return table[(nc, ns)]
        except KeyError:
            raise ConfigureError(
                "(%s, %s) is not a candidate of the slicing search space" % (nc, ns)
            ) from None

    return objective


def build_registry(models, time_model, space_factory):
    """Full external registry for the rule corpus.

    ``models`` maps external names (func_ms, ..., func_ss, func_pn) to
    fitted estimation/configuration models.  The time model, which
    predicts total_time over TIME_FEATURES, backs @func_fs_1/2 and
    @func_cs_1/2: each searches ``space_factory(n=...)``.  The fast- and
    cloud-storage variants run the same search; the storage decision is
    made by the rule guards, not by the search.  The optimum is cached
    per (n, v, ts, tp) so the pair of calls in one rule body agrees on a
    single (nc, ns).
    """

    @functools.lru_cache(maxsize=None)
    def best(n, v, ts, tp):
        space = space_factory(n=int(round(n)))
        result = optimize_slicing(slicing_objective(time_model, n, v, ts, tp, space), space)
        return float(result.nc), float(result.ns)

    registry = register_externals(models)
    # (n, v, ts, tp) -> chunk size (index 0) or slice size (index 1)
    for name, index in (("func_fs_1", 0), ("func_fs_2", 1),
                        ("func_cs_1", 0), ("func_cs_2", 1)):
        registry.register(name, _picker(best, index), arity=4)
    return registry


def _picker(best, index):
    def call(rows):
        return [best(*row)[index] for row in rows]

    return call


def configure_pipeline(graph, cloud, registry, pilot, diagnostics=None):
    """Evaluate the rule corpus for one pipeline; returns
    ``(config, configured, idb)``, where ``configured`` is the graph with
    ``config`` written onto its tasks.

    ``pilot`` supplies the pre-configuration estimates (hasEst* facts)
    measured on the canonical pilot run.  The graph must carry the
    pre-configuration task fields (chunk/slice size, required times,
    reservations, storage mode) the task-chain rule matches on.  The
    ground instances the engine drops go to ``diagnostics`` when given;
    when no configuration is derived, the error names the first of them.
    """
    if diagnostics is None:
        diagnostics = []
    earlier = len(diagnostics)
    edb = to_facts(graph, cloud=cloud, pilot=pilot)
    # an overflowing model input gives a non-finite output, which the engine
    # already drops as an instance; numpy need not warn about it as well
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        idb = evaluate(configuration_program(), edb, registry, diagnostics=diagnostics)
    rows = query(idb, "configured_resource", 6)
    matching = [row for row in rows if row[0] == graph.id]
    if not matching and len(diagnostics) > earlier:
        dropped = diagnostics[earlier]
        raise ConfigureError(
            "no configured_resource derived for %r; the engine dropped an "
            "instance of %s at `%s`: %s"
            % (graph.id, dropped.rule, dropped.element, dropped.reason)
        )
    if not matching:
        raise ConfigureError(
            "no configured_resource derived for %r; the pipeline is missing "
            "pre-configuration fields or pilot estimates" % graph.id
        )
    if len(matching) > 1:
        raise ConfigureError(
            "ambiguous configuration for %r: %d strategy branches fired"
            % (graph.id, len(matching))
        )
    _, nc, ns, storage, mrs, mrp = matching[0]
    config = ResourceConfiguration(
        pipeline=graph.id,
        chunk_size=float(nc),
        slice_size=float(ns),
        storage=storage,
        slice_memory_reservation=float(mrs),
        prepare_memory_reservation=float(mrp),
    )
    configured = apply_configuration(graph, config, cloud=cloud)
    return config, configured, idb


def target_pilot_record(records, workload):
    """The one pilot seed record for ``workload``, shared by every stage.

    Averages the estimation rows measured on the target workload (same
    record count and volume); when none were, averages them all.
    """
    return mean_estimation_pilot(
        [r for r in records
         if r.kind == "estimation"
         and r.no_records == workload.n_records
         and abs(r.volume - workload.volume_mb) < 1e-9]
        or records
    )


def mean_estimation_pilot(records):
    """Average the estimation-kind pilot rows into one seed record."""
    rows = [r for r in records if r.kind == "estimation"]
    if not rows:
        raise ConfigureError("no estimation-kind pilot rows to seed hasEst* facts")
    import dataclasses

    means = {}
    for field in ("no_records", "volume", "slice_time", "prepare_time",
                  "slice_memory", "prepare_memory", "slice_storage",
                  "prepare_storage", "store_storage", "total_time"):
        means[field] = float(np.mean([getattr(r, field) for r in rows]))
    base = rows[0]
    return dataclasses.replace(
        base,
        chunk_size=means["no_records"],
        slice_size=means["no_records"],
        **means,
    )
