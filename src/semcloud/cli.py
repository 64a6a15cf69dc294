"""Command-line entry point wiring the full loop.

gen -> pilot -> learn -> configure -> simulate -> report, all driven by
one YAML project config and one root seed.  Exit codes: 0 success,
1 domain error, 2 usage error.  Every command prints a machine-readable
status line on stderr.
"""

import math
import os
import sys

import click
import numpy as np

from .config import ConfigError, derive_seed, load_config
from .configure import (
    ConfigureError,
    build_registry,
    configure_pipeline,
    slicing_objective,
    target_pilot_record,
)
from .datalog import DatalogError, MissingExternal, dump_facts
from .datalog.corpus import ALL_EXTERNALS
from .etl import EtlError, generate_workload
from .kg import PipelineGraphError, frequent_pipeline, parse_pipeline, serialize_pipeline
from .learning import (
    LearningError,
    learn_externals,
    learn_time_model,
    load_model,
    min_train_fraction_sweep,
    read_pilot_csv,
    save_model,
    training_frame,
    write_pilot_csv,
)
from .learning.workflow import EXTERNAL_TARGETS
from .optimizer import sweet_spot_curve, write_curve
from .optimizer.search import OptimizerError
from .sim import (
    InsufficientResources,
    SimError,
    SimWorkload,
    collect_pilot_stats,
    compare,
    deploy,
    run,
    run_legacy,
    write_comparison,
    write_trace,
)

_DOMAIN_ERRORS = (
    ConfigureError,
    DatalogError,
    EtlError,
    LearningError,
    OptimizerError,
    PipelineGraphError,
    SimError,
)


def _status(command, ok, **fields):
    parts = ["semcloud-status", "command=%s" % command, "ok=%d" % (1 if ok else 0)]
    parts += ["%s=%s" % (k, v) for k, v in sorted(fields.items())]
    click.echo(" ".join(parts), err=True)


def _run_command(ctx, command, body):
    """Load the project config, run ``body(cfg)``, print one status line."""
    try:
        fields = body(load_config(ctx.obj["config_path"])) or {}
    except _DOMAIN_ERRORS as exc:
        click.echo("error: %s" % exc, err=True)
        _status(command, False, error=type(exc).__name__)
        ctx.exit(1)
    except ConfigError as exc:
        click.echo("config error: %s" % exc, err=True)
        _status(command, False, error=type(exc).__name__)
        ctx.exit(2)
    _status(command, True, **fields)


@click.group()
@click.option("--config", "-c", "config_path", default="project.yaml",
              show_default=True, help="Project config file.")
@click.pass_context
def main(ctx, config_path):
    """SemCloud loop: generate, pilot, learn, configure, simulate, report."""
    ctx.ensure_object(dict)
    ctx.obj["config_path"] = config_path


@main.command()
@click.option("--machines", type=int, default=None, help="Override machine count.")
@click.pass_context
def gen(ctx, machines):
    """Generate the heterogeneous source files."""

    def body(cfg):
        overrides = {"seed": derive_seed(cfg.seed, "gen")}
        if machines is not None:
            overrides["machines"] = machines
            overrides["production_lines"] = min(
                int(cfg.workload.get("production_lines", 3)), machines
            )
        spec = cfg.workload_spec(**overrides)
        descriptors = generate_workload(spec, cfg.workload_dir)
        for desc in descriptors:
            click.echo("%s: %d records" % (desc.location, spec.total_records()))
        return {"sources": len(descriptors), "records": spec.total_records()}

    _run_command(ctx, "gen", body)


@main.command()
@click.option("--dry-run", is_flag=True, help="Print the plan, write nothing.")
@click.pass_context
def pilot(ctx, dry_run):
    """Collect pilot running statistics from instrumented simulations."""

    def body(cfg):
        runs = cfg.pilot_runs()
        if dry_run:
            click.echo("would run %d estimation + %d configuration simulations"
                       % (runs.estimation_count, runs.configuration_count))
            return {"rows": 0, "planned": runs.estimation_count + runs.configuration_count}
        est, err1 = collect_pilot_stats(None, runs.cluster, runs.cost, runs.estimation_workloads,
                                        [None], runs.estimation_seeds)
        conf, err2 = collect_pilot_stats(None, runs.cluster, runs.cost, [runs.target],
                                         runs.grid, runs.configuration_seeds)
        records = est + conf
        os.makedirs(cfg.workdir, exist_ok=True)
        write_pilot_csv(records, cfg.pilot_csv)
        for entry in (err1 + err2)[:5]:
            click.echo("skipped: %s" % (entry,), err=True)
        click.echo("%s: %d rows" % (cfg.pilot_csv, len(records)))
        return {"rows": len(records), "skipped": len(err1) + len(err2)}

    _run_command(ctx, "pilot", body)


@main.command()
@click.option("--methods", multiple=True,
              type=click.Choice(["polyr", "mlp", "knn"]),
              help="Restrict the candidate methods.")
@click.pass_context
def learn(ctx, methods):
    """Fit the rule externals and the time model from pilot statistics."""

    def body(cfg):
        plan = cfg.learn_plan()
        chosen = tuple(methods) or tuple(plan["methods"])
        records = read_pilot_csv(cfg.pilot_csv)
        models, reports = learn_externals(records, methods=chosen)
        time_model, time_report = learn_time_model(records, method=plan["time_method"])
        os.makedirs(cfg.models_dir, exist_ok=True)
        os.makedirs(cfg.reports_dir, exist_ok=True)
        for name, model in models.items():
            save_model(model, os.path.join(cfg.models_dir, name + ".json"))
        save_model(time_model, os.path.join(cfg.models_dir, "time_model.json"))

        rows = sorted(reports.items()) + [("time_model", time_report)]
        data_lines = ["\t".join(["target", "method", "hyperparameters", "nmae"])]
        timing_lines = ["\t".join(["target", "learning_time_ms", "inference_time_ms"])]
        for name, report in rows:
            params = ",".join("%s=%s" % kv for kv in sorted(report.hyperparameters.items()))
            data_lines.append("\t".join([name, report.method, params, repr(report.nmae)]))
            timing_lines.append("\t".join([
                name, "%.3f" % report.learning_time_ms, "%.6f" % report.inference_time_ms,
            ]))
            click.echo("%-10s %-6s nmae=%.4f" % (name, report.method, report.nmae))
        with open(os.path.join(cfg.reports_dir, "fit_reports.tsv"), "w") as fh:
            fh.write("\n".join(data_lines) + "\n")
        with open(os.path.join(cfg.reports_dir, "fit_timings.tsv"), "w") as fh:
            fh.write("\n".join(timing_lines) + "\n")
        return {"models": len(models) + 1}

    _run_command(ctx, "learn", body)


def _load_models(cfg):
    models = {}
    for name, _ in ALL_EXTERNALS:
        if name not in EXTERNAL_TARGETS:
            continue
        path = os.path.join(cfg.models_dir, name + ".json")
        if not os.path.exists(path):
            raise MissingExternal(
                "model file %s is missing; run `semcloud learn` first" % path
            )
        models[name] = load_model(path)
    time_path = os.path.join(cfg.models_dir, "time_model.json")
    if not os.path.exists(time_path):
        raise MissingExternal(
            "model file %s is missing; run `semcloud learn` first" % time_path
        )
    return models, load_model(time_path)


@main.command()
@click.option("--pipeline", "pipeline_path", type=click.Path(),
              default=None, help="Pre-configured pipeline document to configure.")
@click.pass_context
def configure(ctx, pipeline_path):
    """Derive the resource configuration via the rule corpus."""

    def body(cfg):
        spec = cfg.workload_spec()
        target = SimWorkload.from_spec(spec)
        # Only the slicing branches build a search space: check the settings
        # here so that a bad search section fails on every branch.
        cfg.search_space(target.n_records)
        cloud = cfg.cloud_attributes()
        graph = None
        if pipeline_path is not None:
            try:
                with open(pipeline_path) as fh:
                    text = fh.read()
            except OSError as exc:
                raise ConfigError("cannot read pipeline document: %s" % exc)
            graph = parse_pipeline(text)
        records = read_pilot_csv(cfg.pilot_csv)
        pilot_record = target_pilot_record(records, target)
        if graph is None:
            graph = frequent_pipeline(
                target.pipeline,
                no_records=target.n_records,
                volume_mb=target.volume_mb,
                chunk_size=pilot_record.no_records,
                slice_size=pilot_record.no_records,
                slice_time=pilot_record.slice_time,
                prepare_time=pilot_record.prepare_time,
                memory_reservation=pilot_record.prepare_memory,
                storage_mode="fast",
            )
        models, time_model = _load_models(cfg)
        registry = build_registry(models, time_model, cfg.search_space)
        config, configured, idb = configure_pipeline(graph, cloud, registry, pilot_record)
        os.makedirs(cfg.workdir, exist_ok=True)
        with open(cfg.configured_pipeline_path, "w") as fh:
            fh.write(serialize_pipeline(configured))
        with open(cfg.facts_path, "w") as fh:
            fh.write(dump_facts(idb))
        lines = ["\t".join(["pipeline", "chunk_size", "slice_size", "storage",
                            "slice_memory_reservation", "prepare_memory_reservation"])]
        lines.append("\t".join([
            config.pipeline, repr(config.chunk_size), repr(config.slice_size),
            config.storage, repr(config.slice_memory_reservation),
            repr(config.prepare_memory_reservation),
        ]))
        with open(cfg.path("resource_config.tsv"), "w") as fh:
            fh.write("\n".join(lines) + "\n")
        click.echo("configured_resource(%s, %g, %g, %s, %g, %g)" % (
            config.pipeline, config.chunk_size, config.slice_size,
            config.storage, config.slice_memory_reservation,
            config.prepare_memory_reservation))
        return {"chunk_size": int(config.chunk_size), "slice_size": int(config.slice_size)}

    _run_command(ctx, "configure", body)


@main.command()
@click.option("--legacy-only", is_flag=True, help="Run only the legacy baseline.")
@click.pass_context
def simulate(ctx, legacy_only):
    """Simulate the configured pipeline against the legacy baseline."""

    def body(cfg):
        plan = cfg.simulate_plan()
        spec = cfg.workload_spec()
        cluster = cfg.cluster_spec()
        cost = cfg.cost_model(noise_amplitude=0.0)
        os.makedirs(cfg.reports_dir, exist_ok=True)
        configured = None
        if not legacy_only:
            if not os.path.exists(cfg.configured_pipeline_path):
                raise ConfigureError(
                    "%s is missing; run `semcloud configure` first"
                    % cfg.configured_pipeline_path
                )
            with open(cfg.configured_pipeline_path) as fh:
                configured = parse_pipeline(fh.read())
        volumes, dist_traces, legacy_traces = [], [], []
        for i, duration in enumerate(plan["durations"]):
            n = spec.machines * int(spec.rate * duration)
            workload = SimWorkload(n_records=n, record_bytes=spec.record_bytes,
                                   machines=spec.machines)
            volumes.append(workload.volume_mb)
            legacy_trace = run_legacy(workload, cost=cost)
            legacy_traces.append(legacy_trace)
            write_trace(cfg.path("reports", "trace_legacy_%d.tsv" % i), legacy_trace)
            if configured is not None:
                exec_plan = deploy(configured, cluster, cost, workload)
                trace, _ = run(exec_plan, workload, cost,
                               seed=derive_seed(cfg.seed, "simulate"))
                dist_traces.append(trace)
                write_trace(cfg.path("reports", "trace_distributed_%d.tsv" % i), trace)
        if configured is not None:
            report = compare(legacy_traces, dist_traces, volumes)
            write_comparison(cfg.path("reports", "comparison.tsv"), report)
            last = report.rows[-1]
            click.echo("largest volume: time ratio %.3f, memory ratio %.3f"
                       % (last.time_ratio, last.memory_ratio))
        return {"volumes": len(volumes), "legacy_only": int(legacy_only)}

    _run_command(ctx, "simulate", body)


@main.command()
@click.pass_context
def report(ctx):
    """Consolidate sweet-spot and minimal-training-data series."""

    def body(cfg):
        have_pilot = os.path.exists(cfg.pilot_csv)
        have_models = os.path.exists(os.path.join(cfg.models_dir, "time_model.json"))
        if not (have_pilot and have_models):
            click.echo("nothing to report: run pilot and learn first")
            return {"rows": 0}
        os.makedirs(cfg.reports_dir, exist_ok=True)
        records = read_pilot_csv(cfg.pilot_csv)
        _, time_model = _load_models(cfg)
        spec = cfg.workload_spec()
        target = SimWorkload.from_spec(spec)
        pilot_record = target_pilot_record(records, target)
        space = cfg.search_space(target.n_records)
        objective = slicing_objective(
            time_model, float(target.n_records), target.volume_mb,
            pilot_record.slice_time, pilot_record.prepare_time, space,
        )
        curve = sweet_spot_curve(objective, space)
        write_curve(cfg.path("reports", "sweet_spot.tsv"), curve,
                    header=("slice_size", "predicted_time"))

        plan = cfg.learn_plan()
        fractions = (0.05, 0.074, 0.1, 0.15, 0.25, 0.5, 0.75, 1.0)
        lines = ["\t".join(["method", "fraction", "nmae", "min_fraction"])]
        data = training_frame(records, "func_ms")
        params = {"polyr": {"degree": 2}, "knn": {"k": 2},
                  "mlp": {"hidden_widths": (10, 9), "epochs": 300}}
        for method in plan["methods"]:
            sweep, min_fraction = min_train_fraction_sweep(
                method, params[method], data, float(plan["target_nmae"]), fractions
            )
            for fraction, score in sweep:
                lines.append("\t".join([
                    method, repr(fraction), repr(score),
                    "" if min_fraction is None else repr(min_fraction),
                ]))
            click.echo("%s: minimal training fraction %s"
                       % (method, min_fraction if min_fraction is not None else "not reached"))
        with open(cfg.path("reports", "min_train_fraction.tsv"), "w") as fh:
            fh.write("\n".join(lines) + "\n")

        summary = ["sweet spot: slice_size=%d predicted_time=%s"
                   % min(curve, key=lambda p: (p[1] if math.isfinite(p[1]) else math.inf, -p[0]))]
        comparison_path = cfg.path("reports", "comparison.tsv")
        if os.path.exists(comparison_path):
            with open(comparison_path) as fh:
                last = fh.read().splitlines()[-1].split("\t")
            summary.append("largest volume time ratio: %s" % last[3])
        with open(cfg.path("reports", "summary.txt"), "w") as fh:
            fh.write("\n".join(summary) + "\n")
        for line in summary:
            click.echo(line)
        return {"rows": len(curve)}

    _run_command(ctx, "report", body)


if __name__ == "__main__":
    main()
