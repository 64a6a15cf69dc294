"""Command-line entry point wiring the full loop.

gen -> pilot -> learn -> configure -> simulate -> report, all driven by
one YAML project config and one root seed.  Exit codes: 0 success,
1 domain error, 2 usage error.  Every command prints a machine-readable
status line on stderr.
"""

import math
import os

import click

from .config import ConfigError, checked_setting, derive_seed, load_config

# Fixed hyper-parameters of report's minimal-training-fraction sweep.
SWEEP_HYPERPARAMETERS = {
    "polyr": {"degree": 2},
    "knn": {"k": 2},
    "mlp": {"hidden_widths": (10, 9), "epochs": 300},
}


# The layer functions the stages call through this module's namespace.  Each
# imports its layer when it is first called, so a process loads only the
# layers its command runs, and a wrapper set on ``semcloud.cli.<name>`` (as
# bench/tracer.py sets one) still sees every call the CLI makes.  Each takes
# its function from a module where that tracer sets no wrapper of its own, so
# a traced call still makes one span; configure_pipeline has no such module.

def generate_workload(*args, **kwargs):
    from .etl.workload import generate_workload
    return generate_workload(*args, **kwargs)


def collect_pilot_stats(*args, **kwargs):
    from .sim import collect_pilot_stats
    return collect_pilot_stats(*args, **kwargs)


def learn_externals(*args, **kwargs):
    from .learning import learn_externals
    return learn_externals(*args, **kwargs)


def learn_time_model(*args, **kwargs):
    from .learning import learn_time_model
    return learn_time_model(*args, **kwargs)


def min_train_fraction_sweep(*args, **kwargs):
    from .learning import min_train_fraction_sweep
    return min_train_fraction_sweep(*args, **kwargs)


def parse_pipeline(*args, **kwargs):
    from .kg.document import parse_pipeline
    return parse_pipeline(*args, **kwargs)


def serialize_pipeline(*args, **kwargs):
    from .kg.document import serialize_pipeline
    return serialize_pipeline(*args, **kwargs)


def configure_pipeline(*args, **kwargs):
    from .configure import configure_pipeline
    return configure_pipeline(*args, **kwargs)


def deploy(*args, **kwargs):
    from .sim import deploy
    return deploy(*args, **kwargs)


def run(*args, **kwargs):
    from .sim import run
    return run(*args, **kwargs)


def run_legacy(*args, **kwargs):
    from .sim import run_legacy
    return run_legacy(*args, **kwargs)


def write_trace(*args, **kwargs):
    from .sim import write_trace
    return write_trace(*args, **kwargs)


def _status(command, ok, **fields):
    parts = ["semcloud-status", "command=%s" % command, "ok=%d" % (1 if ok else 0)]
    parts += ["%s=%s" % (k, v) for k, v in sorted(fields.items())]
    click.echo(" ".join(parts), err=True)


def _format_hyperparameters(params):
    """``k=v,...`` in key order, the ``hyperparameters`` cell of a report."""
    return ",".join("%s=%s" % kv for kv in sorted(params.items()))


def _run_command(ctx, command, body):
    """Load the project config, run ``body(cfg)``, print one status line.

    A domain error, or an OSError such as a workdir that names a file,
    exits 1; a bad project file or option exits 2.
    """
    from .errors import DomainError

    try:
        fields = body(load_config(ctx.obj["config_path"])) or {}
    except (DomainError, OSError) as exc:
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
            overrides["production_lines"] = min(cfg.workload_spec().production_lines, machines)
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
        from .learning import write_pilot_csv

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
              help="Restrict the candidate methods (the rule of learn.methods).")
@click.pass_context
def learn(ctx, methods):
    """Fit the rule externals and the time model from pilot statistics."""

    def body(cfg):
        from .learning import read_pilot_csv, save_model

        plan = cfg.learn_plan()
        chosen = (checked_setting("learn", "methods", list(methods), "--methods")
                  if methods else tuple(plan["methods"]))
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
            params = _format_hyperparameters(report.hyperparameters)
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


def _load_model(cfg, name):
    from .datalog import MissingExternal
    from .learning import load_model

    path = os.path.join(cfg.models_dir, name + ".json")
    if not os.path.exists(path):
        raise MissingExternal("model file %s is missing; run `semcloud learn` first" % path)
    return load_model(path)


@main.command()
@click.option("--pipeline", "pipeline_path", type=click.Path(),
              default=None, help="Pre-configured pipeline document to configure.")
@click.pass_context
def configure(ctx, pipeline_path):
    """Derive the resource configuration via the rule corpus."""

    def body(cfg):
        from .configure import build_registry, target_pilot_record
        from .datalog import dump_facts
        from .datalog.corpus import ALL_EXTERNALS
        from .kg import frequent_pipeline
        from .learning import EXTERNAL_TARGETS, read_pilot_csv
        from .sim import SimWorkload

        spec = cfg.workload_spec()
        target = SimWorkload.from_spec(spec)
        cloud = cfg.cloud_attributes()
        graph = None
        if pipeline_path is not None:
            try:
                with open(pipeline_path) as fh:
                    text = fh.read()
            except (OSError, UnicodeDecodeError) as exc:
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
        models = {name: _load_model(cfg, name)
                  for name, _ in ALL_EXTERNALS if name in EXTERNAL_TARGETS}
        time_model = _load_model(cfg, "time_model")
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
        from .configure import ConfigureError
        from .sim import compare, write_comparison

        workloads = cfg.timed_workloads("simulate")
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
        for i, workload in enumerate(workloads):
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
            rows = compare(legacy_traces, dist_traces, volumes)
            write_comparison(cfg.path("reports", "comparison.tsv"), rows)
            last = rows[-1]
            click.echo("largest volume: time ratio %.3f, memory ratio %.3f"
                       % (last.time_ratio, last.memory_ratio))
        return {"volumes": len(volumes), "legacy_only": int(legacy_only)}

    _run_command(ctx, "simulate", body)


def _last_time_ratio(path):
    """The ``time_ratio`` cell of comparison.tsv's last row, as written."""
    from .sim import SimError

    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except (OSError, ValueError) as exc:
        raise SimError("cannot read %s (%s)" % (path, exc)) from None
    header = lines[0].split("\t") if lines else []
    last = lines[-1].split("\t") if len(lines) > 1 else []
    if "time_ratio" not in header or len(last) != len(header):
        raise SimError("%s has no time_ratio row; run `semcloud simulate` again" % path)
    cell = last[header.index("time_ratio")]
    try:
        float(cell)
    except ValueError:
        raise SimError("%s: time_ratio %r is not a number" % (path, cell)) from None
    return cell


@main.command()
@click.pass_context
def report(ctx):
    """Consolidate sweet-spot and minimal-training-data series."""

    def body(cfg):
        from .configure import slicing_objective, target_pilot_record
        from .learning import read_pilot_csv, training_frame
        from .optimizer import sweet_spot_curve, write_curve
        from .sim import SimWorkload

        have_pilot = os.path.exists(cfg.pilot_csv)
        have_models = os.path.exists(os.path.join(cfg.models_dir, "time_model.json"))
        if not (have_pilot and have_models):
            click.echo("nothing to report: run pilot and learn first")
            return {"rows": 0}
        comparison_path = cfg.path("reports", "comparison.tsv")
        # read before any report is rewritten, so a bad file changes nothing
        time_ratio = (_last_time_ratio(comparison_path)
                      if os.path.exists(comparison_path) else None)
        os.makedirs(cfg.reports_dir, exist_ok=True)
        records = read_pilot_csv(cfg.pilot_csv)
        time_model = _load_model(cfg, "time_model")
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
        lines = ["\t".join(["method", "fraction", "nmae", "min_fraction", "hyperparameters"])]
        data = training_frame(records, "func_ms")
        for method in plan["methods"]:
            params = SWEEP_HYPERPARAMETERS[method]
            sweep, min_fraction = min_train_fraction_sweep(
                method, params, data, plan["target_nmae"], fractions
            )
            for fraction, score in sweep:
                lines.append("\t".join([
                    method, repr(fraction), repr(score),
                    "" if min_fraction is None else repr(min_fraction),
                    _format_hyperparameters(params),
                ]))
            click.echo("%s: minimal training fraction %s"
                       % (method, min_fraction if min_fraction is not None else "not reached"))
        with open(cfg.path("reports", "min_train_fraction.tsv"), "w") as fh:
            fh.write("\n".join(lines) + "\n")

        summary = ["sweet spot: slice_size=%d predicted_time=%s"
                   % min(curve, key=lambda p: (p[1] if math.isfinite(p[1]) else math.inf, -p[0]))]
        if time_ratio is not None:
            summary.append("largest volume time ratio: %s" % time_ratio)
        with open(cfg.path("reports", "summary.txt"), "w") as fh:
            fh.write("\n".join(summary) + "\n")
        for line in summary:
            click.echo(line)
        return {"rows": len(curve)}

    _run_command(ctx, "report", body)


if __name__ == "__main__":
    main()
