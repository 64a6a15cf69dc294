"""Command-line entry point wiring the full loop.

gen -> pilot -> learn -> configure -> simulate -> report, all driven by
one YAML project config and one root seed.  Exit codes: 0 success,
1 domain error, 2 usage error.  Every command prints a machine-readable
status line on stderr.
"""

import contextlib
import dataclasses
import fnmatch
import functools
import glob
import os
from importlib import import_module

# Every BLAS and LAPACK call the stages make is small (the largest are
# learn's least-squares fits on designs of at most 562 x 25).  On a 2-vCPU
# VM, OpenBLAS's default thread pool made one such np.linalg.lstsq take
# 80 ms against 0.4 ms on one thread, and starting the pool added 40 to
# 70 ms to each stage's `import numpy`.  Set before any stage imports
# numpy; a user's own OPENBLAS_NUM_THREADS still wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import click

from .config import ConfigError, derive_seed, load_config

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

def _forward(module, name):
    """A function that calls ``name`` of ``module``, imported on the first call."""
    def forward(*args, **kwargs):
        return getattr(import_module(module, __package__), name)(*args, **kwargs)
    return forward


generate_workload = _forward(".etl.workload", "generate_workload")
collect_pilot_stats = _forward(".sim", "collect_pilot_stats")
learn_externals = _forward(".learning", "learn_externals")
learn_time_model = _forward(".learning", "learn_time_model")
min_train_fraction_sweep = _forward(".learning", "min_train_fraction_sweep")
parse_pipeline = _forward(".kg.document", "parse_pipeline")
serialize_pipeline = _forward(".kg.document", "serialize_pipeline")
configure_pipeline = _forward(".configure", "configure_pipeline")
deploy = _forward(".sim", "deploy")
run = _forward(".sim", "run")
run_legacy = _forward(".sim", "run_legacy")
write_trace = _forward(".sim", "write_trace")


def _status(command, ok, **fields):
    parts = ["semcloud-status", "command=%s" % command, "ok=%d" % (1 if ok else 0)]
    parts += ["%s=%s" % (k, v) for k, v in sorted(fields.items())]
    click.echo(" ".join(parts), err=True)


def _format_hyperparameters(params):
    """``k=v,...`` in key order, the ``hyperparameters`` cell of a report."""
    return ",".join("%s=%s" % kv for kv in sorted(params.items()))


def _write_table(path, header, rows):
    """Write a report table: a tab-separated header line, then one line per row."""
    with open(path, "w") as fh:
        for row in (header, *rows):
            fh.write("\t".join(row) + "\n")


class _Semcloud(click.Group):
    """The command group, and the one place where a failure becomes an exit
    code and one status line, for the command it names or for ``semcloud``.
    A usage error (an unknown option or command, a bad or missing option
    value) prints click's message and exits 2, as a ConfigError (a bad
    project file or option value) does; a domain error, or an OSError such
    as a workdir that names a file, exits 1.  Anything else propagates."""

    def make_context(self, info_name, args, parent=None, **extra):
        with self._exit_codes(None):
            return super().make_context(info_name, args, parent=parent, **extra)

    def invoke(self, ctx):
        with self._exit_codes(ctx):
            return super().invoke(ctx)

    @staticmethod
    @contextlib.contextmanager
    def _exit_codes(ctx):
        try:
            yield
        except Exception as exc:
            if isinstance(exc, (click.exceptions.Exit, click.exceptions.Abort)):
                raise
            if isinstance(exc, click.UsageError):
                exc.show()
                code, error = 2, "UsageError"
            else:
                # imported on a failure only, so --help loads only cli and config
                from .errors import DomainError

                if not isinstance(exc, (ConfigError, DomainError, OSError)):
                    raise
                code = 2 if isinstance(exc, ConfigError) else 1
                click.echo("%s: %s" % ("config error" if code == 2 else "error", exc), err=True)
                error = type(exc).__name__
            # set once the command name resolves, before its options parse
            _status(getattr(ctx, "invoked_subcommand", None) or "semcloud", False, error=error)
            raise click.exceptions.Exit(code)


@click.group(cls=_Semcloud)
@click.option("--config", "-c", "config_path", default="project.yaml",
              show_default=True, help="Project config file.")
@click.pass_context
def main(ctx, config_path):
    """SemCloud loop: generate, pilot, learn, configure, simulate, report."""
    ctx.ensure_object(dict)
    ctx.obj["config_path"] = config_path


def _stage(*outputs, inputs=()):
    """Register ``func(cfg, **options)``, which runs a stage and returns its
    status fields, as the command of its name.  ``outputs`` and ``inputs``,
    kept as the command's, are the glob patterns under the workdir of every
    file the stage writes and of every file it reads through ``_read``.  The
    command loads the project config, removes every file the outputs match,
    so a stage that fails leaves no artifact of an earlier run, calls
    ``func`` and prints one status line.  When ``func`` raises, the command
    removes every file the outputs match again, so a stage that fails
    part-way leaves none of its own either."""

    def register(func):
        def remove_outputs(cfg):
            for pattern in outputs:
                for path in glob.glob(os.path.join(glob.escape(cfg.workdir), pattern)):
                    os.remove(path)

        @functools.wraps(func)
        def command(**options):
            cfg = load_config(click.get_current_context().obj["config_path"])
            remove_outputs(cfg)
            try:
                fields = func(cfg, **options)
            except BaseException:
                remove_outputs(cfg)
                raise
            _status(func.__name__, True, **fields)

        command = main.command()(command)
        command.outputs = outputs
        command.inputs = inputs
        return command

    return register


def _read(cfg, name, optional=False):
    """The text of the workdir file ``name``, which the calling stage
    declares among its inputs.  A missing file is None when ``optional``,
    else an InputError naming the stage that writes it, found by the
    declared outputs; so is a file that cannot be read or is not UTF-8."""
    path = cfg.path(name)
    try:
        with open(path) as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        from .errors import InputError

        if not isinstance(exc, FileNotFoundError):
            raise InputError("cannot read %s: %s" % (path, exc)) from None
        if optional:
            return None
        # pilot declares no outputs (see pilot), so its one file is named here
        writer = "pilot" if name == "pilot.csv" else next(
            stage for stage, command in main.commands.items()
            if any(fnmatch.fnmatch(name, pattern) for pattern in command.outputs))
        raise InputError("%s is missing; run `semcloud %s` first" % (path, writer)) from None


def _pilot_records(cfg):
    from .pilots import read_pilot_csv

    return read_pilot_csv(_read(cfg, "pilot.csv"), cfg.path("pilot.csv"))


def _load_model(cfg, name):
    from .learning import load_model

    name = "models/%s.json" % name
    return load_model(_read(cfg, name), cfg.path(name))


@_stage("workload/source_*")
def gen(cfg):
    """Generate the heterogeneous source files."""
    spec = cfg.workload_spec(seed=derive_seed(cfg.seed, "gen"))
    descriptors = generate_workload(spec, cfg.path("workload"))
    for desc in descriptors:
        click.echo("%s: %d records" % (desc.location, spec.total_records()))
    return {"sources": len(descriptors), "records": spec.total_records()}


# declares nothing: --dry-run writes nothing, and a failing pilot still writes pilot.csv
@_stage()
@click.option("--dry-run", is_flag=True, help="Print the plan, write nothing.")
def pilot(cfg, dry_run):
    """Collect pilot running statistics from instrumented simulations."""
    from .pilots import write_pilot_csv
    from .sim import SimError

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
    write_pilot_csv(records, cfg.path("pilot.csv"))
    for entry in (err1 + err2)[:5]:
        click.echo("skipped: %s" % (entry,), err=True)
    click.echo("%s: %d rows" % (cfg.path("pilot.csv"), len(records)))
    # learn fits externals on each kind; a kind with no row is a
    # failure here, where its cause is known, not later in learn
    for kind, rows, errors in (("estimation", est, err1), ("configuration", conf, err2)):
        if errors and not rows:
            raise SimError("every %s run was skipped, so learn has no %s rows; "
                           "the first: %s" % (kind, kind, errors[0][3]))
    return {"rows": len(records), "skipped": len(err1) + len(err2)}


@_stage("models/func_*.json", "models/time_model.json",
        "reports/fit_reports.tsv", "reports/fit_timings.tsv", inputs=("pilot.csv",))
def learn(cfg):
    """Fit the rule externals and the time model from pilot statistics."""
    import numpy as np

    from .learning import save_model

    plan = cfg.learn_plan()
    records = _pilot_records(cfg)
    # an overflowing pilot column gives a non-finite model, which
    # save_model refuses; numpy need not warn about it as well
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        models, reports = learn_externals(records, methods=plan["methods"])
        time_model, time_report = learn_time_model(records, method=plan["time_method"])
    os.makedirs(cfg.path("models"), exist_ok=True)
    os.makedirs(cfg.path("reports"), exist_ok=True)
    for name, model in {**models, "time_model": time_model}.items():
        save_model(model, cfg.path("models", name + ".json"))

    rows = sorted(reports.items()) + [("time_model", time_report)]
    for name, report in rows:
        click.echo("%-10s %-6s nmae=%.4f" % (name, report.method, report.nmae))
    _write_table(cfg.path("reports", "fit_reports.tsv"),
                 ("target", "method", "hyperparameters", "nmae"),
                 [(name, report.method, _format_hyperparameters(report.hyperparameters),
                   repr(report.nmae)) for name, report in rows])
    _write_table(cfg.path("reports", "fit_timings.tsv"),
                 ("target", "learning_time_ms", "inference_time_ms"),
                 [(name, "%.3f" % report.learning_time_ms, "%.6f" % report.inference_time_ms)
                  for name, report in rows])
    return {"models": len(models) + 1}


class _Document(click.Path):
    """A path option whose value is the text of the file it names, read as
    the options parse: ``configure --pipeline`` may name an earlier
    ``configured_pipeline.yaml``, which the runner removes before the stage
    runs."""

    def convert(self, value, param, ctx):
        try:
            with open(super().convert(value, param, ctx)) as fh:
                return fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError("cannot read pipeline document: %s" % exc) from None


@_stage("configured_pipeline.yaml", "configured_facts.dl", "resource_config.tsv",
        inputs=("pilot.csv", "models/*.json"))
@click.option("--pipeline", "document", type=_Document(),
              default=None, help="Pre-configured pipeline document to configure.")
def configure(cfg, document):
    """Derive the resource configuration via the rule corpus."""
    from .configure import build_registry, target_pilot_record
    from .datalog import dump_facts
    from .kg import frequent_pipeline, validate
    from .learning import EXTERNAL_TARGETS
    from .sim import SimWorkload

    spec = cfg.workload_spec()
    target = SimWorkload.from_spec(spec)
    cloud = cfg.cloud_attributes()
    graph = None if document is None else parse_pipeline(document)
    pilot_record = target_pilot_record(_pilot_records(cfg), target)
    if graph is None:
        graph = frequent_pipeline(
            target.pipeline,
            no_records=float(target.n_records),
            volume_mb=target.volume_mb,
            chunk_size=pilot_record.no_records,
            slice_size=pilot_record.no_records,
            slice_time=pilot_record.slice_time,
            prepare_time=pilot_record.prepare_time,
            memory_reservation=pilot_record.prepare_memory,
            storage_mode="fast",
        )
    models = {name: _load_model(cfg, name) for name in EXTERNAL_TARGETS}
    time_model = _load_model(cfg, "time_model")
    registry = build_registry(models, time_model, cfg.search_space)
    config, configured, idb = configure_pipeline(graph, cloud, registry, pilot_record)
    # the configured document must be one that simulate and
    # `configure --pipeline` accept
    validate(configured)
    os.makedirs(cfg.workdir, exist_ok=True)
    with open(cfg.path("configured_pipeline.yaml"), "w") as fh:
        fh.write(serialize_pipeline(configured))
    with open(cfg.path("configured_facts.dl"), "w") as fh:
        fh.write(dump_facts(idb))
    _write_table(cfg.path("resource_config.tsv"),
                 ("pipeline", "chunk_size", "slice_size", "storage",
                  "slice_memory_reservation", "prepare_memory_reservation"),
                 [(config.pipeline, repr(config.chunk_size), repr(config.slice_size),
                   config.storage, repr(config.slice_memory_reservation),
                   repr(config.prepare_memory_reservation))])
    click.echo("configured_resource(%s, %g, %g, %s, %g, %g)" % (
        config.pipeline, config.chunk_size, config.slice_size,
        config.storage, config.slice_memory_reservation,
        config.prepare_memory_reservation))
    return {"chunk_size": int(config.chunk_size), "slice_size": int(config.slice_size)}


@_stage("reports/comparison.tsv", "reports/trace_*.tsv", inputs=("configured_pipeline.yaml",))
@click.option("--legacy-only", is_flag=True, help="Run only the legacy baseline.")
def simulate(cfg, legacy_only):
    """Simulate the configured pipeline against the legacy baseline."""
    from .sim import ComparisonRow, compare

    workloads = cfg.timed_workloads("simulate")
    cluster = cfg.cluster_spec()
    cost = cfg.cost_model(noise_amplitude=0.0)
    os.makedirs(cfg.path("reports"), exist_ok=True)
    configured = None if legacy_only else parse_pipeline(_read(cfg, "configured_pipeline.yaml"))
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
        _write_table(cfg.path("reports", "comparison.tsv"),
                     [f.name for f in dataclasses.fields(ComparisonRow)],
                     [map(repr, dataclasses.astuple(row)) for row in rows])
        last = rows[-1]
        click.echo("largest volume: time ratio %.3f, memory ratio %.3f"
                   % (last.time_ratio, last.memory_ratio))
    return {"volumes": len(volumes), "legacy_only": int(legacy_only)}


def _last_time_ratio(text, path):
    """The ``time_ratio`` cell of the last row of ``text``, the comparison
    table at ``path``, as written."""
    from .sim import SimError

    lines = text.splitlines()
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


@_stage("reports/summary.txt", "reports/sweet_spot.tsv", "reports/min_train_fraction.tsv",
        inputs=("pilot.csv", "models/time_model.json", "reports/comparison.tsv"))
def report(cfg):
    """Consolidate sweet-spot and minimal-training-data series."""
    from .configure import slicing_objective, target_pilot_record
    from .learning import training_frame
    from .optimizer import optimize_slicing, sweet_spot_curve
    from .sim import SimWorkload

    # every input is read first, so a bad file fails the stage before its sweeps run
    records = _pilot_records(cfg)
    time_model = _load_model(cfg, "time_model")
    comparison = _read(cfg, "reports/comparison.tsv", optional=True)
    time_ratio = (None if comparison is None
                  else _last_time_ratio(comparison, cfg.path("reports/comparison.tsv")))
    os.makedirs(cfg.path("reports"), exist_ok=True)
    spec = cfg.workload_spec()
    target = SimWorkload.from_spec(spec)
    pilot_record = target_pilot_record(records, target)
    space = cfg.search_space(target.n_records)
    objective = slicing_objective(
        time_model, float(target.n_records), target.volume_mb,
        pilot_record.slice_time, pilot_record.prepare_time, space,
    )
    best = optimize_slicing(objective, space)
    curve = sweet_spot_curve(objective, space, best.nc)
    _write_table(cfg.path("reports", "sweet_spot.tsv"), ("slice_size", "predicted_time"),
                 [(str(ns), repr(float(value))) for ns, value in curve])

    plan = cfg.learn_plan()
    fractions = (0.05, 0.074, 0.1, 0.15, 0.25, 0.5, 0.75, 1.0)
    rows = []
    data = training_frame(records, "func_ms")
    for method in plan["methods"]:
        params = SWEEP_HYPERPARAMETERS[method]
        sweep, min_fraction = min_train_fraction_sweep(
            method, params, data, plan["target_nmae"], fractions
        )
        rows += [(method, repr(fraction), repr(score),
                  "" if min_fraction is None else repr(min_fraction),
                  _format_hyperparameters(params)) for fraction, score in sweep]
        click.echo("%s: minimal training fraction %s"
                   % (method, min_fraction if min_fraction is not None else "not reached"))
    _write_table(cfg.path("reports", "min_train_fraction.tsv"),
                 ("method", "fraction", "nmae", "min_fraction", "hyperparameters"), rows)

    summary = ["sweet spot: slice_size=%d predicted_time=%s" % (best.ns, best.value)]
    if time_ratio is not None:
        summary.append("largest volume time ratio: %s" % time_ratio)
    with open(cfg.path("reports", "summary.txt"), "w") as fh:
        fh.write("\n".join(summary) + "\n")
    for line in summary:
        click.echo(line)
    return {"rows": len(curve)}


if __name__ == "__main__":
    main()
