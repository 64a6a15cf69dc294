"""Command-line interface: the full loop on a small project config."""

import dataclasses
import errno
import fnmatch
import json
import os
import pathlib
import re
import shutil

import pytest
import yaml
from click.testing import CliRunner

from semcloud import cli, config
from semcloud.cli import main
from semcloud.config import ConfigError, ProjectConfig, load_config
from semcloud.etl import workload
from semcloud.optimizer import SearchSpace

SMALL_PROJECT = {
    "seed": 0,
    "workload": {"machines": 6, "duration": 86.4, "production_lines": 2},
    "pilot": {
        "durations": [43.2, 86.4],
        "record_bytes": [625, 1250],
        "estimation_seeds": 2,
        "configuration_seeds": 1,
    },
    "cluster": {"nodes": 9},
    "search": {"nc_steps": 5, "ns_steps": 5, "span": 16},
    "simulate": {"durations": [43.2, 86.4]},
}


def write_project(directory, **overrides):
    cfg = dict(SMALL_PROJECT)
    cfg["workdir"] = os.path.join(str(directory), "out")
    cfg.update(overrides)
    path = os.path.join(str(directory), "project.yaml")
    with open(path, "w") as fh:
        yaml.safe_dump(cfg, fh)
    return path


def invoke(config_path, *args):
    result = CliRunner().invoke(
        main, ["-c", config_path, *args], catch_exceptions=False)
    # tests only care about the combined text, not the stream split
    result.combined = result.output + result.stderr
    return result


@pytest.fixture(scope="module")
def traced_chain(tmp_path_factory):
    """gen -> pilot -> learn -> configure -> simulate -> report, once, and
    the workdir names each stage reads through cli._read."""
    root = tmp_path_factory.mktemp("proj")
    config_path = write_project(root)
    results, reads = {}, {}
    read = cli._read
    with pytest.MonkeyPatch.context() as patch:
        for command in ("gen", "pilot", "learn", "configure", "simulate", "report"):
            names = reads[command] = []

            def spy(cfg, name, optional=False, names=names):
                names.append(name)
                return read(cfg, name, optional)

            patch.setattr(cli, "_read", spy)
            results[command] = invoke(config_path, command)
    workdir = os.path.join(str(root), "out")
    return config_path, workdir, results, reads


@pytest.fixture(scope="module")
def completed_chain(traced_chain):
    return traced_chain[:3]


# The stage that writes each workdir file a test below breaks.
WRITERS = {"pilot.csv": "pilot", "models/func_mp.json": "learn",
           "models/time_model.json": "learn", "configured_pipeline.yaml": "configure",
           "reports/comparison.tsv": "simulate"}


class TestChain:
    def test_every_command_succeeds(self, completed_chain):
        _, _, results = completed_chain
        for command, result in results.items():
            assert result.exit_code == 0, (command, result.output)

    def test_status_lines(self, completed_chain):
        _, _, results = completed_chain
        for command, result in results.items():
            assert "semcloud-status command=%s ok=1" % command in result.combined

    def test_artifacts_exist(self, completed_chain):
        _, workdir, _ = completed_chain
        expected = [
            "workload/source_csv.csv",
            "pilot.csv",
            "models/func_ms.json",
            "models/time_model.json",
            "configured_pipeline.yaml",
            "configured_facts.dl",
            "resource_config.tsv",
            "reports/comparison.tsv",
            "reports/sweet_spot.tsv",
            "reports/min_train_fraction.tsv",
            "reports/summary.txt",
        ]
        for rel in expected:
            assert os.path.exists(os.path.join(workdir, rel)), rel

    def test_every_output_is_declared_by_one_stage(self, completed_chain):
        _, workdir, _ = completed_chain
        root = pathlib.Path(workdir)
        declared = [path for command in main.commands.values()
                    for pattern in command.outputs for path in root.glob(pattern)]
        # pilot declares nothing, so that a pilot --dry-run removes nothing
        assert main.commands["pilot"].outputs == ()
        files = [path for path in root.rglob("*") if path.is_file()]
        assert sorted(declared) == sorted(set(files) - {root / "pilot.csv"})

    def test_every_declared_input_is_written_by_one_other_stage(self, completed_chain):
        _, workdir, _ = completed_chain
        root = pathlib.Path(workdir)
        for stage, command in main.commands.items():
            for pattern in command.inputs:
                names = [path.relative_to(root).as_posix() for path in root.glob(pattern)]
                assert names, (stage, pattern)
                for name in names:
                    writers = [other for other, each in main.commands.items()
                               if any(fnmatch.fnmatch(name, out) for out in each.outputs)]
                    # pilot.csv is the one file that no stage declares (see pilot)
                    if name == "pilot.csv":
                        assert writers == [], writers
                    else:
                        assert len(writers) == 1 and writers != [stage], (name, writers)

    def test_each_stage_reads_exactly_its_declared_inputs(self, traced_chain):
        _, _, results, reads = traced_chain
        assert all(result.exit_code == 0 for result in results.values())
        for stage, names in reads.items():
            patterns = main.commands[stage].inputs
            assert [name for name in names
                    if not any(fnmatch.fnmatch(name, p) for p in patterns)] == [], stage
            # and no declaration is wider than the chain needs
            assert [p for p in patterns if not fnmatch.filter(names, p)] == [], stage

    def test_configured_resource_is_printed(self, completed_chain):
        _, _, results = completed_chain
        assert "configured_resource(" in results["configure"].combined

    def test_sweep_rows_name_their_hyperparameters(self, completed_chain):
        _, workdir, _ = completed_chain
        text = pathlib.Path(workdir, "reports", "min_train_fraction.tsv").read_text()
        header, *rows = [line.split("\t") for line in text.splitlines()]
        assert header == ["method", "fraction", "nmae", "min_fraction", "hyperparameters"]
        labels = {row[0]: row[-1] for row in rows}
        assert labels == {"polyr": "degree=2", "knn": "k=2"}

    def test_configured_facts_hold_one_configuration(self, completed_chain):
        _, workdir, _ = completed_chain
        text = pathlib.Path(workdir, "configured_facts.dl").read_text()
        hits = [l for l in text.splitlines()
                if l.startswith("configured_resource(")]
        assert len(hits) == 1

    def test_configuring_the_configured_document_reproduces_it(self, tmp_path, completed_chain):
        _, workdir, _ = completed_chain
        shutil.copytree(workdir, tmp_path / "out")
        path = tmp_path / "pipeline.yaml"
        shutil.copy(tmp_path / "out" / "configured_pipeline.yaml", path)
        result = invoke(write_project(tmp_path), "configure", "--pipeline", str(path))
        assert result.exit_code == 0, result.combined
        for name in ("configured_pipeline.yaml", "resource_config.tsv"):
            assert (tmp_path / "out" / name).read_bytes() == pathlib.Path(workdir, name).read_bytes()


class TestIndividualCommands:
    def test_unknown_section_is_usage_error(self, tmp_path):
        path = tmp_path / "project.yaml"
        path.write_text("workdir: out\nturbo: true\n")
        result = invoke(str(path), "gen")
        assert result.exit_code == 2
        assert "turbo" in result.combined

    def test_pilot_dry_run_writes_nothing(self, tmp_path):
        config_path = write_project(tmp_path)
        result = invoke(config_path, "pilot", "--dry-run")
        assert result.exit_code == 0
        assert "would run" in result.combined
        assert not os.path.exists(os.path.join(str(tmp_path), "out", "pilot.csv"))

    def test_skipped_runs_print_short_numbers(self, tmp_path):
        # every reservation is near 1e299 MB, and each skipped run says so
        config_path = write_project(tmp_path, cost={"alpha_slice": 1e300})
        result = invoke(config_path, "pilot")
        assert result.exit_code == 1
        assert "skipped: " in result.stderr
        assert max(len(digits) for digits in re.findall(r"\d+", result.combined)) <= 20

    def test_configure_without_models_hints_at_learn(self, tmp_path):
        config_path = write_project(tmp_path)
        invoke(config_path, "gen")
        result = invoke(config_path, "pilot")
        assert result.exit_code == 0
        result = invoke(config_path, "configure")
        assert result.exit_code == 1
        assert "semcloud learn" in result.combined

    def test_simulate_legacy_only_needs_no_configuration(self, tmp_path):
        config_path = write_project(tmp_path)
        result = invoke(config_path, "simulate", "--legacy-only")
        assert result.exit_code == 0
        workdir = os.path.join(str(tmp_path), "out")
        assert os.path.exists(os.path.join(workdir, "reports", "trace_legacy_0.tsv"))
        assert not os.path.exists(os.path.join(workdir, "reports", "comparison.tsv"))

    def test_simulate_without_configure_fails(self, tmp_path):
        config_path = write_project(tmp_path)
        result = invoke(config_path, "simulate")
        assert result.exit_code == 1
        assert "semcloud configure" in result.combined

    def test_report_on_empty_project(self, tmp_path):
        config_path = write_project(tmp_path)
        result = invoke(config_path, "report")
        assert result.exit_code == 1
        assert "pilot.csv is missing; run `semcloud pilot` first" in result.combined

    def test_empty_cluster_is_usage_error(self, tmp_path):
        config_path = write_project(tmp_path, cluster={"nodes": 0})
        result = invoke(config_path, "pilot", "--dry-run")
        assert result.exit_code == 2
        assert "config error:" in result.combined
        assert "Traceback" not in result.combined

    def test_zero_throughput_is_usage_error(self, tmp_path):
        config_path = write_project(tmp_path, cost={"thr_prepare": 0})
        result = invoke(config_path, "simulate", "--legacy-only")
        assert result.exit_code == 2
        assert "config error:" in result.combined
        assert "thr_prepare" in result.combined
        assert "Traceback" not in result.combined


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_report_sweet_spot_is_the_configured_slice_size(tmp_path, seed):
    """report's sweet spot and configure's choice share one pilot seed record."""
    config_path = write_project(tmp_path, seed=seed)
    for command in ("pilot", "learn", "configure", "report"):
        assert invoke(config_path, command).exit_code == 0, command
    workdir = os.path.join(str(tmp_path), "out")
    with open(os.path.join(workdir, "resource_config.tsv")) as fh:
        config = dict(zip(*[line.split("\t") for line in fh.read().splitlines()]))
    with open(os.path.join(workdir, "reports", "summary.txt")) as fh:
        summary = fh.readline()
    assert summary.startswith("sweet spot: slice_size=%d " % float(config["slice_size"]))
    with open(os.path.join(workdir, "reports", "sweet_spot.tsv")) as fh:
        header, first = fh.read().splitlines()[:2]
    assert header == "slice_size\tpredicted_time"
    assert re.fullmatch(r"\d+\t\S+", first), first


def status_lines(result):
    return [line for line in result.stderr.splitlines()
            if line.startswith("semcloud-status ")]


class FullAfterOneWrite:
    """A text file open for writing whose writes after the first raise the
    OSError of a full disk."""

    def __init__(self, path, mode):
        self.file = open(path, mode)
        self.writes = 0

    def write(self, text):
        self.writes += 1
        if self.writes > 1:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), self.file.name)
        return self.file.write(text)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.file.close()


class TestContract:
    """Bad input exits 1 (domain) or 2 (usage) with one status line, no traceback."""

    def assert_failure(self, result, command, code, error):
        assert result.exit_code == code
        assert status_lines(result) == [
            "semcloud-status command=%s ok=0 error=%s" % (command, error)]
        assert "Traceback" not in result.combined

    # every command, so a stage that bypasses the runner fails here
    @pytest.mark.parametrize("command", sorted(main.commands))
    def test_missing_config_is_usage_error(self, tmp_path, command):
        result = invoke(str(tmp_path / "nope.yaml"), command)
        self.assert_failure(result, command, 2, "ConfigError")
        assert "nope.yaml" in result.combined

    def test_learn_without_pilot_stats(self, tmp_path):
        result = invoke(write_project(tmp_path), "learn")
        self.assert_failure(result, "learn", 1, "InputError")
        assert "semcloud pilot" in result.combined

    def test_truncated_model_file(self, tmp_path, completed_chain):
        _, workdir, _ = completed_chain
        copy = tmp_path / "out"
        shutil.copytree(workdir, copy)
        path = copy / "models" / "time_model.json"
        path.write_text(path.read_text()[:100])
        result = invoke(write_project(tmp_path), "configure")
        self.assert_failure(result, "configure", 1, "LearningError")
        assert "time_model.json" in result.combined

    @pytest.mark.parametrize("cost", [{"thr_retrieve": 1e-300}, {"join_overhead": 1e300}])
    def test_learn_writes_no_model_that_configure_refuses(self, tmp_path, cost):
        def refused_learn():
            # the time model's slice or prepare time column overflows its scale
            config_path = write_project(tmp_path, cost=cost)
            assert invoke(config_path, "pilot").exit_code == 0
            result = invoke(config_path, "learn")
            self.assert_failure(result, "learn", 1, "LearningError")
            error = result.stderr.splitlines()[0]
            assert error.startswith("error: cannot save model file ")
            assert "time_model.json: model scale must be a finite positive array" in error
            # a learn that fails leaves no model, the externals it saved included
            assert list((tmp_path / "out" / "models").iterdir()) == []
            result = invoke(config_path, "configure")
            self.assert_failure(result, "configure", 1, "InputError")
            assert re.search(r"models/func_\w+\.json is missing; run `semcloud learn` first",
                             result.stderr)

        assert invoke(write_project(tmp_path), "gen").exit_code == 0
        refused_learn()
        # models learned from other pilot statistics do not outlive a learn
        # that fails: configure finds no model, not a stale one
        for stage in ("pilot", "learn", "configure"):
            assert invoke(write_project(tmp_path), stage).exit_code == 0, stage
        refused_learn()

    def test_a_failed_learn_leaves_no_report_of_the_earlier_run(self, tmp_path):
        config_path = write_project(tmp_path)
        for stage in ("gen", "pilot", "learn", "configure", "simulate", "report"):
            assert invoke(config_path, stage).exit_code == 0, stage
        reports = tmp_path / "out" / "reports"
        names = ("fit_reports.tsv", "fit_timings.tsv", "summary.txt", "sweet_spot.tsv",
                 "min_train_fraction.tsv")
        assert all((reports / name).exists() for name in names)
        config_path = write_project(tmp_path, cost={"thr_retrieve": 1e-300})
        assert invoke(config_path, "pilot").exit_code == 0
        self.assert_failure(invoke(config_path, "learn"), "learn", 1, "LearningError")
        result = invoke(config_path, "report")
        self.assert_failure(result, "report", 1, "InputError")
        assert "time_model.json is missing; run `semcloud learn` first" in result.stderr
        assert [name for name in names if (reports / name).exists()] == []

    def test_a_failed_configure_leaves_no_configuration(self, tmp_path, completed_chain):
        _, workdir, _ = completed_chain
        out = tmp_path / "out"
        shutil.copytree(workdir, out)
        names = ("configured_pipeline.yaml", "configured_facts.dl", "resource_config.tsv")
        config_path = write_project(tmp_path)
        # the --pipeline document is read before the earlier outputs go
        result = invoke(config_path, "configure", "--pipeline",
                        str(out / "configured_pipeline.yaml"))
        assert result.exit_code == 0, result.combined
        for name in ("configured_pipeline.yaml", "resource_config.tsv"):
            assert (out / name).read_bytes() == pathlib.Path(workdir, name).read_bytes()
        path = out / "models" / "time_model.json"
        path.write_text(path.read_text()[:100])
        self.assert_failure(invoke(config_path, "configure"), "configure", 1, "LearningError")
        assert [name for name in names if (out / name).exists()] == []
        result = invoke(config_path, "simulate")
        self.assert_failure(result, "simulate", 1, "InputError")
        assert "run `semcloud configure` first" in result.stderr

    @pytest.mark.parametrize("command, cut", [
        ("gen", None),
        ("learn", "pilot.csv"),
        ("configure", "models/time_model.json"),
        ("simulate", "configured_pipeline.yaml"),
        ("report", "models/time_model.json"),
    ])
    def test_a_stage_that_starts_and_fails_leaves_none_of_its_outputs(
            self, tmp_path, monkeypatch, completed_chain, command, cut):
        _, workdir, _ = completed_chain
        out = tmp_path / "out"
        shutil.copytree(workdir, out)
        outputs = main.commands[command].outputs
        assert all(list(out.glob(pattern)) for pattern in outputs)
        if cut is None:
            # gen's sources fill the disk after their first block of 100 rows
            monkeypatch.setattr(workload, "BLOCK_ROWS", 100)
            monkeypatch.setattr(workload, "open", FullAfterOneWrite, raising=False)
        else:
            path = out / cut
            path.write_text(path.read_text()[:100])
        result = invoke(write_project(tmp_path), command)
        assert result.exit_code == 1, result.combined
        assert len(status_lines(result)) == 1
        assert [path for pattern in outputs for path in out.glob(pattern)] == []

    def test_configure_writes_no_pipeline_that_its_readers_refuse(self, tmp_path):
        # a one-byte record gives a negative slice memory reservation
        config_path = write_project(tmp_path, pilot=dict(SMALL_PROJECT["pilot"],
                                                         record_bytes=[1]))
        for stage in ("gen", "pilot", "learn"):
            assert invoke(config_path, stage).exit_code == 0, stage
        result = invoke(config_path, "configure")
        self.assert_failure(result, "configure", 1, "StructureError")
        assert result.stderr.splitlines()[0] == "error: p1_t2: memory reservation must be positive"
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
            "models", "pilot.csv", "reports", "workload"]

    @pytest.mark.parametrize("args", [(), ("--legacy-only",)])
    def test_simulate_leaves_no_comparison_of_an_earlier_run(self, tmp_path, completed_chain,
                                                             args):
        _, workdir, _ = completed_chain
        out = tmp_path / "out"
        shutil.copytree(workdir, out)
        config_path = write_project(tmp_path)
        if args:
            assert invoke(config_path, "simulate", *args).exit_code == 0
            traces = ["trace_legacy_0.tsv", "trace_legacy_1.tsv"]
        else:
            path = out / "configured_pipeline.yaml"
            path.write_text(path.read_text()[:100])
            self.assert_failure(invoke(config_path, "simulate"), "simulate", 1, "SchemaError")
            traces = []
        reports = out / "reports"
        assert not (reports / "comparison.tsv").exists()
        assert sorted(p.name for p in reports.glob("trace_*.tsv")) == traces
        assert invoke(config_path, "report").exit_code == 0
        assert "time ratio" not in (reports / "summary.txt").read_text()

    def test_learn_skips_knn_grid_points_above_the_training_rows(self, tmp_path):
        # one estimation seed gives func_ms, func_ssl and func_sst four rows,
        # three of them to train on: knn's k=5 is skipped, not an error
        config_path = write_project(tmp_path, pilot=dict(SMALL_PROJECT["pilot"],
                                                         estimation_seeds=1))
        assert invoke(config_path, "pilot").exit_code == 0
        result = invoke(config_path, "learn")
        assert result.exit_code == 0, result.combined
        assert status_lines(result) == ["semcloud-status command=learn ok=1 models=8"]
        text = (tmp_path / "out" / "reports" / "fit_reports.tsv").read_text()
        rows = {row[0]: row[1:3] for row in map(str.split, text.splitlines()[1:])}
        assert len(rows) == 8
        assert all(int(params[2:]) <= 3 for method, params in rows.values() if method == "knn")

    @pytest.mark.parametrize("seeds, error", [
        (1, "@func_ss has 1 training row from the configuration pilot runs, and a fit needs 2 "
            "to hold one out"),
        (3, "the time model has 3 training rows from the configuration pilot runs, and needs 4"),
    ])
    def test_learn_fails_on_too_few_configuration_rows(self, tmp_path, seeds, error):
        # a one-point search space gives one configuration run per seed
        config_path = write_project(tmp_path, search=dict(SMALL_PROJECT["search"], span=1),
                                    pilot=dict(SMALL_PROJECT["pilot"], configuration_seeds=seeds))
        assert invoke(config_path, "pilot").exit_code == 0
        result = invoke(config_path, "learn")
        self.assert_failure(result, "learn", 1, "LearningError")
        assert [line for line in result.stderr.splitlines() if line.startswith("error")] == [
            "error: %s; pilot.configuration_seeds and search.* set those runs" % error]

    @pytest.mark.parametrize("kind, setting", [
        ("configuration", {"cluster": {"nodes": 1}}),
        ("estimation", {"cost": {"alpha_slice": 1e300}}),
    ])
    def test_pilot_fails_when_it_skipped_every_run_of_a_kind(self, tmp_path, kind, setting):
        result = invoke(write_project(tmp_path, **setting), "pilot")
        self.assert_failure(result, "pilot", 1, "SimError")
        step = "slice" if kind == "estimation" else "prepare"
        error, = [line for line in result.stderr.splitlines() if line.startswith("error: ")]
        assert error.startswith(
            "error: every %s run was skipped, so learn has no %s rows; the first: "
            "InsufficientResources('%s reservation " % (kind, kind, step))
        assert (tmp_path / "out" / "pilot.csv").exists()

    @pytest.mark.parametrize("command", ["configure", "report"])
    @pytest.mark.parametrize("key, value", [("k", 0), ("k", 2.5), ("targets", [1.0])])
    def test_malformed_time_model(self, tmp_path, completed_chain, command, key, value):
        _, workdir, _ = completed_chain
        copy = tmp_path / "out"
        shutil.copytree(workdir, copy)
        path = copy / "models" / "time_model.json"
        data = json.loads(path.read_text())
        assert data["method"] == "knn"
        section = "hyperparameters" if key == "k" else "payload"
        data[section][key] = value
        path.write_text(json.dumps(data))
        result = invoke(write_project(tmp_path), command)
        self.assert_failure(result, command, 1, "LearningError")
        assert "time_model.json" in result.combined

    @pytest.mark.parametrize("command", ["configure", "report"])
    def test_time_model_sample_past_float_range(self, tmp_path, completed_chain, command):
        _, workdir, _ = completed_chain
        copy = tmp_path / "out"
        shutil.copytree(workdir, copy)
        path = copy / "models" / "time_model.json"
        data = json.loads(path.read_text())
        assert data["method"] == "knn"
        data["payload"]["samples"][0][0] = 10**400
        path.write_text(json.dumps(data))
        result = invoke(write_project(tmp_path), command)
        self.assert_failure(result, command, 1, "LearningError")
        assert "time_model.json: LearningError: model samples must be a finite array" in result.stderr

    def test_report_needs_only_the_time_model(self, tmp_path, completed_chain):
        _, workdir, _ = completed_chain
        shutil.copytree(workdir, tmp_path / "out")
        (tmp_path / "out" / "models" / "func_ms.json").unlink()
        result = invoke(write_project(tmp_path), "report")
        assert result.exit_code == 0, result.combined
        assert status_lines(result)[0].startswith("semcloud-status command=report ok=1 ")

    @pytest.mark.parametrize("cut", [
        lambda lines: [],
        lambda lines: lines[:1],
        lambda lines: lines[:-1] + [lines[-1][:10]],
    ], ids=["empty", "header-only", "short-last-row"])
    def test_malformed_comparison_file(self, tmp_path, completed_chain, cut):
        _, workdir, _ = completed_chain
        shutil.copytree(workdir, tmp_path / "out")
        path = tmp_path / "out" / "reports" / "comparison.tsv"
        path.write_text("".join(cut(path.read_text().splitlines(keepends=True))))
        earlier = tmp_path / "out" / "reports" / "sweet_spot.tsv"
        earlier.write_text("stale\n")
        result = invoke(write_project(tmp_path), "report")
        self.assert_failure(result, "report", 1, "SimError")
        assert "comparison.tsv" in result.combined
        assert not earlier.exists()

    @pytest.mark.parametrize("command", ["learn", "configure", "report"])
    def test_pilot_stats_that_are_not_utf8(self, tmp_path, completed_chain, command):
        _, workdir, _ = completed_chain
        shutil.copytree(workdir, tmp_path / "out")
        (tmp_path / "out" / "pilot.csv").write_bytes(b"\xff\xfe pipeline,no_records\n")
        result = invoke(write_project(tmp_path), command)
        self.assert_failure(result, command, 1, "InputError")
        assert "cannot read %s" % (tmp_path / "out" / "pilot.csv") in result.combined

    @pytest.mark.parametrize("stage, pattern, broken", [
        (stage, pattern, broken) for stage, command in sorted(main.commands.items())
        for pattern in command.inputs for broken in ("missing", "not-utf8")
        # report reads the comparison only when simulate wrote one
        if (pattern, broken) != ("reports/comparison.tsv", "missing")])
    def test_a_declared_input_that_is_missing_or_not_utf8(self, tmp_path, completed_chain,
                                                           stage, pattern, broken):
        _, workdir, _ = completed_chain
        out = tmp_path / "out"
        shutil.copytree(workdir, out)
        path = sorted(out.glob(pattern))[0]
        if broken == "missing":
            path.unlink()
            writer = WRITERS[path.relative_to(out).as_posix()]
            message = "error: %s is missing; run `semcloud %s` first" % (path, writer)
        else:
            path.write_bytes(b"\xff\xfe{")
            message = "error: cannot read %s: " % path
        result = invoke(write_project(tmp_path), stage)
        self.assert_failure(result, stage, 1, "InputError")
        assert result.stderr.startswith(message), result.stderr

    def test_pipeline_document_that_is_not_utf8(self, tmp_path, completed_chain):
        _, workdir, _ = completed_chain
        shutil.copytree(workdir, tmp_path / "out")
        path = tmp_path / "pipeline.yaml"
        path.write_bytes(b"\xff\xfe format: semcloud-pipeline/1\n")
        result = invoke(write_project(tmp_path), "configure", "--pipeline", str(path))
        self.assert_failure(result, "configure", 2, "ConfigError")
        assert "cannot read pipeline document" in result.combined
        # the option fails as it parses, before configure removes its outputs
        for name in ("configured_pipeline.yaml", "configured_facts.dl", "resource_config.tsv"):
            assert (tmp_path / "out" / name).read_bytes() == pathlib.Path(workdir, name).read_bytes()

    def test_overflowing_record_count_names_the_dropped_instance(self, tmp_path, completed_chain):
        # the models' outputs overflow; the engine drops the instance, and
        # stderr holds only the error that names it and the status line
        _, workdir, _ = completed_chain
        shutil.copytree(workdir, tmp_path / "out")
        document = (tmp_path / "out" / "configured_pipeline.yaml").read_text()
        count = re.search(r'"hasNoRecords": [^,\n]+', document).group()
        path = tmp_path / "pipeline.yaml"
        path.write_text(document.replace(count, '"hasNoRecords": 1e+300', 1))
        result = invoke(write_project(tmp_path), "configure", "--pipeline", str(path))
        assert result.exit_code == 1
        error, status = result.stderr.splitlines()
        assert error.startswith("error: no configured_resource derived for ")
        assert "@func_mp returned a non-finite value" in error
        assert status == "semcloud-status command=configure ok=0 error=ConfigureError"

    @pytest.mark.parametrize("command", ["gen", "pilot", "simulate"])
    def test_workdir_that_names_a_file(self, tmp_path, command):
        workdir = tmp_path / "out"
        workdir.write_text("not a directory\n")
        result = invoke(write_project(tmp_path), command)
        assert result.exit_code == 1
        [line] = status_lines(result)
        assert re.fullmatch("semcloud-status command=%s ok=0 error=(FileExistsError|"
                            "NotADirectoryError)" % command, line), line
        assert "error: " in result.combined and str(workdir) in result.combined
        assert "Traceback" not in result.combined
        assert workdir.read_text() == "not a directory\n"

    @pytest.mark.parametrize("command", [["gen"], ["pilot", "--dry-run"]])
    def test_negative_machine_count(self, tmp_path, command):
        workload = dict(SMALL_PROJECT["workload"], machines=-3)
        result = invoke(write_project(tmp_path, workload=workload), *command)
        self.assert_failure(result, command[0], 2, "ConfigError")
        assert "config error:" in result.combined

    @pytest.mark.parametrize("overrides, command", [
        ({"cluster": {"nodes": 0}}, ["pilot", "--dry-run"]),
        ({"cost": {"thr_prepare": 0}}, ["simulate", "--legacy-only"]),
        ({"workload": {"machines": 2, "production_lines": 3}}, ["gen"]),
        ({"cloud": {"foo": 1}}, ["configure"]),
        ({"search": {"foo": 1}}, ["configure"]),
        ({"search": {"nc_steps": "x"}}, ["configure"]),
        ({"search": {"span": 0}}, ["configure"]),
        # over the grid budget: rejected when the file loads, never run
        ({"search": {"nc_steps": 1e300}}, ["pilot", "--dry-run"]),
        ({"search": {"ns_steps": 4097}}, ["configure"]),
        # over the records budget: rejected when the file loads, never generated
        ({"workload": {"machines": 1e300}}, ["gen"]),
        ({"workload": {"rate": 1e300}}, ["gen"]),
        ({"workload": {"duration": 1e300}}, ["gen"]),
        # over the pilot-run budget or the node bound: rejected when the file
        # loads, before the pilot builds a run, a seed or a node
        ({"pilot": {"estimation_seeds": 1e300}}, ["pilot", "--dry-run"]),
        ({"pilot": {"configuration_seeds": 1e300}}, ["pilot", "--dry-run"]),
        ({"cluster": {"nodes": 1e300}}, ["pilot", "--dry-run"]),
        ({}, ["configure", "--pipeline", os.path.join("no", "such", "pipeline.yaml")]),
        ({"learn": {"methods": ["bogus"]}}, ["learn"]),
        ({"learn": {"time_method": "bogus"}}, ["learn"]),
        ({"simulate": {"durations": 5}}, ["simulate"]),
        ({"pilot": {"estimation_seeds": "x"}}, ["pilot"]),
        ({"workload": dict(SMALL_PROJECT["workload"], record_bytes=-1)}, ["pilot"]),
        ({"workload": dict(SMALL_PROJECT["workload"], duration=-5.0)}, ["gen"]),
        ({"workload": dict(SMALL_PROJECT["workload"], rate=0.0)}, ["gen"]),
        ({"workload": dict(SMALL_PROJECT["workload"], rate=0.0)}, ["pilot"]),
        ({"learn": {"foo": 1}}, ["learn"]),
        ({"simulate": {"foo": 1}}, ["simulate"]),
        ({"pilot": {"foo": 1}}, ["pilot"]),
        ({"cloud": {"node_memory": "x"}}, ["configure"]),
        ({"workload": 5}, ["gen"]),
        ({"cloud": 5}, ["configure"]),
        ({"seed": "x"}, ["gen"]),
        ({"workdir": [1]}, ["gen"]),
        ({"cluster": {"node_memory": -64}}, ["pilot"]),
        ({"cluster": {"node_storage": float("inf")}}, ["simulate", "--legacy-only"]),
        ({"cluster": {"node_memory": "x"}}, ["pilot", "--dry-run"]),
        ({"cluster": {"nodes": 2.5}}, ["pilot", "--dry-run"]),
        ({"cluster": {"nodes": True}}, ["pilot", "--dry-run"]),
        ({"cluster": {"queue_latency": -0.1}}, ["pilot", "--dry-run"]),
        ({"cloud": {"node_memory": 0}}, ["configure"]),
        ({"cloud": {"node_memory": -64}}, ["configure"]),
        ({"cloud": {"node_storage": float("nan")}}, ["configure"]),
        ({"cloud": {"memory_buffer_coefficient": 0.0}}, ["configure"]),
        ({"cluster": {"node_memory": -64}}, ["configure"]),
        ({"cluster": {"node_memory": 10**400}}, ["pilot", "--dry-run"]),
        ({"cost": {"alpha_slice": "x"}}, ["pilot"]),
        ({"cost": {"max_prepare_instances": 2.5}}, ["pilot"]),
        ({"pilot": {"durations": [0.01]}}, ["pilot"]),
        ({"pilot": {"record_bytes": [-625]}}, ["pilot"]),
        ({"workload": {"machines": 6.5}}, ["gen"]),
        ({"workload": {"production_lines": "x"}}, ["gen"]),
        ({"workload": {"machines": True}}, ["gen"]),
        ({"workload": {"seed": 3}}, ["gen"]),
        ({"workload": dict(SMALL_PROJECT["workload"], record_bytes=1250.5)}, ["pilot", "--dry-run"]),
        ({"search": {"span": True}}, ["pilot", "--dry-run"]),
        ({"pilot": {"estimation_seeds": -1}}, ["pilot", "--dry-run"]),
        ({"pilot": {"estimation_seeds": 2.5}}, ["pilot", "--dry-run"]),
        ({"pilot": {"configuration_seeds": 0}}, ["pilot", "--dry-run"]),
        ({"cost": {"noise_amplitude": 0.3}}, ["pilot", "--dry-run"]),
        ({"learn": {"target_nmae": -1}}, ["pilot", "--dry-run"]),
        ({"simulate": {"durations": [True]}}, ["simulate", "--legacy-only"]),
        ({"cloud": {"fast_storage": 5}}, ["configure"]),
        ({"simulate": {"durations": [0.5]}}, ["simulate", "--legacy-only"]),
        ({"simulate": {"durations": [0.5]}}, ["simulate"]),
        ({"pilot": {"noise_amplitude": 0.7}}, ["simulate", "--legacy-only"]),
        ({"pilot": {"noise_amplitude": 0.7}}, ["report"]),
    ])
    def test_config_errors_in_a_stage_print_one_status_line(self, tmp_path, overrides, command):
        result = invoke(write_project(tmp_path, **overrides), *command)
        self.assert_failure(result, command[0], 2, "ConfigError")
        # The message names the setting, or the section for a check across its keys.
        for section, values in overrides.items():
            if isinstance(values, dict) and len(values) == 1:
                section = "%s.%s" % (section, *values)
            assert section in result.combined

    @pytest.mark.parametrize("args, command", [
        (["gen", "--machines", "3"], "gen"),
        (["learn", "--methods", "knn"], "learn"),
        (["gen", "--bogus"], "gen"),
        (["gen", "extra"], "gen"),
        (["configure", "--pipeline"], "configure"),
        (["pilot", "--dry-run=yes"], "pilot"),
        (["bogus"], "semcloud"),
        (["--bogus", "gen"], "semcloud"),
    ], ids=["removed-option", "removed-learn-option", "unknown-option", "extra-argument",
            "missing-value", "value-for-a-flag", "unknown-command", "unknown-group-option"])
    def test_usage_errors_print_one_status_line(self, tmp_path, args, command):
        result = invoke(write_project(tmp_path), *args)
        self.assert_failure(result, command, 2, "UsageError")
        assert "Error: " in result.stderr
        assert not (tmp_path / "out").exists()

    def test_numeric_strings_read_as_numbers(self):
        # YAML 1.1 reads 1e3 (no dot) as a string; every section takes it.
        as_string = ProjectConfig(
            workload={"machines": "12", "duration": "86.4"},
            cluster={"node_memory": "1e3", "nodes": "3"},
            cost={"alpha_slice": "3e0"},
            cloud={"node_memory": "1e3"},
            search={"span": "16"},
            pilot={"durations": ["4.32e1"], "estimation_seeds": "2"},
            learn={"target_nmae": "1e-1"},
            simulate={"durations": ["1e3"]})
        as_number = ProjectConfig(
            workload={"machines": 12, "duration": 86.4},
            cluster={"node_memory": 1000.0, "nodes": 3},
            cost={"alpha_slice": 3.0},
            cloud={"node_memory": 1000.0},
            search={"span": 16},
            pilot={"durations": [43.2], "estimation_seeds": 2},
            learn={"target_nmae": 0.1},
            simulate={"durations": [1000.0]})
        assert as_string.workload_spec() == as_number.workload_spec()
        assert as_string.cloud_attributes() == as_number.cloud_attributes()
        assert as_string.cluster_spec() == as_number.cluster_spec()
        assert as_string.cost_model() == as_number.cost_model()
        assert as_string.pilot_runs() == as_number.pilot_runs()
        assert as_string.learn_plan() == as_number.learn_plan()
        assert as_string.simulate_plan() == as_number.simulate_plan()

    def test_the_grid_budget_bounds_the_product_of_the_step_counts(self):
        assert ProjectConfig(search={"nc_steps": 256, "ns_steps": 256}).search["nc_steps"] == 256
        assert ProjectConfig(search={"nc_steps": config.GRID_BUDGET // 16}).search
        message = "search.nc_steps x search.ns_steps must be at most 65536 grid candidates"
        with pytest.raises(ConfigError, match=message + ", got 257 x 256 = 65792"):
            ProjectConfig(search={"nc_steps": 257, "ns_steps": 256})
        with pytest.raises(ConfigError, match=message + ", got 16 x 4097 = 65552"):
            ProjectConfig(search={"ns_steps": 4097})
        # a step count the project file leaves out counts at SearchSpace's default
        defaults = {f.name: f.default for f in dataclasses.fields(SearchSpace)}
        assert defaults["nc_steps"] == defaults["ns_steps"] == config._GRID_STEPS

    def test_the_record_budget_bounds_the_records_a_workload_generates(self):
        # the paper-scale day: 12 machines at one record a second
        day = ProjectConfig(workload={"machines": 12, "duration": 86400})
        assert day.workload_spec().total_records() == 1036800
        assert ProjectConfig(workload={"machines": 2, "duration": 2**20}).workload
        # int(rate x duration) records per machine
        assert ProjectConfig(workload={"machines": 1, "rate": 0.5,
                                       "duration": 2**22 + 1}).workload
        message = ("workload.machines x int(workload.rate x workload.duration) must be at most "
                   "2097152 records, got ")
        over = message + "2 x int(1.0 x 1048577.0) = 2097154"
        with pytest.raises(ConfigError, match=re.escape(over)):
            ProjectConfig(workload={"machines": 2, "duration": 2**20 + 1})
        # a product past float range, and settings left out at their defaults
        past_range = message + "45 x int(1e+300 x 1e+300) = inf"
        with pytest.raises(ConfigError, match=re.escape(past_range)):
            ProjectConfig(workload={"rate": 1e300, "duration": 1e300})

    def test_the_pilot_run_budget_bounds_the_runs_a_pilot_plans(self):
        # a full grid at the default three configuration seeds
        assert ProjectConfig(search={"nc_steps": 256, "ns_steps": 256}).search
        message = ("len(pilot.durations) x len(pilot.record_bytes) x pilot.estimation_seeds + "
                   "search.nc_steps x search.ns_steps x pilot.configuration_seeds must be at "
                   "most 262144 pilot runs, got ")
        over = message + "4 x 3 x 5 + 256 x 256 x 4 = 262204"
        with pytest.raises(ConfigError, match=re.escape(over)):
            ProjectConfig(search={"nc_steps": 256, "ns_steps": 256},
                          pilot={"configuration_seeds": 4})
        # the settings left out count at their defaults
        huge = message + "2 x 1 x 1e+300 + 16 x 16 x 3 = 2e+300"
        with pytest.raises(ConfigError, match=re.escape(huge)):
            ProjectConfig(pilot={"durations": [43.2, 86.4], "record_bytes": [625],
                                 "estimation_seeds": 1e300})

    def test_a_bad_value_fails_when_the_config_is_built(self):
        with pytest.raises(ConfigError, match="pilot.estimation_seeds"):
            ProjectConfig(pilot={"estimation_seeds": -1})

    @pytest.mark.parametrize("members, reason", [
        ('"tasks": [5]', "tasks: expected a mapping with an id, got 5"),
        ('"tasks": [{"type": "Retrieve"}]',
         "tasks: expected a mapping with an id, got {'type': 'Retrieve'}"),
        ('"edges": 5', "edges: expected a list, got 5"),
        ('"tasks": [{"id": "t1", "type": "Retrieve", "hasRequirementSet": 5}]',
         "task t1: unknown property 'hasRequirementSet'"),
        ('"layer": []', "document: unknown key 'layer'"),
        ('"edges": [["p1_t1", "hasIO", "p1_io9"]]', "unknown relation 'hasIO'"),
        ('"tasks": [{"id": "t1", "type": "Retrieve"}, {"id": "t1", "type": "Store"}]',
         "tasks: id 't1' is used twice"),
    ], ids=["task-not-a-mapping", "task-without-id", "edges-not-a-list",
            "requirements-triple-not-a-mapping", "misspelt-section", "io-edge",
            "repeated-task-id"])
    def test_malformed_pipeline_document_is_a_domain_error(self, tmp_path, members, reason):
        path = tmp_path / "pipeline.json"
        path.write_text('{"format": "semcloud-pipeline/1", "ETLPipeline": {"id": "p1"}, %s}\n'
                        % members)
        result = invoke(write_project(tmp_path), "configure", "--pipeline", str(path))
        self.assert_failure(result, "configure", 1, "SchemaError")
        assert result.stderr.splitlines()[0] == "error: " + reason

    def test_block_yaml_pipeline_document_is_not_json(self, tmp_path):
        # a document as earlier releases wrote it: block YAML, not JSON
        path = tmp_path / "old.yaml"
        path.write_text("format: semcloud-pipeline/1\nETLPipeline:\n  id: p1\n"
                        "  frequency: frequent\nlayers:\n- id: p1_l1\n  type: RetrieveLayer\n")
        result = invoke(write_project(tmp_path), "configure", "--pipeline", str(path))
        self.assert_failure(result, "configure", 1, "SchemaError")
        error, _ = result.stderr.splitlines()
        assert error.startswith("error: unreadable document: not JSON: ")

    def test_unreadable_config_prints_one_status_line(self, tmp_path):
        result = invoke(str(tmp_path / "nope.yaml"), "report")
        self.assert_failure(result, "report", 2, "ConfigError")

    @pytest.mark.parametrize("content", [b"seed: [\n", b"\xff\xfe seed: 0\n"])
    def test_malformed_config_prints_one_status_line(self, tmp_path, content):
        path = tmp_path / "project.yaml"
        path.write_bytes(content)
        result = invoke(str(path), "gen")
        self.assert_failure(result, "gen", 2, "ConfigError")

    def test_deeply_nested_config_prints_one_status_line(self, tmp_path):
        # PyYAML's pure-Python composer recurses once per level
        path = tmp_path / "project.yaml"
        path.write_text("seed: %s%s\n" % ("[" * 5000, "]" * 5000))
        result = invoke(str(path), "gen")
        self.assert_failure(result, "gen", 2, "ConfigError")
        assert "nested too deeply" in result.combined


class TestProjectFileDocs:
    """The README's project-file docs stay in step with config._rules()."""

    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()

    def section(self, heading):
        return self.readme.split("\n## %s\n" % heading, 1)[1].split("\n## ", 1)[0]

    def test_quick_start_project_loads(self, tmp_path):
        path = tmp_path / "project.yaml"
        path.write_text(self.section("Quick start").split("```yaml\n", 1)[1].split("```", 1)[0])
        cfg = load_config(str(path))
        assert cfg.pilot_runs().estimation_count > 0
        assert cfg.cloud_attributes().node_memory == cfg.cluster_spec().nodes[0].node_memory
        assert cfg.learn_plan() and cfg.simulate_plan()

    def test_table_names_every_setting(self):
        documented = {}
        for line in self.section("Project file").splitlines():
            cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
            name = re.fullmatch(r"`(\w+)`", cells[0]) if line.startswith("|") else None
            if name:
                # "`a`, `b`: rule; `c`: rule": the keys are the names before each colon.
                documented[name.group(1)] = {
                    key for clause in cells[1].split(";")
                    for key in re.findall(r"`(\w+)`", clause.split(":")[0])}
        assert documented == {section: set(rules) for section, rules in config._rules().items()}
