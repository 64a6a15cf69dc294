"""Command-line interface: the full loop on a small project config."""

import json
import os
import pathlib
import re
import shutil

import pytest
import yaml
from click.testing import CliRunner

from semcloud import config
from semcloud.cli import main
from semcloud.config import ConfigError, ProjectConfig, load_config

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
def completed_chain(tmp_path_factory):
    """gen -> pilot -> learn -> configure -> simulate -> report, once."""
    root = tmp_path_factory.mktemp("proj")
    config_path = write_project(root)
    results = {}
    for command in ("gen", "pilot", "learn", "configure", "simulate", "report"):
        results[command] = invoke(config_path, command)
    workdir = os.path.join(str(root), "out")
    return config_path, workdir, results


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


class TestIndividualCommands:
    def test_missing_config_is_usage_error(self, tmp_path):
        result = invoke(str(tmp_path / "nope.yaml"), "gen")
        assert result.exit_code == 2

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
        assert result.exit_code == 0
        assert "nothing to report" in result.combined

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

    def test_gen_machines_override(self, tmp_path):
        config_path = write_project(tmp_path)
        result = invoke(config_path, "gen", "--machines", "3")
        assert result.exit_code == 0
        csv_path = os.path.join(str(tmp_path), "out", "workload", "source_csv.csv")
        text = pathlib.Path(csv_path).read_text()
        assert "m03" in text and "m04" not in text


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


def status_lines(result):
    return [line for line in result.stderr.splitlines()
            if line.startswith("semcloud-status ")]


class TestContract:
    """Bad input exits 1 (domain) or 2 (usage) with one status line, no traceback."""

    def assert_failure(self, result, command, code, error):
        assert result.exit_code == code
        assert status_lines(result) == [
            "semcloud-status command=%s ok=0 error=%s" % (command, error)]
        assert "Traceback" not in result.combined

    def test_learn_without_pilot_stats(self, tmp_path):
        result = invoke(write_project(tmp_path), "learn")
        self.assert_failure(result, "learn", 1, "LearningError")
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
        assert earlier.read_text() == "stale\n"

    @pytest.mark.parametrize("command", ["learn", "configure", "report"])
    def test_pilot_stats_that_are_not_utf8(self, tmp_path, completed_chain, command):
        _, workdir, _ = completed_chain
        shutil.copytree(workdir, tmp_path / "out")
        (tmp_path / "out" / "pilot.csv").write_bytes(b"\xff\xfe pipeline,no_records\n")
        result = invoke(write_project(tmp_path), command)
        self.assert_failure(result, command, 1, "LearningError")
        assert "cannot read pilot stats" in result.combined

    def test_pipeline_document_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "pipeline.yaml"
        path.write_bytes(b"\xff\xfe format: semcloud-pipeline/1\n")
        result = invoke(write_project(tmp_path), "configure", "--pipeline", str(path))
        self.assert_failure(result, "configure", 2, "ConfigError")
        assert "cannot read pipeline document" in result.combined

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

    def test_learn_methods_option_passes_the_learn_methods_rule(self, tmp_path):
        result = invoke(write_project(tmp_path), "learn", "--methods", "knn",
                        "--methods", "bogus")
        self.assert_failure(result, "learn", 2, "ConfigError")
        assert "--methods must be a non-empty list, each one of" in result.combined

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
        ({"workload": {"production_lines": "x"}}, ["gen", "--machines", "3"]),
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

    def test_a_bad_value_fails_when_the_config_is_built(self):
        with pytest.raises(ConfigError, match="pilot.estimation_seeds"):
            ProjectConfig(pilot={"estimation_seeds": -1})

    @pytest.mark.parametrize("document", [
        "tasks: [5]\n",
        "tasks: [{type: Retrieve}]\n",
        "edges: 5\n",
        "triples: [[p1, a, ETLPipeline], [t1, a, Retrieve], [t1, hasRequirementSet, 5]]\n",
    ], ids=["task-not-a-mapping", "task-without-id", "edges-not-a-list",
            "requirements-triple-not-a-mapping"])
    def test_malformed_pipeline_document_is_a_domain_error(self, tmp_path, document):
        if "triples" not in document:
            document = "ETLPipeline: {id: p1}\n" + document
        path = tmp_path / "pipeline.yaml"
        path.write_text("format: semcloud-pipeline/1\n" + document)
        result = invoke(write_project(tmp_path), "configure", "--pipeline", str(path))
        self.assert_failure(result, "configure", 1, "SchemaError")

    def test_unreadable_config_prints_one_status_line(self, tmp_path):
        result = invoke(str(tmp_path / "nope.yaml"), "report")
        self.assert_failure(result, "report", 2, "ConfigError")

    @pytest.mark.parametrize("content", [b"seed: [\n", b"\xff\xfe seed: 0\n"])
    def test_malformed_config_prints_one_status_line(self, tmp_path, content):
        path = tmp_path / "project.yaml"
        path.write_bytes(content)
        result = invoke(str(path), "gen")
        self.assert_failure(result, "gen", 2, "ConfigError")


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
