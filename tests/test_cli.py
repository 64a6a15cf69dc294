"""Command-line interface: the full loop on a small project config."""

import os

import pytest
import yaml
from click.testing import CliRunner

from semcloud.cli import main

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

    def test_configured_facts_hold_one_configuration(self, completed_chain):
        _, workdir, _ = completed_chain
        text = open(os.path.join(workdir, "configured_facts.dl")).read()
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
        text = open(csv_path).read()
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
