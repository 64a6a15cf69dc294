"""Cold start: each CLI stage imports only the layers it runs.

CliRunner runs every command in this interpreter, which has imported
everything already, so these tests start a fresh interpreter per command
and read its ``sys.modules`` when the command exits.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import semcloud
from test_cli import invoke, write_project

LAYERS = ("configure", "datalog", "etl", "kg", "learning", "optimizer", "sim")
STAGES = ("gen", "pilot", "learn", "configure", "simulate", "report")

# The layers each stage loads, when the chain runs in order.  A change here
# is a change in every stage's cold-start cost: say why in the same change.
# The project check reads CostModel's fields and the noise bound from
# semcloud.specs, and the learning methods from semcloud.pilots; neither
# imports a layer, so no stage loads sim for the check, and the workload
# spec (also in semcloud.specs) loads no etl.  sim and etl draw numpy's
# stream from the standard library (semcloud.rng), so only learning and
# configure load numpy.
STAGE_LAYERS = {
    "gen": {"etl"},
    # the grid and the workloads
    "pilot": {"optimizer", "sim"},
    # learning imports datalog only when it builds a registry, which learn does not
    "learn": {"learning"},
    # everything but the workload sources
    "configure": set(LAYERS) - {"etl"},
    # the configured document (kg, whose facts are a datalog FactSet) and
    # the workloads
    "simulate": {"datalog", "kg", "sim"},
    "report": set(LAYERS) - {"etl"},
}
NUMPY_STAGES = {"learn", "configure", "report"}

# Runs the CLI with the rest of argv, then prints the loaded layers, and
# whether numpy is among the modules, as the last line of stdout, and the
# OPENBLAS_NUM_THREADS the command ran under as the line before it.
_PROBE = """
import json, os, sys
try:
    from semcloud.cli import main
    main()
finally:
    print(json.dumps(os.environ.get("OPENBLAS_NUM_THREADS")))
    names = {m.split(".")[1] for m in sys.modules if m.startswith("semcloud.")}
    print(json.dumps(sorted(names | ({"numpy"} & set(sys.modules)))))
"""


def loaded(cwd, *args, blas_threads=None):
    """(exit code, names loaded, OPENBLAS_NUM_THREADS seen) of ``semcloud
    ARGS`` in a fresh interpreter started with the variable set to
    ``blas_threads``, or unset when it is None."""
    src = str(pathlib.Path(semcloud.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    proc = subprocess.run([sys.executable, "-c", _PROBE, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert "Traceback" not in proc.stderr, proc.stderr[-2000:]
    *_, threads, names = proc.stdout.splitlines()
    return proc.returncode, set(json.loads(names)), json.loads(threads)


@pytest.mark.parametrize("command", [[]] + [[stage] for stage in STAGES],
                         ids=("semcloud",) + STAGES)
def test_help_loads_no_layer_and_no_numpy(tmp_path, command):
    code, names, _ = loaded(tmp_path, *command, "--help")
    assert code == 0
    assert names == {"cli", "config"}


@pytest.fixture(scope="module")
def stage_layers(tmp_path_factory):
    """{stage: layers it loaded} for the chain run stage by stage, cold."""
    root = tmp_path_factory.mktemp("cold")
    config_path = write_project(root)
    layers = {}
    for stage in STAGES:
        code, names, _ = loaded(root, "-c", config_path, stage)
        assert code == 0, stage
        assert ("numpy" in names) == (stage in NUMPY_STAGES), stage
        layers[stage] = names & set(LAYERS)
    return layers


@pytest.mark.parametrize("given, seen", [(None, "1"), ("2", "2")], ids=["unset", "2"])
def test_stages_run_blas_on_one_thread_unless_told(tmp_path, given, seen):
    # learn is the first stage that loads numpy, so it needs pilot records
    config_path = write_project(tmp_path)
    assert invoke(config_path, "pilot").exit_code == 0
    code, names, threads = loaded(tmp_path, "-c", config_path, "learn", blas_threads=given)
    assert code == 0
    assert "numpy" in names
    assert threads == seen


def test_gen_loads_no_rule_layer(stage_layers):
    assert not stage_layers["gen"] & {"datalog", "kg", "optimizer", "configure"}


def test_learn_loads_no_data_or_graph_layer(stage_layers):
    assert not stage_layers["learn"] & {"etl", "kg", "optimizer", "configure"}


def test_the_layers_each_stage_loads(stage_layers):
    assert stage_layers == STAGE_LAYERS
