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
from test_cli import write_project

LAYERS = ("configure", "datalog", "etl", "kg", "learning", "optimizer", "sim")
STAGES = ("gen", "pilot", "learn", "configure", "simulate", "report")

# The layers each stage loads, when the chain runs in order.  A change here
# is a change in every stage's cold-start cost: say why in the same change.
STAGE_LAYERS = {
    "gen": {"etl", "learning", "sim"},
    # PilotRunRecord.violations reads kg.model.STORAGE_MODES, and kg.model
    # reads the rule constants of datalog.corpus.
    "pilot": {"datalog", "etl", "kg", "learning", "optimizer", "sim"},
    "learn": {"datalog", "learning", "sim"},
    "configure": set(LAYERS),
    "simulate": set(LAYERS),
    "report": set(LAYERS),
}

# Runs the CLI with the rest of argv, then prints the loaded layers, and
# whether numpy is among the modules, as the last line of stdout.
_PROBE = """
import json, sys
try:
    from semcloud.cli import main
    main()
finally:
    names = {m.split(".")[1] for m in sys.modules if m.startswith("semcloud.")}
    print(json.dumps(sorted(names | ({"numpy"} & set(sys.modules)))))
"""


def loaded(cwd, *args):
    """(exit code, names loaded) of ``semcloud ARGS`` in a fresh interpreter."""
    src = str(pathlib.Path(semcloud.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", _PROBE, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert "Traceback" not in proc.stderr, proc.stderr[-2000:]
    return proc.returncode, set(json.loads(proc.stdout.splitlines()[-1]))


@pytest.mark.parametrize("command", [[]] + [[stage] for stage in STAGES],
                         ids=("semcloud",) + STAGES)
def test_help_loads_no_layer_and_no_numpy(tmp_path, command):
    code, names = loaded(tmp_path, *command, "--help")
    assert code == 0
    assert names == {"cli", "config"}


@pytest.fixture(scope="module")
def stage_layers(tmp_path_factory):
    """{stage: layers it loaded} for the chain run stage by stage, cold."""
    root = tmp_path_factory.mktemp("cold")
    config_path = write_project(root)
    layers = {}
    for stage in STAGES:
        code, names = loaded(root, "-c", config_path, stage)
        assert code == 0, stage
        assert "numpy" in names, stage
        layers[stage] = names & set(LAYERS)
    return layers


def test_gen_loads_no_rule_layer(stage_layers):
    assert not stage_layers["gen"] & {"datalog", "kg", "optimizer", "configure"}


def test_learn_loads_no_data_or_graph_layer(stage_layers):
    assert not stage_layers["learn"] & {"etl", "kg", "optimizer", "configure"}


def test_the_layers_each_stage_loads(stage_layers):
    assert stage_layers == STAGE_LAYERS
