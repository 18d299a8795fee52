import json

import yaml

from distmot.cli import EXIT_RUNTIME, EXIT_VALIDATION, main
from test_harness import tiny_doc


def write_scenario(tmp_path, **kw):
    path = tmp_path / "tiny.yaml"
    path.write_text(yaml.safe_dump(tiny_doc(**kw)))
    return str(path)


def test_validate_valid_scenario(tmp_path, capsys):
    assert main(["validate", "--scenario", write_scenario(tmp_path)]) == 0
    assert "valid" in capsys.readouterr().out


def test_validate_invalid_scenario(tmp_path, capsys):
    path = write_scenario(tmp_path, sensors=[{"kind": "sonar", "position": [0.0, 0.0]}])
    assert main(["validate", "--scenario", path]) == EXIT_VALIDATION
    assert "scenario error" in capsys.readouterr().err


def test_validate_null_section(tmp_path, capsys):
    # `filter:` with nothing under it loads as null
    assert main(["validate", "--scenario", write_scenario(tmp_path, filter=None)]) == EXIT_VALIDATION
    assert "filter: expected a mapping, got None" in capsys.readouterr().err


def test_validate_malformed_edge(tmp_path, capsys):
    # an edge that is not a pair is a validation error, not a runtime failure
    assert main(["validate", "--scenario", write_scenario(tmp_path, graph={"edges": [5]})]) == EXIT_VALIDATION
    assert "graph.edges[0]: 5 is not a pair" in capsys.readouterr().err


def test_run_writes_node_network_and_summary(tmp_path):
    out = tmp_path / "out"
    argv = ["run", "--scenario", write_scenario(tmp_path), "--algorithm", "consensus-lmb", "--trials", "1", "--out", str(out)]
    assert main(argv) == 0
    names = {p.name for p in out.iterdir()}
    assert names == {
        "tiny_consensus-lmb_node0.csv",
        "tiny_consensus-lmb_node1.csv",
        "tiny_consensus-lmb_network.csv",
        "tiny_consensus-lmb_summary.json",
    }
    summary = json.loads((out / "tiny_consensus-lmb_summary.json").read_text())
    assert summary["trials"] == 1 and summary["bytes_reference"] > 0


def test_runtime_failure(tmp_path, capsys):
    # the object starts, and stays, at the bearing sensor's position, where
    # a bearing is undefined: the run fails after the scenario validated
    trajectories = [{"birth": 1, "death": 12, "state": [5000.0, 0.0, 10000.0, 0.0]}]
    path = write_scenario(tmp_path, trajectories=trajectories)
    assert main(["validate", "--scenario", path]) == 0
    assert main(["run", "--scenario", path, "--algorithm", "centralized-mdglmb", "--trials", "1"]) == EXIT_RUNTIME
    assert "runtime error" in capsys.readouterr().err
