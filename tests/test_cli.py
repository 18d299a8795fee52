import json

import numpy as np
import pytest
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


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("sensors", [{"kind": "toa", "position": [0.0, 0.0], "clutter_rate": "abc"}, {"kind": "doa", "position": [5000.0, 10000.0]}],
         "sensors[0].clutter_rate: 'abc' is not a finite number >= 0"),
        ("trajectories", [{"birth": "a", "death": 12, "state": [2000.0, 30.0, 2000.0, 25.0]}],
         "trajectories[0].birth: 'a' is not an integer >= 0"),
    ],
)
def test_validate_rejects_bad_field(tmp_path, capsys, field, value, message):
    assert main(["validate", "--scenario", write_scenario(tmp_path, **{field: value})]) == EXIT_VALIDATION
    assert f"scenario error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "scenario, options, message",
    [
        ({"trials": 0}, [], "trials: 0 is not an integer >= 1"),
        ({"consensus_steps": -2}, [], "consensus_steps: -2 is not an integer >= 0"),
        ({"steps": "abc"}, [], "steps: 'abc' is not an integer >= 1"),
        ({}, ["--trials", "0"], "trials: 0 is not an integer >= 1"),
        ({}, ["--seed", "-1"], "seed: -1 is not an integer >= 0"),
        ({}, ["--consensus-steps", "-1"], "consensus_steps: -1 is not an integer >= 0"),
    ],
)
def test_run_rejects_bad_run_setting(tmp_path, capsys, scenario, options, message):
    argv = ["run", "--scenario", write_scenario(tmp_path, **scenario), "--algorithm", "consensus-lmb", *options]
    assert main(argv) == EXIT_VALIDATION
    assert f"scenario error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_run_rejects_workers_below_one(tmp_path, capsys, workers):
    argv = ["run", "--scenario", write_scenario(tmp_path), "--algorithm", "consensus-lmb", "--workers", workers]
    with pytest.raises(SystemExit) as stopped:
        main(argv)
    assert stopped.value.code == EXIT_VALIDATION
    assert f"{workers} is not an integer >= 1" in capsys.readouterr().err


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


def test_run_keeps_output_inside_out(tmp_path, capsys):
    # the output files are named after the scenario, so a name with a path
    # separator would put them outside --out
    path = write_scenario(tmp_path, name="../escaped")
    argv = ["run", "--scenario", path, "--algorithm", "centralized-mdglmb", "--trials", "1", "--out", str(tmp_path / "out")]
    assert main(argv) == EXIT_VALIDATION
    assert "scenario error: name: '../escaped' is not a file name" in capsys.readouterr().err
    assert [p.name for p in tmp_path.rglob("*")] == ["tiny.yaml"]


def test_runtime_failure(tmp_path, capsys):
    cases = [
        # the object starts, and stays, at the bearing sensor's position,
        # where a bearing is undefined
        ({"trajectories": [{"birth": 1, "death": 12, "state": [5000.0, 0.0, 10000.0, 0.0]}]},
         "step 1, algorithm centralized-mdglmb: DegenerateGeometryError"),
        # a birth covariance that loads but overflows the unscented transform
        ({"birth": {**tiny_doc()["birth"], "cov_diag": [8e307] * 4},
          "trajectories": [{"birth": 0, "death": 12, "state": [2000.0, 30.0, 2000.0, 25.0]}]},
         "step 0, algorithm centralized-mdglmb: LinAlgError: toa sensor at (0.0, 0.0)"),
    ]
    # in both the run fails after the scenario validated
    for fields, message in cases:
        path = write_scenario(tmp_path, **fields)
        assert main(["validate", "--scenario", path]) == 0
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["run", "--scenario", path, "--algorithm", "centralized-mdglmb", "--trials", "1"]) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert "runtime error" in err
        assert message in err
