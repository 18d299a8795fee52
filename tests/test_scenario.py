import copy
import dataclasses
import re

import numpy as np
import pytest
import yaml

from distmot.harness import run_trial
from distmot.scenario import (
    ScenarioError,
    generate_truth,
    load_scenario,
    scenario_from_dict,
    with_overrides,
)

MINIMAL = {
    "schema": 1,
    "name": "mini",
    "area": {"xmin": 0.0, "xmax": 10000.0, "ymin": 0.0, "ymax": 10000.0},
    "sampling_interval": 5.0,
    "steps": 20,
    "birth": {"existence": 0.09, "cov_diag": [1e6, 1e4, 1e6, 1e4], "locations": [[2000.0, 0.0, 2000.0, 0.0]]},
    "sensors": [{"kind": "toa", "position": [0.0, 0.0], "clutter_rate": 5.0, "detection_prob": 0.99}],
    "graph": {"edges": []},
    "trajectories": [],
}


def test_bundled_paper_scenario_contents():
    s = load_scenario("paper_highsnr")
    kinds = [x.kind for x in s.sensors]
    assert kinds.count("toa") == 4 and kinds.count("doa") == 3
    assert len(s.birth.entries) == 10
    assert len(s.trajectories) == 5
    assert s.steps == 200 and s.sampling_interval == 5.0
    assert all(e.existence == pytest.approx(0.09) for e in s.birth.entries)
    assert s.graph[0] == (0, 1, 3, 6) and s.graph[1] == (0, 1, 2, 5)


def test_bundled_regimes():
    high = load_scenario("paper_highsnr")
    low = load_scenario("paper_lowsnr")
    lowpd = load_scenario("paper_lowpd")
    assert all(x.clutter_rate == 5.0 and x.detection_prob == 0.99 for x in high.sensors)
    assert all(x.clutter_rate == 15.0 for x in low.sensors)
    assert all(x.detection_prob == 0.7 for x in lowpd.sensors)


def test_empty_trajectories_valid():
    s = scenario_from_dict(copy.deepcopy(MINIMAL), "test")
    assert s.trajectories == ()
    truth = generate_truth(s)
    assert all(t == [] for t in truth)


def test_death_before_birth_rejected():
    doc = copy.deepcopy(MINIMAL)
    doc["trajectories"] = [{"birth": 10, "death": 5, "state": [2000.0, 10.0, 2000.0, 0.0]}]
    with pytest.raises(ScenarioError, match="death"):
        scenario_from_dict(doc, "test")


def test_leaving_area_rejected():
    doc = copy.deepcopy(MINIMAL)
    doc["trajectories"] = [{"birth": 0, "death": 20, "state": [2000.0, 500.0, 2000.0, 0.0]}]
    with pytest.raises(ScenarioError, match="leaves the area"):
        scenario_from_dict(doc, "test")


def test_unknown_sensor_kind_rejected():
    doc = copy.deepcopy(MINIMAL)
    doc["sensors"][0]["kind"] = "radar"
    with pytest.raises(ScenarioError, match="radar"):
        scenario_from_dict(doc, "test")


def test_disconnected_graph_rejected():
    doc = copy.deepcopy(MINIMAL)
    doc["sensors"] = doc["sensors"] * 2
    doc["graph"] = {"edges": []}
    with pytest.raises(ScenarioError, match="connected"):
        scenario_from_dict(doc, "test")


@pytest.mark.parametrize("edge", [5, None, [0], [0, 1, 1], [0, 1.0], [0, True], [0, 2], [-1, 0], [1, 1], "01"])
def test_malformed_edge_rejected(edge):
    doc = copy.deepcopy(MINIMAL)
    doc["sensors"] = doc["sensors"] * 2
    doc["graph"] = {"edges": [[0, 1], edge]}
    with pytest.raises(ScenarioError, match=rf"^graph\.edges\[1\]: {re.escape(repr(edge))} is not a pair of distinct"):
        scenario_from_dict(doc, "test")


@pytest.mark.parametrize(
    "field, value, want",
    [
        ("steps", 0, "an integer >= 1"),
        ("steps", "abc", "an integer >= 1"),
        ("steps", 20.0, "an integer >= 1"),
        ("trials", 0, "an integer >= 1"),
        ("trials", 2.7, "an integer >= 1"),
        ("trials", True, "an integer >= 1"),
        ("consensus_steps", -2, "an integer >= 0"),
        ("consensus_steps", None, "an integer >= 0"),
        ("seed", "s", "an integer >= 0"),
        ("seed", -1, "an integer >= 0"),
        ("sampling_interval", 0.0, "a finite number > 0"),
        ("sampling_interval", "5", "a finite number > 0"),
        ("process_noise_std", -1.0, "a finite number >= 0"),
        ("process_noise_std", float("nan"), "a finite number >= 0"),
        # finite, but the motion model's noise covariance overflows: the
        # message names both fields
        ("sampling_interval", 1e100, "sampling_interval 1e+100 and process_noise_std 5.0 give a non-finite process noise covariance"),
        ("process_noise_std", 1e200, "sampling_interval 5.0 and process_noise_std 1e+200 give a non-finite process noise covariance"),
    ],
)
def test_run_setting_checked_at_load(field, value, want):
    doc = copy.deepcopy(MINIMAL)
    doc[field] = value
    message = want if want.endswith("process noise covariance") else f"{field}: {value!r} is not {want}"
    with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
        scenario_from_dict(doc, "test")


@pytest.mark.parametrize("key", ["xmin", "xmax", "ymin", "ymax"])
def test_area_key_checked_at_load(key):
    doc = copy.deepcopy(MINIMAL)
    del doc["area"][key]
    with pytest.raises(ScenarioError, match=rf"^missing field area\.{key}$"):
        scenario_from_dict(doc, "test")
    doc["area"][key] = "0"
    with pytest.raises(ScenarioError, match=rf"^area\.{key}: '0' is not a finite number$"):
        scenario_from_dict(doc, "test")


@pytest.mark.parametrize(
    "field, value, want",
    [
        ("trials", 0, "an integer >= 1"),
        ("trials", True, "an integer >= 1"),
        ("consensus_steps", -2, "an integer >= 0"),
        ("seed", -1, "an integer >= 0"),
        ("seed", 1.5, "an integer >= 0"),
    ],
)
def test_override_checked_as_at_load(field, value, want):
    s = scenario_from_dict(copy.deepcopy(MINIMAL), "test")
    with pytest.raises(ScenarioError, match=rf"^{field}: {re.escape(repr(value))} is not {want}$"):
        with_overrides(s, **{field: value})
    assert getattr(with_overrides(s, **{field: 3}), field) == 3


@pytest.mark.parametrize("name", ["../escaped", "a/b", "a\\b", "", ".", "..", 5, None, True])
def test_name_is_a_file_name(name):
    # the output files are named after the scenario
    doc = copy.deepcopy(MINIMAL)
    doc["name"] = name
    with pytest.raises(ScenarioError, match=rf"^name: {re.escape(repr(name))} is not a file name"):
        scenario_from_dict(doc, "test")
    # a name given by the caller, where the document has none, too
    del doc["name"]
    if isinstance(name, str):
        with pytest.raises(ScenarioError, match=rf"^name: {re.escape(repr(name))} is not a file name"):
            scenario_from_dict(doc, name)
    assert scenario_from_dict(doc, "mini.v2").name == "mini.v2"


def test_bad_schema_rejected():
    doc = copy.deepcopy(MINIMAL)
    doc["schema"] = 2
    with pytest.raises(ScenarioError, match="schema"):
        scenario_from_dict(doc, "test")


def test_missing_scenario_name():
    with pytest.raises(ScenarioError, match="no scenario"):
        load_scenario("nonexistent_thing")


def test_constant_velocity_truth():
    doc = copy.deepcopy(MINIMAL)
    doc["trajectories"] = [{"birth": 0, "death": 20, "state": [1000.0, 10.0, 2000.0, -5.0]}]
    s = scenario_from_dict(doc, "test")
    truth = generate_truth(s)
    for k in range(20):
        (lab, state), = truth[k]
        assert state[0] == pytest.approx(1000.0 + 10.0 * 5.0 * k)
        assert state[2] == pytest.approx(2000.0 - 5.0 * 5.0 * k)
        assert lab == (0, 1)


def test_death_removes_object():
    doc = copy.deepcopy(MINIMAL)
    doc["steps"] = 200
    doc["trajectories"] = [{"birth": 0, "death": 100, "state": [5000.0, 1.0, 5000.0, 0.0]}]
    s = scenario_from_dict(doc, "test")
    truth = generate_truth(s)
    assert all(len(truth[k]) == 1 for k in range(100))
    assert all(len(truth[k]) == 0 for k in range(100, 200))


def test_velocity_changes_apply():
    doc = copy.deepcopy(MINIMAL)
    doc["trajectories"] = [{
        "birth": 0, "death": 20, "state": [1000.0, 10.0, 5000.0, 0.0],
        "velocity_changes": [[10, -10.0, 0.0]],
    }]
    s = scenario_from_dict(doc, "test")
    truth = generate_truth(s)
    x10 = truth[10][0][1][0]
    assert x10 == pytest.approx(1000.0 + 10 * 50.0)
    assert truth[19][0][1][0] == pytest.approx(x10 - 9 * 50.0)


def test_paper_scenario_rendezvous():
    s = load_scenario("paper_highsnr")
    truth = generate_truth(s)
    closest = min(
        (min(np.hypot(a[0] - b[0], a[2] - b[2])
             for i, (_, a) in enumerate(per_step) for (_, b) in per_step[i + 1:]) if len(per_step) > 1 else np.inf)
        for per_step in truth
    )
    assert closest < 200.0


def test_labels_distinct_within_birth_step():
    doc = copy.deepcopy(MINIMAL)
    doc["trajectories"] = [
        {"birth": 3, "death": 20, "state": [2000.0, 10.0, 2000.0, 0.0]},
        {"birth": 3, "death": 20, "state": [8000.0, -10.0, 8000.0, 0.0]},
    ]
    s = scenario_from_dict(doc, "test")
    truth = generate_truth(s)
    labs = [lab for lab, _ in truth[3]]
    assert labs == [(3, 1), (3, 2)]


def test_with_overrides():
    s = load_scenario("desk_small")
    s2 = with_overrides(s, consensus_steps=3, trials=2, seed=99)
    assert s2.consensus_steps == 3 and s2.trials == 2 and s2.seed == 99
    assert s2.sensors is s.sensors
    # original untouched
    assert (s.consensus_steps, s.trials) == (1, 20)


@pytest.mark.parametrize("pd", [1.5, -0.2, float("nan")])
def test_detection_prob_outside_unit_interval_rejected(pd):
    doc = copy.deepcopy(MINIMAL)
    doc["sensors"][0]["detection_prob"] = pd
    with pytest.raises(ScenarioError, match=r"^sensors\[0\]\.detection_prob: .* is not a number in \[0, 1\]$"):
        scenario_from_dict(doc, "test")
    # the regime-wide value is checked the same way, under its own name
    del doc["sensors"][0]["detection_prob"]
    doc["detection_prob"] = pd
    with pytest.raises(ScenarioError, match=r"^detection_prob: .* is not a number in \[0, 1\]$"):
        scenario_from_dict(doc, "test")


@pytest.mark.parametrize("ps", [1.7, -0.1, "0.9"])
def test_survival_prob_outside_unit_interval_rejected(ps):
    doc = copy.deepcopy(MINIMAL)
    doc["survival_prob"] = ps
    with pytest.raises(ScenarioError, match=r"survival_prob: .* is not a number in \[0, 1\]"):
        scenario_from_dict(doc, "test")


@pytest.mark.parametrize("field, value", [
    ("gm_merge_thresh", -1.0),
    ("gm_merge_thresh", float("nan")),
    ("gm_merge_thresh", "4.0"),
    ("gm_trunc_thresh", 1.5),
    ("hyp_prune_thresh", -1e-3),
    ("lmb_prune_thresh", float("nan")),
    ("max_hypotheses", 0),
    ("assignments_per_hypothesis", 2.5),
    ("gm_max_components", True),
])
def test_filter_value_out_of_range_rejected(field, value):
    doc = copy.deepcopy(MINIMAL)
    doc["filter"] = {field: value}
    with pytest.raises(ScenarioError, match=rf"filter\.{field}: {re.escape(repr(value))} is not"):
        scenario_from_dict(doc, "test")


NULLABLE_SECTIONS = [
    "filter", "area",
    "birth", "birth.locations", "birth.cov_diag",
    "graph", "graph.edges",
    "sensors", "sensors[0]", "sensors[0].position",
    "trajectories", "trajectories[0]", "trajectories[0].state", "trajectories[0].velocity_changes",
]


@pytest.mark.parametrize("path", NULLABLE_SECTIONS)
def test_null_section_rejected(path):
    # a section present but empty in YAML reads as null
    doc = copy.deepcopy(MINIMAL)
    doc["filter"] = {"max_hypotheses": 10}
    doc["trajectories"] = [
        {"birth": 1, "death": 5, "state": [2000.0, 10.0, 2000.0, 0.0], "velocity_changes": [[3, 0.0, 10.0]]}
    ]
    scenario_from_dict(copy.deepcopy(doc), "test")
    *parents, last = re.findall(r"\w+", path)
    node = doc
    for key in parents:
        node = node[int(key)] if key.isdigit() else node[key]
    node[int(last) if last.isdigit() else last] = None
    with pytest.raises(ScenarioError, match=rf"^{re.escape(path)}: expected a (mapping|list), got None$"):
        scenario_from_dict(doc, "test")


def test_repeated_birth_location_rejected():
    doc = copy.deepcopy(MINIMAL)
    loc = doc["birth"]["locations"][0]
    doc["birth"]["locations"] = [loc, [8000.0, 0.0, 8000.0, 0.0], list(loc)]
    with pytest.raises(ScenarioError, match=r"^birth\.locations\[2\]: repeats birth\.locations\[0\]$"):
        scenario_from_dict(doc, "test")


def test_birth_cov_not_positive_definite_rejected():
    # every entry is > 0, but their spread is beyond the PD tolerance
    doc = copy.deepcopy(MINIMAL)
    doc["birth"]["cov_diag"] = [1e-20, 1.0, 1.0, 1.0]
    with pytest.raises(ScenarioError, match=r"^birth\.cov_diag: covariance is not positive-definite"):
        scenario_from_dict(doc, "test")
    # finite, but the check's symmetrized sum overflows
    doc["birth"]["cov_diag"] = [1e308, 1.0, 1.0, 1.0]
    with pytest.raises(ScenarioError, match=r"^birth\.cov_diag: covariance is not positive-definite"):
        scenario_from_dict(doc, "test")


# MINIMAL with a DOA sensor, an edge, the regime values, a filter block,
# the run settings and a trajectory that changes velocity
FULL = {
    **copy.deepcopy(MINIMAL),
    "process_noise_std": 5.0,
    "survival_prob": 0.99,
    "clutter_rate": 2.0,
    "detection_prob": 0.9,
    "sensors": [
        {"kind": "toa", "position": [0.0, 0.0], "noise_std": 100.0, "r_max": 15000.0,
         "clutter_rate": 5.0, "detection_prob": 0.99},
        {"kind": "doa", "position": [10000.0, 0.0], "noise_std_deg": 1.0},
    ],
    "graph": {"edges": [[0, 1]]},
    "trajectories": [
        {"birth": 1, "death": 20, "state": [2000.0, 10.0, 2000.0, 20.0], "velocity_changes": [[2, 20.0, 10.0]]}
    ],
    "filter": {"max_hypotheses": 20, "assignments_per_hypothesis": 4, "gm_max_components": 6},
    "consensus_steps": 1,
    "trials": 1,
    "seed": 3,
}
JUNK = [None, "x", "1", True, -1, 0, 2.7, float("nan"), float("inf"), [], [1.0], {}]


def _paths(node, path=()):
    """Path of every value under node, sections included."""
    for key, value in node.items() if isinstance(node, dict) else enumerate(node):
        yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, path + (key,))


@pytest.mark.parametrize("junk", JUNK, ids=repr)
@pytest.mark.parametrize("path", list(_paths(FULL)), ids=lambda p: ".".join(map(str, p)))
def test_junk_value_rejected_at_load_or_runs(path, junk):
    # a value either fails at load with a ScenarioError or runs a trial
    doc = copy.deepcopy(FULL)
    *parents, last = path
    node = doc
    for key in parents:
        node = node[key]
    node[last] = junk
    try:
        s = scenario_from_dict(doc, "test")
    except ScenarioError:
        return
    run_trial(dataclasses.replace(s, steps=4), "consensus-mdglmb", 7)


def test_unit_interval_ends_accepted():
    doc = copy.deepcopy(MINIMAL)
    doc["sensors"][0]["detection_prob"] = 0.0
    doc["survival_prob"] = 1.0
    doc["filter"] = {"gm_merge_thresh": 0, "gm_trunc_thresh": 1.0, "hyp_prune_thresh": 0.0, "max_hypotheses": 1}
    s = scenario_from_dict(doc, "test")
    assert s.sensors[0].detection_prob == 0.0 and s.motion.survival_prob == 1.0
    assert (s.filter.gm_merge_thresh, s.filter.gm_trunc_thresh, s.filter.max_hypotheses) == (0, 1.0, 1)


def test_yaml_syntax_error_reported(tmp_path):
    p = tmp_path / "bad.yaml"
    p.write_text("schema: [unclosed\n")
    with pytest.raises(ScenarioError):
        load_scenario(str(p))


def test_desk_small_shape():
    s = load_scenario("desk_small")
    assert len(s.sensors) == 3
    assert len(s.trajectories) == 2
    assert s.steps == 40
    assert s.trials == 20
