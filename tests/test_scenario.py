import copy
import re

import numpy as np
import pytest
import yaml

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
    with pytest.raises(ScenarioError, match=r"sensors\[0\]: detection_prob .* outside \[0, 1\]"):
        scenario_from_dict(doc, "test")
    # the regime-wide value is checked the same way
    del doc["sensors"][0]["detection_prob"]
    doc["detection_prob"] = pd
    with pytest.raises(ScenarioError, match=r"sensors\[0\]: detection_prob"):
        scenario_from_dict(doc, "test")


@pytest.mark.parametrize("ps", [1.7, -0.1])
def test_survival_prob_outside_unit_interval_rejected(ps):
    doc = copy.deepcopy(MINIMAL)
    doc["survival_prob"] = ps
    with pytest.raises(ScenarioError, match=r"survival_prob: .* outside \[0, 1\]"):
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


def test_unit_interval_ends_accepted():
    doc = copy.deepcopy(MINIMAL)
    doc["sensors"][0]["detection_prob"] = 0.0
    doc["survival_prob"] = 1.0
    doc["filter"] = {"gm_merge_thresh": 0, "gm_trunc_thresh": 1.0, "hyp_prune_thresh": 0.0, "max_hypotheses": 1}
    s = scenario_from_dict(doc, "test")
    assert s.sensors[0].detection_prob == 0.0 and s.survival_prob == 1.0
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
