"""Internal results are valid densities at every phase of a step.

The package checks a density only where it enters from outside
(`wire.density_from_dict`); inside, records adopt their fields as given.
This runs each algorithm's step functions one phase at a time on the first
steps of desk_small. After each phase it calls `check_density` on every
node's density, checks that every covariance equals its transpose exactly,
and checks that the density survives a wire round trip bit for bit. Then it
checks that the phases composed here are the ones `run_trial` runs, by
comparing the estimates of the last step. A property test then runs whole
trials of short random scenarios and checks each node's density at every
step.
"""

import dataclasses

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from distmot import harness

from distmot.densities import LmbDensity, MdGlmbDensity, check_density
from distmot.filters import (
    extract_estimates_lmb,
    extract_estimates_mdglmb,
    lmb_predict,
    lmb_prune,
    lmb_update,
    mdglmb_predict,
    mdglmb_update,
    reduce_mdglmb_pdfs,
)
from distmot.fusion import consensus_run
from distmot.gm import check_pd, gm_key
from distmot.harness import ALGORITHMS, _sensor_rngs, run_experiment, run_trial, trial_seed_for
from distmot.network import metropolis_weights
from distmot.scenario import generate_truth, load_scenario, scenario_from_dict, with_overrides
from distmot.sensors import simulate_measurements
from distmot.wire import density_from_json, density_to_json

STEPS = 6
ROUNDS = 2


def pdf_bits(p):
    return gm_key(p), p.total_log_weight().hex()


def density_bits(d):
    """Label sets, log weights or existences, and every pdf, bit for bit."""
    if isinstance(d, LmbDensity):
        return [(e.label, e.existence.hex(), pdf_bits(e.pdf)) for e in d.entries]
    return [(h.label_set, h.log_weight.hex(), [pdf_bits(p) for p in h.pdfs]) for h in d.hypotheses]


def pdfs_of(d):
    if isinstance(d, LmbDensity):
        return [e.pdf for e in d.entries]
    return [p for h in d.hypotheses for p in h.pdfs]


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_every_phase_yields_valid_densities(algorithm):
    s = dataclasses.replace(with_overrides(load_scenario("desk_small"), consensus_steps=ROUNDS), steps=STEPS)
    truth = generate_truth(s)
    motion, birth, cfg = s.motion, s.birth, s.filter
    seed = trial_seed_for(s.seed, 0)
    rngs = _sensor_rngs(seed, len(s.sensors))
    centralized = algorithm == "centralized-mdglmb"
    lmb = algorithm == "consensus-lmb"
    n_nodes = 1 if centralized else len(s.sensors)
    rounds = 0 if centralized else ROUNDS
    omega = None if centralized else metropolis_weights(s.graph)
    densities = [(LmbDensity if lmb else MdGlmbDensity).empty() for _ in range(n_nodes)]
    checked = []

    def check(phase, k, ds):
        for node, d in enumerate(ds):
            try:
                check_density(d)
            except ValueError as e:
                raise AssertionError(f"step {k}, {phase}, node {node}: {e}") from e
            where = f"step {k}, {phase}, node {node}"
            assert all(np.array_equal(p.covs, p.covs.transpose(0, 2, 1)) for p in pdfs_of(d)), f"{where}: asymmetric covariance"
            assert density_bits(density_from_json(density_to_json(d))) == density_bits(d), f"{where}: wire round trip changed bits"
        checked.append(phase)
        return ds

    for k in range(STEPS):
        scans = [(sensor, simulate_measurements(truth[k], sensor, rngs[i])) for i, sensor in enumerate(s.sensors)]
        node_scans = [scans] if centralized else [[scan] for scan in scans]
        if lmb:
            densities = check("predict", k, [lmb_predict(d, motion, birth, k) for d in densities])
        else:
            densities = [mdglmb_predict(d, motion, birth, k, max_hypotheses=cfg.max_hypotheses) for d in densities]
            densities = check("predict", k, densities)
            densities = check("reduce", k, [reduce_mdglmb_pdfs(d, cfg) for d in densities])
        update = lmb_update if lmb else mdglmb_update
        for i in range(len(node_scans[0])):
            densities = [update(d, ns[i][1], ns[i][0], cfg) for d, ns in zip(densities, node_scans)]
            densities = check(f"update {i}", k, densities)
        if lmb:
            densities = check("prune", k, [lmb_prune(d, cfg.lmb_prune_thresh, cfg.max_hypotheses) for d in densities])
        for r in range(rounds):
            densities = check(f"consensus round {r}", k, consensus_run(densities, omega, cfg))

    per_step = 2 + len(node_scans[0]) + rounds
    assert len(checked) == STEPS * per_step

    extract = extract_estimates_lmb if lmb else extract_estimates_mdglmb
    trial = run_trial(s, algorithm, seed)
    for node, d in enumerate(densities):
        got = [[list(lab), [float(v) for v in x]] for lab, x in extract(d)]
        assert got == trial.estimates[node][STEPS - 1]


# what every short scenario below shares
COMMON = {
    "schema": 1,
    "name": "random",
    "area": {"xmin": 0.0, "xmax": 10000.0, "ymin": 0.0, "ymax": 10000.0},
    "sampling_interval": 5.0,
    "filter": {"max_hypotheses": 20, "hyp_prune_thresh": 1.0e-3, "assignments_per_hypothesis": 4,
               "gm_trunc_thresh": 1.0e-2, "gm_max_components": 6},
    "trials": 2,
}


def short_scenario(sensors, edges, steps, trajectories, consensus_steps, seed):
    locations = [[t["state"][0], 0.0, t["state"][2], 0.0] for t in trajectories]
    return {
        **COMMON,
        "steps": steps,
        "birth": {"existence": 0.1, "cov_diag": [9e4, 2.5e3, 9e4, 2.5e3], "locations": locations},
        "sensors": sensors,
        "graph": {"edges": edges},
        "trajectories": trajectories,
        "consensus_steps": consensus_steps,
        "seed": seed,
    }


@st.composite
def short_scenarios(draw):
    """A scenario document of 1-3 sensors of random kind, position, clutter
    and P_D on a random connected graph, 1-2 birth locations, an object born
    at each, and at most 4 steps. The sensors sit on the area's bottom and
    top edges and the objects at least 600 m inside it, since a bearing or
    a range at a sensor's own position is undefined."""
    n = draw(st.integers(1, 3))
    sensors = [
        {
            "kind": draw(st.sampled_from(["toa", "doa"])),
            "position": [draw(st.floats(0.0, 10000.0)), draw(st.sampled_from([0.0, 10000.0]))],
            "clutter_rate": draw(st.floats(0.0, 10.0)),
            "detection_prob": draw(st.floats(0.3, 1.0)),
        }
        for _ in range(n)
    ]
    # a random spanning tree, each node joined to an earlier one, and maybe a chord
    edges = [[draw(st.integers(0, i - 1)), i] for i in range(1, n)]
    if n == 3 and draw(st.booleans()):
        edges.append([1, 2])
    steps = draw(st.integers(1, 4))
    where = st.tuples(st.floats(1000.0, 9000.0), st.floats(1000.0, 9000.0))
    locations = draw(st.lists(where, min_size=1, max_size=2, unique=True))
    velocity = st.floats(-20.0, 20.0)
    trajectories = [
        {"birth": draw(st.integers(0, steps - 1)), "death": steps, "state": [x, draw(velocity), y, draw(velocity)]}
        for x, y in locations
    ]
    return short_scenario(sensors, edges, steps, trajectories, draw(st.integers(1, 2)), draw(st.integers(0, 2**32 - 1)))


@given(short_scenarios(), st.sampled_from(ALGORITHMS))
@settings(max_examples=40, derandomize=True, deadline=None)
def test_random_scenarios_keep_valid_densities(doc, algorithm):
    # run_trial extracts the estimates of every node at every step from the
    # density that ends the step: check that density there
    s = scenario_from_dict(doc, "random")
    checked = []

    def checking(extract):
        def wrapped(d):
            check_density(d)
            for p in pdfs_of(d):
                check_pd(p.covs)
            estimates = extract(d)
            assert all(np.isfinite(x).all() for _, x in estimates)
            checked.append(d)
            return estimates
        return wrapped

    with pytest.MonkeyPatch.context() as mp:
        for name in ("extract_estimates_mdglmb", "extract_estimates_lmb"):
            mp.setattr(harness, name, checking(getattr(harness, name)))
        run_trial(s, algorithm, trial_seed_for(s.seed, 0))
    n_nodes = 1 if algorithm == "centralized-mdglmb" else len(s.sensors)
    assert len(checked) == s.steps * n_nodes


def test_short_scenario_same_from_one_worker_and_two():
    sensors = [
        {"kind": "toa", "position": [2000.0, 0.0], "clutter_rate": 5.0, "detection_prob": 0.9},
        {"kind": "doa", "position": [8000.0, 0.0], "clutter_rate": 2.0, "detection_prob": 0.8},
        {"kind": "toa", "position": [5000.0, 10000.0], "clutter_rate": 8.0, "detection_prob": 0.95},
    ]
    trajectories = [
        {"birth": 0, "death": 4, "state": [3000.0, 10.0, 4000.0, -5.0]},
        {"birth": 1, "death": 4, "state": [7000.0, -15.0, 6000.0, 12.0]},
    ]
    s = scenario_from_dict(short_scenario(sensors, [[0, 1], [1, 2], [0, 2]], 4, trajectories, 2, 7), "random")
    serial = run_experiment(s, "consensus-mdglmb", workers=1, keep_trials=True)
    pooled = run_experiment(s, "consensus-mdglmb", workers=2, keep_trials=True)
    assert serial.trial_results[0].to_json() == run_trial(s, "consensus-mdglmb", trial_seed_for(s.seed, 0)).to_json()
    assert [t.to_json() for t in serial.trial_results] == [t.to_json() for t in pooled.trial_results]
