"""Internal results are valid densities at every phase of a step.

The package checks a density only where it enters from outside
(`wire.density_from_dict`); inside, records adopt their fields as given.
This runs each algorithm's step functions one phase at a time on the first
steps of desk_small and calls `check_density` on every node's density after
each phase, then checks that the phases composed here are the ones
`run_trial` runs, by comparing the estimates of the last step.
"""

import dataclasses

import pytest

from distmot.densities import LmbDensity, MdGlmbDensity, check_density
from distmot.filters import (
    UpdateDiagnostics,
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
from distmot.harness import ALGORITHMS, _sensor_rngs, run_trial, trial_seed_for
from distmot.network import metropolis_weights
from distmot.scenario import generate_truth, load_scenario, with_overrides
from distmot.sensors import simulate_measurements

STEPS = 6
ROUNDS = 2


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_every_phase_yields_valid_densities(algorithm):
    s = dataclasses.replace(with_overrides(load_scenario("desk_small"), consensus_steps=ROUNDS), steps=STEPS)
    truth = generate_truth(s)
    motion, birth, cfg = s.motion_model(), s.birth, s.filter
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
            densities = [update(d, ns[i][1], ns[i][0], cfg, UpdateDiagnostics()) for d, ns in zip(densities, node_scans)]
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
