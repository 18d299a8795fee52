import numpy as np
import pytest

from distmot.harness import (
    ALGORITHMS,
    run_experiment,
    run_trial,
    trial_seed_for,
)
from distmot.scenario import scenario_from_dict, with_overrides
from distmot.wire import exchange_bytes_reference


def tiny_doc(**kw):
    doc = {
        "schema": 1,
        "name": "tiny",
        "area": {"xmin": 0.0, "xmax": 10000.0, "ymin": 0.0, "ymax": 10000.0},
        "sampling_interval": 5.0,
        "steps": 12,
        "clutter_rate": 0.0,
        "detection_prob": 1.0,
        "birth": {
            "existence": 0.15,
            "cov_diag": [9e4, 2.5e3, 9e4, 2.5e3],
            "locations": [[2000.0, 0.0, 2000.0, 0.0], [8000.0, 0.0, 8000.0, 0.0]],
        },
        "sensors": [
            {"kind": "toa", "position": [0.0, 0.0], "noise_std": 100.0},
            {"kind": "doa", "position": [5000.0, 10000.0], "noise_std_deg": 1.0},
        ],
        "graph": {"edges": [[0, 1]]},
        "trajectories": [{"birth": 1, "death": 12, "state": [2000.0, 30.0, 2000.0, 25.0]}],
        "filter": {
            "max_hypotheses": 20,
            "hyp_prune_thresh": 1.0e-3,
            "assignments_per_hypothesis": 4,
            "gm_trunc_thresh": 1.0e-2,
            "gm_max_components": 6,
        },
        "consensus_steps": 1,
        "trials": 2,
        "seed": 7,
    }
    doc.update(kw)
    return doc


def tiny_scenario(**kw):
    return scenario_from_dict(tiny_doc(**kw), "test")


class TestRunTrial:
    def test_near_ideal_lock_on(self):
        # clutter-free, certain detection, one object: cardinality locks to 1
        # within three steps of birth at every node
        s = tiny_scenario()
        r = run_trial(s, "consensus-mdglmb", trial_seed_for(s.seed, 0))
        assert r.truth_card == [0] + [1] * 11
        for node in range(r.n_nodes):
            assert all(c == 1 for c in r.est_card[node][4:])

    def test_unknown_algorithm(self):
        s = tiny_scenario()
        with pytest.raises(ValueError, match="unknown algorithm"):
            run_trial(s, "kalman", 0)

    def test_same_seed_byte_identical(self):
        s = tiny_scenario(clutter_rate=3.0, detection_prob=0.9)
        a = run_trial(s, "consensus-mdglmb", trial_seed_for(s.seed, 0))
        b = run_trial(s, "consensus-mdglmb", trial_seed_for(s.seed, 0))
        assert a.to_json() == b.to_json()

    def test_different_seeds_differ(self):
        s = tiny_scenario(clutter_rate=3.0)
        a = run_trial(s, "consensus-mdglmb", trial_seed_for(s.seed, 0))
        b = run_trial(s, "consensus-mdglmb", trial_seed_for(s.seed, 1))
        assert a.to_json() != b.to_json()

    def test_lmb_algorithm_runs(self):
        s = tiny_scenario()
        r = run_trial(s, "consensus-lmb", trial_seed_for(s.seed, 0))
        assert all(c == 1 for c in r.est_card[0][4:])

    def test_centralized_single_node(self):
        s = tiny_scenario()
        r = run_trial(s, "centralized-mdglmb", trial_seed_for(s.seed, 0))
        assert r.n_nodes == 1
        assert all(c == 1 for c in r.est_card[0][4:])
        assert r.bytes_reference == 0 and r.bytes_actual == 0

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_single_sensor_lock_on(self, algorithm):
        # one node and no edge: nothing to exchange, so no consensus round
        s = tiny_scenario(sensors=[{"kind": "toa", "position": [0.0, 0.0], "noise_std": 100.0}], graph={"edges": []})
        r = run_trial(s, algorithm, trial_seed_for(s.seed, 0))
        assert r.n_nodes == 1
        assert all(c == 1 for c in r.est_card[0][4:])
        assert r.bytes_reference == r.bytes_actual == 0

    def test_byte_accounting_additive(self):
        s = tiny_scenario()
        r1 = run_trial(s, "consensus-mdglmb", trial_seed_for(s.seed, 0))
        s2 = with_overrides(s, consensus_steps=2)
        r2 = run_trial(s2, "consensus-mdglmb", trial_seed_for(s.seed, 0))
        # more rounds exchange strictly more bytes
        assert r2.bytes_reference > r1.bytes_reference
        assert r2.bytes_actual > r1.bytes_actual

    def test_lmb_byte_formula(self):
        # one broadcast per node per round: reference bytes follow
        # 4 * (1 + 14 |L|) summed over the broadcasting nodes
        from distmot.densities import LmbDensity
        from distmot.filters import lmb_predict, lmb_prune, lmb_update

        s = tiny_scenario()
        r = run_trial(s, "consensus-lmb", trial_seed_for(s.seed, 0))
        # reproduce the first-step broadcast count by hand
        from distmot.harness import _sensor_rngs
        from distmot.scenario import generate_truth
        from distmot.sensors import simulate_measurements

        truth = generate_truth(s)
        rngs = _sensor_rngs(trial_seed_for(s.seed, 0), 2)
        motion, cfg = s.motion, s.filter
        expected_first = 0
        for i, sen in enumerate(s.sensors):
            z = simulate_measurements(truth[0], sen, rngs[i])
            d = lmb_prune(
                lmb_update(lmb_predict(LmbDensity.empty(), motion, s.birth, 0), z, sen, cfg),
                cfg.lmb_prune_thresh, cfg.max_hypotheses,
            )
            expected_first += exchange_bytes_reference(d)
            assert exchange_bytes_reference(d) == 4 * (1 + 14 * len(d.entries))
        assert r.bytes_reference > expected_first > 0


class TestRunExperiment:
    def test_single_trial_aggregates_equal_trial(self):
        s = tiny_scenario(trials=1)
        res = run_experiment(s, "consensus-mdglmb", workers=1, keep_trials=True)
        t = res.trial_results[0]
        assert np.array_equal(res.est_card_mean, np.array(t.est_card, dtype=float))
        assert np.allclose(res.ospa_mean, np.array(t.ospa_total))
        assert np.array_equal(res.est_card_std, np.zeros_like(res.est_card_std))

    def test_workers_give_identical_results(self):
        s = tiny_scenario(trials=3, clutter_rate=2.0)
        serial = run_experiment(s, "consensus-mdglmb", workers=1, keep_trials=True)
        parallel = run_experiment(s, "consensus-mdglmb", workers=2, keep_trials=True)
        for a, b in zip(serial.trial_results, parallel.trial_results):
            assert a.to_json() == b.to_json()
        assert np.array_equal(serial.est_card_mean, parallel.est_card_mean)

    def test_csv_output(self, tmp_path):
        s = tiny_scenario(trials=2)
        res = run_experiment(s, "consensus-mdglmb", workers=1, out_dir=tmp_path)
        files = sorted(p.name for p in tmp_path.iterdir())
        assert f"tiny_consensus-mdglmb_network.csv" in files
        assert f"tiny_consensus-mdglmb_node0.csv" in files
        text = (tmp_path / "tiny_consensus-mdglmb_network.csv").read_text()
        header = text.splitlines()[0]
        assert header == "step,truth_card,est_card_mean,est_card_std,ospa,ospa_loc,ospa_card"
        assert len(text.splitlines()) == 1 + s.steps

    def test_consensus_steps_override(self):
        s = tiny_scenario(trials=1)
        r0 = run_experiment(with_overrides(s, consensus_steps=0), "consensus-mdglmb", workers=1, keep_trials=True)
        assert r0.trial_results[0].bytes_reference == 0
