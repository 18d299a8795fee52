"""Benchmark workloads, generated from the bundled scenario YAMLs.

A workload keeps a bundled scenario's area, sensors, graph, trajectories and
clutter regime. It overrides only `steps` (trajectory lifetimes clipped to
it), the filter block, `consensus_steps` and `seed`, and every generated
document goes through `scenario_from_dict`, so it passes the same validation
as a user's scenario file.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

import numpy as np
import yaml

from distmot.scenario import Scenario, scenario_from_dict

# Filter caps of the bundled desk_small scenario. The paper-scale caps
# (3000 hypotheses, 50 maps per hypothesis) did not finish 30 of 200 steps of
# one paper_highsnr trial in 10 minutes on a 2-core Xeon.
DESK_FILTER = {
    "max_hypotheses": 50,
    "hyp_prune_thresh": 3.0e-3,
    "assignments_per_hypothesis": 4,
    "gm_merge_thresh": 4.0,
    "gm_trunc_thresh": 1.0e-2,
    "gm_max_components": 6,
    "lmb_prune_thresh": 1.0e-3,
}

# p90 is reported only with at least ten samples beyond it.
MIN_STEP_SAMPLES = 100


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str            # bundled YAML
    algorithm: str
    steps: int | None        # None keeps the YAML's step count
    consensus_steps: int
    filter: dict | None      # None keeps the YAML's filter block
    # Trials every timed run makes, at least MIN_STEP_SAMPLES steps' worth.
    # Accuracy and bytes are taken over them, so they depend on the seed alone;
    # about as many as fit in run_seconds, so averaging them costs no time.
    trials: int
    # Accuracy bounds every run must meet, set from 10-12 trials per workload:
    # OSPA about 1.5 times the worst trial, cardinality error with room for a
    # few more missed steps but below what losing a track for its life costs.
    max_ospa_m: float
    max_card_err: float
    why: str

    def document(self, seed: int, steps: int | None = None) -> dict:
        """The scenario document of this workload for one seed.

        steps shortens the run (the warm-up uses it); trajectories born at or
        after the last step are dropped and the others end at it.
        """
        text = resources.files("distmot.scenarios").joinpath(f"{self.scenario}.yaml").read_text()
        doc = yaml.safe_load(text)
        n = steps if steps is not None else self.steps if self.steps is not None else int(doc["steps"])
        doc["steps"] = n
        doc["trajectories"] = [dict(t, death=min(int(t["death"]), n)) for t in doc["trajectories"] if int(t["birth"]) < n]
        if self.filter is not None:
            doc["filter"] = dict(self.filter)
        doc["consensus_steps"] = self.consensus_steps
        doc["seed"] = seed
        doc["trials"] = 1
        return doc

    def generate(self, seed: int, steps: int | None = None) -> Scenario:
        return scenario_from_dict(self.document(seed, steps), self.scenario)


def trial_seed(seed: int, trial: int) -> int:
    """Scenario seed of the trial-th trial of a run keyed by seed."""
    return int(np.random.SeedSequence([seed, trial]).generate_state(1)[0])


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ring7_mdglmb_n5",
            scenario="paper_highsnr",
            algorithm="consensus-mdglmb",
            # 20 steps (births at 0 and 10: up to 2 objects) rather than 50:
            # a 50-step trial takes about 30 s, and p90 needs 100 steps a run.
            # Not 25: the third birth at step 20 made those steps' cost vary
            # by 23% across seeds, against 10-11% for steps 0-19.
            steps=20,
            consensus_steps=5,
            filter=DESK_FILTER,
            trials=5,
            max_ospa_m=350.0,
            max_card_err=0.7,
            why="paper_highsnr network (7 nodes, ring with two chords, clutter 5), 20 steps, "
            "N=5 consensus rounds: the most fusion, Chernoff and wire work per step",
        ),
        Workload(
            name="central7_clutter15",
            scenario="paper_lowsnr",
            algorithm="centralized-mdglmb",
            steps=50,
            consensus_steps=1,
            filter=DESK_FILTER,
            trials=3,
            max_ospa_m=160.0,
            max_card_err=0.15,
            why="paper_lowsnr (same 7 sensors, clutter 15, 5 objects), 50 steps, centralized: "
            "seven sequential updates, Murty-heavy assignment, bypasses fusion and wire",
        ),
        Workload(
            name="desk_lmb",
            scenario="desk_small",
            algorithm="consensus-lmb",
            steps=None,
            consensus_steps=1,
            filter=None,
            trials=5,
            max_ospa_m=260.0,
            max_card_err=0.3,
            why="desk_small as shipped with consensus-lmb, N=1: the only LMB path "
            "(expand to hypotheses, update, collapse, per-label fusion)",
        ),
    )
}
