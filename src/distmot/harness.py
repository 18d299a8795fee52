"""Monte-Carlo experiment runner: per-trial tracking loops, OSPA scoring,
aggregation over trials, CSV output, and exchanged-byte accounting.

One trial executes the per-step node loop for the chosen algorithm:
local prediction, local update (already marginalized), N synchronous
consensus rounds with mixture merging, then estimate extraction per node.
Every random draw derives from (trial seed, sensor index) counter-based
streams, so trials are reproducible bit-exactly and independent of worker
scheduling.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .densities import LmbDensity, MdGlmbDensity
from .filters import (
    centralized_mdglmb_step,
    extract_estimates_lmb,
    extract_estimates_mdglmb,
    lmb_predict,
    lmb_prune,
    lmb_update,
)
from .fusion import consensus_run
from .network import metropolis_weights
from .ospa import ospa
from .scenario import Scenario, generate_truth
from .wire import exchange_bytes_actual, exchange_bytes_reference

ALGORITHMS = ("consensus-mdglmb", "consensus-lmb", "centralized-mdglmb")

OSPA_CUTOFF = 600.0
OSPA_ORDER = 2.0


@dataclass
class TrialResult:
    algorithm: str
    n_nodes: int
    n_steps: int
    truth_card: list
    est_card: list          # (nodes, steps)
    ospa_total: list        # (nodes, steps)
    ospa_loc: list
    ospa_card: list
    estimates: list         # (nodes, steps, objects) of [label pair, state]
    bytes_reference: int
    bytes_actual: int
    # always 0: kept so that to_json() is unchanged while perfbench/run.py reads it
    dropped_components: int

    def to_json(self) -> str:
        return json.dumps(self.__dict__, separators=(",", ":"))


def trial_seed_for(master_seed: int, trial_index: int) -> int:
    return int(np.random.SeedSequence([master_seed, trial_index]).generate_state(1)[0])


def _sensor_rngs(trial_seed: int, n_sensors: int):
    return [
        np.random.Generator(np.random.Philox(np.random.SeedSequence([trial_seed, i])))
        for i in range(n_sensors)
    ]


def run_trial(scenario: Scenario, algorithm: str, trial_seed: int) -> TrialResult:
    """Deterministic single trial; all randomness derives from trial_seed.

    Every algorithm runs one recursion per step: a local step at each node,
    then the scenario's consensus rounds, then extraction. Centralized is a
    single node that receives every sensor's scan and runs no round; nor
    does a single sensor, whose graph has no edge. An exception in step k
    is re-raised as a RuntimeError naming the trial seed, k and the
    algorithm.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}")
    # imported here, not at module level: the step clock of perfbench and
    # scripts/paper_cap_steps.py patch distmot.sensors.simulate_measurements,
    # which a name bound at import time would bypass
    from distmot.sensors import simulate_measurements

    truth = generate_truth(scenario)
    motion = scenario.motion
    birth = scenario.birth
    cfg = scenario.filter
    rngs = _sensor_rngs(trial_seed, len(scenario.sensors))

    if algorithm == "consensus-lmb":
        empty, extract = LmbDensity.empty, extract_estimates_lmb

        def step(d, k, scans):
            d = lmb_predict(d, motion, birth, k)
            for sensor, Z in scans:
                d = lmb_update(d, Z, sensor, cfg)
            return lmb_prune(d, cfg.lmb_prune_thresh, cfg.max_hypotheses)
    else:
        empty, extract = MdGlmbDensity.empty, extract_estimates_mdglmb

        def step(d, k, scans):
            return centralized_mdglmb_step(d, motion, birth, k, scans, cfg)

    centralized = algorithm == "centralized-mdglmb"
    n_nodes = 1 if centralized else len(scenario.sensors)
    # a lone node has nothing to exchange: no consensus round
    if n_nodes == 1:
        rounds, omega = 0, None
    else:
        rounds, omega = scenario.consensus_steps, metropolis_weights(scenario.graph)
    densities = [empty() for _ in range(n_nodes)]

    est_card = [[0] * scenario.steps for _ in range(n_nodes)]
    ospa_total = [[0.0] * scenario.steps for _ in range(n_nodes)]
    ospa_loc = [[0.0] * scenario.steps for _ in range(n_nodes)]
    ospa_card = [[0.0] * scenario.steps for _ in range(n_nodes)]
    estimates = [[None] * scenario.steps for _ in range(n_nodes)]
    bytes_reference = 0
    bytes_actual = 0

    for k in range(scenario.steps):
        try:
            scans = [(s, simulate_measurements(truth[k], s, rngs[i])) for i, s in enumerate(scenario.sensors)]
            node_scans = [scans] if centralized else [[scan] for scan in scans]
            densities = [step(d, k, ns) for d, ns in zip(densities, node_scans)]
            for _ in range(rounds):
                for d in densities:
                    bytes_reference += exchange_bytes_reference(d)
                    bytes_actual += exchange_bytes_actual(d)
                densities = consensus_run(densities, omega, cfg)
            truth_states = np.array([state for _, state in truth[k]]) if truth[k] else np.zeros((0, 4))
            for node in range(n_nodes):
                est = extract(densities[node])
                est_states = np.array([s for _, s in est]) if est else np.zeros((0, 4))
                res = ospa(est_states, truth_states, OSPA_CUTOFF, OSPA_ORDER)
                est_card[node][k] = len(est)
                ospa_total[node][k] = res.total
                ospa_loc[node][k] = res.localization
                ospa_card[node][k] = res.cardinality
                estimates[node][k] = [[list(lab), [float(v) for v in s]] for lab, s in est]
        except Exception as e:
            raise RuntimeError(f"trial seed {trial_seed}, step {k}, algorithm {algorithm}: {type(e).__name__}: {e}") from e

    return TrialResult(
        algorithm=algorithm,
        n_nodes=n_nodes,
        n_steps=scenario.steps,
        truth_card=[len(t) for t in truth],
        est_card=est_card,
        ospa_total=ospa_total,
        ospa_loc=ospa_loc,
        ospa_card=ospa_card,
        estimates=estimates,
        bytes_reference=bytes_reference,
        bytes_actual=bytes_actual,
        dropped_components=0,
    )


@dataclass
class ExperimentResult:
    scenario_name: str
    algorithm: str
    trials: int
    n_nodes: int
    n_steps: int
    truth_card: np.ndarray          # (steps,)
    est_card_mean: np.ndarray       # (nodes, steps)
    est_card_std: np.ndarray        # (nodes, steps)
    ospa_mean: np.ndarray           # (nodes, steps)
    ospa_loc_mean: np.ndarray
    ospa_card_mean: np.ndarray
    bytes_reference: int
    bytes_actual: int
    wall_time: float
    trial_results: list = field(repr=False, default_factory=list)

    def network_averaged(self) -> dict:
        return {
            "est_card_mean": self.est_card_mean.mean(axis=0),
            "est_card_std": self.est_card_std.mean(axis=0),
            "ospa_mean": self.ospa_mean.mean(axis=0),
            "ospa_loc_mean": self.ospa_loc_mean.mean(axis=0),
            "ospa_card_mean": self.ospa_card_mean.mean(axis=0),
        }

    def mean_ospa(self) -> float:
        return float(self.ospa_mean.mean(axis=0).mean())

    def mean_cardinality_error(self) -> float:
        per_node = np.abs(self.est_card_mean - self.truth_card[None, :])
        return float(per_node.mean(axis=0).mean())


def _trial_job(args):
    return run_trial(*args)


def run_experiment(
    scenario: Scenario,
    algorithm: str,
    workers: int,
    out_dir: str | Path | None = None,
    keep_trials: bool = False,
) -> ExperimentResult:
    """Run the scenario's independent trials and aggregate in fixed trial order."""
    n_trials = scenario.trials
    seeds = [trial_seed_for(scenario.seed, t) for t in range(n_trials)]
    jobs = [(scenario, algorithm, s) for s in seeds]

    start = time.perf_counter()
    if workers > 1 and n_trials > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_trial_job, jobs))
    else:
        results = [_trial_job(j) for j in jobs]
    wall = time.perf_counter() - start

    card = np.array([r.est_card for r in results], dtype=float)        # (trials, nodes, steps)
    ospa_t = np.array([r.ospa_total for r in results], dtype=float)
    ospa_l = np.array([r.ospa_loc for r in results], dtype=float)
    ospa_c = np.array([r.ospa_card for r in results], dtype=float)

    out = ExperimentResult(
        scenario_name=scenario.name,
        algorithm=algorithm,
        trials=n_trials,
        n_nodes=results[0].n_nodes,
        n_steps=scenario.steps,
        truth_card=np.array(results[0].truth_card, dtype=float),
        est_card_mean=card.mean(axis=0),
        est_card_std=card.std(axis=0),
        ospa_mean=ospa_t.mean(axis=0),
        ospa_loc_mean=ospa_l.mean(axis=0),
        ospa_card_mean=ospa_c.mean(axis=0),
        bytes_reference=sum(r.bytes_reference for r in results),
        bytes_actual=sum(r.bytes_actual for r in results),
        wall_time=wall,
        trial_results=results if keep_trials else [],
    )
    if out_dir is not None:
        write_csv(out, Path(out_dir))
    return out


CSV_HEADER = "step,truth_card,est_card_mean,est_card_std,ospa,ospa_loc,ospa_card"


def _csv_rows(truth, cm, cs, om, ol, oc) -> str:
    lines = [CSV_HEADER]
    for k in range(len(truth)):
        lines.append(
            f"{k},{truth[k]:g},{cm[k]:.6f},{cs[k]:.6f},{om[k]:.6f},{ol[k]:.6f},{oc[k]:.6f}"
        )
    return "\n".join(lines) + "\n"


def write_csv(result: ExperimentResult, out_dir: Path) -> list[Path]:
    """Per-node CSVs plus a network-averaged CSV and a summary document."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for node in range(result.n_nodes):
        p = out_dir / f"{result.scenario_name}_{result.algorithm}_node{node}.csv"
        p.write_text(
            _csv_rows(
                result.truth_card,
                result.est_card_mean[node],
                result.est_card_std[node],
                result.ospa_mean[node],
                result.ospa_loc_mean[node],
                result.ospa_card_mean[node],
            )
        )
        written.append(p)
    avg = result.network_averaged()
    p = out_dir / f"{result.scenario_name}_{result.algorithm}_network.csv"
    p.write_text(
        _csv_rows(
            result.truth_card,
            avg["est_card_mean"],
            avg["est_card_std"],
            avg["ospa_mean"],
            avg["ospa_loc_mean"],
            avg["ospa_card_mean"],
        )
    )
    written.append(p)
    summary = {
        "scenario": result.scenario_name,
        "algorithm": result.algorithm,
        "trials": result.trials,
        "wall_time_s": result.wall_time,
        "bytes_reference": result.bytes_reference,
        "bytes_actual": result.bytes_actual,
        "mean_ospa": result.mean_ospa(),
        "mean_cardinality_error": result.mean_cardinality_error(),
    }
    sp = out_dir / f"{result.scenario_name}_{result.algorithm}_summary.json"
    sp.write_text(json.dumps(summary, indent=2) + "\n")
    written.append(sp)
    return written
