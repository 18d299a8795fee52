#!/usr/bin/env python3
"""Print one sha256 of `TrialResult.to_json()` per benchmark trial.

Runs, untimed, the trials that `perfbench/run.py` runs for each workload of
`perfbench/workloads.py` and each seed, and prints one line per trial:

    <workload> <seed> <trial> <sha256>

A change that must keep outputs byte-identical prints the same lines before
and after, so the check is one diff:

    python3 scripts/trial_digests.py --seeds 7 341 101 > before.txt
    (apply the change)
    python3 scripts/trial_digests.py --seeds 7 341 101 > after.txt
    diff before.txt after.txt
"""

import argparse
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from distmot import harness  # noqa: E402
from distmot.scenario import with_overrides  # noqa: E402
from workloads import WORKLOADS, trial_seed  # noqa: E402


def digests(name: str, seed: int):
    """(trial, sha256) of each trial of one workload, as perfbench/run.py seeds them."""
    workload = WORKLOADS[name]
    scenario = workload.generate(seed)
    for t in range(workload.trials):
        sc = with_overrides(scenario, seed=trial_seed(seed, t), trials=1)
        res = harness.run_experiment(sc, workload.algorithm, workers=1, keep_trials=True)
        yield t, hashlib.sha256(res.trial_results[0].to_json().encode()).hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    ap.add_argument("--workloads", nargs="+", default=list(WORKLOADS), choices=list(WORKLOADS))
    args = ap.parse_args()
    for name in args.workloads:
        for seed in args.seeds:
            for t, digest in digests(name, seed):
                print(name, seed, t, digest, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
