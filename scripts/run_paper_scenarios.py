#!/usr/bin/env python3
"""Run the full-scale tracking scenarios and write CSV results.

These are the heavyweight experiment configurations (50x50 km area, 200
steps, 7 sensors, 100 Monte-Carlo trials); expect hours of compute at the
defaults. Use --trials for a quicker look.

The defaults include consensus-lmb, which does not yet run at these
scenarios' caps (3000 hypotheses, 50 maps per hypothesis): its collapsed
mixtures are fused unreduced, and one paper_highsnr trial was killed for
running out of memory at 7.9 GB RSS within 120 s. Pass --algorithms
without it on a machine of that size.

Examples:
    python scripts/run_paper_scenarios.py --out results/
    python scripts/run_paper_scenarios.py --scenarios paper_highsnr \
        --algorithms consensus-mdglmb --trials 5 --consensus-steps 1 3
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from distmot.harness import ALGORITHMS, run_experiment
from distmot.scenario import load_scenario, with_overrides

SCENARIOS = ("paper_highsnr", "paper_lowsnr", "paper_lowpd")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--scenarios", nargs="+", default=list(SCENARIOS), choices=SCENARIOS)
    ap.add_argument("--algorithms", nargs="+", default=list(ALGORITHMS), choices=ALGORITHMS)
    ap.add_argument("--consensus-steps", nargs="+", type=int, default=[1, 3])
    ap.add_argument("--trials", type=int, default=None, help="override the scenario's trial count")
    ap.add_argument("--workers", type=int, default=1, help="concurrent trial workers (>= 1)")
    ap.add_argument("--out", default="results")
    args = ap.parse_args()
    if args.workers < 1:
        ap.error(f"argument --workers: {args.workers} is not an integer >= 1")

    out = Path(args.out)
    for name in args.scenarios:
        scenario = load_scenario(name)
        for algorithm in args.algorithms:
            steps_list = [1] if algorithm == "centralized-mdglmb" else args.consensus_steps
            for n in steps_list:
                tag = f"{name} / {algorithm}" + ("" if algorithm == "centralized-mdglmb" else f" / N={n}")
                print(f"== {tag}")
                sc = with_overrides(scenario, consensus_steps=n, trials=args.trials)
                run_dir = out / name / (algorithm if algorithm == "centralized-mdglmb" else f"{algorithm}_N{n}")
                result = run_experiment(sc, algorithm, workers=args.workers, out_dir=run_dir)
                print(f"   mean OSPA {result.mean_ospa():.1f} m, "
                      f"card err {result.mean_cardinality_error():.3f}, "
                      f"wall {result.wall_time:.0f}s, bytes ref {result.bytes_reference}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
