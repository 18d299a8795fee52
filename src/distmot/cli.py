"""Command-line interface: run experiments and validate scenarios.

Exit codes: 0 success, 2 scenario/validation error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import sys

from .harness import ALGORITHMS, run_experiment
from .scenario import ScenarioError, load_scenario, with_overrides

EXIT_VALIDATION = 2
EXIT_RUNTIME = 3


def _cmd_run(args) -> int:
    scenario = load_scenario(args.scenario)
    scenario = with_overrides(
        scenario,
        consensus_steps=args.consensus_steps,
        trials=args.trials,
        seed=args.seed,
    )
    result = run_experiment(
        scenario,
        args.algorithm,
        workers=args.workers,
        out_dir=args.out,
    )
    avg = result.network_averaged()
    print(f"scenario {result.scenario_name}, algorithm {result.algorithm}, {result.trials} trials")
    print(f"wall time {result.wall_time:.1f} s with {args.workers} worker(s)")
    print(f"mean OSPA {result.mean_ospa():.1f} m, mean cardinality error {result.mean_cardinality_error():.3f}")
    print(f"exchanged bytes: reference {result.bytes_reference}, serialized {result.bytes_actual}")
    if result.dropped_components:
        print(f"dropped {result.dropped_components} mixture components on numerical failures")
    if args.out:
        print(f"CSV written to {args.out}")
    else:
        tail = ", ".join(f"{v:.0f}" for v in avg["ospa_mean"][-5:])
        print(f"final-steps network OSPA: {tail}")
    return 0


def _cmd_validate(args) -> int:
    scenario = load_scenario(args.scenario)
    print(f"scenario {scenario.name}: {len(scenario.sensors)} sensors, {scenario.steps} steps, "
          f"{len(scenario.trajectories)} trajectories, {len(scenario.birth.entries)} birth components")
    print("valid")
    return 0


def _workers(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"{n} is not an integer >= 1")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="distmot", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a Monte-Carlo tracking experiment")
    run.add_argument("--scenario", required=True, help="scenario YAML path or bundled name")
    run.add_argument("--algorithm", required=True, choices=ALGORITHMS)
    run.add_argument("--trials", type=int, default=None)
    run.add_argument("--consensus-steps", type=int, default=None)
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--out", default=None, help="directory for per-node and network CSV output")
    run.add_argument("--workers", type=_workers, default=1, help="concurrent trial workers (>= 1)")
    run.set_defaults(fn=_cmd_run)

    val = sub.add_parser("validate", help="validate a scenario file")
    val.add_argument("--scenario", required=True)
    val.set_defaults(fn=_cmd_validate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ScenarioError as e:
        print(f"scenario error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as e:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
