#!/usr/bin/env python3
"""Count the steps of a paper-cap trial that finish within a time budget.

Runs trial 0 of `paper_highsnr` at the scenario's own caps (3000
hypotheses, 50 maps) with consensus-mdglmb and the trial seed
`trial_seed_for(scenario.seed, 0)`, and prints how many of its steps
finished within --seconds:

    python3 scripts/paper_cap_steps.py --seconds 600
    N of 200 steps of paper_highsnr (consensus-mdglmb, trial 0) in 600 s

The trial runs in a child process. A step begins when the trial simulates
its first sensor scan and has finished once the next step begins or the
trial returns; the child reports each scan by wrapping
`distmot.sensors.simulate_measurements`, which `run_trial` looks up at
call time. The clock starts when the child enters `run_trial`, and the
child is stopped at the deadline, so no process outlives the script.
"""

import argparse
import multiprocessing
import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from distmot import harness, sensors  # noqa: E402
from distmot.scenario import load_scenario  # noqa: E402

ALGORITHM = "consensus-mdglmb"


def _run_trial(scenario, conn) -> None:
    """Child: run trial 0, sending "start", one "scan" per sensor scan, and "done"."""
    simulate = sensors.simulate_measurements

    def reported(*args):
        conn.send("scan")
        return simulate(*args)

    sensors.simulate_measurements = reported
    conn.send("start")
    harness.run_trial(scenario, ALGORITHM, harness.trial_seed_for(scenario.seed, 0))
    conn.send("done")


def steps_within(scenario, seconds: float) -> int:
    """Steps of trial 0 that finish within `seconds` of its start."""
    ctx = multiprocessing.get_context("spawn")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_run_trial, args=(scenario, send), daemon=True)
    child.start()
    send.close()
    scans, deadline = 0, None
    try:
        while deadline is None or time.monotonic() < deadline:
            if not recv.poll(None if deadline is None else deadline - time.monotonic()):
                break
            try:
                msg = recv.recv()
            except EOFError:
                raise RuntimeError("the trial process ended before its last step (its traceback is above)") from None
            if msg == "start":
                deadline = time.monotonic() + seconds
            elif msg == "scan":
                scans += 1
            else:
                return scenario.steps
    finally:
        child.terminate()
        child.join()
        recv.close()
    # the scan that begins step k + 1 ends step k
    return max(0, (scans - 1) // len(scenario.sensors))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seconds", type=float, required=True, help="time budget from the start of the trial")
    args = ap.parse_args()
    # a terminated script still stops its trial, through the finally of steps_within
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    scenario = load_scenario("paper_highsnr")
    done = steps_within(scenario, args.seconds)
    print(f"{done} of {scenario.steps} steps of {scenario.name} ({ALGORITHM}, trial 0) in {args.seconds:g} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
