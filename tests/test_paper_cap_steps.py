import multiprocessing
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from distmot.scenario import load_scenario

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
# the spawned trial process unpickles its target by module name, and it
# inherits this sys.path
sys.path.insert(0, str(SCRIPTS))
import paper_cap_steps  # noqa: E402


@pytest.mark.parametrize("seconds, steps", [(0.0, 0), (120.0, 40)])
def test_counts_steps_and_stops_the_trial(seconds, steps):
    # desk_small finishes all 40 steps in a few seconds, so the long budget
    # takes the path where the trial returns
    assert paper_cap_steps.steps_within(load_scenario("desk_small"), seconds) == steps
    assert multiprocessing.active_children() == []


class _FakeContext:
    """Stands in for the spawn context: the "child" has sent `msgs` and then hangs."""

    def __init__(self, msgs):
        self.msgs = list(msgs)
        self.terminated = False

    def Pipe(self, duplex):
        recv = SimpleNamespace(poll=lambda timeout: bool(self.msgs), recv=lambda: self.msgs.pop(0), close=lambda: None)
        return recv, SimpleNamespace(close=lambda: None)

    def Process(self, target, args, daemon):
        return SimpleNamespace(start=lambda: None, terminate=lambda: setattr(self, "terminated", True), join=lambda: None)


@pytest.mark.parametrize("scans, steps", [(0, 0), (1, 0), (3, 0), (4, 1), (6, 1), (7, 2)])
def test_a_step_finishes_when_the_next_one_begins(monkeypatch, scans, steps):
    scenario = SimpleNamespace(sensors=(0, 1, 2), steps=40)
    ctx = _FakeContext(["start"] + ["scan"] * scans)
    monkeypatch.setattr(paper_cap_steps, "multiprocessing", SimpleNamespace(get_context=lambda method: ctx))
    assert paper_cap_steps.steps_within(scenario, 60.0) == steps
    assert ctx.terminated


def test_script_reports_paper_highsnr():
    # the script's stdout pipe stays open while any process holding it
    # runs, so a trial left running would hold up `run` until its timeout
    out = subprocess.run(
        [sys.executable, str(SCRIPTS / "paper_cap_steps.py"), "--seconds", "0"],
        capture_output=True, text=True, timeout=120, check=True,
    ).stdout
    assert out == "0 of 200 steps of paper_highsnr (consensus-mdglmb, trial 0) in 0 s\n"
