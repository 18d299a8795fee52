"""The benchmark's step clock and layer tracer still see every layer.

perfbench/tracing.py observes the package by patching functions by name in
module namespaces; a refactor that renames a function or stops looking it
up where the tracer patches it would silently take a layer out of the
trace. This runs a short experiment of each algorithm under both.
"""

import importlib.util
from pathlib import Path

import pytest

from distmot.harness import ALGORITHMS, run_experiment
from test_harness import tiny_scenario

STEPS = 3
TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_clock_and_tracer_see_every_layer(algorithm):
    tracing = load_tracing()
    s = tiny_scenario(steps=STEPS, trials=1, trajectories=[{"birth": 1, "death": STEPS, "state": [2000.0, 30.0, 2000.0, 25.0]}])
    clock = tracing.StepClock(len(s.sensors))
    tracer = tracing.Tracer(clock)
    clock.install()
    try:
        tracer.install()
        try:
            run_experiment(s, algorithm, workers=1)
        finally:
            tracer.uninstall()
    finally:
        clock.uninstall()

    assert len(clock.starts) == 1 and len(clock.starts[0]) == STEPS and len(clock.ends) == 1
    summary = tracing.SpanSummary(tracer)
    for names in (tracing.PREDICT, tracing.UPDATE, tracing.EXTRACT, "ospa.ospa"):
        assert summary.calls(names) > 0, names
    consensus = algorithm.startswith("consensus")
    for names in (tracing.CONSENSUS, "wire.exchange_bytes_actual", "wire.exchange_bytes_reference"):
        assert (summary.calls(names) > 0) == consensus, names
    assert {span[5] for span in tracer.spans if span[0] == "ospa.ospa"} == set(range(STEPS))
