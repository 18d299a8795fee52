"""Observation of distmot from outside: a step clock and a layer tracer.

Both work by replacing functions in the module namespaces that look them up
and restoring them afterwards; no file of the package changes. A function
imported with `from .x import f` is bound in every importing module, so each
one is replaced wherever the original object is found.

The step clock marks step boundaries at calls into
`sensors.simulate_measurements` (every step simulates one scan per sensor,
first thing) and `harness.run_trial`, and is the only instrumentation of a
timed run. The tracer records a span (name, start, end, parent, trial, step)
per call into a layer's public function, keeps the spans in memory, and
derives self time as a span's duration minus its children's.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import defaultdict

# Modules whose namespaces the tracer patches.
NAMESPACES = (
    "distmot.harness",
    "distmot.filters",
    "distmot.fusion",
    "distmot.gm",
    "distmot.sensors",
    "distmot.scenario",
)


class Patches:
    """Attribute replacements, undone in reverse order."""

    def __init__(self):
        self._undo = []

    def set(self, obj, name, value):
        self._undo.append((obj, name, getattr(obj, name)))
        setattr(obj, name, value)

    def restore(self):
        while self._undo:
            obj, name, old = self._undo.pop()
            setattr(obj, name, old)


class StepClock:
    """Per-trial step start times, trial end times and measurement scans."""

    def __init__(self, n_sensors: int):
        self.n_sensors = n_sensors
        self.trial = -1
        self.step = -1
        self.starts: list[list[float]] = []
        self.ends: list[float] = []
        self.calls: list[int] = []
        self.scans: list[list] = []
        self._patches = Patches()

    def install(self):
        harness = importlib.import_module("distmot.harness")
        sensors = importlib.import_module("distmot.sensors")
        run_trial, simulate = harness.run_trial, sensors.simulate_measurements
        clock = self

        @functools.wraps(run_trial)
        def run_trial_hook(*args, **kwargs):
            clock.trial += 1
            clock.step = -1
            clock.starts.append([])
            clock.calls.append(0)
            clock.scans.append([])
            try:
                return run_trial(*args, **kwargs)
            finally:
                clock.ends.append(time.perf_counter())

        @functools.wraps(simulate)
        def simulate_hook(*args, **kwargs):
            calls = clock.calls[-1]
            if calls % clock.n_sensors == 0:
                clock.step += 1
                clock.starts[-1].append(time.perf_counter())
            clock.calls[-1] = calls + 1
            scan = simulate(*args, **kwargs)
            clock.scans[-1].append(scan)
            return scan

        self._patches.set(harness, "run_trial", run_trial_hook)
        self._patches.set(sensors, "simulate_measurements", simulate_hook)

    def uninstall(self):
        self._patches.restore()

    def step_seconds(self, trial: int) -> list[float]:
        """Durations of the steps of one trial; the last ends when run_trial returns."""
        marks = self.starts[trial] + [self.ends[trial]]
        return [b - a for a, b in zip(marks, marks[1:])]


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _count_merge(counts, args, kwargs, result):
    counts["merge_in"] += _arg(args, kwargs, 0, "p").n_components
    counts["merge_out"] += result.n_components


def _count_pairs(counts, args, kwargs, result):
    counts["chernoff_pairs"] += _arg(args, kwargs, 0, "p_a").n_components * _arg(args, kwargs, 1, "p_b").n_components


def _count_maps(counts, args, kwargs, result):
    counts["maps_requested"] += _arg(args, kwargs, 1, "k")
    counts["maps_returned"] += len(result)


def _count_posterior(counts, args, kwargs, result):
    counts["posterior_hyps"] += len(result)


def _count_expanded(counts, args, kwargs, result):
    counts["expanded_hyps"] += len(result)


def _count_meas(counts, args, kwargs, result):
    counts["measurements"] += len(result)


def _count_common(counts, args, kwargs, result):
    sizes = [len(d) for d, w in _arg(args, kwargs, 0, "inputs") if w > 0.0]
    counts["fuse_in"] += sum(sizes) / len(sizes)
    counts["fuse_out"] += len(result)


def _count_ref_bytes(counts, args, kwargs, result):
    counts["ref_bytes"] += result


# (defining module, public function, counter hook)
TARGETS = (
    ("harness", "run_experiment", None),
    ("harness", "run_trial", None),
    ("scenario", "generate_truth", None),
    ("network", "metropolis_weights", None),
    ("sensors", "simulate_measurements", _count_meas),
    ("sensors", "unscented_update_mixture", None),
    ("filters", "mdglmb_predict", None),
    ("filters", "lmb_predict", None),
    ("filters", "mdglmb_update", _count_posterior),
    ("filters", "lmb_update", None),
    ("filters", "centralized_mdglmb_step", None),
    ("filters", "reduce_mdglmb_pdfs", None),
    ("filters", "reduce_lmb_pdfs", None),
    ("filters", "lmb_prune", None),
    ("filters", "extract_estimates_mdglmb", None),
    ("filters", "extract_estimates_lmb", None),
    ("densities", "lmb_to_mdglmb", _count_expanded),
    ("densities", "lmb_from_mdglmb", None),
    ("assignment", "ranked_assignments", _count_maps),
    ("gm", "gm_merge_prune_cap", _count_merge),
    ("gm", "gm_chernoff_multi", None),
    ("gm", "gm_chernoff_pair", _count_pairs),
    ("fusion", "consensus_run", None),
    ("fusion", "fuse_mdglmb", _count_common),
    ("fusion", "fuse_lmb", _count_common),
    ("wire", "exchange_bytes_actual", None),
    ("wire", "exchange_bytes_reference", _count_ref_bytes),
    ("ospa", "ospa", None),
)

LOAD_SPAN = "scenario.load"

PREDICT = {"filters.mdglmb_predict", "filters.lmb_predict"}
UPDATE = {"filters.mdglmb_update", "filters.lmb_update", "filters.centralized_mdglmb_step"}
REDUCE = {"filters.reduce_mdglmb_pdfs", "filters.reduce_lmb_pdfs", "filters.lmb_prune"}
EXTRACT = {"filters.extract_estimates_mdglmb", "filters.extract_estimates_lmb"}
FUSE = {"fusion.fuse_mdglmb", "fusion.fuse_lmb"}
CHERNOFF = {"gm.gm_chernoff_multi", "gm.gm_chernoff_pair"}
CONSENSUS = "fusion.consensus_run"


class Tracer:
    """Spans of calls into the layers' public functions, kept in memory."""

    def __init__(self, clock: StepClock):
        self.clock = clock
        self.spans: list[list] = []      # [name, start, end, parent, trial, step]
        self.counts: dict[str, float] = defaultdict(float)
        self.murty: set[int] = set()     # ranked_assignments spans that solved an assignment
        self._stack: list[int] = []
        self._patches = Patches()

    def _wrap(self, name, fn, hook):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, clock.trial, clock.step]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return traced

    def install(self):
        namespaces = [importlib.import_module(n) for n in NAMESPACES]
        for module, fn_name, hook in TARGETS:
            original = getattr(importlib.import_module(f"distmot.{module}"), fn_name)
            wrapped = self._wrap(f"{module}.{fn_name}", original, hook)
            patched = 0
            for ns in namespaces:
                if getattr(ns, fn_name, None) is original:
                    self._patches.set(ns, fn_name, wrapped)
                    patched += 1
            if not patched:
                raise RuntimeError(f"{module}.{fn_name} is looked up in none of {NAMESPACES}")

        # The Murty search is the only caller of the assignment solver inside
        # ranked_assignments; the dense path never calls it.
        assignment = importlib.import_module("distmot.assignment")
        solve = assignment.linear_sum_assignment
        stack, murty = self._stack, self.murty

        @functools.wraps(solve)
        def solve_hook(*args, **kwargs):
            if stack:
                murty.add(stack[-1])
            return solve(*args, **kwargs)

        self._patches.set(assignment, "linear_sum_assignment", solve_hook)

    def uninstall(self):
        self._patches.restore()

    @contextlib.contextmanager
    def span(self, name):
        """Record a span around the benchmark's own call."""
        span = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.clock.trial, self.clock.step]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def write(self, path):
        """Spans as JSON lines, times in seconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as f:
            f.write(json.dumps({"fields": ["name", "start", "end", "parent", "trial", "step"]}) + "\n")
            for name, start, end, parent, trial, step in self.spans:
                f.write(json.dumps([name, start - t0, end - t0, parent, trial, step]) + "\n")


class SpanSummary:
    """Spans grouped by (name, set of ancestor names), with calls, time and self time."""

    def __init__(self, tracer: Tracer):
        spans = tracer.spans
        bit: dict[str, int] = {}
        for s in spans:
            bit.setdefault(s[0], 1 << len(bit))
        self.bit = bit
        child = [0.0] * len(spans)
        mask = [0] * len(spans)
        for i, (name, start, end, parent, _, _) in enumerate(spans):
            if parent >= 0:
                mask[i] = mask[parent] | bit[spans[parent][0]]
                child[parent] += end - start
        groups: dict[tuple[str, int], list] = {}
        for i, (name, start, end, *_rest) in enumerate(spans):
            g = groups.setdefault((name, mask[i]), [0, 0.0, 0.0])
            g[0] += 1
            g[1] += end - start
            g[2] += end - start - child[i]
        self.groups = groups
        self.murty = len(tracer.murty)
        self.wall = sum(end - start for _, start, end, parent, _, _ in spans if parent < 0)

    def _bits(self, names) -> int:
        return sum(self.bit.get(n, 0) for n in names)

    def _select(self, names, under=None, not_under=None):
        names = {names} if isinstance(names, str) else set(names)
        for (name, mask), g in self.groups.items():
            if name not in names:
                continue
            if under is not None and not mask & self._bits([under]):
                continue
            if not_under is not None and mask & self._bits([not_under]):
                continue
            yield mask, g

    def calls(self, names, **where) -> int:
        return sum(g[0] for _, g in self._select(names, **where))

    def time(self, names, **where) -> float:
        """Time inside the named spans, each interval counted once."""
        outer = self._bits({names} if isinstance(names, str) else names)
        return sum(g[1] for mask, g in self._select(names, **where) if not mask & outer)

    def self_time(self, names, **where) -> float:
        return sum(g[2] for _, g in self._select(names, **where))

    def by_name(self) -> dict[str, list]:
        """name -> [calls, time (outermost spans), self time]."""
        out: dict[str, list] = {}
        for (name, mask), (calls, total, own) in self.groups.items():
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += calls
            if not mask & self.bit[name]:
                row[1] += total
            row[2] += own
        return out


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def layer_metrics(summary: SpanSummary, counts: dict, dropped_components: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass: name -> (value, unit).

    Names ending in _self_s are self time; other _s names are the time spent
    inside the named functions, children included.
    """
    s, c = summary, counts
    merge = "gm.gm_merge_prune_cap"
    ranked = "assignment.ranked_assignments"
    update = "filters.mdglmb_update"
    return {
        "gm.merge_s": (s.time(merge), "s"),
        "gm.merge_calls": (s.calls(merge), "count"),
        "gm.merge_keep_ratio": (_ratio(c["merge_out"], c["merge_in"]), "ratio"),
        "gm.chernoff_s": (s.time(CHERNOFF), "s"),
        "gm.chernoff_calls": (s.calls("gm.gm_chernoff_multi"), "count"),
        "gm.chernoff_pairs": (c["chernoff_pairs"], "count"),
        "assignment.ranked_s": (s.time(ranked), "s"),
        "assignment.ranked_calls": (s.calls(ranked), "count"),
        "assignment.murty_share": (_ratio(s.murty, s.calls(ranked)), "ratio"),
        "assignment.maps_yield": (_ratio(c["maps_returned"], c["maps_requested"]), "ratio"),
        "filters.predict_s": (s.time(PREDICT), "s"),
        "filters.update_self_s": (s.self_time(UPDATE), "s"),
        "filters.reduce_s": (s.time(REDUCE, not_under=CONSENSUS), "s"),
        "filters.extract_s": (s.time(EXTRACT), "s"),
        "filters.update_calls": (s.calls(update), "count"),
        "filters.hyps_per_posterior": (_ratio(c["posterior_hyps"], s.calls(update)), "count"),
        "filters.dropped_components": (dropped_components, "count"),
        "densities.expand_s": (s.time("densities.lmb_to_mdglmb"), "s"),
        "densities.collapse_s": (s.time("densities.lmb_from_mdglmb"), "s"),
        "densities.expanded_hyps": (_ratio(c["expanded_hyps"], s.calls("densities.lmb_to_mdglmb")), "count"),
        "sensors.simulate_s": (s.time("sensors.simulate_measurements"), "s"),
        "sensors.meas_per_scan": (_ratio(c["measurements"], s.calls("sensors.simulate_measurements")), "count"),
        "sensors.ut_update_s": (s.time("sensors.unscented_update_mixture"), "s"),
        "sensors.ut_update_calls": (s.calls("sensors.unscented_update_mixture"), "count"),
        "fusion.consensus_self_s": (s.self_time(CONSENSUS), "s"),
        "fusion.fuse_self_s": (s.self_time(FUSE), "s"),
        "fusion.fuse_calls": (s.calls(FUSE), "count"),
        "fusion.common_hyp_ratio": (_ratio(c["fuse_out"], c["fuse_in"]), "ratio"),
        "fusion.reduce_s": (s.time(REDUCE, under=CONSENSUS), "s"),
        "wire.encode_s": (s.time("wire.exchange_bytes_actual"), "s"),
        "wire.bytes_ref_per_node_round": (_ratio(c["ref_bytes"], s.calls("wire.exchange_bytes_reference")), "B"),
        "ospa.score_s": (s.time("ospa.ospa"), "s"),
        "network.weights_s": (s.time("network.metropolis_weights"), "s"),
        "scenario.load_s": (s.time(LOAD_SPAN), "s"),
        "scenario.truth_s": (s.time("scenario.generate_truth"), "s"),
        "harness.trial_self_s": (s.self_time("harness.run_trial"), "s"),
        "harness.experiment_overhead_s": (s.time("harness.run_experiment") - s.time("harness.run_trial"), "s"),
    }


def layer_table(summary: SpanSummary) -> str:
    """Self time, calls and share of the traced wall time, per layer and per function."""
    rows, wall = summary.by_name(), summary.wall
    layers: dict[str, list] = {}
    for name, (calls, _, own) in rows.items():
        row = layers.setdefault(name.split(".")[0], [0, 0.0])
        row[0] += calls
        row[1] += own
    lines = [f"{'layer':<12}{'self_s':>10}{'calls':>10}{'share':>8}"]
    for layer, (calls, own) in sorted(layers.items(), key=lambda kv: -kv[1][1]):
        lines.append(f"{layer:<12}{own:>10.3f}{calls:>10}{own / wall:>8.1%}")
    lines.append("")
    lines.append(f"{'function':<38}{'time_s':>10}{'self_s':>10}{'calls':>10}{'share':>8}")
    for name, (calls, total, own) in sorted(rows.items(), key=lambda kv: -kv[1][2]):
        lines.append(f"{name:<38}{total:>10.3f}{own:>10.3f}{calls:>10}{own / wall:>8.1%}")
    return "\n".join(lines)
