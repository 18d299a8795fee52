"""Scenario configuration: schema, validation, truth generation, bundled setups.

Scenarios are YAML documents (schema version 1) describing the surveillance
area, motion/birth models, sensors with their clutter and detection
parameters, the communication graph, deterministic truth trajectories
(piecewise constant velocity; process noise lives only in the filter
model), filter thresholds, and Monte-Carlo settings.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np
import yaml

from .densities import Label
from .filters import BirthEntry, BirthModel, FilterConfig, MotionModel, ncv_motion_model
from .gm import Gaussian, GaussianMixture
from .network import neighbour_lists
from .sensors import SensorModel

BUNDLED = ("desk_small", "paper_highsnr", "paper_lowsnr", "paper_lowpd")


class ScenarioError(ValueError):
    """Invalid scenario document; message names the offending field."""


@dataclass(frozen=True)
class TruthTrajectory:
    birth_step: int
    death_step: int
    initial_state: tuple[float, float, float, float]
    velocity_changes: tuple[tuple[int, float, float], ...] = ()


@dataclass(frozen=True, eq=False)
class Scenario:
    name: str
    area: tuple[float, float, float, float]  # xmin, xmax, ymin, ymax
    sampling_interval: float
    steps: int
    process_noise_std: float
    survival_prob: float
    birth: BirthModel
    sensors: tuple[SensorModel, ...]
    graph: tuple[tuple[int, ...], ...]  # each sensor's in-neighbours, itself included
    trajectories: tuple[TruthTrajectory, ...]
    filter: FilterConfig
    consensus_steps: int
    trials: int
    seed: int

    def motion_model(self) -> MotionModel:
        return ncv_motion_model(self.sampling_interval, self.process_noise_std, self.survival_prob)


def _require(doc: dict, key: str, where: str):
    if key not in doc:
        raise ScenarioError(f"missing field {where}.{key}")
    return doc[key]


_SEQUENCE = (list, tuple)


def _section(value, kind, field: str):
    """value, if it is of the section's kind (dict or _SEQUENCE); a null or
    a scalar in its place is an error naming the field."""
    if not isinstance(value, kind):
        want = "a mapping" if kind is dict else "a list"
        raise ScenarioError(f"{field}: expected {want}, got {value!r}")
    return value


def _load_sensor(doc: dict, i: int, area, regime_clutter=None, regime_pd=None) -> SensorModel:
    where = f"sensors[{i}]"
    kind = _require(doc, "kind", where)
    position = tuple(_section(_require(doc, "position", where), _SEQUENCE, f"{where}.position"))
    clutter = float(doc.get("clutter_rate", regime_clutter if regime_clutter is not None else 0.0))
    pd = float(doc.get("detection_prob", regime_pd if regime_pd is not None else 0.99))
    if kind == "toa":
        noise = float(doc.get("noise_std", 100.0))
        xmin, xmax, ymin, ymax = area
        r_max = float(doc.get("r_max", math.hypot(xmax - xmin, ymax - ymin)))
        space = (0.0, r_max)
    elif kind == "doa":
        if "noise_std_deg" in doc:
            noise = math.radians(float(doc["noise_std_deg"]))
        else:
            noise = float(doc.get("noise_std", math.radians(1.0)))
        space = (-math.pi, math.pi)
    else:
        raise ScenarioError(f"{where}.kind: unknown sensor kind {kind!r}")
    try:
        return SensorModel(kind, position, noise, clutter, pd, space)
    except ValueError as e:
        raise ScenarioError(f"{where}: {e}") from e


def _load_birth(doc: dict) -> BirthModel:
    existence = float(_require(doc, "existence", "birth"))
    cov_diag = _section(_require(doc, "cov_diag", "birth"), _SEQUENCE, "birth.cov_diag")
    cov = np.diag(np.asarray(cov_diag, dtype=float))
    entries = []
    for i, loc in enumerate(_section(_require(doc, "locations", "birth"), _SEQUENCE, "birth.locations")):
        mean = np.asarray(loc, dtype=float)
        if mean.shape != (4,):
            raise ScenarioError(f"birth.locations[{i}]: expected a 4-vector [px, vx, py, vy]")
        entries.append(BirthEntry(i + 1, existence, GaussianMixture.single(Gaussian(mean, cov))))
    return BirthModel(tuple(entries))


_COUNT_FIELDS = ("max_hypotheses", "assignments_per_hypothesis", "gm_max_components")
_UNIT_FIELDS = ("hyp_prune_thresh", "gm_trunc_thresh", "lmb_prune_thresh")


def _load_filter(doc: dict) -> FilterConfig:
    unknown = set(doc) - {*_COUNT_FIELDS, *_UNIT_FIELDS, "gm_merge_thresh"}
    if unknown:
        raise ScenarioError(f"filter: unknown fields {sorted(unknown)}")
    for k, v in doc.items():
        number = isinstance(v, (int, float)) and not isinstance(v, bool)
        if k in _COUNT_FIELDS:
            ok, want = number and isinstance(v, int) and v >= 1, "an integer >= 1"
        elif k in _UNIT_FIELDS:
            ok, want = number and 0.0 <= v <= 1.0, "a number in [0, 1]"
        else:
            # a negative threshold leaves every merge cluster empty, so the
            # merged moments come out NaN
            ok, want = number and v >= 0.0, "a number >= 0"
        if not ok:  # NaN fails every comparison
            raise ScenarioError(f"filter.{k}: {v!r} is not {want}")
    return FilterConfig(**doc)


def scenario_from_dict(doc: dict, name: str) -> Scenario:
    if doc.get("schema") != 1:
        raise ScenarioError(f"schema: expected 1, got {doc.get('schema')!r}")
    name = doc.get("name", name)
    area_doc = _section(_require(doc, "area", name), dict, "area")
    area = tuple(float(area_doc[k]) for k in ("xmin", "xmax", "ymin", "ymax"))
    if area[1] <= area[0] or area[3] <= area[2]:
        raise ScenarioError("area: xmax/ymax must exceed xmin/ymin")
    ts = float(_require(doc, "sampling_interval", name))
    if ts <= 0:
        raise ScenarioError("sampling_interval: must be positive")
    steps = int(_require(doc, "steps", name))
    if steps < 1:
        raise ScenarioError("steps: must be >= 1")
    survival_prob = float(doc.get("survival_prob", 0.99))
    if not 0.0 <= survival_prob <= 1.0:
        raise ScenarioError(f"survival_prob: {survival_prob} outside [0, 1]")

    regime_clutter = doc.get("clutter_rate")
    regime_pd = doc.get("detection_prob")
    sensors = tuple(
        _load_sensor(_section(s, dict, f"sensors[{i}]"), i, area, regime_clutter, regime_pd)
        for i, s in enumerate(_section(_require(doc, "sensors", name), _SEQUENCE, "sensors"))
    )
    if not sensors:
        raise ScenarioError("sensors: at least one sensor required")

    graph_doc = _section(_require(doc, "graph", name), dict, "graph")
    edge_doc = _section(graph_doc.get("edges", []), _SEQUENCE, "graph.edges")
    try:
        graph = neighbour_lists(len(sensors), edge_doc)
    except ValueError as e:
        raise ScenarioError(f"graph.{e}") from e

    trajectories = []
    for i, t in enumerate(_section(doc.get("trajectories", []), _SEQUENCE, "trajectories")):
        where = f"trajectories[{i}]"
        _section(t, dict, where)
        birth = int(_require(t, "birth", where))
        death = int(_require(t, "death", where))
        if death <= birth:
            raise ScenarioError(f"{where}: death step {death} must exceed birth step {birth}")
        if birth < 0 or death > steps:
            raise ScenarioError(f"{where}: lifetime [{birth}, {death}) outside 0..{steps}")
        state = tuple(float(v) for v in _section(_require(t, "state", where), _SEQUENCE, f"{where}.state"))
        if len(state) != 4:
            raise ScenarioError(f"{where}.state: expected [px, vx, py, vy]")
        changes = tuple(
            (int(c[0]), float(c[1]), float(c[2]))
            for c in _section(t.get("velocity_changes", []), _SEQUENCE, f"{where}.velocity_changes")
        )
        trajectories.append(TruthTrajectory(birth, death, state, changes))

    scenario = Scenario(
        name=name,
        area=area,
        sampling_interval=ts,
        steps=steps,
        process_noise_std=float(doc.get("process_noise_std", 5.0)),
        survival_prob=survival_prob,
        birth=_load_birth(_section(_require(doc, "birth", name), dict, "birth")),
        sensors=sensors,
        graph=graph,
        trajectories=tuple(trajectories),
        filter=_load_filter(_section(doc.get("filter", {}), dict, "filter")),
        consensus_steps=int(doc.get("consensus_steps", 1)),
        trials=int(doc.get("trials", 1)),
        seed=int(doc.get("seed", 0)),
    )
    _validate_truth_inside_area(scenario)
    return scenario


def _validate_truth_inside_area(s: Scenario) -> None:
    xmin, xmax, ymin, ymax = s.area
    for i, per_step in enumerate(generate_truth(s)):
        for _, state in per_step:
            if not (xmin <= state[0] <= xmax and ymin <= state[2] <= ymax):
                raise ScenarioError(
                    f"trajectories: position ({state[0]:.0f}, {state[2]:.0f}) leaves the area at step {i}"
                )


def load_scenario(path_or_name: str) -> Scenario:
    """Load a scenario YAML by file path or bundled name."""
    p = Path(path_or_name)
    if p.exists():
        text = p.read_text()
        name = p.stem
    elif path_or_name in BUNDLED:
        text = resources.files("distmot.scenarios").joinpath(f"{path_or_name}.yaml").read_text()
        name = path_or_name
    else:
        raise ScenarioError(f"no scenario file {path_or_name!r} and no bundled scenario of that name")
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as e:
        raise ScenarioError(f"{path_or_name}: {e}") from e
    if not isinstance(doc, dict):
        raise ScenarioError(f"{path_or_name}: top level must be a mapping")
    return scenario_from_dict(doc, name)


def with_overrides(
    s: Scenario,
    consensus_steps: int | None = None,
    trials: int | None = None,
    seed: int | None = None,
) -> Scenario:
    """Copy of the scenario with its run settings swapped out."""
    return dataclasses.replace(
        s,
        consensus_steps=s.consensus_steps if consensus_steps is None else consensus_steps,
        trials=s.trials if trials is None else trials,
        seed=s.seed if seed is None else seed,
    )


def generate_truth(s: Scenario) -> list[list[tuple[Label, np.ndarray]]]:
    """Noise-free piecewise-constant-velocity truth, labeled per trajectory.

    Labels are (birth step, index within that step's births, 1-based).
    Objects are present from their birth step up to but excluding their
    death step.
    """
    birth_counters: dict[int, int] = {}
    labeled = []
    for t in s.trajectories:
        birth_counters[t.birth_step] = birth_counters.get(t.birth_step, 0) + 1
        labeled.append(((t.birth_step, birth_counters[t.birth_step]), t))

    out: list[list[tuple[Label, np.ndarray]]] = []
    states: dict[Label, np.ndarray] = {}
    for k in range(s.steps):
        current: list[tuple[Label, np.ndarray]] = []
        for lab, t in labeled:
            if k == t.birth_step:
                states[lab] = np.asarray(t.initial_state, dtype=float).copy()
            if t.birth_step <= k < t.death_step:
                x = states[lab]
                for step, vx, vy in t.velocity_changes:
                    if step == k:
                        x[1], x[3] = vx, vy
                current.append((lab, x.copy()))
                nxt = x.copy()
                nxt[0] += s.sampling_interval * x[1]
                nxt[2] += s.sampling_interval * x[3]
                states[lab] = nxt
        out.append(current)
    return out
