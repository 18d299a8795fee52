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
import sys
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np
import yaml

from .densities import Label
from .filters import BirthEntry, BirthModel, FilterConfig, MotionModel, ncv_motion_model
from .gm import GaussianMixture, PositiveDefiniteError, check_pd
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
    motion: MotionModel
    birth: BirthModel
    sensors: tuple[SensorModel, ...]
    graph: tuple[tuple[int, ...], ...]  # each sensor's in-neighbours, itself included
    trajectories: tuple[TruthTrajectory, ...]
    filter: FilterConfig
    consensus_steps: int
    trials: int
    seed: int


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


def _load_sensor(doc: dict, i: int, area, clutter: float, pd: float) -> SensorModel:
    """Sensor i; clutter and pd are the regime's checked values, taken where
    the sensor sets none."""
    where = f"sensors[{i}]"
    kind = _require(doc, "kind", where)
    position = _numbers(f"{where}.position", _require(doc, "position", where), 2, _FINITE)
    clutter = float(_number(f"{where}.clutter_rate", doc.get("clutter_rate", clutter), _NONNEGATIVE))
    pd = float(_number(f"{where}.detection_prob", doc.get("detection_prob", pd), _UNIT))
    if kind == "toa":
        noise = float(_number(f"{where}.noise_std", doc.get("noise_std", 100.0), _POSITIVE))
        xmin, xmax, ymin, ymax = area
        r_max = float(_number(f"{where}.r_max", doc.get("r_max", math.hypot(xmax - xmin, ymax - ymin)), _POSITIVE))
        space = (0.0, r_max)
    elif kind == "doa":
        if "noise_std_deg" in doc:
            noise = math.radians(_number(f"{where}.noise_std_deg", doc["noise_std_deg"], _POSITIVE))
        else:
            noise = float(_number(f"{where}.noise_std", doc.get("noise_std", math.radians(1.0)), _POSITIVE))
        space = (-math.pi, math.pi)
    else:
        raise ScenarioError(f"{where}.kind: unknown sensor kind {kind!r}")
    return SensorModel(kind, position, noise, clutter, pd, space)


def _load_birth(doc: dict) -> BirthModel:
    """The birth table, its entries numbered 1..n in document order, each a
    one-component mixture on read-only arrays of its checked location and
    the shared checked covariance."""
    existence = float(_number("birth.existence", _require(doc, "existence", "birth"), _UNIT))
    cov = np.diag(_numbers("birth.cov_diag", _require(doc, "cov_diag", "birth"), 4, _POSITIVE))[None]
    try:
        check_pd(cov)
    except PositiveDefiniteError as e:
        raise ScenarioError(f"birth.cov_diag: {e}") from e
    log_w = np.zeros(1)
    log_w.setflags(write=False)
    cov.setflags(write=False)
    first: dict[tuple[float, ...], int] = {}
    entries = []
    for i, loc in enumerate(_section(_require(doc, "locations", "birth"), _SEQUENCE, "birth.locations")):
        mean = _numbers(f"birth.locations[{i}]", loc, 4, _FINITE)
        j = first.setdefault(mean, i)
        if j != i:
            raise ScenarioError(f"birth.locations[{i}]: repeats birth.locations[{j}]")
        means = np.array([mean])
        means.setflags(write=False)
        entries.append(BirthEntry(i + 1, existence, GaussianMixture(log_w, means, cov)))
    return BirthModel(tuple(entries))


# what a numeric field must be: a test on a real number, and its wording
_COUNT = (lambda v: isinstance(v, int) and v >= 1, "an integer >= 1")
_INDEX = (lambda v: isinstance(v, int) and v >= 0, "an integer >= 0")
_UNIT = (lambda v: 0.0 <= v <= 1.0, "a number in [0, 1]")
# the bound is also false for NaN and for an int too large for a float
_FINITE = (lambda v: abs(v) <= sys.float_info.max, "a finite number")
# a negative merge threshold leaves every merge cluster empty, so the merged
# moments come out NaN
_NONNEGATIVE = (lambda v: 0.0 <= v <= sys.float_info.max, "a finite number >= 0")
_POSITIVE = (lambda v: 0.0 < v <= sys.float_info.max, "a finite number > 0")

_FILTER_FIELDS = {
    **dict.fromkeys(("max_hypotheses", "assignments_per_hypothesis", "gm_max_components"), _COUNT),
    **dict.fromkeys(("hyp_prune_thresh", "gm_trunc_thresh", "lmb_prune_thresh"), _UNIT),
    "gm_merge_thresh": _NONNEGATIVE,
}
# each run setting's kind and default
_RUN_FIELDS = {"consensus_steps": (_INDEX, 1), "trials": (_COUNT, 1), "seed": (_INDEX, 0)}


def _number(field: str, v, kind):
    """v, if it is a real number (an int or float, not a bool) of the given
    kind; otherwise a ScenarioError naming the field."""
    test, want = kind
    if not (isinstance(v, (int, float)) and not isinstance(v, bool) and test(v)):  # NaN fails every comparison
        raise ScenarioError(f"{field}: {v!r} is not {want}")
    return v


def _numbers(field: str, v, n: int, kind) -> tuple[float, ...]:
    """v, if it is a list of n real numbers of the given kind, as floats;
    otherwise a ScenarioError naming the field or the entry."""
    if len(_section(v, _SEQUENCE, field)) != n:
        raise ScenarioError(f"{field}: expected a list of {n} numbers, got {v!r}")
    return tuple(float(_number(f"{field}[{i}]", x, kind)) for i, x in enumerate(v))


def _load_motion(doc: dict, ts: float) -> MotionModel:
    """The filter's motion model; an interval and a noise whose noise
    covariance overflows are an error naming both."""
    noise = float(_number("process_noise_std", doc.get("process_noise_std", 5.0), _NONNEGATIVE))
    ps = float(_number("survival_prob", doc.get("survival_prob", 0.99), _UNIT))
    try:
        with np.errstate(over="ignore"):
            motion = ncv_motion_model(ts, noise, ps)
    except OverflowError:  # a Python float power out of range
        motion = None
    if motion is None or not np.isfinite(motion.noise_cov).all():
        raise ScenarioError(
            f"sampling_interval {ts!r} and process_noise_std {noise!r} give a non-finite process noise covariance"
        )
    return motion


def _load_filter(doc: dict) -> FilterConfig:
    unknown = set(doc) - set(_FILTER_FIELDS)
    if unknown:
        raise ScenarioError(f"filter: unknown fields {sorted(unknown)}")
    for k, v in doc.items():
        _number(f"filter.{k}", v, _FILTER_FIELDS[k])
    return FilterConfig(**doc)


def scenario_from_dict(doc: dict, name: str) -> Scenario:
    if doc.get("schema") != 1:
        raise ScenarioError(f"schema: expected 1, got {doc.get('schema')!r}")
    name = doc.get("name", name)
    if not isinstance(name, str) or name in ("", ".", "..") or "/" in name or "\\" in name:
        raise ScenarioError(f"name: {name!r} is not a file name (a non-empty string with no path separator, not '.' or '..')")
    area_doc = _section(_require(doc, "area", name), dict, "area")
    area = tuple(float(_number(f"area.{k}", _require(area_doc, k, "area"), _FINITE)) for k in ("xmin", "xmax", "ymin", "ymax"))
    if area[1] <= area[0] or area[3] <= area[2]:
        raise ScenarioError("area: xmax/ymax must exceed xmin/ymin")
    ts = float(_number("sampling_interval", _require(doc, "sampling_interval", name), _POSITIVE))
    steps = _number("steps", _require(doc, "steps", name), _COUNT)
    motion = _load_motion(doc, ts)

    regime_clutter = float(_number("clutter_rate", doc.get("clutter_rate", 0.0), _NONNEGATIVE))
    regime_pd = float(_number("detection_prob", doc.get("detection_prob", 0.99), _UNIT))
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
        birth = _number(f"{where}.birth", _require(t, "birth", where), _INDEX)
        death = _number(f"{where}.death", _require(t, "death", where), _INDEX)
        if death <= birth:
            raise ScenarioError(f"{where}: death step {death} must exceed birth step {birth}")
        if death > steps:
            raise ScenarioError(f"{where}: lifetime [{birth}, {death}) outside 0..{steps}")
        state = _numbers(f"{where}.state", _require(t, "state", where), 4, _FINITE)
        changes = []
        for j, c in enumerate(_section(t.get("velocity_changes", []), _SEQUENCE, f"{where}.velocity_changes")):
            field = f"{where}.velocity_changes[{j}]"
            _, vx, vy = _numbers(field, c, 3, _FINITE)
            changes.append((_number(f"{field}[0]", c[0], _INDEX), vx, vy))
        trajectories.append(TruthTrajectory(birth, death, state, tuple(changes)))

    scenario = Scenario(
        name=name,
        area=area,
        sampling_interval=ts,
        steps=steps,
        motion=motion,
        birth=_load_birth(_section(_require(doc, "birth", name), dict, "birth")),
        sensors=sensors,
        graph=graph,
        trajectories=tuple(trajectories),
        filter=_load_filter(_section(doc.get("filter", {}), dict, "filter")),
        **{k: _number(k, doc.get(k, default), kind) for k, (kind, default) in _RUN_FIELDS.items()},
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
    """Copy of the scenario with its run settings swapped out, each checked
    as scenario load checks it."""
    given = {"consensus_steps": consensus_steps, "trials": trials, "seed": seed}
    return dataclasses.replace(s, **{k: _number(k, v, _RUN_FIELDS[k][0]) for k, v in given.items() if v is not None})


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
